"""Every module transform maps valid modules to valid modules.

Transforms store their output as given, without revalidating it (modules
are validated where they enter the program), so this battery runs each one
over the catalog and rebuilds every output through the validating
constructor: the rebuild must pass and equal the output, which pins both
validity and the stored form (sparse rows without zeros, reduced degrees).
"""

import pytest

from liecolour import (
    Submodule,
    coarsen,
    decompose,
    direct_sum,
    discolour_module,
    dual_characters,
    full_subgroup,
    graded_quotient,
    intertwiners,
    is_graded_irreducible,
    is_isomorphic,
    loop,
    parity_shift,
    recolour_module,
    regrade,
    submodule_to_module,
    subgroup_from_generators,
    trivial_subgroup,
    twist,
)
from liecolour.errors import InvalidInput, InvalidSubmodule, ModuleValidationError
from liecolour.gmodule import GradedModule
from liecolour.workbench import (
    GROUP,
    catalog_modules,
    discolouring_sigma,
    h2_subgroup,
    make_sl2_graded,
    make_V_lambda,
)

SUBGROUPS = [
    trivial_subgroup(GROUP),
    subgroup_from_generators(GROUP, [(1, 0)]),
    subgroup_from_generators(GROUP, [(0, 1)]),
    subgroup_from_generators(GROUP, [(1, 1)]),
    full_subgroup(GROUP),
]

# one of each catalog kind: V, E/O, E+-/O+- (also recoloured), loops (also
# recoloured), the ungraded U family and the supersymmetry block model
BATTERY = [
    "V2", "V3", "E2", "O3", "E+2", "O-2", "E-2c", "loopE1", "loopO1c",
    "U++3", "U-+1", "bd_seed", "bd_loop",
]


@pytest.fixture(scope="module")
def catalog():
    return catalog_modules(3)


def _outputs(module):
    """(name, output) for every transform that applies to the module."""
    out = []
    for hsub in SUBGROUPS:
        if module.hsub.is_subset_of(hsub):
            out.append((f"coarsen {hsub!r}", coarsen(module, hsub)))
            out.append((f"regrade {hsub!r}", regrade(module, hsub, module.degrees)))
    for ch in dual_characters(GROUP):
        out.append((f"twist {ch!r}", twist(module, ch)))
    for h in GROUP.elements():
        out.append((f"parity_shift {h}", parity_shift(module, h)))
    doubled = direct_sum(module, module)
    out.append(("direct_sum", doubled))
    witness = is_graded_irreducible(doubled).witness
    out.append(("restriction", submodule_to_module(witness)[0]))
    out.append(("quotient", graded_quotient(doubled, witness)))
    if module.hsub.order() == 1:
        # the multiplier is constant on grading cosets only when H = 0
        out.append(("discolour", discolour_module(module, discolouring_sigma())))
        out.append(("recolour", recolour_module(module, discolouring_sigma())))
    for refiner in SUBGROUPS:
        step = module.hsub.order() // refiner.order()
        if refiner.is_subset_of(module.hsub) and step == 2:
            looped = loop(module, refiner).module
            out.append((f"loop {refiner!r}", looped))
            for k, s in enumerate(decompose(looped)):
                out.append((f"loop summand {k}", submodule_to_module(s)[0]))
                out.append((f"loop quotient {k}", graded_quotient(looped, s)))
    return out


@pytest.mark.parametrize("name", BATTERY)
def test_every_transform_output_validates(catalog, name):
    module = catalog[name]
    outputs = _outputs(module)
    assert len(outputs) >= 11
    for what, out in outputs:
        try:
            rebuilt = GradedModule(out.algebra, out.hsub, list(out.degrees), out.action)
        except ModuleValidationError as exc:
            pytest.fail(f"{name}: {what} gave an invalid module: {exc}")
        assert rebuilt == out, f"{name}: {what} is not stored in normal form"


def _validation_outcome(build):
    """The module build() returns, or the kind, witness and message of the
    ModuleValidationError it raises."""
    try:
        return build()
    except ModuleValidationError as exc:
        return exc.kind, exc.witness, str(exc)


def _regrade_cases(module):
    """(hsub, degrees) pairs: the module's degrees shifted by each h and the
    even-odd split of the weight basis, read in every quotient Gamma/hsub;
    many are inhomogeneous where hsub does not contain the module's H."""
    even_odd = [(0, 0) if j % 2 == 0 else (0, 1) for j in range(module.dim)]
    shifted = [[GROUP.add(d, h) for d in module.degrees] for h in GROUP.elements()]
    return [(hsub, degrees) for hsub in SUBGROUPS for degrees in shifted + [even_odd]]


@pytest.mark.parametrize("name", BATTERY)
def test_regrade_agrees_with_the_constructor(catalog, name):
    # regrade checks homogeneity only; on a valid module it accepts what the
    # constructor accepts and raises the constructor's error otherwise
    module = catalog[name]
    for hsub, degrees in _regrade_cases(module):
        got = _validation_outcome(lambda: regrade(module, hsub, degrees))
        want = _validation_outcome(
            lambda: GradedModule(module.algebra, hsub, degrees, module.action)
        )
        assert got == want, (name, hsub, degrees)
        if isinstance(got, GradedModule):
            assert got.action is module.action and got.fp_view is module.fp_view


# (module, subgroup, degrees, the first entry (k, r, c) leaving its sector)
INHOMOGENEOUS = [
    # V_3 fully graded with one degree: a1 has degree 10, not 00
    (lambda: make_V_lambda(3), trivial_subgroup(GROUP), [(0, 0)] * 4, (0, 0, 1)),
    # V_2 with one degree mod H = <11>: a1's degree 10 is not in H
    (lambda: make_V_lambda(2), h2_subgroup(), [(0, 0)] * 3, (0, 0, 1)),
    # E_2 with v_1 dropped into the even sector
    (lambda: make_sl2_graded(2, "E"), h2_subgroup(), [(0, 0)] * 3, (0, 0, 1)),
    # E+_2 with its first two degrees swapped
    (lambda: make_sl2_graded(2, "E+"), trivial_subgroup(GROUP),
     [(1, 1), (0, 0), (0, 1)], (0, 1, 2)),
]


@pytest.mark.parametrize("case", range(len(INHOMOGENEOUS)))
def test_regrade_raises_the_constructors_homogeneity_error(case):
    make, hsub, degrees, where = INHOMOGENEOUS[case]
    module = make()
    with pytest.raises(ModuleValidationError) as got:
        regrade(module, hsub, degrees)
    with pytest.raises(ModuleValidationError) as want:
        GradedModule(module.algebra, hsub, degrees, module.action)
    assert got.value.kind == want.value.kind == "homogeneity"
    assert got.value.witness == want.value.witness == where
    assert str(got.value) == str(want.value)


def test_regrade_rejects_a_wrong_number_of_degrees():
    V = make_V_lambda(2)
    with pytest.raises(InvalidInput):
        regrade(V, h2_subgroup(), [(0, 0)] * 4)


def test_catalog_modules_validate(catalog):
    # U families, loops, parity shifts and recoloured members are built by
    # transforms; the catalog formulas themselves validate on construction
    for module in catalog.values():
        module.validate()


def _reverse_order_restriction():
    looped = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP)).module
    echelon = decompose(looped)[0]
    reverse = Submodule(looped, tuple(reversed(echelon.rows)))
    reverse.validate()
    return echelon, reverse


def test_restriction_on_reverse_order_rows():
    echelon, reverse = _reverse_order_restriction()
    mod, rows = submodule_to_module(reverse)
    mod.validate()
    assert rows == list(reverse.rows)
    base, _ = submodule_to_module(echelon)
    assert is_isomorphic(mod, base)
    # coordinate k on the reversed rows is coordinate d-1-k on the echelon rows
    d = mod.dim
    for k in range(3):
        for r in range(d):
            for c in range(d):
                assert mod.matrix(k)[r][c] == base.matrix(k)[d - 1 - r][d - 1 - c]
    assert mod.degrees == tuple(reversed(base.degrees))


def test_restriction_rejects_dependent_rows():
    echelon, _ = _reverse_order_restriction()
    doubled = Submodule(echelon.parent, echelon.rows + echelon.rows[:1])
    with pytest.raises(InvalidSubmodule):
        submodule_to_module(doubled)


def test_recolouring_leaves_hom_unchanged(catalog):
    # recolouring scales the columns of rho(x_a) in sector d by sigma(a, d),
    # a constant per sector, which every degree-0 map commutes with; so one
    # isomorphism partition serves both sides of the classification
    sig = discolouring_sigma()
    mods = [m for m in catalog.values() if m.hsub.order() == 1]
    pairs = 0
    for i, a in enumerate(mods):
        for b in mods[i:]:
            if (a.algebra, a.hsub) != (b.algebra, b.hsub):
                continue
            ra, rb = recolour_module(a, sig), recolour_module(b, sig)
            assert intertwiners(ra, rb) == intertwiners(a, b)
            assert is_isomorphic(ra, rb) == is_isomorphic(a, b)
            pairs += 1
    assert pairs > 100
