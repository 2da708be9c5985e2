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
    submodule_to_module,
    subgroup_from_generators,
    trivial_subgroup,
    twist,
)
from liecolour.errors import InvalidSubmodule, ModuleValidationError
from liecolour.gmodule import GradedModule
from liecolour.workbench import GROUP, catalog_modules, discolouring_sigma, make_sl2_graded

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


def test_catalog_modules_validate(catalog):
    # U families, loops, parity shifts and recoloured members are built by
    # transforms; the catalog formulas themselves validate on construction
    for module in catalog.values():
        module.validate()


def _reverse_order_restriction():
    looped = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP)).module
    echelon = decompose(looped)[0]
    reverse = Submodule(looped, tuple(reversed(echelon.rows)), echelon.homogeneous)
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
    doubled = Submodule(echelon.parent, echelon.rows + echelon.rows[:1], True)
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
