import collections
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from liecolour import (
    Character,
    coarsen,
    commutant,
    decompose,
    direct_sum,
    discolour_module,
    field,
    full_subgroup,
    graded_quotient,
    intertwiners,
    is_graded_irreducible,
    is_isomorphic,
    iso_labels,
    jordan_holder,
    linalg,
    make_group,
    parity_shift,
    regrade,
    spin,
    submodule_from_rows,
    submodule_to_module,
    dual_characters,
    trivial_subgroup,
    twist,
)
from liecolour import gmodule, modp
from liecolour.colouralg import ColourAlgebra
from liecolour.errors import (
    InconclusiveIrreducibility,
    InconclusiveIsomorphism,
    InvalidInput,
    InvalidSubmodule,
    ModuleValidationError,
    NotCompletelyReducible,
)
from liecolour.gmodule import GradedModule, Submodule, _field_roots
from liecolour.loopfunctor import loop
from liecolour.workbench import (
    GROUP,
    catalog_modules,
    discolouring_sigma,
    h2_subgroup,
    make_sl2_graded,
    make_V_lambda,
    sl2c_factor,
)

F4 = field(4)


def _unit(dim, i):
    return {i: F4.one}


def test_make_module_validates_catalog_members():
    V2 = make_V_lambda(2)
    assert V2.dim == 3 and V2.is_ungraded()
    E2 = make_sl2_graded(2, "E")
    assert E2.sector_dims() == [2, 1]


def test_misgraded_module_rejected():
    E2 = make_sl2_graded(2, "E")
    bad_degrees = list(E2.degrees)
    bad_degrees[1] = E2.degrees[0]  # v_1 dropped into the even sector
    with pytest.raises(ModuleValidationError) as err:
        GradedModule(E2.algebra, E2.hsub, bad_degrees, [E2.matrix(k) for k in range(3)])
    assert err.value.kind == "homogeneity"


def test_action_perturbation_rejected():
    rng = random.Random(5)
    for name in ("V", "E", "E+"):
        mod = make_V_lambda(2) if name == "V" else make_sl2_graded(2, name)
        mats = [mod.matrix(k) for k in range(3)]
        k = rng.randrange(3)
        r, c = rng.randrange(mod.dim), rng.randrange(mod.dim)
        mats[k][r][c] = mats[k][r][c] + 1
        with pytest.raises(ModuleValidationError):
            GradedModule(mod.algebra, mod.hsub, list(mod.degrees), mats)


def test_coarsen_examples():
    Ep = make_sl2_graded(2, "E+")
    coarse = coarsen(Ep, h2_subgroup())
    assert coarse.sector_dims() == [2, 1]
    assert is_isomorphic(coarse, make_sl2_graded(2, "E"))
    same = coarsen(Ep, Ep.hsub)
    assert same == Ep
    flat = coarsen(Ep, full_subgroup(GROUP))
    assert flat.is_ungraded()
    assert all(
        flat.matrix(k) == Ep.matrix(k) for k in range(3)
    )


def test_twist_by_trivial_character_is_identity():
    E = make_sl2_graded(2, "E")
    assert twist(E, Character(GROUP, (0, 0))) == E


def test_twist_of_gradable_module_is_isomorphic():
    # even highest weight: the coarse module admits a fine grading, so all
    # its character twists are isomorphic to it
    E = make_sl2_graded(2, "E")
    assert is_isomorphic(twist(E, Character(GROUP, (0, 1))), E)


def test_twist_composition_is_pointwise_product():
    E = make_sl2_graded(2, "E")
    f, g = Character(GROUP, (1, 0)), Character(GROUP, (0, 1))
    assert twist(twist(E, f), g) == twist(E, f * g)


def test_u_families_are_twists_of_each_other():
    # twisting by the character killing 00 and 01 flips the first sign
    f = Character(GROUP, (1, 0))
    for xi in ("+", "-"):
        up = make_sl2_graded(3, f"U+{xi}")
        um = make_sl2_graded(3, f"U-{xi}")
        assert is_isomorphic(twist(up, f), um)


def test_parity_shift_examples():
    E = make_sl2_graded(2, "E")
    assert parity_shift(E, (0, 1)) == make_sl2_graded(2, "O")
    assert parity_shift(E, (0, 0)) == E
    assert parity_shift(parity_shift(E, (0, 1)), (0, 1)) == E
    L = make_sl2_graded(1, "loopE")
    for h in h2_subgroup().elements:
        assert is_isomorphic(parity_shift(L, h), L)


def test_spin_examples():
    V2 = make_V_lambda(2)
    full = spin(V2, [_unit(3, 0)])
    assert full.dim == 3
    # the whole space in reduced echelon form is the identity
    assert list(full.rows) == [_unit(3, i) for i in range(3)]
    zero = spin(V2, [{}])
    assert zero.dim == 0
    L = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP))
    # v_0 (x) e_00 meets both irreducible summands: its spin is everything
    v00 = _unit(L.dim, L.index_of(0, (0, 0)))
    full_loop = spin(L.module, [v00])
    assert full_loop.dim == 6
    assert list(full_loop.rows) == [_unit(6, i) for i in range(6)]
    # v_1 (x) e_01 lies in one summand: a proper fully graded copy of the source
    v101 = _unit(L.dim, L.index_of(1, (0, 1)))
    sub = spin(L.module, [v101])
    assert sub.dim == 3 and sub.homogeneous
    sub.validate()


def test_spin_splits_homogeneous_inputs():
    L = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP))
    sub = spin(L.module, [_unit(L.dim, L.index_of(1, (0, 1)))])
    for row in sub.rows:
        sectors = {L.module.degrees[i] for i in row}
        assert len(sectors) == 1


def test_commutant_examples():
    Ep = make_sl2_graded(2, "E+")
    assert len(commutant(Ep)) == 1
    L1 = loop(make_sl2_graded(1, "E"), trivial_subgroup(GROUP))
    coarse = coarsen(L1.module, h2_subgroup())
    assert len(commutant(coarse)) == 2
    E = make_sl2_graded(2, "E")
    assert len(commutant(direct_sum(E, E))) == 4


def test_is_graded_irreducible_examples():
    assert is_graded_irreducible(make_sl2_graded(2, "E+")).irreducible
    L1 = make_sl2_graded(1, "loopE")
    v = is_graded_irreducible(L1)
    assert v.irreducible and v.closure_dim == 16
    L2 = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP))
    v2 = is_graded_irreducible(L2.module)
    assert not v2.irreducible
    assert v2.witness.dim == 3
    v2.witness.validate()


def test_decompose_loop_of_gradable():
    L = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP))
    summands = decompose(L.module)
    assert sorted(s.dim for s in summands) == [3, 3]
    shifts = [make_sl2_graded(2, v) for v in ("E+", "E-", "O+", "O-")]
    for s in summands:
        mod, _ = submodule_to_module(s)
        assert any(is_isomorphic(mod, t) for t in shifts)


def test_decompose_irreducible_is_single():
    Ep = make_sl2_graded(2, "E+")
    summands = decompose(Ep)
    assert len(summands) == 1 and summands[0].dim == 3


def test_decompose_sum_with_twist():
    E1 = make_sl2_graded(1, "E")
    f = Character(GROUP, (0, 1))
    both = direct_sum(E1, twist(E1, f))
    summands = decompose(both)
    assert sorted(s.dim for s in summands) == [2, 2]


def test_decompose_isotypic_mixture_needs_commutant():
    # the coarsened loop is E (+) twist(E); for odd weight every standard
    # basis vector meets both summands, exercising the kernel-vector pool
    L = loop(make_sl2_graded(1, "E"), trivial_subgroup(GROUP))
    coarse = coarsen(L.module, h2_subgroup())
    summands = decompose(coarse)
    assert sorted(s.dim for s in summands) == [2, 2]


def test_graded_quotient_examples():
    L = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP))
    summands = decompose(L.module)
    q = graded_quotient(L.module, summands[0])
    other, _ = submodule_to_module(summands[1])
    assert q.dim == 3
    assert is_isomorphic(q, other)
    # V / 0 = V and V / V = 0
    zero_sub = spin(L.module, [{}])
    assert graded_quotient(L.module, zero_sub) == L.module
    full_sub = submodule_from_rows(
        L.module, [_unit(6, i) for i in range(6)]
    )
    assert graded_quotient(L.module, full_sub).dim == 0


def test_graded_quotient_rejects_non_invariant_span():
    V2 = make_V_lambda(2)
    bad = Submodule(parent=V2, rows=(_unit(3, 0),))
    with pytest.raises(InvalidSubmodule):
        graded_quotient(V2, bad)


def test_spin_and_submodule_from_rows_agree_on_an_ungraded_module():
    # every subspace of an ungraded module is graded
    V2 = make_V_lambda(2)
    spun = spin(V2, [_unit(3, 0)])
    from_rows = submodule_from_rows(V2, spun.rows)
    assert spun.homogeneous and from_rows.homogeneous


def test_homogeneity_is_read_off_the_rows_of_a_spin():
    L = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP)).module
    assert L.degrees[0] != L.degrees[2] and L.degrees[0] != L.degrees[4]
    # e_0 + e_2 meets two sectors, yet spins to the whole module
    whole = spin(L, [{0: F4.one, 2: F4.one}])
    assert whole.dim == 6 and whole.homogeneous
    assert graded_quotient(L, whole).dim == 0
    # e_0 + e_4 spins to a copy of the source that is not graded
    mixed = spin(L, [{0: F4.one, 4: F4.one}])
    assert mixed.dim == 3 and not mixed.homogeneous
    with pytest.raises(InvalidSubmodule, match="quotient needs a homogeneous submodule"):
        graded_quotient(L, mixed)


def _spin_battery():
    cat = catalog_modules(3)
    step = jordan_holder(GROUP).chain[1]
    pool = list(cat.values())
    pool += [loop(make_V_lambda(lam), step).module for lam in range(4)]
    pool += [loop(cat[f"{v}{lam}"], trivial_subgroup(GROUP)).module for lam in (1, 2) for v in "EO"]
    pairs = (("E+2", "E-2"), ("E+2", "E+2"), ("E1", "O1"), ("loopE1", "loopO1"),
             ("U++1", "U-+1"), ("V1", "V2"))
    pool += [direct_sum(cat[a], cat[b]) for a, b in pairs]
    return pool


SPIN_BATTERY = _spin_battery()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_homogeneous_exactly_when_the_span_is_the_sum_of_its_sector_parts(data):
    V = data.draw(st.sampled_from(SPIN_BATTERY), label="module")
    entry = st.builds(
        lambda a, b: F4.num([a, b]), st.integers(-2, 2), st.integers(-1, 1)
    ).filter(lambda x: not x.is_zero())
    vector = st.dictionaries(st.integers(0, V.dim - 1), entry, min_size=1, max_size=3)
    sub = spin(V, data.draw(st.lists(vector, min_size=1, max_size=2), label="vectors"))
    # the span is graded iff it holds the sector parts of its rows
    parts = [
        {i: x for i, x in r.items() if i in idx}
        for r in sub.rows
        for idx in V.sector_indices().values()
    ]
    graded = linalg.row_span(F4, list(sub.rows) + parts, V.dim).rank == sub.dim
    assert sub.homogeneous == graded


def _submodule_faults():
    L = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP)).module
    witness = is_graded_irreducible(L).witness
    return {
        # one row twice
        "dependent": Submodule(L, witness.rows + witness.rows[:1]),
        # one row of an irreducible submodule of dimension 3
        "not invariant": Submodule(L, witness.rows[:1]),
    }


@pytest.mark.parametrize(
    "fault, message",
    [("dependent", "basis rows are dependent"),
     ("not invariant", "span is not invariant under the action")],
)
def test_every_submodule_check_gives_the_same_message(fault, message):
    sub = _submodule_faults()[fault]
    checks = (
        sub.validate,
        lambda: submodule_to_module(sub),
        lambda: graded_quotient(sub.parent, sub),
    )
    for check in checks:
        with pytest.raises(InvalidSubmodule) as got:
            check()
        assert str(got.value) == message


def test_intertwiners_and_is_isomorphic():
    Ep, Em = make_sl2_graded(2, "E+"), make_sl2_graded(2, "E-")
    assert is_isomorphic(Ep, Ep)
    # the zero-weight vector sits in different sectors: not isomorphic
    assert not is_isomorphic(Ep, Em)
    assert intertwiners(Ep, Em) == []
    # identity is found for V vs itself
    ints = intertwiners(Ep, Ep)
    assert len(ints) == 1


def test_loop_shift_isomorphism_truth():
    # shifting the fully graded loop by any element of the coarse grading
    # subgroup relabels basis vectors; shifting by the other elements lands
    # on the loop of the shifted source, which is again isomorphic (the
    # source parity classes are twist-equivalent)
    L = make_sl2_graded(1, "loopE")
    assert is_isomorphic(parity_shift(L, (0, 1)), L)
    assert is_isomorphic(parity_shift(L, (1, 1)), L)
    assert is_isomorphic(L, make_sl2_graded(1, "loopO"))


def test_is_isomorphic_rejects_mismatched_gradings():
    from liecolour.errors import InvalidInput

    E = make_sl2_graded(2, "E")
    V = make_V_lambda(2)
    with pytest.raises(InvalidInput):
        is_isomorphic(E, V)


def test_submodule_restriction_roundtrip():
    L = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP))
    sub = spin(L.module, [_unit(L.dim, L.index_of(1, (0, 1)))])
    mod, rows = submodule_to_module(sub)
    assert mod.dim == sub.dim == len(rows)
    assert is_graded_irreducible(mod).irreducible


def _bd_ungraded(*mats):
    """Ungraded module of the block-model algebra (H, Q1, Q2, Z)."""
    from liecolour.workbench import make_bd_model

    alg = make_bd_model()[0]
    dim = len(mats[0])
    return GradedModule(alg, full_subgroup(alg.group), [alg.group.zero()] * dim, list(mats))


ZERO_2 = [[F4.zero] * 2 for _ in range(2)]
NILPOTENT = [[F4.zero, F4.one], [F4.zero, F4.zero]]


def test_decompose_finds_no_complement_in_a_non_split_extension():
    """Q1 acts as a nonzero nilpotent N, so the kernel of N is the only
    proper submodule: span(e_0) for N upper triangular, span(e_1) for its
    transpose.  decompose raises with that submodule as its certificate:
    every map of the complete Hom basis from V onto it vanishes on it."""
    for kernel, nilpotent in enumerate([NILPOTENT, [list(r) for r in zip(*NILPOTENT)]]):
        V = _bd_ungraded(ZERO_2, nilpotent, ZERO_2, ZERO_2)
        with pytest.raises(NotCompletelyReducible,
                           match="submodule of dimension 1 has no invariant complement") as caught:
            decompose(V)
        S = caught.value.submodule
        S.validate()
        assert S.parent is V and S.rows == (_unit(2, kernel),)
        restricted, iota = submodule_to_module(S)
        maps = intertwiners(V, restricted)
        assert maps and all(not linalg.mat_vec(H, r) for H in maps for r in iota)


def _greedy_decompose(module):
    """decompose as a greedy assembly, the reference: every candidate vector
    outside the span of the summands so far is spun and shrunk, and the
    result is a new summand when its rows are independent of that span."""
    f, d = module.field, module.dim
    summands = []
    accum = linalg.RowBasis(f, d)
    for v in gmodule._candidate_vectors(module):
        if not accum.reduce(v):
            continue
        sub = gmodule.shrink_to_irreducible(spin(module, [v]))
        probe = linalg.row_span(f, accum.rows + list(sub.rows), d)
        if probe.rank == accum.rank + sub.dim:
            summands.append(sub)
            accum = probe
            if accum.rank == d:
                return summands
    raise NotCompletelyReducible(f"direct sum stalled at dimension {accum.rank} of {d}")


def _decompose_battery():
    """Loops of the criterion-5 battery, sums of two catalog modules and a
    non-split extension."""
    step = jordan_holder(GROUP).chain[1]
    modules = [loop(make_V_lambda(lam), step).module for lam in range(5)]
    modules += [
        loop(make_sl2_graded(lam, v), trivial_subgroup(GROUP)).module
        for lam in (0, 2, 4) for v in "EO"
    ]
    cat = catalog_modules(2)
    pairs = (("V1", "V2"), ("E+2", "O-2"), ("U++1", "U-+1"))
    modules += [direct_sum(cat[a], cat[b]) for a, b in pairs]
    modules.append(_bd_ungraded(ZERO_2, NILPOTENT, ZERO_2, ZERO_2))
    return modules


def _restriction_cases(module):
    """("spin" or "kernel", rows, unit columns) for rows of `module` whose
    span is invariant by construction: the spin of each unit vector
    (reduced echelon rows, at their pivots) and the kernel of each map of
    the Hom basis from the module to each of its summands (a nullspace
    basis, at its free columns)."""
    f, d = module.field, module.dim
    for i in range(d):
        sub = spin(module, [{i: f.one}])
        yield "spin", sub.rows, [min(r) for r in sub.rows]
    try:
        summands = decompose(module)
    except NotCompletelyReducible:
        return
    for summand in summands:
        for H in intertwiners(module, submodule_to_module(summand)[0]):
            kernel = linalg.nullspace(f, H, d)
            yield "kernel", tuple(kernel), [max(v) for v in kernel]


def test_restriction_equals_the_checked_restriction():
    """_restriction of spans that are invariant by construction equals
    submodule_to_module on the same rows, which checks them, on the
    decompose battery (with the criterion-5 loops) and catalog_modules(5)."""
    modules = _decompose_battery() + list(catalog_modules(5).values())
    checked = collections.Counter()
    for module in modules:
        for kind, rows, units in _restriction_cases(module):
            sub = Submodule(module, rows)
            assert sub.homogeneous
            restricted = gmodule._restriction(module, rows, units)
            assert restricted == submodule_to_module(sub)[0]
            checked[kind, restricted.dim < module.dim] += 1
    # proper spins and kernels, besides the spins that are the whole module
    assert checked["spin", True] >= 32 and checked["kernel", True] >= 96


def _recording(monkeypatch, name):
    """Replace gmodule.<name> by a wrapper that appends its first argument
    to the returned list."""
    calls = []
    real = getattr(gmodule, name)

    def recorded(arg, *rest):
        calls.append(arg)
        return real(arg, *rest)

    monkeypatch.setattr(gmodule, name, recorded)
    return calls


def _summand_modules(summands):
    return [submodule_to_module(s)[0] for s in summands]


def _same_summands(got, want):
    """The two lists of summand modules agree up to isomorphism and order."""
    labels = iso_labels(got + want)
    return sorted(labels[:len(got)]) == sorted(labels[len(got):])


def test_decompose_matches_the_greedy_reference_with_fewer_shrinks(monkeypatch):
    """decompose gives summands isomorphic to the greedy reference's, or
    like it no decomposition at all (on the non-split extension), and
    shrinks no more submodules to irreducible ones than it does."""
    shrinks = _recording(monkeypatch, "_shrink_and_restrict")
    counts = []
    for m in _decompose_battery():
        got = []
        for run in (_greedy_decompose, decompose):
            del shrinks[:]
            try:
                out = _summand_modules(run(m))
            except NotCompletelyReducible:
                out = None
            got.append((out, len(shrinks)))
        (want, before), (out, after) = got
        assert (out is None) == (want is None)
        assert out is None or _same_summands(out, want)
        assert after <= before
        counts.append((before, after))
    assert sum(a for _, a in counts) < sum(b for b, _ in counts)


def test_witnesses_and_summands_pass_submodule_validation():
    """is_graded_irreducible and decompose return the spins they build as
    they are: every witness and every summand passes Submodule.validate,
    on the decompose battery and on the sums of two modules of one family
    (one algebra and grading) of the catalog."""
    cat = catalog_modules(2)
    pairs = [(cat[a], cat[b]) for a, b in itertools.combinations_with_replacement(cat, 2)
             if cat[a].algebra == cat[b].algebra and cat[a].hsub == cat[b].hsub]
    modules = _decompose_battery() + [direct_sum(a, b) for a, b in pairs]
    witnesses = summands = 0
    for m in modules:
        verdict = is_graded_irreducible(m)
        if not verdict.irreducible:
            verdict.witness.validate()
            witnesses += 1
        try:
            split = decompose(m)
        except NotCompletelyReducible:
            continue
        for sub in split:
            sub.validate()
        summands += len(split)
    assert witnesses >= len(pairs) and summands >= 2 * len(pairs)


def test_decompose_shrinks_only_proper_spins_and_solves_one_commutant(monkeypatch):
    """decompose shrinks proper submodules only, never a spin that is the
    whole module, and computes the commutant of each module it splits (the
    input, then each complement) at most once; the odd V_lambda loops reach
    the commutant kernel vectors."""
    shrinks = _recording(monkeypatch, "_shrink_and_restrict")
    commutants = _recording(monkeypatch, "commutant")
    reached = 0
    for m in _decompose_battery():
        del shrinks[:], commutants[:]
        try:
            decompose(m)
        except NotCompletelyReducible:
            pass
        assert shrinks and all(sub.dim < sub.parent.dim for sub in shrinks)
        assert len({id(V) for V in commutants}) == len(commutants)
        reached += sum(V is m for V in commutants)
    assert reached >= 2


def test_decompose_of_a_certified_irreducible_module_computes_no_commutant(monkeypatch):
    """An irreducible module that modp.rank_one_certificate certifies is
    its own summand at once: no spin, no commutant."""
    commutants = _recording(monkeypatch, "commutant")
    spins = _recording(monkeypatch, "spin")
    certified = 0
    for m in catalog_modules(5).values():
        if modp.rank_one_certificate(m.field, m.fp_view, gmodule._sector_parts(m)):
            del commutants[:], spins[:]
            assert [s.dim for s in decompose(m)] == [m.dim]
            assert commutants == spins == []
            certified += 1
    assert certified >= 40


def _dense_conjugate(module, rng):
    """P A P^-1 for every action matrix A, with P invertible and its entries
    a + b i, a, b in -3..3, drawn in that order (P redrawn until invertible)."""
    f, n = module.field, module.dim
    i = f.zeta()
    while True:
        P = [{c: f.from_rational(rng.randint(-3, 3)) + i * rng.randint(-3, 3) for c in range(n)}
             for _ in range(n)]
        P = [{c: x for c, x in r.items() if not x.is_zero()} for r in P]
        P_inv = linalg.invert(f, P)
        if P_inv is not None:
            break
    mats = [linalg.mat_mul(linalg.mat_mul(P, a), P_inv) for a in module.action]
    return GradedModule(module.algebra, module.hsub, module.degrees, mats)


def _dense_sums():
    """Two seeded dense conjugates each of V_1 (+) V_3 and V_1 (+) V_1 (+) V_3,
    with the summands they conjugate."""
    rng = random.Random(11)
    out = []
    for lams in [(1, 3), (1, 3), (1, 1, 3), (1, 1, 3)]:
        parts = [make_V_lambda(lam) for lam in lams]
        total = parts[0]
        for part in parts[1:]:
            total = direct_sum(total, part)
        out.append((_dense_conjugate(total, rng), parts))
    return out


def test_decompose_never_denies_a_dense_conjugate_of_a_sum():
    """On dense conjugates of completely reducible sums, the candidate
    vectors may miss every summand, but no false "not completely reducible"
    follows: decompose returns the conjugated summands, up to isomorphism,
    or raises InconclusiveIrreducibility."""
    split = 0
    for module, parts in _dense_sums():
        try:
            summands = decompose(module)
        except InconclusiveIrreducibility:
            continue
        assert _same_summands(_summand_modules(summands), parts)
        split += 1
    assert split >= 1


def test_a_dense_commutant_is_certified_within_its_height_bound(monkeypatch):
    """The commutant of the first dense V_1 (+) V_1 (+) V_3 conjugate has a
    canonical basis whose coordinates need about 2^131 to reconstruct, past
    four primes of about 2^20: it is certified by the primes its height
    bound allows, with no exact nullspace, and is that nullspace's basis."""
    module, _ = _dense_sums()[2]
    nullspaces = []
    real = linalg.nullspace

    def counted(*args):
        nullspaces.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "nullspace", counted)
    end = commutant(module)
    assert nullspaces == []
    monkeypatch.undo()
    variables, rows = gmodule._intertwiner_system(module, module)
    exact = []
    for sol in linalg.nullspace(module.field, rows, len(variables)):
        mat = linalg.zeros(module.dim)
        for t, x in sol.items():
            r, c = variables[t]
            mat[r][c] = x
        exact.append(mat)
    assert len(end) == 5 and end == exact


CATALOG_2_SUMS = [
    (a, b) for a, b in itertools.combinations_with_replacement(catalog_modules(2).values(), 2)
    if a.algebra == b.algebra and a.hsub == b.hsub
]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_decompose_splits_a_sum_into_its_summands(data):
    """On a sum of two modules of one catalog family, the summand rows
    together span V, each summand restricts to a graded-irreducible module,
    and the summands are the two parts up to isomorphism."""
    a, b = data.draw(st.sampled_from(CATALOG_2_SUMS), label="parts")
    V = direct_sum(a, b)
    summands = decompose(V)
    rows = [r for s in summands for r in s.rows]
    assert linalg.row_span(V.field, rows, V.dim).rank == len(rows) == V.dim
    mods = _summand_modules(summands)
    assert all(is_graded_irreducible(m).irreducible for m in mods)
    assert _same_summands(mods, [a, b])


def test_denominators_divisible_by_p_give_no_certificate_but_exact_verdicts():
    from fractions import Fraction

    from liecolour import modp

    p = modp.prime_for(4)
    assert p == 1048589

    def scalar(q):
        return [[F4.from_rational(q)]]

    def one_dim(sign):
        # [Q1, Q1] = [Q2, Q2] = H holds as 2 (1/p)^2 = 2/p^2; Z acts as 0
        q1 = scalar(Fraction(sign, p))
        return _bd_ungraded(scalar(Fraction(2, p * p)), q1, scalar(Fraction(1, p)), scalar(0))

    V, partner = one_dim(1), one_dim(-1)
    # exactly, the closure is all of End(V) and the intertwiner system has
    # zero nullity; mod p neither can be certified, since p divides a
    # denominator
    with pytest.raises(ValueError):  # Q2 acts as 1/p
        V.fp_view.images(p, modp.order_m_root(4, p))
    assert not modp.certifies_full_closure(F4, V.fp_view, [[0]])
    assert modp.certified_hom(F4, V.fp_view, partner.fp_view, V.degrees, partner.degrees) is None
    verdict = is_graded_irreducible(V)
    assert verdict.irreducible and verdict.closure_dim == 1
    double = direct_sum(V, V)
    assert not is_graded_irreducible(double).irreducible
    assert len(decompose(double)) == 2
    assert intertwiners(V, partner) == []


def test_graded_irreducible_module_with_denominators_divisible_by_p_is_closed_exactly():
    # D E+2 D^-1 with D = diag(p, 1, 1) keeps the sectors (dims 1, 1, 0, 1)
    # and puts p in a denominator, so mod p certifies nothing and the exact
    # sector-block closure decides
    from liecolour import modp

    E = make_sl2_graded(2, "E+")
    p = modp.prime_for(4)
    scale = [F4.from_rational(p), F4.one, F4.one]
    conj = [
        [{j: scale[i] * x / scale[j] for j, x in row.items()} for i, row in enumerate(mat)]
        for mat in E.action
    ]
    module = GradedModule(E.algebra, E.hsub, E.degrees, conj)
    assert module.sector_dims() == [1, 1, 0, 1]
    parts = [idx for idx in module.sector_indices().values() if idx]
    assert not modp.certifies_full_closure(F4, module.fp_view, parts)
    verdict = is_graded_irreducible(module)
    assert verdict.irreducible and verdict.closure_dim == 9


def test_sector_closure_stops_when_its_block_is_full(monkeypatch):
    # a sector V_t's words live in d n_t columns, so its closure stops once
    # they are all spanned: on E+2 (sectors of one vector, blocks of rank 3)
    # no sector multiplies the last of its three rows by the action
    E = make_sl2_graded(2, "E+")
    parts = [idx for idx in E.sector_indices().values() if idx]
    products = []

    def counting(a, b):
        products.append(a)
        return linalg.mat_mul(a, b)

    monkeypatch.setattr(gmodule, "mat_mul", counting)
    assert gmodule._closure_rank_exact(F4, E.action, parts, 3) == 9
    assert 0 < len(products) <= 2 * len(E.action) * len(parts)


ISO_SUMMANDS = {
    "V0": lambda: make_V_lambda(0),
    "V1": lambda: make_V_lambda(1),
    "V2": lambda: make_V_lambda(2),
    "E+2": lambda: make_sl2_graded(2, "E+"),
    "U++3": lambda: make_sl2_graded(3, "U++"),
}


@pytest.mark.parametrize("name", sorted(ISO_SUMMANDS))
def test_sums_of_equal_summands_are_isomorphic(name):
    # no intertwiner basis map of U (+) U is invertible (they are E_ij (x) 1
    # in some basis), so the answer rests on a random combination
    U = ISO_SUMMANDS[name]()
    UU = direct_sum(U, U)
    assert not any(linalg.is_invertible(U.field, m) for m in intertwiners(UU, UU))
    assert is_isomorphic(UU, UU)
    assert is_isomorphic(direct_sum(UU, U), direct_sum(U, UU))


def _nilpotent_sums():
    """A (+) A and A (+) B for the ungraded block-model modules A: Q1 -> N
    and B: Q2 -> N, N nilpotent."""
    a = _bd_ungraded(ZERO_2, NILPOTENT, ZERO_2, ZERO_2)
    b = _bd_ungraded(ZERO_2, ZERO_2, NILPOTENT, ZERO_2)
    return direct_sum(a, a), direct_sum(a, b)


def test_isomorphism_without_a_certificate_is_inconclusive():
    # every generator acts nilpotently, so every trace is 0, and Hom has
    # dimension 6 with no invertible element found: no certificate either way
    V, W = _nilpotent_sums()
    assert gmodule._sector_traces(V) == gmodule._sector_traces(W) == {}
    assert len(intertwiners(V, W)) == 6
    with pytest.raises(InconclusiveIsomorphism):
        is_isomorphic(V, W)


def _counting_hom(monkeypatch):
    calls = []
    real = modp.certified_hom

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modp, "certified_hom", counted)
    return calls


def test_different_traces_certify_not_isomorphic_without_hom(monkeypatch):
    # the generators act on the ungraded U++ and U+- with other traces, so
    # U++ (+) U++ and U++ (+) U+- differ, though Hom between them holds the
    # maps into the common summand, none of them invertible
    a, b = make_sl2_graded(3, "U++"), make_sl2_graded(3, "U+-")
    V, W = direct_sum(a, a), direct_sum(a, b)
    assert gmodule._sector_traces(V) != gmodule._sector_traces(W)
    calls = _counting_hom(monkeypatch)
    assert is_isomorphic(V, W) is False
    assert calls == []


def test_equal_modules_are_isomorphic_without_hom(monkeypatch):
    calls = _counting_hom(monkeypatch)
    for name in sorted(ISO_SUMMANDS):
        U = ISO_SUMMANDS[name]()
        assert is_isomorphic(U, ISO_SUMMANDS[name]())
    assert calls == []


def test_a_zero_trace_compares_equal_to_no_diagonal_entry():
    # diag(1, -1) and the swap [[0, 1], [1, 0]] are conjugate by
    # [[1, 1], [1, -1]]: the first has diagonal entries that sum to 0, the
    # second none at all
    V = _one_operator([{0: 1}, {1: -1}])
    W = _one_operator([{1: 1}, {0: 1}])
    assert gmodule._sector_traces(V) == gmodule._sector_traces(W) == {}
    assert is_isomorphic(V, W) and is_isomorphic(W, V)
    assert not is_isomorphic(V, _one_operator([{0: 1}, {1: 1}]))


def test_a_one_dimensional_hom_with_a_singular_generator_certifies_not_isomorphic():
    # Q1 -> N and Q2 -> N: Hom is spanned by one map in each direction, and
    # every element is a multiple of it, so a singular generator decides
    N = [[F4.zero, F4.one], [F4.zero, F4.zero]]
    a, b = _bd_ungraded(ZERO_2, N, ZERO_2, ZERO_2), _bd_ungraded(ZERO_2, ZERO_2, N, ZERO_2)
    for V, W in ((a, b), (b, a)):
        [M] = intertwiners(V, W)
        assert not linalg.is_invertible(F4, M)
        assert is_isomorphic(V, W) is False


def _comparable(a, b):
    return a.algebra == b.algebra and a.hsub == b.hsub


def _isomorphism_battery():
    """The direct sums a (+) b of the first 40 modules of catalog_modules(4)
    (a no later than b, one algebra and grading), paired when two sums
    share their algebra, grading and sector dimensions."""
    first = list(catalog_modules(4).values())[:40]
    sums = [direct_sum(a, b) for a, b in itertools.combinations_with_replacement(first, 2)
            if _comparable(a, b)]
    return [(s, t) for s, t in itertools.combinations(sums, 2)
            if _comparable(s, t) and s.sector_dims() == t.sector_dims()]


def test_isomorphism_is_inconclusive_only_on_a_hom_of_dimension_two():
    pairs = _isomorphism_battery()
    assert len(pairs) == 155
    verdicts = collections.Counter()
    for V, W in pairs:
        dim_hom = len(intertwiners(V, W))
        try:
            verdicts[is_isomorphic(V, W), dim_hom <= 1] += 1
        except InconclusiveIsomorphism:
            verdicts["inconclusive", dim_hom] += 1
    # dim Hom <= 1 always decides; the 16 pairs with dim Hom = 2 and no
    # invertible element are ungraded sums whose generator traces differ
    assert verdicts == {(True, False): 56, (False, True): 83, (False, False): 16}


CATALOG_2 = list(catalog_modules(2).values())


def _comparable_pair(data):
    V = data.draw(st.sampled_from(CATALOG_2), label="V")
    W = data.draw(st.sampled_from([m for m in CATALOG_2 if _comparable(m, V)]), label="W")
    return V, W


def _verdict(V, W):
    try:
        return is_isomorphic(V, W)
    except InconclusiveIsomorphism:
        return "inconclusive"


def _hom_only_verdict(V, W):
    """is_isomorphic decided from Hom(V, W) alone, as before the identity
    and trace checks: the reference where it is decisive."""
    if V.sector_dims() != W.sector_dims():
        return False
    if V.dim == 0:
        return True
    maps = intertwiners(V, W)
    if not maps:
        return False
    f = V.field
    if len(maps) == 1:
        return linalg.is_invertible(f, maps[0])
    rng = random.Random(0)
    for _ in range(gmodule._COMBINATIONS):
        acc = linalg.zeros(V.dim)
        for m in maps:
            acc = linalg.mat_add(acc, linalg.mat_scale(m, f.from_rational(rng.randint(1, 100 * V.dim))))
        if linalg.is_invertible(f, acc):
            return True
    return "inconclusive"


def _sector_preserving_conjugate(data, V):
    """P V P^-1 for a random invertible P that keeps each sector."""
    f = V.field
    entry = st.builds(lambda a, b: f.num([a, b]), st.integers(-3, 3), st.integers(-2, 2))
    P = linalg.zeros(V.dim)
    for idx in V.sector_indices().values():
        for r in idx:
            for c in idx:
                x = data.draw(entry, label="P")
                if not x.is_zero():
                    P[r][c] = x
    P_inv = linalg.invert(f, P)
    assume(P_inv is not None)
    conj = [linalg.mat_mul(linalg.mat_mul(P, a), P_inv) for a in V.action]
    return GradedModule(V.algebra, V.hsub, V.degrees, conj)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_the_verdict_agrees_with_the_hom_only_reference(data):
    """On catalog pairs, their sums and sector-preserving conjugates, the
    verdict is the Hom-only reference's wherever that is decisive."""
    V, W = _comparable_pair(data)
    if data.draw(st.booleans(), label="sums"):
        V, W = direct_sum(V, V), direct_sum(V, W)
    if data.draw(st.booleans(), label="conjugate"):
        W = _sector_preserving_conjugate(data, W)
    reference = _hom_only_verdict(V, W)
    if reference != "inconclusive":
        assert _verdict(V, W) == reference


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_a_direct_sum_is_isomorphic_to_its_swap(data):
    V, W = _comparable_pair(data)
    VW, WV = direct_sum(V, W), direct_sum(W, V)
    # the identity blocks give dim Hom >= 2: the seeded combinations answer
    assert len(intertwiners(VW, WV)) >= 2
    assert is_isomorphic(VW, WV)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_one_twist_on_both_sides_keeps_the_verdict(data):
    V, W = _comparable_pair(data)
    ch = data.draw(st.sampled_from(dual_characters(V.algebra.group)), label="character")
    for a, b in ((V, W), (direct_sum(V, V), direct_sum(V, W))):
        assert _verdict(twist(a, ch), twist(b, ch)) == _verdict(a, b)


def _shifts_and_twists(module):
    return [parity_shift(module, h) for h in GROUP.elements()] + [
        twist(module, ch) for ch in dual_characters(GROUP)
    ]


def _u_sums():
    fams = [make_sl2_graded(3, v) for v in ("U++", "U+-", "U-+", "U--")]
    sums = [direct_sum(u, u) for u in fams]
    return sums + [twist(sums[0], ch) for ch in dual_characters(GROUP)]


def _related(a, b):
    return a.algebra == b.algebra and a.hsub == b.hsub and is_isomorphic(a, b)


def _label_battery(name):
    cat = catalog_modules(3)
    if name == "U(+)U sums":
        return _u_sums()
    if name == "mixed":
        return _shifts_and_twists(cat["E2"]) + _shifts_and_twists(cat["E+2"]) + _u_sums()
    return _shifts_and_twists(cat[name])


@pytest.mark.parametrize(
    "name", ["V2", "E2", "E+2", "O-2c", "loopE1", "loopO3", "U+-3", "U(+)U sums", "mixed"]
)
def test_iso_labels_induce_the_pairwise_relation(name):
    # the full pairwise table is the oracle; modules over different algebras
    # or gradings are never related
    mods = _label_battery(name)
    labels = iso_labels(mods)
    for i, a in enumerate(mods):
        assert labels[i] <= i and labels[labels[i]] == labels[i]
        for j, b in enumerate(mods):
            assert (labels[i] == labels[j]) == _related(a, b), (i, j)


def _monic(roots):
    """Coefficients, low degree first, of the product of (x - r)."""
    mu = [F4.one]
    for r in roots:
        mu = [a - r * b for a, b in zip([F4.zero] + mu, mu + [F4.zero])]
    return mu


def _same_roots(found, roots):
    return len(found) == len(roots) and all(any(x == r for x in found) for r in roots)


def test_field_roots_rational_branch(monkeypatch):
    # 5/3 and -7 are no small candidate q * i^k, and with the numeric
    # branch cut off only the rational-root candidates p/q can find them
    def no_roots(coeffs):
        raise np.linalg.LinAlgError("numeric roots cut off")

    monkeypatch.setattr(gmodule.np, "roots", no_roots)
    roots = [F4.from_rational(Fraction(5, 3)), F4.from_rational(-7)]
    assert _same_roots(_field_roots(F4, _monic(roots)), roots)


def test_field_roots_numeric_branch():
    # the coefficients are not rational, so only the small candidates (2)
    # and the numeric roots reconstructed over Q(i) ((1 + 2i)/3) apply
    roots = [F4.from_rational(2), F4.num([Fraction(1, 3), Fraction(2, 3)])]
    mu = _monic(roots)
    assert not all(x.is_rational() for x in mu)
    assert _same_roots(_field_roots(F4, mu), roots)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_field_roots_numeric_branch_past_the_rational_cap(m):
    # (x - 2)(x - 1/1000003) has a rational leading coefficient 1000003
    # past the rational branch's 10^6 cap, so 2 is a small candidate and
    # 1/1000003 is found only by the numeric roots, reconstructed over
    # Q(zeta_m) with phi(m) = 1 (m = 1, 2) or 2 (m = 3)
    f = field(m)
    roots = [f.from_rational(2), f.from_rational(Fraction(1, 1000003))]
    mu = [roots[0] * roots[1], -(roots[0] + roots[1]), f.one]
    assert _same_roots(_field_roots(f, mu), roots)


def _exhaustive_roots(mu):
    """Every distinct candidate _field_roots tries that is a root, in the
    order tried, without stopping at deg roots."""
    found = []
    for c in gmodule._root_candidates(F4, mu):
        value = F4.zero
        for a in reversed(mu):
            value = value * c + a
        if value.is_zero() and all(c != r for r in found):
            found.append(c)
    return found


def test_field_roots_stop_at_degree_without_losing_a_root(monkeypatch):
    # products of small candidates q * i^k and rational roots off that
    # list, with repeats: stopping at deg distinct roots gives the list and
    # order of the exhaustive search, since no further candidate is a root
    small = [F4.zeta(k) * Fraction(n, d) for n in (0, 1, -1, 2, -3) for d in (1, 2, 4)
             for k in range(4)]
    rational = [F4.from_rational(x) for x in (Fraction(5, 3), -7, Fraction(-11, 2))]
    rng = random.Random(19)
    cases = [[r] for r in rational] + [[F4.one, F4.one], [F4.one, -F4.one]]
    cases += [rng.choices(small + rational, k=rng.randint(1, 4)) for _ in range(60)]
    cases += [[x, -x] for x in rational]  # rational coefficients: p/q candidates
    for roots in cases:
        mu = _monic(roots)
        found = _field_roots(F4, mu)
        assert found == _exhaustive_roots(mu), roots
        assert all(any(x == r for x in found) for r in roots)
    # x^2 - 1: both roots are among the first small candidates, so the
    # search ends long before the 84 of them
    tried = []

    def counted(f, mu):
        for c in original(f, mu):
            tried.append(c)
            yield c

    original = gmodule._root_candidates
    monkeypatch.setattr(gmodule, "_root_candidates", counted)
    assert _field_roots(F4, _monic([F4.one, -F4.one])) == [F4.one, -F4.one]
    assert len(tried) < 84


# x acting on Q(i)^2 with x^2 = c for a c that is no square in Q(i): no
# invariant line over Q(i), two over C.  Both vectors have degree 0 and
# H = {0}, so the exact closure that decides runs on one non-empty sector
# and three empty ones
NOT_ABSOLUTELY_IRREDUCIBLE = {
    "x^2 = -2": [{1: -1}, {0: 2}],
    "x^2 = -3": [{1: -3}, {0: 1}],
    "x^2 = 2": [{1: 2}, {0: 1}],
}


def _one_operator(rows):
    abelian = ColourAlgebra(GROUP, sl2c_factor(), [("x", (0, 0))], {})
    return GradedModule(abelian, trivial_subgroup(GROUP), [(0, 0)] * 2, [rows])


@pytest.mark.parametrize("name", sorted(NOT_ABSOLUTELY_IRREDUCIBLE))
def test_irreducible_over_q_i_but_not_absolutely_is_inconclusive(name, monkeypatch):
    module = _one_operator(NOT_ABSOLUTELY_IRREDUCIBLE[name])
    commutants = _recording(monkeypatch, "commutant")
    with pytest.raises(InconclusiveIrreducibility) as caught:
        is_graded_irreducible(module)
    exc = caught.value
    # the witness search's commutant also gives the dimension in the message
    assert len(commutants) == 1
    # the closure is Q(i)[x] and so is the commutant: a field of degree 2
    assert (exc.closure_rank, exc.commutant_dim) == (2, 2)
    assert str(exc) == (
        "closure rank 2 < 4 and commutant dimension 2, but no proper graded submodule "
        "found (the module is reducible over C and may be irreducible over Q(zeta_4))"
    )
    # no candidate splits it, so decompose has the same lack of a verdict,
    # from the one commutant its scan computed
    del commutants[:]
    with pytest.raises(InconclusiveIrreducibility) as split:
        decompose(module)
    assert len(commutants) == 1
    assert (str(split.value), split.value.closure_rank, split.value.commutant_dim) == (
        str(exc), exc.closure_rank, exc.commutant_dim
    )


def _two_eigenvalues(n):
    """x acting on Q(i)^2 as P diag(1, 2) P^-1, P = [[1, 1], [n, n + 1]]:
    reducible, but no unit vector spins to a proper submodule, and the
    commutant element that splits it has minimal polynomial
    (x - 1/n)(x - 1/(n + 1)), whose leading coefficient, cleared of
    denominators, is n (n + 1)."""
    return _one_operator([{0: 1 - n, 1: 1}, {0: -n * n - n, 1: n + 2}])


def test_a_large_leading_coefficient_does_not_stall_the_root_search():
    # the rational-root search skips a leading coefficient past 10^6 as it
    # skips such a constant, instead of trial-dividing it for each divisor
    # of the constant; n = 10^3 is still split, by the numeric roots
    start = time.perf_counter()
    verdict = is_graded_irreducible(_two_eigenvalues(10**3))
    assert time.perf_counter() - start < 2
    assert not verdict.irreducible and verdict.witness.dim == 1
    start = time.perf_counter()
    with pytest.raises(InconclusiveIrreducibility):
        is_graded_irreducible(_two_eigenvalues(10**9))
    assert time.perf_counter() - start < 2


def test_cli_reports_an_irreducible_but_not_absolutely_irreducible_module(tmp_path, capsys):
    from liecolour import jsonio
    from liecolour.cli import main

    path = tmp_path / "xx.json"
    jsonio.dump(jsonio.module_to_json(_one_operator(NOT_ABSOLUTELY_IRREDUCIBLE["x^2 = -2"])), path)
    assert main(["--json", "irreducible", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("mismatch: closure rank 2 < 4 and commutant dimension 2,")


def _zero_bd_module():
    return _bd_ungraded([], [], [], [])


def _inhomogeneous_spin():
    L = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP)).module
    return spin(L, [{0: F4.one, 4: F4.one}])


def _bd_seed():
    return catalog_modules(2)["bd_seed"]


Z3 = make_group([3])

PUBLIC_INPUT_ERRORS = {
    "module on a subgroup of another group": (
        lambda: GradedModule(_bd_seed().algebra, full_subgroup(Z3), [], [[]] * 4),
        InvalidInput, "grading subgroup is not inside the algebra's group"),
    "module with a matrix missing": (
        lambda: _bd_ungraded(ZERO_2, ZERO_2, ZERO_2),
        InvalidInput, "need one action matrix per algebra basis element"),
    "module with a short matrix": (
        lambda: _bd_ungraded(ZERO_2, ZERO_2, ZERO_2, ZERO_2[:1]),
        InvalidInput, "action matrix has wrong shape"),
    "regrade by a subgroup of another group": (
        lambda: regrade(make_V_lambda(2), full_subgroup(Z3), [(0, 0)] * 3),
        InvalidInput, "grading subgroup is not inside the algebra's group"),
    "coarsen along a smaller subgroup": (
        lambda: coarsen(make_V_lambda(2), trivial_subgroup(GROUP)),
        InvalidInput, "can only coarsen along a larger subgroup"),
    "twist by a character of another group": (
        lambda: twist(make_V_lambda(2), dual_characters(Z3)[1]),
        InvalidInput, "character on a different group"),
    "direct sum over two algebras": (
        lambda: direct_sum(make_V_lambda(2), _bd_seed()),
        InvalidInput, "direct sum needs matching algebra and grading"),
    "discolour an ungraded module": (
        lambda: discolour_module(make_V_lambda(2), discolouring_sigma()),
        InvalidInput, "multiplier is not constant on grading cosets"),
    "restrict to inhomogeneous rows": (
        lambda: submodule_to_module(_inhomogeneous_spin()),
        InvalidSubmodule, "restriction needs homogeneous basis rows"),
    "intertwiners over two algebras": (
        lambda: intertwiners(make_V_lambda(2), _bd_seed()),
        InvalidInput, "modules over different algebras"),
    "intertwiners of two gradings": (
        lambda: intertwiners(make_V_lambda(2), make_sl2_graded(2, "E+")),
        InvalidInput, "modules graded by different quotients"),
    "isomorphism over two algebras": (
        lambda: is_isomorphic(make_V_lambda(2), _bd_seed()),
        InvalidInput, "modules over different algebras"),
    "irreducibility of the zero module": (
        lambda: is_graded_irreducible(_zero_bd_module()),
        InvalidInput, "irreducibility of the zero module is undefined"),
    "quotient by another module's submodule": (
        lambda: graded_quotient(make_V_lambda(2), spin(make_V_lambda(1), [{0: F4.one}])),
        InvalidSubmodule, "submodule belongs to a different module"),
}


@pytest.mark.parametrize("case", sorted(PUBLIC_INPUT_ERRORS))
def test_public_input_errors_name_the_fault(case):
    build, error, message = PUBLIC_INPUT_ERRORS[case]
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


def test_the_zero_module_is_isomorphic_to_itself_and_has_no_summands():
    zero = _zero_bd_module()
    assert zero.dim == 0
    assert is_isomorphic(zero, _zero_bd_module()) is True
    assert decompose(zero) == []
