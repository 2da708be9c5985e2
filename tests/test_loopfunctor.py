import pytest
from test_colouralg import _gl_constants

from liecolour import (
    AbelianGroup,
    bijection_F,
    coarsen,
    commutant,
    field,
    full_subgroup,
    is_graded_irreducible,
    is_isomorphic,
    iso_classes,
    iso_labels,
    iterate_lift,
    jordan_holder,
    linalg,
    loop,
    make_algebra,
    make_commutation_factor,
    make_module,
    parity_shift,
    submodule_to_module,
    subgroup_from_generators,
    trivial_subgroup,
    twist,
    twist_orbit,
    twist_reps,
)
from liecolour.abelian import _prime_factors
from liecolour.errors import InvalidInput, InvalidSubgroupStep
from liecolour.workbench import (
    GROUP,
    catalog_modules,
    h2_subgroup,
    make_sl2_graded,
    make_V_lambda,
    sl2c_factor,
)

F4 = field(4)
K0 = trivial_subgroup(GROUP)


def _pauli_sl(n):
    """sl_n with its Pauli grading by Z_n x Z_n on the standard module over
    Q(zeta_n), ungraded: J_ab = X^a Z^b (X e_j = e_{j+1}, Z e_j = w^j e_j,
    w = zeta_n), so [J_ab, J_cd] = (w^{bc} - w^{ad}) J_{a+c,b+d}, trivial
    eps."""
    g = AbelianGroup([n, n])
    f = field(n)
    w = f.zeta()
    labels = [(a, b) for a in range(n) for b in range(n) if (a, b) != (0, 0)]
    index = {ab: k for k, ab in enumerate(labels)}
    constants = {}
    for i, (a, b) in enumerate(labels):
        for j, (c, d) in enumerate(labels[i + 1:], i + 1):
            coef = w ** (b * c % n) - w ** (a * d % n)
            if not coef.is_zero():
                constants[(i, j)] = {index[((a + c) % n, (b + d) % n)]: coef}
    eps = make_commutation_factor(g, f, [[0, 0], [0, 0]])
    alg = make_algebra(g, eps, [(f"J{a}{b}", (a, b)) for a, b in labels], constants)
    mats = []
    for a, b in labels:
        mat = linalg.zeros(n)
        for j in range(n):
            mat[(j + a) % n][j] = w ** (b * j % n)
        mats.append(mat)
    return make_module(alg, full_subgroup(g), [g.zero()] * n, mats)


def _gl3():
    """gl_3 with the elementary Z3 x Z3 grading deg E_ab = g_a - g_b for
    g = (0,0), (1,0), (0,1), on the standard module over Q(zeta_3),
    ungraded."""
    g = AbelianGroup([3, 3])
    f = field(3)
    gs = [(0, 0), (1, 0), (0, 1)]
    basis = [(f"E{a}{b}", g.sub(gs[a], gs[b])) for a in range(3) for b in range(3)]
    eps = make_commutation_factor(g, f, [[0, 0], [0, 0]])
    alg = make_algebra(g, eps, basis, _gl_constants(3))
    mats = []
    for a in range(3):
        for b in range(3):
            mat = linalg.zeros(3)
            mat[a][b] = f.one
            mats.append(mat)
    return make_module(alg, full_subgroup(g), [g.zero()] * 3, mats)


def _prime_index_subgroups(hsub):
    """The subgroups of prime index in hsub (every subgroup of these rank-2
    groups has at most two generators), in a fixed order."""
    group = hsub.parent
    subs = {subgroup_from_generators(group, [a, b]) for a in hsub.elements for b in hsub.elements}
    prime = [k for k in subs if _prime_factors(hsub.order() // k.order()) == {hsub.order() // k.order()}]
    return sorted(prime, key=lambda k: k.elements)


def test_loop_of_e_variant_layout():
    lm = loop(make_sl2_graded(1, "E"), K0)
    assert lm.dim == 4
    assert lm.module.sector_dims() == [1, 1, 1, 1]
    # sector (0,0) carries v_0, sector (0,1) carries v_1, and the labels
    # over 11/10 repeat them
    assert lm.bookkeeping[0] == (0, (0, 0))
    assert lm.index_of(1, (0, 1)) is not None
    assert lm.index_of(0, (1, 1)) is not None
    assert lm.index_of(1, (1, 0)) is not None


def test_loop_dimension_formula():
    for lam in range(4):
        E = make_sl2_graded(lam, "E")
        assert loop(E, K0).dim == 2 * E.dim
        V = make_V_lambda(lam)
        n1 = jordan_holder(GROUP).chain[1]
        assert loop(V, n1).dim == 2 * V.dim


def test_loop_requires_prime_step():
    V = make_V_lambda(1)
    with pytest.raises(InvalidSubgroupStep):
        loop(V, K0)  # index 4 is not prime
    E = make_sl2_graded(1, "E")
    with pytest.raises(InvalidSubgroupStep):
        loop(E, subgroup_from_generators(GROUP, [(0, 1)]))  # not inside H2


def _pauli_step(n):
    """The gradable first lift step of the Pauli sl_n module and the next
    subgroup of the chain, of index n in its grading subgroup."""
    V = _pauli_sl(n)
    chain = jordan_holder(V.algebra.group).chain
    return bijection_F(V, chain[1]).module, chain[2]


def test_loop_shift_relabelling_matrix():
    # for every h in H, at index 2 (E_1 along {0}) and at index 3 (the
    # Pauli sl_3 step), the relabelling is a permutation matrix, of degree
    # 0 into the shifted loop, that intertwines every action matrix
    from liecolour.loopfunctor import shift_intertwiner

    for source, refiner in [(make_sl2_graded(1, "E"), K0), _pauli_step(3)]:
        lm = loop(source, refiner)
        L, f = lm.module, lm.module.field
        assert source.hsub.order() // refiner.order() in (2, 3)
        for h in source.hsub.elements:
            S = shift_intertwiner(lm, h)
            shifted = parity_shift(L, h)
            assert sorted(c for row in S for c in row) == list(range(L.dim))
            assert all(list(row.values()) == [f.one] for row in S)
            assert linalg.is_invertible(f, S)
            assert all(shifted.degrees[r] == L.degrees[c] for r, row in enumerate(S) for c in row)
            for a, b in zip(L.action, shifted.action):
                assert linalg.mat_mul(S, a) == linalg.mat_mul(b, S)


def _dichotomy(M, K):
    """(irreducible, dim End_0) of the loop of M along K, once the lift
    step's verdict is checked against is_graded_irreducible's and the
    degree-0 commutant is checked to be the scalars exactly on irreducible
    loops."""
    from liecolour.loopfunctor import _lift_step

    L = loop(M, K).module
    irreducible = is_graded_irreducible(L).irreducible
    assert _lift_step(M, K).gradable == (not irreducible)
    dim_end = len(commutant(L))
    assert (dim_end == 1) == irreducible
    return irreducible, dim_end


def test_loop_dichotomy_decides_every_catalog_step():
    # every graded-irreducible catalog module, along each subgroup of prime
    # index (2 here) in its grading subgroup
    verdicts = []
    for M in catalog_modules(7).values():
        if is_graded_irreducible(M).irreducible:
            for K in _prime_index_subgroups(M.hsub):
                verdicts.append(_dichotomy(M, K))
    assert len(verdicts) == 89
    assert sum(irreducible for irreducible, _ in verdicts) == 57
    assert {dim_end for irreducible, dim_end in verdicts if not irreducible} == {2}


def test_loop_dichotomy_at_index_3_and_5():
    # the ungraded Pauli sl_3, sl_5 and gl_3 modules, and each gradable lift
    # step's output, along every subgroup of prime index in their grading
    # subgroups: a reducible loop is the sum of the p shifts of one
    # regrading, which are not isomorphic here, so End_0 has dimension p
    seen = set()
    for V in (_pauli_sl(3), _pauli_sl(5), _gl3()):
        sources = [V] + [s.module for s in iterate_lift(V).steps if s.gradable]
        for M in sources:
            for K in _prime_index_subgroups(M.hsub):
                p = M.hsub.order() // K.order()
                irreducible, dim_end = _dichotomy(M, K)
                assert irreducible or dim_end == p
                seen.add((p, irreducible))
    assert seen == {(3, True), (3, False), (5, True), (5, False)}


def test_iterate_lift_classes_are_the_shift_partition():
    # the reference: iso_labels over every parity shift of the final module,
    # the first of each class, sorted by sector dimensions
    cases = [(make_V_lambda(lam), None, None) for lam in range(8)]
    cases += [(_pauli_sl(3), 1, 9), (_pauli_sl(5), 1, 25), (_gl3(), 9, 3)]
    for V, count, dim in cases:
        rep = iterate_lift(V)
        shifts = [parity_shift(rep.final, h) for h in rep.final.quo.coset_reps]
        labels = iso_labels(shifts)
        want = [m for i, m in enumerate(shifts) if labels[i] == i]
        assert rep.classes == sorted(want, key=lambda m: m.sector_dims())
        if count is not None:
            assert [m.dim for m in rep.classes] == [dim] * count


@pytest.mark.parametrize("lam", range(9))
def test_classify_row_runs_no_closure_rank_and_few_shift_checks(monkeypatch, lam):
    # the lift decides its loops without modp.closure_rank, and the shift
    # classes take one is_isomorphic call per shift outside the known part
    # of the stabilizer: one at odd lam (the loop's H is known), three at
    # even lam (the stabilizer is trivial), where pairwise checks took 3 and 6
    from liecolour import loopfunctor, modp
    from liecolour.workbench import classify_lambda

    def closure_rank(*args):
        raise AssertionError("closure_rank was called")

    calls = []
    real = loopfunctor.is_isomorphic

    def counted(V, W):
        calls.append((V, W))
        return real(V, W)

    monkeypatch.setattr(modp, "closure_rank", closure_rank)
    monkeypatch.setattr(loopfunctor, "is_isomorphic", counted)
    assert classify_lambda(lam).passed
    assert len(calls) == (1 if lam % 2 else 3)


def test_bijection_even_weight_is_gradable():
    out = bijection_F(make_sl2_graded(2, "E"), K0)
    assert out.gradable
    assert out.module.dim == 3
    shifts = [parity_shift(out.module, h) for h in GROUP.elements()]
    assert any(is_isomorphic(s, make_sl2_graded(2, "E+")) for s in shifts)
    # coarsening the refined module reproduces the source sectors exactly
    back = coarsen(out.module, h2_subgroup())
    assert back.sector_dims() == list(out.source.sector_dims())
    assert is_isomorphic(back, out.source)


def test_bijection_odd_weight_is_loop():
    out = bijection_F(make_sl2_graded(1, "E"), K0)
    assert not out.gradable
    assert out.module.dim == 4
    assert is_graded_irreducible(out.module).irreducible


def test_bijection_first_chain_step_from_ungraded():
    V = make_V_lambda(2)
    n1 = jordan_holder(GROUP).chain[1]
    out = bijection_F(V, n1)
    assert out.gradable
    assert sorted(out.module.sector_dims(), reverse=True) == [2, 1]


def test_bijection_rejects_reducible_input():
    from liecolour import direct_sum

    E = make_sl2_graded(1, "E")
    with pytest.raises(InvalidInput):
        bijection_F(direct_sum(E, E), K0)


def test_iterate_lift_even():
    rep = iterate_lift(make_V_lambda(2))
    assert [s.gradable for s in rep.steps] == [True, True]
    assert rep.final.dim == 3
    assert len(rep.classes) == 4


def test_iterate_lift_odd():
    rep = iterate_lift(make_V_lambda(1))
    assert [s.gradable for s in rep.steps] == [True, False]
    assert rep.final.dim == 4


@pytest.mark.parametrize("lam", range(9))
def test_iterate_lift_certifies_each_module_once(monkeypatch, lam):
    # the input is certified by bijection_F's pre-check at step 1; a later
    # step starts from the module the step before certified, so no module
    # reaches is_graded_irreducible twice, and the report is the one that
    # bijection_F at every step gives
    from liecolour import gmodule, loopfunctor

    V = make_V_lambda(lam)
    steps, current = [], V
    for sub in jordan_holder(GROUP).chain[1:]:
        outcome = bijection_F(current, sub)
        steps.append(outcome.to_json())
        current = outcome.module
    classes = loopfunctor.iso_classes_of_module(current)
    seen = []
    original = gmodule.is_graded_irreducible

    def once(module):
        assert all(module is not m for m in seen), "a module was certified twice"
        seen.append(module)
        return original(module)

    monkeypatch.setattr(gmodule, "is_graded_irreducible", once)
    monkeypatch.setattr(loopfunctor, "is_graded_irreducible", once)
    rep = iterate_lift(V)
    assert seen[0] is V
    assert [s.to_json() for s in rep.steps] == steps
    assert rep.final == current and rep.classes == classes


@pytest.mark.parametrize("lam", range(9))
def test_iterate_lift_keeps_one_record_per_step(lam):
    # each step's record is the outcome itself: it starts from the module
    # the step before ended at, and the last one ends at the report's final
    rep = iterate_lift(make_V_lambda(lam))
    for before, after in zip(rep.steps, rep.steps[1:]):
        assert after.source is before.module
    assert rep.final is rep.steps[-1].module


def test_iterate_lift_trivial_module_of_abelian_algebra():
    abelian = make_algebra(
        GROUP, sl2c_factor(), [("x", (0, 0)), ("y", (1, 0))], {}
    )
    one = make_module(
        abelian,
        full_subgroup(GROUP),
        [(0, 0)],
        [[[F4.zero]], [[F4.zero]]],
    )
    rep = iterate_lift(one)
    assert all(s.gradable for s in rep.steps)
    assert rep.final.dim == 1


def test_twist_orbit_examples():
    assert len(twist_orbit(make_sl2_graded(2, "E"))) == 1
    # the ungraded U families form one orbit of size four
    u = make_sl2_graded(3, "U++")
    orbit = twist_orbit(u)
    assert len(orbit) == 4
    assert any(is_isomorphic(m, make_sl2_graded(3, "U+-")) for m in orbit)
    # odd-weight coarse modules twist into something genuinely new
    assert len(twist_orbit(make_sl2_graded(1, "E"))) == 2
    # a trivial ungraded module has a single twist class
    abelian = make_algebra(GROUP, sl2c_factor(), [("x", (0, 0))], {})
    one = make_module(abelian, full_subgroup(GROUP), [(0, 0)], [[[F4.zero]]])
    assert len(twist_orbit(one)) == 1


def test_twist_orbit_size_divides_subgroup_order():
    for lam in range(4):
        E = make_sl2_graded(lam, "E")
        orbit = twist_orbit(E)
        assert h2_subgroup().order() % len(orbit) == 0


@pytest.mark.parametrize("lam", [3, 5, 7])
def test_twist_orbit_decides_the_classes_by_their_stabilizer(monkeypatch, lam):
    """twist_orbit returns the first twist of each isomorphism class, in
    twist_reps order, which the pairwise partition (iso_labels) also gives;
    the four twists of U++ are pairwise non-isomorphic, and one
    is_isomorphic call per twist outside the stabilizer decides them, where
    pairwise checks took 6."""
    from liecolour import loopfunctor

    module = make_sl2_graded(lam, "U++")
    twists = [twist(module, ch) for ch in twist_reps(GROUP, module.hsub)]
    labels = iso_labels(twists)
    calls = []
    real = loopfunctor.is_isomorphic

    def counted(V, W):
        calls.append((V, W))
        return real(V, W)

    monkeypatch.setattr(loopfunctor, "is_isomorphic", counted)
    orbit = twist_orbit(module)
    assert orbit == [m for i, m in enumerate(twists) if labels[i] == i]
    assert len(orbit) == 4 and len(calls) == 3


def test_iso_classes_counts():
    rep2 = iterate_lift(make_V_lambda(2))
    assert len(rep2.classes) == 4
    assert all(c.dim == 3 for c in rep2.classes)
    # the two loop gradings are isomorphic, so the orbit has one class
    rep1 = iterate_lift(make_V_lambda(1))
    assert len(rep1.classes) == 1
    # ungraded module: a single class (shifts act trivially modulo Gamma)
    abelian = make_algebra(GROUP, sl2c_factor(), [("x", (0, 0))], {})
    one = make_module(abelian, full_subgroup(GROUP), [(0, 0)], [[[F4.zero]]])
    assert len(iso_classes(one)) == 1


def test_coarsened_loop_splits_into_twists_of_source():
    from liecolour import decompose

    for lam in (1, 2):
        E = make_sl2_graded(lam, "E")
        lm = loop(E, K0)
        coarse = coarsen(lm.module, h2_subgroup())
        summands = decompose(coarse)
        assert len(summands) == 2
        reps = twist_reps(GROUP, h2_subgroup())
        twists = [twist(E, ch) for ch in reps]
        for s in summands:
            mod, _ = submodule_to_module(s)
            assert any(is_isomorphic(mod, t) for t in twists)


def test_dichotomy_is_exclusive_on_catalog():
    for lam in range(4):
        E = make_sl2_graded(lam, "E")
        out = bijection_F(E, K0)
        loop_verdict = is_graded_irreducible(out.loop.module)
        assert out.gradable == (not loop_verdict.irreducible)
        if out.gradable:
            # witnessed by an exactly validated refined grading
            assert out.module.dim == E.dim
            assert is_isomorphic(coarsen(out.module, h2_subgroup()), E)


def test_iterate_lift_on_other_grading_groups():
    # zero-action one-dimensional modules lift through every chain step of
    # longer composition series as well
    from liecolour import default_field, make_commutation_factor, make_group

    for orders in ([4], [2, 4]):
        g = make_group(orders)
        f = default_field(g)
        eps = make_commutation_factor(g, f, [[0] * g.rank for _ in range(g.rank)])
        alg = make_algebra(g, eps, [("x", g.zero())], {})
        one = make_module(alg, full_subgroup(g), [g.zero()], [[[f.zero]]])
        rep = iterate_lift(one)
        assert len(rep.steps) == len(jordan_holder(g).chain) - 1
        assert all(s.gradable for s in rep.steps)
        assert rep.final.dim == 1
        # one fully graded class per sector placement of the single vector
        assert len(rep.classes) == g.order()


def test_bijection_injectivity_at_desk_scale():
    # non-isomorphic, non-twist-equivalent inputs map to non-equivalent
    # outputs, where output equivalence is by shifts over the coarse
    # grading subgroup of the step (shifts over all of Gamma would merge
    # every fine grading of the same underlying module)
    e_out = bijection_F(make_sl2_graded(2, "E"), K0)
    o_out = bijection_F(make_sl2_graded(2, "O"), K0)
    e_orbit = [parity_shift(e_out.module, h) for h in h2_subgroup().elements]
    assert not any(is_isomorphic(m, o_out.module) for m in e_orbit)


def test_lift_report_json_shape():
    rep = iterate_lift(make_V_lambda(1))
    blob = rep.to_json()
    assert [s["outcome"] for s in blob["steps"]] == ["gradable", "loop"]
    assert blob["classes"][0]["dim"] == 4
    assert len(blob["chain"]) == 3
