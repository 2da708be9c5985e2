import pytest

from liecolour import (
    bijection_F,
    coarsen,
    field,
    full_subgroup,
    is_graded_irreducible,
    is_isomorphic,
    iso_classes,
    iterate_lift,
    jordan_holder,
    loop,
    make_algebra,
    make_module,
    parity_shift,
    submodule_to_module,
    subgroup_from_generators,
    trivial_subgroup,
    twist,
    twist_orbit,
    twist_reps,
)
from liecolour.errors import InvalidInput, InvalidSubgroupStep
from liecolour.workbench import (
    GROUP,
    h2_subgroup,
    make_sl2_graded,
    make_V_lambda,
    sl2c_factor,
)

F4 = field(4)
K0 = trivial_subgroup(GROUP)


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


def test_loop_shift_relabelling_matrix():
    from liecolour import linalg
    from liecolour.loopfunctor import shift_intertwiner

    lm = loop(make_sl2_graded(1, "E"), K0)
    S = shift_intertwiner(lm, (1, 1))
    shifted = parity_shift(lm.module, (1, 1))
    for k in range(3):
        lhs = linalg.mat_mul(S, lm.module.action[k])
        rhs = linalg.mat_mul(shifted.action[k], S)
        assert lhs == rhs


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
