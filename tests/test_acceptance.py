"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact.  Criterion 3 expects one graded class at odd
highest weight: the two loop gradings loopE and loopO are character twists
of one fully graded module, and v -> chi(deg v) v is a graded isomorphism
V -> V^chi.  The test certifies this with an explicit invertible degree-0
intertwiner checked by plain matrix products.
"""

import random
import time

from liecolour import (
    bijection_F,
    coarsen,
    commutant,
    decompose,
    discolour,
    full_subgroup,
    intertwiners,
    is_graded_irreducible,
    is_isomorphic,
    iterate_lift,
    jordan_holder,
    linalg,
    loop,
    parity_shift,
    recolour,
    scheunert_multiplier,
    spin,
    submodule_to_module,
    trivial_subgroup,
    twist,
    twist_reps,
)
from liecolour.colouralg import ColourAlgebra
from liecolour.errors import AlgebraValidationError
from liecolour.gmodule import _closure_rank_exact
from liecolour.grading import parity_split
from liecolour.workbench import (
    GROUP,
    catalog_modules,
    classify_sl2c,
    h2_subgroup,
    make_bd_model,
    make_sl2_discoloured,
    make_sl2_graded,
    make_sl2c,
    make_V_lambda,
    discolouring_sigma,
    sl2c_factor,
)

from conftest import augmented_closure_rank, battery_groups, field_for, random_commutation_factor

MAX_LAMBDA = 6


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {tag}{' - ' + detail if detail else ''}")


def test_criterion_1_axioms_and_perturbation_rejection():
    t0 = time.time()
    alg = make_sl2c()  # construction validates all axiom families
    rng = random.Random(11)
    rejected = 0
    trials = 50
    for _ in range(trials):
        i, j, k = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        delta = alg.field.from_rational(rng.choice([1, -1, 2, 3]))
        constants = {key: dict(row) for key, row in alg._table.items()}
        row = constants.setdefault((i, j), {})
        row[k] = row.get(k, alg.field.zero) + delta
        try:
            ColourAlgebra(GROUP, sl2c_factor(), alg.basis, constants)
        except AlgebraValidationError:
            rejected += 1
    elapsed = time.time() - t0
    ok = rejected == trials and elapsed < 1.0
    _report(1, ok, f"{rejected}/{trials} perturbations rejected in {elapsed:.2f}s")
    assert rejected == trials
    assert elapsed < 1.0


def test_criterion_2_discolouring():
    t0 = time.time()
    sl2c = make_sl2c()
    sigma = discolouring_sigma()
    lie = discolour(sl2c, sigma)
    f = sl2c.field
    assert lie.bracket_basis(0, 1) == {2: f.one}
    assert lie.bracket_basis(1, 2) == {0: -f.one}
    assert lie.bracket_basis(2, 0) == {1: -f.one}
    assert lie == make_sl2_discoloured()
    assert recolour(lie, sigma) == sl2c  # bit-exact round trip
    rng = random.Random(22)
    groups = battery_groups()
    for t in range(20):
        g = groups[t % len(groups)]
        fld = field_for(g)
        eps = random_commutation_factor(g, fld, rng)
        sig = scheunert_multiplier(eps)
        split = parity_split(eps)
        for a in g.elements():
            for b in g.elements():
                lhs = sig.eval(a, b) * sig.eval(b, a).inverse() * eps.eval(a, b)
                want = -fld.one if (split.parity(a) and split.parity(b)) else fld.one
                assert lhs == want
    elapsed = time.time() - t0
    _report(2, elapsed < 5.0, f"fixed-multiplier brackets exact, 20 random factors in {elapsed:.2f}s")
    assert elapsed < 5.0


def _check_loop_intertwiner(lam):
    """Problems with the intertwiner loopE -> loopO at odd lam (empty if none)."""
    src = make_sl2_graded(lam, "loopE")
    dst = make_sl2_graded(lam, "loopO")
    f = src.field
    basis = intertwiners(src, dst)
    if len(basis) != 1:
        return [f"lambda={lam}: Hom(loopE, loopO) has dim {len(basis)} != 1"]
    (m,) = basis
    problems = []
    if any(dst.degrees[r] != src.degrees[c] for r, row in enumerate(m) for c in row):
        problems.append(f"lambda={lam}: intertwiner is not of degree 0")
    for k in range(3):
        lhs = linalg.mat_mul(m, src.action[k])
        rhs = linalg.mat_mul(dst.action[k], m)
        if lhs != rhs:
            problems.append(f"lambda={lam}: intertwiner fails on x_{k}")
    inv = linalg.invert(f, m)
    if inv is None:
        problems.append(f"lambda={lam}: intertwiner is singular")
    elif linalg.mat_mul(m, inv) != linalg.identity(f, src.dim):
        problems.append(f"lambda={lam}: M M^-1 != I")
    return problems


def test_criterion_3_graded_classification():
    t0 = time.time()
    report = classify_sl2c(MAX_LAMBDA)
    elapsed = time.time() - t0
    problems = []
    for row in report.rows:
        even = row.lam % 2 == 0
        want_count = 4 if even else 1
        want_dim = row.lam + 1 if even else 2 * (row.lam + 1)
        if row.graded_classes != want_count:
            problems.append(
                f"lambda={row.lam}: {row.graded_classes} classes != {want_count}"
            )
        if any(d != want_dim for d in row.graded_dims):
            problems.append(f"lambda={row.lam}: dims {row.graded_dims} != {want_dim}")
        if row.equivalence_classes != 1:
            problems.append(f"lambda={row.lam}: equivalence classes != 1")
        if not row.passed:
            problems.append(f"lambda={row.lam}: row failed: {row.notes}")
    # the single odd class: loopE ~ loopO by an exact, checked intertwiner
    for lam in range(1, MAX_LAMBDA + 1, 2):
        problems += _check_loop_intertwiner(lam)
    ok = not problems and elapsed < 60.0
    detail = f"elapsed {elapsed:.1f}s"
    if problems:
        detail += "; " + "; ".join(problems)
    _report(3, ok, detail)
    assert elapsed < 60.0
    assert not problems, detail


def test_criterion_4_ungraded_classification():
    t0 = time.time()
    sigma = discolouring_sigma()
    for lam in range(0, MAX_LAMBDA + 1, 2):
        rc = make_sl2_graded(lam, "E+", recoloured=True)
        flat = coarsen(rc, full_subgroup(GROUP))
        assert flat.dim == lam + 1
        assert is_graded_irreducible(flat).irreducible
    for lam in range(1, MAX_LAMBDA, 2):
        fams = ["U++", "U+-", "U-+", "U--"]
        mods = {v: make_sl2_graded(lam, v) for v in fams}
        for v, m in mods.items():
            assert m.dim == (lam + 1) // 2
            assert is_graded_irreducible(m).irreducible
        for i, a in enumerate(fams):
            for b in fams[i + 1 :]:
                assert not is_isomorphic(mods[a], mods[b])
        # all four lie in the twist orbit of any one of them
        hit = set()
        for ch in twist_reps(GROUP, full_subgroup(GROUP)):
            t = twist(mods["U++"], ch)
            matches = [v for v in fams if is_isomorphic(t, mods[v])]
            assert len(matches) == 1
            hit.add(matches[0])
        assert hit == set(fams)
    elapsed = time.time() - t0
    _report(4, elapsed < 30.0, f"elapsed {elapsed:.1f}s")
    assert elapsed < 30.0


def _gradable_catalog_inputs():
    out = []
    for lam in range(0, MAX_LAMBDA + 1, 2):
        for variant in ("E", "O"):
            out.append((f"{variant}{lam}", make_sl2_graded(lam, variant), trivial_subgroup(GROUP)))
    n1 = jordan_holder(GROUP).chain[1]
    for lam in range(0, MAX_LAMBDA + 1):
        out.append((f"V{lam}", make_V_lambda(lam), n1))
    return out


def test_criterion_5_loop_decomposition():
    for name, module, refiner in _gradable_catalog_inputs():
        lm = loop(module, refiner)
        p = module.hsub.order() // refiner.order()
        summands = decompose(lm.module)
        assert len(summands) == p, f"{name}: {len(summands)} summands != {p}"
        mods = []
        for s in summands:
            sub_mod, _ = submodule_to_module(s)
            assert is_graded_irreducible(sub_mod).irreducible
            mods.append(sub_mod)
        # all summands are parity shifts of the first
        first = mods[0]
        for other in mods[1:]:
            assert any(
                is_isomorphic(parity_shift(first, h), other)
                for h in GROUP.elements()
            ), f"{name}: summand is not a parity shift"
        # and, coarsened back, each is a character twist of the source
        twists = [twist(module, ch) for ch in twist_reps(GROUP, module.hsub)]
        for m in mods:
            back = coarsen(m, module.hsub)
            assert any(is_isomorphic(back, t) for t in twists), (
                f"{name}: summand is not a twist of the source"
            )
    _report(5, True, f"{len(_gradable_catalog_inputs())} gradable inputs split exactly")


def test_criterion_6_bijection_dichotomy():
    checked = 0
    for lam in range(MAX_LAMBDA + 1):
        report = iterate_lift(make_V_lambda(lam))  # raises if ever inconclusive
        assert report.final.dim in (lam + 1, 2 * (lam + 1))
        checked += len(report.steps)
    for lam in range(MAX_LAMBDA + 1):
        for variant in ("E", "O"):
            module = make_sl2_graded(lam, variant)
            out = bijection_F(module, trivial_subgroup(GROUP))
            loop_verdict = is_graded_irreducible(out.loop.module)
            # exactly one side holds, each with an exact certificate
            assert out.gradable == (not loop_verdict.irreducible)
            if out.gradable:
                assert out.module.dim == module.dim
                back = coarsen(out.module, module.hsub)
                assert back.sector_dims() == list(module.sector_dims())
                assert is_isomorphic(back, module)
            else:
                assert loop_verdict.closure_dim == out.loop.dim ** 2
                # independent non-gradability witness: a twist rep fails to
                # be isomorphic to the module
                reps = twist_reps(GROUP, module.hsub)
                assert any(
                    not is_isomorphic(twist(module, ch), module) for ch in reps[1:]
                )
            checked += 1
    _report(6, True, f"{checked} decisive steps, no inconclusive verdicts")


def test_criterion_7_susy_block_model():
    alg, seed, lm = make_bd_model()
    assert lm.module.dim == 4
    order = [(0, 0), (0, 1), (1, 1), (1, 0)]
    assert [lm.bookkeeping[i][1] for i in range(4)] == order
    for k, kind in {0: "diag", 1: "diag", 2: "anti", 3: "anti"}.items():
        mat = lm.module.matrix(k)
        for r in range(4):
            for c in range(4):
                same = (r < 2) == (c < 2)
                if (kind == "diag") != same:
                    assert mat[r][c].is_zero(), (k, r, c)
    _report(7, True, "H,Q1 block-diagonal and Q2,Z block-anti-diagonal")


def test_criterion_8_oracle_agreement():
    battery = {n: m for n, m in catalog_modules(MAX_LAMBDA).items() if m.dim <= 8}
    # a couple of derived reducible modules keep the equivalence two-sided
    battery["loop_of_E2"] = loop(make_sl2_graded(2, "E"), trivial_subgroup(GROUP)).module
    battery["coarse_loop_E1"] = coarsen(
        loop(make_sl2_graded(1, "E"), trivial_subgroup(GROUP)).module, h2_subgroup()
    )
    agree = 0
    for name, module in sorted(battery.items()):
        verdict = is_graded_irreducible(module)
        comm_dim = len(commutant(module))
        spins_full = True
        f = module.field
        for i in range(module.dim):
            if spin(module, [{i: f.one}]).dim < module.dim:
                spins_full = False
                break
        parts = [idx for idx in module.sector_indices().values() if idx]
        closure = _closure_rank_exact(f, module.action, parts, module.dim)
        assert closure == augmented_closure_rank(module), name
        closure_full = closure == module.dim**2
        assert verdict.irreducible == closure_full == (comm_dim == 1 and spins_full), (
            name,
            verdict.irreducible,
            closure_full,
            comm_dim,
            spins_full,
        )
        agree += 1
    _report(8, True, f"{agree} modules: closure, commutant and spinning agree")
