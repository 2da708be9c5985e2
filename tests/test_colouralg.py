import pytest

from itertools import product

from liecolour import (
    CommutationFactor,
    Multiplier,
    bracket,
    discolour,
    field,
    is_superalgebra,
    make_algebra,
    recolour,
    trivial_multiplier,
)
from liecolour.colouralg import ColourAlgebra
from liecolour.errors import AlgebraValidationError
from liecolour.grading import twisted_factor
from liecolour.workbench import (
    GROUP,
    make_bd_model,
    make_sl2_discoloured,
    make_sl2c,
    discolouring_sigma,
    sl2c_factor,
)

F4 = field(4)


def test_sl2c_passes_axioms():
    alg = make_sl2c()
    assert alg.dim() == 3
    assert alg.bracket_basis(0, 1) == {2: F4.one}
    assert alg.bracket_basis(1, 2) == {0: F4.one}
    assert alg.bracket_basis(2, 0) == {1: F4.one}


def test_sign_flipped_constants_remain_valid():
    # flipping one bracket sign only rescales a basis vector: the fresh
    # Jacobi oracle vanishes and the validator accepts
    constants = {(0, 1): {2: 1}, (1, 2): {0: -1}, (2, 0): {1: 1}}
    assert _jacobi_defect(constants) == 0
    alg = make_algebra(
        GROUP, sl2c_factor(), [("a1", (1, 0)), ("a2", (0, 1)), ("a3", (1, 1))], constants
    )
    assert alg.bracket_basis(1, 2) == {0: -F4.one}


def test_jacobi_violation_caught_with_witness():
    # one even element acting on an odd one whose square feeds back: with
    # [h,x] = x and [[x,x]] = h the cyclic sum on (h,x,x) is -2h != 0
    from liecolour import AbelianGroup

    z2 = AbelianGroup([2])
    sup = CommutationFactor(z2, F4, [[2]])
    constants = {(0, 1): {1: 1}, (1, 1): {0: 1}}
    with pytest.raises(AlgebraValidationError) as err:
        make_algebra(z2, sup, [("h", (0,)), ("x", (1,))], constants)
    assert err.value.kind == "jacobi"
    assert len(err.value.witness) == 3


def _jacobi_defect(constants):
    """Fresh evaluation of the eps-Jacobi sum on colour-sl2-shaped data."""
    eps = sl2c_factor()
    degrees = [(1, 0), (0, 1), (1, 1)]
    full = {}
    for (i, j), row in constants.items():
        full[(i, j)] = {k: F4.from_rational(c) for k, c in row.items()}
    for i in range(3):
        for j in range(3):
            if (i, j) not in full and (j, i) in full:
                s = -eps.eval(degrees[i], degrees[j])
                full[(i, j)] = {k: s * c for k, c in full[(j, i)].items()}
    full = {ij: full.get(ij, {}) for ij in [(i, j) for i in range(3) for j in range(3)]}
    worst = 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                acc = {}
                combos = [
                    (eps.eval(degrees[k], degrees[i]), i, (j, k)),
                    (eps.eval(degrees[i], degrees[j]), j, (k, i)),
                    (eps.eval(degrees[j], degrees[k]), k, (i, j)),
                ]
                for coef, outer, inner in combos:
                    for t, ct in full[inner].items():
                        for u, cu in full[(outer, t)].items():
                            acc[u] = acc.get(u, F4.zero) + coef * ct * cu
                worst += sum(0 if v.is_zero() else 1 for v in acc.values())
    return worst


def test_abelian_algebra_valid_on_any_grading():
    basis = [("x", (0, 0)), ("y", (1, 0)), ("z", (0, 1))]
    alg = make_algebra(GROUP, sl2c_factor(), basis, {})
    assert all(not row for row in alg.constants.values())


def test_bracket_examples():
    alg = make_sl2c()
    a1, a2 = alg.basis_element(0), alg.basis_element(1)
    assert bracket(alg, a1, a2) == alg.basis_element(2)
    # -eps((0,1),(1,0)) = +1, so the reversed bracket gives a3 as well
    assert bracket(alg, a2, a1) == alg.basis_element(2)
    assert bracket(alg, a1, a1) == [F4.zero] * 3


def test_bracket_is_bilinear():
    alg = make_sl2c()
    i = F4.zeta(1)
    x = [F4.one, i, F4.zero]
    y = [F4.zero, F4.from_rational(2), -i]
    lhs = bracket(alg, x, y)
    parts = [
        [c * xi * yj for c in bracket(alg, alg.basis_element(p), alg.basis_element(q))]
        for p, xi in enumerate(x)
        for q, yj in enumerate(y)
        for c in [F4.one]
    ]
    acc = [F4.zero] * 3
    for p, xi in enumerate(x):
        for q, yj in enumerate(y):
            term = bracket(alg, alg.basis_element(p), alg.basis_element(q))
            acc = [a + xi * yj * t for a, t in zip(acc, term)]
    assert lhs == acc


def test_bracket_grading_additivity():
    alg = make_sl2c()
    for i in range(3):
        for j in range(3):
            want = GROUP.add(alg.degree(i), alg.degree(j))
            for k, c in alg.bracket_basis(i, j).items():
                if not c.is_zero():
                    assert alg.degree(k) == want


def test_discolour_matches_stated_lie_brackets():
    lie = discolour(make_sl2c(), discolouring_sigma())
    assert lie.bracket_basis(0, 1) == {2: F4.one}
    assert lie.bracket_basis(1, 2) == {0: -F4.one}
    assert lie.bracket_basis(2, 0) == {1: -F4.one}
    assert lie == make_sl2_discoloured()
    for a in GROUP.elements():
        for b in GROUP.elements():
            assert lie.epsilon.eval(a, b) == 1


def test_discolour_with_trivial_multiplier_is_identity():
    alg = make_sl2c()
    assert discolour(alg, trivial_multiplier(GROUP, F4)) == alg


def test_recolour_roundtrip():
    alg = make_sl2c()
    sigma = discolouring_sigma()
    assert recolour(discolour(alg, sigma), sigma) == alg
    assert recolour(make_sl2_discoloured(), sigma) == alg
    assert recolour(alg, trivial_multiplier(GROUP, F4)) == alg


def test_discolour_composes():
    alg = make_sl2c()
    s1 = discolouring_sigma()
    s2 = trivial_multiplier(GROUP, F4)
    via_product = discolour(alg, s1 * s2)
    stepwise = discolour(discolour(alg, s1), s2)
    assert via_product == stepwise


@pytest.mark.parametrize(
    "make", [make_sl2c, make_sl2_discoloured, lambda: make_bd_model()[0]],
    ids=["sl2c", "sl2_discoloured", "bd_model"],
)
def test_discolour_equals_its_validated_rebuild(make):
    # discolour stores its result unchecked; the validating constructor on
    # the twisted factor and the sigma-scaled brackets must accept it and
    # give the same algebra, for every multiplier with values +-1
    alg = make()
    deg = [d for _, d in alg.basis]
    for exps in product((0, 2), repeat=4):
        sigma = Multiplier(GROUP, F4, [exps[:2], exps[2:]])
        scaled = {
            (i, j): {k: sigma.eval(deg[i], deg[j]) * c for k, c in row.items()}
            for (i, j), row in alg.constants.items()
        }
        rebuilt = ColourAlgebra(GROUP, twisted_factor(alg.epsilon, sigma), alg.basis, scaled)
        assert discolour(alg, sigma) == rebuilt, exps


def test_is_superalgebra_examples():
    from liecolour import AbelianGroup

    assert is_superalgebra(make_sl2_discoloured())  # trivial factor, all even
    assert not is_superalgebra(make_sl2c())
    z2 = AbelianGroup([2])
    sup = CommutationFactor(z2, F4, [[2]])
    alg = make_algebra(z2, sup, [("q", (1,))], {})
    assert is_superalgebra(alg)


def test_fuzzed_single_entry_perturbations(rng):
    alg = make_sl2c()
    for _ in range(50):
        i, j, k = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        delta = F4.from_rational(rng.choice([1, -1, 2]))
        constants = {key: dict(row) for key, row in alg._table.items()}
        row = constants.setdefault((i, j), {})
        row[k] = row.get(k, F4.zero) + delta
        try:
            ColourAlgebra(GROUP, sl2c_factor(), alg.basis, constants)
        except AlgebraValidationError:
            continue
        # a perturbation that validates must be genuinely consistent
        assert _jacobi_defect({ij: r for ij, r in constants.items()}) == 0
