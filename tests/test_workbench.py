import re
from fractions import Fraction

import pytest

from liecolour import (
    Submodule,
    coarsen,
    field,
    full_subgroup,
    is_graded_irreducible,
    iterate_lift,
    jordan_holder,
    linalg,
    loop,
    recolour_module,
    submodule_to_module,
    trivial_subgroup,
)
from liecolour import workbench
from liecolour.errors import InvalidVariant
from liecolour.gmodule import GradedModule
from liecolour.workbench import (
    GROUP,
    Sl2Family,
    _loop_index,
    _recoloured_loop_e,
    catalog_modules,
    classify_lambda,
    classify_sl2c,
    discolouring_sigma,
    h2_subgroup,
    make_bd_model,
    make_sl2_graded,
    make_V_lambda,
)

F4 = field(4)
I = F4.zeta(1)


def test_v_lambda_examples():
    v0 = make_V_lambda(0)
    assert v0.dim == 1
    assert all(v0.matrix(k) == [[F4.zero]] for k in range(3))
    v2 = make_V_lambda(2)
    a3 = v2.matrix(2)
    assert a3[1][1].is_zero()  # weight lambda - 2j vanishes at j = 1
    v1 = make_V_lambda(1)
    a1 = v1.matrix(0)
    assert a1[1][0] == -(I * Fraction(1, 2))  # a1 v_0 = -(i/2) v_1


def test_graded_variant_shapes():
    assert make_sl2_graded(2, "E+").sector_dims() == [1, 1, 0, 1]
    assert make_sl2_graded(6, "E+").sector_dims() == [2, 2, 1, 2]
    assert make_sl2_graded(1, "loopE").sector_dims() == [1, 1, 1, 1]
    with pytest.raises(InvalidVariant):
        make_sl2_graded(1, "E+")
    with pytest.raises(InvalidVariant):
        make_sl2_graded(2, "loopE")
    with pytest.raises(InvalidVariant):
        make_sl2_graded(2, "U++")
    with pytest.raises(InvalidVariant):
        make_sl2_graded(2, "bogus")


@pytest.mark.parametrize("lam", range(9))
def test_even_odd_gradings_share_v_lambda(lam):
    # E and O regrade V_lambda's action: same tuple, same F_p view, and the
    # module the validating constructor builds from V's action
    V = make_V_lambda(lam)
    for variant, flip in (("E", False), ("O", True)):
        m = make_sl2_graded(lam, variant)
        assert m.action is V.action and m.fp_view is V.fp_view
        degrees = workbench._even_odd_degrees(lam, flip=flip)
        assert m == GradedModule(V.algebra, h2_subgroup(), degrees, V.action)


@pytest.mark.parametrize("lam", range(0, 9, 2))
def test_parity_variants_share_eplus(lam):
    # E+ is built once, in the symmetrized basis; E-, O+ and O- are its
    # parity shifts, holding its action tuple and F_p view, and each equals
    # the module the constructor builds from the conjugated action
    V = make_V_lambda(lam)
    basis, degs = workbench._plus_basis(lam)
    inv = linalg.invert(F4, basis)
    mats = [linalg.mat_mul(inv, linalg.mat_mul(a, basis)) for a in V.action]
    eplus = make_sl2_graded(lam, "E+")
    for variant, shift in workbench._SHIFTS.items():
        m = make_sl2_graded(lam, variant)
        assert m.action is eplus.action and m.fp_view is eplus.fp_view
        degrees = [GROUP.add(d, shift) for d in degs]
        assert m == GradedModule(V.algebra, trivial_subgroup(GROUP), degrees, mats)


def test_parity_variant_of_odd_weight_names_the_variant():
    for variant in ("E+", "E-", "O+", "O-"):
        with pytest.raises(InvalidVariant, match=re.escape(variant)):
            make_sl2_graded(1, variant)


def test_family_dimension_table():
    assert Sl2Family(4, "V").dim() == 5
    assert Sl2Family(4, "E").dim() == 5
    assert Sl2Family(4, "E+").dim() == 5
    assert Sl2Family(3, "loopE").dim() == 8
    assert Sl2Family(3, "U", zeta=-1, xi=1).dim() == 2
    fam = Sl2Family(3, "U", zeta=-1, xi=1)
    assert fam.build().dim == 2


def test_recoloured_loop_action_matches_alternating_signs():
    # recolouring scales the a2 column at v_{alpha,j} by (-1)^alpha and
    # leaves a1 untouched
    lam = 1
    lm, rc = _recoloured_loop_e(lam)
    plain = lm.module
    for alpha in (0, 1):
        for j in range(lam + 1):
            col = _loop_index(lm, alpha, j)
            sign = 1 if alpha == 0 else -1
            for r in range(rc.dim):
                assert rc.matrix(1)[r][col] == plain.matrix(1)[r][col] * sign
                assert rc.matrix(2)[r][col] == plain.matrix(2)[r][col] * sign
                assert rc.matrix(0)[r][col] == plain.matrix(0)[r][col]


def test_recoloured_eplus_sign_pattern():
    lam = 2
    plain = make_sl2_graded(lam, "E+")
    rc = make_sl2_graded(lam, "E+", recoloured=True)
    assert rc.matrix(0) == plain.matrix(0)  # a1 carries no sign
    for c, deg in enumerate(plain.degrees):
        sign = 1 if deg in ((0, 0), (0, 1)) else -1
        for r in range(plain.dim):
            assert rc.matrix(1)[r][c] == plain.matrix(1)[r][c] * sign
            assert rc.matrix(2)[r][c] == plain.matrix(2)[r][c] * sign


def _u_expected_matrices(lam, zeta, xi):
    """Fresh evaluation of the closed-form U-family action."""
    n = (lam - 1) // 2 + 1
    a1 = linalg.zeros(n)
    a2 = linalg.zeros(n)
    a3 = linalg.zeros(n)
    top = (lam - 1) // 2
    for j in range(n):
        sign = (-1) ** j
        if j < top:
            if j >= 1:
                a1[j - 1][j] = F4.from_rational(Fraction(-zeta * sign * (lam - j + 1), 2))
                a2[j - 1][j] = F4.from_rational(Fraction(-(lam - j + 1), 2))
            a1[j + 1][j] = F4.from_rational(Fraction(zeta * sign * (j + 1), 2))
            a2[j + 1][j] = F4.from_rational(Fraction(-(j + 1), 2))
        else:
            if top >= 1:
                a1[top - 1][top] = F4.from_rational(
                    Fraction(-zeta * sign * (lam + 3), 4)
                )
                a2[top - 1][top] = F4.from_rational(Fraction(-(lam + 3), 4))
            a1[top][top] = F4.from_rational(Fraction(zeta * xi * sign * (lam + 1), 4))
            a2[top][top] = F4.from_rational(Fraction(-xi * (lam + 1), 4))
        a3[j][j] = F4.from_rational(Fraction(-zeta * sign * (lam - 2 * j), 2))
    return a1, a2, a3


@pytest.mark.parametrize("lam", [1, 3, 5])
@pytest.mark.parametrize("zeta,xi", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_u_family_action_matches_closed_form(lam, zeta, xi):
    name = "U" + ("+" if zeta > 0 else "-") + ("+" if xi > 0 else "-")
    mod = make_sl2_graded(lam, name)
    a1, a2, a3 = _u_expected_matrices(lam, zeta, xi)
    assert mod.action[0] == a1
    assert mod.action[1] == a2
    assert mod.action[2] == a3


def test_u_family_boundary_spot_check():
    # lam = 3, zeta = +1, xi = -1: a2 u_1 = -(1/2)(3 u_0 - 2 u_1)
    mod = make_sl2_graded(3, "U+-")
    a2 = mod.matrix(1)
    assert a2[0][1] == Fraction(-3, 2)
    assert a2[1][1] == Fraction(1, 1)


def test_ungraded_eplus_in_diagonalizing_basis():
    # u_j = (v_j + v_{lam-j}) + i (-1)^j (v_j - v_{lam-j}) turns the
    # recoloured even-weight module into the alternating-sign form
    lam = 2
    rc = make_sl2_graded(lam, "E+", recoloured=True)
    flat = coarsen(rc, full_subgroup(GROUP))
    # build u-vectors in the E+ basis: columns of E+ are w_j^+ / w_j^-
    from liecolour.workbench import _plus_basis

    basis, _ = _plus_basis(lam)
    inv = linalg.invert(F4, basis)
    rows = []
    for j in range(lam + 1):
        v = [F4.zero] * (lam + 1)
        v[j] = v[j] + 1
        v[lam - j] = v[lam - j] + I * ((-1) ** j)
        v[j] = v[j] + I * ((-1) ** j) * 0  # keep structure explicit
        # u_j in weight coordinates: (v_j + v_{l-j}) + i(-1)^j (v_j - v_{l-j})
        u = [F4.zero] * (lam + 1)
        u[j] = u[j] + 1 + I * ((-1) ** j)
        u[lam - j] = u[lam - j] + 1 - I * ((-1) ** j)
        rows.append(linalg.mat_vec(inv, linalg.sparse(u)))
    # restricted on the given (non-echelon) rows u_j, not an echelon basis
    mod, _ = submodule_to_module(Submodule(flat, rows))
    for j in range(lam + 1):
        sign = (-1) ** (j + 1)
        assert mod.matrix(2)[j][j] == Fraction(sign * (lam - 2 * j), 2)
        if j >= 1:
            assert mod.matrix(1)[j - 1][j] == Fraction(-(lam - j + 1), 2)
            assert mod.matrix(0)[j - 1][j] == Fraction(sign * (lam - j + 1), 2)
        if j < lam:
            assert mod.matrix(1)[j + 1][j] == Fraction(-(j + 1), 2)
            assert mod.matrix(0)[j + 1][j] == Fraction(-sign * (j + 1), 2)


def test_bd_model():
    alg, seed, lm = make_bd_model()
    # the seed squares of the charges give the central element twice over
    q1 = seed.action[1]
    sq = linalg.mat_add(linalg.mat_mul(q1, q1), linalg.mat_mul(q1, q1))
    assert sq == seed.action[0]
    assert lm.module.dim == 4
    # sector order (00, 01, 11, 10): H, Q1 block-diagonal; Q2, Z anti
    order = [(0, 0), (0, 1), (1, 1), (1, 0)]
    assert [lm.bookkeeping[i][1] for i in range(4)] == order
    blocks = {0: "diag", 1: "diag", 2: "anti", 3: "anti"}
    for k, kind in blocks.items():
        mat = lm.module.matrix(k)
        for r in range(4):
            for c in range(4):
                same_block = (r < 2) == (c < 2)
                if kind == "diag" and not same_block:
                    assert mat[r][c].is_zero()
                if kind == "anti" and same_block:
                    assert mat[r][c].is_zero()
    assert is_graded_irreducible(lm.module).irreducible


def test_catalog_modules_all_validate():
    cat = catalog_modules(3)
    assert "V2" in cat and "loopE3" in cat and "U--3" in cat and "bd_loop" in cat
    # marked graded modules are graded irreducible (validity of every
    # catalog module is checked in test_transforms)
    for name in ("E+2", "loopE1", "bd_loop"):
        assert is_graded_irreducible(cat[name]).irreducible


def test_classify_even_rows_pass():
    row = classify_lambda(2)
    assert row.passed
    assert row.graded_classes == 4
    assert row.graded_dims == [3, 3, 3, 3]
    assert row.ungraded_classes == 1
    assert row.equivalence_classes == 1


def test_classify_odd_row_reports_defect():
    row = classify_lambda(1)
    assert row.graded_classes == 1
    assert row.graded_dims == [4]
    assert row.passed
    assert row.equivalence_classes == 1
    assert any(n.startswith("note: loopE and loopO are isomorphic") for n in row.notes)


def test_classification_report_json():
    rep = classify_sl2c(1)
    blob = rep.to_json()
    assert blob["max_lambda"] == 1
    assert blob["rows"][0]["pass"] is True
    assert blob["rows"][1]["pass"] is True
    rep.raise_if_failed()


def test_classify_counts_a_catalog_class_the_lift_misses(monkeypatch):
    # every catalog variant becomes the 1-dim E+0, which no lift class of
    # V2 reproduces: the lift's orbit plus that class make two
    stray = workbench._graded_variant(0, "E+")
    monkeypatch.setattr(workbench, "_graded_variant", lambda lam, variant: stray)
    row = classify_lambda(2)
    assert not row.passed
    assert row.equivalence_classes == 2
    assert "catalog module E+ not reproduced by the lift" in row.notes
    assert "lift class 0 matches no catalog module" in row.notes


@pytest.mark.parametrize("lam", range(9))
def test_recoloured_lift_classes_are_graded_irreducible(lam):
    # classify_lambda does not certify these: recolouring scales each block
    # P_s rho(x_a) P_t by a nonzero constant, which keeps every graded
    # invariant subspace, so the lift's verdict carries over
    sigma = discolouring_sigma()
    for c in iterate_lift(make_V_lambda(lam)).classes:
        verdict = is_graded_irreducible(recolour_module(c, sigma))
        assert verdict.irreducible and verdict.closure_dim == c.dim ** 2


@pytest.mark.parametrize("lam", [1, 3, 5, 7])
def test_the_witness_of_a_reducible_odd_loop_survives_recolouring(lam):
    # the first lift step's loop, graded by Gamma/<(0, 1)>, on which sigma
    # is constant on every coset
    step = jordan_holder(GROUP).chain[1]
    looped = loop(make_V_lambda(lam), step).module
    witness = is_graded_irreducible(looped).witness
    assert witness.homogeneous and 0 < witness.dim < looped.dim
    Submodule(recolour_module(looped, discolouring_sigma()), witness.rows).validate()
