"""Concrete catalog: colour sl2, its module families, and a 4-dim SUSY model.

The colour sl2 here is Z2xZ2-graded with commutation factor
(-1)^(a1 b2 - a2 b1) and brackets [[a1,a2]] = a3, [[a2,a3]] = a1,
[[a3,a1]] = a2.  A fixed multiplier (-1)^(a2 b1) discolours it to an
honest Lie algebra isomorphic to sl2, which is where all the module
families start: the weight modules V_lambda, their parity gradings, the
loop modules for odd highest weight, and the recoloured versions of all of
these back over colour sl2.  classify_sl2c drives the full classification
and cross-checks it against the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import colouralg, linalg
from .abelian import (
    AbelianGroup,
    dual_characters,
    full_subgroup,
    subgroup_from_generators,
    trivial_subgroup,
)
from .cyclotomic import field
from .errors import ClassificationMismatch, InvalidInput, InvalidVariant
from .gmodule import (
    GradedModule,
    Submodule,
    coarsen,
    is_graded_irreducible,
    iso_labels,
    parity_shift,
    recolour_module,
    regrade,
    submodule_to_module,
    twist,
)
from .grading import CommutationFactor, Multiplier
from .loopfunctor import iterate_lift, loop

GROUP = AbelianGroup([2, 2])
FIELD = field(4)  # lcm(exponent, 4): keeps i available for the sl2 formulas


@lru_cache(maxsize=None)
def sl2c_factor() -> CommutationFactor:
    # eps(a, b) = (-1)^(a1 b2 - a2 b1); -1 = zeta_4^2
    return CommutationFactor(GROUP, FIELD, [[0, 2], [2, 0]])


@lru_cache(maxsize=None)
def discolouring_sigma() -> Multiplier:
    # sigma(a, b) = (-1)^(a2 b1), hard-coded so every catalog formula comes
    # out sign-for-sign; the generated Scheunert multiplier differs but
    # satisfies the same identity.
    return Multiplier(GROUP, FIELD, [[0, 0], [2, 0]])


_SL2_BASIS = [("a1", (1, 0)), ("a2", (0, 1)), ("a3", (1, 1))]


@lru_cache(maxsize=None)
def make_sl2c() -> colouralg.ColourAlgebra:
    constants = {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}
    return colouralg.ColourAlgebra(GROUP, sl2c_factor(), _SL2_BASIS, constants)


@lru_cache(maxsize=None)
def make_sl2_discoloured() -> colouralg.ColourAlgebra:
    trivial = CommutationFactor(GROUP, FIELD, [[0, 0], [0, 0]])
    constants = {(0, 1): {2: 1}, (1, 2): {0: -1}, (2, 0): {1: -1}}
    return colouralg.ColourAlgebra(GROUP, trivial, _SL2_BASIS, constants)


def _imag():
    return FIELD.zeta(1)


@lru_cache(maxsize=None)
def make_V_lambda(lam) -> GradedModule:
    """The (lam+1)-dimensional weight module, as an ungraded module of the
    discoloured algebra: a1 = (i/2)(e - f), a2 = -(e + f)/2, a3 = -(i/2) h."""
    if lam < 0:
        raise InvalidInput("highest weight must be >= 0")
    f = FIELD
    i2 = _imag() * Fraction(1, 2)
    n = lam + 1
    a1, a2, a3 = linalg.zeros(n), linalg.zeros(n), linalg.zeros(n)
    for j in range(n):
        if j >= 1:
            up = lam - j + 1
            a1[j - 1][j] = i2 * up
            a2[j - 1][j] = f.from_rational(Fraction(-up, 2))
        if j < lam:
            dn = j + 1
            a1[j + 1][j] = -(i2 * dn)
            a2[j + 1][j] = f.from_rational(Fraction(-dn, 2))
        a3[j][j] = -(i2 * (lam - 2 * j))
    alg = make_sl2_discoloured()
    ungraded = full_subgroup(GROUP)
    return GradedModule(alg, ungraded, [(0, 0)] * n, [a1, a2, a3])


@lru_cache(maxsize=None)
def h2_subgroup():
    return subgroup_from_generators(GROUP, [(1, 1)])


def _even_odd_degrees(lam, flip=False):
    deg_even = (0, 0) if not flip else (0, 1)
    deg_odd = (0, 1) if not flip else (0, 0)
    return [deg_even if j % 2 == 0 else deg_odd for j in range(lam + 1)]


@lru_cache(maxsize=None)
def _plus_basis(lam):
    """Columns of the symmetrized basis v_j +- v_{lam-j} used by the fine
    gradings and the deterministic degrees that go with them."""
    one = FIELD.one
    cols, degs = [], []
    for j in range(lam // 2 + 1):
        even = j % 2 == 0
        if j == lam - j:
            cols.append({j: one + one})
            degs.append((0, 0) if even else (0, 1))
        else:
            cols += [{j: one, lam - j: one}, {j: one, lam - j: -one}]
            degs += [(0, 0) if even else (0, 1), (1, 1) if even else (1, 0)]
    return linalg.transpose(cols, lam + 1), degs


_SHIFTS = {"E+": (0, 0), "E-": (1, 1), "O+": (0, 1), "O-": (1, 0)}


def make_sl2_graded(lam, variant, recoloured=False) -> GradedModule:
    """Graded members of the catalog.

    variant: E / O (Z2-graded by the even-odd split), E+/E-/O+/O-
    (fully Z2xZ2-graded, lam even), loopE / loopO (lam odd, dimension
    2(lam+1)), or U++ / U+- / U-+ / U-- (ungraded, lam odd, recoloured by
    definition).  recoloured=True carries the module back over colour sl2.
    """
    if variant.startswith("U"):
        return _make_u_family(lam, variant)
    mod = _graded_variant(lam, variant)
    if recoloured:
        mod = recolour_module(mod, discolouring_sigma())
    return mod


@lru_cache(maxsize=None)
def _graded_variant(lam, variant):
    """The graded catalog variants.  E and O regrade V_lambda, and E-, O+,
    O- are parity shifts of E+, so each shares its action tuple and F_p
    view with V_lambda or E+, and only E+ is validated."""
    V = make_V_lambda(lam)
    if variant in ("E", "O"):
        return regrade(V, h2_subgroup(), _even_odd_degrees(lam, flip=(variant == "O")))
    if variant in _SHIFTS:
        if lam % 2:
            raise InvalidVariant(f"{variant} needs even highest weight")
        if variant != "E+":
            return parity_shift(_graded_variant(lam, "E+"), _SHIFTS[variant])
        basis, degs = _plus_basis(lam)
        inv = linalg.invert(FIELD, basis)
        mats = [linalg.mat_mul(inv, linalg.mat_mul(a, basis)) for a in V.action]
        return GradedModule(V.algebra, trivial_subgroup(GROUP), degs, mats)
    if variant in ("loopE", "loopO"):
        if lam % 2 == 0:
            raise InvalidVariant(f"{variant} needs odd highest weight")
        base = _graded_variant(lam, "E" if variant == "loopE" else "O")
        return loop(base, trivial_subgroup(GROUP)).module
    raise InvalidVariant(f"unknown variant {variant!r}")


@lru_cache(maxsize=None)
def _recoloured_loop_e(lam):
    lm = loop(_graded_variant(lam, "E"), trivial_subgroup(GROUP))
    return lm, recolour_module(lm.module, discolouring_sigma())


def _loop_index(lm, alpha, j):
    """Basis position of v_{alpha,j}: alpha = 0 carries labels 00/01 and
    alpha = 1 labels 11/10, with the label parity following j."""
    if alpha == 0:
        rep = (0, 0) if j % 2 == 0 else (0, 1)
    else:
        rep = (1, 1) if j % 2 == 0 else (1, 0)
    return lm.index_of(j, rep)


@lru_cache(maxsize=None)
def _make_u_family(lam, variant):
    if lam % 2 == 0:
        raise InvalidVariant("U families need odd highest weight")
    signs = {"+": 1, "-": -1}
    try:
        zeta_s, xi_s = variant[1], variant[2]
        zeta, xi = signs[zeta_s], signs[xi_s]
    except (IndexError, KeyError):
        raise InvalidVariant(f"unknown variant {variant!r}") from None
    lm, rc = _recoloured_loop_e(lam)
    i = _imag()
    rows = []
    for j in range((lam - 1) // 2 + 1):
        sign = 1 if j % 2 == 0 else -1
        rows.append({
            _loop_index(lm, 0, j): FIELD.one,
            _loop_index(lm, 1, j): i * (zeta * sign),
            _loop_index(lm, 0, lam - j): FIELD.from_rational(xi),
            _loop_index(lm, 1, lam - j): i * (-zeta * xi * sign),
        })
    ungraded = coarsen(rc, full_subgroup(GROUP))
    # restricted on the given rows, so the catalog formulas match coordinates
    return submodule_to_module(Submodule(ungraded, rows))[0]


@dataclass(frozen=True)
class Sl2Family:
    """Catalog coordinates: highest weight, variant name, U-signs."""

    lam: int
    variant: str
    zeta: int = 1
    xi: int = 1

    def dim(self):
        if self.variant in ("V", "E", "O", "E+", "E-", "O+", "O-"):
            return self.lam + 1
        if self.variant in ("loopE", "loopO"):
            return 2 * (self.lam + 1)
        if self.variant.startswith("U"):
            return (self.lam + 1) // 2
        raise InvalidVariant(self.variant)

    def build(self, recoloured=False):
        if self.variant == "V":
            return make_V_lambda(self.lam)
        name = self.variant
        if name == "U":
            name = "U" + ("+" if self.zeta > 0 else "-") + ("+" if self.xi > 0 else "-")
        return make_sl2_graded(self.lam, name, recoloured=recoloured)


# ---------------------------------------------------------------------------
# the Z2xZ2 supersymmetry block model
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def make_bd_model():
    """4-dim colour algebra (H, Q1, Q2, Z), a 2-dim seed module graded by
    the even/odd quotient, and its loop: a Z2xZ2-graded 4-dim module whose
    H and Q1 blocks are diagonal and Q2, Z blocks anti-diagonal in sector
    order (00, 01, 11, 10).

    The commutation factor (-1)^(a1 b1 + a2 b2) is the standard colour
    super sign on Z2xZ2; the stated brackets are compatible with it without
    any recolouring, which is re-verified on construction.
    """
    eps = CommutationFactor(GROUP, FIELD, [[2, 0], [0, 2]])
    basis = [("H", (0, 0)), ("Q1", (0, 1)), ("Q2", (1, 0)), ("Z", (1, 1))]
    f = FIELD
    i = _imag()
    # matrix seed first: Z is forced to be the Q2 Q1 commutator
    q1 = [{1: f.one}, {0: f.one}]
    q2 = [{1: -i}, {0: i}]
    h = linalg.mat_scale(linalg.identity(f, 2), f.from_rational(2))
    z = linalg.mat_sub(linalg.mat_mul(q2, q1), linalg.mat_mul(q1, q2))
    constants = {
        (1, 1): {0: 1},
        (2, 2): {0: 1},
        (2, 1): {3: 1},
    }
    alg = colouralg.ColourAlgebra(GROUP, eps, basis, constants)
    seed = GradedModule(alg, h2_subgroup(), [(0, 0), (0, 1)], [h, q1, q2, z])
    lm = loop(
        seed,
        trivial_subgroup(GROUP),
        sector_order=[(0, 0), (0, 1), (1, 1), (1, 0)],
    )
    return alg, seed, lm


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class LambdaReport:
    lam: int
    graded_classes: int
    graded_dims: list
    equivalence_classes: int
    ungraded_classes: int
    passed: bool
    notes: list = dc_field(default_factory=list)

    def to_json(self):
        return {
            "lambda": self.lam,
            "graded_classes": self.graded_classes,
            "graded_dims": list(self.graded_dims),
            "equivalence_classes": self.equivalence_classes,
            "ungraded_classes": self.ungraded_classes,
            "pass": self.passed,
            "notes": list(self.notes),
        }


@dataclass
class ClassificationReport:
    max_lambda: int
    rows: list = dc_field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def to_json(self):
        return {
            "max_lambda": self.max_lambda,
            "passed": self.passed,
            "rows": [r.to_json() for r in self.rows],
        }

    def raise_if_failed(self):
        if not self.passed:
            bad = [r for r in self.rows if not r.passed]
            raise ClassificationMismatch(
                f"classification mismatches at lambda = {[r.lam for r in bad]}",
                witness=self,
            )


_U_FAMILIES = ("U++", "U+-", "U-+", "U--")


def classify_lambda(lam) -> LambdaReport:
    notes = []
    info = []
    classes = iterate_lift(make_V_lambda(lam)).classes
    even = lam % 2 == 0
    # odd lam: loopE and loopO are character twists of each other, hence
    # isomorphic (v -> chi(deg v) v), so one graded class remains
    want_count = 4 if even else 1
    want_dim = lam + 1 if even else 2 * (lam + 1)
    if len(classes) != want_count:
        notes.append(f"graded class count {len(classes)} != {want_count}")
    for c in classes:
        if c.dim != want_dim:
            notes.append(f"graded class dim {c.dim} != {want_dim}")
    # one isomorphism partition of the lift classes, the graded catalog, the
    # U families and the twists of U++; every check below reads its labels
    names = ("E+", "E-", "O+", "O-") if even else ("loopE", "loopO")
    catalog = {v: _graded_variant(lam, v) for v in names}
    fams = {} if even else {v: _make_u_family(lam, v) for v in _U_FAMILIES}
    twists = [twist(fams["U++"], ch) for ch in dual_characters(GROUP)] if fams else []
    labels = iter(iso_labels([*classes, *catalog.values(), *fams.values(), *twists]))
    lifted = [next(labels) for _ in classes]
    found = {name: next(labels) for name in catalog}
    fam = {v: next(labels) for v in fams}
    twisted = [next(labels) for _ in twists]
    # the final classes must cover the catalog up to isomorphism and
    # vice versa
    for name, k in found.items():
        if k not in lifted:
            notes.append(f"catalog module {name} not reproduced by the lift")
    for idx, k in enumerate(lifted):
        if k not in found.values():
            notes.append(f"lift class {idx} matches no catalog module")
    if not even:
        # the note's leading words are matched verbatim by perfbench
        if found["loopE"] == found["loopO"]:
            info.append(
                "loopE and loopO are isomorphic (twists of one fully graded"
                " module, so the odd case carries a single graded class)"
            )
        else:
            notes.append("loopE and loopO are not isomorphic")
    # recoloured side: recolouring scales each sector's columns by a constant,
    # which commutes with every degree-0 map, so Hom and the partition above
    # are unchanged.  Graded irreducibility carries over too: recolouring
    # multiplies each block P_s rho(x_a) P_t by sigma^-1(a, t) != 0, so the
    # Burnside algebra with its sector projections, and every graded
    # invariant subspace, stay the same; and each class is a parity shift of
    # the module that the last lift step certified, so none is checked again
    # ungraded classification
    if even:
        u = coarsen(recolour_module(catalog["E+"], discolouring_sigma()), full_subgroup(GROUP))
        if not is_graded_irreducible(u).irreducible:
            notes.append("recoloured E+ is not ungraded irreducible")
        if u.dim != lam + 1:
            notes.append("ungraded dimension mismatch")
        ungraded_classes = 1
    else:
        for v, m in fams.items():
            if m.dim != (lam + 1) // 2:
                notes.append(f"{v} has dim {m.dim} != {(lam + 1) // 2}")
            if not is_graded_irreducible(m).irreducible:
                notes.append(f"{v} is not ungraded irreducible")
        for a, b in combinations(_U_FAMILIES, 2):
            if fam[a] == fam[b]:
                notes.append(f"{a} and {b} are isomorphic")
        # one twist orbit: every character twist of U++ is one of the four,
        # and all four appear
        hit = set()
        for ch, k in zip(dual_characters(GROUP), twisted):
            matches = [v for v in fams if fam[v] == k]
            if len(matches) != 1:
                notes.append(f"twist by {ch.exponents} matches {matches}")
            else:
                hit.add(matches[0])
        if hit != set(fams):
            notes.append(f"twist orbit of U++ only reaches {sorted(hit)}")
        ungraded_classes = 4
    return LambdaReport(
        lam=lam,
        graded_classes=len(classes),
        graded_dims=[c.dim for c in classes],
        # the lift's orbit plus each catalog class the lift misses
        equivalence_classes=1 + len(set(found.values()).difference(lifted)),
        ungraded_classes=ungraded_classes,
        passed=not notes,
        notes=notes + [f"note: {msg}" for msg in info],
    )


def classify_sl2c(max_lambda) -> ClassificationReport:
    if max_lambda < 0:
        raise InvalidInput("max lambda must be >= 0")
    report = ClassificationReport(max_lambda=max_lambda)
    for lam in range(max_lambda + 1):
        report.rows.append(classify_lambda(lam))
    return report


def catalog_modules(max_lambda=6):
    """Named catalog battery used by the verification suite."""
    out = {}
    for lam in range(max_lambda + 1):
        out[f"V{lam}"] = make_V_lambda(lam)
        out[f"E{lam}"] = _graded_variant(lam, "E")
        out[f"O{lam}"] = _graded_variant(lam, "O")
        if lam % 2 == 0:
            for v in ("E+", "E-", "O+", "O-"):
                out[f"{v}{lam}"] = _graded_variant(lam, v)
                out[f"{v}{lam}c"] = make_sl2_graded(lam, v, recoloured=True)
        else:
            for v in ("loopE", "loopO"):
                out[f"{v}{lam}"] = _graded_variant(lam, v)
                out[f"{v}{lam}c"] = make_sl2_graded(lam, v, recoloured=True)
            for v in _U_FAMILIES:
                out[f"{v}{lam}"] = _make_u_family(lam, v)
    alg, seed, lm = make_bd_model()
    out["bd_seed"] = seed
    out["bd_loop"] = lm.module
    return out
