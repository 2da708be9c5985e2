"""Graded and ungraded modules of a colour algebra, as exact matrices.

A module stores one action matrix per algebra basis element, as sparse rows
(see linalg), together with a grading subgroup H <= Gamma: per-vector
degrees live in Gamma/H, H = {0} is the fully graded case and H = Gamma
encodes an ungraded module: the one-sector case, which the general code
serves as it is.

Irreducibility uses the Burnside criterion on the action matrices of the
algebra's generating set (generator_action) and the sector projections
(the span of the grading operators for characters of Gamma/H): the module
is absolutely irreducible iff the unital algebra these generate is all of
End(V).  Its dimension is the sum over sectors V_t of the dimension of the
words in the action on V_t (see modp).  One procedure, _verdict, decides
irreducibility for is_graded_irreducible, for each rest of decompose and
for the loop of loopfunctor's lift step, with a certificate either way (a
full closure or a proper graded submodule).  decompose splits off one
summand at a time along the kernel of an intertwiner onto it (graded
Schur), and its "not completely reducible" carries a certificate.

Modules are validated where they enter the program, and only there: the
GradedModule constructor (user code and the catalog formulas) and JSON
loading both run the full representation and homogeneity check, the
first on integer coordinates (linalg.representation_defect).  The
transforms here and in loopfunctor (coarsen, regrade, twist, parity_shift,
direct_sum, discolour/recolour, restriction, quotient, loop) map a valid
module to a valid one by construction, so they check only what their own
arguments can get wrong (subgroup inclusion, matching data, homogeneous
rows, span invariance) and store their output as given (_derived).
regrade gives a valid module's action new degrees: its one check is the
constructor's homogeneity check, with the same error.  The regradings
(coarsen, parity_shift, regrade) keep the action tuple and its F_p view.

A Submodule is its parent and its rows.  Whether it is graded is read off
the rows (`homogeneous`), never stored.  A submodule is checked once, where
it crosses the public boundary: one check (_checked_span: independent rows,
invariant span) serves Submodule.validate, submodule_to_module and
graded_quotient.  Spans that are invariant by construction (a spin, the
kernel of an intertwiner) are restricted by _restriction, which reads each
image's coordinates at the rows' unit columns and checks only that the
rows are homogeneous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg, modp
from .abelian import quotient
from .colouralg import discolour as discolour_algebra
from .errors import (
    InconclusiveIrreducibility,
    InconclusiveIsomorphism,
    InvalidInput,
    InvalidSubmodule,
    ModuleValidationError,
    NotCompletelyReducible,
)
from .grading import multiplier_inverse
from .linalg import RowBasis, identity, mat_mul, mat_scale, mat_sub, mat_vec


class GradedModule:
    __slots__ = ("algebra", "hsub", "quo", "dim", "degrees", "action", "_fp")

    def __init__(self, algebra, hsub, degrees, matrices):
        if hsub.parent != algebra.group:
            raise InvalidInput("grading subgroup is not inside the algebra's group")
        self._store(algebra, quotient(algebra.group, hsub), degrees, matrices)
        if len(matrices) != algebra.dim():
            raise InvalidInput("need one action matrix per algebra basis element")
        if any(len(m) != self.dim for m in matrices):
            raise InvalidInput("action matrix has wrong shape")
        self.action = tuple([self._sparse_row(r) for r in m] for m in matrices)
        self.validate()

    @classmethod
    def _derived(cls, algebra, quo, degrees, action, fp=None):
        """A transform's valid output, stored as given (sparse rows without
        zeros); degrees are reduced through quo = Gamma/H.  `fp` is the
        FpView of a module with this very action tuple, to share."""
        return cls.__new__(cls)._store(algebra, quo, degrees, action, fp)

    def _store(self, algebra, quo, degrees, action, fp=None):
        self.algebra = algebra
        self.hsub = quo.subgroup
        self.quo = quo
        self.dim = len(degrees)
        self.degrees = tuple(quo.rep(d) for d in degrees)
        self.action = tuple(action)
        self._fp = fp
        return self

    def _sparse_row(self, row):
        """A row given densely (a sequence of dim scalars) or sparsely (a
        dict column -> scalar), as a sparse row without zeros."""
        if isinstance(row, dict):
            entries = row.items()
        elif len(row) == self.dim:
            entries = enumerate(row)
        else:
            raise InvalidInput("action matrix has wrong shape")
        out = {}
        for c, x in entries:
            if type(c) is not int or not 0 <= c < self.dim:
                raise InvalidInput(f"column {c!r} is outside 0..{self.dim - 1}")
            x = self.algebra._scalar(x)
            if not x.is_zero():
                out[c] = x
        return out

    # -- basic views ----------------------------------------------------------

    @property
    def field(self):
        return self.algebra.field

    @property
    def generator_action(self):
        """The action matrices of the algebra's generators
        (ColourAlgebra.generators), in their order.  They generate the same
        matrix algebra as the whole action, so they have the same invariant
        subspaces, closure and intertwiners."""
        return tuple(self.action[k] for k in self.algebra.generators)

    @property
    def fp_view(self):
        """The modp.FpView of generator_action (its entries mod p and Hom
        spin tree), made on first use and kept with the module; every
        regrading hands it on with the action tuple (see the modp
        docstring)."""
        if self._fp is None:
            self._fp = modp.FpView(self.generator_action, self.dim)
        return self._fp

    def is_ungraded(self):
        return self.hsub.order() == self.algebra.group.order()

    def sector_indices(self):
        """Map coset rep -> list of basis indices in that sector."""
        out = {rep: [] for rep in self.quo.coset_reps}
        for i, d in enumerate(self.degrees):
            out[d].append(i)
        return out

    def sector_dims(self):
        sec = self.sector_indices()
        return [len(sec[rep]) for rep in self.quo.coset_reps]

    def matrix(self, i):
        """Dense copy of the action matrix of basis element i (display, tests)."""
        return [linalg.dense(self.field, r, self.dim) for r in self.action[i]]

    # -- validation -----------------------------------------------------------

    def validate(self):
        bad = linalg.representation_defect(self.algebra, self.action, self.dim)
        if bad is not None:
            i, j, _ = bad
            raise ModuleValidationError(
                "representation",
                (i, j),
                f"rho([[x{i},x{j}]]) != rho(x{i})rho(x{j}) - eps rho(x{j})rho(x{i})",
            )
        self._check_homogeneity()

    def _check_homogeneity(self):
        """Raise ModuleValidationError("homogeneity", (k, r, c)) at the first
        entry (r, c) of rho(x_k) that leaves its sector (none when ungraded)."""
        if self.is_ungraded():
            return  # one sector; skipping saves a quotient addition per entry
        alg = self.algebra
        for k, mat in enumerate(self.action):
            shift = self.quo.rep(alg.degree(k))
            for r, row in enumerate(mat):
                for c in row:
                    if self.degrees[r] != self.quo.add(self.degrees[c], shift):
                        raise ModuleValidationError(
                            "homogeneity",
                            (k, r, c),
                            f"entry ({r},{c}) of rho(x{k}) leaves its sector",
                        )

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedModule):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.hsub == other.hsub
            and self.degrees == other.degrees
            and self.action == other.action
        )

    def __repr__(self):
        g = "ungraded" if self.is_ungraded() else f"graded by {self.quo!r}"
        return f"GradedModule(dim={self.dim}, {g})"


def make_module(algebra, hsub, degrees, matrices) -> GradedModule:
    return GradedModule(algebra, hsub, degrees, matrices)


@dataclass
class Submodule:
    """An invariant subspace, stored as sparse basis rows (reduced
    row-echelon unless given otherwise)."""

    parent: GradedModule
    rows: tuple

    @property
    def dim(self):
        return len(self.rows)

    @property
    def homogeneous(self):
        """Every row lies in one sector (always so when the parent is
        ungraded: it has one sector).  For echelon rows this holds exactly
        when the span is the sum of its sector parts, a graded submodule."""
        return _homogeneous(self.parent, self.rows)

    def validate(self):
        _checked_span(self)

    def to_json(self):
        V = self.parent
        return {
            "dim": self.dim,
            "homogeneous": self.homogeneous,
            "rows": [[x.to_json() for x in linalg.dense(V.field, r, V.dim)] for r in self.rows],
        }


@dataclass
class IrreducibilityVerdict:
    irreducible: bool
    closure_dim: Optional[int] = None
    witness: Optional[Submodule] = None

    def to_json(self):
        if self.irreducible:
            return {"irreducible": True, "closure_dim": self.closure_dim}
        return {"irreducible": False, "witness": self.witness.to_json()}


# ---------------------------------------------------------------------------
# regrading operations
# ---------------------------------------------------------------------------

def _regraded(module, quo, degrees):
    """The module's action tuple and F_p view under new degrees in quo."""
    return GradedModule._derived(module.algebra, quo, degrees, module.action, module.fp_view)


def regrade(module, hsub, degrees) -> GradedModule:
    """The same action graded by Gamma/hsub with the given vector degrees.

    The representation identity holds already, so only homogeneity is
    checked, with the constructor's ModuleValidationError on failure."""
    if hsub.parent != module.algebra.group:
        raise InvalidInput("grading subgroup is not inside the algebra's group")
    if len(degrees) != module.dim:
        raise InvalidInput("need one degree per basis vector")
    out = _regraded(module, quotient(module.algebra.group, hsub), degrees)
    out._check_homogeneity()
    return out


def coarsen(module, hsub_new) -> GradedModule:
    """Push degrees forward along Gamma/H -> Gamma/H' for H <= H'."""
    if not module.hsub.is_subset_of(hsub_new):
        raise InvalidInput("can only coarsen along a larger subgroup")
    return _regraded(module, quotient(module.algebra.group, hsub_new), module.degrees)


def twist(module, character) -> GradedModule:
    """Scale rho(x) by f(deg x) for a character f of Gamma."""
    if character.group != module.algebra.group:
        raise InvalidInput("character on a different group")
    f = module.field
    mats = [
        mat_scale(mat, character.eval(module.algebra.degree(k), f))
        for k, mat in enumerate(module.action)
    ]
    return GradedModule._derived(module.algebra, module.quo, module.degrees, mats)


def parity_shift(module, h) -> GradedModule:
    """Shift every vector degree by +h (an element of Gamma)."""
    g = module.algebra.group
    h = g.reduce(h)
    return _regraded(module, module.quo, [g.add(d, h) for d in module.degrees])


def direct_sum(a, b) -> GradedModule:
    if a.algebra != b.algebra or a.hsub != b.hsub:
        raise InvalidInput("direct sum needs matching algebra and grading")
    mats = [
        ma + [{a.dim + c: x for c, x in r.items()} for r in mb]
        for ma, mb in zip(a.action, b.action)
    ]
    return GradedModule._derived(a.algebra, a.quo, a.degrees + b.degrees, mats)


def discolour_module(module, sigma) -> GradedModule:
    """Carry the module across the bracket deformation by sigma.

    Columns in sector delta of rho(x_alpha) pick up sigma(alpha, delta);
    well-definedness requires sigma(., h) = 1 for h in the grading subgroup.
    """
    g = module.algebra.group
    one = module.field.one
    for gen in g.generators():
        for h in module.hsub.elements:
            if sigma.eval(gen, h) != one:
                raise InvalidInput("multiplier is not constant on grading cosets")
    target = discolour_algebra(module.algebra, sigma)
    mats = []
    for k, mat in enumerate(module.action):
        alpha = module.algebra.degree(k)
        s = [sigma.eval(alpha, d) for d in module.degrees]
        mats.append([{c: x * s[c] for c, x in row.items()} for row in mat])
    return GradedModule._derived(target, module.quo, module.degrees, mats)


def recolour_module(module, sigma) -> GradedModule:
    return discolour_module(module, multiplier_inverse(sigma))


# ---------------------------------------------------------------------------
# spinning and restriction
# ---------------------------------------------------------------------------

def spin(module, vectors) -> Submodule:
    """Smallest submodule containing the (sparse) vectors.

    The action is homogeneous (checked where the module entered, kept by
    every transform), so if every input is homogeneous, so are their images
    and the reduced echelon rows of their span: the result is a graded
    submodule.  Other inputs may span one too; `homogeneous` reads the rows.
    The span is closed under generator_action, which has the same invariant
    subspaces as the whole action.
    """
    mats = module.generator_action

    def images(v):
        return (mat_vec(mat, v) for mat in mats)

    basis = RowBasis(module.field, module.dim).close(vectors, images)
    return Submodule(parent=module, rows=tuple(basis.rows))


def _homogeneous(V, rows):
    """Every row lies in one sector of V."""
    return all(len({V.degrees[i] for i in r}) <= 1 for r in rows)


def _checked_span(sub):
    """The one check of a submodule: its rows are independent and their
    span is invariant (under generator_action, which has the same invariant
    subspaces as the whole action).  Returns the echelon basis of the span."""
    V = sub.parent
    basis = linalg.row_span(V.field, sub.rows, V.dim)
    if basis.rank != len(sub.rows):
        raise InvalidSubmodule("basis rows are dependent")
    for mat in V.generator_action:
        for r in sub.rows:
            if basis.reduce(mat_vec(mat, r)):
                raise InvalidSubmodule("span is not invariant under the action")
    return basis


def _restriction(V, rows, units):
    """The action of V restricted to the span of `rows`, on their
    coordinates, for a span that is invariant: row i is 1 at column
    units[i] and every other row is 0 there (the pivots of reduced echelon
    rows, the free columns of a linalg.nullspace basis), so the coordinate
    on row j of an image in the span is its entry at units[j].  The
    invariance is the caller's to know (a spin, the kernel of an
    intertwiner, or _checked_span); the rows must be homogeneous, which is
    checked."""
    if not _homogeneous(V, rows):
        raise InvalidSubmodule("restriction needs homogeneous basis rows")
    mats = []
    for mat in V.action:
        images = [mat_vec(mat, r) for r in rows]
        mats.append([{i: img[u] for i, img in enumerate(images) if u in img} for u in units])
    return GradedModule._derived(V.algebra, V.quo, [V.degrees[u] for u in units], mats)


def _restricted(sub):
    """_restriction to a submodule on reduced echelon rows, whose pivots
    are their first columns, and invariant by construction."""
    return _restriction(sub.parent, sub.rows, [min(r) for r in sub.rows])


def submodule_to_module(sub):
    """Restrict the parent action to the submodule's own coordinates.

    Returns (module, rows); basis row k of `rows` is the vector of the
    restricted module's k-th coordinate inside the parent.  The rows may be
    in any order and need not be echelon: the action is restricted to the
    echelon basis of their span (_restriction at its pivots) and carried to
    the given rows by the transition matrix T, rows = T (echelon rows),
    whose entries are the rows' entries at the pivots.
    """
    V = sub.parent
    f = V.field
    basis = _checked_span(sub)
    rows = list(sub.rows)
    n = len(rows)
    at_pivots = [{k: r[p] for k, p in enumerate(basis.pivots) if p in r} for r in rows]
    if at_pivots == identity(f, n):  # the rows are the echelon rows
        return _restriction(V, rows, basis.pivots), rows
    if not sub.homogeneous:
        raise InvalidSubmodule("restriction needs homogeneous basis rows")
    # on the echelon basis A, on the rows T^-T A T^T
    echelon = _restriction(V, basis.rows, basis.pivots)
    to_rows = linalg.transpose(linalg.invert(f, at_pivots), n)
    from_rows = linalg.transpose(at_pivots, n)
    mats = [mat_mul(mat_mul(to_rows, a), from_rows) for a in echelon.action]
    degrees = [V.degrees[min(r)] for r in rows]
    return GradedModule._derived(V.algebra, V.quo, degrees, mats), rows


# ---------------------------------------------------------------------------
# commutant and intertwiners
# ---------------------------------------------------------------------------

def _intertwiner_system(V, W):
    """Nonzero constraint rows and variable layout for degree-0 maps M: V -> W
    that intertwine generator_action, which is to intertwine the action."""
    variables = [(r, c) for r in range(W.dim) for c in range(V.dim)
                 if W.degrees[r] == V.degrees[c]]
    index = {rc: t for t, rc in enumerate(variables)}
    rows = []
    for A, B in zip(V.generator_action, W.generator_action):
        cols_a = linalg.transpose(A, V.dim)
        for r in range(W.dim):
            for c in range(V.dim):
                # (M A - B M)[r][c]; only M[r][c] can occur in both sums
                row = linalg.vec_add(
                    {index[(r, t)]: a for t, a in cols_a[c].items() if (r, t) in index},
                    {index[(t, c)]: -b for t, b in B[r].items() if (t, c) in index},
                )
                if row:
                    rows.append(row)
    return variables, rows


def intertwiners(V, W):
    """Basis of degree-0 maps M with M rho_V(x) = rho_W(x) M, as matrices.

    The basis is the one linalg.nullspace gives for the constraint system
    (_intertwiner_system), whichever path produced it:
    modp.certified_hom when it has a certificate (Hom = 0 by full column
    rank mod p, or a basis solved by spinning V mod p, with dim W_s
    unknowns per spin generator in sector s, under one embedding of zeta_m
    and lifted to Q, or under every embedding when that lift fails, and
    checked exactly), otherwise linalg.nullspace itself on the dense system
    (a denominator divisible by p, a spin basis singular under another
    embedding or prime, last columns that differ between them, no lift that
    passes the exact check once the primes' product passes the square of a
    height bound of the basis).  Both paths, and the exact check, use
    generator_action, the matrices of the algebra's generating set: a map
    that intertwines them intertwines the whole action.
    """
    if V.algebra != W.algebra:
        raise InvalidInput("modules over different algebras")
    if V.hsub != W.hsub:
        raise InvalidInput("modules graded by different quotients")
    f = V.field
    maps = modp.certified_hom(f, V.fp_view, W.fp_view, V.degrees, W.degrees)
    if maps is not None:
        return maps
    variables, rows = _intertwiner_system(V, W)
    out = []
    for sol in linalg.nullspace(f, rows, len(variables)):
        mat = linalg.zeros(W.dim)
        for t, x in sol.items():
            r, c = variables[t]
            mat[r][c] = x
        out.append(mat)
    return out


def commutant(V):
    """Degree-0 matrices commuting with the whole action (contains 1)."""
    return intertwiners(V, V)


# Random combinations tried before an isomorphism test gives up.
_COMBINATIONS = 4


def _sector_traces(V):
    """{(k, s): trace}: the exact trace on each sector s of rho(x_k) for
    each generator x_k (ColourAlgebra.generators) whose degree lies in H,
    so that rho(x_k) maps each sector to itself.  Traces that are 0 are left
    out, so a sector whose diagonal sums to 0 compares equal to one with no
    diagonal entry."""
    alg, quo = V.algebra, V.quo
    sums = {}
    for k in alg.generators:
        if quo.rep(alg.degree(k)) != quo.zero():
            continue
        for r, row in enumerate(V.action[k]):
            x = row.get(r)
            if x is not None:
                key = (k, V.degrees[r])
                sums[key] = sums[key] + x if key in sums else x
    return {key: x for key, x in sums.items() if not x.is_zero()}


def is_isomorphic(V, W) -> bool:
    """Graded isomorphism test (ungraded isomorphism when H = Gamma).

    True is certified by an invertible degree-0 intertwiner: the identity
    when V == W, entry for entry, else one found in Hom(V, W).  False is
    certified by different (sector) dimensions; by a generator x_k of
    degree in H whose exact trace on some sector differs between V and W
    (_sector_traces: a degree-0 isomorphism M is block diagonal by sector,
    so M_s rho_V(x_k)_ss M_s^-1 = rho_W(x_k)_ss); by Hom(V, W) = 0; or by
    Hom(V, W) = K M with M singular (every element of Hom is then a
    multiple of M, so none is invertible).  Hom is solved only when the
    cheaper checks leave the answer open.  When dim Hom >= 2, seeded
    combinations sum c_k M_k with c_k in 1..100 dim V are tried: det is a
    nonzero polynomial of degree dim V in the c_k if an isomorphism exists,
    so by Schwartz-Zippel each is singular with probability at most 1/100.
    If none is invertible there is no certificate either way, and
    InconclusiveIsomorphism is raised.
    """
    if V.algebra != W.algebra:
        raise InvalidInput("modules over different algebras")
    if V.hsub != W.hsub:
        raise InvalidInput("modules graded by different quotients")
    if V.sector_dims() != W.sector_dims():
        return False
    if V == W:
        return True
    if _sector_traces(V) != _sector_traces(W):
        return False
    maps = intertwiners(V, W)
    if not maps:
        return False
    f = V.field
    if len(maps) == 1:
        return linalg.is_invertible(f, maps[0])
    rng = random.Random(0)
    for _ in range(_COMBINATIONS):
        acc = linalg.zeros(V.dim)
        for m in maps:
            acc = linalg.mat_add(acc, mat_scale(m, f.from_rational(rng.randint(1, 100 * V.dim))))
        if linalg.is_invertible(f, acc):
            return True
    raise InconclusiveIsomorphism(
        f"Hom has dimension {len(maps)} but no invertible element was found"
    )


def iso_labels(modules):
    """Isomorphism partition: label i is the index of the first module
    isomorphic to modules[i].  Each module is tested once, by is_isomorphic,
    against the first member of each class found so far, so a shared label
    is certified by invertible intertwiners through that member and a new
    one by an exact False against each.  Modules over different algebras or
    gradings are never in one class."""
    labels, firsts = [], []
    for i, m in enumerate(modules):
        for j in firsts:
            n = modules[j]
            if n.algebra == m.algebra and n.hsub == m.hsub and is_isomorphic(m, n):
                labels.append(j)
                break
        else:
            firsts.append(i)
            labels.append(i)
    return labels


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def _closure_rank_exact(f, mats, parts, d):
    """Dimension over f of the unital algebra that a graded action and its
    sector projections generate, for `mats` the exact sparse action matrices
    and `parts` as modp.closure_rank takes them.  Each sector V_t's
    inclusion, a d x n_t matrix flattened row-major, is closed under left
    multiplication by the action, and the ranks are summed (why this is the
    dimension: see the modp docstring)."""
    total = 0
    for idx in parts:
        n = len(idx)

        def products(w):
            wm = linalg.zeros(d)
            for t, x in w.items():
                wm[t // n][t % n] = x
            for g in mats:
                yield {i * n + c: x for i, row in enumerate(mat_mul(g, wm)) for c, x in row.items()}

        inclusion = {i * n + c: f.one for c, i in enumerate(idx)}
        total += RowBasis(f, d * n).close([inclusion], products).rank
    return total


def _field_roots(f, mu):
    """Verified roots in Q(zeta_m) of a monic polynomial of degree >= 1 over
    it (a minimal polynomial).

    Tries small rational-times-root-of-unity candidates, rational-root
    candidates when the polynomial is rational, and (for phi(m) <= 2)
    numeric roots reconstructed and verified exactly.  Only exactly
    verified roots are returned, so the list may be incomplete for exotic
    fields; callers treat a miss as "no split found".  The search stops at
    deg distinct roots, since a polynomial of degree deg has no more.
    """
    deg = len(mu) - 1

    def value(c):
        acc = mu[-1]
        for k in range(deg - 1, -1, -1):
            acc = acc * c + mu[k]
        return acc

    found = []
    for c in _root_candidates(f, mu):
        if all(c != r for r in found) and value(c).is_zero():
            found.append(c)
            if len(found) == deg:
                break
    return found


def _root_candidates(f, mu):
    """_field_roots' candidates, in the order they are tried; the numeric
    ones are computed only if reached."""
    small = [Fraction(n, d2) for n in (0, 1, -1, 2, -2, 3, -3) for d2 in (1, 2, 4)]
    for q in small:
        for k in range(f.m):
            yield f.zeta(k) * q
    if all(x.is_rational() for x in mu):
        import math

        denom = 1
        for x in mu:
            denom = math.lcm(denom, x.rational_value().denominator)
        const = abs(int(mu[0].rational_value() * denom))
        lead = abs(int(mu[-1].rational_value() * denom))
        if 0 < const <= 10**6 and lead <= 10**6:
            leads = _divisors(lead)
            for pdiv in _divisors(const):
                for qdiv in leads:
                    for sign in (1, -1):
                        yield f.from_rational(Fraction(sign * pdiv, qdiv))
    if f.degree <= 2:
        coeffs = [x.complex_value() for x in mu]
        try:
            numeric = np.roots(list(reversed(coeffs)))
        except Exception:
            numeric = []
        # z = x_0 + x_1 zeta: the real parts of the embedded power basis give
        # the one equation for phi(m) = 1, and for phi(m) = 2 (zeta is not
        # real) the imaginary parts the second
        basis = f.complex_embedding()
        arr = np.array([[b.real for b in basis], [b.imag for b in basis]][:f.degree])
        for z in numeric:
            sol = np.linalg.solve(arr, np.array([z.real, z.imag][:f.degree]))
            yield f.num([Fraction(float(x)).limit_denominator(1 << 30) for x in sol])


def _divisors(n):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _commutant_kernel_vectors(module, end):
    """Homogeneous vectors spanning kernels of (M - c) for the non-scalar
    elements M of the commutant basis `end` and verified eigenvalues c, one
    kernel at a time, each computed only if reached."""
    f = module.field
    d = module.dim
    eye = identity(f, d)
    for M in end:
        if M == mat_scale(eye, M[0].get(0, f.zero)):
            continue
        mu = linalg.min_poly(f, M)
        for c in _field_roots(f, mu):
            # c is a verified root of M's minimal polynomial, so M - c is
            # singular, and nonzero as M is not scalar: 0 < len(kernel) < d
            yield from linalg.nullspace(f, mat_sub(M, mat_scale(eye, c)), d)


def is_graded_irreducible(module) -> IrreducibilityVerdict:
    """Burnside-closure irreducibility with exact certification (_verdict).

    Irreducible verdicts always come with closure dimension dim^2 (full
    rank mod p already implies full rank exactly), so they hold over C too;
    reducible verdicts carry an exact proper graded submodule over
    Q(zeta_m), the spin of one vector, whose rows RowBasis.close made
    independent and closed under the action.  The closure mod p, the spins
    and the exact closure all use generator_action, the matrices of the
    algebra's generating set, which generate the same matrix algebra as
    the whole action (see the modp docstring).  A closure below dim^2 with
    no submodule found raises InconclusiveIrreducibility with the closure
    rank and the commutant dimension: the module is then reducible over C,
    and may be irreducible over Q(zeta_m), though not when its commutant is
    the scalars.
    """
    if module.dim == 0:
        raise InvalidInput("irreducibility of the zero module is undefined")
    return _verdict(module)


def _sector_parts(module):
    """The basis indices of each non-empty sector, as modp takes them."""
    return [idx for idx in module.sector_indices().values() if idx]


def _verdict(module, dichotomy=False):
    """The one decision of graded irreducibility, for is_graded_irreducible,
    each rest of decompose and, with `dichotomy`, the loop of
    loopfunctor's lift step.  Each step runs only if the ones before leave
    the answer open:

    1. the rank-one certificate mod p (modp.rank_one_certificate);
    2. the first proper spin of the candidates: the unit vectors whose
       spin is not known to be the whole module (whole_spin_test: a spin
       mod p that is whole proves the exact one is), then the kernel
       vectors of the degree-0 commutant (_commutant_kernel_vectors), which
       is computed at most once;
    3. when no rank-one idempotent showed, the closure rank mod p, on the
       image that step 1 read;
    4. the exact closure, or InconclusiveIrreducibility.

    With `dichotomy` the module is the loop L of a graded-irreducible
    module, and when no rank-one idempotent shows, End_0(L) is computed
    first: dimension 1 certifies L irreducible (see the loopfunctor
    docstring), and otherwise the candidate unit vectors are those read
    off End_0(L)'s columns.  By the dichotomy a reducible L is, over C, a
    sum of absolutely graded-irreducible summands, so by density its
    Burnside algebra A is End_{End_0(L)}(L), and A e = L exactly when
    End_0(L) e has dimension dim End_0(L) (a summand type of multiplicity
    k takes rank k from e's components); both are ranks, the same over
    Q(zeta_m).  So no unit vector is spun mod p, and the witness is the
    one the scan would find.
    """
    d, f = module.dim, module.field
    parts = _sector_parts(module)
    answers = modp._closure_answers(f, module.fp_view, parts)
    certified = next(answers)
    if certified:
        return IrreducibilityVerdict(True, closure_dim=d * d)
    end = None
    if dichotomy and certified is None:
        end = commutant(module)
        if len(end) == 1:
            return IrreducibilityVerdict(True, closure_dim=d * d)
        cols = [linalg.transpose(M, d) for M in end]
        units = [i for i in range(d)
                 if linalg.row_span(f, [c[i] for c in cols], d).rank < len(end)]
    else:
        whole = modp.whole_spin_test(f, module.fp_view)
        units = (i for i in range(d) if not whole({i: f.one}))

    def candidates():
        nonlocal end
        yield from ({i: f.one} for i in units)
        if end is None:
            end = commutant(module)
        yield from _commutant_kernel_vectors(module, end)

    for v in candidates():
        witness = spin(module, [v])
        if witness.dim < d:
            return IrreducibilityVerdict(False, witness=witness)
    if certified is None and next(answers):
        return IrreducibilityVerdict(True, closure_dim=d * d)
    # exact authority: the mod-p rank may have dropped on an unlucky prime
    rank_exact = _closure_rank_exact(f, module.generator_action, parts, d)
    if rank_exact == d * d:
        return IrreducibilityVerdict(True, closure_dim=d * d)
    # by the density theorem a graded irreducible module whose commutant is
    # the scalars has the full closure
    why = (f"the commutant is the scalars, so one exists over Q(zeta_{f.m})" if len(end) == 1
           else f"the module is reducible over C and may be irreducible over Q(zeta_{f.m})")
    raise InconclusiveIrreducibility(
        f"closure rank {rank_exact} < {d * d} and commutant dimension {len(end)}, "
        f"but no proper graded submodule found ({why})",
        closure_rank=rank_exact,
        commutant_dim=len(end),
    )


# ---------------------------------------------------------------------------
# decomposition and quotients
# ---------------------------------------------------------------------------

def shrink_to_irreducible(sub) -> Submodule:
    """A graded irreducible submodule inside `sub`, found by restricting and
    descending into reducibility witnesses.  `sub` is checked
    (_checked_span) and taken on the echelon basis of its span."""
    basis = _checked_span(sub)
    return _shrink_and_restrict(Submodule(sub.parent, tuple(basis.rows)))[0]


def _shrink_and_restrict(sub):
    """shrink_to_irreducible(sub), with the restriction to the result,
    which the last step of the descent has already computed.  `sub` is on
    reduced echelon rows and invariant by construction (a spin), and so is
    every witness on the way down: each is restricted without a check of
    its invariance."""
    while True:
        restricted = _restricted(sub)
        verdict = is_graded_irreducible(restricted)
        if verdict.irreducible:
            return sub, restricted
        sub = _echelon_span(sub.parent, mat_mul(verdict.witness.rows, sub.rows))


def decompose(module):
    """Split a completely reducible module into graded irreducible summands,
    each as the reduced echelon rows of its span.

    The rest R still to split (at first the module) is its own summand when
    _verdict certifies it irreducible (or raises InconclusiveIrreducibility).
    Else its witness, the first proper spin, is shrunk to a graded
    irreducible S with inclusion i, and H is the first element of the Hom(R, S) basis
    with H i != 0: by graded Schur H i is invertible, so ker H is a graded
    invariant complement of S, which is split next (a kernel is invariant
    by construction, so it is restricted unchecked, at the free columns of
    its nullspace basis).  If every basis element vanishes on S, S has no
    complement in R (the degree-0 part of a projection would be the
    identity on S), nor in the module (by the modular law it would meet R
    in one): NotCompletelyReducible is raised, with S as its certificate.
    """
    f = module.field
    summands, rest, inside = [], module, identity(f, module.dim)  # inside: rest's basis in module
    while rest.dim:
        verdict = _verdict(rest)
        if verdict.irreducible:
            return summands + [_echelon_span(module, inside)]
        sub, S = _shrink_and_restrict(verdict.witness)
        piece = _echelon_span(module, mat_mul(sub.rows, inside))
        H = next((H for H in intertwiners(rest, S) if any(mat_vec(H, r) for r in sub.rows)), None)
        if H is None:
            raise NotCompletelyReducible(
                f"irreducible submodule of dimension {S.dim} has no invariant complement", piece)
        summands.append(piece)
        kernel = linalg.nullspace(f, H, rest.dim)
        rest = _restriction(rest, kernel, [max(v) for v in kernel])
        inside = mat_mul(kernel, inside)
    return summands


def graded_quotient(module, sub) -> GradedModule:
    """Quotient by a graded submodule, on the canonical complement basis."""
    if sub.parent is not module and sub.parent != module:
        raise InvalidSubmodule("submodule belongs to a different module")
    basis = _checked_span(sub)
    if not sub.homogeneous:
        raise InvalidSubmodule("quotient needs a homogeneous submodule")
    d = module.dim
    pivots = set(basis.pivots)
    comp = [i for i in range(d) if i not in pivots]
    # a residual vanishes at every pivot, so its entries sit on comp
    position = {i: k for k, i in enumerate(comp)}
    degrees = [module.degrees[i] for i in comp]
    mats = []
    for mat in module.action:
        cols = linalg.transpose(mat, d)
        resids = [basis.reduce(cols[c]) for c in comp]
        mats.append(
            linalg.transpose([{position[i]: x for i, x in r.items()} for r in resids], len(comp))
        )
    return GradedModule._derived(module.algebra, module.quo, degrees, mats)


def _echelon_span(module, rows):
    """The span of the rows in `module`, on its reduced echelon basis."""
    return Submodule(module, tuple(linalg.row_span(module.field, rows, module.dim).rows))


def submodule_from_rows(module, rows) -> Submodule:
    sub = _echelon_span(module, rows)
    sub.validate()
    return sub
