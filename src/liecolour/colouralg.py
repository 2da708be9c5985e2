"""Finite-dimensional Lie colour algebras from graded structure constants.

An algebra is a graded basis plus a sparse table of bracket coefficients.
Construction verifies, exactly and for every basis pair or triple:

* grading compatibility     c_{ij}^k = 0 unless deg_k = deg_i + deg_j
* eps-antisymmetry          [[x,y]] = -eps(a,b) [[y,x]]
* the eps-Jacobi identity   eps(c,a)[[x,[[y,z]]]] + cyclic = 0

The Jacobi identity is checked as the representation identity of the
adjoint matrices ad(x_k) (linalg.representation_defect).  Once the first
two hold, for x, y, z of degrees a, b, c

    [[x,[[y,z]]]] - [[[[x,y]],z]] - eps(a,b)[[y,[[x,z]]]] = eps(a,c) J(x,y,z)

with J the cyclic sum above, and the left side is column z of
ad(x)ad(y) - eps(a,b)ad(y)ad(x) - ad([[x,y]]); it changes only by the
factor -eps(b,a) when x and y swap, so the first failing (i <= j, k) is
the lexicographically first failing triple.

Failures raise with the offending pair or triple, which is what the fuzz
tests downstream lean on.  discolour stores its result unchecked.
"""

from __future__ import annotations

from .errors import AlgebraValidationError, InvalidInput
from .grading import multiplier_inverse, twisted_factor


class ColourAlgebra:
    __slots__ = ("group", "epsilon", "field", "basis", "_table", "_generators")

    def __init__(self, group, epsilon, basis, constants):
        """`basis` is a list of (name, degree); `constants` maps (i, j) to
        {k: coefficient}.  Missing (j, i) entries are filled in from
        eps-antisymmetry; supplied ones are checked against it."""
        if epsilon.group != group:
            raise InvalidInput("commutation factor is on a different group")
        self.group = group
        self.epsilon = epsilon
        self.field = epsilon.field
        self.basis = tuple((str(n), group.reduce(d)) for n, d in basis)
        n = len(self.basis)

        def index(i, what):
            if type(i) is not int or not 0 <= i < n:
                raise InvalidInput(f"bracket {what} index {i!r} is no integer in 0..{n - 1}")

        table = {}
        for (i, j), comp in constants.items():
            index(i, "input")
            index(j, "input")
            row = {}
            for k, c in comp.items():
                index(k, "output")
                c = self._scalar(c)
                if not c.is_zero():
                    row[k] = c
            table[(i, j)] = row
        self._table = self._complete(table)
        self._generators = None
        self._validate()

    @classmethod
    def _derived(cls, group, epsilon, basis, table):
        """A complete bracket table valid by construction, stored as given."""
        self = cls.__new__(cls)
        self.group, self.epsilon, self.field = group, epsilon, epsilon.field
        self.basis, self._table = basis, table
        self._generators = None
        return self

    @property
    def constants(self):
        """The nonzero brackets, (i, j) -> {k: coefficient}."""
        return {ij: dict(row) for ij, row in self._table.items() if row}

    # -- construction helpers -------------------------------------------------

    def _scalar(self, c):
        from .cyclotomic import CycloNum

        if isinstance(c, CycloNum):
            if c.field is not self.field:
                raise InvalidInput("constant from a different field")
            return c
        return self.field.from_rational(c)

    def _complete(self, table):
        """The supplied pairs in lexicographic order (so _validate reports
        the first one that breaks the grading), then every missing (i, j):
        -eps(deg_i, deg_j) times a supplied (j, i), or {}."""
        n = len(self.basis)
        full = dict(sorted(table.items()))
        for i in range(n):
            for j in range(n):
                if (i, j) in full:
                    continue
                if (j, i) in table:
                    # [[x_i, x_j]] = -eps(deg_i, deg_j) [[x_j, x_i]]
                    sign = -self.epsilon.eval(self.basis[i][1], self.basis[j][1])
                    full[(i, j)] = {k: sign * c for k, c in table[(j, i)].items()}
                else:
                    full[(i, j)] = {}
        return full

    def dim(self):
        return len(self.basis)

    def degree(self, i):
        return self.basis[i][1]

    def bracket_basis(self, i, j):
        """Coefficient dict of [[x_i, x_j]] over the basis."""
        return self._table[(i, j)]

    # -- validation -----------------------------------------------------------

    def _validate(self):
        n = len(self.basis)
        eps = self.epsilon
        zero = self.field.zero
        for (i, j), row in self._table.items():
            want = self.group.add(self.basis[i][1], self.basis[j][1])
            for k in row:
                if self.basis[k][1] != want:
                    raise AlgebraValidationError(
                        "grading",
                        (i, j, k),
                        f"bracket ({i},{j}) hits basis {k} outside degree {want}",
                    )
        for i in range(n):
            for j in range(n):
                sign = -eps.eval(self.basis[i][1], self.basis[j][1])
                lhs = self._table[(i, j)]
                rhs = self._table[(j, i)]
                keys = set(lhs) | set(rhs)
                for k in keys:
                    if lhs.get(k, zero) != sign * rhs.get(k, zero):
                        raise AlgebraValidationError(
                            "antisymmetry",
                            (i, j),
                            f"[[x{i},x{j}]] != -eps [[x{j},x{i}]] at basis {k}",
                        )
        # eps-Jacobi as the representation identity of ad (module docstring)
        # imported here, not at the top: linalg brings in numpy, and loading
        # it before gmodule moves the peak RSS of every process by ~0.4 MiB
        from .linalg import representation_defect

        bad = representation_defect(self, self._adjoint(), n)
        if bad is not None:
            i, j, k = bad
            raise AlgebraValidationError(
                "jacobi", (i, j, k), f"eps-Jacobi fails on triple ({i},{j},{k})"
            )

    def _adjoint(self):
        """The matrices ad(x_i), sparse rows: column k of ad(x_i) is [[x_i, x_k]]."""
        n = len(self.basis)
        ad = [[{} for _ in range(n)] for _ in range(n)]
        for (i, k), row in self._table.items():
            for u, c in row.items():
                ad[i][u][k] = c
        return ad

    # -- generators -------------------------------------------------------------

    @property
    def generators(self):
        """Basis indices that generate the algebra as a Lie colour algebra,
        found on first use and kept: in basis order, an index is dropped
        whenever the subalgebra that the other kept indices generate is
        still the whole algebra.

        The subalgebra generated by basis elements x_t, t in T, is L, their
        span closed under every ad(x_t): the homogeneous u with ad(u) L in L
        include the x_t and are closed under the bracket, as
        ad([[u, v]]) = ad(u) ad(v) - eps ad(v) ad(u), so they include the
        iterated brackets of the x_t, which span L; so [[L, L]] is in L.

        In a module rho([[s, t]]) = rho(s) rho(t) - eps rho(t) rho(s), so
        rho of the generators generates the same unital associative algebra
        as rho of the whole basis (see the modp docstring)."""
        if self._generators is None:
            # imported here for the reason _validate gives
            from .linalg import RowBasis, mat_vec

            n = len(self.basis)
            ad = self._adjoint()

            def generated(idx):
                def images(v):
                    return (mat_vec(ad[t], v) for t in idx)

                units = [{t: self.field.one} for t in idx]
                return RowBasis(self.field, n).close(units, images).rank

            kept = list(range(n))
            for i in range(n):
                rest = [t for t in kept if t != i]
                if generated(rest) == n:
                    kept = rest
            self._generators = tuple(kept)
        return self._generators

    # -- algebra operations -----------------------------------------------------

    def bracket(self, x, y):
        """Bracket of two coefficient vectors over the basis."""
        n = len(self.basis)
        if len(x) != n or len(y) != n:
            raise InvalidInput("coefficient vector has wrong length")
        out = [self.field.zero] * n
        for i, xi in enumerate(x):
            xi = self._scalar(xi)
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                yj = self._scalar(yj)
                if yj.is_zero():
                    continue
                for k, c in self._table[(i, j)].items():
                    out[k] = out[k] + xi * yj * c
        return out

    def basis_element(self, i):
        v = [self.field.zero] * len(self.basis)
        v[i] = self.field.one
        return v

    def to_json(self):
        brackets = []
        for (i, j), row in sorted(self._table.items()):
            if not row or i > j:
                continue
            brackets.append(
                {
                    "i": i,
                    "j": j,
                    "coeffs": {str(k): c.to_json() for k, c in sorted(row.items())},
                }
            )
        return {
            "group": self.group.to_json(),
            "epsilon": self.epsilon.to_json(),
            "basis": [{"name": n, "degree": list(d)} for n, d in self.basis],
            "brackets": brackets,
        }

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ColourAlgebra):
            return NotImplemented
        # both tables are complete and store no zero: the constructor drops
        # zeros, and _complete and discolour scale by roots of unity
        return (
            self.group == other.group
            and self.epsilon == other.epsilon
            and self.basis == other.basis
            and self._table == other._table
        )

    def __repr__(self):
        return f"ColourAlgebra(dim={len(self.basis)}, group={self.group})"


def make_algebra(group, epsilon, basis, constants) -> ColourAlgebra:
    return ColourAlgebra(group, epsilon, basis, constants)


def bracket(algebra, x, y):
    return algebra.bracket(x, y)


def discolour(algebra, sigma) -> ColourAlgebra:
    """Deform all brackets by sigma and twist the commutation factor:
    [[x,y]]_s = sigma(a,b) [[x,y]], eps_s(a,b) = sigma(a,b)/sigma(b,a) eps(a,b).

    Valid by construction, so not revalidated (Scheunert 1979): sigma is a
    bicharacter, so eps_s(a,b) eps_s(b,a) = eps(a,b) eps(b,a) = 1,
    eps_s(a,a) = eps(a,a), order compatibility is inherited (so the
    CommutationFactor that twisted_factor builds always passes its check),
    and the bracket keeps its grading, eps_s-antisymmetry and
    eps_s-Jacobi: each eps_s-Jacobi term is the eps one times sigma(a,b)
    sigma(b,c) sigma(c,a).
    """
    if sigma.group != algebra.group or sigma.field is not algebra.field:
        raise InvalidInput("multiplier lives on different data")
    new_eps = twisted_factor(algebra.epsilon, sigma)
    table = {}
    for (i, j), row in algebra._table.items():
        s = sigma.eval(algebra.degree(i), algebra.degree(j))
        table[(i, j)] = {k: s * c for k, c in row.items()}
    return ColourAlgebra._derived(algebra.group, new_eps, algebra.basis, table)


def recolour(algebra, sigma) -> ColourAlgebra:
    return discolour(algebra, multiplier_inverse(sigma))


def is_superalgebra(algebra) -> bool:
    """True iff eps is exactly the super sign (-1)^{p(a) p(b)} of its own
    parity split.  Both are bicharacters (a -> eps(a, a) is a character, as
    eps(a, b) eps(b, a) = 1), so the generator pairs decide, as they do in
    CommutationFactor._validate."""
    e, half = algebra.epsilon.exponents, algebra.field.m // 2
    return all(
        row[j] == (half if row[i] and e[j][j] else 0)
        for i, row in enumerate(e)
        for j in range(len(e))
    )
