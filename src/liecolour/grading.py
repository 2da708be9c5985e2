"""Commutation factors, multipliers and the parity machinery.

A commutation factor eps on a finite abelian group controls the sign/phase
in every bracket; a multiplier sigma deforms brackets and is how a colour
algebra is turned into (or recovered from) a graded Lie superalgebra.  Both
are stored by a generator exponent matrix and extended bimultiplicatively,
which is exactly the class needed for the discolouring construction on
finite abelian groups.
"""

from __future__ import annotations

from . import cyclotomic
from .errors import InvalidCommutationFactor, InvalidInput, InvalidMultiplier


def default_field(group):
    """One field per computation: m = lcm(group exponent, 4), so i exists."""
    import math

    return cyclotomic.field(math.lcm(group.exponent, 4))


class _Bimultiplicative:
    """Shared storage/evaluation for generator-exponent maps G x G -> mu_m."""

    __slots__ = ("group", "field", "exponents")

    def __init__(self, group, f, exponents):
        k = group.rank
        exponents = tuple(tuple(int(e) % f.m for e in row) for row in exponents)
        if len(exponents) != k or any(len(r) != k for r in exponents):
            raise InvalidInput(f"exponent matrix must be {k}x{k}")
        self.group = group
        self.field = f
        self.exponents = exponents

    def exponent(self, a, b):
        """The e in 0..m-1 with eval(a, b) = zeta_m^e; the orders are
        compatible, so any representatives of a and b give the same e."""
        e = 0
        for i, ai in enumerate(a):
            if ai:
                row = self.exponents[i]
                for j, bj in enumerate(b):
                    if bj:
                        e += ai * bj * row[j]
        return e % self.field.m

    def eval(self, a, b):
        return self.field.zeta(self.exponent(self.group.reduce(a), self.group.reduce(b)))

    def _check_orders(self, err):
        m = self.field.m
        for i, ni in enumerate(self.group.orders):
            for j, nj in enumerate(self.group.orders):
                e = self.exponents[i][j]
                if (ni * e) % m or (nj * e) % m:
                    raise err(
                        f"generator value at ({i},{j}) is not compatible with cyclic orders",
                        pair=(i, j),
                    )

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "m": self.field.m,
            "exponents": [list(r) for r in self.exponents],
        }

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.group == other.group
            and self.field is other.field
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((type(self).__name__, self.group.orders, self.field.m, self.exponents))


class CommutationFactor(_Bimultiplicative):
    """eps: G x G -> roots of unity with eps(a,b) eps(b,a) = 1."""

    def __init__(self, group, f, exponents):
        super().__init__(group, f, exponents)
        self._validate()

    def _validate(self):
        """eps(a, a) = +-1 and eps(a, b) eps(b, a) = 1 for all a, b.

        By bimultiplicativity eps(a, b) eps(b, a) = zeta^S(a, b) for the
        bilinear form S with generator values e_ij + e_ji, so the second
        condition holds iff e_ij + e_ji = 0 (mod m) for every generator pair;
        with b = a it gives eps(a, a)^2 = 1, the first.  Only a factor that
        fails runs the loop over all pairs, to name the first failing pair."""
        self._check_orders(InvalidCommutationFactor)
        m, e = self.field.m, self.exponents
        if all((row[j] + e[j][i]) % m == 0 for i, row in enumerate(e) for j in range(len(e))):
            return
        one = self.field.one
        for a in self.group.elements():
            v = self.eval(a, a)
            if v != one and v != -one:
                raise InvalidCommutationFactor(
                    f"eps({a},{a}) = {v!r} is not +-1", pair=(a, a)
                )
            for b in self.group.elements():
                if self.eval(a, b) * self.eval(b, a) != one:
                    raise InvalidCommutationFactor(
                        f"eps({a},{b}) * eps({b},{a}) != 1", pair=(a, b)
                    )

    def parity(self, a):
        return 0 if self.eval(a, a) == self.field.one else 1


class Multiplier(_Bimultiplicative):
    """Bimultiplicative 2-cocycle sigma used to twist brackets."""

    def __init__(self, group, f, exponents):
        super().__init__(group, f, exponents)
        self._check_orders(InvalidMultiplier)

    def __mul__(self, other):
        if self.group != other.group or self.field is not other.field:
            raise InvalidInput("multipliers live on different data")
        exps = [
            [(a + b) % self.field.m for a, b in zip(ra, rb)]
            for ra, rb in zip(self.exponents, other.exponents)
        ]
        return Multiplier(self.group, self.field, exps)


def make_commutation_factor(group, f, exponents) -> CommutationFactor:
    return CommutationFactor(group, f, exponents)


def eps_eval(eps, a, b):
    return eps.eval(a, b)


class ParitySplit:
    """G = G0 u G1 split off the diagonal of a commutation factor."""

    __slots__ = ("gamma0", "gamma1")

    def __init__(self, gamma0, gamma1):
        self.gamma0 = tuple(sorted(gamma0))
        self.gamma1 = tuple(sorted(gamma1))

    def parity(self, a):
        return 0 if a in set(self.gamma0) else 1


def parity_split(eps) -> ParitySplit:
    g0, g1 = [], []
    for a in eps.group.elements():
        (g0 if eps.parity(a) == 0 else g1).append(a)
    return ParitySplit(g0, g1)


def scheunert_multiplier(eps) -> Multiplier:
    """A multiplier sigma that discolours eps to the plain super sign.

    Target identity: sigma(a,b) sigma(b,a)^-1 eps(a,b) = (-1)^{p(a) p(b)}.
    Writing eps'(a,b) for the needed skew ratio, setting sigma = eps' above
    the diagonal and 1 elsewhere on generators does the job (Scheunert
    1979): both sides are bicharacters, so the identity holds on all of G
    once it holds on generator pairs, which it does by construction.
    """
    group, f = eps.group, eps.field
    m = f.m
    gens = group.generators()
    k = len(gens)
    half = m // 2  # exponent of -1; an odd generator has eps(g, g) = -1, so m is even
    exps = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            e = (-eps.exponent(gens[i], gens[j])) % m
            if eps.parity(gens[i]) and eps.parity(gens[j]):
                e = (e + half) % m
            exps[i][j] = e
    return Multiplier(group, f, exps)


def twisted_factor(eps, sigma) -> CommutationFactor:
    """eps_sigma(a,b) = sigma(a,b) sigma(b,a)^-1 eps(a,b), a commutation
    factor whenever eps is one (see colouralg.discolour)."""
    if sigma.group != eps.group or sigma.field is not eps.field:
        raise InvalidInput("multiplier lives on different data")
    m = eps.field.m
    exps = [
        [
            (eps.exponents[i][j] + sigma.exponents[i][j] - sigma.exponents[j][i]) % m
            for j in range(eps.group.rank)
        ]
        for i in range(eps.group.rank)
    ]
    return CommutationFactor(eps.group, eps.field, exps)


def multiplier_inverse(sigma) -> Multiplier:
    m = sigma.field.m
    exps = [[(-e) % m for e in row] for row in sigma.exponents]
    return Multiplier(sigma.group, sigma.field, exps)


def trivial_multiplier(group, f) -> Multiplier:
    k = group.rank
    return Multiplier(group, f, [[0] * k for _ in range(k)])

