"""Finite abelian groups given as explicit products of cyclic factors.

All grading groups in this package are small (JSON files are capped at
|G| <= jsonio.MAX_GROUP_ORDER = 256), so subgroups are stored as explicit
element sets and every structural question (closure, cosets, characters,
composition series) is answered by enumeration.
Elements are plain tuples of residues.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import reduce

from . import cyclotomic
from .errors import InvalidInput


class AbelianGroup:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_k}, each n_i >= 2."""

    __slots__ = ("orders", "exponent")

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if not orders or any(n < 2 for n in orders):
            raise InvalidInput("cyclic factor orders must all be >= 2")
        self.orders = orders
        self.exponent = reduce(math.lcm, orders)

    @property
    def rank(self):
        return len(self.orders)

    def order(self):
        return math.prod(self.orders)

    def zero(self):
        return (0,) * len(self.orders)

    def elements(self):
        return [t for t in itertools.product(*(range(n) for n in self.orders))]

    def reduce(self, t):
        if len(t) != len(self.orders):
            raise InvalidInput("element has wrong number of components")
        return tuple(int(x) % n for x, n in zip(t, self.orders))

    def contains(self, t):
        return len(t) == len(self.orders) and all(
            0 <= x < n for x, n in zip(t, self.orders)
        )

    def add(self, a, b):
        if len(a) != len(self.orders) or len(b) != len(self.orders):
            raise InvalidInput("element has wrong number of components")
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a):
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def generators(self):
        k = len(self.orders)
        return [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]

    def to_json(self):
        return {"orders": list(self.orders)}

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(("AbelianGroup", self.orders))

    def __repr__(self):
        return " x ".join(f"Z{n}" for n in self.orders)


def make_group(orders) -> AbelianGroup:
    return AbelianGroup(orders)


def element_add(group, a, b):
    return group.add(a, b)


class Subgroup:
    """Explicit subgroup: parent group, sorted element tuple, generators."""

    __slots__ = ("parent", "elements", "generators")

    def __init__(self, parent, elements, generators=None):
        self.parent = parent
        self.elements = tuple(sorted(set(elements)))
        self.generators = tuple(generators) if generators is not None else self.elements
        zero = parent.zero()
        elems = set(self.elements)
        if zero not in elems:
            raise InvalidInput("subgroup must contain the identity")
        for a in elems:
            if not parent.contains(a):
                raise InvalidInput(f"{a} is not an element of {parent}")
            if parent.neg(a) not in elems:
                raise InvalidInput(f"subgroup not closed under negation at {a}")
            for b in elems:
                if parent.add(a, b) not in elems:
                    raise InvalidInput(f"subgroup not closed under addition at {a}+{b}")
        if parent.order() % len(elems):
            raise InvalidInput("subgroup cardinality must divide the group order")

    def order(self):
        return len(self.elements)

    def contains(self, a):
        return a in set(self.elements)

    def is_subset_of(self, other):
        return set(self.elements) <= set(other.elements)

    def to_json(self):
        return {"generators": [list(g) for g in self.generators]}

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash(("Subgroup", self.parent.orders, self.elements))

    def __repr__(self):
        return f"Subgroup({list(self.elements)})"


def subgroup_from_generators(group, gens) -> Subgroup:
    """Smallest subgroup containing gens, by closure enumeration."""
    gens = [group.reduce(g) for g in gens]
    elems = {group.zero()}
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                s = group.add(a, g)
                if s not in elems:
                    elems.add(s)
                    nxt.append(s)
        frontier = nxt
    return Subgroup(group, elems, generators=gens)


def trivial_subgroup(group) -> Subgroup:
    return subgroup_from_generators(group, [])


def full_subgroup(group) -> Subgroup:
    return subgroup_from_generators(group, group.generators())


class QuotientGroup:
    """G/H with one canonical (lexicographically smallest) rep per coset."""

    __slots__ = ("parent", "subgroup", "coset_reps", "_rep_of")

    def __init__(self, parent, subgroup):
        if subgroup.parent != parent:
            raise InvalidInput("subgroup belongs to a different group")
        self.parent = parent
        self.subgroup = subgroup
        rep_of = {}
        reps = []
        for g in parent.elements():
            if g in rep_of:
                continue
            coset = sorted(parent.add(g, h) for h in subgroup.elements)
            rep = coset[0]
            reps.append(rep)
            for c in coset:
                rep_of[c] = rep
        self.coset_reps = tuple(sorted(reps))
        self._rep_of = rep_of

    def order(self):
        return len(self.coset_reps)

    def rep(self, g):
        """Canonical representative of the coset g + H."""
        return self._rep_of[self.parent.reduce(g)]

    def add(self, a, b):
        return self.rep(self.parent.add(a, b))

    def zero(self):
        return self.rep(self.parent.zero())

    def __eq__(self, other):
        return (
            isinstance(other, QuotientGroup)
            and self.parent == other.parent
            and self.subgroup == other.subgroup
        )

    def __hash__(self):
        return hash(("Quotient", self.parent.orders, self.subgroup.elements))

    def __repr__(self):
        return f"{self.parent}/{self.subgroup!r}"


def quotient(group, subgroup) -> QuotientGroup:
    return QuotientGroup(group, subgroup)


@dataclass(frozen=True)
class CompositionSeries:
    """Descending chain G = N_0 > N_1 > ... > {0} with prime-order quotients."""

    group: AbelianGroup
    chain: tuple = dc_field(default=())

    def quotient_orders(self):
        return [
            self.chain[i].order() // self.chain[i + 1].order()
            for i in range(len(self.chain) - 1)
        ]


def jordan_holder(group) -> CompositionSeries:
    """Deterministic composition series of a finite abelian group.

    At each step the largest remaining prime is peeled from the first
    cyclic factor it divides, so the chain (and every lift that walks it)
    is reproducible.
    """
    orders = list(group.orders)
    chain = [full_subgroup(group)]
    current = list(orders)  # current[i] = order of the i-th factor inside N_j
    while any(d > 1 for d in current):
        total = math.prod(current)
        p = max(_prime_factors(total))
        idx = next(i for i, d in enumerate(current) if d % p == 0)
        current[idx] //= p
        gens = [
            tuple((orders[i] // current[i]) if j == i and current[i] > 1 else 0 for j in range(len(orders)))
            for i in range(len(orders))
            if current[i] > 1
        ]
        chain.append(subgroup_from_generators(group, gens))
    return CompositionSeries(group, tuple(chain))


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


class Character:
    """Homomorphism G -> roots of unity, stored by exponent tuple.

    The value at gamma is zeta_m^{sum_i a_i gamma_i (m / n_i)} for any field
    order m divisible by the group exponent.
    """

    __slots__ = ("group", "exponents")

    def __init__(self, group, exponents):
        self.group = group
        self.exponents = group.reduce(exponents)

    def eval(self, gamma, f):
        return cyclotomic.char_eval(self, self.group.reduce(gamma), f)

    def is_trivial(self):
        return not any(self.exponents)

    def __mul__(self, other):
        if self.group != other.group:
            raise InvalidInput("characters on different groups")
        return Character(self.group, self.group.add(self.exponents, other.exponents))

    def inverse(self):
        return Character(self.group, self.group.neg(self.exponents))

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group == other.group
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash(("Character", self.group.orders, self.exponents))

    def __repr__(self):
        return f"Character{self.exponents}"


def dual_group(group) -> AbelianGroup:
    """The character group, canonically another product of the same cyclic orders."""
    return AbelianGroup(group.orders)


def dual_characters(group):
    """All |G| characters, indexed by exponent tuples in lexicographic order."""
    return [Character(group, e) for e in group.elements()]


def h_perp(group, subgroup) -> Subgroup:
    """Characters trivial on H, as a subgroup of the dual group."""
    if subgroup.parent != group:
        raise InvalidInput("subgroup belongs to a different group")
    f = cyclotomic.field(group.exponent)
    one = f.one
    members = []
    for ch in dual_characters(group):
        if all(ch.eval(h, f) == one for h in subgroup.elements):
            members.append(ch.exponents)
    return Subgroup(dual_group(group), members)


def twist_reps(group, subgroup):
    """One character per coset of H-perp in the dual group; |reps| = |H|.

    Representatives are the lexicographically smallest exponent tuples, so
    the trivial character always comes first.
    """
    return [Character(group, rep) for rep in twist_quotient(group, subgroup).coset_reps]


def twist_quotient(group, subgroup) -> QuotientGroup:
    """The dual group modulo H-perp, whose cosets index the twists of a
    module graded by G/H up to isomorphism."""
    return quotient(dual_group(group), h_perp(group, subgroup))
