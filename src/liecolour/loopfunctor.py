"""The loop construction and the lift from coarse to fine gradings.

Given V graded by Gamma/H and K <= H with H/K of prime order p, the loop
module L lives inside V (x) F[Gamma/K]: the sector at a coset c of K is
V_{pi(c)} (x) e_c, and an element of degree a sends v (x) e_c to
(a.v) (x) e_{a+c}.  Two maps come with it:

* the relabelling v (x) e_c -> v (x) e_{c-h}, for h in H, a degree-0
  isomorphism L -> L[h] onto the parity shift (shift_intertwiner);
* the forgetful map v (x) e_c -> v, which intertwines the actions and
  takes the degree c to pi(c), that of V graded by Gamma/H.

The lift step rests on the loop dichotomy of Mazorchuk and Zhao: for V
graded irreducible, either L is graded irreducible (then V admits no
Gamma/K-grading that coarsens to its own), or L is the direct sum of the p
parity shifts W[h], h in H/K, of one Gamma/K-regrading W of V.  The
projections onto those summands are p >= 2 independent degree-0 maps
commuting with the action, so L is graded irreducible exactly when its
degree-0 commutant End_0(L) is the scalars.  _lift_step decides the loop
of a graded-irreducible V by this, with a certificate for each verdict:

* irreducible: the closure dimension d^2.  It is certified mod p by
  modp.rank_one_certificate when a rank-one idempotent shows, and when
  none shows, by dim End_0(L) = 1: a Hom dimension is the same over every
  extension of Q(zeta_m), so over C, too, L is no sum of p summands and is
  graded irreducible; its Burnside algebra with the sector projections
  then acts irreducibly with commutant C, so by the density theorem it is
  all of End(L), of dimension d^2 over either field.  (When an idempotent
  shows but its spins mod p are proper, is_graded_irreducible's scan and
  exact closure answer, as for any module.);
* gradable: a proper graded submodule S of L, the one is_graded_irreducible's
  scan finds: the spin of the first unit vector whose spin is proper, else
  of a kernel vector of a non-scalar element of End_0(L) (such a kernel is
  a graded submodule).  When no idempotent shows, the unit vectors with a
  proper spin are read off End_0(L) (_loop_verdict), not spun mod p one by
  one.  S is restricted to a Gamma/K-graded module W, shrunk first when S
  is larger than V, and the forgetful map W -> V is checked exactly to be
  invertible.  It is then an isomorphism onto V graded by Gamma/H, and W
  is graded irreducible: a Gamma/K-graded submodule of W is
  Gamma/H-graded, so its image in V is 0 or V.

The shift classes of a module M graded by Gamma/K (iso_classes_of_module)
are the cosets of the stabilizer S = {h : M[h] ~ M}, a subgroup, since a
degree-0 isomorphism M[a] -> M[b] is one M -> M[b - a], the same matrix.
When the last step of iterate_lift was a loop, S contains the image of H,
certified by the relabelling, which is checked exactly to be an invertible
degree-0 intertwiner.  The twist classes (twist_orbit) are the cosets of
{chi : M^chi ~ M} alike; _classes_by_stabilizer finds both.  Walking a
composition series of Gamma lifts an ungraded irreducible all the way to a
Gamma-graded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain, compress
from typing import Optional

from . import linalg, modp
from .abelian import (
    Character,
    _prime_factors,
    jordan_holder,
    quotient,
    subgroup_from_generators,
    twist_quotient,
)
from .errors import InconclusiveIrreducibility, InvalidInput, InvalidSubgroupStep
from .gmodule import (
    GradedModule,
    IrreducibilityVerdict,
    _candidate_vectors,
    _commutant_kernel_vectors,
    _restricted,
    _searched_verdict,
    _sector_parts,
    _shrink_and_restrict,
    _unit_vectors,
    commutant,
    is_graded_irreducible,
    is_isomorphic,
    parity_shift,
    twist,
)


@dataclass
class LoopModule:
    """A loop module plus the bookkeeping tying it back to its source."""

    module: GradedModule
    source: GradedModule
    bookkeeping: tuple  # per basis vector: (source index, coset rep of K)

    @property
    def dim(self):
        return self.module.dim

    def index_of(self, source_index, coset_rep):
        for i, (si, rep) in enumerate(self.bookkeeping):
            if si == source_index and rep == coset_rep:
                return i
        raise InvalidInput(f"no loop basis vector ({source_index}, {coset_rep})")


def loop(module, refiner, sector_order=None) -> LoopModule:
    """Loop module of a Gamma/H-graded module along K <= H with H/K simple."""
    g = module.algebra.group
    hsub = module.hsub
    if not refiner.is_subset_of(hsub):
        raise InvalidSubgroupStep("refining subgroup must sit inside the grading subgroup")
    step = hsub.order() // refiner.order()
    if _prime_factors(step) != {step}:
        raise InvalidSubgroupStep(
            f"index {step} of the refining subgroup is not prime"
        )
    quo_fine = quotient(g, refiner)
    reps = list(quo_fine.coset_reps) if sector_order is None else [
        quo_fine.rep(r) for r in sector_order
    ]
    if sorted(reps) != sorted(quo_fine.coset_reps):
        raise InvalidInput("sector order must list every coset exactly once")
    coarse = module.quo
    sectors = module.sector_indices()
    bookkeeping = []
    degrees = []
    for rep in reps:
        for i in sectors[coarse.rep(rep)]:
            bookkeeping.append((i, rep))
            degrees.append(rep)
    position = {bk: t for t, bk in enumerate(bookkeeping)}
    mats = []
    for k, src in enumerate(module.action):
        minus_alpha = g.neg(module.algebra.degree(k))
        mat = []
        for j, rep in bookkeeping:
            # row (j, rep) is row j of the source, read at the labels rep - alpha
            at = quo_fine.add(rep, minus_alpha)
            mat.append({position[(i, at)]: x for i, x in src[j].items()})
        mats.append(mat)
    looped = GradedModule._derived(module.algebra, quo_fine, degrees, mats)
    return LoopModule(
        module=looped, source=module, bookkeeping=tuple(bookkeeping)
    )


def shift_intertwiner(loopmod, h):
    """The e-label relabelling v (x) e_c -> v (x) e_{c-h}, a permutation
    matrix that is a degree-0 isomorphism loop -> parity_shift(loop, h) for
    h in H: it commutes with the action, which moves every label alike, and
    takes degree c to c - h, the degree of v (x) e_{c-h} shifted by h."""
    f = loopmod.module.field
    g = loopmod.module.algebra.group
    quo = loopmod.module.quo
    position = {bk: t for t, bk in enumerate(loopmod.bookkeeping)}
    mat = linalg.zeros(loopmod.dim)
    for col, (i, rep) in enumerate(loopmod.bookkeeping):
        mat[position[(i, quo.add(rep, g.neg(h)))]][col] = f.one
    return mat


def _is_isomorphism(V, W, mat):
    """True if mat is an invertible degree-0 map V -> W that intertwines
    generator_action, and with it the whole action; every check is exact."""
    return (
        all(W.degrees[r] == V.degrees[c] for r, row in enumerate(mat) for c in row)
        and all(linalg.mat_mul(mat, a) == linalg.mat_mul(b, mat)
                for a, b in zip(V.generator_action, W.generator_action))
        and linalg.is_invertible(V.field, mat)
    )


def _loop_shifts(loopmod):
    """Elements of the loop's stabilizer {h : loop[h] ~ loop} that the
    relabelling certifies: the image of one h in H but not in K, which
    generates H/K (of prime order), if shift_intertwiner(loopmod, h) checks
    as an isomorphism; otherwise none."""
    L = loopmod.module
    h = next(h for h in loopmod.source.hsub.elements if not L.hsub.contains(h))
    if _is_isomorphism(L, parity_shift(L, h), shift_intertwiner(loopmod, h)):
        return [L.quo.rep(h)]
    return []


@dataclass
class BijectionOutcome:
    """Result of one lift step: a finer grading of V, or its loop module."""

    gradable: bool
    module: GradedModule  # the representative, graded by Gamma/K
    loop: LoopModule
    source: GradedModule

    def to_json(self):
        return {
            "outcome": "gradable" if self.gradable else "loop",
            "dim": self.module.dim,
            "sector_dims": self.module.sector_dims(),
        }


def _forget_labels(loopmod, rows):
    """Apply v (x) e_c -> v to submodule rows; columns of the result express
    the submodule basis inside the source module."""
    V = loopmod.source
    forget = [{i: V.field.one} for i, _ in loopmod.bookkeeping]
    return linalg.transpose(linalg.mat_mul(rows, forget), V.dim)


def bijection_F(module, refiner) -> BijectionOutcome:
    """Decide gradability of an irreducible module along one simple step.

    The loop along the refining subgroup is tested for graded
    irreducibility; a proper graded submodule, shrunk to an irreducible
    one, is a regrading of the input and becomes the Gradable output.
    """
    if not is_graded_irreducible(module).irreducible:
        raise InvalidInput("bijection input must be graded irreducible")
    return _lift_step(module, refiner)


def _lift_step(module, refiner) -> BijectionOutcome:
    """bijection_F on a module already certified graded irreducible: the
    loop is decided by the dichotomy (see the module docstring)."""
    lm = loop(module, refiner)
    verdict = _loop_verdict(lm.module)
    if verdict.irreducible:
        return BijectionOutcome(
            gradable=False, module=lm.module, loop=lm, source=module
        )
    # the witness is a spin, invariant by construction: restricted unchecked
    sub = verdict.witness
    if sub.dim > module.dim:
        sub, restricted = _shrink_and_restrict(sub)
    else:
        restricted = _restricted(sub)
    if restricted.dim != module.dim:
        raise InconclusiveIrreducibility(
            "proper graded submodule of the loop is not a copy of the source"
        )
    # the forgetful map is an isomorphism onto the source exactly when this
    # square matrix is invertible; that carries the source's graded
    # irreducibility over to the restriction, and is asserted, not assumed
    if not linalg.is_invertible(module.field, _forget_labels(lm, sub.rows)):
        raise InconclusiveIrreducibility("loop bookkeeping did not invert")
    return BijectionOutcome(gradable=True, module=restricted, loop=lm, source=module)


def _loop_verdict(L):
    """is_graded_irreducible's verdict on the loop L of a graded-irreducible
    module, by the dichotomy (see the module docstring).  The rank-one
    certificate mod p answers when it holds.  When a rank-one idempotent
    shows but a spin of its unit vector mod p is proper,
    is_graded_irreducible's scan runs as it is.  When none shows,
    dim End_0(L) = 1 decides, and otherwise the unit vectors with a proper
    spin are read off the commutant.  By the dichotomy a reducible L is,
    over C, a sum of absolutely graded-irreducible summands, so by density
    its Burnside algebra A is End_{End_0(L)}(L), and A e = L exactly when
    End_0(L) e has dimension dim End_0(L) (a summand type of multiplicity k
    takes rank k from e's components); both are ranks, the same over
    Q(zeta_m).  Those unit vectors are spun first, then the commutant's
    kernel vectors, then the other unit vectors: the scan's order, so the
    witness is the one the scan finds, without a spin mod p of each unit
    vector.  If no candidate splits, the exact closure answers, as there."""
    d, f = L.dim, L.field
    parts = _sector_parts(L)
    answer = modp.rank_one_certificate(f, L.fp_view, parts)
    if answer:
        return IrreducibilityVerdict(True, closure_dim=d * d)
    if answer is False:
        end = []
        return _searched_verdict(L, parts, _candidate_vectors(L, end), end)
    end = commutant(L)
    if len(end) == 1:
        return IrreducibilityVerdict(True, closure_dim=d * d)
    cols = [linalg.transpose(M, d) for M in end]
    short = [linalg.row_span(f, [c[i] for c in cols], d).rank < len(end) for i in range(d)]
    units = list(_unit_vectors(L))
    candidates = chain(compress(units, short), _commutant_kernel_vectors(L, end),
                       compress(units, [not s for s in short]))
    return _searched_verdict(L, parts, candidates, end)


@dataclass
class LiftReport:
    chain: object  # CompositionSeries
    steps: list = dc_field(default_factory=list)  # one BijectionOutcome per link
    final: Optional[GradedModule] = None
    classes: list = dc_field(default_factory=list)

    def to_json(self):
        return {
            "chain": [
                [list(g) for g in sub.generators] for sub in self.chain.chain
            ],
            "steps": [s.to_json() for s in self.steps],
            "classes": [
                {"dim": m.dim, "sector_dims": m.sector_dims()} for m in self.classes
            ],
        }


def iterate_lift(module) -> LiftReport:
    """Walk the composition series from the ungraded end up to Gamma.

    The input must be an ungraded irreducible module (H = Gamma); each step
    applies the loop dichotomy along one prime-order link of the chain.
    The input is certified irreducible once, by bijection_F at the first
    step; every later step starts from the module the step before
    certified (the irreducible loop or the shrunk restriction), so it is
    not checked again.  Each step's outcome is its record in the report.
    """
    if not module.is_ungraded():
        raise InvalidInput("iterate_lift starts from an ungraded module")
    series = jordan_holder(module.algebra.group)
    report = LiftReport(chain=series)
    current = module
    for k, sub in enumerate(series.chain[1:]):
        outcome = (bijection_F if k == 0 else _lift_step)(current, sub)
        current = outcome.module
        report.steps.append(outcome)
    report.final = current
    last = report.steps[-1] if report.steps else None
    shifts = _loop_shifts(last.loop) if last is not None and not last.gradable else []
    report.classes = iso_classes_of_module(current, shifts)
    return report


def twist_orbit(module):
    """Twists of the module by coset representatives of H-perp (twist_reps),
    up to isomorphism: the first of each class, in that order."""
    g = module.algebra.group
    return _classes_by_stabilizer(
        module, twist_quotient(g, module.hsub), lambda e: twist(module, Character(g, e)))


def _generated(quo, elements):
    """The coset reps of the subgroup of quo = G / N that `elements` generate."""
    sub = subgroup_from_generators(quo.parent, [*quo.subgroup.generators, *elements])
    return {quo.rep(e) for e in sub.elements}


def _classes_by_stabilizer(module, quo, act, stabilizer=()):
    """The modules act(h), h in quo.coset_reps, up to isomorphism: the first
    of each class, in coset order, for an action `act` of quo on modules
    that preserves isomorphism, with act(0) ~ module.  act(a) ~ act(b)
    exactly when act(b - a) ~ module, so the classes are the cosets of the
    stabilizer S = {h : act(h) ~ module}.  `stabilizer` lists elements of S
    already certified; is_isomorphic decides each other h in no coset
    settled so far, S is closed under addition at each member found, and
    each h outside S rules out h + S."""
    inside, outside = _generated(quo, stabilizer), set()
    for h in quo.coset_reps:
        if h in inside or h in outside:
            continue
        if is_isomorphic(act(h), module):
            inside = _generated(quo, [*inside, h])
        else:
            outside.add(h)
        outside = {quo.add(o, s) for o in outside for s in inside}
    classes, seen = [], set()
    for h in quo.coset_reps:
        if h not in seen:
            seen.update(quo.add(h, s) for s in inside)
            classes.append(act(h))
    return classes


def iso_classes_of_module(module, stabilizer=()):
    """Parity shifts over Gamma (mod the grading kernel), up to isomorphism
    (_classes_by_stabilizer, with the elements of {h : M[h] ~ M} that
    `stabilizer` certifies), sorted by sector dimensions."""
    classes = _classes_by_stabilizer(
        module, module.quo, lambda h: parity_shift(module, h), stabilizer)
    # the candidates share their action matrices, so sector dimensions are
    # the whole sort key (the sort is stable)
    classes.sort(key=lambda m: m.sector_dims())
    return classes


def iso_classes(module):
    """All isomorphism classes inside the equivalence class of a module."""
    return iso_classes_of_module(module)
