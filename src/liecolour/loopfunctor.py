"""The loop construction and the lift from coarse to fine gradings.

Given V graded by Gamma/H and K <= H with H/K of prime order, the loop
module lives inside V (x) F[Gamma]: the sector at a coset c of K is
V_{pi(c)} (x) e_c, and an element of degree a sends v (x) e_c to
(a.v) (x) e_{a+c}.  Exactly one of the following holds for irreducible V:
the loop is graded irreducible (then V admits no finer grading), or it is
reducible and any proper graded irreducible submodule is a regrading of V.
That dichotomy decides the lift step; walking a composition series of
Gamma lifts an ungraded irreducible all the way to a Gamma-graded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import linalg
from .abelian import _prime_factors, jordan_holder, quotient, twist_reps
from .errors import InconclusiveIrreducibility, InvalidInput, InvalidSubgroupStep
from .gmodule import (
    GradedModule,
    _shrink_and_restrict,
    is_graded_irreducible,
    iso_labels,
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
    """The e-label relabelling showing loop^{+h} = loop for h in H."""
    f = loopmod.module.field
    g = loopmod.module.algebra.group
    quo = loopmod.module.quo
    mat = linalg.zeros(loopmod.dim)
    for col, (i, rep) in enumerate(loopmod.bookkeeping):
        mat[loopmod.index_of(i, quo.add(rep, g.reduce(h)))][col] = f.one
    return mat


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
    """bijection_F on a module already certified graded irreducible."""
    lm = loop(module, refiner)
    verdict = is_graded_irreducible(lm.module)
    if verdict.irreducible:
        return BijectionOutcome(
            gradable=False, module=lm.module, loop=lm, source=module
        )
    _, restricted, rows = _shrink_and_restrict(verdict.witness)
    if restricted.dim != module.dim:
        raise InconclusiveIrreducibility(
            "proper graded submodule of the loop is not a copy of the source"
        )
    # the forgetful map restricted to an irreducible proper submodule is an
    # isomorphism onto the source, so the embedding matrix must be square
    # and invertible; this is asserted rather than assumed
    if not linalg.is_invertible(module.field, _forget_labels(lm, rows)):
        raise InconclusiveIrreducibility("loop bookkeeping did not invert")
    return BijectionOutcome(gradable=True, module=restricted, loop=lm, source=module)


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
    report.classes = iso_classes_of_module(current)
    return report


def _first_of_each_class(modules):
    labels = iso_labels(modules)
    return [m for i, m in enumerate(modules) if labels[i] == i]


def twist_orbit(module):
    """Twists of the module by coset representatives of H-perp, deduplicated."""
    g = module.algebra.group
    return _first_of_each_class([twist(module, ch) for ch in twist_reps(g, module.hsub)])


def iso_classes_of_module(module):
    """Parity shifts over Gamma (mod the grading kernel), up to isomorphism."""
    classes = _first_of_each_class([parity_shift(module, rep) for rep in module.quo.coset_reps])
    # the candidates share their action matrices, so sector dimensions are
    # the whole sort key (the sort is stable)
    classes.sort(key=lambda m: m.sector_dims())
    return classes


def iso_classes(module):
    """All isomorphism classes inside the equivalence class of a module."""
    return iso_classes_of_module(module)
