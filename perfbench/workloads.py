"""The three workloads and the pinned answers every verdict is checked against.

Each workload calls the library through public entry points and records one
`Op` per verdict.  Expected answers come from the mathematics, not from the
library's own output (see README.md, "Pinned answers"):

* even lambda: 4 graded classes of dimension lambda+1, 1 ungraded class;
* odd lambda: 1 graded class of dimension 2(lambda+1), with loopE ~ loopO
  noted, and 4 ungraded classes (the library's expected table says 2 graded
  classes; that table is wrong, so its "2" is not pinned here);
* a loop along a prime-order step p splits into p summands, each graded
  irreducible, each a parity shift of the first and, coarsened back, a
  character twist of the source;
* a conjugate P rho P^-1 is isomorphic to its original, U++ is not
  isomorphic to U+-, and U (+) U is reducible and isomorphic to its
  conjugate.

Some operations on U (+) U are a registered known defect (the isomorphism
test's moment-curve step, and the witness search on dense inputs).  Every
operation of a measured workload must succeed, so they are kept apart in
DEFECTS: `run.py --defects` runs them and reports whether they still fail
only in the registered way.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

from inputs import CATALOG, DENSE, DOUBLES


@dataclass
class Op:
    name: str
    ok: bool
    observed: str
    defect: bool = False  # failed in the registered known-defect way

    def to_json(self):
        return {"op": self.name, "ok": self.ok, "observed": self.observed, "defect": self.defect}


class Ledger:
    """The verdicts of one repetition; `on_verdict` is called after each."""

    def __init__(self, on_verdict=lambda: None):
        self.ops = []
        self.on_verdict = on_verdict

    def record(self, name, ok, observed, defect=False):
        self.ops.append(Op(name, bool(ok), str(observed)[:200], bool(defect and not ok)))
        self.on_verdict()

    def failed(self):
        return [op for op in self.ops if not op.ok]


# -- classification -----------------------------------------------------------

_TABLE_NOTE = "graded class count 1 != 2"  # the library's expected-table defect
_ISO_NOTE = "note: loopE and loopO are isomorphic"


def _check_row(ledger, lam, row):
    even = lam % 2 == 0
    want_graded = (4, [lam + 1] * 4) if even else (1, [2 * (lam + 1)])
    got_graded = (row.graded_classes, list(row.graded_dims))
    ledger.record(f"lambda={lam} graded classes", got_graded == want_graded, got_graded)
    want_ungraded = 1 if even else 4
    ledger.record(
        f"lambda={lam} ungraded classes",
        row.ungraded_classes == want_ungraded and row.equivalence_classes == 1,
        (row.ungraded_classes, row.equivalence_classes),
    )
    stray = [n for n in row.notes if not n.startswith("note: ") and n != _TABLE_NOTE]
    ledger.record(f"lambda={lam} catalog coverage", not stray, stray)
    if not even:
        noted = any(n.startswith(_ISO_NOTE) for n in row.notes)
        ledger.record(f"lambda={lam} loopE~loopO", noted, noted)


def _classify_rows(ledger, lams, run):
    try:
        rows = run()
    except Exception as exc:  # every verdict of the call is lost
        for lam in lams:
            ledger.record(f"lambda={lam} classification", False, repr(exc))
        return
    for lam, row in zip(lams, rows):
        _check_row(ledger, lam, row)


def classify(ctx, ledger):
    """`colour classify-sl2 --max-lambda 8` through the library: the rows of
    `classify_sl2c(8)`, made one `classify_lambda` call at a time as
    `classify_sl2c` makes them, so that each row is timed on its own."""
    from liecolour.workbench import classify_lambda

    for lam in range(9):
        _classify_rows(ledger, [lam], lambda: [classify_lambda(lam)])


# -- criterion-5 loop battery -------------------------------------------------

# The battery's largest weight.  Criterion 5 itself runs to 6; at 4 one
# repetition is short enough for a run to hold about ten of them.
BATTERY_MAX_LAMBDA = 4


def _battery():
    from liecolour import jordan_holder, make_sl2_graded, make_V_lambda, trivial_subgroup
    from liecolour.workbench import GROUP

    out = []
    for lam in range(0, BATTERY_MAX_LAMBDA + 1, 2):
        for variant in ("E", "O"):
            out.append((f"{variant}{lam}", make_sl2_graded(lam, variant), trivial_subgroup(GROUP)))
    step = jordan_holder(GROUP).chain[1]
    for lam in range(BATTERY_MAX_LAMBDA + 1):
        out.append((f"V{lam}", make_V_lambda(lam), step))
    return out


def _split(ledger, name, module, refiner):
    from liecolour import (
        coarsen, decompose, is_graded_irreducible, is_isomorphic, loop,
        parity_shift, submodule_to_module, twist, twist_reps,
    )

    group = module.algebra.group
    p = module.hsub.order() // refiner.order()
    lm = loop(module, refiner)
    ledger.record(f"{name} loop dim", lm.module.dim == p * module.dim, lm.module.dim)
    summands = decompose(lm.module)
    ledger.record(f"{name} decompose", len(summands) == p, len(summands))
    mods = []
    for k, s in enumerate(summands):
        sub, _ = submodule_to_module(s)
        ok = is_graded_irreducible(sub).irreducible
        ledger.record(f"{name} summand {k} irreducible", ok, ok)
        mods.append(sub)
    for k, other in enumerate(mods[1:], 1):
        ok = any(is_isomorphic(parity_shift(mods[0], h), other) for h in group.elements())
        ledger.record(f"{name} summand {k} parity shift of summand 0", ok, ok)
    twists = [twist(module, ch) for ch in twist_reps(group, module.hsub)]
    for k, m in enumerate(mods):
        back = coarsen(m, module.hsub)
        ok = any(is_isomorphic(back, t) for t in twists)
        ledger.record(f"{name} summand {k} twist of source", ok, ok)


def loop_split(ctx, ledger):
    """Criterion 5: 15 gradable inputs split exactly along one step."""
    for name, module, refiner in _battery():
        try:
            _split(ledger, name, module, refiner)
        except Exception as exc:
            ledger.record(f"{name} split", False, repr(exc))


# -- CLI session on generated files --------------------------------------------

def _dim(stem):
    lam, variant = CATALOG[stem]
    if variant == "V" or variant == "E+":
        return lam + 1
    if variant == "loopE":
        return 2 * (lam + 1)
    return (lam + 1) // 2  # U families


def _lift_classes(lam):
    return [lam + 1] * 4 if lam % 2 == 0 else [2 * (lam + 1)]


def _cli(argv):
    """(exit code, parsed JSON stdout or None) of one in-process call."""
    from liecolour import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--json", *argv])
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = None
    return code, payload


def _call(ledger, name, argv, judge, defect=None):
    """Run one command; `defect` recognises the registered wrong outcome."""
    try:
        code, payload = _cli(argv)
    except Exception as exc:  # an escaped exception breaks the exit-code contract
        ledger.record(name, False, repr(exc))
        return
    known = defect is not None and _holds(defect, code, payload)
    ledger.record(name, _holds(judge, code, payload), (code, payload), defect=known)


def _holds(predicate, code, payload):
    """A predicate on a payload of unexpected shape is simply false."""
    try:
        return bool(predicate(code, payload))
    except (KeyError, TypeError, AttributeError):
        return False


def _valid(kind):
    return lambda code, out: code == 0 and out == {"kind": kind, "valid": True}


def _irreducible(dim):
    return lambda code, out: code == 0 and out == {"irreducible": True, "closure_dim": dim * dim}


def _reducible(part):
    return lambda code, out: (
        code == 1 and out["irreducible"] is False and out["witness"]["dim"] == part
    )


def _isomorphic(same):
    return lambda code, out: code == (0 if same else 1) and out == {"isomorphic": same}


def _inconclusive(code, out):
    """InconclusiveIrreducibility: reported as a mismatch, nothing on stdout."""
    return code == 1 and out is None


def _not_isomorphic_or_inconclusive(code, out):
    return code == 1 and out in (None, {"isomorphic": False})


def _lift(classes):
    return lambda code, out: code == 0 and [c["dim"] for c in out["classes"]] == classes


def cli_dense(ctx, ledger):
    """One session of `colour` commands on the files made in set-up."""
    d = ctx["input_dir"]

    def f(stem):
        return os.path.join(d, f"{stem}.json")

    bd = os.path.join(d, "bd")
    _call(ledger, "bd-model", ["bd-model", "--out", bd],
          lambda code, out: code == 0 and out["loop_dim"] == 4)
    _call(ledger, "verify bd algebra", ["verify", os.path.join(bd, "algebra.json")], _valid("algebra"))
    for part, dim in (("seed", 2), ("loop", 4)):
        path = os.path.join(bd, f"{part}.json")
        _call(ledger, f"verify bd {part}", ["verify", path], _valid("module"))
        _call(ledger, f"irreducible bd {part}", ["irreducible", path], _irreducible(dim))

    stems = list(CATALOG) + list(DOUBLES)
    for stem in stems + [f"{s}_dense" for s in DENSE]:
        _call(ledger, f"verify {stem}", ["verify", f(stem)], _valid("module"))
    for stem in CATALOG:
        variants = [stem] + ([f"{stem}_dense"] if stem in DENSE else [])
        for v in variants:
            _call(ledger, f"irreducible {v}", ["irreducible", f(v)], _irreducible(_dim(stem)))
        if stem in DENSE:
            _call(ledger, f"isomorphic {stem} {stem}_dense",
                  ["isomorphic", f(stem), f(f"{stem}_dense")], _isomorphic(True))
    _call(ledger, "isomorphic Upp3 Upm3", ["isomorphic", f("Upp3"), f("Upm3")], _isomorphic(False))
    _call(ledger, "isomorphic Upp3_dense Upm3",
          ["isomorphic", f("Upp3_dense"), f("Upm3")], _isomorphic(False))

    for stem in ("V3", "V4"):
        lam = CATALOG[stem][0]
        for v in (stem, f"{stem}_dense"):
            _call(ledger, f"lift {v}", ["lift", "--group", "2,2", f(v)], _lift(_lift_classes(lam)))

    # reducible direct sums U (+) U: the witness search on the sparse sums
    for stem, base in DOUBLES.items():
        _call(ledger, f"irreducible {stem}", ["irreducible", f(stem)], _reducible(_dim(base)))


def cli_dense_defects(ctx, ledger):
    """The registered known defect, on the files of the `cli_dense` session.

    These operations fail at the commit that introduced the benchmark, on
    some seeds or all, so they are not part of the measured session (whose
    every operation must succeed); `run.py --defects` runs them once and
    reports each outcome.
    """
    d = ctx["input_dir"]

    def f(stem):
        return os.path.join(d, f"{stem}.json")

    for stem, base in DOUBLES.items():
        _call(ledger, f"irreducible {stem}_dense", ["irreducible", f(f"{stem}_dense")],
              _reducible(_dim(base)), defect=_inconclusive)
        _call(ledger, f"isomorphic {stem} {stem}", ["isomorphic", f(stem), f(stem)],
              _isomorphic(True), defect=_not_isomorphic_or_inconclusive)
        _call(ledger, f"isomorphic {stem} {stem}_dense",
              ["isomorphic", f(stem), f(f"{stem}_dense")], _isomorphic(True),
              defect=_not_isomorphic_or_inconclusive)


WORKLOADS = {
    "classify": classify,
    "loop_split": loop_split,
    "cli_dense": cli_dense,
}

# Known-defect operations per workload, run only by `run.py --defects`.
DEFECTS = {"cli_dense": cli_dense_defects}
