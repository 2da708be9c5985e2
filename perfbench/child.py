"""One cold repetition of one workload, in a fresh interpreter.

Started by run.py, never imported.  It imports the library from the
checkout's `src/`, builds the workload's inputs, checks that the library's
caches are as cold as in a freshly started `colour` process, runs the
workload once (traced or not), timed by a `Clock` in reference seconds,
and prints one JSON line with the figures.
A traced repetition also writes its spans to perfbench/out/.
Exit code 3 means a self-check failed; the figures are then not printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def fail(message):
    print(f"perfbench child: {message}", file=sys.stderr)
    sys.exit(3)


def import_library():
    if any(name == "liecolour" or name.startswith("liecolour.") for name in sys.modules):
        fail("interpreter is warm: liecolour was imported before the repetition")
    sys.path.insert(0, SRC)
    import liecolour
    import liecolour.cli
    import liecolour.jsonio
    import numpy

    if not os.path.abspath(liecolour.__file__).startswith(os.path.join(SRC, "liecolour") + os.sep):
        fail(f"liecolour imported from {liecolour.__file__}, not from {SRC}")
    return numpy.__version__


def lru_caches():
    """Every functools cache on a liecolour module-level function."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "liecolour" and not name.startswith("liecolour."):
            continue
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and getattr(obj, "__module__", None) == name:
                out[f"{name}.{attr}"] = obj
    return out


def cool_down(caches, cold_sizes):
    """Empty the caches that input generation filled, then check that every
    cache holds exactly what it held right after import."""
    for key, fn in caches.items():
        if cold_sizes[key] == 0:
            fn.cache_clear()
    warm = [k for k, fn in caches.items() if fn.cache_info().currsize != cold_sizes[k]]
    if warm:
        fail(f"library caches are warm before the first timed operation: {warm}")


# Times are reported in reference seconds: measured seconds times
# REFERENCE_S over the reference job's time at that moment, i.e. seconds on
# a host that runs the reference job in REFERENCE_S.  The virtual machines
# this was written on change speed by up to 1.8x every few seconds and
# drift over minutes; the reference job, timed next to the work it rescales,
# takes that out.
REFERENCE_S = 0.008
CHUNK_S = 0.25  # the reference job is timed again at the first verdict after this long
SETUP_REFERENCES = 3  # reference timings after set-up; set-up is rescaled by their median


def reference_job():
    """A fixed exact-arithmetic job that does not touch the library:
    Gauss-Jordan inversion of a 6x6 Gaussian-integer matrix over Fractions,
    the same kind of work as the library's scalar arithmetic.  Returns a
    function that runs it once and returns its time in seconds."""
    import random

    import inputs

    rng = random.Random(0)
    m = [[inputs._g(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(6)] for _ in range(6)]
    for i in range(6):
        m[i][i] = inputs._g(20, 1)

    def timed():
        t = time.perf_counter()
        inputs._invert(m)
        return time.perf_counter() - t

    return timed


class Clock:
    """Wall time of a workload, in chunks that end at a verdict, each chunk
    rescaled by the reference job timed at both of its ends.  The reference
    timings are left out of the chunks; in a traced repetition they are
    spans of their own, so the workload's self time leaves them out too."""

    def __init__(self, reference, trace=None):
        self.reference, self.trace = reference, trace
        self.chunks = []  # (seconds, reference before, reference after)

    def _reference(self):
        span = self.trace.open("reference") if self.trace else None
        ref = self.reference()
        if span is not None:
            self.trace.close(span)
        return ref

    def start(self):
        self.ref = self._reference()
        self.t = time.perf_counter()

    def verdict(self):
        now = time.perf_counter()
        if now - self.t >= CHUNK_S:
            self._close(now)

    def stop(self):
        self._close(time.perf_counter())

    def _close(self, now):
        ref = self._reference()
        self.chunks.append((now - self.t, self.ref, ref))
        self.ref = ref
        self.t = time.perf_counter()

    def wall(self):
        return sum(c[0] for c in self.chunks)

    def wall_ref(self):
        return sum(sec * REFERENCE_S * 2 / (a + b) for sec, a, b in self.chunks)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--cpu", type=int, help="run on this CPU only")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first timed operation; report setup_s only")
    ap.add_argument("--defects", action="store_true",
                    help="run the workload's known-defect operations instead")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    numpy_version = import_library()
    sys.path.insert(0, HERE)
    import inputs
    import tracer
    import workloads

    caches = lru_caches()
    cold_sizes = {k: fn.cache_info().currsize for k, fn in caches.items()}
    ctx = {}
    props = {}
    work_dir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    try:
        if args.workload == "cli_dense":
            ctx["input_dir"] = work_dir
            props = inputs.write_inputs(args.seed, work_dir)
        cool_down(caches, cold_sizes)
        bindings = tracer.target_bindings()
        trace = tracer.Tracer() if args.trace else None
        if trace:
            trace.install()
        run = (workloads.DEFECTS if args.defects else workloads.WORKLOADS)[args.workload]

        setup_end = time.monotonic()
        reference = reference_job()
        setup_refs = sorted(reference() for _ in range(SETUP_REFERENCES))
        setup = {"setup_raw_s": setup_end - args.spawned_at}
        setup["setup_s"] = setup["setup_raw_s"] * REFERENCE_S / setup_refs[len(setup_refs) // 2]
        if args.setup_only:
            print(json.dumps(setup))
            return
        clock = Clock(reference, trace)
        ledger = workloads.Ledger(clock.verdict)
        if trace:
            root = trace.open(tracer.ROOT)
        clock.start()
        run(ctx, ledger)
        clock.stop()
        if trace:
            trace.close(root)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if trace:
        trace.uninstall()
    # identity check: every traced binding holds its original object again
    # (untraced: never held anything else)
    touched = [f"{getattr(o, '__name__', o)}.{a}" for o, a, obj, _ in bindings
               if getattr(o, a) is not obj or tracer.is_wrapper(getattr(o, a))]
    if touched:
        fail(f"wrappers left installed on {touched}")

    result = {
        "wall_s": clock.wall_ref(),
        "wall_raw_s": clock.wall(),
        "chunks": clock.chunks,
        **setup,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ledger.ops),
        "ops": [op.name for op in ledger.ops],
        "failed": [op.to_json() for op in ledger.failed()],
        "numpy": numpy_version,
        "inputs": props,
        "cold_caches": sorted(caches),
    }
    if trace:
        problems = trace.tree_problems()
        if problems:
            fail(f"span tree is unsound: {problems[:5]}")
        result["layers"] = trace.metrics()
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump(trace.dump_spans(), fh)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
