"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks, each printed as one PASS/FAIL line:
  0. BENCHMARK.json names the workloads and metrics run.py reports;
  1. the same seed gives byte-identical input files, another seed differs;
  2. every generated file passes `colour verify`;
  3. a warm interpreter and a warm library cache are refused;
  4. the tracer replaces and restores every binding, checked by identity,
     and its self times add up to the root span;
  5. one untraced and one traced repetition of every workload pass their
     in-run checks: no wrapper installed while untraced (by identity),
     self times adding up to the root span while traced, cold caches, and
     no failed verdict; their chunks add up to their measured wall time.
Exit code 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402

RESULTS = []


def check(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)


def refused(fn, *args):
    """True if the harness check `fn` stops the run (exit code 3)."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            fn(*args)
    except SystemExit as exc:
        return exc.code == 3
    return False


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = (
        sorted(w["name"] for w in spec["workloads"]),
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )
    check("BENCHMARK.json matches run.py",
          declared == (sorted(run.WORKLOADS), list(run.END_TO_END), list(run.PER_LAYER)))

    # this process has not imported liecolour yet
    sys.modules["liecolour"] = None  # stands in for an earlier import
    check("warm interpreter refused", refused(child.import_library))
    del sys.modules["liecolour"]
    child.import_library()
    caches = child.lru_caches()
    cold = {k: fn.cache_info().currsize for k, fn in caches.items()}

    import inputs
    import tracer
    from liecolour import cli, cyclotomic, is_graded_irreducible, make_V_lambda

    work = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    try:
        a, b, c = (os.path.join(work, x) for x in "abc")
        inputs.write_inputs(7, a)
        props = inputs.write_inputs(7, b)
        inputs.write_inputs(8, c)
        names = sorted(os.listdir(a))
        same = filecmp.cmpfiles(a, b, names, shallow=False)[0] == names
        differs = filecmp.cmpfiles(a, c, names, shallow=False)[0] != names
        check("same seed gives byte-identical inputs", same and differs,
              f"{len(names)} files, dense fill {props['dense_fill']:.3f}")
        with contextlib.redirect_stdout(io.StringIO()):
            bad = [n for n in names if cli.main(["verify", os.path.join(a, n)]) != 0]
        check("every generated file passes colour verify", not bad, ", ".join(bad))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    make_V_lambda(2)
    check("caches filled after import are emptied", not refused(child.cool_down, caches, cold))
    cyclotomic.field(8)  # a cache that import already fills cannot be emptied
    check("warm library cache refused", refused(child.cool_down, caches, cold))

    bindings = tracer.target_bindings()
    trace = tracer.Tracer()
    trace.install()
    replaced = all(tracer.is_wrapper(getattr(o, a)) for o, a, _, _ in bindings)
    root = trace.open(tracer.ROOT)
    is_graded_irreducible(make_V_lambda(3))
    trace.close(root)
    trace.uninstall()
    restored = all(getattr(o, a) is obj for o, a, obj, _ in bindings)
    problems = trace.tree_problems()
    check("tracer installs and restores by identity", replaced and restored,
          f"{len(bindings)} bindings")
    check("traced self times add up to the root span", not problems, "; ".join(problems))

    for name in sorted(run.WORKLOADS):
        for trace_flag in (0, 1):
            rep = run.repetition(name, 0, trace_flag, run.DEADLINE_S)
            adds_up = abs(sum(c[0] for c in rep["chunks"]) - rep["wall_raw_s"]) < 1e-6
            check(f"{name} trace={trace_flag} repetition passes its in-run checks",
                  not rep["failed"] and adds_up,
                  f"{rep['attempted']} ops, {len(rep['failed'])} failed")
    sys.exit(0 if all(RESULTS) else 1)


if __name__ == "__main__":
    main()
