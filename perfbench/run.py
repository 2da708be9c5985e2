"""The liecolour benchmark command.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--defects]

Runs cold repetitions of one workload, each in a fresh single-threaded
interpreter (perfbench/child.py), within --seconds seconds, and prints the
figures by name with their units, a run record, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 untraced and traced
repetitions alternate and the metrics are the per-layer ones, plus the
tracing overhead.  With --defects it instead runs the workload's registered
known-defect operations once and reports each outcome.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEADLINE_S = 175.0  # a run must end within 180 s
MIN_REPS = 2  # untraced repetitions per run even when one outlasts the window
SETUP_SAMPLES = 9  # setup_s is the median of at least this many interpreter starts

# Every repetition runs on this one CPU: the hosts this was written on slow
# each virtual CPU down independently, so the reference job and the
# workload must share one.
CPU = min(os.sched_getaffinity(0))

sys.path.insert(0, HERE)
from workloads import DEFECTS, WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# Per-layer metrics of a traced run, with units: the ones a later change to
# one layer is most likely to move.  A span's time is reported here only if
# every workload reaches it; the others are reported by call count, and
# their times appear in the printed lines and the run record.
PER_LAYER = tuple((name, "count") for name in (
    "cyclotomic.mul.calls",
    "cyclotomic.addsub.calls",
    "cyclotomic.inverse.calls",
    "cyclotomic.is_zero.calls",
    "linalg.nullspace.calls",
    "linalg.RowBasis.add.calls",
    "linalg.invert.calls",
    "modp.closure_rank.calls",
    "modp.fp_rank.calls",
    "gmodule.validate.calls",
    "gmodule.intertwiners.calls",
    "gmodule.spin.calls",
    "gmodule.is_graded_irreducible.calls",
    "gmodule.is_graded_irreducible.fallback_calls",
    "gmodule.is_isomorphic.calls",
    "gmodule.decompose.calls",
    "gmodule.inconclusive.count",
    "loopfunctor.iterate_lift.calls",
    "loopfunctor.iso_classes_of_module.calls",
    "workbench.classify_lambda.calls",
    "jsonio.load_file.calls",
    "jsonio.dump.calls",
    "cli.main.calls",
)) + (
    ("modp.closure_rank.hit_ratio", "ratio"),
    ("modp.fp_rank.nullity0_ratio", "ratio"),
) + tuple((name, "s") for name in (
    "linalg.nullspace.self_s",
    "linalg.nullspace.total_s",
    "linalg.RowBasis.add.self_s",
    "linalg.mat_mul.self_s",
    "linalg.mat_vec.self_s",
    "modp.closure_rank.self_s",
    "modp.fp_rank.self_s",
    "gmodule.validate.self_s",
    "gmodule.intertwiners.self_s",
    "gmodule.spin.self_s",
    "gmodule.is_graded_irreducible.self_s",
    "gmodule.is_isomorphic.total_s",
    "gmodule.submodule_to_module.self_s",
    "loopfunctor.loop.self_s",
    "colouralg.ColourAlgebra.self_s",
    "workload.self_s",
    "trace.overhead_s",
))


def commit():
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def repetition(workload, seed, trace, timeout, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--cpu", str(CPU), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: repetition of {workload} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Repetitions while the next one, at the mean length so far, is
    expected to end within `seconds` (less the set-up-only starts still
    owed), and at least MIN_REPS untraced ones; with tracing, untraced and
    traced ones alternate and at least one of each runs.  Set-up-only
    starts then top the set-up samples up to SETUP_SAMPLES."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        done = len(plain) + len(traced)
        owed = max(SETUP_SAMPLES - len(plain) - 1, 0) * (
            statistics.median(r["setup_raw_s"] for r in plain) if plain else 0.0)
        fits = done == 0 or elapsed + elapsed / done + owed <= seconds
        needed = (not plain or not traced) if trace else len(plain) < MIN_REPS
        if not (fits or needed):
            break
        want_trace = trace and len(traced) < len(plain)
        (traced if want_trace else plain).append(
            repetition(workload, seed, int(want_trace), DEADLINE_S - elapsed))
    setups = [{k: r[k] for k in ("setup_s", "setup_raw_s")} for r in plain]
    while len(setups) < SETUP_SAMPLES:
        timeout = DEADLINE_S - (time.monotonic() - start)
        setups.append(repetition(workload, seed, 0, timeout, ["--setup-only"]))
    return plain, traced, setups


def summarise(workload, seed, trace, plain, traced, setups):
    reps = plain + traced
    failures = [op for r in reps for op in r["failed"]]
    attempted = sum(r["attempted"] for r in reps)
    e2e = {name: statistics.median(r[name] for r in plain) for name, _ in END_TO_END}
    e2e["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    layers = {}
    if trace:
        keys = {k for r in traced for k in r["layers"]}
        layers = {k: statistics.median(r["layers"].get(k, 0) for r in traced) for k in keys}
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - e2e["wall_s"])
    first = plain[0]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "operations_per_repetition": first["attempted"],
        "failed_per_repetition": len(first["failed"]),
        "fail_ratio": len(failures) / attempted,
        "failed_ops": {op["op"]: op["observed"] for op in failures},
        "inputs": first["inputs"],
        "end_to_end": e2e,
        "measured": {
            "wall_raw_s": statistics.median(r["wall_raw_s"] for r in plain),
            "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
        },
        "samples": {
            "wall_s": [r["wall_s"] for r in plain],
            "wall_raw_s": [r["wall_raw_s"] for r in plain],
            "setup_s": [s["setup_s"] for s in setups],
            "setup_raw_s": [s["setup_raw_s"] for s in setups],
            "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
        },
        "layers": layers,
        "cold_caches": first["cold_caches"],
    }
    return record, attempted, len(failures), not failures


def report_lines(record):
    w = record["workload"]
    lines = [f"{w} {name} {record['end_to_end'][name]:.6g} {unit}" for name, unit in END_TO_END]
    lines.append(f"{w} measured: wall {record['measured']['wall_raw_s']:.6g} s, set-up "
                 f"{record['measured']['setup_raw_s']:.6g} s (before rescaling to reference seconds)")
    lines.append(f"{w} fail_ratio {record['fail_ratio']:.6g} ratio "
                 f"({record['failed_per_repetition']} of {record['operations_per_repetition']}"
                 f" operations per repetition)")
    for op, observed in sorted(record["failed_ops"].items()):
        lines.append(f"{w} failed: {op} -> {observed}")
    if "dense_fill" in record["inputs"]:
        lines.append(f"{w} input dense_fill {record['inputs']['dense_fill']:.4f} ratio")
    for name in sorted(record["layers"]):
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        lines.append(f"{w} {name} {record['layers'][name]:.6g} {unit}")
    return lines


def report_defects(names, seed):
    """Run each workload's known-defect operations once; print one line per
    operation.  Exit code 1 if one fails in an unregistered way."""
    unexpected = 0
    for name in names:
        if name not in DEFECTS:
            print(f"{name}: no registered known defect")
            continue
        r = repetition(name, seed, 0, DEADLINE_S, ["--defects"])
        failed = {op["op"]: op for op in r["failed"]}
        for op in r["ops"]:
            if op not in failed:
                status = "passes (the defect no longer shows)"
            elif failed[op]["defect"]:
                status = "fails as registered"
            else:
                status = f"fails UNEXPECTEDLY -> {failed[op]['observed']}"
                unexpected += 1
            print(f"{name} known defect: {op}: {status}")
    return 1 if unexpected else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--defects", action="store_true",
                    help="run the registered known-defect operations once instead")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "liecolour", "__init__.py")):
        raise SystemExit(f"perfbench: no liecolour sources under {os.path.join(ROOT, 'src')}")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.defects:
        sys.exit(report_defects(names, args.seed))
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        plain, traced, setups = measure(name, args.seed, args.seconds, args.trace)
        record, n, f, ok = summarise(name, args.seed, args.trace, plain, traced, setups)
        correct, attempted, failed = correct and ok, attempted + n, failed + f
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"record-{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        print("\n".join(report_lines(record)))
        print("record: " + json.dumps(record, sort_keys=True))
        prefix = f"{name}." if args.workload == "all" else ""
        if args.trace:
            for key, unit in PER_LAYER:
                metrics[prefix + key] = {"value": record["layers"].get(key, 0), "unit": unit}
        else:
            for key, unit in END_TO_END:
                metrics[prefix + key] = {"value": record["end_to_end"][key], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))


if __name__ == "__main__":
    main()
