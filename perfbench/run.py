#!/usr/bin/env python3
"""Benchmark of the grushin_hardy verification lab.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_2d --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seconds 10

One run builds the workload's inputs from ``--seed``, measures set-up in
fresh processes, runs one tiny-size warm-up pass (every code path of the
workload at a loose tolerance), then repeats full passes until
``--seconds`` have elapsed. Every pass is checked (see workloads.py). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the metrics that
BENCHMARK.json names:

* ``--trace 0``, end to end: ``wall_s``, the median time of one warm pass;
  ``setup_s``, the median of three fresh-process set-ups (import
  ``grushin_hardy.cli``, then build the inputs); ``peak_rss_mb``, the peak
  RSS of this process, which runs only the one workload; ``passed_share``,
  the items whose verdict holds and whose output checks out over the items
  attempted (one minus the failed share).
* ``--trace 1``, per layer: one untraced pass, then at least two passes
  traced from outside the package (tracer.py); values are medians over the
  traced passes. Exact counts must repeat between traced passes, or the run
  stops with exit code 3 and no result.

``--all`` runs every workload untraced and traced in child processes and
prints one table. Each run writes a record (machine, versions, pass times,
counts) and, when traced, its spans to ``.perfbench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import env

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload named in BENCHMARK.json")
    ap.add_argument("--all", action="store_true", help="run every workload and print a table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the same checks at a loose tolerance (one search per "
                    "kind for constants); the warm-up pass and smoke tests use it")
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (env.ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(env.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(env.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(env.SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "threads": {var: os.environ[var] for var in env.THREAD_VARS},
    }


def measure_setup(args) -> list:
    """Fresh-process set-up times from setup_probe.py, one dict per repeat."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             args.workload, str(args.seed), args.size],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(env.ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes = []


def run_pass(workload, reference, workdir, tally: Tally) -> float:
    """One timed pass; its items are checked and tallied after the clock stops."""
    from workloads import compare_with_reference

    t0 = time.perf_counter()
    try:
        items = workload.run(workdir)
    except Exception:
        elapsed = time.perf_counter() - t0
        tally.attempted += workload.n_items
        tally.failed += workload.n_items
        tally.notes.append(traceback.format_exc(limit=3))
        return elapsed
    elapsed = time.perf_counter() - t0
    if reference is not None:
        compare_with_reference(items, reference)
    tally.attempted += len(items)
    for it in items:
        if not it.ok:
            tally.failed += 1
            tally.notes.append(f"{it.label}: {it.note}")
    return elapsed


class CountMismatch(RuntimeError):
    pass


def traced_values(args, workload, reference, workdir, tally, record) -> dict:
    """Per-layer metrics: medians over at least two traced passes."""
    from tracer import EXACT_COUNTS, Tracer

    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        while len(traced) < 2 or sum(traced) < args.seconds:
            tracer.run_id = len(traced)
            traced.append(run_pass(workload, reference, workdir, tally))
    finally:
        tracer.uninstall()
    record["traced_pass_s"] = traced
    tracer.dump(env.OUT / f"spans-{args.workload}-seed{args.seed}-{args.size}.json")
    per_pass = [tracer.layer_metrics(r) for r in range(len(traced))]

    def exact(m: dict) -> dict:
        return {k: v for k, v in m.items() if k in EXACT_COUNTS or k.startswith("spans.")}

    record["counts"] = exact(per_pass[0])
    for other in per_pass[1:]:
        if exact(other) != record["counts"]:
            raise CountMismatch(
                f"exact counts differ between traced passes: {record['counts']} vs {exact(other)}"
            )
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    overhead = statistics.median(traced) - record["pass_s"][0]
    values["setup.import_s"] = statistics.median(s["import_s"] for s in record["setup"])
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / record["pass_s"][0]
    return values


def measure(args, spec) -> int:
    setups = measure_setup(args)

    import workloads

    workload = workloads.build(args.workload, args.seed, args.size)
    reference = None
    if args.seed == 0 and args.size == "full":
        reference = workloads.load_reference(args.workload)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "seconds": args.seconds, "setup": setups,
              "environment": environment()}
    env.OUT.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="work-", dir=env.OUT))
    try:
        run_pass(workloads.build(args.workload, args.seed, "tiny"), None, workdir, tally)
        untraced = []
        while not untraced or (args.trace == 0 and sum(untraced) < args.seconds):
            untraced.append(run_pass(workload, reference, workdir, tally))
        record["pass_s"] = untraced
        if args.trace == 0:
            values = {
                "wall_s": statistics.median(untraced),
                "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "passed_share": (tally.attempted - tally.failed) / tally.attempted,
            }
            wanted = spec["end_to_end"]
        else:
            values = traced_values(args, workload, reference, workdir, tally, record)
            wanted = spec["per_layer"]
    except CountMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["notes"] = tally.notes
    record_path = env.OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    for note in tally.notes[:20]:
        print(f"failed: {note}", file=sys.stderr)
    print(json.dumps({"record": str(record_path.relative_to(env.ROOT)),
                      "environment": record["environment"]}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args, spec) -> int:
    """Every workload untraced and traced, in child processes; one table."""
    header = ("workload", "wall_s", "setup_s", "peak_rss_mb", "failed_share",
              "correct", "trace_overhead")
    print("  ".join(f"{h:>14}" for h in header))
    all_correct = True
    for w in spec["workloads"]:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--size", args.size],
                capture_output=True, text=True, cwd=str(env.ROOT), timeout=2 * CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"error: {w['name']} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        plain, traced = results
        m = plain["metrics"]
        correct = plain["correct"] and traced["correct"]
        all_correct = all_correct and correct
        cells = (
            w["name"],
            f"{m['wall_s']['value']:.3f} s",
            f"{m['setup_s']['value']:.3f} s",
            f"{m['peak_rss_mb']['value']:.1f} MB",
            f"{plain['failed'] / plain['attempted']:.3f}",
            str(correct),
            f"{traced['metrics']['trace.overhead_share']['value']:+.1%}",
        )
        print("  ".join(f"{c:>14}" for c in cells))
    return 0 if all_correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.prepare()
        spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    except (env.MissingSources, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
