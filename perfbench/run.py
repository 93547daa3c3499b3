"""Stage benchmark for abpe: run one workload, print every metric, check outputs.

    python3 perfbench/run.py --workload units-v500 --seed 1 --seconds 25 --trace 0

Run from the repository root. Workloads, metrics and bounds are defined in
``BENCHMARK.json``; ``perfbench/README.md`` says what each one measures.

The load is a single caller in a closed loop: one worker process runs the
workload's stages back to back for ``--seconds``, with BLAS limited to
min(2, nproc) threads. Each run uses fresh processes: ``--trace 0`` first
times set-up (interpreter start, ``import abpe``, inputs ready) in separate
processes, then measures untraced passes and prints the end-to-end metrics
as medians over passes. ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics from the traced ones, plus the tracing
overhead. Every run checks its outputs; a failed stage or check makes
``correct`` false and the exit code 1. The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4  # set-up-only processes; the measuring process adds one more sample
TIME_LIMIT_S = 170


def worker(args, workdir, extra, deadline):
    """Start one worker process and return its JSON record, or None if it failed."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--t0", repr(time.time()), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("error: worker timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the harness self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one artifact before the gate, for the harness self-test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "abpe", "__init__.py")):
        print("error: the program's sources (src/abpe) are not in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT_S
    scratch = os.path.join(ROOT, ".bench_out", f"work-{os.getpid()}")
    extra = ["--toy"] * args.toy + ["--corrupt"] * args.corrupt

    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = worker(args, f"{scratch}-setup{i}", extra + ["--setup-only"], deadline)
            if probe is None:
                return 2
            setups.append(probe["setup_s"])
    rec = worker(args, scratch, extra, deadline)
    if rec is None:
        return 2
    setups.append(rec["setup_s"])
    metrics = dict(rec.get("metrics", {}), setup_s=statistics.median(setups))

    for key, value in rec["env"].items():
        print(f"env {key}: {value}")
    print(f"passes: {rec['passes']}   set-up samples: {len(setups)}")
    for name, status in rec.get("identity", {}).items():
        print(f"output {name}: {status}")
    for failure in rec["failures"]:
        print(f"FAILED {failure}")
    out = {}
    for spec in specs:
        if spec["name"] in metrics:
            value = metrics[spec["name"]]
            out[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"{spec['name']} = {value} {spec['unit']}")
    missing = [s["name"] for s in specs if s["name"] not in out]
    if missing and not rec["failures"]:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    record_path = os.path.join(ROOT, ".bench_out",
                               f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(dict(rec, metrics=out, setup_samples=setups), fh, indent=1)
    correct = not rec["failures"]
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
