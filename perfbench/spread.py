"""Run a workload over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload cli-v50 --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --record-identity

The spread of a metric is the distance between the first and third quartile
of its per-run values (``statistics.quantiles(values, n=4)``) as a share of
their median. A benchmark is steady when every spread except set-up time's
stays below a third of the metric's bound in ``BENCHMARK.json``.
``--record-identity`` stores each run's artifact digests and float reports
in ``perfbench/identity.json``, which later runs compare their outputs to.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    ap.add_argument("--record-identity", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    seconds = bench["run_seconds"]
    identity_path = os.path.join(HERE, "identity.json")
    identity = {}
    if os.path.exists(identity_path):
        with open(identity_path) as fh:
            identity = json.load(fh)
    steady = True
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: run failed (exit {proc.returncode})")
                return 1
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            if args.record_identity:
                with open(os.path.join(ROOT, ".bench_out", f"run-{name}-seed{seed}-trace0.json")) as fh:
                    rec = json.load(fh)
                identity.setdefault(name, {})[str(seed)] = {
                    "artifacts": rec["artifacts"], "reports": rec["reports"]}
        print(f"{name}: metric, median, spread, a third of its bound")
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:<20} {med:<12.5g} {spread:<8.4f} {m['bound'] / 3:.4f}"
                  f"{'' if ok else '  TOO WIDE'}")
    if args.record_identity:
        with open(identity_path, "w") as fh:
            json.dump(identity, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
