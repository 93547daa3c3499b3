"""Harness self-test at toy sizes.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` keeps to the result contract's limits; that
every workload, untraced and traced, prints a last line with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` and exactly the
metric names and units ``BENCHMARK.json`` lists; that a deliberately
corrupted artifact (a swapped merge, a flipped k-means label) trips the
correctness gate with exit code 1 and ``failed > 0``; and that in a
directory holding only ``BENCHMARK.json`` and the benchmark, the command
fails without printing a result. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class Checks:
    """Prints one PASS/FAIL line per check and keeps the failures."""

    def __init__(self):
        self.failures = []

    def __call__(self, ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            self.failures.append(what)


def run(cwd, workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    last = proc.stdout.strip().split("\n")[-1]
    try:
        return proc.returncode, json.loads(last)
    except json.JSONDecodeError:
        return proc.returncode, None


def check_spec(check, bench):
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    check(len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names),
          "metric and workload names are valid and unique")
    check(2 <= len(bench["workloads"]) <= 8
          and all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"]),
          "2 to 8 workloads, each with a name and a why of at most 200 characters")
    e2e = bench["end_to_end"]
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              and UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in e2e),
          "end-to-end metrics have a unit, a direction and a bound of at most 0.25")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in e2e),
          "setup_s is in seconds, lower is better, and has the largest bound")
    check(1 <= len(bench["per_layer"]) <= 128
          and all(set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"])
                  for m in bench["per_layer"]),
          "1 to 128 per-layer metrics, each with a unit and a direction")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")


def check_result(check, result, specs, what):
    check(result is not None and set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: last line has exactly correct, attempted, failed, metrics")
    if result is None:
        return
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int), f"{what}: attempted and failed are whole numbers")
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    check(got == want, f"{what}: every metric name, with its unit")
    check(all(isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)
              for v in result["metrics"].values()), f"{what}: every value is a number")


def main():
    check = Checks()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_spec(check, bench)
    for w in (w["name"] for w in bench["workloads"]):
        code, result = run(ROOT, w, 0, "--toy")
        check(code == 0 and result and result["correct"] and result["failed"] == 0,
              f"{w}: untraced toy run is correct")
        check_result(check, result, bench["end_to_end"], f"{w} untraced")
        if result:
            check(all(v["value"] > 0 for v in result["metrics"].values()),
                  f"{w}: every end-to-end metric is above 0")
        code, result = run(ROOT, w, 1, "--toy")
        check(code == 0 and result and result["correct"], f"{w}: traced toy run is correct")
        check_result(check, result, bench["per_layer"], f"{w} traced")
        code, result = run(ROOT, w, 0, "--toy", "--corrupt")
        check(code == 1 and result is not None and result["failed"] > 0 and not result["correct"],
              f"{w}: a corrupted artifact trips the gate (exit 1, failed > 0)")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = run(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          "without the program's sources the command fails and prints no result")

    print(f"{len(check.failures)} failed" if check.failures else "all passed")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
