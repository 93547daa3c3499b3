"""One workload run in a fresh process: set up, measure passes, check, report.

Started by ``run.py``, never by hand. Prints one JSON record as the last
line of its standard output. With ``--setup-only`` it exits once its
inputs are ready, so that ``run.py`` can time set-up repeatedly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gate import Gate, load_oracles  # noqa: E402
from spans import Tracer, layer_metrics, next_dist_us, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402 - imports abpe, which set-up time includes


def run_pass(stages, tracer=None):
    """Run every stage once; a stage that raises ends the pass."""
    state, times, failures = {}, {}, []
    if tracer is not None:
        tracer.open("harness.pass")
    start = time.perf_counter()
    for stage in stages:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.open("harness." + stage.__name__)
        try:
            stage(state)
        except Exception:  # noqa: BLE001 - a failed stage is counted and reported
            failures.append(f"{stage.__name__}: {traceback.format_exc(limit=3)}")
            break
        finally:
            if tracer is not None:
                tracer.close()
        times[stage.__name__] = time.perf_counter() - t0
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.close()
    return {"state": state, "times": times, "wall": wall, "failures": failures,
            "attempted": len(times) + len(failures)}


def measure(workload, stages, seconds, tracer):
    """Passes back to back within ``seconds``; with a tracer, every second pass is traced.

    A new pass starts only if the longest one so far still fits, so a run
    ends within its time. Each pass's outputs are read and hashed after it
    ends. Only the last pass keeps its state, for the correctness gate.
    """
    passes, longest = [], 0.0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            rec = run_pass(stages, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rec["traced"] = traced
        if traced:
            rec["spans"] = list(tracer.spans)
            rec["layers"] = layer_metrics(rec["spans"])
        passes.append(rec)
        if rec["failures"]:
            return passes
        artifacts, rec["reports"], rec["counts"] = workload.outputs(rec["state"])
        rec["digests"] = {k: hashlib.sha256(v).hexdigest() for k, v in artifacts.items()}
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now - start + longest > seconds and (tracer is None or len(passes) >= 2):
            return passes
        rec["state"] = None  # not the last pass: free its outputs before the next one


def write_spans(workload_name, seed, traced):
    path = os.path.join(ROOT, ".bench_out", f"spans-{workload_name}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "counts"],
                   "passes": traced}, fh)


def end_to_end(workload, passes):
    """Median pass and training times; throughputs as all passes' work over their time."""
    def rate(count, stage):
        return (sum(p["counts"][count] for p in passes)
                / sum(p["times"][stage] for p in passes))

    return {
        "pipeline_s": statistics.median(p["wall"] for p in passes),
        "train_s": statistics.median(sum(p["times"][s] for s in workload.train_stages)
                                     for p in passes),
        "encode_tok_per_s": rate("encode_items", workload.encode_stage),
        "gen_base_tok_per_s": rate("gen_base_tokens", workload.gen_stage),
    }


def environment():
    import numpy as np

    def commit():
        head = os.path.join(ROOT, ".git", "HEAD")
        if not os.path.exists(head):
            return "unknown (not a git checkout)"
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(ref[5:])), "unknown")

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit_id = commit()
    except OSError:
        commit_id = "unknown"
    return {
        "commit": commit_id,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def compare_identity(workload_name, seed, toy, artifacts, reports):
    """Each artifact against the recorded digest: identical, changed or unrecorded."""
    path = os.path.join(ROOT, "perfbench", "identity.json")
    recorded = {}
    if os.path.exists(path) and not toy:
        with open(path) as fh:
            recorded = json.load(fh).get(workload_name, {}).get(str(seed), {})
    out = {}
    for name, digest in artifacts.items():
        want = recorded.get("artifacts", {}).get(name)
        out[name] = "unrecorded" if want is None else ("identical" if want == digest else "changed")
    for name, value in reports.items():
        want = recorded.get("reports", {}).get(name)
        if want is None:
            out[name] = "unrecorded"
        elif want == value:
            out[name] = "identical"
        else:
            # float reports may move in the last digits when summation order changes
            close = abs(value - want) <= 1e-9 * max(abs(want), 1e-12)
            out[name] = "within 1e-9" if close else "changed"
    return out


def check_outputs(workload, passes, corrupt):
    """Every pass's outputs equal the first's; the last pass passes the gate."""
    gate = Gate()
    first = passes[0]
    for i, p in enumerate(passes[1:], start=1):
        changed = sorted(k for k in p["digests"] if p["digests"][k] != first["digests"][k])
        gate.equal(f"pass {i} outputs equal pass 0 {changed}",
                   (p["digests"], p["reports"]), (first["digests"], first["reports"]))
    last = passes[-1]["state"]
    if corrupt:
        workload.corrupt(last)
    gate.guarded("gate", lambda: workload.check(gate, last, load_oracles(ROOT)))
    return gate


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True, help="wall clock when run.py started this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    os.makedirs(args.workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.workdir, args.toy)
        stages = workload.stages()
        setup_s = time.time() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer() if args.trace else None
        passes = measure(workload, stages, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = sum(p["attempted"] for p in passes)
        failures = [f for p in passes for f in p["failures"]]
        result = {"setup_s": setup_s, "passes": len(passes), "env": environment()}
        if not failures:
            t0 = time.perf_counter()
            gate = check_outputs(workload, passes, args.corrupt)
            attempted += gate.attempted
            failures += gate.failures
            first, untraced = passes[0], [p for p in passes if not p["traced"]]
            result.update(
                gate_s=time.perf_counter() - t0, artifacts=first["digests"], reports=first["reports"],
                counts=first["counts"],
                identity=compare_identity(args.workload, args.seed, args.toy,
                                          first["digests"], first["reports"]),
                stage_s={k: statistics.median(p["times"][k] for p in untraced)
                         for k in untraced[0]["times"]})
            if tracer is None:
                result["metrics"] = dict(end_to_end(workload, untraced), peak_rss_mb=peak_rss_mb)
                result["per_pass"] = [end_to_end(workload, [p]) for p in untraced]
            else:
                traced = [p for p in passes if p["traced"]]
                result["metrics"] = dict(
                    summarize([p["layers"] for p in traced],
                              [x for p in traced for x in next_dist_us(p["spans"])]),
                    **{"trace.overhead_s": statistics.median(p["wall"] for p in traced)
                       - statistics.median(p["wall"] for p in untraced)})
                write_spans(args.workload, args.seed, [p["spans"] for p in traced])
        result.update(attempted=attempted, failed=len(failures), failures=failures)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
