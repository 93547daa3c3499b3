"""The paper's headline trade-off, measured: vocabulary size against speed and quality.

    python3 perfbench/sweep.py --seed 1

Outside the gated benchmark runs. On one corpus of the ``units-v500`` kind
(base V=500), it trains BPE with +0, +150, +1500 and +4500 merges (fewer
when no pair occurs twice any more) and reports, for each size: the
compression ratio on held-out data, the syntax accuracy of an order-4 unit
LM, ``bpe.train_s``, and generation seconds per new *base* token (times are
medians of three calls). The paper claims that BPE shortens sequences and
so speeds up inference; the last column tests that claim on this
implementation. Writes the table to ``.bench_out/sweep-seed<N>.json`` too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = str(min(2, len(os.sched_getaffinity(0))))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import abpe  # noqa: E402
from gate import expand, unit_table  # noqa: E402
from workloads import UnitsV500, zipf_motif_corpus  # noqa: E402

MERGES = (0, 150, 1500, 4500)
# a larger training corpus than units-v500's, so that +4500 merges can mostly be learned
TRAIN_UTTS, HELD_UTTS, CONTINUATIONS, MAX_NEW = 400, 120, 12, 40
REPEATS = 3


def timed(fn):
    """Median wall time of REPEATS calls, and the (deterministic) result."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    p = UnitsV500.FULL
    base = p["base"]
    rng = np.random.default_rng([args.seed, 500])
    utts = zipf_motif_corpus(rng, base, TRAIN_UTTS + HELD_UTTS,
                             motifs=p["motifs"], motif_len=p["motif_len"], zipf=1.2)
    train = abpe.Corpus(utts[:TRAIN_UTTS], base)
    held = abpe.Corpus(utts[TRAIN_UTTS:], base)
    rows = []
    for extra in MERGES:
        train_s, bpe = timed(lambda: abpe.BpeModel.train(train, base + extra))
        held_enc = bpe.encode_corpus(held)
        lm = abpe.NgramModel.train(bpe.encode_corpus(train), order=4, add_k=0.1)
        pairs = [(u, abpe.shuffle_corrupt(u, 1, seed=i))
                 for i, u in enumerate(held_enc.utterances) if len(u) > 1]
        prompts = [held_enc.utterances[i % len(held)][:3] for i in range(CONTINUATIONS)]
        gen_s, conts = timed(lambda: [lm.generate(p, MAX_NEW, seed=i) for i, p in enumerate(prompts)])
        table = unit_table(base, bpe.merges)
        new_base = sum(len(expand(table, c)) - len(expand(table, p)) for c, p in zip(conts, prompts))
        rows.append({
            "merges_requested": extra,
            "merges": len(bpe.merges),
            "events": bpe.vocab_size + 1,
            "compression_ratio": abpe.compression_stats(held, held_enc, bpe.vocab_size).ratio,
            "syntax_accuracy": abpe.syntax_accuracy(lm, pairs),
            "bpe.train_s": train_s,
            "gen_s": gen_s,
            "gen_base_tokens": new_base,
            "gen_s_per_base_token": gen_s / new_base if new_base else float("nan"),
        })
        r = rows[-1]
        print(f"+{extra:<5} merges={r['merges']:<5} ratio={r['compression_ratio']:.3f} "
              f"syntax={r['syntax_accuracy']:.3f} bpe.train_s={train_s:.3f} "
              f"gen_ms_per_base_token={1000 * r['gen_s_per_base_token']:.3f} "
              f"({new_base} base tokens in {gen_s:.3f} s)", flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"sweep-seed{args.seed}.json"), "w") as fh:
        json.dump({"seed": args.seed, "base": base, "train_tokens": train.total_tokens(),
                   "held_tokens": held.total_tokens(), "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
