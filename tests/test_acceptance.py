"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Statistical criteria use fixed seeds, so every run is reproducible.
"""

import filecmp
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from abpe import (
    BpeModel,
    Corpus,
    NgramModel,
    RescoreResult,
    auto_bleu,
    compression_stats,
    self_bleu,
    shuffle_corrupt,
    syntax_accuracy,
    synth_corpus,
    topx_accuracy,
    vert,
)

from oracles import (
    FROZEN_SYNTH_SPEC,
    bpe_train_merges,
    greedy_continuation,
    ngram_cond_prob,
    ngram_logprob,
    random_small_corpus,
)

# regression bounds frozen from the first oracle run against the frozen spec
FROZEN_COMPRESSION_RATIO = 4.92  # observed 4.921129451727615
FROZEN_SYNTAX_ACCURACY = 0.99  # observed 1.0


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_bpe_roundtrip_identity():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    failures = 0
    checked = 0
    for _ in range(20):
        corpus = random_small_corpus(rng, max_vocab=30, max_utts=40, max_len=60)
        target = corpus.vocab_size + int(rng.integers(0, 50))
        model = BpeModel.train(corpus, target)
        for _ in range(500):
            seq = [
                int(t)
                for t in rng.integers(
                    0, corpus.vocab_size, size=int(rng.integers(1, 200))
                )
            ]
            checked += 1
            if model.decode(model.encode(seq)) != seq:
                failures += 1
    elapsed = time.monotonic() - start
    report(
        1,
        failures == 0 and checked == 10_000 and elapsed < 60.0,
        f"{checked} sequences, {failures} mismatches, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_bpe_trainer_matches_bruteforce_oracle():
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(500):
        corpus = random_small_corpus(rng, max_vocab=6, max_utts=8, max_len=12)
        target = corpus.vocab_size + int(rng.integers(0, 12))
        if BpeModel.train(corpus, target).merges != bpe_train_merges(corpus, target):
            mismatches += 1
    report(2, mismatches == 0, f"500 corpora, {mismatches} merge-list mismatches")


def test_criterion_03_compression_on_frozen_corpus():
    corpus = synth_corpus(FROZEN_SYNTH_SPEC)
    model = BpeModel.train(corpus, 200)
    encoded = model.encode_corpus(corpus)
    ratio = compression_stats(corpus, encoded, model.vocab_size).ratio
    report(
        3,
        ratio >= 1.5 and ratio >= FROZEN_COMPRESSION_RATIO,
        f"ratio {ratio:.3f} (>= 1.5 required, >= {FROZEN_COMPRESSION_RATIO} frozen)",
    )


def test_criterion_04_lm_matches_bruteforce_to_1e12():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        corpus = random_small_corpus(rng, max_vocab=10, max_utts=6, max_len=9)
        order = int(rng.integers(1, 4))
        weights = tuple(1.0 / order for _ in range(order))
        model = NgramModel.train(corpus, order=order, add_k=0.1)
        for _ in range(2):
            ctx = [
                int(t)
                for t in rng.integers(0, corpus.vocab_size, size=int(rng.integers(0, 4)))
            ]
            dist = model.next_dist(ctx)
            for event in range(corpus.vocab_size + 1):
                want = ngram_cond_prob(corpus, order, 0.1, weights, ctx, event)
                worst = max(worst, abs(dist[event] - want) / want)
        for _ in range(2):
            seq = [
                int(t)
                for t in rng.integers(0, corpus.vocab_size, size=int(rng.integers(1, 7)))
            ]
            want = ngram_logprob(corpus, order, 0.1, weights, seq)
            worst = max(worst, abs(model.logprob(seq) - want) / abs(want))
    report(4, worst < 1e-12, f"200 corpora, worst relative error {worst:.2e}")


def test_criterion_05_next_dist_normalization():
    rng = np.random.default_rng(505)
    worst = 0.0
    pairs = 0
    for _ in range(50):
        corpus = random_small_corpus(rng, max_vocab=30, max_utts=15, max_len=20)
        order = int(rng.integers(1, 5))
        model = NgramModel.train(corpus, order=order, add_k=float(rng.random()) + 0.01)
        for _ in range(200):
            ctx = [
                int(t)
                for t in rng.integers(0, corpus.vocab_size, size=int(rng.integers(0, 6)))
            ]
            worst = max(worst, abs(model.next_dist(ctx).sum() - 1.0))
            pairs += 1
    report(5, pairs == 10_000 and worst < 1e-9, f"{pairs} pairs, worst |sum-1| {worst:.2e}")


def test_criterion_06_sampling_greedy_and_temperature_one():
    rng = np.random.default_rng(606)
    utts = [
        [int(t) for t in rng.integers(0, 6, size=int(rng.integers(3, 12)))]
        for _ in range(30)
    ]
    model = NgramModel.train(Corpus(utts, 6), order=2, add_k=0.2)

    greedy_bad = 0
    for case in range(50):
        prompt = [int(t) for t in rng.integers(0, 6, size=int(rng.integers(0, 4)))]
        got = model.generate(prompt, 25, seed=case, temperature=0.0)
        if got != greedy_continuation(model, prompt, 25):
            greedy_bad += 1

    contexts = [
        [int(t) for t in rng.integers(0, 6, size=int(rng.integers(0, 3)))]
        for _ in range(10)
    ]
    draws = 10_000
    worst_z = 0.0
    for ci, ctx in enumerate(contexts):
        dist = model.next_dist(ctx)
        counts = np.zeros(dist.size)
        for j in range(draws):
            out = model.generate(ctx, 1, seed=10_000_000 + ci * draws + j)
            event = out[len(ctx)] if len(out) > len(ctx) else model.eos_id
            counts[event] += 1
        freqs = counts / draws
        sigma = np.sqrt(dist * (1 - dist) / draws)
        worst_z = max(worst_z, float((np.abs(freqs - dist) / sigma).max()))
    report(
        6,
        greedy_bad == 0 and worst_z <= 3.0,
        f"greedy mismatches {greedy_bad}, worst |z| {worst_z:.2f} over "
        f"{len(contexts)}x{draws} draws (<= 3)",
    )


def test_criterion_07_random_rescore_baseline():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    cases = 100_000
    scores = rng.random((cases, 5))
    rank_rows = np.argsort(rng.random((cases, 5)), axis=1) + 1
    results = [RescoreResult.from_scores(list(row)) for row in scores]
    rank_sets = [[int(r) for r in row] for row in rank_rows]
    accs = [topx_accuracy(results, rank_sets, x) for x in (1, 2, 3)]
    expected = [0.2, 0.4, 0.6]
    errs = [abs(a - e) for a, e in zip(accs, expected)]
    elapsed = time.monotonic() - start
    report(
        7,
        max(errs) < 0.005 and elapsed < 60.0,
        "top-1/2/3 = "
        + "/".join(f"{a:.4f}" for a in accs)
        + f" vs 0.2/0.4/0.6, max abs err {max(errs):.4f} (< 0.005), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_08_rescore_argmax_invariance():
    rng = np.random.default_rng(808)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        scores = list(-rng.random(n) * 80.0)
        base = RescoreResult.from_scores(scores).best_index
        shift = float(rng.normal() * 50.0)
        scale = float(rng.random() * 9.0 + 1e-3)
        if RescoreResult.from_scores([s + shift for s in scores]).best_index != base:
            violations += 1
        if RescoreResult.from_scores([s * scale for s in scores]).best_index != base:
            violations += 1
    report(8, violations == 0, f"1000 shift+scale checks, {violations} violations")


def test_criterion_09_syntax_discrimination_on_frozen_corpus():
    corpus = synth_corpus(FROZEN_SYNTH_SPEC)
    train = Corpus(corpus.utterances[:1800], corpus.vocab_size)
    held = corpus.utterances[1800:]
    model = NgramModel.train(train, order=4, add_k=0.1)
    pairs = [(u, shuffle_corrupt(u, 1, seed=1000 + i)) for i, u in enumerate(held)]
    acc = syntax_accuracy(model, pairs)
    report(
        9,
        acc > 0.9 and acc >= FROZEN_SYNTAX_ACCURACY,
        f"accuracy {acc:.3f} over {len(pairs)} held-out pairs "
        f"(> 0.9 required, >= {FROZEN_SYNTAX_ACCURACY} frozen)",
    )


def test_criterion_10_vert_arithmetic():
    ok = True
    details = []

    got = auto_bleu(["a", "b", "a", "b"], 2)
    ok &= got == pytest.approx(2.0 / 3.0, rel=1e-12)
    details.append(f"auto-bigram(abab)={got:.6f}")

    ident = self_bleu([[1, 2, 3, 4], [1, 2, 3, 4]], 2)
    ok &= ident == 1.0
    disjoint = self_bleu([[1, 2, 3], [4, 5, 6]], 2)
    ok &= disjoint == 0.0
    details.append(f"self identical={ident} disjoint={disjoint}")

    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(50):
        texts = [
            [int(t) for t in rng.integers(0, 5, size=12)]
            for _ in range(int(rng.integers(2, 6)))
        ]
        rep = vert(texts, 2)
        ok &= rep.vert == 100.0 * math.sqrt(rep.self_bleu * rep.auto_bleu)
        product = 10000.0 * rep.self_bleu * rep.auto_bleu
        if product > 0:
            worst = max(worst, abs(rep.vert**2 - product) / product)
        else:
            ok &= rep.vert == 0.0
    ok &= worst < 1e-12
    details.append(f"square identity worst rel err {worst:.1e}")
    report(10, bool(ok), "; ".join(details))


def test_criterion_11_cross_entropy_sanity():
    rng = np.random.default_rng(1101)
    utts = [
        [int(t) for t in rng.integers(0, 5, size=int(rng.integers(2, 9)))]
        for _ in range(40)
    ]
    ref = NgramModel.train(Corpus(utts, 5), order=1, add_k=0.1)

    # order-1 sequences renew at every step, so the expected score is the
    # one-step event entropy divided by the stop probability
    dist = ref.next_dist([])
    h_exact = float(-(dist * np.log(dist)).sum() / dist[ref.eos_id])

    logprobs = np.array([ref.logprob(ref.generate([], 500, seed=i)) for i in range(5000)])
    h_sample = float(-logprobs.mean())
    sem = float(logprobs.std(ddof=1) / math.sqrt(logprobs.size))
    z = abs(h_sample - h_exact) / sem
    report(
        11,
        z <= 3.0,
        f"H sampled {h_sample:.4f} vs exact {h_exact:.4f}, |z| {z:.2f} (<= 3)",
    )


def test_criterion_12_end_to_end_cli_determinism(tmp_path):
    start = time.monotonic()
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "smoke.sh")
    env = dict(os.environ, PYTHON=sys.executable)
    dirs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for d in dirs:
        proc = subprocess.run(
            ["bash", script, d], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    _, differing, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    elapsed = time.monotonic() - start
    report(
        12,
        not differing and not errors and elapsed < 300.0,
        f"{len(names)} artifacts byte-identical across two runs, "
        f"{elapsed:.1f}s (< 300s)",
    )
    # and equal to the recorded bytes; help.txt is left out, as argparse lays
    # out help differently across Python versions
    with open(os.path.join(os.path.dirname(__file__), "smoke_digests.json")) as fh:
        recorded = json.load(fh)
    digests = {}
    for name in names:
        if name != "help.txt":
            with open(os.path.join(dirs[0], name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    changed = sorted(n for n in recorded.keys() | digests.keys()
                     if recorded.get(n) != digests.get(n))
    assert not changed, f"smoke artifacts differ from tests/smoke_digests.json: {changed}"
