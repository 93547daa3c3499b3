"""Evaluation suite: compression, syntax discrimination, diversity, richness.

Diversity conventions: auto-BLEU of one sequence is the fraction of its
n-gram occurrences whose n-gram appears at least twice in that sequence;
self-BLEU of a set is the mean clipped modified n-gram precision of each
sequence against all the others (single order n, no brevity penalty). The
combined score is 100 * sqrt(self_bleu * auto_bleu); higher means less
diverse.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, TokenSequence, _check_size, _sum_in_order


@dataclass(frozen=True)
class CompressionReport:
    avg_len_base: float
    avg_len_encoded: float
    ratio: float
    vocab_size: int


@dataclass(frozen=True)
class VertReport:
    n: int
    self_bleu: float
    auto_bleu: float
    vert: float


@dataclass(frozen=True)
class CrossEntropyReport:
    n_samples: int
    entropy: float


def compression_stats(base: Corpus, encoded: Corpus, vocab_size: int) -> CompressionReport:
    """Average sequence lengths before/after encoding and their ratio."""
    vocab_size = _check_size(vocab_size, "vocab_size", 1)
    if len(base) != len(encoded):
        raise ValueError(
            f"utterance count mismatch: {len(base)} base vs {len(encoded)} encoded"
        )
    if len(base) == 0:
        raise ValueError("empty corpora")
    avg_base = base.total_tokens() / len(base)
    avg_encoded = encoded.total_tokens() / len(encoded)
    if avg_encoded == 0:
        raise ValueError("encoded corpus has zero length")
    return CompressionReport(avg_base, avg_encoded, avg_base / avg_encoded, vocab_size)


def syntax_accuracy(model, pairs) -> float:
    """Fraction of ``(correct, corrupted)`` pairs whose correct member scores
    strictly higher.

    Ties count as incorrect.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no syntax pairs")
    scores = model.logprobs([seq for correct, corrupted in pairs for seq in (correct, corrupted)])
    return sum(c > k for c, k in zip(scores[::2], scores[1::2])) / len(pairs)


def shuffle_corrupt(seq: TokenSequence, unit_len: int = 1, *, seed: int) -> TokenSequence:
    """Permute contiguous blocks of ``unit_len`` tokens uniformly at random.

    The token multiset is preserved; a single-block sequence comes back
    unchanged. Deterministic per seed.
    """
    unit_len = _check_size(unit_len, "unit_len", 1)
    if len(seq) < 2:
        raise ValueError("sequence too short to shuffle")
    blocks = [seq[i : i + unit_len] for i in range(0, len(seq), unit_len)]
    if len(blocks) < 2:
        return list(seq)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(blocks))
    return [t for bi in perm for t in blocks[bi]]


def _ngram_counts(seq, n: int) -> Counter:
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def auto_bleu(text, n: int) -> float:
    """Fraction of the sequence's n-gram occurrences that repeat within it."""
    n = _check_size(n, "n", 1)
    if len(text) < n:
        raise ValueError(f"sequence of length {len(text)} has no {n}-grams")
    counts = _ngram_counts(text, n)
    total = len(text) - n + 1
    repeated = sum(c for c in counts.values() if c >= 2)
    return repeated / total


def self_bleu(texts, n: int) -> float:
    """Mean clipped n-gram precision of each text against all the others."""
    n = _check_size(n, "n", 1)
    texts = list(texts)
    if len(texts) < 2:
        raise ValueError("need at least 2 texts")
    per_text = []
    for i, text in enumerate(texts):
        if len(text) < n:
            raise ValueError(f"text {i} of length {len(text)} has no {n}-grams")
        per_text.append(_ngram_counts(text, n))

    # top-2 per gram gives max-over-other-texts without a quadratic pass
    top1: dict[tuple, int] = {}
    top1_holder: dict[tuple, int] = {}
    top2: dict[tuple, int] = {}
    for i, counts in enumerate(per_text):
        for gram, c in counts.items():
            if c > top1.get(gram, 0):
                top2[gram] = top1.get(gram, 0)
                top1[gram] = c
                top1_holder[gram] = i
            elif c > top2.get(gram, 0):
                top2[gram] = c

    precisions = []
    for i, counts in enumerate(per_text):
        clipped = 0
        total = 0
        for gram, c in counts.items():
            limit = top2[gram] if top1_holder[gram] == i else top1[gram]
            clipped += min(c, limit)
            total += c
        precisions.append(clipped / total)
    return _sum_in_order(precisions) / len(precisions)


def vert(texts, n: int) -> VertReport:
    """Geometric-mean diversity score on a 0..100 scale."""
    n = _check_size(n, "n", 1)
    texts = list(texts)
    s = self_bleu(texts, n)
    a = _sum_in_order(auto_bleu(t, n) for t in texts) / len(texts)
    return VertReport(n=n, self_bleu=s, auto_bleu=a, vert=100.0 * math.sqrt(s * a))


def cross_entropy(samples, reference) -> CrossEntropyReport:
    """Mean negative log-probability of the samples under ``reference``, in nats."""
    scores = reference.logprobs(samples)
    if not scores:
        raise ValueError("no samples")
    return CrossEntropyReport(n_samples=len(scores), entropy=-_sum_in_order(scores) / len(scores))
