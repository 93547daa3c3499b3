"""Independent brute-force reference implementations used by the tests.

Everything here is written naively and separately from the package code:
different counting strategies, direct formula evaluation, exhaustive
enumeration. The package must agree with these, never the other way
around.
"""

import math
import re

import numpy as np

from abpe import Corpus, SynthSpec

# Frozen generator spec shared by the compression and syntax regression
# bounds. The observed values from the first run against these settings
# are pinned in the acceptance suite.
FROZEN_SYNTH_SPEC = SynthSpec(
    vocab_size=50,
    n_utts=2000,
    len_range=(30, 60),
    motif_count=5,
    motif_len_range=(3, 6),
    motif_rate=0.6,
    zipf_exponent=1.3,
    seed=7,
)


# ---------------------------------------------------------------- BPE ----

def bpe_pair_counts(utterances):
    """Non-overlapping left-to-right pair counts via last-match tracking."""
    counts = {}
    for utt in utterances:
        last_end = {}
        for i in range(len(utt) - 1):
            pair = (utt[i], utt[i + 1])
            if last_end.get(pair, -1) >= i:
                continue
            counts[pair] = counts.get(pair, 0) + 1
            last_end[pair] = i + 1
    return counts


def bpe_apply_merge(utt, pair, new_id):
    out = []
    i = 0
    while i < len(utt):
        if i + 1 < len(utt) and utt[i] == pair[0] and utt[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(utt[i])
            i += 1
    return out


def bpe_train_merges(corpus: Corpus, vocab_size: int):
    """Reference trainer: highest count first, ties to the smallest pair."""
    utterances = [list(u) for u in corpus.utterances]
    merges = []
    for rank in range(vocab_size - corpus.vocab_size):
        counts = bpe_pair_counts(utterances)
        candidates = [(-c, pair) for pair, c in counts.items() if c >= 2]
        if not candidates:
            break
        _, pair = min(candidates)
        new_id = corpus.vocab_size + rank
        utterances = [bpe_apply_merge(u, pair, new_id) for u in utterances]
        merges.append(pair)
    return merges


def bpe_encode_stepwise(base_size, merges, seq):
    """Reference encoder: one replacement at a time.

    At each step, among all adjacent pairs with a merge rule, replace the
    single leftmost occurrence of the lowest-ranked pair.
    """
    rank = {pair: r for r, pair in enumerate(merges)}
    out = list(seq)
    while True:
        best = None  # (rank, position)
        for i in range(len(out) - 1):
            r = rank.get((out[i], out[i + 1]))
            if r is not None and (best is None or r < best[0]):
                best = (r, i)
        if best is None:
            return out
        r, i = best
        out[i : i + 2] = [base_size + r]


def bpe_decode_naive(base_size, merges, seq):
    """Reference decoder: expand each unit with its own stack, left operand first."""
    out = []
    for unit in seq:
        stack = [unit]
        while stack:
            u = stack.pop()
            if u < base_size:
                out.append(int(u))
            else:
                a, b = merges[u - base_size]
                stack.append(b)
                stack.append(a)
    return out


# -------------------------------------------------------------- k-means ----

def nearest_centroid_bruteforce(features, centroids):
    """Per-row argmin over explicit python-loop squared distances."""
    labels = []
    for row in features:
        best = None
        best_d = None
        for ci, c in enumerate(centroids):
            d = 0.0
            for a, b in zip(row, c):
                d += (a - b) ** 2
            if best_d is None or d < best_d:
                best, best_d = ci, d
        labels.append(best)
    return labels


def kmeans_plusplus_naive(x, k, rng):
    """Row indices of k-means++ seeds: every draw recomputes the distance of
    every row to the new seed in full, and once every row coincides with a
    seed the rest are the first unused rows, one scan per seed."""
    n = x.shape[0]
    chosen = [int(rng.integers(0, n))]
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            u = rng.random() * total
            j = min(int(np.searchsorted(np.cumsum(d2), u, side="right")), n - 1)
        else:
            # all remaining points coincide with a centroid; take the first unused
            taken = set(chosen)
            j = next(i for i in range(n) if i not in taken)
        chosen.append(j)
        d2 = np.minimum(d2, ((x - x[j]) ** 2).sum(axis=1))
    return chosen


def kmeans_update_naive(x, labels, dists, k):
    """Each cluster's mean: a loop over the rows in order adds each row to its
    cluster's float64 sums, starting from 0.0, and each sum is divided once by
    its count. Each empty cluster, in index order, takes the next row by
    descending ``dists``, earlier rows first among equal distances."""
    n, dim = x.shape
    sums = [[0.0] * dim for _ in range(k)]
    counts = [0] * k
    for row, label in zip(x.tolist(), labels):
        counts[label] += 1
        for j in range(dim):
            sums[label][j] += row[j]
    farthest = iter(sorted(range(n), key=lambda i: -dists[i]))  # sorted is stable
    return np.array([[s / counts[c] for s in sums[c]] if counts[c] else x[next(farthest)]
                     for c in range(k)], dtype=np.float64)


def kmeans_fit_naive(x, k, seed, iters):
    """``(centroids, inertia_per_iter)`` of k-means++ seeding, then up to
    ``iters`` Lloyd iterations, each an update and a brute-force assignment;
    it stops early once an iteration moves no centroid, as a fit with
    ``tol=0`` does. Each inertia is the float64 sum of the exact distances."""
    def assigned(centroids):
        labels = np.array(nearest_centroid_bruteforce(x, centroids), dtype=np.int64)
        dists = ((x - centroids[labels]) ** 2).sum(axis=1)
        return labels, dists

    centroids = x[kmeans_plusplus_naive(x, k, np.random.default_rng(seed))]
    labels, dists = assigned(centroids)
    history = [float(dists.sum())]
    for _ in range(iters):
        updated = kmeans_update_naive(x, labels, dists, k)
        moved = ((updated - centroids) ** 2).any()
        centroids = updated
        labels, dists = assigned(centroids)
        history.append(float(dists.sum()))
        if not moved:
            break
    return centroids, history


def best_two_means_partition(features):
    """Exhaustive optimum of 2-means over <= 12 points.

    Returns the frozenset-of-frozensets partition of row indices that
    minimizes total within-cluster squared distance to cluster means.
    """
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    assert 2 <= n <= 12
    best_cost = None
    best_part = None
    for bits in range(1, 2 ** (n - 1)):  # row 0 stays in cluster A: halves the space
        a_idx = [i for i in range(n) if i == 0 or not (bits >> (i - 1)) & 1]
        b_idx = [i for i in range(n) if i != 0 and (bits >> (i - 1)) & 1]
        if not b_idx:
            continue
        cost = 0.0
        for idx in (a_idx, b_idx):
            mean = x[idx].mean(axis=0)
            cost += float(((x[idx] - mean) ** 2).sum())
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_part = frozenset({frozenset(a_idx), frozenset(b_idx)})
    return best_part


def labels_to_partition(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


# ---------------------------------------------------------------- n-gram ----

BOS = -1


def ngram_cond_prob(corpus: Corpus, order, add_k, weights, context, event):
    """Interpolated add-k conditional computed from scratch by list scans."""
    v = corpus.vocab_size
    padded = list(((BOS,) * (order - 1) + tuple(context))[-(order - 1):]) if order > 1 else []
    total = 0.0
    for o in range(1, order + 1):
        ctx = padded[len(padded) - (o - 1):] if o > 1 else []
        gram = list(ctx) + [event]
        gram_count = 0
        ctx_count = 0
        for utt in corpus.utterances:
            stream = [BOS] * (order - 1) + list(utt) + [v]
            for j in range(order - 1, len(stream)):
                window = stream[j - (o - 1): j + 1]
                if window[:-1] == list(ctx):
                    ctx_count += 1
                    if window == gram:
                        gram_count += 1
        total += weights[o - 1] * (
            (gram_count + add_k) / (ctx_count + add_k * (v + 1))
        )
    return total


def ngram_logprob(corpus: Corpus, order, add_k, weights, seq):
    v = corpus.vocab_size
    total = 0.0
    for i, tok in enumerate(list(seq) + [v]):
        total += math.log(
            ngram_cond_prob(corpus, order, add_k, weights, list(seq[:i]), tok)
        )
    return total


def greedy_continuation(model, prompt, max_new):
    """Iterated argmax with ties to the lowest event id."""
    out = list(prompt)
    for _ in range(max_new):
        dist = model.next_dist(out)
        best = 0
        for e in range(1, len(dist)):
            if dist[e] > dist[best]:
                best = e
        if best == model.vocab_size:
            break
        out.append(best)
    return out


def sample_event(probs, rng, temperature, top_k):
    """One draw from a 1-D ``next_dist`` row, as the per-sequence sampler did:
    greedy at temperature 0; else scale log-probabilities, keep the ``top_k``
    likeliest (stable sort), renormalize and invert the cumulative sum."""
    if temperature == 0.0:
        return int(np.argmax(probs))
    log_probs = np.log(probs)
    with np.errstate(over="ignore"):
        logits = log_probs / temperature
    if logits.max() == -np.inf:
        # every logit overflowed: as at a tiny finite temperature, draw evenly among the likeliest
        logits = np.where(log_probs == log_probs.max(), 0.0, -np.inf)
    if top_k is not None and top_k < logits.size:
        keep = np.argsort(-logits, kind="stable")[:top_k]
        mask = np.full(logits.size, -np.inf)
        mask[keep] = logits[keep]
        logits = mask
    logits -= logits.max()
    weights = np.exp(logits)
    cum = np.cumsum(weights / weights.sum())
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    live = np.flatnonzero(weights > 0)
    return int(min(idx, live[-1]))


def sampled_continuation(model, prompt, max_new, seed, temperature=1.0, top_k=None):
    """``prompt`` extended one ``next_dist`` and one ``sample_event`` at a time."""
    out = list(prompt)
    rng = np.random.default_rng(seed)
    for _ in range(max_new):
        event = sample_event(model.next_dist(out), rng, temperature, top_k)
        if event == model.vocab_size:
            break
        out.append(event)
    return out


# ---------------------------------------------------------------- BLEU ----

def self_bleu_quadratic(texts, n):
    """Clipped modified n-gram precision, recomputed pairwise per text."""
    def counts(seq):
        d = {}
        for i in range(len(seq) - n + 1):
            g = tuple(seq[i : i + n])
            d[g] = d.get(g, 0) + 1
        return d

    scores = []
    for i, hyp in enumerate(texts):
        hyp_counts = counts(hyp)
        clipped = 0
        for gram, c in hyp_counts.items():
            limit = 0
            for j, ref in enumerate(texts):
                if j == i:
                    continue
                limit = max(limit, counts(ref).get(gram, 0))
            clipped += min(c, limit)
        scores.append(clipped / sum(hyp_counts.values()))
    return sum(scores) / len(scores)


def random_small_corpus(rng, max_vocab=10, max_utts=8, max_len=12):
    v = int(rng.integers(2, max_vocab + 1))
    n_utts = int(rng.integers(1, max_utts + 1))
    utts = [
        [int(t) for t in rng.integers(0, v, size=int(rng.integers(1, max_len + 1)))]
        for _ in range(n_utts)
    ]
    return Corpus(utts, v)


# -------------------------------------------------------------- tokens ----

TOKEN_ID_BOUND = 2**63 - 2  # a vocab size is at most this, so every id lies below it


def read_token_file(path):
    """A token file read one line at a time, as the README describes the format:
    ``(utterances, vocab_size)``, or the message of the ``FormatError`` a loader
    raises for it."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # text mode's newlines
    decimal = re.compile("0|[1-9][0-9]*")  # [0-9] is ASCII only, unlike \d
    vocab, utterances = None, []
    for lineno, line in enumerate(text.split("\n"), 1):
        fields = [f for f in re.split("[ \t\n\r\v\f]", line) if f]
        if not fields:
            continue
        if fields[0].startswith("#"):
            if lineno != 1:
                return f"{path}:{lineno}: header allowed on line 1 only"
            if len(fields) != 2 or fields[0] != "#vocab":
                return f"{path}:1: expected '#vocab <N>' header"
            if not decimal.fullmatch(fields[1]):
                return f"{path}:1: malformed integer {fields[1]!r}"
            vocab = int(fields[1])
            if vocab < 1:
                return f"{path}:1: vocab size must be >= 1"
            if vocab > TOKEN_ID_BOUND:
                return f"{path}:1: vocab size must be <= {TOKEN_ID_BOUND}"
            continue
        utterance = []
        for field in fields:
            if not decimal.fullmatch(field):
                return f"{path}:{lineno}: malformed integer {field!r}"
            if int(field) >= TOKEN_ID_BOUND:
                return f"{path}:{lineno}: id {field} outside [0, {TOKEN_ID_BOUND})"
            utterance.append(int(field))
        utterances.append(utterance)
    if not utterances:
        return f"{path}: no utterances"
    top = max(max(u) for u in utterances)
    if vocab is not None and vocab <= top:
        return f"{path}: vocab {vocab} does not cover max id {top}"
    return utterances, top + 1 if vocab is None else vocab


def read_unicode_file(path):
    """Unicode text read one line at a time, as ``abpe from-unicode`` reads it:
    ``(utterances, 1 + max id)``, or the message of the ``FormatError`` it raises."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # text mode's newlines
    utterances = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip(" \t\n\r\v\f")
        for i, ch in enumerate(line):
            if not 0x4E00 <= ord(ch) <= 0x9FFF:
                return f"{path}:{lineno}: character {ch!r} at index {i} is outside U+4E00..U+9FFF"
        if line:
            utterances.append([ord(ch) - 0x4E00 for ch in line])
    if not utterances:
        return f"{path}: no utterances"
    return utterances, max(max(u) for u in utterances) + 1

