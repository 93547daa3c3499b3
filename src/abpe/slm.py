"""Autoregressive n-gram sequence model with interpolated add-k smoothing.

The model scores whole sequences as a product of per-position conditionals
plus an explicit end-of-sequence event, so probabilities over sequences of
every length sum to one and candidates of different lengths are directly
comparable. Contexts shorter than order-1 are padded with a begin marker
that is never scored as an event.

Each conditional is a weighted mixture over orders 1..n of add-k
estimates, every one of them smoothed across the full event space
(vocabulary plus end-of-sequence), so all conditionals are strictly
positive and each distribution sums to one.

The model keeps the top-order table as the model file stores it and, per
order, sorted arrays derived from it once by the constructor, as KenLM's
sorted-array tables do. A context's id is its row in its order's sorted
codes ``parent id * (V+1) + symbol``, the parent being the context minus
its oldest symbol, so codes stay below (rows + 1) * (V+1); an n-gram's
code is ``context id * (V+1) + event``, and a context's n-grams form one
slice. Each n-gram, and each context for its unseen events, holds the
order's weight times its add-k estimate. ``logprobs`` finds the ids of all
positions of many sequences with one ``searchsorted`` per order, in blocks of
whole sequences; ``next_dist`` walks the same ids for one context and
scatters one slice per order onto a copy of the order-1 row.

``generate_many`` steps all its unfinished continuations in lockstep, a
block of at most ``_ROW_BLOCK`` rows at a time: each step walks every row's
context into its own row of one ``(rows, V+1)`` array as ``next_dist``
does, runs the sampling arithmetic (log, temperature, top-k, exp,
normalisation, cumulative sum) once over the whole array, and draws each
row's event with its own ``np.random.default_rng(seed)``. A row leaves
the block at its end event, so every row samples as it would alone.

Anything with ``logprobs``/``next_dist``/``generate_many`` and a
``vocab_size`` can stand in for this class downstream; nothing else in the
package depends on the count-based internals.

Model file: magic ``ABPENGRM``, u32 LE version (=1), u64 LE vocab_size,
u32 LE order, f64 LE add_k, order f64 LE interpolation weights, u64 LE
triple count, then (context, event, count) triples as u64s in strictly
increasing (context, event) order. Context symbols are stored shifted by
one with 0 for the begin marker; the event id ``vocab_size`` is the
end-of-sequence event. Only top-order counts are stored; lower orders are
exact marginals, derived by the constructor from the top-order table.
"""

from __future__ import annotations

import math
import struct
from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import (Corpus, TokenSequence, _as_corpus, _blocks, _check_size, _id_stream, _save,
                     _sum_in_order, _unpack_header)
from .errors import FormatError

NGRAM_MAGIC = b"ABPENGRM"
NGRAM_VERSION = 1
BOS = -1

_FIXED_HEADER = struct.Struct("<8sIQId")
_OUT_OF_VOCAB = "id {id} at position {pos} out of vocabulary"
_CODE_MAX = 2**63 - 1  # int64 max; ``grams`` ends in it, as its unseen row
_ROW_BLOCK = 64  # generate_many steps at most this many continuations at once


class _Order(NamedTuple):
    """One order's sorted tables. An unseen context's id is the number of seen
    ones; ``grams`` and ``seen`` end in the row that an unseen n-gram maps to."""

    bounds: np.ndarray  # each context code c, then c + 1, which starts a gap (maybe empty)
    ids: np.ndarray  # searchsorted(bounds, code, "right") -> the id of the code's context
    grams: np.ndarray  # n-gram codes, context id * (V+1) + event
    events: np.ndarray  # the event of each n-gram
    starts: np.ndarray  # context id -> its first n-gram; the unseen id's slice is empty
    seen: np.ndarray  # weight * add-k estimate of each n-gram
    unseen: np.ndarray  # weight * add-k estimate of an unseen event, per context


def _windows(ids: np.ndarray, offsets: np.ndarray, vocab_size: int, order: int) -> np.ndarray:
    """The int64 windows of each id and end event of the checked ``ids`` split at ``offsets``,
    read from one stream with ``order - 1`` begin markers before each sequence: row 0 holds the
    event and row d < order the symbol d before it, shifted by one (0 for a begin marker)."""
    pad = [BOS] * (order - 1)
    shifted = _id_stream(ids, offsets, pad, [vocab_size] + pad) + 1
    at = shifted.nonzero()[0]  # the events: all but the begin markers
    windows = shifted[at - np.arange(len(pad) + 1)[:, None]]
    np.subtract(windows[0], 1, out=windows[0])  # in place; ``-=`` would copy the row back
    return windows


def _draw(probs: np.ndarray, rngs: list[np.random.Generator], temperature: float,
          top_k: int | None) -> list[int]:
    """One event per row of ``probs`` (overwritten), drawn with that row's rng."""
    if temperature == 0.0:
        return probs.argmax(axis=1).tolist()
    log_probs = np.log(probs, out=probs)
    logits = log_probs / temperature
    top = logits.max(axis=1)
    dead = np.isinf(top)
    if dead.any():
        # a row's logits overflowed, all to -inf or some to +inf (a model file's weights may
        # sum above one): as at a tiny finite temperature, draw evenly among its likeliest events
        worst = log_probs[dead]
        logits[dead] = np.where(worst == worst.max(axis=1, keepdims=True), 0.0, -np.inf)
        top[dead] = 0.0
    n = logits.shape[1]
    if top_k is not None and top_k < n:
        # the first top_k of a stable descending sort: all above the k-th largest
        # logit, then the lowest-id events equal to it
        kth = np.partition(logits, n - top_k, axis=1)[:, n - top_k, None]
        above = logits > kth
        tied = logits == kth
        room = top_k - np.count_nonzero(above, axis=1)[:, None]
        logits = np.where(above | (tied & (np.cumsum(tied, axis=1) <= room)), logits, -np.inf)
    logits -= top[:, None]  # top-k keeps each row's maximum
    weights = np.exp(logits, out=logits)
    cum = np.divide(weights, weights.sum(axis=1, keepdims=True), out=probs)
    np.cumsum(cum, axis=1, out=cum)
    events = []
    for w, c, rng in zip(weights, cum, rngs):
        r = rng.random()
        # only r >= c[-1] can pass the last positive weight: c is flat after it
        events.append(int(np.flatnonzero(w > 0)[-1]) if r >= c[-1]
                      else int(c.searchsorted(r, "right")))
    return events


class NgramModel:
    """Count-based sequence model; immutable once constructed."""

    def __init__(self, vocab_size: int, order: int, add_k: float,
                 weights: tuple[float, ...], rows):
        """Build the model from its top-order table: one u64 row
        ``(context..., event, count)`` per n-gram, as the model file stores it
        (context symbols shifted by one, 0 for the begin marker).

        Every parameter and row is checked here and nowhere else; the lower
        orders are derived as exact marginals of ``rows``.
        """
        vocab_size = _check_size(vocab_size, "vocab_size", 1)
        order = _check_size(order, "order", 1)
        if not 0 < add_k < math.inf:
            raise ValueError("add_k must be finite and > 0")
        if len(weights) != order:
            raise ValueError(f"expected {order} interpolation weights, got {len(weights)}")
        if not all(0 <= w < math.inf for w in weights) or not _sum_in_order(weights) > 0:
            raise ValueError(
                "interpolation weights must be finite and non-negative with positive sum"
            )
        self.vocab_size = vocab_size
        self.order = order
        self.add_k = float(add_k)
        self.weights = tuple(float(w) for w in weights)
        rows = np.ascontiguousarray(rows, dtype="<u8").reshape(-1, order + 1)
        v1 = vocab_size + 1
        if v1 * (len(rows) + 1) > _CODE_MAX:
            raise ValueError(f"vocab {vocab_size} with {len(rows)} rows overflows int64 codes")
        keys, ctx, counts = rows[:, :order], rows[:, : order - 1], rows[:, order]
        # one encoding per model: (context, event) keys strictly increase
        first = (keys[1:] != keys[:-1]).argmax(axis=1)[:, None]
        if not (np.take_along_axis(keys[1:], first, 1)
                > np.take_along_axis(keys[:-1], first, 1)).all():
            raise ValueError("triples not strictly increasing")
        if (counts == 0).any():
            raise ValueError("non-positive count")
        bad = keys[:, -1] > vocab_size
        if bad.any():
            raise ValueError(f"event id {keys[bad.argmax(), -1]} out of range")
        bad = ctx > vocab_size
        if bad.any():
            raise ValueError(f"context id {int(ctx.flat[bad.argmax()]) - 1} out of range")
        if ((ctx[:, :-1] != 0) & (ctx[:, 1:] == 0)).any():
            raise ValueError("begin marker after a real token")
        mass = counts.astype(np.float64)
        if mass.sum() >= 2.0**53:  # every marginal is at most this, so all are exact floats
            raise ValueError("count total reaches 2^53")
        self._rows = rows

        top = rows.astype(np.int64)
        smooth_mass = self.add_k * v1
        ids = np.zeros(len(top), dtype=np.int64)
        contexts = np.zeros(1, dtype=np.int64)  # order 1 has one context, the empty one
        self._orders: list[_Order] = []
        for i in range(order):
            if i:
                contexts, ids = np.unique(ids * v1 + top[:, order - 1 - i], return_inverse=True)
            grams, at = np.unique(ids * v1 + top[:, order - 1], return_inverse=True)
            owner = grams // v1
            den = np.append(np.bincount(ids, mass, len(contexts)) + smooth_mass, smooth_mass)
            seen = (np.bincount(at, mass, len(grams)) + self.add_k) / den[owner]
            context_ids = np.full(2 * len(contexts) + 1, len(contexts))
            context_ids[1::2] = np.arange(len(contexts))
            self._orders.append(_Order(
                np.stack((contexts, contexts + 1), axis=1).ravel(),
                context_ids,
                np.append(grams, _CODE_MAX),
                grams % v1,
                np.searchsorted(owner, np.arange(len(contexts) + 2)),
                np.append(self.weights[i] * seen, 0.0),
                self.weights[i] * (self.add_k / den),
            ))
        # a conditional sums one term per order, each at least that order's least unseen one
        if not any(t.unseen.min() > 0 for t in self._orders):
            raise ValueError("smoothed estimates underflow to 0")

    @property
    def eos_id(self) -> int:
        return self.vocab_size

    @classmethod
    def train(
        cls,
        corpus: Corpus,
        order: int = 4,
        add_k: float = 0.1,
        interpolation_weights=None,
    ) -> "NgramModel":
        """Collect n-gram counts (begin-padded, one end event per utterance).

        ``interpolation_weights`` (uniform when None) are scaled to sum to one.
        """
        if not len(corpus):
            raise ValueError("cannot train on an empty corpus")
        order = _check_size(order, "order", 1)
        if interpolation_weights is None:
            interpolation_weights = [1.0] * order
        weights = tuple(float(w) for w in interpolation_weights)
        total = _sum_in_order(weights)
        if total > 0:  # otherwise the constructor rejects the weights as given
            weights = tuple(w / total for w in weights)
        vocab = corpus.vocab_size
        windows = _windows(corpus.ids, corpus.offsets, vocab, order)[::-1].T
        windows = windows.astype(">u8", order="C")
        # as big-endian bytes, the windows sort as their (context, event) keys do
        keys, counts = np.unique(windows.view(f"V{8 * windows.shape[1]}"), return_counts=True)
        keys = keys.view(">u8").reshape(len(keys), -1)
        return cls(vocab, order, add_k, weights, np.column_stack((keys, counts)))

    def logprobs(self, seqs: Corpus | list[TokenSequence]) -> list[float]:
        """Natural-log probability of each sequence, of a corpus or a list, its end event
        included; an id outside the vocabulary raises ``IdRangeError`` naming its sequence.
        Sequences are scored in blocks of whole sequences, so memory does not grow with them."""
        corpus = _as_corpus(seqs, self.vocab_size, _OUT_OF_VOCAB)
        return [score for block in _blocks(corpus) for score in self._block_logprobs(*block)]

    def _block_logprobs(self, tokens: np.ndarray, offsets: np.ndarray) -> list[float]:
        windows = _windows(tokens, offsets, self.vocab_size, self.order)
        v1 = self.vocab_size + 1
        ids = scaled = 0  # per event, its context's id at this order, and that times V+1
        probs = 0.0
        for i, t in enumerate(self._orders):
            if i:
                ids = t.ids[t.bounds.searchsorted(scaled + windows[i], "right")]
                scaled = ids * v1
            codes = scaled + windows[0]
            at = t.grams.searchsorted(codes)
            probs = probs + np.where(t.grams[at] == codes, t.seen[at], t.unseen[ids])
        logs = map(math.log, probs.tolist())
        bounds = offsets.tolist()
        return [_sum_in_order(islice(logs, b - a + 1)) for a, b in zip(bounds, bounds[1:])]

    def logprob(self, seq: TokenSequence) -> float:
        """Natural-log probability of ``seq`` including its end event."""
        return self.logprobs([seq])[0]

    def next_dist(self, context: TokenSequence) -> np.ndarray:
        """Distribution over vocab + end event given the last order-1 tokens.

        Equal to ``logprobs``'s conditionals bit for bit: it walks the same
        context ids and adds the same weighted estimates in the same order.
        """
        context = _as_corpus([context], self.vocab_size, _OUT_OF_VOCAB).utterances[0]
        probs = self._order1_row()
        self._add_context(probs, context, np.empty_like(probs))
        return probs

    def _order1_row(self) -> np.ndarray:
        """The order-1 terms, the same for every context. Built per call, never kept:
        a loaded header may declare a vocabulary too large to allocate."""
        t = self._orders[0]
        s, e = t.starts[0], t.starts[1]
        row = np.full(self.vocab_size + 1, t.unseen[0])
        row[t.events[s:e]] = t.seen[s:e]
        return row

    def _add_context(self, row: np.ndarray, context: TokenSequence, part: np.ndarray) -> None:
        """Add the terms of orders 2..n after ``context`` to ``row``, which holds the
        order-1 terms; ``part`` is scratch of the same size."""
        v1 = self.vocab_size + 1
        c = 0
        for i, t in enumerate(self._orders[1:], 1):
            code = c * v1 + (context[-i] + 1 if i <= len(context) else 0)
            c = int(t.ids[t.bounds.searchsorted(code, "right")])
            s, e = t.starts[c], t.starts[c + 1]
            part.fill(t.unseen[c])
            part[t.events[s:e]] = t.seen[s:e]
            row += part

    def generate(
        self,
        prompt: TokenSequence,
        max_new: int,
        *,
        seed: int,
        temperature: float = 1.0,
        top_k: int | None = None,
    ) -> TokenSequence:
        """``generate_many([prompt], max_new, seeds=[seed], ...)[0]``."""
        return self.generate_many([prompt], max_new, seeds=[seed], temperature=temperature,
                                  top_k=top_k)[0]

    def generate_many(
        self,
        prompts: Sequence[TokenSequence],
        max_new: int,
        *,
        seeds: Sequence[int],
        temperature: float = 1.0,
        top_k: int | None = None,
    ) -> list[TokenSequence]:
        """Extend each prompt by sampling until the end event or ``max_new``, the
        continuation of ``prompts[i]`` drawing from ``np.random.default_rng(seeds[i])``.

        ``temperature`` scales log-probabilities before renormalization;
        0 selects greedy decoding (iterated argmax, lowest id on ties).
        ``top_k`` keeps the k most probable events before renormalizing.
        An id outside the vocabulary raises ``IdRangeError`` naming its prompt.
        """
        if len(seeds) != len(prompts):
            raise ValueError(f"got {len(seeds)} seeds for {len(prompts)} prompts")
        outs = _as_corpus(prompts, self.vocab_size, _OUT_OF_VOCAB).utterances
        max_new = _check_size(max_new, "max_new", 0)
        if not temperature >= 0:
            raise ValueError("temperature must be >= 0")
        if top_k is not None:
            top_k = _check_size(top_k, "top_k", 1)
        order1 = self._order1_row()
        with np.errstate(over="ignore"):  # a tiny temperature overflows logits to +-inf
            for start in range(0, len(outs), _ROW_BLOCK):
                rngs = map(np.random.default_rng, seeds[start : start + _ROW_BLOCK])
                rows = list(zip(outs[start : start + _ROW_BLOCK], rngs))
                self._extend(rows, order1, max_new, temperature, top_k)
        return outs

    def _extend(self, rows: list[tuple[TokenSequence, np.random.Generator]],
                order1: np.ndarray, max_new: int, temperature: float,
                top_k: int | None) -> None:
        """Extend each sequence of ``rows`` in place with its rng, one step for all
        unfinished ones at a time."""
        block = np.empty((len(rows), self.vocab_size + 1))
        part = np.empty(self.vocab_size + 1)
        for _ in range(max_new):
            if not rows:
                break
            probs = block[: len(rows)]
            for row, (out, _) in zip(probs, rows):
                row[...] = order1
                self._add_context(row, out, part)
            events = _draw(probs, [rng for _, rng in rows], temperature, top_k)
            live = []
            for (out, rng), event in zip(rows, events):
                if event != self.eos_id:
                    out.append(event)
                    live.append((out, rng))
            rows = live

    def to_bytes(self) -> bytes:
        return b"".join((
            _FIXED_HEADER.pack(NGRAM_MAGIC, NGRAM_VERSION, self.vocab_size, self.order, self.add_k),
            struct.pack(f"<{self.order}d", *self.weights),
            struct.pack("<Q", len(self._rows)),
            self._rows.tobytes(),
        ))

    def save(self, path: str) -> None:
        _save(self.to_bytes(), path)

    @classmethod
    def load(cls, path: str) -> "NgramModel":
        with open(path, "rb") as fh:
            blob = fh.read()
        vocab_size, order, add_k = _unpack_header(blob, _FIXED_HEADER, NGRAM_MAGIC,
                                                  NGRAM_VERSION, path)
        offset = _FIXED_HEADER.size
        try:
            weights = struct.unpack_from(f"<{order}d", blob, offset)
            offset += 8 * order
            (n_triples,) = struct.unpack_from("<Q", blob, offset)
            offset += 8
        except struct.error:
            raise FormatError(f"{path}: truncated header fields") from None
        if len(blob) != offset + n_triples * 8 * (order + 1):
            raise FormatError(f"{path}: payload size mismatch")
        try:
            return cls(vocab_size, order, add_k, weights, np.frombuffer(blob, "<u8", offset=offset))
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
