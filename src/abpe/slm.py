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

Counts live in one table per order: context -> (context total,
``{event: count}``). ``logprob`` reads them with at most two lookups per
order. ``next_dist`` fills an add-k array per order, scatters count + add-k
over the events of the context's row and adds the weighted ratio, which
gives ``logprob``'s floats bit for bit. A context's event-id and numerator
arrays are built the first time ``next_dist`` meets it and kept; they are
never serialised.

Anything with ``logprob``/``next_dist``/``generate`` and a ``vocab_size``
can stand in for this class downstream; nothing else in the package
depends on the count-based internals.

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

import numpy as np

from .corpus import Corpus, TokenSequence, _check_ids, _unpack_header
from .errors import FormatError

NGRAM_MAGIC = b"ABPENGRM"
NGRAM_VERSION = 1
BOS = -1

_FIXED_HEADER = struct.Struct("<8sIQId")
_OUT_OF_VOCAB = "id {id} at position {pos} out of vocabulary"
_UNSEEN: tuple[int, dict[int, int]] = (0, {})


class NgramModel:
    """Count-based sequence model; immutable once constructed."""

    def __init__(
        self,
        vocab_size: int,
        order: int,
        add_k: float,
        weights: tuple[float, ...],
        counts: dict[tuple[int, ...], int],
    ):
        """Build the model from its top-order ``(context..., event) -> count``
        table, the one the model file stores (begin marker ``BOS``).

        Every parameter is checked here and nowhere else; the lower orders
        are derived as exact marginals of ``counts``.
        """
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < add_k < math.inf:
            raise ValueError("add_k must be finite and > 0")
        if len(weights) != order:
            raise ValueError(f"expected {order} interpolation weights, got {len(weights)}")
        if not all(0 <= w < math.inf for w in weights) or not sum(weights) > 0:
            raise ValueError(
                "interpolation weights must be finite and non-negative with positive sum"
            )
        self.vocab_size = vocab_size
        self.order = order
        self.add_k = float(add_k)
        self.weights = tuple(float(w) for w in weights)
        # order i + 1: the last i context symbols -> (context total, {event: count})
        tables: list[dict] = [{} for _ in range(order)]
        levels = [(order - 1 - i, tables[i]) for i in range(order)]
        for top, cnt in counts.items():
            event = top[-1]
            for skip, table in levels:
                ctx = top[skip:-1]
                row = table.get(ctx)
                if row is None:
                    table[ctx] = {event: cnt}
                else:
                    row[event] = row.get(event, 0) + cnt
        for table in tables:
            for ctx, row in table.items():  # replaces values only, so iterating is safe
                table[ctx] = (sum(row.values()), row)
        self._tables = tables
        # order i + 1: context -> (event ids, count + add_k, denominator), made when
        # next_dist first meets the context; never serialised
        self._arrays: list[dict] = [{} for _ in range(order)]

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
        if not corpus.utterances:
            raise ValueError("cannot train on an empty corpus")
        if interpolation_weights is None:
            interpolation_weights = [1.0] * order
        weights = tuple(float(w) for w in interpolation_weights)
        total = sum(weights)
        if total > 0:  # otherwise the constructor rejects the weights as given
            weights = tuple(w / total for w in weights)
        pad = [BOS] * (order - 1)
        counts: dict[tuple[int, ...], int] = {}
        for utt in corpus.utterances:
            stream = pad + list(utt) + [corpus.vocab_size]
            for j in range(len(stream) - order + 1):
                key = tuple(stream[j : j + order])
                counts[key] = counts.get(key, 0) + 1
        return cls(corpus.vocab_size, order, add_k, weights, counts)

    def _cond_prob(self, ctx: tuple[int, ...], event: int) -> float:
        smooth_mass = self.add_k * (self.vocab_size + 1)
        p = 0.0
        for i, table in enumerate(self._tables):
            total, row = table.get(ctx[self.order - 1 - i :], _UNSEEN)
            p += self.weights[i] * ((row.get(event, 0) + self.add_k) / (total + smooth_mass))
        return p

    def _pad_context(self, context) -> tuple[int, ...]:
        ctx = ((BOS,) * (self.order - 1) + tuple(context))
        return ctx[len(ctx) - (self.order - 1) :] if self.order > 1 else ()

    def logprob(self, seq: TokenSequence) -> float:
        """Natural-log probability of ``seq`` including its end event."""
        _check_ids(seq, self.vocab_size, _OUT_OF_VOCAB)
        ctx = (BOS,) * (self.order - 1)
        total = 0.0
        for x in seq:
            total += math.log(self._cond_prob(ctx, x))
            if self.order > 1:
                ctx = ctx[1:] + (x,)
        return total + math.log(self._cond_prob(ctx, self.eos_id))

    def next_dist(self, context: TokenSequence) -> np.ndarray:
        """Distribution over vocab + end event given the last order-1 tokens.

        Equal to ``_cond_prob`` at every event, bit for bit: each order adds
        ``w * (num / den)`` to the sum in the same order as there.
        """
        _check_ids(context, self.vocab_size, _OUT_OF_VOCAB)
        ctx = self._pad_context(context)
        smooth_mass = self.add_k * (self.vocab_size + 1)
        probs = np.zeros(self.vocab_size + 1, dtype=np.float64)
        num = np.empty_like(probs)
        for i, table in enumerate(self._tables):
            sub = ctx[self.order - 1 - i :]
            num.fill(self.add_k)
            den = smooth_mass
            if sub in table:
                events, seen, den = self._context_arrays(i, sub)
                num[events] = seen
            num /= den
            num *= self.weights[i]  # (num / den) * w is w * (num / den) exactly
            probs += num
        return probs

    def _context_arrays(self, i: int, ctx: tuple[int, ...]) -> tuple:
        cached = self._arrays[i].get(ctx)
        if cached is None:
            total, row = self._tables[i][ctx]
            events = np.fromiter(row, dtype=np.intp, count=len(row))
            seen = np.fromiter(row.values(), dtype=np.float64, count=len(row)) + self.add_k
            den = total + self.add_k * (self.vocab_size + 1)
            cached = self._arrays[i][ctx] = (events, seen, den)
        return cached

    def generate(
        self,
        prompt: TokenSequence,
        max_new: int,
        *,
        seed: int,
        temperature: float = 1.0,
        top_k: int | None = None,
    ) -> TokenSequence:
        """Extend ``prompt`` by sampling until the end event or ``max_new``.

        ``temperature`` scales log-probabilities before renormalization;
        0 selects greedy decoding (iterated argmax, lowest id on ties).
        ``top_k`` keeps the k most probable events before renormalizing.
        """
        _check_ids(prompt, self.vocab_size, _OUT_OF_VOCAB)
        if max_new < 0:
            raise ValueError("max_new must be >= 0")
        if not temperature >= 0:
            raise ValueError("temperature must be >= 0")
        if top_k is not None and top_k < 1:
            raise ValueError("top_k must be >= 1")
        out = list(prompt)
        rng = np.random.default_rng(seed)
        window = self.order - 1  # next_dist reads only this many tokens
        for _ in range(max_new):
            probs = self.next_dist(out[-window:] if window else [])
            event = self._sample_event(probs, rng, temperature, top_k)
            if event == self.eos_id:
                break
            out.append(event)
        return out

    @staticmethod
    def _sample_event(
        probs: np.ndarray,
        rng: np.random.Generator,
        temperature: float,
        top_k: int | None,
    ) -> int:
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

    def to_bytes(self) -> bytes:
        triples = sorted(
            (tuple(s + 1 for s in ctx), event, cnt)
            for ctx, (_, row) in self._tables[-1].items()
            for event, cnt in row.items()
        )
        parts = [
            _FIXED_HEADER.pack(
                NGRAM_MAGIC, NGRAM_VERSION, self.vocab_size, self.order, self.add_k
            ),
            struct.pack(f"<{self.order}d", *self.weights),
            struct.pack("<Q", len(triples)),
        ]
        row = struct.Struct(f"<{self.order + 1}Q")
        for ctx, event, cnt in triples:
            parts.append(row.pack(*ctx, event, cnt))
        return b"".join(parts)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "NgramModel":
        with open(path, "rb") as fh:
            blob = fh.read()
        vocab_size, order, add_k = _unpack_header(
            blob, _FIXED_HEADER, NGRAM_MAGIC, NGRAM_VERSION, path
        )
        offset = _FIXED_HEADER.size
        try:
            weights = struct.unpack_from(f"<{order}d", blob, offset)
            offset += 8 * order
            (n_triples,) = struct.unpack_from("<Q", blob, offset)
            offset += 8
        except struct.error:
            raise FormatError(f"{path}: truncated header fields") from None
        row = struct.Struct(f"<{order + 1}Q")
        if len(blob) != offset + n_triples * row.size:
            raise FormatError(f"{path}: payload size mismatch")

        counts: dict[tuple[int, ...], int] = {}
        previous: tuple[int, ...] = ()
        for values in row.iter_unpack(memoryview(blob)[offset:]):
            # one encoding per model: (context, event) keys strictly increase
            if values[:order] <= previous:
                raise FormatError(f"{path}: triples not strictly increasing")
            previous = values[:order]
            raw_ctx, event, cnt = values[: order - 1], values[order - 1], values[order]
            if cnt < 1:
                raise FormatError(f"{path}: non-positive count")
            if event > vocab_size:
                raise FormatError(f"{path}: event id {event} out of range")
            full = tuple(s - 1 for s in raw_ctx)
            seen_real = False
            for s in full:
                if s >= vocab_size:
                    raise FormatError(f"{path}: context id {s} out of range")
                if s != BOS:
                    seen_real = True
                elif seen_real:
                    raise FormatError(f"{path}: begin marker after a real token")
            counts[full + (event,)] = cnt
        try:
            return cls(vocab_size, order, add_k, weights, counts)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
