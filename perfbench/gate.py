"""Correctness gate and independent readers for the benchmark's outputs.

Each check compares the program's output with a reference that does not use
the code under test: the brute-force oracles in ``tests/oracles.py``, the
readers below (written from the documented file formats, not with the
package's loaders), or plain arithmetic. A check that fails, or raises,
counts as one failed operation.
"""

from __future__ import annotations

import importlib.util
import math
import os
import struct

import numpy as np

CODEC_BASE = 0x4E00


def load_oracles(root):
    spec = importlib.util.spec_from_file_location("oracles", os.path.join(root, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------------ readers --


def read_tokens(path):
    """Token file → (header vocab or None, utterances)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line.strip()]
    vocab = None
    if lines and lines[0].startswith("#vocab "):
        vocab = int(lines.pop(0).split()[1])
    return vocab, [[int(t) for t in line.split(" ")] for line in lines]


def read_merges(path):
    """Merges file → (base size, list of (left, right) pairs)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line]
    base = int(lines[1].split()[1])
    return base, [tuple(int(x) for x in line.split()) for line in lines[2:]]


def read_centroids(path):
    """k-means model file → float64 centroid matrix (stored as float32)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.Struct("<8sIQQ")
    _, _, k, dim = header.unpack_from(blob)
    return np.frombuffer(blob, dtype="<f4", offset=header.size).reshape(k, dim).astype(np.float64)


def read_report(path):
    """First line of a metrics report, ``name key=value ...`` → {key: float}."""
    with open(path, encoding="utf-8") as fh:
        fields = fh.readline().split()[1:]
    return {k: float(v) for k, v in (f.split("=", 1) for f in fields)}


def unit_table(base, merges):
    """Base tokens behind every unit id, built merge by merge."""
    table = [[i] for i in range(base)]
    for a, b in merges:
        if not (0 <= a < len(table) and 0 <= b < len(table)):
            raise ValueError(f"merge ({a}, {b}) uses a unit not defined before it")
        table.append(table[a] + table[b])
    return table


def expand(table, seq):
    return [t for u in seq for t in table[u]]


# --------------------------------------------------------------------- gate --


class Gate:
    """Collects check outcomes; each check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def _record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def guarded(self, name, fn):
        """Run a check body; an exception is a failed check, not a crash."""
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - any error in a check is a failure
            self._record(name, False, f"{type(exc).__name__}: {exc}")

    def equal(self, name, got, want):
        self._record(name, got == want, "differs")

    def close(self, name, got, want, rel=1e-12):
        self._record(name, math.isclose(got, want, rel_tol=rel), f"{got!r} != {want!r}")

    def merges_prefix(self, oracles, corpus, merges, m):
        """The first ``m`` merges equal the brute-force trainer's."""
        def body():
            want = oracles.bpe_train_merges(corpus, corpus.vocab_size + m)
            self._record("merges match oracles.bpe_train_merges",
                         [tuple(x) for x in merges[: len(want)]] == want, f"first {m} merges differ")
        self.guarded("merges match oracles.bpe_train_merges", body)

    def encoding(self, oracles, base, merges, base_utts, encoded):
        """Encoded utterances equal the stepwise oracle and expand back to the input."""
        name = "encode == oracles.bpe_encode_stepwise and decode(encode(x)) == x"

        def body():
            table = unit_table(base, merges)
            bad = [i for i, (u, e) in enumerate(zip(base_utts, encoded))
                   if oracles.bpe_encode_stepwise(base, merges, u) != e or expand(table, e) != u]
            ok = not bad and len(base_utts) == len(encoded)
            self._record(name, ok, f"utterances {bad[:5]} differ")
        self.guarded(name, body)

    def codec(self, utts, texts, back):
        want = ["".join(chr(CODEC_BASE + t) for t in u) for u in utts]
        self._record("codec text", list(texts) == want, "unexpected characters")
        self._record("codec round trip", list(back) == list(utts), "round trip differs")

    def nearest(self, oracles, rows, centroids, labels, indices):
        """Sampled rows' labels equal oracles.nearest_centroid_bruteforce."""
        name = "labels == oracles.nearest_centroid_bruteforce"

        def body():
            idx = [int(i) for i in indices]
            want = oracles.nearest_centroid_bruteforce(
                np.asarray(rows, dtype=np.float64)[idx].tolist(), centroids.tolist())
            got = [labels[i] for i in idx]
            self._record(name, got == want, f"rows {[i for i, a, b in zip(idx, got, want) if a != b][:5]}")
        self.guarded(name, body)

    def next_dist(self, model, contexts):
        """Each next-event distribution is positive and sums to 1 within 1e-12."""
        name = "next_dist sums to 1"

        def body():
            for ctx in contexts:
                d = model.next_dist(ctx)
                total = math.fsum(d.tolist())
                if len(d) != model.vocab_size + 1 or not (d > 0).all() or abs(total - 1) > 1e-12:
                    self._record(name, False, f"context {ctx}: sum {total!r}")
                    return
            self._record(name, True)
        self.guarded(name, body)

    def continuations(self, conts, prompts, vocab, max_new):
        """Continuations keep their prompt, stay in the vocabulary and respect max_new."""
        bad = [i for i, (c, p) in enumerate(zip(conts, prompts))
               if c[: len(p)] != list(p) or len(c) - len(p) > max_new
               or not all(0 <= t < vocab for t in c)]
        self._record("continuations valid", not bad and len(conts) == len(prompts),
                     f"continuations {bad[:5]}")

    def scores(self, path, n):
        def body():
            with open(path, encoding="utf-8") as fh:
                values = [float(line) for line in fh.read().split("\n") if line]
            ok = len(values) == n and all(math.isfinite(v) and v < 0 for v in values)
            self._record("scores finite and negative", ok, f"{len(values)} lines for {n}")
        self.guarded("scores finite and negative", body)
