"""Token corpora, feature matrices, and a synthetic corpus generator.

On-disk formats handled here:

* Token file: UTF-8 text, one utterance per line, token ids written
  ``0|[1-9][0-9]*`` in ASCII and separated by spaces. An optional first
  line ``#vocab <N>`` pins the vocabulary size; without it the size
  defaults to ``1 + max(id)``. A vocab size is at most ``2**63 - 2``, so
  ids lie below it. Every text format here splits and strips
  lines on the six ASCII whitespace characters only (space, ``\t``,
  ``\n``, ``\r``, ``\v``, ``\f``); any other character is part of a field.
* Feature binary: magic ``ABPEFEAT``, u32 LE version (=1), u64 LE row
  count, u64 LE dim, then row-major little-endian float32 values.
  Every matrix, read or written in either form, must be finite and fit
  float32.
* Feature CSV: comma-separated decimals, one row per line, constant
  column count, each value a decimal ``float`` reads, in ASCII and without
  ``_``. ``load_features`` sniffs the magic bytes to pick the parser.

In memory a ``Corpus`` is one read-only int64 array of ids and the offsets
of its sequences, which every layer reads. Four rules of the package live
here. An id is an ``int`` or a numpy integer in ``[0, limit)``: ids enter
through one gate, ``_as_corpus``, whose walker ``_check_ids`` raises
``IdRangeError``. A ``Corpus`` is checked as it is built, and above the
limit takes one bound test; ``_id_stream`` takes only ids that passed the
gate. An integer parameter (a size, an order, a count) is an ``int``, a
``bool`` or a numpy integer, at least its minimum if it has one:
``_check_size`` is the one check of it and returns it as an ``int``. Floats
are summed by ``_sum_in_order``, left to right on every Python. ``_save``
writes every artifact file, whole or not at all.

Loaders depend only on file bytes and ``synth_corpus`` only on its spec,
so repeated calls give identical results.
"""

from __future__ import annotations

import operator
import os
import shutil
import struct
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain

import numpy as np

from .errors import FormatError

TokenSequence = list[int]
FeatureMatrix = np.ndarray

TOKEN_HEADER_PREFIX = "#vocab"
FEATURE_MAGIC = b"ABPEFEAT"
FEATURE_VERSION = 1
_MATRIX_HEADER = struct.Struct("<8sIQQ")
_F32_MAX = float(np.finfo(np.float32).max)
_BLOCK_TOKENS = 16384  # a batched stream holds whole sequences up to this many ids
_VOCAB_MAX = 2**63 - 2  # so vocab_size + 1, the n-gram stream's shifted end event, fits int64
_IN_CORPUS = "utterance {index}: id {id} outside [0, {limit})"


@dataclass(frozen=True, init=False, eq=False)
class Corpus:
    """Token sequences under a fixed vocabulary size, held as one read-only int64 array ``ids``
    and read-only ``offsets``: sequence i is ``ids[offsets[i]:offsets[i + 1]]``. The ids are
    checked once, as the corpus is built, so each lies in ``[0, vocab_size)``."""

    ids: np.ndarray
    offsets: np.ndarray
    vocab_size: int

    def __init__(self, utterances, vocab_size: int):
        vocab_size = _check_size(vocab_size, "vocab_size", 1, _VOCAB_MAX)
        corpus = _as_corpus(utterances, vocab_size, _IN_CORPUS)
        self.__dict__.update(vars(corpus), vocab_size=vocab_size)

    @classmethod
    def _of(cls, ids: np.ndarray, offsets: np.ndarray, vocab_size: int) -> "Corpus":
        """The corpus of int64 ``ids``, already in ``[0, vocab_size)``, and their ``offsets``."""
        corpus = object.__new__(cls)
        ids.setflags(write=False)
        offsets.setflags(write=False)
        vocab_size = _check_size(vocab_size, "vocab_size", 1, _VOCAB_MAX)
        corpus.__dict__.update(ids=ids, offsets=offsets, vocab_size=vocab_size)
        return corpus

    @property
    def utterances(self) -> list[TokenSequence]:
        """The sequences as lists of ints, built from the arrays on each call."""
        ids, offsets = self.ids.tolist(), self.offsets.tolist()
        return [ids[a:b] for a, b in zip(offsets, offsets[1:])]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.vocab_size == other.vocab_size and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.ids, other.ids))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def total_tokens(self) -> int:
        return int(self.offsets[-1])


def _check_size(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """The one check of an integer parameter: ``operator.index(value)``, a plain ``int``, if
    ``value`` is an ``int``, a ``bool`` or a numpy integer (which files write with ``%d``) within
    ``low`` and ``high`` when they are given; otherwise a ``ValueError`` naming ``name``, unless
    that is empty (a CLI option, which argparse names)."""
    must = f"{name} must be" if name else "must be"
    try:
        size = operator.index(value)
    except TypeError:
        raise ValueError(f"{must} an integer, got {value!r}") from None
    if low is not None and size < low:
        raise ValueError(f"{must} >= {low}, got {value}")
    if high is not None and size > high:
        raise ValueError(f"{must} <= {high}, got {value}")
    return size


def _sum_in_order(values) -> float:
    """The one float sum: one rounding per term, left to right, as ``sum`` before Python 3.12."""
    return reduce(operator.add, values, 0.0)


class IdRangeError(ValueError):
    """An id lies outside its range; ``index`` is the sequence that holds it."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _check_ids(seqs: list, limit: int, message: str, first: int = 0) -> None:
    """The walker of the id gate: ``IdRangeError`` unless every id of ``seqs``, a list of
    sequences, is an ``int`` or a numpy integer in ``[0, limit)``. ``message`` is formatted with
    the first bad ``id``, its position ``pos``, ``limit`` and its sequence's ``index`` counted
    from ``first``, as the error's is."""
    for i, seq in enumerate(seqs):
        rest = iter(seq)
        for t in rest:  # a bare loop, exact type first: faster than enumerate() or isinstance()
            if type(t) is not int and not isinstance(t, (int, np.integer)) or not 0 <= t < limit:
                pos = len(seq) - len(list(rest)) - 1
                raise IdRangeError(message.format(id=t, pos=pos, limit=limit, index=first + i),
                                   first + i)


def _as_corpus(seqs, limit: int, message: str) -> Corpus:
    """The id gate: ``seqs``, a Corpus or sequences, as a Corpus whose ids pass ``_check_ids``
    with ``limit`` and ``message``; a Corpus above ``limit`` is walked only if one bound test
    fails, and sequences are flattened once."""
    if isinstance(seqs, Corpus):
        if seqs.vocab_size > limit and seqs.ids.max(initial=0) >= limit:
            _check_ids(seqs.utterances, limit, message)
        return seqs
    seqs = list(seqs)  # an iterator, too
    _check_ids(seqs, limit, message)
    offsets = np.fromiter(accumulate(map(len, seqs), initial=0), np.int64, len(seqs) + 1)
    return Corpus._of(np.fromiter(chain.from_iterable(seqs), np.int64, offsets[-1]), offsets, limit)


def _id_stream(ids: np.ndarray, offsets: np.ndarray, head: list, mark: list) -> np.ndarray:
    """The int64 stream ``head, seq 0, mark, seq 1, mark, ...`` of checked ``ids`` split at
    ``offsets``."""
    if len(offsets) == 2:  # a lone sequence, as ``logprob`` and ``encode`` give
        return np.concatenate((np.array(head, dtype=np.int64), ids, np.array(mark, dtype=np.int64)))
    h, m, n = len(head), len(mark), len(offsets) - 1
    stream = np.empty(h + len(ids) + n * m, dtype=np.int64)
    at = (offsets[1:] + np.arange(h, h + n * m, m))[:, None] + np.arange(m)  # each mark's place
    stream[:h], stream[at] = head, mark
    keep = np.ones(len(stream), dtype=bool)
    keep[:h] = keep[at] = False
    stream[keep] = ids
    return stream


def _blocks(corpus: Corpus):
    """The ids and offsets (from 0) of consecutive blocks of whole sequences of ``corpus`` of up to
    ``_BLOCK_TOKENS`` ids, a longer sequence being a block of its own; no sequences, one block."""
    ids, offsets, bounds = corpus.ids, corpus.offsets, corpus.offsets.tolist()
    i, n = 0, len(bounds) - 1
    while True:
        j = min(n, max(i + 1, bisect_right(bounds, bounds[i] + _BLOCK_TOKENS) - 1))
        yield ids[bounds[i] : bounds[j]], offsets[i : j + 1] - bounds[i]
        if j == n:
            return
        i = j


_SPACE = " \t\n\r\v\f"  # the ASCII whitespace that ``bytes.split`` splits on
# the kind of each byte of a token file, for ``bytes.translate``: whitespace 0, digit 1, other 2
_KIND = bytes(0 if chr(b) in _SPACE else 1 if b in b"0123456789" else 2 for b in range(256))


def _split(line: str) -> list[str]:
    """A line of a text file split on ASCII whitespace only."""
    raw = line.encode("utf-8", "surrogatepass")  # a --prompt may hold escaped argv bytes
    return [t.decode("utf-8", "surrogatepass") for t in raw.split()]


def _parse_id(token: str) -> int:
    """One integer field in the canonical grammar ``0|[1-9][0-9]*``."""
    if token.isascii() and token.isdigit() and (token[0] != "0" or token == "0"):
        return int(token)
    raise FormatError(f"malformed integer {token!r}")


def _parse_float(token: str) -> float:
    """One decimal field: what ``float`` reads, in ASCII and without ``_``."""
    if not token.isascii() or "_" in token:
        raise FormatError(f"malformed number {token!r}")
    return float(token)  # which strips ASCII whitespace only, once non-ASCII is excluded


def _parse_ids(text: str) -> list[int]:
    """Ids separated by ASCII whitespace, each in the grammar of ``_parse_id`` and below
    ``_VOCAB_MAX``."""
    ids = []
    for token in _split(text):
        ids.append(_parse_id(token))
        if ids[-1] >= _VOCAB_MAX:
            raise FormatError(f"id {token} outside [0, {_VOCAB_MAX})")
    return ids


def _parse_vocab_header(line: str) -> int:
    parts = _split(line)
    if len(parts) != 2 or parts[0] != TOKEN_HEADER_PREFIX:
        raise FormatError("expected '#vocab <N>' header")
    vocab = _parse_id(parts[1])
    if vocab < 1:
        raise FormatError("vocab size must be >= 1")
    if vocab > _VOCAB_MAX:
        raise FormatError(f"vocab size must be <= {_VOCAB_MAX}")
    return vocab


def _token_ids(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The ids and offsets of the lines of ``text`` that are not blank, or None unless every line
    is ids that ``_parse_ids`` takes."""
    raw = text.encode()
    kind = np.frombuffer((b" " + raw + b" ").translate(_KIND), dtype=np.int8)
    if kind.max() > 1:
        return None
    edge = kind[1:] - kind[:-1]  # 1 where an id starts in ``raw``, -1 just past its end
    starts, chars = (edge == 1).nonzero()[0], np.frombuffer(raw, dtype=np.uint8)
    if (chars[starts] == ord("0"))[(edge == -1).nonzero()[0] - starts > 1].any():
        return None  # a leading zero
    # canonical decimals between ASCII whitespace now: one past int64 saturates, and fails below
    ids = np.fromstring(text, np.int64, sep=" ") if len(starts) else np.zeros(0, np.int64)
    return None if ids.max(initial=0) >= _VOCAB_MAX else (ids, _line_offsets(chars, starts))


def _line_offsets(chars: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The offsets of the tokens that begin at ``starts`` in ``chars``, the code units of a text,
    one sequence per line that holds any."""
    line = (chars == ord("\n")).nonzero()[0].searchsorted(starts)
    first = (line != np.concatenate(([-1], line[:-1]))).nonzero()[0]  # each line's first token
    return np.concatenate((first, [len(starts)]))


def _read_text(path: str) -> str:
    """A UTF-8 text file (newlines as in text mode); other bytes are a FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _read_records(lines, path: str, parse, start: int = 1, header=None) -> list:
    """The one line loop of the text formats: ``parse(line)`` on each line, counted from
    ``start``, that is not blank once stripped of ASCII whitespace; a line that ``header`` accepts
    is instead a header, allowed on line 1 only, and gives no record. A ``ValueError`` is reported
    as ``path:lineno``."""
    records = []
    for lineno, raw in enumerate(lines, start):
        line = raw.strip(_SPACE)
        if line:
            try:
                if header is None or not header(line):
                    records.append(parse(line))
                elif lineno != 1:
                    raise FormatError("header allowed on line 1 only")
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return records


def _read_corpus(path: str, read, check, vocab: int | None = None, header=None) -> Corpus:
    """One utterance per line that is not blank: ``read`` converts the whole text at once to ids
    and offsets, or gives None if a line breaks the grammar, and only then does ``_read_records``
    run ``check``, which raises the first bad line's error. With ``header``, a line 1 that starts
    with ``#`` goes to it and gives the vocab size. The vocab size, given or from the header,
    must cover every id; without one it is ``1 + max(id)``."""
    text, start = _read_text(path), 1
    is_header = None if header is None else (lambda line: line.startswith("#"))
    first, _, rest = text.partition("\n")
    if is_header and is_header(first.strip(_SPACE)):
        [vocab], text, start = _read_records([first], path, header), rest, 2
    parsed = read(text)
    if parsed is None:
        _read_records(text.split("\n"), path, check, start, is_header)
        raise AssertionError(f"{path}: the text breaks the grammar, yet none of its lines does")
    ids, offsets = parsed
    if not len(ids):
        raise FormatError(f"{path}: no utterances")
    max_id = int(ids.max())
    if vocab is not None and vocab <= max_id:
        raise FormatError(f"{path}: vocab {vocab} does not cover max id {max_id}")
    return Corpus._of(ids, offsets, max_id + 1 if vocab is None else vocab)


def load_tokens(path: str) -> Corpus:
    """Parse a token file; see the module docstring for the format."""
    return _read_corpus(path, _token_ids, _parse_ids, header=_parse_vocab_header)


def dump_tokens(corpus: Corpus) -> str:
    """Serialize a corpus to token-file text (always with a vocab header)."""
    lengths = np.diff(corpus.offsets)
    if not len(lengths):
        raise ValueError("corpus has no utterances; nothing to serialize")
    if not lengths.all():
        raise ValueError(f"utterance {lengths.argmin()} is empty; "
                         "empty sequences are unserializable")
    text = bytearray(b"%d " * len(corpus.ids))  # one format for every id, "\n" after a line's last
    np.frombuffer(text, dtype=np.uint8)[3 * corpus.offsets[1:] - 1] = ord("\n")
    header = f"{TOKEN_HEADER_PREFIX} %d\n" % corpus.vocab_size
    return header + text.decode() % tuple(corpus.ids.tolist())


def _save(data: str | bytes, path: str) -> None:
    """Write an artifact, text as UTF-8, whole or not at all: a temporary file beside ``path``
    takes an existing file's permission bits and replaces it. Devices and pipes are written
    directly."""
    blob = data if isinstance(data, bytes) else data.encode("utf-8")
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.write(blob)
        return
    target = os.path.realpath(path)  # through a symlink, as opening it would
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(blob)
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def save_tokens(corpus: Corpus, path: str) -> None:
    _save(dump_tokens(corpus), path)


def _check_matrix(values: np.ndarray, origin: str) -> np.ndarray:
    """``values`` if it is 2-D, non-empty and every value fits float32."""
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise FormatError(f"{origin}: feature matrix must be 2-D and non-empty")
    if not np.isfinite(values).all():
        raise FormatError(f"{origin}: non-finite value")
    if values.max() > _F32_MAX or values.min() < -_F32_MAX:
        raise FormatError(f"{origin}: value outside the float32 range")
    return values


def _has_magic(blob: bytes, magic: bytes) -> bool:
    return blob[: len(magic)] == magic


def _unpack_header(blob: bytes, header: struct.Struct, magic: bytes, version: int,
                   origin: str) -> tuple:
    """The fields after magic and version of a binary header that starts ``blob``.

    Every binary format here opens with an 8-byte magic and a u32 version.
    """
    if len(blob) < header.size:
        raise FormatError(f"{origin}: truncated header")
    if not _has_magic(blob, magic):
        raise FormatError(f"{origin}: bad magic {blob[: len(magic)]!r}")
    fields = header.unpack_from(blob)
    if fields[1] != version:
        raise FormatError(f"{origin}: unsupported version {fields[1]}")
    return fields[2:]


def _pack_matrix(magic: bytes, version: int, values: np.ndarray, origin: str) -> bytes:
    """Magic, u32 version, u64 rows, u64 dim, then row-major float32 values."""
    n, d = _check_matrix(values, origin).shape
    return _MATRIX_HEADER.pack(magic, version, n, d) + values.astype("<f4").tobytes()


def _unpack_matrix(blob: bytes, magic: bytes, version: int, origin: str) -> np.ndarray:
    """Inverse of ``_pack_matrix``; the values come back as float64."""
    n, d = _unpack_header(blob, _MATRIX_HEADER, magic, version, origin)
    if n < 1 or d < 1:
        raise FormatError(f"{origin}: invalid shape {n}x{d}")
    expected = _MATRIX_HEADER.size + 4 * n * d
    if len(blob) != expected:
        raise FormatError(f"{origin}: payload is {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f4", offset=_MATRIX_HEADER.size).reshape(n, d)
    return _check_matrix(values, origin).astype(np.float64)  # casting a NaN may warn


def _parse_feature_csv(text: str, path: str) -> np.ndarray:
    width = 0  # the column count of the first row

    def parse(line: str) -> list[float]:
        nonlocal width
        try:
            row = [_parse_float(cell) for cell in line.split(",")]
        except ValueError:
            raise FormatError("malformed number") from None
        width = width or len(row)
        if len(row) != width:
            raise FormatError("inconsistent column count")
        return row

    rows = _read_records(text.split("\n"), path, parse)
    if not rows:
        raise FormatError(f"{path}: no feature rows")
    return _check_matrix(np.asarray(rows, dtype=np.float64), path)


def load_features(path: str) -> FeatureMatrix:
    """Load a feature matrix from the binary format or CSV (autodetected)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if _has_magic(blob, FEATURE_MAGIC):
        return _unpack_matrix(blob, FEATURE_MAGIC, FEATURE_VERSION, path)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: neither feature binary nor CSV") from None
    return _parse_feature_csv(text, path)


def save_features(values: FeatureMatrix, path: str) -> None:
    """Write a feature matrix in the binary format (float32 payload)."""
    _save(_pack_matrix(FEATURE_MAGIC, FEATURE_VERSION, np.asarray(values, dtype=np.float64), path),
          path)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic corpus generator.

    Utterances interleave Zipf-distributed single tokens with whole copies
    of a fixed set of motif subsequences; ``motif_rate`` is the probability
    that each build step appends a motif instead of one token. Motifs are
    appended whole, so an utterance may overshoot its sampled target length
    by up to ``motif_len_range[1] - 1`` tokens.
    """

    vocab_size: int
    n_utts: int
    len_range: tuple[int, int]
    motif_count: int
    motif_len_range: tuple[int, int]
    motif_rate: float
    zipf_exponent: float
    seed: int

    def __post_init__(self) -> None:
        _check_size(self.vocab_size, "vocab_size", 2)
        _check_size(self.n_utts, "n_utts", 1)
        _check_size(self.motif_count, "motif_count", 0)
        for name in ("len_range", "motif_len_range"):
            lo, hi = getattr(self, name)
            if _check_size(lo, f"{name}[0]", 1) > _check_size(hi, f"{name}[1]", 1):
                raise ValueError(f"invalid {name} {getattr(self, name)}")
        if not 0.0 <= self.motif_rate <= 1.0:
            raise ValueError("motif_rate must be in [0, 1]")
        if self.motif_rate > 0.0 and self.motif_count < 1:
            raise ValueError("motif_rate > 0 requires at least one motif")
        if not self.zipf_exponent >= 0.0:
            raise ValueError("zipf_exponent must be >= 0")


def synth_corpus(spec: SynthSpec) -> Corpus:
    """Generate a deterministic corpus from ``spec`` (same spec, same bytes)."""
    rng = np.random.default_rng(spec.seed)
    v = spec.vocab_size

    weights = np.arange(1, v + 1, dtype=np.float64) ** -spec.zipf_exponent
    cum = np.cumsum(weights / weights.sum())

    motifs: list[list[int]] = []
    for _ in range(spec.motif_count):
        mlen = int(rng.integers(spec.motif_len_range[0], spec.motif_len_range[1] + 1))
        motifs.append([int(t) for t in rng.integers(0, v, size=mlen)])

    def zipf_token() -> int:
        return min(int(np.searchsorted(cum, rng.random(), side="right")), v - 1)

    utterances: list[TokenSequence] = []
    lo, hi = spec.len_range
    for _ in range(spec.n_utts):
        target = int(rng.integers(lo, hi + 1))
        utt: list[int] = []
        while len(utt) < target:
            if spec.motif_rate > 0.0 and rng.random() < spec.motif_rate:
                utt.extend(motifs[int(rng.integers(0, len(motifs)))])
            else:
                utt.append(zipf_token())
        utterances.append(utt)
    return Corpus(utterances, v)
