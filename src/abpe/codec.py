"""Bijection between token ids and a contiguous CJK codepoint block.

The block U+4E00..U+9FFF holds exactly 20992 codepoints; id ``i`` maps to
``chr(0x4E00 + i)``. Token streams thereby become ordinary text that any
line-based text tool can carry. Only base-alphabet ids fit in the block;
merged units stay integers.
"""

from __future__ import annotations

import numpy as np

from .corpus import _SPACE, Corpus, _check_ids, _line_offsets, _read_corpus

REGION_BASE = 0x4E00
REGION_LAST = 0x9FFF
REGION_SIZE = REGION_LAST - REGION_BASE + 1  # 20992
_CHARS = "".join(map(chr, range(REGION_BASE, REGION_LAST + 1)))  # indexed by any integer type
_OVER_CAPACITY = "id {id} at position {pos} exceeds codec capacity {limit}"


def tokens_to_unicode(seq: list[int]) -> str:
    _check_ids([seq], REGION_SIZE, _OVER_CAPACITY)
    return "".join([_CHARS[t] for t in seq])


def unicode_to_tokens(text: str) -> list[int]:
    # a code point below the block wraps above it, so one bound test finds every outsider
    ids = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4") - np.uint32(REGION_BASE)
    if ids.size and ids.max() >= REGION_SIZE:  # one reduction; the index only on failure
        i = int(np.argmax(ids >= REGION_SIZE))
        raise ValueError(f"character {text[i]!r} at index {i} is outside U+4E00..U+9FFF")
    return ids.tolist()


def _unicode_lines(corpus: Corpus) -> str:
    """Each sequence of ``corpus`` as ``tokens_to_unicode`` gives it, then a newline."""
    _check_ids(corpus, REGION_SIZE, _OVER_CAPACITY)
    codes = np.insert(corpus.ids + REGION_BASE, corpus.offsets[1:], ord("\n"))
    return codes.astype("<u4").tobytes().decode("utf-32-le")


def _unicode_ids(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The ids and offsets of the lines of ``text`` that are not blank, or None unless each is one
    run of block characters, as ``unicode_to_tokens`` takes it, between ASCII whitespace."""
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4")
    ids = codes - np.uint32(REGION_BASE)
    at = (ids < REGION_SIZE).nonzero()[0]
    offsets = _line_offsets(codes, at)
    if (np.isin(np.delete(codes, at), [ord(c) for c in _SPACE], invert=True).any()
            or (at[offsets[1:] - 1] - at[offsets[:-1]] != np.diff(offsets) - 1).any()):
        return None
    return ids[at].astype(np.int64), offsets


def _read_unicode(path: str, vocab: int | None = None) -> Corpus:
    return _read_corpus(path, _unicode_ids, unicode_to_tokens, vocab)
