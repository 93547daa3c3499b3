"""Bijection between token ids and a contiguous CJK codepoint block.

The block U+4E00..U+9FFF holds exactly 20992 codepoints; id ``i`` maps to
``chr(0x4E00 + i)``. Token streams thereby become ordinary text that any
line-based text tool can carry. Only base-alphabet ids fit in the block;
merged units stay integers.
"""

from __future__ import annotations

import numpy as np

from .corpus import _check_ids

REGION_BASE = 0x4E00
REGION_LAST = 0x9FFF
REGION_SIZE = REGION_LAST - REGION_BASE + 1  # 20992
_CHARS = "".join(map(chr, range(REGION_BASE, REGION_LAST + 1)))  # indexed by any integer type


def tokens_to_unicode(seq: list[int]) -> str:
    _check_ids([seq], REGION_SIZE, "id {id} at position {pos} exceeds codec capacity {limit}")
    return "".join([_CHARS[t] for t in seq])


def unicode_to_tokens(text: str) -> list[int]:
    # a code point below the block wraps above it, so one bound test finds every outsider
    ids = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4") - np.uint32(REGION_BASE)
    if ids.size and ids.max() >= REGION_SIZE:  # one reduction; the index only on failure
        i = int(np.argmax(ids >= REGION_SIZE))
        raise ValueError(f"character {text[i]!r} at index {i} is outside U+4E00..U+9FFF")
    return ids.tolist()
