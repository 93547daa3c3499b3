import re

import numpy as np
import pytest

from abpe import REGION_SIZE, tokens_to_unicode, unicode_to_tokens


def test_region_size():
    assert REGION_SIZE == 20992


def test_zero_maps_to_region_base():
    assert tokens_to_unicode([0]) == "一"


def test_last_id_maps_to_region_end():
    assert tokens_to_unicode([20991]) == "鿿"


def test_empty_sequence():
    assert tokens_to_unicode([]) == ""
    assert unicode_to_tokens("") == []


def test_decode_two_chars():
    assert unicode_to_tokens("丁一") == [1, 0]


def test_capacity_error():
    with pytest.raises(ValueError, match="capacity"):
        tokens_to_unicode([20992])


def test_out_of_region_char_reports_index():
    with pytest.raises(ValueError, match="index 0"):
        unicode_to_tokens("A一")
    with pytest.raises(ValueError, match="index 1"):
        unicode_to_tokens("一A")


@pytest.mark.parametrize("text, index", [
    ("\x00", 0), ("一\u4dff", 1), ("一\ua000", 1), ("一一\U0001f600A", 2), ("\ud800一", 0),
])
def test_first_character_outside_the_block_is_reported(text, index):
    # code points just below, just above and far above the block, and a lone surrogate
    message = f"character {text[index]!r} at index {index} is outside U+4E00..U+9FFF"
    with pytest.raises(ValueError, match=re.escape(message)):
        unicode_to_tokens(text)


def test_roundtrip_random_sequences():
    rng = np.random.default_rng(8)
    for _ in range(200):
        seq = [int(t) for t in rng.integers(0, 20992, size=int(rng.integers(0, 80)))]
        text = tokens_to_unicode(seq)
        assert len(text) == len(seq)
        assert unicode_to_tokens(text) == seq


def test_roundtrip_from_text_side():
    rng = np.random.default_rng(9)
    for _ in range(50):
        text = "".join(
            chr(0x4E00 + int(c)) for c in rng.integers(0, 20992, size=30)
        )
        assert tokens_to_unicode(unicode_to_tokens(text)) == text
