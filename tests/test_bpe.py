import hashlib
import re

import numpy as np
import pytest

from abpe import BpeModel, Corpus, FormatError, SynthSpec, dump_tokens
from abpe.corpus import IdRangeError

from oracles import (
    bpe_encode_stepwise,
    bpe_pair_counts,
    bpe_train_merges,
    random_small_corpus,
)
from abpe import synth_corpus


def test_vocab_equal_to_base_means_identity():
    corpus = Corpus([[0, 1, 0, 1]], 2)
    model = BpeModel.train(corpus, 2)
    assert model.merges == []
    assert model.encode([0, 1, 1, 0]) == [0, 1, 1, 0]


def test_single_merge_on_abab_corpus():
    # pair (0,1) occurs 3 times, (1,0) once
    corpus = Corpus([[0, 1, 0, 1], [0, 1]], 2)
    assert bpe_pair_counts(corpus.utterances) == {(0, 1): 3, (1, 0): 1}
    model = BpeModel.train(corpus, 3)
    assert model.merges == [(0, 1)]


def test_nonoverlapping_counting_on_runs():
    counts = {}
    from abpe.bpe import _count_pairs

    _count_pairs([7, 7, 7], counts)
    assert counts == {(7, 7): 1}
    counts = {}
    _count_pairs([7, 7, 7, 7], counts)
    assert counts == {(7, 7): 2}
    counts = {}
    _count_pairs([7, 7, 3], counts)
    assert counts == {(7, 7): 1, (7, 3): 1}


def test_encode_priority_example():
    model = BpeModel(2, [(0, 1)])
    assert model.encode([0, 1, 0, 1, 1]) == [2, 2, 1]
    # any sequence of ints, not only a list
    assert model.encode(np.array([0, 1, 0, 1, 1])) == model.encode((0, 1, 0, 1, 1)) == [2, 2, 1]


def test_encode_requires_base_ids():
    model = BpeModel(2, [(0, 1)])
    with pytest.raises(ValueError, match="base alphabet"):
        model.encode([2])


def test_decode_single_merge():
    model = BpeModel(2, [(0, 1)])
    assert model.decode([2]) == [0, 1]
    assert model.decode([0, 1, 2]) == [0, 1, 0, 1]


def test_decode_base_only_unchanged():
    model = BpeModel(4, [(0, 1), (4, 2)])
    assert model.decode([3, 2, 1]) == [3, 2, 1]


def test_decode_rejects_out_of_range():
    model = BpeModel(2, [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        model.decode([3])


def test_decode_corpus_takes_a_plain_list():
    model = BpeModel(2, [(0, 1)])
    assert model.decode_corpus([[2, 0], [], [1, 2]]) == Corpus([[0, 1, 0], [], [1, 0, 1]], 2)


def test_decode_corpus_names_the_utterance_of_a_bad_id():
    model = BpeModel(2, [(0, 1)])
    with pytest.raises(IdRangeError, match="^id 5 at position 1 out of range$") as exc:
        model.decode_corpus(Corpus([[0, 2], [1, 5]], 6))
    assert exc.value.index == 1


def test_decode_returns_plain_ints():
    model = BpeModel(2, [(True, 0)])  # a bool operand is the id 1
    out = model.decode([np.int64(1), 2, True])
    assert out == [1, 1, 0, 1] and {type(t) for t in out} == {int}


def test_unit_len_tracks_merge_tree():
    model = BpeModel(3, [(0, 1), (3, 2), (4, 4)])
    assert [len(model.decode([u])) for u in range(6)] == [1, 1, 1, 2, 3, 6]


def test_trainer_matches_oracle_on_random_small_corpora():
    rng = np.random.default_rng(21)
    for _ in range(120):
        corpus = random_small_corpus(rng, max_vocab=6, max_utts=8, max_len=12)
        target = corpus.vocab_size + int(rng.integers(0, 12))
        model = BpeModel.train(corpus, target)
        assert model.merges == bpe_train_merges(corpus, target)


def test_encode_matches_stepwise_oracle():
    rng = np.random.default_rng(22)
    for _ in range(60):
        corpus = random_small_corpus(rng, max_vocab=5, max_utts=6, max_len=14)
        model = BpeModel.train(corpus, corpus.vocab_size + int(rng.integers(1, 10)))
        for _ in range(5):
            seq = [
                int(t)
                for t in rng.integers(0, corpus.vocab_size, size=int(rng.integers(0, 25)))
            ]
            assert model.encode(seq) == bpe_encode_stepwise(
                model.base_size, model.merges, seq
            )


def test_roundtrip_random_sequences():
    rng = np.random.default_rng(23)
    for _ in range(30):
        corpus = random_small_corpus(rng, max_vocab=8, max_utts=10, max_len=20)
        model = BpeModel.train(corpus, corpus.vocab_size + int(rng.integers(0, 15)))
        for _ in range(20):
            seq = [
                int(t)
                for t in rng.integers(0, corpus.vocab_size, size=int(rng.integers(1, 60)))
            ]
            assert model.decode(model.encode(seq)) == seq


def test_expanded_unit_lengths_conserved():
    rng = np.random.default_rng(24)
    corpus = random_small_corpus(rng, max_vocab=6, max_utts=8, max_len=20)
    model = BpeModel.train(corpus, corpus.vocab_size + 10)
    for utt in corpus.utterances:
        encoded = model.encode(utt)
        assert sum(len(model.decode([u])) for u in encoded) == len(utt)


def _small_motif():
    from abpe import SynthSpec

    return synth_corpus(
        SynthSpec(30, 40, (20, 40), 3, (3, 5), 0.5, 1.2, seed=13)
    )


def test_training_shrinks_corpus_when_merges_exist():
    corpus = _small_motif()
    model = BpeModel.train(corpus, corpus.vocab_size + 20)
    assert len(model.merges) >= 1
    encoded = model.encode_corpus(corpus)
    assert encoded.total_tokens() < corpus.total_tokens()


def test_monotone_vocabulary_prefix_property():
    corpus = _small_motif()
    full = BpeModel.train(corpus, corpus.vocab_size + 25)
    for m in (0, 5, 12):
        partial = BpeModel.train(corpus, corpus.vocab_size + m)
        assert partial.merges == full.merges[:m]


def test_training_is_deterministic():
    corpus = _small_motif()
    a = BpeModel.train(corpus, corpus.vocab_size + 15)
    b = BpeModel.train(corpus, corpus.vocab_size + 15)
    assert a == b and a.dumps() == b.dumps()


def test_golden_merges_and_encoding_at_paper_scale():
    """Base 500, +1500 merges on motif-rich utterances: the digests pin every
    merge and every encoded token, so a faster trainer must reproduce them."""
    corpus = synth_corpus(SynthSpec(500, 160, (30, 60), 200, (6, 14), 0.6, 1.2, seed=8))
    model = BpeModel.train(corpus, 2000)
    assert len(model.merges) == 1500

    def sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    assert sha(model.dumps()) == (
        "3595c229a837f9ad3c86415d21f7adaadf78ce6c02f2a7d7cb334b021052ad41")
    assert sha(dump_tokens(model.encode_corpus(corpus))) == (
        "7c609d4670fc90d71f1051958b0b77e396afdd6cfbfb3748362d4dad19998d03")


def test_site_below_both_neighbours_waits_for_a_lower_merge_beside_it():
    # (0, 0) ranks below its neighbours' pairs, but merging (44, 48) first
    # makes (0, 50), which outranks (0, 0) and takes the second 0
    model = BpeModel(50, [(44, 48), (0, 50), (0, 0)])
    seq = [0, 0, 44, 48, 0, 0]
    assert model.encode(seq) == [0, 51, 52] == bpe_encode_stepwise(50, model.merges, seq)


def test_no_merge_crosses_an_utterance_boundary():
    # with codes left * vocab_size + right, the pair (0, separator) would have
    # the code of (1, 0) and merge the first utterance's last 0 across the end
    model = BpeModel(2, [(1, 0)])
    corpus = Corpus([[1, 0, 0], [1, 1], [0], []], 2)
    assert model.encode_corpus(corpus).utterances == [[2, 0], [1, 1], [0], []]


def test_corpus_longer_than_one_encoding_block_matches_oracle():
    from abpe.corpus import _BLOCK_TOKENS

    corpus = synth_corpus(SynthSpec(8, 450, (30, 50), 6, (3, 6), 0.6, 1.2, seed=5))
    assert corpus.total_tokens() > _BLOCK_TOKENS
    model = BpeModel.train(corpus, 48)
    assert model.encode_corpus(corpus).utterances == [
        bpe_encode_stepwise(model.base_size, model.merges, u) for u in corpus.utterances]
    # a bad id in a later block names its utterance's index in the whole corpus
    with pytest.raises(IdRangeError, match="^id 8 at position 1 is outside") as exc:
        model.encode_corpus(corpus.utterances + [[0, 8]])
    assert exc.value.index == len(corpus)


def test_pair_that_falls_to_a_tie_loses_to_the_smaller_pair():
    # merge 1, (4, 0), takes (3, 4) from 3 to 2, level with (1, 2): the smaller
    # pair wins, not (3, 4) on the count it had before merge 1
    utts = [[3, 4, 0], [4, 0], [4, 0], [4, 0], [3, 4], [3, 4], [1, 2], [1, 2]]
    corpus = Corpus(utts, 5)
    model = BpeModel.train(corpus, 10)
    assert model.merges == [(4, 0), (1, 2), (3, 4)] == bpe_train_merges(corpus, 10)


def test_merge_that_makes_a_run_counts_the_run_non_overlapping():
    # a b a b a b -> X X X holds one (X, X), not two, so training stops there
    corpus = Corpus([[0, 1, 0, 1, 0, 1]], 2)
    assert BpeModel.train(corpus, 10).merges == [(0, 1)] == bpe_train_merges(corpus, 10)


@pytest.mark.parametrize("utts, first", [
    ([[0, 0, 0, 1]] * 2 + [[0, 1]], (0, 1)),  # a run of a left of the site (a, b)
    ([[1, 0, 0, 0]] * 2 + [[1, 0]], (1, 0)),  # a run of b right of the site (a, b)
    ([[0, 1, 0, 1, 0, 1]] * 2, (0, 1)),  # adjacent sites merge into a run
    ([[0, 0, 1, 0, 0, 1]] * 2 + [[0, 1]], (0, 1)),  # sites between runs of a
    ([[2, 0, 0, 0, 0, 0, 1, 1, 1, 2, 0, 1, 0, 1, 1]] * 2, (0, 1)),
    ([[0, 0, 1]] * 2 + [[0, 1]], (0, 1)),  # an even run of a left of the site
    ([[0, 1, 1]] * 2 + [[0, 1]], (0, 1)),  # an even run of b right of the site
    ([[0, 1, 0, 1]] * 2, (0, 1)),  # a chain of 2 sites
    ([[0, 1] * 4] * 2, (0, 1)),  # a chain of 4 sites
    ([[2, 0, 0, 0, 0, 2]] * 2, (0, 0)),  # an even run of (a, a) between neighbours
    ([[2, 0, 0, 0, 0, 0, 2]] * 2, (0, 0)),  # an odd run of (a, a) between neighbours
    ([[0, 0, 0]] * 2, (0, 0)),  # a run that fills its utterance
], ids=["aaab", "baaa", "ababab", "aabaab", "mixed", "aab", "abb", "abab", "abababab",
        "caaaac", "caaaaac", "aaa"])
def test_sites_beside_runs_match_oracle(utts, first):
    corpus = Corpus(utts, 3)
    merges = BpeModel.train(corpus, 20).merges
    assert merges[0] == first
    assert merges == bpe_train_merges(corpus, 20)


def test_long_runs_match_oracle():
    # a run of 5000 and a chain of 2000 sites: each merge walks each run once,
    # so training stays linear
    corpus = Corpus([[0] * 5000 + [1, 0] * 2000], 2)
    assert BpeModel.train(corpus, 40).merges == bpe_train_merges(corpus, 40)


def test_utterances_of_any_sequence_type_train_alike():
    lists = [[0, 1, 0, 1, 1, 1, 0], [], [1, 1, 1, 0, 1]]
    want = BpeModel.train(Corpus(lists, 2), 8).merges
    assert want == bpe_train_merges(Corpus(lists, 2), 8)
    for utts in ([np.array(u, dtype=np.int64) for u in lists], [tuple(u) for u in lists],
                 [np.array(u, dtype=np.uint8) for u in lists]):
        assert BpeModel.train(Corpus(utts, 2), 8).merges == want


def test_stops_when_no_pair_repeats():
    corpus = Corpus([[0, 1, 2, 3]], 4)
    model = BpeModel.train(corpus, 100)
    assert model.merges == []


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        BpeModel.train(Corpus([], 4), 10)


def test_vocab_below_base_rejected():
    with pytest.raises(ValueError, match="below"):
        BpeModel.train(Corpus([[0, 1]], 2), 1)


def test_exact_round_count_with_paper_scale_base(tmp_path):
    # base alphabet of 2000 with exactly 50 supportable merges
    utts = []
    for i in range(50):
        a, b = 2 * i, 2 * i + 1
        utts.append([a, b, a, b])
    corpus = Corpus(utts + [[1999]], 2000)
    model = BpeModel.train(corpus, 2050)
    assert model.base_size == 2000
    assert len(model.merges) == 50 == 2050 - 2000


def test_too_wide_a_base_fails_before_the_first_merge(monkeypatch):
    from abpe import bpe

    def never(seq, counts):
        raise AssertionError("pairs counted before the base size was checked")

    monkeypatch.setattr(bpe, "_count_pairs", never)
    corpus = Corpus([[0, 1, 0, 1]], bpe.MAX_BASE_SIZE + 1)
    with pytest.raises(ValueError, match=r"^base_size must be in \[1, 20992\]$"):
        BpeModel.train(corpus, bpe.MAX_BASE_SIZE + 3)


class TestMergesFile:
    def test_exact_bytes_for_tiny_model(self, tmp_path):
        path = tmp_path / "m.merges"
        BpeModel(2, [(0, 1)]).save(str(path))
        assert path.read_text(encoding="utf-8") == "#abpe 1\n#base 2\n0 1\n"

    def test_roundtrip_trained_model(self, tmp_path):
        corpus = _small_motif()
        model = BpeModel.train(corpus, corpus.vocab_size + 25)
        path = tmp_path / "m.merges"
        model.save(str(path))
        assert BpeModel.load(str(path)) == model

    def test_dangling_unit_reference_rejected(self, tmp_path):
        path = tmp_path / "m.merges"
        path.write_text("#abpe 1\n#base 2\n0 1\n0 7\n1 2\n", encoding="utf-8")
        with pytest.raises(FormatError, match="out of range"):
            BpeModel.load(str(path))

    def test_duplicate_merge_rejected(self, tmp_path):
        path = tmp_path / "m.merges"
        path.write_text("#abpe 1\n#base 2\n0 1\n0 1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="duplicate"):
            BpeModel.load(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.merges"
        path.write_text("#abpe 9\n#base 2\n0 1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="version"):
            BpeModel.load(str(path))

    @pytest.mark.parametrize("line, token", [("0\u30001", "0\u30001"), ("0\x1c1", "0\x1c1")])
    def test_merge_line_splits_on_ascii_whitespace_only(self, tmp_path, line, token):
        path = tmp_path / "m.merges"
        path.write_text(f"#abpe 1\n#base 2\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf":3: malformed integer {re.escape(repr(token))}$"):
            BpeModel.load(str(path))

    @pytest.mark.parametrize("header, message", [
        ("#abpe\u30001\n#base 2", "unsupported merges version"),
        ("#abpeXYZ 1\n#base 2", "unsupported merges version"),
        ("#abpe 1\n#base\x1c2", "missing '#base <N>' line"),
    ])
    def test_merges_headers_split_on_ascii_whitespace_only(self, tmp_path, header, message):
        path = tmp_path / "m.merges"
        path.write_text(f"{header}\n0 1\n", encoding="utf-8")
        with pytest.raises(FormatError, match=message):
            BpeModel.load(str(path))

    def test_merge_lines_take_any_ascii_whitespace(self, tmp_path):
        path = tmp_path / "m.merges"
        path.write_text("#abpe\t1\n#base  2 \n0\t1\r\n\v2 2\n", encoding="utf-8")
        assert BpeModel.load(str(path)) == BpeModel(2, [(0, 1), (2, 2)])

    @pytest.mark.parametrize("line", ["0 1 2", "5"])
    def test_merge_line_needs_two_ids(self, tmp_path, line):
        path = tmp_path / "m.merges"
        path.write_text(f"#abpe 1\n#base 2\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":3: expected 'left right'$"):
            BpeModel.load(str(path))
