"""Cross-module stress cases around the trickier contract corners."""

import re

import numpy as np
import pytest

from abpe import (
    REGION_SIZE,
    BpeModel,
    CandidateSet,
    Corpus,
    FormatError,
    KMeansModel,
    NgramModel,
    RescoreResult,
    SynthSpec,
    auto_bleu,
    compression_stats,
    cross_entropy,
    dump_tokens,
    load_tokens,
    rescore,
    save_tokens,
    self_bleu,
    shuffle_corrupt,
    syntax_accuracy,
    tokens_to_unicode,
    topx_accuracy,
    vert,
)
from abpe.cli import _read_manifest, main
from abpe.codec import _read_unicode, _unicode_lines
from abpe.corpus import IdRangeError

from oracles import bpe_apply_merge, random_small_corpus


def test_encode_reproduces_training_segmentation():
    # applying the full merge list to a training utterance must land on the
    # exact state the trainer left it in
    rng = np.random.default_rng(61)
    for _ in range(40):
        corpus = random_small_corpus(rng, max_vocab=6, max_utts=8, max_len=16)
        target = corpus.vocab_size + int(rng.integers(1, 12))
        model = BpeModel.train(corpus, target)

        state = [list(u) for u in corpus.utterances]
        for rank, pair in enumerate(model.merges):
            state = [bpe_apply_merge(s, pair, model.base_size + rank) for s in state]
        assert [model.encode(u) for u in corpus.utterances] == state


def test_cascaded_merges_decode_in_order():
    # unit 4 = (0,1); unit 5 = (4,4); unit 6 = (5,2)
    model = BpeModel(4, [(0, 1), (4, 4), (5, 2)])
    assert model.decode([6]) == [0, 1, 0, 1, 2]
    assert len(model.decode([6])) == 5
    assert model.encode([0, 1, 0, 1, 2]) == [6]


def test_repeated_unit_merge_chain():
    # all-same streams collapse by repeated (x,x) merges without overlap bugs
    corpus = Corpus([[0] * 16, [0] * 16], 1)
    model = BpeModel.train(corpus, 4)
    assert model.merges == [(0, 0), (1, 1), (2, 2)]
    assert model.encode([0] * 16) == [3, 3]
    assert model.encode([0] * 7) == [2, 1, 0]
    assert model.decode(model.encode([0] * 7)) == [0] * 7


def test_ngram_roundtrip_with_heavy_bos_padding(tmp_path):
    # order far above the utterance lengths: contexts are mostly pads, and
    # the on-disk top-order marginals must rebuild every lower order exactly
    corpus = Corpus([[0], [1], [2, 0], [1]], 3)
    model = NgramModel.train(corpus, order=4, add_k=0.05)
    path = tmp_path / "m.ngram"
    model.save(str(path))
    loaded = NgramModel.load(str(path))
    for seq in ([0], [1], [2, 0], [0, 1, 2], []):
        assert loaded.logprob(seq) == model.logprob(seq)
    assert np.array_equal(loaded.next_dist([]), model.next_dist([]))
    assert np.array_equal(loaded.next_dist([2]), model.next_dist([2]))


def test_kmeans_on_duplicate_points_terminates():
    x = np.array([[1.0, 1.0]] * 6 + [[4.0, 4.0]] * 2)
    model = KMeansModel.fit(x, 4, seed=0)
    assert model.centroids.shape == (4, 2)
    labels = model.assign(x)
    assert len(set(labels[:6])) == 1


def test_generate_long_run_hits_max_new():
    corpus = Corpus([[0, 0, 0, 0, 0, 0, 0, 0]], 1)
    model = NgramModel.train(corpus, order=2, add_k=0.01)
    out = model.generate([0], 50, seed=1, temperature=0.0)
    assert out == [0] * 51  # greedy never picks the rare end event


def test_from_unicode_defaults_vocab_to_max_plus_one(tmp_path):
    text = tmp_path / "u.txt"
    text.write_text("丅一\n丂\n", encoding="utf-8")
    out = tmp_path / "t.tok"
    assert main(["from-unicode", "--in", str(text), "--out", str(out)]) == 0
    corpus = load_tokens(str(out))
    assert corpus.utterances == [[5, 0], [2]]
    assert corpus.vocab_size == 6


def test_to_unicode_rejects_ids_beyond_block(tmp_path, capsys):
    src = tmp_path / "big.tok"
    save_tokens(Corpus([[20992]], 20993), str(src))
    assert main(["to-unicode", "--in", str(src)]) == 1
    assert "capacity" in capsys.readouterr().err


def test_bpe_decode_unicode_output(tmp_path):
    base = Corpus([[0, 1, 0, 1]], 2)
    src = tmp_path / "b.tok"
    save_tokens(base, str(src))
    merges = tmp_path / "m.merges"
    enc = tmp_path / "e.tok"
    assert main(["bpe-train", "--vocab", "3", "--in", str(src), "--out", str(merges)]) == 0
    assert main(
        ["bpe-encode", "--model", str(merges), "--in", str(src), "--out", str(enc)]
    ) == 0
    text = tmp_path / "d.txt"
    assert main(
        [
            "bpe-decode", "--model", str(merges), "--in", str(enc),
            "--unicode", "--out", str(text),
        ]
    ) == 0
    assert text.read_text(encoding="utf-8") == "一丁一丁\n"


def test_score_accepts_encoded_corpora_end_to_end(tmp_path):
    rng = np.random.default_rng(62)
    corpus = random_small_corpus(rng, max_vocab=10, max_utts=12, max_len=25)
    bpe = BpeModel.train(corpus, corpus.vocab_size + 8)
    encoded = bpe.encode_corpus(corpus)
    enc_path = tmp_path / "enc.tok"
    save_tokens(encoded, str(enc_path))
    model_path = tmp_path / "m.ngram"
    assert main(
        ["slm-train", "--in", str(enc_path), "--order", "2", "--out", str(model_path)]
    ) == 0
    out = tmp_path / "scores.txt"
    assert main(
        ["score", "--model", str(model_path), "--in", str(enc_path), "--out", str(out)]
    ) == 0
    model = NgramModel.load(str(model_path))
    got = [float(line) for line in out.read_text().strip().split("\n")]
    assert got == [model.logprob(u) for u in encoded.utterances]
    assert all(v < 0 for v in got)


def test_weights_flag_changes_model(tmp_path):
    corpus = Corpus([[0, 1, 0, 1, 1]], 2)
    src = tmp_path / "c.tok"
    save_tokens(corpus, str(src))
    a, b = tmp_path / "a.ngram", tmp_path / "b.ngram"
    assert main(["slm-train", "--in", str(src), "--order", "2", "--out", str(a)]) == 0
    assert main(
        [
            "slm-train", "--in", str(src), "--order", "2",
            "--weights", "0.9,0.1", "--out", str(b),
        ]
    ) == 0
    ma, mb = NgramModel.load(str(a)), NgramModel.load(str(b))
    assert ma.weights == (0.5, 0.5)
    assert mb.weights == (0.9, 0.1)
    assert ma.logprob([0, 1]) != mb.logprob([0, 1])


_BPE = BpeModel(3, [(0, 1)])
_LM = NgramModel.train(Corpus([[0, 1, 2]], 3), order=2)


def _names_sequence(index, call):
    """``call``, asserting that an id error it raises is an ``IdRangeError`` for ``index``."""
    def checked(s):
        try:
            return call(s)
        except ValueError as exc:
            assert isinstance(exc, IdRangeError) and exc.index == index
            raise
    return checked


# site, its id limit, a call on a sequence, and the message for a bad id at position 1
_ID_SITES = {
    "Corpus": (3, _names_sequence(1, lambda s: Corpus([[0], s], 3)),
               "utterance 1: id {id} outside [0, 3)"),
    "encode": (3, _BPE.encode, "id {id} at position 1 is outside the base alphabet"),
    "decode": (4, _BPE.decode, "id {id} at position 1 out of range"),
    "decode_corpus": (4, _names_sequence(1, lambda s: _BPE.decode_corpus([[0], s])),
                      "id {id} at position 1 out of range"),
    "logprob": (3, _LM.logprob, "id {id} at position 1 out of vocabulary"),
    # the bad id in a later sequence of a batch: -1 is reported, never read as a begin marker
    "logprobs": (3, _names_sequence(2, lambda s: _LM.logprobs([[0], [], s, [1]])),
                 "id {id} at position 1 out of vocabulary"),
    "syntax_accuracy": (
        3, _names_sequence(3, lambda s: syntax_accuracy(_LM, [([0], [1]), ([2], s)])),
        "id {id} at position 1 out of vocabulary"),
    "cross_entropy": (3, _names_sequence(1, lambda s: cross_entropy([[2], s], _LM)),
                      "id {id} at position 1 out of vocabulary"),
    "next_dist": (3, _LM.next_dist, "id {id} at position 1 out of vocabulary"),
    "generate": (3, lambda s: _LM.generate(s, 1, seed=0),
                 "id {id} at position 1 out of vocabulary"),
    "generate_many": (3, _names_sequence(1, lambda s: _LM.generate_many([[0], s], 1,
                                                                        seeds=[0, 1])),
                      "id {id} at position 1 out of vocabulary"),
    "tokens_to_unicode": (REGION_SIZE, tokens_to_unicode,
                          "id {id} at position 1 exceeds codec capacity 20992"),
    "rescore": (3, lambda s: rescore(_LM, CandidateSet([[0], s])),
                "candidate 1: id {id} at position 1 out of vocabulary"),
    "rescore-bpe": (3, lambda s: rescore(_LM, CandidateSet([[0], s]), bpe=_BPE),
                    "candidate 1: id {id} at position 1 is outside the base alphabet"),
}


@pytest.mark.parametrize("side", ["negative", "limit"])
@pytest.mark.parametrize("site", list(_ID_SITES))
def test_every_id_check_site_rejects_out_of_range(site, side):
    limit, call, message = _ID_SITES[site]
    bad = -1 if side == "negative" else limit
    call([0, limit - 1])
    with pytest.raises(ValueError, match="^" + re.escape(message.format(id=bad)) + "$"):
        call([0, bad])


@pytest.mark.parametrize("site", ["encode", "logprobs"])
@pytest.mark.parametrize("bad", [-0.5, float("nan")])
def test_batch_id_check_rejects_a_float_that_int64_would_take(site, bad):
    # as int64, -0.5 reads 0 and NaN does not convert: both are out of range
    limit, call, message = _ID_SITES[site]
    with pytest.raises(ValueError, match="^" + re.escape(message.format(id=bad)) + "$"):
        call([0, bad])


# np.array() reads a numpy bool and a 0-d array into an int64 stream, so the batched
# sites test each id's type first
@pytest.mark.parametrize("bad", [1.5, np.float64(1.0), np.bool_(True), np.array(1)],
                         ids=["float", "np.float64", "np.bool_", "0-d array"])
@pytest.mark.parametrize("site", list(_ID_SITES))
def test_every_id_check_site_rejects_an_in_range_non_integer(site, bad):
    limit, call, message = _ID_SITES[site]
    with pytest.raises(ValueError, match="^" + re.escape(message.format(id=bad)) + "$"):
        call([0, bad])


@pytest.mark.parametrize("bad", [np.bool_(True), np.array(1)], ids=["np.bool_", "0-d array"])
def test_batched_sites_name_the_sequence_of_an_id_numpy_reads_as_an_integer(bad):
    with pytest.raises(IdRangeError, match=f"^id {bad} at position 1 is outside") as exc:
        _BPE.encode_corpus([[0, 1], [0, bad, 1], [2]])
    assert exc.value.index == 1
    with pytest.raises(IdRangeError, match=f"^id {bad} at position 2 out of vocabulary") as exc:
        _LM.logprobs([[0], [], [2, 0, bad]])
    assert exc.value.index == 2


# site, its id limit, a call on many sequences, and the message for a bad id at position 1
_CORPUS_SITES = {
    "Corpus": (3, lambda seqs: Corpus(seqs, 3), "utterance 1: id {id} outside [0, 3)"),
    "encode_corpus": (3, _BPE.encode_corpus, "id {id} at position 1 is outside the base alphabet"),
    "decode_corpus": (4, _BPE.decode_corpus, "id {id} at position 1 out of range"),
    "logprobs": (3, _LM.logprobs, "id {id} at position 1 out of vocabulary"),
    "_unicode_lines": (REGION_SIZE, _unicode_lines,
                       "id {id} at position 1 exceeds codec capacity 20992"),
}


@pytest.mark.parametrize("site", list(_CORPUS_SITES))
def test_a_corpus_above_the_limit_is_checked_as_its_lists_are(site):
    limit, call, message = _CORPUS_SITES[site]
    utterances = [[0], [0, limit + 2], [limit + 3]]
    for seqs in (Corpus(utterances, limit + 4), utterances):
        with pytest.raises(IdRangeError,
                           match="^" + re.escape(message.format(id=limit + 2)) + "$") as exc:
            call(seqs)
        assert exc.value.index == 1
    assert call(Corpus([[0], [limit - 1]], limit + 4)) == call([[0], [limit - 1]])


# a 1-D array, and whether the sites take it after [0]
_ARRAYS = {
    "int8": (np.array([1, 0], np.int8), True),
    "int8 negative": (np.array([0, -1], np.int8), False),
    "uint64 2**63": (np.array([0, 2**63], np.uint64), False),
    "bool": (np.array([False, True]), False),
    "object 1.0": (np.array([0, 1.0], object), False),
}


@pytest.mark.parametrize("array", list(_ARRAYS))
@pytest.mark.parametrize("site", list(_CORPUS_SITES))
def test_an_array_sequence_is_read_as_the_list_of_its_items(site, array):
    _, call, _ = _CORPUS_SITES[site]
    seq, taken = _ARRAYS[array]

    def outcome(s):
        try:
            return call([[0], s])
        except IdRangeError as exc:
            return str(exc), exc.index

    got = outcome(seq)
    assert got == outcome(list(seq))
    assert isinstance(got, tuple) != taken


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("site", list(_ID_SITES))
def test_every_id_check_site_accepts_numpy_integers(site, dtype):
    limit, call, _ = _ID_SITES[site]
    got, want = call([dtype(0), dtype(limit - 1)]), call([0, limit - 1])
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def test_narrow_numpy_integers_read_as_their_values():
    lm = NgramModel.train(Corpus([list(range(200)) * 2], 200), order=2)
    assert np.array_equal(lm.next_dist([np.int8(127)]), lm.next_dist([127]))
    assert lm.generate([np.int8(127)], 3, seed=0) == lm.generate([127], 3, seed=0)
    assert tokens_to_unicode([np.int16(20000), np.uint8(255)]) == tokens_to_unicode([20000, 255])


@pytest.mark.parametrize("operand", [1.5, np.float64(1.0), -1, 3])
def test_merge_operands_follow_the_id_rule(operand):
    with pytest.raises(IdRangeError, match=r"^merge 0: operand out of range for unit 3$"):
        BpeModel(3, [(0, operand)])


def test_merge_operands_of_any_integer_type_write_as_decimals():
    model = BpeModel(3, [(np.int64(0), np.int32(1)), (3, True)])
    assert model.dumps() == "#abpe 1\n#base 3\n0 1\n3 1\n"


@pytest.mark.parametrize("size", [2.0, np.float64(2.0), "2"], ids=["float", "np.float64", "str"])
def test_sizes_must_be_integers(size):
    with pytest.raises(ValueError, match=r"^vocab_size must be an integer, got "):
        Corpus([[0]], size)
    with pytest.raises(ValueError, match=r"^base_size must be an integer, got "):
        BpeModel(size, [])


def _synth(**given):
    spec = dict(vocab_size=2, n_utts=1, len_range=(1, 1), motif_count=0,
                motif_len_range=(1, 1), motif_rate=0.0, zipf_exponent=1.0, seed=0)
    return SynthSpec(**{**spec, **given})


_ONE_ROW = [(0, 1), (1, 1)]  # an order-1 table for vocab 1: event 0 and the end event once

# every integer parameter: site -> (the name its errors give, its minimum or None, a call)
_SIZE_SITES = {
    "Corpus": ("vocab_size", 1, lambda v: Corpus([[0]], v)),
    "SynthSpec.vocab_size": ("vocab_size", 2, lambda v: _synth(vocab_size=v)),
    "SynthSpec.n_utts": ("n_utts", 1, lambda v: _synth(n_utts=v)),
    "SynthSpec.motif_count": ("motif_count", 0, lambda v: _synth(motif_count=v)),
    "SynthSpec.len_range lo": ("len_range[0]", 1, lambda v: _synth(len_range=(v, 1))),
    "SynthSpec.len_range hi": ("len_range[1]", 1, lambda v: _synth(len_range=(1, v))),
    "SynthSpec.motif_len_range lo": ("motif_len_range[0]", 1,
                                     lambda v: _synth(motif_len_range=(v, 1))),
    "SynthSpec.motif_len_range hi": ("motif_len_range[1]", 1,
                                     lambda v: _synth(motif_len_range=(1, v))),
    "BpeModel": ("base_size", None, lambda v: BpeModel(v, [])),
    "BpeModel.train": ("vocab_size", None, lambda v: BpeModel.train(Corpus([[0]], 1), v)),
    "NgramModel.vocab_size": ("vocab_size", 1, lambda v: NgramModel(v, 1, 0.1, (1.0,), _ONE_ROW)),
    "NgramModel.order": ("order", 1, lambda v: NgramModel(1, v, 0.1, (1.0,), _ONE_ROW)),
    "NgramModel.train": ("order", 1, lambda v: NgramModel.train(Corpus([[0]], 1), order=v)),
    "generate.max_new": ("max_new", 0, lambda v: _LM.generate([0], v, seed=0)),
    "generate_many.max_new": ("max_new", 0, lambda v: _LM.generate_many([[0]], v, seeds=[0])),
    "generate.top_k": ("top_k", 1, lambda v: _LM.generate([0], 1, seed=0, top_k=v)),
    "generate_many.top_k": ("top_k", 1,
                            lambda v: _LM.generate_many([[0]], 1, seeds=[0], top_k=v)),
    "KMeansModel.fit.k": ("k", 1, lambda v: KMeansModel.fit(np.zeros((2, 1)), v, seed=0)),
    "KMeansModel.fit.max_iters": ("max_iters", 1, lambda v: KMeansModel.fit(
        np.zeros((2, 1)), 1, seed=0, max_iters=v)),
    "shuffle_corrupt": ("unit_len", 1, lambda v: shuffle_corrupt([0, 1], v, seed=0)),
    "auto_bleu": ("n", 1, lambda v: auto_bleu([0, 1], v)),
    "self_bleu": ("n", 1, lambda v: self_bleu([[0], [1]], v)),
    "vert": ("n", 1, lambda v: vert([[0], [1]], v)),
    "compression_stats": ("vocab_size", 1, lambda v: compression_stats(
        Corpus([[0]], 1), Corpus([[0]], 1), v)),
    "topx_accuracy": ("x", 1, lambda v: topx_accuracy([RescoreResult([0.0, 0.0], 0)], [[1, 2]], v)),
}


@pytest.mark.parametrize("bad", [2.0, np.float64(2.0), "2"], ids=["float", "np.float64", "str"])
@pytest.mark.parametrize("site", list(_SIZE_SITES))
def test_every_size_site_takes_only_integers(site, bad):
    name, _, call = _SIZE_SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got "):
        call(bad)


@pytest.mark.parametrize("site", [s for s, (_, low, _) in _SIZE_SITES.items() if low is not None])
def test_every_size_site_rejects_a_size_below_its_minimum(site):
    name, low, call = _SIZE_SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= {low}, got {low - 1}$"):
        call(low - 1)


@pytest.mark.parametrize("site", list(_SIZE_SITES))
def test_every_size_site_accepts_numpy_integers_and_bools(site):
    _, low, call = _SIZE_SITES[site]
    low = 1 if low is None else low
    call(np.int64(low))
    if low <= 1:
        call(True)


def test_ngram_sizes_follow_the_integer_rule():
    with pytest.raises(ValueError, match=r"^vocab_size must be an integer, got 2\.0$"):
        NgramModel(2.0, 1, 0.1, (1.0,), _ONE_ROW)
    with pytest.raises(ValueError, match=r"^order must be an integer, got 1\.0$"):
        NgramModel(1, 1.0, 0.1, (1.0,), _ONE_ROW)
    model = NgramModel(np.int64(1), True, 0.1, (1.0,), _ONE_ROW)
    assert type(model.vocab_size) is int and type(model.order) is int
    assert model.to_bytes() == NgramModel(1, 1, 0.1, (1.0,), _ONE_ROW).to_bytes()
    corpus = Corpus([[0, 1, 1], [1]], 2)
    trained = NgramModel.train(corpus, order=True)
    assert trained.order == 1 and type(trained.order) is int
    assert trained.to_bytes() == NgramModel.train(corpus, order=1).to_bytes()


_EMPTY_OR_SHORT = {
    "compression_stats": (lambda: compression_stats(Corpus([], 2), Corpus([], 2), 2),
                          "empty corpora"),
    "syntax_accuracy": (lambda: syntax_accuracy(_LM, []), "no syntax pairs"),
    "self_bleu": (lambda: self_bleu([[1, 2], [1]], 2), "text 1 of length 1 has no 2-grams"),
    "topx_accuracy no cases": (lambda: topx_accuracy([], [], 1), "no rescore results"),
    "topx_accuracy best_index": (
        lambda: topx_accuracy([RescoreResult([0.0, 1.0], 5)], [[1, 2]], 1),
        "case 0: best_index out of range"),
    "dump_tokens": (lambda: dump_tokens(Corpus([], 3)),
                    "corpus has no utterances; nothing to serialize"),
}


@pytest.mark.parametrize("site", list(_EMPTY_OR_SHORT))
def test_empty_or_short_input_fails_with_its_message(site):
    call, message = _EMPTY_OR_SHORT[site]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["len_range", "motif_len_range"])
def test_synth_ranges_keep_their_order_message(name):
    with pytest.raises(ValueError, match=rf"^invalid {name} \(2, 1\)$"):
        _synth(**{name: (2, 1)})


def test_sizes_of_any_integer_type_write_as_decimals():
    assert dump_tokens(Corpus([[0]], True)) == "#vocab 1\n0\n"
    assert BpeModel(np.int64(2), []).dumps() == "#abpe 1\n#base 2\n"


@pytest.mark.parametrize("block", [None, 2], ids=["one block", "blocks of 2 ids"])
def test_batched_sites_take_iterators_as_lists(monkeypatch, block):
    from abpe import corpus as corpus_module

    if block:
        monkeypatch.setattr(corpus_module, "_BLOCK_TOKENS", block)
    seqs = [[0, 1, 2], [], [2, 2, 0, 1], [1]]
    assert _LM.logprobs(iter(seqs)) == _LM.logprobs(seqs)
    assert _BPE.encode_corpus(s for s in seqs) == _BPE.encode_corpus(seqs)


def test_check_ids_names_the_first_bad_id():
    from abpe.corpus import _check_ids

    _check_ids([], 0, "unused")
    _check_ids([(0, 2), []], 3, "unused")
    with pytest.raises(IdRangeError, match=r"^5 at 1 below 3 in 4$") as exc:
        _check_ids([[1], [0, 5, -1, 7]], 3, "{id} at {pos} below {limit} in {index}", 3)
    assert exc.value.index == 4
    # the first id that is not an integer, not the first one equal to it
    with pytest.raises(IdRangeError, match=r"^1.0 at 2$"):
        _check_ids([np.array([0, 1, 1.0, 2], dtype=object)], 3, "{id} at {pos}")


_NOT_UTF8 = b"0 1\r\n\xff 2\n"  # the bad byte is byte 5 of the file


@pytest.mark.parametrize("loader", [
    load_tokens,
    _read_unicode,
    BpeModel.load,
    _read_manifest,
], ids=["tokens", "unicode", "merges", "manifest"])
def test_text_loaders_reject_non_utf8(tmp_path, loader):
    path = tmp_path / "bad.txt"
    path.write_bytes(_NOT_UTF8)
    message = f"{path}: not UTF-8 text (byte 5)"
    with pytest.raises(FormatError, match="^" + re.escape(message) + "$"):
        loader(str(path))


@pytest.mark.parametrize("sub, flag", [
    ("to-unicode", "--in"),
    ("from-unicode", "--in"),
    ("bpe-decode", "--model"),
    ("rescore", "--manifest"),
])
def test_non_utf8_input_exits_1_naming_the_file(tmp_path, capsys, sub, flag):
    bad, model = tmp_path / "bad.txt", tmp_path / "m.ngram"
    bad.write_bytes(_NOT_UTF8)
    _LM.save(str(model))
    argv = {"--in": [], "--model": ["--in", bad], "--manifest": ["--model", model]}[flag]
    assert main([sub, flag, str(bad), *map(str, argv)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (byte 5)\n"
