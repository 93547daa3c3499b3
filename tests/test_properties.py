"""Property tests of BPE, the n-gram model, k-means assignment and k-means++
seeding, against the oracles where they exist.

Alphabets of 2-4 symbols (2-6 for the wide trainer corpora) make runs and
tied pair counts common; k-means inputs of small integers make tied and
duplicated centroids common. The settings are fixed (derandomized, no example
database), so every run of the same tree checks the same examples.
"""

import math
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from abpe import (BpeModel, Corpus, FormatError, KMeansModel, NgramModel, load_tokens, save_tokens,
                  slm)
from abpe import corpus as corpus_module
from abpe.bpe import _count_pairs
from abpe.codec import _read_unicode
from abpe.corpus import IdRangeError, _code_table
from abpe.kmeans import _Rows, _as_features, _nearest, _plusplus_init

from oracles import (
    bpe_decode_naive,
    bpe_encode_stepwise,
    bpe_pair_counts,
    bpe_train_merges,
    kmeans_plusplus_naive,
    nearest_centroid_bruteforce,
    ngram_cond_prob,
    ngram_logprob,
    read_token_file,
    read_unicode_file,
    sampled_continuation,
)

PROFILE = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# Hypothesis caches the constants it reads from local source files in its home
# directory, ./.hypothesis by default, and its pytest plugin does so while tests
# are collected: point it, at import, at a directory removed when Python exits
_HOME = tempfile.TemporaryDirectory(prefix="abpe-hypothesis-")
set_hypothesis_home_dir(_HOME.name)


@st.composite
def corpora(draw):
    vocab = draw(st.integers(2, 4))
    ids = st.integers(0, vocab - 1)
    utts = draw(st.lists(st.lists(ids, min_size=1, max_size=16), min_size=1, max_size=6))
    return Corpus(utts, vocab)


@st.composite
def wide_corpora(draw):
    """More and longer utterances than ``corpora``: a merge touches some of
    them and not others, and pair counts fall over many merges."""
    vocab = draw(st.integers(2, 6))
    ids = st.integers(0, vocab - 1)
    utts = draw(st.lists(st.lists(ids, min_size=1, max_size=40), min_size=1, max_size=40))
    return Corpus(utts, vocab)


@st.composite
def run_corpora(draw):
    """Utterances made of runs of 1-30 equal units over 2-3 symbols: merges of (a, a),
    sites beside runs, and chains such as a b a b that merge into runs."""
    vocab = draw(st.integers(2, 3))
    run = st.tuples(st.integers(0, vocab - 1), st.integers(1, 30))
    utts = draw(st.lists(st.lists(run, min_size=1, max_size=8), min_size=1, max_size=6))
    return Corpus([[unit for unit, n in u for _ in range(n)] for u in utts], vocab)


@st.composite
def models_and_sequences(draw):
    """A BPE model trained on a drawn corpus, and a sequence over its base alphabet."""
    corpus = draw(corpora())
    model = BpeModel.train(corpus, corpus.vocab_size + draw(st.integers(0, 10)))
    seq = draw(st.lists(st.integers(0, corpus.vocab_size - 1), max_size=24))
    return model, seq


@PROFILE
@given(models_and_sequences())
def test_decode_inverts_encode(case):
    model, seq = case
    assert model.decode(model.encode(seq)) == seq


@PROFILE
@given(models_and_sequences())
def test_encode_matches_stepwise_oracle(case):
    model, seq = case
    assert model.encode(seq) == bpe_encode_stepwise(model.base_size, model.merges, seq)


@st.composite
def random_models(draw):
    """A model of up to 12 random merges over 1-4 base units: many (a, a), some operands
    written as bools."""
    base = draw(st.integers(1, 4))
    merges = []
    for _ in range(draw(st.integers(0, 12))):
        unit = st.integers(0, base + len(merges) - 1)
        a = draw(unit)
        pair = (a, draw(st.one_of(st.just(a), unit)))
        if pair not in merges:
            merges.append(tuple(bool(x) if x < 2 and draw(st.booleans()) else x for x in pair))
    return BpeModel(base, merges)


@st.composite
def chain_models(draw):
    """A model whose last unit tops a chain of 100-150 merges, each of the unit before and a
    base unit on a drawn side, over a few other merges."""
    base = draw(st.integers(1, 3))
    merges = [(0, base - 1)]
    for left in draw(st.lists(st.booleans(), min_size=99, max_size=149)):
        unit = draw(st.integers(0, base - 1))
        top = base + len(merges) - 1
        merges.append((top, unit) if left else (unit, top))
    return BpeModel(base, merges)


@st.composite
def decode_cases(draw, models):
    """A model and a corpus of its units, possibly empty, with empty utterances among them."""
    model = draw(models)
    unit = st.integers(0, model.vocab_size - 1)
    top = st.just(model.vocab_size - 1)  # the deepest unit of a chain
    return model, draw(st.lists(st.lists(st.one_of(unit, top), max_size=12), max_size=6))


_DECODE_INPUTS = {
    "Corpus": lambda utts, vocab: Corpus(utts, vocab),
    "list": lambda utts, vocab: utts,
    "numpy": lambda utts, vocab: [np.array(u, dtype=np.int64) for u in utts],
}


@pytest.mark.parametrize("kind", list(_DECODE_INPUTS))
@PROFILE
@given(st.one_of(decode_cases(random_models()), decode_cases(chain_models())))
def test_decode_corpus_matches_naive_oracle(kind, case):
    model, utts = case
    decoded = model.decode_corpus(_DECODE_INPUTS[kind](utts, model.vocab_size))
    want = [bpe_decode_naive(model.base_size, model.merges, u) for u in utts]
    assert decoded.utterances == want and decoded.vocab_size == model.base_size
    assert [model.decode(u) for u in utts] == want


@st.composite
def models_and_corpora(draw):
    """A model trained on a drawn corpus over 1-4 symbols (0 merges among
    them), and a corpus over its base alphabet to encode. Sorted utterances
    give long runs; empty and one-token utterances sit between the others."""
    vocab = draw(st.integers(1, 4))
    ids = st.integers(0, vocab - 1)
    utt = st.lists(ids, max_size=24)
    utt = st.one_of(utt, utt.map(sorted))
    train = draw(st.lists(utt.filter(len), min_size=1, max_size=6))
    model = BpeModel.train(Corpus(train, vocab), vocab + draw(st.integers(0, 12)))
    return model, Corpus(draw(st.lists(utt, max_size=8)), vocab)


def _check_encode_corpus(model, corpus):
    encoded = model.encode_corpus(corpus).utterances
    assert encoded == [bpe_encode_stepwise(model.base_size, model.merges, u)
                       for u in corpus.utterances]
    # and no merge crosses an utterance boundary
    assert encoded == [model.encode_corpus([u]).utterances[0] for u in corpus.utterances]


@PROFILE
@given(models_and_corpora())
def test_encode_corpus_matches_stepwise_oracle(case):
    _check_encode_corpus(*case)


@st.composite
def chain_corpora(draw):
    """A chain model and a corpus over its base alphabet: the top unit of the chain spelled
    in base units, which takes up to 150 rounds to encode, beside short and empty
    utterances that finish in a few."""
    model = draw(chain_models())
    utts = draw(st.lists(st.lists(st.integers(0, model.base_size - 1), max_size=4),
                         max_size=6))
    utts.insert(draw(st.integers(0, len(utts))), model.decode([model.vocab_size - 1]))
    return model, Corpus(utts, model.base_size)


@PROFILE
@given(chain_corpora())
def test_encode_corpus_matches_stepwise_oracle_as_utterances_finish_apart(case):
    _check_encode_corpus(*case)


@PROFILE
@given(st.one_of(models_and_corpora(), chain_corpora()))
def test_encode_corpus_matches_stepwise_oracle_over_several_blocks(case):
    with mock.patch.object(corpus_module, "_BLOCK_TOKENS", 8):
        _check_encode_corpus(*case)


@PROFILE
@given(corpora())
def test_pair_counts_match_oracle(corpus):
    counts = {}
    for utt in corpus.utterances:
        _count_pairs(utt, counts)
    assert counts == bpe_pair_counts(corpus.utterances)
    # the trainer's one stream, -1 around each utterance: the same counts, and every position
    stream = [-1] + [t for u in corpus.utterances for t in u + [-1]]
    counts = {}
    where = _count_pairs(stream, counts)
    assert counts == bpe_pair_counts(corpus.utterances)
    pairs = list(zip(stream, stream[1:]))
    assert where == {pair: [p for p, q in enumerate(pairs) if q == pair] for pair in counts}


@PROFILE
@given(corpora(), st.integers(0, 12))
def test_train_matches_oracle(corpus, extra):
    target = corpus.vocab_size + extra
    assert BpeModel.train(corpus, target).merges == bpe_train_merges(corpus, target)


@PROFILE
@given(wide_corpora(), st.integers(0, 30))
def test_train_matches_oracle_on_wide_corpora(corpus, extra):
    target = corpus.vocab_size + extra
    assert BpeModel.train(corpus, target).merges == bpe_train_merges(corpus, target)


@PROFILE
@given(run_corpora(), st.integers(0, 30))
def test_train_matches_oracle_on_run_corpora(corpus, extra):
    target = corpus.vocab_size + extra
    assert BpeModel.train(corpus, target).merges == bpe_train_merges(corpus, target)


@PROFILE
@given(st.lists(st.integers(1, 3), max_size=12), st.data())
def test_code_table_is_a_dict_lookup(gaps, data):
    """Codes from 0 with gaps of 1-3, so adjacent codes c, c + 1 are common,
    each mapped to a distinct value; every query from one below the least
    code to two above the largest finds its code's value, or ``missing``."""
    codes = np.array([0] + gaps, dtype=np.int64).cumsum()
    values = np.array(data.draw(st.permutations(range(len(codes)))), dtype=np.int64)
    bounds, table = _code_table(codes, values, len(codes))
    lookup = dict(zip(codes.tolist(), values.tolist()))
    queries = np.arange(codes[0] - 1, codes[-1] + 3)
    assert (table[bounds.searchsorted(queries, "right")].tolist()
            == [lookup.get(q, len(codes)) for q in queries.tolist()])


def test_an_empty_code_table_maps_every_code_to_missing():
    bounds, table = _code_table(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 7)
    assert table[bounds.searchsorted([-1, 0, 5], "right")].tolist() == [7, 7, 7]


@PROFILE
@given(corpora(), st.integers(1, 4), st.data())
def test_next_dist_sums_to_one(corpus, order, data):
    add_k = data.draw(st.floats(1e-3, 10.0))
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=order, max_size=order)
                        .filter(lambda ws: sum(ws) > 0))
    model = NgramModel.train(corpus, order=order, add_k=add_k, interpolation_weights=weights)
    context = data.draw(st.lists(st.integers(0, corpus.vocab_size - 1), max_size=5))
    assert abs(model.next_dist(context).sum() - 1.0) <= 1e-12


@PROFILE
@given(corpora(), st.integers(1, 4), st.data())
def test_next_dist_is_the_scoring_path(corpus, order, data):
    """``logprob`` and ``next_dist`` agree exactly, and both match the oracle."""
    add_k = data.draw(st.floats(1e-3, 10.0))
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=order, max_size=order)
                        .filter(lambda ws: sum(ws) > 0))
    model = NgramModel.train(corpus, order=order, add_k=add_k, interpolation_weights=weights)
    seq = data.draw(st.lists(st.integers(0, corpus.vocab_size - 1), max_size=8))
    total = 0.0  # summed left to right, as logprob does
    for i, x in enumerate(seq):
        total += math.log(model.next_dist(seq[:i])[x])
    assert model.logprob(seq) == total + math.log(model.next_dist(seq)[model.eos_id])
    dist = model.next_dist(seq)
    for event in range(corpus.vocab_size + 1):
        want = ngram_cond_prob(corpus, order, add_k, model.weights, seq, event)
        assert abs(dist[event] - want) <= 1e-12


@PROFILE
@given(corpora(), st.integers(1, 5), st.data())
def test_logprobs_is_logprob_per_sequence(corpus, order, data):
    """One ``logprobs`` call over many sequences gives each ``logprob`` bit for
    bit, and both match the oracle; sequences may be empty, shorter than the
    context, tuples or numpy arrays."""
    add_k = data.draw(st.floats(1e-3, 10.0))
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=order, max_size=order)
                        .filter(lambda ws: sum(ws) > 0))
    model = NgramModel.train(corpus, order=order, add_k=add_k, interpolation_weights=weights)
    seq = st.lists(st.integers(0, corpus.vocab_size - 1), max_size=8)
    shape = st.sampled_from([list, tuple, lambda s: np.array(s, dtype=np.int64)])
    seqs = [kind(s) for s, kind in data.draw(st.lists(st.tuples(seq, shape), max_size=6))]
    scores = model.logprobs(seqs)
    assert scores == [model.logprob(s) for s in seqs]
    for s, score in zip(seqs, scores):
        want = ngram_logprob(corpus, order, add_k, model.weights, s)
        assert abs(score - want) <= 1e-12


@st.composite
def rows_and_centroids(draw, values=st.integers(-3, 3)):
    """Up to 12 rows and 10 centroids of dim 1-6 over ``values``; some
    centroids repeat, and some rows sit on a centroid or halfway between two."""
    dim = draw(st.integers(1, 6))
    vector = st.lists(values, min_size=dim, max_size=dim)
    centroids = draw(st.lists(vector, min_size=1, max_size=7))
    centroids = draw(st.permutations(centroids + draw(st.lists(st.sampled_from(centroids),
                                                               max_size=3))))
    rows = draw(st.lists(vector, min_size=1, max_size=8))
    pairs = st.tuples(st.sampled_from(centroids), st.sampled_from(centroids))
    rows += [[(a + b) / 2 for a, b in zip(*pair)] for pair in draw(st.lists(pairs, max_size=4))]
    return np.array(rows, dtype=np.float64), np.array(centroids, dtype=np.float64)


def fit_rows(x):
    return _Rows.for_fit(*_as_features(x))


def check_nearest(x, centroids):
    labels, dists = _nearest(fit_rows(x), centroids)
    assert labels.tolist() == nearest_centroid_bruteforce(x, centroids)
    exact = ((x - centroids[labels]) ** 2).sum(axis=1)
    assert dists.tobytes() == exact.tobytes()
    # rows to assign: centred on the centroids' mean, screened block by block
    assert KMeansModel(centroids).assign(x) == labels.tolist()


@PROFILE
@given(rows_and_centroids())
def test_nearest_matches_oracle(case):
    check_nearest(*case)


@PROFILE
@given(rows_and_centroids(), st.sampled_from([1e6, 1e8, 3e9]))
def test_nearest_matches_oracle_far_from_the_origin(case, offset):
    """A common offset leaves every exact distance as it was; from 1e8 on the
    matmul's rounding exceeds the gaps between them, so only the exact
    re-decision of near ties keeps the labels right."""
    x, centroids = case
    check_nearest(x + offset, centroids + offset)


@PROFILE
@given(rows_and_centroids(st.floats(-100, 100, width=32)))
def test_nearest_matches_oracle_with_float32_centroids(case):
    """Centroids at float32 precision, as ``KMeansModel.load`` gives them;
    with dim < 8 numpy sums in the oracle's order, so the distances agree."""
    check_nearest(*case)


# powers of two that move k-means inputs to the ends of the float32 range:
# float64 subnormals (the exact formula underflows to zero), float32
# subnormals, and values whose squares overflow float32
_MAGNITUDES = [2.0**-1070, 2.0**-140, 2.0**-120, 2.0**-60, 2.0**60, 2.0**120]


@PROFILE
@given(st.one_of(rows_and_centroids(), rows_and_centroids(st.floats(-100, 100, width=32))),
       st.sampled_from(_MAGNITUDES))
def test_nearest_matches_oracle_at_extreme_magnitudes(case, scale):
    x, centroids = case
    check_nearest(x * scale, centroids * scale)


@st.composite
def generation_cases(draw):
    """A model of order 1-5 over 2-4 symbols, 1-9 rows of (prompt, seed) with
    empty prompts among them, and settings that take every branch of the sampler."""
    corpus = draw(corpora())
    order = draw(st.integers(1, 5))
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=order, max_size=order)
                   .filter(sum))
    model = NgramModel.train(corpus, order=order, add_k=draw(st.sampled_from([0.01, 0.5])),
                             interpolation_weights=weights)
    rows = draw(st.integers(1, 9))
    prompts = draw(st.lists(st.lists(st.integers(0, corpus.vocab_size - 1), max_size=6),
                            min_size=rows, max_size=rows))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=rows, max_size=rows))
    settings = dict(
        temperature=draw(st.sampled_from([0.0, 5e-324, 0.3, 1.0, 4.0])),
        top_k=draw(st.one_of(st.none(), st.sampled_from([1, 3]),
                             st.integers(corpus.vocab_size + 1, corpus.vocab_size + 3))))
    return model, prompts, seeds, draw(st.integers(0, 12)), settings


@PROFILE
@given(generation_cases(), st.integers(1, 4))
def test_generate_many_matches_oracle_row_for_row(case, block):
    """Lockstep sampling over blocks of ``block`` rows draws what each row draws
    alone from ``next_dist`` with the reference sampler."""
    model, prompts, seeds, max_new, settings = case
    want = [sampled_continuation(model, p, max_new, s, **settings)
            for p, s in zip(prompts, seeds)]
    with mock.patch.object(slm, "_BLOCK", block * (model.vocab_size + 1)):
        assert model.generate_many(prompts, max_new, seeds=seeds, **settings) == want
    assert [model.generate(p, max_new, seed=s, **settings)
            for p, s in zip(prompts, seeds)] == want


@st.composite
def seeding_cases(draw, values=st.integers(-3, 3)):
    """Up to 16 rows of dim 1-12 (numpy's sum unrolls from 8 terms on) drawn
    from at most 5 distinct vectors over ``values``, and k from 1 to n, drawn
    as n minus a small number: rows repeat, and the draws go on past the
    distinct rows, where a row left above zero shows."""
    dim = draw(st.integers(1, 12))
    vector = st.lists(values, min_size=dim, max_size=dim)
    distinct = draw(st.lists(vector, min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=16))
    k = len(rows) - draw(st.integers(0, len(rows) - 1))
    return np.array(rows, dtype=np.float64), k


def check_seeding(x, k, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    chosen, labels, dists = _plusplus_init(fit_rows(x), k, rng)
    assert chosen == kmeans_plusplus_naive(x, k, oracle_rng)
    # and the same number of draws from the rng
    assert rng.random() == oracle_rng.random()
    # and the assignment to the seeds that fit starts Lloyd from, byte for byte
    want_labels, want_dists = _nearest(fit_rows(x), x[chosen])
    assert labels.tobytes() == want_labels.tobytes()
    assert dists.tobytes() == want_dists.tobytes()


@PROFILE
@given(seeding_cases(), st.sampled_from([0.0, 1e6, 1e8, 3e9]), st.integers(0, 2**32 - 1))
def test_plusplus_init_matches_oracle(case, offset, seed):
    """The same seeds, so the same centroid bytes, as a full recompute per
    draw; from 1e8 on the screen's rounding exceeds the integer gaps."""
    x, k = case
    check_seeding(x + offset, k, seed)


@PROFILE
@given(seeding_cases(st.floats(-100, 100, width=32)), st.integers(0, 2**32 - 1))
def test_plusplus_init_matches_oracle_with_float32_values(case, seed):
    check_seeding(*case, seed)


@PROFILE
@given(st.one_of(seeding_cases(), seeding_cases(st.floats(-100, 100, width=32))),
       st.sampled_from(_MAGNITUDES), st.integers(0, 2**32 - 1))
def test_plusplus_init_matches_oracle_at_extreme_magnitudes(case, scale, seed):
    x, k = case
    check_seeding(x * scale, k, seed)


# ids of every integer type, below 6, and values near them that are not ids
_IDS = st.one_of(st.integers(0, 5), st.booleans(),
                 *(st.integers(0, 5).map(t) for t in (np.int8, np.int32, np.int64, np.uint64)))
_NOT_IDS = st.one_of(st.integers(-2, -1), st.integers(6, 7), st.floats(-1.5, 6.5),
                     st.integers(0, 5).map(np.float64))


@PROFILE
@given(st.lists(st.lists(_IDS, min_size=1, max_size=5), min_size=1, max_size=4), st.data())
def test_an_accepted_corpus_round_trips_through_a_token_file(utterances, data):
    if data.draw(st.booleans()):  # one value that is not an id makes the corpus invalid
        utt = data.draw(st.sampled_from(utterances))
        utt.insert(data.draw(st.integers(0, len(utt))), data.draw(_NOT_IDS))
        with pytest.raises(IdRangeError):
            Corpus(utterances, 6)
        return
    corpus = Corpus(utterances, 6)
    with tempfile.TemporaryDirectory(prefix="abpe-roundtrip-") as tmp:
        save_tokens(corpus, f"{tmp}/c.tok")
        assert load_tokens(f"{tmp}/c.tok") == corpus


# ids in range, of up to 19 digits (the largest one below the bound), and fields that are not ids:
# leading zeros, signs, "_", non-ASCII digits, U+3000, ids at and past the bound (19 and 20 digits)
_IDS_IN_RANGE = st.one_of(st.integers(0, 60).map(str), st.sampled_from(
    ["123456789012345678", "1234567890123456789", "9223372036854775805"]))
_NOT_IDS = st.sampled_from(["00", "012", "-1", "+2", "1_0", "\u0663", "1\u3000", "\u30001", "x",
                            "#1", "9223372036854775806", "9999999999999999999",
                            "99999999999999999999", "18446744073709551616"])
_GAPS = st.sampled_from([" ", "\t", "\v", "\f", " \t "])
_EDGES = st.sampled_from(["", " ", "\t", "\f "])
_HEADERS = st.one_of((_IDS_IN_RANGE | _NOT_IDS).map("#vocab ".__add__), st.sampled_from(
    ["#vocab", "#vocab 5 6", "#voc 5", "#", " #vocab\t61 ", "#vocab 0"]))


@st.composite
def token_texts(draw):
    """A token file's text: lines of ids, blank lines among them, three kinds of line end, at
    most one field that is not an id, and a ``#vocab`` line on line 1, on line 2 or on neither."""
    lines = [draw(st.lists(_IDS_IN_RANGE, max_size=4)) for _ in range(draw(st.integers(0, 5)))]
    if lines and draw(st.booleans()):
        fields = draw(st.sampled_from(lines))
        fields.insert(draw(st.integers(0, len(fields))), draw(_NOT_IDS))
    for i, fields in enumerate(lines):
        gaps = [draw(_GAPS) for _ in fields[1:]] + [draw(_EDGES)]
        lines[i] = draw(_EDGES) + "".join(f + g for f, g in zip(fields, gaps))
    at = draw(st.sampled_from([None, None, 0, 1]))
    if at is not None:
        header = st.integers(1, 70).map("#vocab {}".format) | _HEADERS
        lines.insert(min(at, len(lines)), draw(header))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)


def _loads_as_the_oracle_reads(text, load, oracle):
    with tempfile.TemporaryDirectory(prefix="abpe-text-") as tmp:
        path = f"{tmp}/c.txt"
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        want = oracle(path)
        if isinstance(want, str):
            with pytest.raises(FormatError) as exc:
                load(path)
            assert str(exc.value) == want
        else:
            corpus = load(path)
            assert (corpus.utterances, corpus.vocab_size) == want


@settings(PROFILE, max_examples=500)
@given(token_texts())
def test_load_tokens_matches_the_line_by_line_oracle(text):
    _loads_as_the_oracle_reads(text, load_tokens, read_token_file)


@st.composite
def unicode_texts(draw):
    """Unicode text: lines of block characters between ASCII whitespace, blank lines among them,
    three kinds of line end, and at most one character that breaks a line's one run."""
    unit = st.integers(0x4E00, 0x9FFF).map(chr)
    lines = [draw(st.lists(unit, max_size=5)) for _ in range(draw(st.integers(0, 5)))]
    if lines and draw(st.booleans()):
        chars = draw(st.sampled_from(lines))
        chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(
            [" ", "\t", "a", "0", "\u3000", "\u4dff", "\ua000", "\x1c", "\u2028"])))
    return "".join(draw(_EDGES) + "".join(chars) + draw(_EDGES)
                   + draw(st.sampled_from(["\n", "\r\n", "\r"])) for chars in lines)


@settings(PROFILE, max_examples=300)
@given(unicode_texts())
def test_unicode_input_matches_the_line_by_line_oracle(text):
    _loads_as_the_oracle_reads(text, _read_unicode, read_unicode_file)
