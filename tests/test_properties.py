"""Property tests of BPE and the n-gram model, against the oracles where they exist.

Alphabets of 2-4 symbols (2-6 for the wide trainer corpora) make runs and
tied pair counts common. The settings are fixed (derandomized, no example
database), so every run of the same tree checks the same examples.
"""

import math
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from abpe import BpeModel, Corpus, NgramModel
from abpe.bpe import _count_pairs

from oracles import bpe_encode_stepwise, bpe_pair_counts, bpe_train_merges, ngram_cond_prob

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


@PROFILE
@given(corpora())
def test_pair_counts_match_oracle(corpus):
    counts = {}
    for utt in corpus.utterances:
        _count_pairs(utt, counts)
    assert counts == bpe_pair_counts(corpus.utterances)


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
