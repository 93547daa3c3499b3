import numpy as np
import pytest

from abpe import (
    BpeModel,
    CandidateSet,
    Corpus,
    NgramModel,
    RescoreResult,
    rescore,
    topx_accuracy,
)

from oracles import ngram_logprob, random_small_corpus


def test_best_index_is_argmax():
    assert RescoreResult.from_scores([-5.0, -3.0, -7.0]).best_index == 1


def test_ties_go_to_lowest_index():
    assert RescoreResult.from_scores([-2.0, -2.0, -2.0]).best_index == 0


def test_candidate_set_validation():
    with pytest.raises(ValueError, match="at least 2"):
        CandidateSet([[0, 1]])
    with pytest.raises(ValueError, match="empty"):
        CandidateSet([[0], []])
    with pytest.raises(ValueError, match="permutation"):
        CandidateSet([[0], [1]], human_ranks=[1, 3])
    CandidateSet([[0], [1]], human_ranks=[2, 1])


def test_emptiness_is_judged_by_length_not_by_truth_value():
    # a numpy array is false when its one item is 0, and ambiguous from two items on
    cands = CandidateSet([np.array([0]), np.array([1, 0])])
    with pytest.raises(ValueError, match="candidate 1 is empty"):
        CandidateSet([np.array([0]), np.array([], dtype=np.int64)])
    assert RescoreResult.from_scores(np.array([0.0])).best_index == 0
    assert RescoreResult.from_scores(np.array([-3.0, -1.0])).best_index == 1
    with pytest.raises(ValueError, match="no scores"):
        RescoreResult.from_scores(np.array([]))
    model = NgramModel.train(Corpus([[0, 1], [1, 0, 0]], 2), order=2)
    assert rescore(model, cands) == rescore(model, CandidateSet([[0], [1, 0]]))


def test_rescore_scores_match_independent_logprob():
    rng = np.random.default_rng(41)
    corpus = random_small_corpus(rng, max_vocab=5, max_utts=6, max_len=8)
    model = NgramModel.train(corpus, order=2, add_k=0.1)
    cands = [
        [int(t) for t in rng.integers(0, corpus.vocab_size, size=6)] for _ in range(3)
    ]
    result = rescore(model, CandidateSet(cands))
    weights = (0.5, 0.5)
    expected = [ngram_logprob(corpus, 2, 0.1, weights, c) for c in cands]
    for got, want in zip(result.scores, expected):
        assert got == pytest.approx(want, rel=1e-12)
    best = max(range(3), key=lambda i: (expected[i], -i))
    assert result.best_index == best


def test_rescore_with_bpe_encodes_first():
    base = Corpus([[0, 1, 0, 1], [0, 1]], 2)
    bpe = BpeModel.train(base, 3)
    encoded = bpe.encode_corpus(base)
    model = NgramModel.train(encoded, order=2, add_k=0.1)
    cands = CandidateSet([[0, 1, 0, 1], [1, 0, 1, 0]])
    result = rescore(model, cands, bpe=bpe)
    assert result.scores[0] == pytest.approx(model.logprob(bpe.encode([0, 1, 0, 1])))


def test_rescore_vocabulary_mismatch():
    model = NgramModel.train(Corpus([[0, 1]], 2), order=1, add_k=0.1)
    with pytest.raises(ValueError, match="candidate 1"):
        rescore(model, CandidateSet([[0], [5]]))


def test_length_norm_divides_by_length():
    model = NgramModel.train(Corpus([[0, 1], [0]], 2), order=1, add_k=0.1)
    cands = CandidateSet([[0, 1, 0], [0]])
    raw = rescore(model, cands)
    normed = rescore(model, cands, length_norm=True)
    assert normed.scores[0] == pytest.approx(raw.scores[0] / 3)
    assert normed.scores[1] == pytest.approx(raw.scores[1] / 1)


def test_length_norm_with_bpe_divides_by_encoded_length():
    base = Corpus([[0, 1, 0, 1], [0, 1]], 2)
    bpe = BpeModel.train(base, 3)
    model = NgramModel.train(bpe.encode_corpus(base), order=2, add_k=0.1)
    cands = CandidateSet([[0, 1, 0, 1, 1], [1, 0, 1]])  # encoded: [2, 2, 1] and [1, 2]
    raw = rescore(model, cands, bpe=bpe)
    normed = rescore(model, cands, length_norm=True, bpe=bpe)
    assert normed.scores == [raw.scores[0] / 3, raw.scores[1] / 2]


def test_rescore_bpe_vocabulary_above_the_model_names_the_candidate():
    model = NgramModel.train(Corpus([[0, 1]], 2), order=1, add_k=0.1)
    bpe = BpeModel(2, [(0, 1)])
    with pytest.raises(ValueError, match=r"^candidate 1: id 2 at position 1 out of vocabulary$"):
        rescore(model, CandidateSet([[1, 0], [1, 0, 1]]), bpe=bpe)


def test_duplicated_candidate_selects_first():
    model = NgramModel.train(Corpus([[0, 1]], 2), order=2, add_k=0.1)
    result = rescore(model, CandidateSet([[0, 1], [0, 1], [0, 1]]))
    assert result.best_index == 0


def test_argmax_invariance_under_shift_and_scale():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        scores = list(-rng.random(n) * 50)
        base = RescoreResult.from_scores(scores).best_index
        shift = float(rng.normal() * 100)
        scale = float(rng.random() * 10 + 1e-3)
        assert RescoreResult.from_scores([s + shift for s in scores]).best_index == base
        assert RescoreResult.from_scores([s * scale for s in scores]).best_index == base


class TestTopX:
    def test_single_case_rank2(self):
        result = RescoreResult.from_scores([-1.0, -2.0])
        assert topx_accuracy([result], [[2, 1]], 2) == 1.0
        assert topx_accuracy([result], [[2, 1]], 1) == 0.0

    def test_all_rank_one(self):
        results = [RescoreResult.from_scores([-1.0, -9.0]) for _ in range(5)]
        ranks = [[1, 2]] * 5
        for x in (1, 2):
            assert topx_accuracy(results, ranks, x) == 1.0

    def test_monotone_in_x_and_one_at_n(self):
        rng = np.random.default_rng(43)
        results = []
        ranks = []
        for _ in range(50):
            scores = list(-rng.random(5))
            results.append(RescoreResult.from_scores(scores))
            perm = [int(r) + 1 for r in rng.permutation(5)]
            ranks.append(perm)
        accs = [topx_accuracy(results, ranks, x) for x in range(1, 6)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0

    def test_length_mismatch_rejected(self):
        result = RescoreResult.from_scores([-1.0, -2.0])
        with pytest.raises(ValueError, match="vs"):
            topx_accuracy([result], [[1, 2], [1, 2]], 1)

    def test_bad_permutation_rejected(self):
        result = RescoreResult.from_scores([-1.0, -2.0])
        with pytest.raises(ValueError, match="permutation"):
            topx_accuracy([result], [[1, 1]], 1)

    def test_x_out_of_range_rejected(self):
        result = RescoreResult.from_scores([-1.0, -2.0])
        with pytest.raises(ValueError, match="x="):
            topx_accuracy([result], [[1, 2]], 3)
