import math
from collections import Counter

import numpy as np
import pytest

from abpe import (
    Corpus,
    NgramModel,
    auto_bleu,
    compression_stats,
    cross_entropy,
    self_bleu,
    shuffle_corrupt,
    syntax_accuracy,
    vert,
)

from oracles import ngram_logprob, random_small_corpus, self_bleu_quadratic


class TestCompression:
    def test_simple_averages(self):
        base = Corpus([[0, 0], [0, 0, 0, 0]], 1)
        encoded = Corpus([[0], [0, 0]], 1)
        report = compression_stats(base, encoded, 10)
        assert report.avg_len_base == 3.0
        assert report.avg_len_encoded == 1.5
        assert report.ratio == 2.0
        assert report.vocab_size == 10

    def test_identity_encoding_ratio_is_one(self):
        corpus = Corpus([[0, 1], [1, 1, 0]], 2)
        assert compression_stats(corpus, corpus, 2).ratio == 1.0

    def test_report_scale_of_published_style_row(self):
        # lengths averaging 2513.8 vs 1053.0 give a ratio just under 2.4
        base_lens = [2513, 2513, 2514, 2514, 2515]
        enc_lens = [1053] * 5
        base = Corpus([[0] * n for n in base_lens], 1)
        enc = Corpus([[0] * n for n in enc_lens], 1)
        report = compression_stats(base, enc, 20000)
        assert report.avg_len_base == pytest.approx(2513.8)
        assert report.avg_len_encoded == pytest.approx(1053.0)
        assert report.ratio == pytest.approx(2513.8 / 1053.0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            compression_stats(Corpus([[0]], 1), Corpus([[0], [0]], 1), 1)

    def test_zero_length_encoded_rejected(self):
        with pytest.raises(ValueError, match="zero length"):
            compression_stats(Corpus([[0]], 1), Corpus([[]], 1), 1)


class TestSyntaxAccuracy:
    def make_model(self):
        return NgramModel.train(Corpus([[0, 1, 2, 3]] * 4, 4), order=2, add_k=0.1)

    def test_higher_scored_correct_counts(self):
        model = self.make_model()
        pairs = [([0, 1, 2, 3], [3, 1, 0, 2])]
        assert syntax_accuracy(model, pairs) == 1.0

    def test_tie_counts_incorrect(self):
        model = self.make_model()
        pairs = [([0, 1, 2, 3], [0, 1, 2, 3])]
        assert syntax_accuracy(model, pairs) == 0.0

    def test_swap_maps_accuracy_to_complement_minus_ties(self):
        rng = np.random.default_rng(51)
        corpus = random_small_corpus(rng, max_vocab=6, max_utts=8, max_len=10)
        model = NgramModel.train(corpus, order=2, add_k=0.1)
        pairs = []
        ties = 0
        for _ in range(40):
            a = [int(t) for t in rng.integers(0, corpus.vocab_size, size=6)]
            b = [int(t) for t in rng.integers(0, corpus.vocab_size, size=6)]
            if rng.random() < 0.2:
                b = list(a)
            pairs.append((a, b))
            if model.logprob(a) == model.logprob(b):
                ties += 1
        acc = syntax_accuracy(model, pairs)
        swapped = syntax_accuracy(model, [(b, a) for a, b in pairs])
        assert swapped == pytest.approx(1.0 - acc - ties / len(pairs))

    def test_plain_tuples_accepted(self):
        model = self.make_model()
        assert syntax_accuracy(model, [([0, 1, 2, 3], [2, 0, 3, 1])]) == 1.0


class TestShuffle:
    def test_single_block_identity(self):
        seq = [4, 2, 7, 1]
        assert shuffle_corrupt(seq, unit_len=len(seq), seed=0) == seq

    def test_multiset_preserved(self):
        rng = np.random.default_rng(52)
        for i in range(1000):
            seq = [int(t) for t in rng.integers(0, 9, size=int(rng.integers(2, 30)))]
            unit = int(rng.integers(1, 6))
            out = shuffle_corrupt(seq, unit, seed=i)
            assert Counter(out) == Counter(seq)
            assert len(out) == len(seq)

    def test_block2_permutations_enumerated_and_stable(self):
        out = shuffle_corrupt([0, 1, 2, 3], 2, seed=77)
        assert out in ([0, 1, 2, 3], [2, 3, 0, 1])
        assert out == shuffle_corrupt([0, 1, 2, 3], 2, seed=77)

    def test_blocks_stay_contiguous(self):
        seq = list(range(12))
        out = shuffle_corrupt(seq, 3, seed=5)
        chunks = [tuple(out[i : i + 3]) for i in range(0, 12, 3)]
        assert sorted(chunks) == [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="short"):
            shuffle_corrupt([3], seed=0)


class TestAutoBleu:
    def test_hand_count_abab(self):
        assert auto_bleu(["a", "b", "a", "b"], 2) == pytest.approx(2.0 / 3.0)

    def test_all_distinct_is_zero(self):
        assert auto_bleu([1, 2, 3, 4, 5], 2) == 0.0

    def test_constant_sequence_is_one(self):
        assert auto_bleu([7] * 10, 3) == 1.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="grams"):
            auto_bleu([1, 2], 3)


class TestSelfBleu:
    def test_identical_pair_is_one(self):
        texts = [[1, 2, 3, 4], [1, 2, 3, 4]]
        assert self_bleu(texts, 2) == 1.0

    def test_disjoint_pair_is_zero(self):
        assert self_bleu([[1, 2, 3], [4, 5, 6]], 2) == 0.0

    def test_three_texts_match_hand_computation(self):
        texts = [[1, 2, 1, 2], [1, 2, 3, 1], [3, 1, 2, 2]]
        # text0 bigrams (1,2)x2 (2,1); best-other counts (1,2)->1, (2,1)->0: clipped 1 of 3
        # text1 bigrams (1,2) (2,3) (3,1): clipped 1+0+1 of 3
        # text2 bigrams (3,1) (1,2) (2,2): clipped 1+1+0 of 3
        expected = (1 / 3 + 2 / 3 + 2 / 3) / 3
        assert self_bleu(texts, 2) == pytest.approx(expected)
        assert self_bleu(texts, 2) == pytest.approx(self_bleu_quadratic(texts, 2))

    def test_matches_quadratic_oracle_on_random_sets(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            texts = [
                [int(t) for t in rng.integers(0, 5, size=int(rng.integers(n, 12)))]
                for _ in range(int(rng.integers(2, 7)))
            ]
            assert self_bleu(texts, n) == pytest.approx(
                self_bleu_quadratic(texts, n), rel=1e-12
            )

    def test_fewer_than_two_texts_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            self_bleu([[1, 2, 3]], 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            self_bleu([[1, 2], [1, 3]], n)


class TestVert:
    def test_fully_distinct_corpus_is_zero(self):
        report = vert([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2)
        assert report.vert == 0.0

    def test_known_product(self):
        # identical texts whose 8 bigram occurrences include one repeated pair:
        # self=1.0, auto=2/8, vert=100*sqrt(0.25)=50
        texts = [[1, 2, 3, 4, 5, 6, 7, 1, 2], [1, 2, 3, 4, 5, 6, 7, 1, 2]]
        report = vert(texts, 2)
        assert report.self_bleu == 1.0
        assert report.auto_bleu == 0.25
        assert report.vert == pytest.approx(50.0)

    @pytest.mark.parametrize("n", [True, np.int64(2)])
    def test_reports_the_checked_n(self, n):
        report = vert([[1, 2, 3], [1, 2, 4]], n)
        assert type(report.n) is int and report.n == n

    def test_square_identity(self):
        rng = np.random.default_rng(54)
        for _ in range(30):
            texts = [
                [int(t) for t in rng.integers(0, 4, size=10)]
                for _ in range(int(rng.integers(2, 6)))
            ]
            report = vert(texts, 2)
            assert report.vert == 100.0 * math.sqrt(report.self_bleu * report.auto_bleu)
            assert report.vert**2 == pytest.approx(
                10000.0 * report.self_bleu * report.auto_bleu, rel=1e-12
            )


class TestCrossEntropy:
    def test_uniform_closed_form(self):
        model = NgramModel.train(Corpus([[0], [1], [2]], 3), order=1, add_k=1e12)
        t = 6
        samples = [[0, 1, 2, 0, 1, 2], [2, 2, 2, 2, 2, 2]]
        report = cross_entropy(samples, model)
        assert report.entropy == pytest.approx((t + 1) * math.log(4.0), rel=1e-9)

    def test_single_sample_is_negative_logprob(self):
        corpus = Corpus([[0, 1, 1]], 2)
        model = NgramModel.train(corpus, order=2, add_k=0.1)
        report = cross_entropy([[1, 0]], model)
        assert report.entropy == -model.logprob([1, 0])
        assert report.n_samples == 1

    def test_mean_matches_per_sample_oracle(self):
        rng = np.random.default_rng(55)
        corpus = random_small_corpus(rng, max_vocab=5, max_utts=6, max_len=8)
        model = NgramModel.train(corpus, order=2, add_k=0.1)
        samples = [
            [int(t) for t in rng.integers(0, corpus.vocab_size, size=5)]
            for _ in range(10)
        ]
        expected = -sum(
            ngram_logprob(corpus, 2, 0.1, (0.5, 0.5), s) for s in samples
        ) / len(samples)
        assert cross_entropy(samples, model).entropy == pytest.approx(expected, rel=1e-12)
        assert cross_entropy(samples, model).entropy >= 0

    def test_empty_samples_rejected(self):
        model = NgramModel.train(Corpus([[0]], 1), order=1, add_k=0.1)
        with pytest.raises(ValueError, match="samples"):
            cross_entropy([], model)
