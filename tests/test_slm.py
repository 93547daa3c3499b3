import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from abpe import BpeModel, Corpus, FormatError, NgramModel, SynthSpec, synth_corpus

from oracles import (
    greedy_continuation,
    ngram_cond_prob,
    ngram_logprob,
    random_small_corpus,
    sample_event,
    sampled_continuation,
)


def test_hand_formula_for_bigram_conditional():
    corpus = Corpus([[0, 1], [0, 1]], 2)
    model = NgramModel.train(corpus, order=2, add_k=0.01)
    # events per utterance: 0, 1, end; vocab 2 so the event space has 3 outcomes
    order2 = (2 + 0.01) / (2 + 0.01 * 3)
    order1 = (2 + 0.01) / (6 + 0.01 * 3)
    expected = 0.5 * order2 + 0.5 * order1
    got = model.next_dist([0])[1]
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(
        ngram_cond_prob(corpus, 2, 0.01, (0.5, 0.5), [0], 1), rel=1e-12
    )


def test_large_add_k_approaches_uniform():
    corpus = Corpus([[0, 1, 2], [2, 2]], 3)
    model = NgramModel.train(corpus, order=1, add_k=1e9)
    dist = model.next_dist([])
    assert np.abs(dist - 1.0 / 4.0).max() < 1e-8


def test_uniform_logprob_closed_form():
    corpus = Corpus([[0], [1], [2]], 3)
    model = NgramModel.train(corpus, order=1, add_k=1e12)
    seq = [0, 1, 2, 0]
    expected = (len(seq) + 1) * math.log(1.0 / 4.0)
    assert model.logprob(seq) == pytest.approx(expected, rel=1e-9)


def test_logprob_is_chain_rule_over_next_dist():
    rng = np.random.default_rng(31)
    for _ in range(20):
        corpus = random_small_corpus(rng)
        order = int(rng.integers(1, 4))
        model = NgramModel.train(corpus, order=order, add_k=0.2)
        seq = [
            int(t)
            for t in rng.integers(0, corpus.vocab_size, size=int(rng.integers(1, 10)))
        ]
        total = 0.0
        for i, tok in enumerate(seq):
            total += math.log(model.next_dist(seq[:i])[tok])
        total += math.log(model.next_dist(seq)[model.eos_id])
        assert model.logprob(seq) == pytest.approx(total, rel=1e-12)


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(32)
    for _ in range(15):
        corpus = random_small_corpus(rng, max_vocab=6, max_utts=5, max_len=8)
        order = int(rng.integers(1, 4))
        weights = tuple(1.0 / order for _ in range(order))
        model = NgramModel.train(corpus, order=order, add_k=0.1)
        ctx = [int(t) for t in rng.integers(0, corpus.vocab_size, size=3)]
        dist = model.next_dist(ctx)
        for event in range(corpus.vocab_size + 1):
            expected = ngram_cond_prob(corpus, order, 0.1, weights, ctx, event)
            assert dist[event] == pytest.approx(expected, rel=1e-12)
        seq = [int(t) for t in rng.integers(0, corpus.vocab_size, size=5)]
        assert model.logprob(seq) == pytest.approx(
            ngram_logprob(corpus, order, 0.1, weights, seq), rel=1e-12
        )


def test_matches_bruteforce_oracle_on_fifty_utterances():
    rng = np.random.default_rng(37)
    utts = [
        [int(t) for t in rng.integers(0, 7, size=int(rng.integers(1, 12)))]
        for _ in range(50)
    ]
    corpus = Corpus(utts, 7)
    model = NgramModel.train(corpus, order=3, add_k=0.1)
    weights = (1 / 3, 1 / 3, 1 / 3)
    ctx = [2, 4]
    dist = model.next_dist(ctx)
    for event in (0, 3, 6, 7):
        expected = ngram_cond_prob(corpus, 3, 0.1, weights, ctx, event)
        assert dist[event] == pytest.approx(expected, rel=1e-12)
    seq = [5, 0, 2, 4, 1]
    assert model.logprob(seq) == pytest.approx(
        ngram_logprob(corpus, 3, 0.1, weights, seq), rel=1e-12
    )


def test_next_dist_sums_to_one():
    rng = np.random.default_rng(33)
    for _ in range(30):
        corpus = random_small_corpus(rng)
        model = NgramModel.train(corpus, order=int(rng.integers(1, 5)), add_k=0.3)
        ctx = [
            int(t)
            for t in rng.integers(0, corpus.vocab_size, size=int(rng.integers(0, 6)))
        ]
        assert abs(model.next_dist(ctx).sum() - 1.0) < 1e-9


def test_context_truncation_markov_property():
    rng = np.random.default_rng(34)
    corpus = random_small_corpus(rng)
    model = NgramModel.train(corpus, order=3, add_k=0.1)
    long_ctx = [int(t) for t in rng.integers(0, corpus.vocab_size, size=9)]
    assert np.array_equal(model.next_dist(long_ctx), model.next_dist(long_ctx[-2:]))


def test_longer_sequence_scores_lower_than_prefix():
    corpus = Corpus([[0, 1, 0, 1]], 2)
    model = NgramModel.train(corpus, order=2, add_k=0.5)
    assert model.logprob([0, 1, 0, 1]) < model.logprob([0, 1])


def test_empty_sequence_scores_end_event_only():
    corpus = Corpus([[0, 1]], 2)
    model = NgramModel.train(corpus, order=2, add_k=0.1)
    assert model.logprob([]) == pytest.approx(
        math.log(model.next_dist([])[model.eos_id]), rel=1e-15
    )
    assert model.logprob([]) < 0


def test_out_of_vocab_rejected():
    model = NgramModel.train(Corpus([[0, 1]], 2), order=2, add_k=0.1)
    with pytest.raises(ValueError, match="vocabulary"):
        model.logprob([0, 2])
    with pytest.raises(ValueError, match="vocabulary"):
        model.next_dist([5])


def test_train_rejects_bad_params():
    corpus = Corpus([[0]], 1)
    with pytest.raises(ValueError):
        NgramModel.train(Corpus([], 1), order=1, add_k=0.1)
    with pytest.raises(ValueError):
        NgramModel.train(corpus, order=0, add_k=0.1)
    with pytest.raises(ValueError):
        NgramModel.train(corpus, order=1, add_k=0.0)
    with pytest.raises(ValueError):
        NgramModel.train(corpus, order=2, add_k=0.1, interpolation_weights=[1.0])


@pytest.mark.parametrize("add_k, weights", [
    (0.1, [math.nan, 1.0]),
    (0.1, [math.inf, 1.0]),
    (math.inf, None),
    (math.nan, None),
])
def test_train_rejects_non_finite_params(add_k, weights):
    with pytest.raises(ValueError, match="add_k|interpolation weights"):
        NgramModel.train(Corpus([[0, 1]], 2), order=2, add_k=add_k,
                         interpolation_weights=weights)


def test_train_normalises_weights_by_their_left_to_right_sum():
    # sum() compensates from Python 3.12 and would give 0.6 here, and 0.5 for the last weight
    total = (0.1 + 0.2) + 0.3
    assert total == 0.6000000000000001
    model = NgramModel.train(Corpus([[0, 1, 0]], 2), order=3, interpolation_weights=(0.1, 0.2, 0.3))
    assert model.weights == (0.1 / total, 0.2 / total, 0.3 / total)
    assert model.weights[2] == 0.4999999999999999


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_generate_matches_greedy_oracle_at_every_order(order):
    rng = np.random.default_rng(38)
    corpus = random_small_corpus(rng, max_vocab=5, max_utts=10, max_len=12)
    model = NgramModel.train(corpus, order=order, add_k=0.05)
    for length in range(7):
        prompt = [int(t) for t in rng.integers(0, corpus.vocab_size, size=length)]
        got = model.generate(prompt, 12, seed=0, temperature=0.0)
        assert got == greedy_continuation(model, prompt, 12)


def test_logprobs_in_blocks_equal_one_block(monkeypatch):
    from abpe import corpus as corpus_module
    from abpe.corpus import IdRangeError

    rng = np.random.default_rng(39)
    corpus = random_small_corpus(rng, max_vocab=5, max_utts=30, max_len=12)
    seqs = [[int(t) for t in rng.integers(0, corpus.vocab_size, size=rng.integers(0, 12))]
            for _ in range(40)]
    model = NgramModel.train(corpus, order=3, add_k=0.1)
    whole = model.logprobs(seqs)
    monkeypatch.setattr(corpus_module, "_BLOCK_TOKENS", 7)
    assert model.logprobs(seqs) == whole
    # a bad id in a later block, not the last, names its sequence's index in the whole input
    bad = corpus.vocab_size
    with pytest.raises(IdRangeError, match=f"^id {bad} at position 1 out of vocabulary$") as exc:
        model.logprobs(seqs[:20] + [[0, bad]] + seqs[20:])
    assert exc.value.index == 20


def test_tiny_temperature_on_a_model_whose_probabilities_exceed_one():
    # weights of a model file need not sum to one: here event 0 has probability 4.99,
    # whose log-probability divided by 1e-320 overflows to +inf
    model = NgramModel(2, 1, 0.1, (5.0,), np.array([[0, 100]], dtype=np.uint64))
    assert model.next_dist([])[0] > 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.generate_many([[], [1]], 5, seeds=[0, 1], temperature=1e-320)
    assert got == model.generate_many([[], [1]], 5, seeds=[0, 1], temperature=0.0)


def test_generate_many_over_more_than_one_row_block(monkeypatch):
    from abpe import slm

    rng = np.random.default_rng(40)
    corpus = random_small_corpus(rng, max_vocab=6, max_utts=10, max_len=12)
    model = NgramModel.train(corpus, order=3, add_k=0.1)
    block = 64
    monkeypatch.setattr(slm, "_BLOCK", block * (corpus.vocab_size + 1))
    rows = block + 6
    prompts = [[int(t) for t in rng.integers(0, corpus.vocab_size, size=i % 4)]
               for i in range(rows)]
    got = model.generate_many(prompts, 15, seeds=range(100, 100 + rows), temperature=0.7)
    assert got == [sampled_continuation(model, p, 15, 100 + i, 0.7)
                   for i, p in enumerate(prompts)]
    # the rows end at different steps
    assert len({len(g) - len(p) for g, p in zip(got, prompts)}) > 3


def test_generate_many_memory_is_bounded_in_bytes():
    # 64 prompts of a 100,000-unit model: the row block holds about _BLOCK doubles, not 64 rows
    model = NgramModel.train(Corpus([[1, 2, 3, 4, 5, 99999], [7, 8, 9]], 100000), order=3)
    tracemalloc.start()
    try:
        model.generate_many([[1, 2]] * 64, 3, seeds=range(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_generate_returns_plain_ints():
    model = NgramModel.train(Corpus([[0, 1, 1], [1, 0]], 2), order=2, add_k=0.1)
    out = model.generate([np.int64(1), True], 3, seed=0)
    assert out[:2] == [1, 1] and {type(t) for t in out} == {int}
    many = model.generate_many([[np.int32(0)], np.array([1, 0])], 3, seeds=[0, 1])
    assert {type(t) for seq in many for t in seq} == {int}


def test_generate_many_needs_one_seed_per_prompt():
    model = NgramModel.train(Corpus([[0, 1]], 2), order=2, add_k=0.1)
    with pytest.raises(ValueError, match="^got 1 seeds for 2 prompts$"):
        model.generate_many([[0], [1]], 3, seeds=[0])
    assert model.generate_many([], 3, seeds=[]) == []


@pytest.mark.parametrize("top_k", [None, 5])
def test_largest_draw_past_the_cumulative_sum_takes_the_last_kept_event(top_k):
    from abpe.slm import _draw

    class Largest:  # the largest value default_rng's random() returns
        def random(self):
            return 1 - 2**-53

    rows = np.random.default_rng(41).random((50, 12))
    rows /= rows.sum(axis=1, keepdims=True)
    cum = np.cumsum(rows / rows.sum(axis=1, keepdims=True), axis=1)
    assert (cum[:, -1] < 1 - 2**-53).any()  # rows whose draw passes their sum
    want = [sample_event(row, Largest(), 1.0, top_k) for row in rows]
    assert _draw(rows.copy(), [Largest()] * len(rows), 1.0, top_k) == want


def test_mutating_next_dist_result_leaves_the_model_unchanged():
    model = NgramModel.train(Corpus([[0, 1, 2], [1, 2, 0], [2, 2]], 3), order=3, add_k=0.1)
    for ctx in ([], [1], [1, 2], [0, 0]):
        first = model.next_dist(ctx)
        kept = first.copy()
        first[:] = -1.0
        assert np.array_equal(model.next_dist(ctx), kept)


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_loaded_model_gives_identical_distributions(tmp_path, order):
    rng = np.random.default_rng(39)
    corpus = random_small_corpus(rng, max_vocab=6, max_utts=12, max_len=10)
    model = NgramModel.train(corpus, order=order, add_k=0.3)
    path = tmp_path / "m.ngram"
    path.write_bytes(model.to_bytes())
    loaded = NgramModel.load(str(path))
    seen = [list(u[:j]) for u in corpus.utterances for j in range(len(u) + 1)]
    unseen = [[int(t) for t in rng.integers(0, corpus.vocab_size, size=6)] for _ in range(20)]
    for ctx in [[]] + seen + unseen:
        assert np.array_equal(loaded.next_dist(ctx), model.next_dist(ctx))


def test_golden_outputs():
    """Digests of the model bytes, ten distributions and ten samples: a fast path
    that moves any bit of them fails here."""
    corpus = synth_corpus(SynthSpec(300, 120, (10, 40), 12, (3, 6), 0.4, 1.1, seed=7))
    model = NgramModel.train(corpus, order=4, add_k=0.05, interpolation_weights=[1, 2, 3, 4])
    contexts = [[], [16], [8, 19], [133, 0, 291], [154, 79, 149, 113, 25, 291],
                [299, 298, 297], [0, 0, 0], [5], [215, 76, 297], [126, 299]]
    dists = b"".join(model.next_dist(ctx).tobytes() for ctx in contexts)
    samples = [model.generate([8, 19], 40, seed=s) for s in range(5)]
    samples += [model.generate([8, 19], 40, seed=s, top_k=5) for s in range(5)]
    # top_k is one per call, so the lockstep path takes the ten samples in two calls
    lockstep = model.generate_many([[8, 19]] * 5, 40, seeds=range(5))
    lockstep += model.generate_many([[8, 19]] * 5, 40, seeds=range(5), top_k=5)
    assert lockstep == samples

    def sha(blob):
        return hashlib.sha256(blob).hexdigest()

    assert sha(model.to_bytes()) == (
        "13ac0f109f541c9a0d285c364acd396ad06c164c1c99b08601b782a3e5a28545")
    assert sha(dists) == "1e9aac20477706fbd1375b43d704dedeb6368d82b16136e3df0ecd1c9bc25618"
    assert sha(repr(samples).encode()) == (
        "aa0a222ccd705df8404de50d10213e57e153b982de453788ff386fe96abd1786")


def test_golden_model_at_paper_scale():
    """Order 4 over a base-500 corpus encoded with +1500 merges: the digest pins
    every (context, event, count) row built from the trainer's windows."""
    corpus = synth_corpus(SynthSpec(500, 160, (30, 60), 200, (6, 14), 0.6, 1.2, seed=8))
    encoded = BpeModel.train(corpus, 2000).encode_corpus(corpus)
    model = NgramModel.train(encoded, order=4)
    assert hashlib.sha256(model.to_bytes()).hexdigest() == (
        "5689e0befc4f78395cdefd56b018a4b0969ddaa90c3085280e8c56528fb0b92f")


def test_estimates_that_underflow_to_zero_are_rejected():
    with pytest.raises(ValueError, match="^smoothed estimates underflow to 0$"):
        NgramModel.train(Corpus([[0, 1, 0]], 2), order=2, add_k=5e-324)
    # the third order's weight rounds its terms to 0, but the second order's stay
    # positive, and so does every conditional
    model = NgramModel.train(Corpus([[0]], 2), order=3, add_k=1.0,
                             interpolation_weights=[0.0, 1.0, 5e-324])
    assert model.next_dist([1, 1]).min() > 0
    assert math.isfinite(model.logprob([1, 1, 0]))


class TestGenerate:
    def setup_method(self):
        rng = np.random.default_rng(35)
        self.corpus = random_small_corpus(rng, max_vocab=6, max_utts=8, max_len=10)
        self.model = NgramModel.train(self.corpus, order=2, add_k=0.1)

    def test_max_new_zero_returns_prompt(self):
        assert self.model.generate([1, 0], 0, seed=1) == [1, 0]

    def test_output_begins_with_prompt(self):
        out = self.model.generate([1, 0], 20, seed=2)
        assert out[:2] == [1, 0]

    def test_same_seed_same_output(self):
        a = self.model.generate([0], 30, seed=9)
        b = self.model.generate([0], 30, seed=9)
        assert a == b

    def test_greedy_equals_oracle(self):
        for prompt in ([0], [1], []):
            got = self.model.generate(prompt, 15, seed=0, temperature=0.0)
            assert got == greedy_continuation(self.model, prompt, 15)

    def test_temperature_must_be_non_negative(self):
        with pytest.raises(ValueError):
            self.model.generate([0], 5, seed=1, temperature=-0.5)

    def test_top_k_one_is_greedy(self):
        greedy = self.model.generate([0], 15, seed=3, temperature=0.0)
        topk = self.model.generate([0], 15, seed=3, temperature=1.0, top_k=1)
        assert topk == greedy

    def test_sampled_frequencies_match_next_dist(self):
        ctx = [0]
        dist = self.model.next_dist(ctx)
        draws = 4000
        counts = np.zeros(dist.size)
        for i in range(draws):
            out = self.model.generate(ctx, 1, seed=i)
            event = out[1] if len(out) > 1 else self.model.eos_id
            counts[event] += 1
        freqs = counts / draws
        sigma = np.sqrt(dist * (1 - dist) / draws)
        assert (np.abs(freqs - dist) <= 4 * sigma + 1e-12).all()


class TestModelFile:
    def test_roundtrip_scores_bitwise(self, tmp_path):
        rng = np.random.default_rng(36)
        corpus = random_small_corpus(rng, max_vocab=8, max_utts=10, max_len=15)
        model = NgramModel.train(corpus, order=3, add_k=0.25)
        path = tmp_path / "m.ngram"
        model.save(str(path))
        loaded = NgramModel.load(str(path))
        for _ in range(100):
            seq = [
                int(t)
                for t in rng.integers(0, corpus.vocab_size, size=int(rng.integers(1, 12)))
            ]
            assert loaded.logprob(seq) == model.logprob(seq)

    def test_save_is_deterministic(self, tmp_path):
        corpus = Corpus([[0, 1, 0], [1, 1]], 2)
        a = NgramModel.train(corpus, order=2, add_k=0.1)
        b = NgramModel.train(corpus, order=2, add_k=0.1)
        assert a.to_bytes() == b.to_bytes()

    def test_corrupted_header_rejected(self, tmp_path):
        path = tmp_path / "m.ngram"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            NgramModel.load(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        corpus = Corpus([[0, 1, 0], [1, 1]], 2)
        model = NgramModel.train(corpus, order=2, add_k=0.1)
        blob = model.to_bytes()
        path = tmp_path / "m.ngram"
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="size"):
            NgramModel.load(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        import struct

        corpus = Corpus([[0, 1, 0], [1, 1]], 2)
        blob = bytearray(NgramModel.train(corpus, order=2, add_k=0.1).to_bytes())
        struct.pack_into("<I", blob, 8, 9)
        path = tmp_path / "m.ngram"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            NgramModel.load(str(path))

    def test_unsorted_or_duplicate_triples_rejected(self, tmp_path):
        import struct

        model = NgramModel.train(Corpus([[0, 1, 0], [1, 1]], 2), order=2, add_k=0.1)
        blob = model.to_bytes()
        start = 32 + 8 * model.order + 8  # fixed header, weights, triple count
        width = 8 * (model.order + 1)
        rows = [blob[i : i + width] for i in range(start, len(blob), width)]
        assert len(rows) > 2
        reordered = blob[:start] + b"".join(reversed(rows))
        duplicated = bytearray(blob[:start] + rows[0] + b"".join(rows))
        struct.pack_into("<Q", duplicated, start - 8, len(rows) + 1)
        for name, corrupted in (("reversed", reordered), ("duplicated", bytes(duplicated))):
            path = tmp_path / f"{name}.ngram"
            path.write_bytes(corrupted)
            with pytest.raises(FormatError, match="strictly increasing"):
                NgramModel.load(str(path))

    @pytest.mark.parametrize("offset, value", [(24, math.inf), (24, math.nan), (32, math.nan)])
    def test_non_finite_parameters_rejected(self, tmp_path, offset, value):
        import struct

        blob = bytearray(NgramModel.train(Corpus([[0, 1, 0]], 2), order=2).to_bytes())
        struct.pack_into("<d", blob, offset, value)  # add_k, then the first weight
        path = tmp_path / "m.ngram"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="add_k|interpolation weights"):
            NgramModel.load(str(path))

    def test_add_k_whose_estimates_underflow_rejected(self, tmp_path):
        import struct

        blob = bytearray(NgramModel.train(Corpus([[0, 1, 0]], 2), order=2).to_bytes())
        struct.pack_into("<d", blob, 24, 5e-324)  # add_k: every unseen estimate rounds to 0
        path = tmp_path / "m.ngram"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="smoothed estimates underflow to 0$"):
            NgramModel.load(str(path))

    def test_custom_weights_roundtrip(self, tmp_path):
        corpus = Corpus([[0, 1, 0, 1, 1]], 2)
        model = NgramModel.train(
            corpus, order=2, add_k=0.5, interpolation_weights=[1.0, 3.0]
        )
        assert model.weights == (0.25, 0.75)
        path = tmp_path / "m.ngram"
        model.save(str(path))
        loaded = NgramModel.load(str(path))
        assert loaded.weights == model.weights
        assert loaded.logprob([0, 1]) == model.logprob([0, 1])


# byte layout of an order-2 model file: u64 vocab after magic and version;
# rows after the fixed header, two weights and the triple count
VOCAB_AT, ROWS_START, ROW_WIDTH = 12, 32 + 2 * 8 + 8, 3 * 8


class TestModelBounds:
    """Context ids keep codes below (rows + 1) * (V+1) and totals below 2^53."""

    @staticmethod
    def _set_u64(model, offset, value, tmp_path):
        blob = bytearray(model.to_bytes())
        blob[offset : offset + 8] = value.to_bytes(8, "little")
        path = tmp_path / "m.ngram"
        path.write_bytes(bytes(blob))
        return str(path)

    def test_large_vocab_high_order_roundtrip(self, tmp_path):
        vocab, order = 20992, 5
        assert (vocab + 1) ** order > 2**63  # a mixed-radix code over raw symbols would overflow
        rng = np.random.default_rng(40)
        pool = [0, 1, 7, 10_000, 20_990, 20_991]
        utts = [[pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 9)))]
                for _ in range(12)]
        corpus = Corpus(utts, vocab)
        model = NgramModel.train(corpus, order=order, add_k=0.1)
        path = tmp_path / "m.ngram"
        model.save(str(path))
        loaded = NgramModel.load(str(path))
        assert loaded.to_bytes() == model.to_bytes()
        weights = (1 / order,) * order
        for ctx in ([], [20_991], utts[0][:4], [20_991, 10_000, 7, 1, 0, 20_990]):
            dist = loaded.next_dist(ctx)
            for event in pool + [5, vocab]:
                assert dist[event] == pytest.approx(
                    ngram_cond_prob(corpus, order, 0.1, weights, ctx, event), rel=1e-12)
        for seq in utts[:3] + [[20_991, 5, 20_990]]:
            assert loaded.logprob(seq) == model.logprob(seq)
            assert loaded.logprob(seq) == pytest.approx(
                ngram_logprob(corpus, order, 0.1, weights, seq), rel=1e-12)

    def test_vocab_that_overflows_int64_codes_rejected(self, tmp_path):
        model = NgramModel.train(Corpus([[0, 1, 0], [1, 1]], 2), order=2, add_k=0.1)
        rows = len(model.to_bytes()[ROWS_START:]) // ROW_WIDTH
        limit = (2**63 - 1) // (rows + 1) - 1  # the largest vocab whose codes fit
        loaded = NgramModel.load(self._set_u64(model, VOCAB_AT, limit, tmp_path))
        assert loaded.vocab_size == limit and math.isfinite(loaded.logprob([0, 1]))
        with pytest.raises(FormatError, match="overflows int64 codes"):
            NgramModel.load(self._set_u64(model, VOCAB_AT, limit + 1, tmp_path))

    def test_count_total_reaching_2_to_53_rejected(self, tmp_path):
        model = NgramModel.train(Corpus([[0, 1, 0], [1, 1]], 2), order=2, add_k=0.1)
        blob = model.to_bytes()
        count_at = range(ROWS_START + ROW_WIDTH - 8, len(blob), ROW_WIDTH)
        counts = [int.from_bytes(blob[i : i + 8], "little") for i in count_at]
        just_below = 2**53 - 1 - sum(counts[1:])
        loaded = NgramModel.load(self._set_u64(model, count_at[0], just_below, tmp_path))
        assert math.isfinite(loaded.logprob([0, 1]))
        with pytest.raises(FormatError, match="count total reaches 2\\^53"):
            NgramModel.load(self._set_u64(model, count_at[0], just_below + 1, tmp_path))
