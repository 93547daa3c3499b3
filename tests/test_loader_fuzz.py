"""Every truncation and single-byte change of an input loads or fails cleanly.

For each small n-gram, k-means and feature binary, merges file and token
file, every prefix and, at every offset, the byte values 0x00, 0xFF, 0x80
and 0x01 either raise ``FormatError`` or give an object that works. A
rescore manifest changed the same way makes ``abpe rescore`` exit 0 or 1.
Nothing else may be raised and no warning may be emitted. The cases are
enumerated, not sampled, so the run is deterministic.
"""

import math
import warnings

import numpy as np
import pytest

from abpe import (
    BpeModel,
    Corpus,
    FormatError,
    KMeansModel,
    NgramModel,
    load_features,
    load_tokens,
    save_features,
    save_tokens,
)
from abpe.cli import main


def _variants(blob: bytes):
    for n in range(len(blob)):
        yield blob[:n]
    for i in range(len(blob)):
        for value in (0x00, 0xFF, 0x80, 0x01):
            if blob[i] != value:
                yield blob[:i] + bytes([value]) + blob[i + 1 :]


def _use_ngram(model, blob):
    # never next_dist: a changed header may hold a vocab too large to allocate
    assert not math.isnan(model.logprob([0]))
    assert model.to_bytes() == blob


def _use_kmeans(model, blob):
    assert 0 <= model.assign(np.zeros((1, model.dim)))[0] < model.k
    assert model.to_bytes() == blob


def _use_features(values, blob):
    assert values.ndim == 2 and np.isfinite(values).all()


def _use_merges(model, blob):
    seq = [i % model.base_size for i in range(6)]
    assert model.decode(model.encode(seq)) == seq
    units = range(model.vocab_size)
    assert len(model.decode(units)) == sum(len(model.decode([u])) for u in units)


def _use_tokens(corpus, blob):
    assert all(corpus.utterances)
    Corpus(corpus.utterances, corpus.vocab_size)  # every id is in range


# float32 bytes 01 00 80 3F: with 0xFF as its last byte it is a signalling NaN
NEAR_SNAN = float(np.nextafter(np.float32(1), np.float32(2)))


def _ngram_blob(path):
    corpus = Corpus([[0, 1, 2, 0, 1], [2, 1]], 3)
    return NgramModel.train(corpus, order=3, add_k=0.1).to_bytes()


def _kmeans_blob(path):
    return KMeansModel(centroids=np.array([[0.0, 1.5, -2.0], [3.0, NEAR_SNAN, 8.0]])).to_bytes()


def _features_blob(path):
    save_features(np.array([[0.0, 1.0], [-2.5, NEAR_SNAN], [4.0, 0.125]]), path)
    with open(path, "rb") as fh:
        return fh.read()


def _merges_blob(path):
    return b"#abpe 1\n#base 3\n0 1\n3 2\n1 1\n"


def _tokens_blob(path):
    return b"#vocab 3\n0 1 2\n\n2 1\n"


@pytest.mark.parametrize("make, load, use", [
    (_ngram_blob, NgramModel.load, _use_ngram),
    (_kmeans_blob, KMeansModel.load, _use_kmeans),
    (_features_blob, load_features, _use_features),
    (_merges_blob, BpeModel.load, _use_merges),
    (_tokens_blob, load_tokens, _use_tokens),
], ids=["ngram", "kmeans", "features", "merges", "tokens"])
def test_every_truncation_and_byte_change_loads_or_fails_cleanly(tmp_path, make, load, use):
    path = str(tmp_path / "artifact")
    blob = make(path)
    outcomes = {"loaded": 0, "rejected": 0}
    for variant in _variants(blob):
        with open(path, "wb") as fh:
            fh.write(variant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                obj = load(path)
            except FormatError:
                outcomes["rejected"] += 1
                continue
            use(obj, variant)
        outcomes["loaded"] += 1
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0, outcomes


def test_every_truncation_and_byte_change_of_a_manifest_exits_0_or_1(tmp_path, capsys):
    model = tmp_path / "m.ngram"
    NgramModel.train(Corpus([[0, 1, 0, 1], [1, 0]], 2), order=2).save(str(model))
    save_tokens(Corpus([[0, 1, 0]], 2), str(tmp_path / "a.tok"))
    save_tokens(Corpus([[1, 1]], 2), str(tmp_path / "b.tok"))
    manifest = tmp_path / "cases.tsv"
    blob = b"case_id\tcand_id\tpath\trank\nq1\ta\ta.tok\t1\nq1\tb\tb.tok\t2\n"
    codes = {0: 0, 1: 0}
    for variant in _variants(blob):
        manifest.write_bytes(variant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rescore", "--model", str(model), "--manifest", str(manifest)])
        codes[code] += 1
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
    assert codes[0] > 0 and codes[1] > 0, codes
