import hashlib

import numpy as np
import pytest

from abpe import FormatError, KMeansModel, kmeans
from abpe.kmeans import _nearest, _plusplus_init, _update_centroids

from oracles import (
    best_two_means_partition,
    kmeans_plusplus_naive,
    labels_to_partition,
    nearest_centroid_bruteforce,
)


def blobs(rng, centers, n_per, spread=0.1):
    rows = []
    for c in centers:
        rows.append(np.asarray(c) + spread * rng.standard_normal((n_per, len(c))))
    return np.vstack(rows)


def test_k1_centroid_is_mean():
    rng = np.random.default_rng(0)
    x = rng.random((40, 3))
    model = KMeansModel.fit(x, 1, seed=5)
    assert np.allclose(model.centroids[0], x.mean(axis=0), atol=1e-12)


def test_two_blob_partition_matches_exhaustive_oracle():
    rng = np.random.default_rng(1)
    x = blobs(rng, [(0.0, 0.0), (10.0, 10.0)], 6)
    model = KMeansModel.fit(x, 2, seed=3)
    got = labels_to_partition(model.assign(x))
    assert got == best_two_means_partition(x)


def test_assign_matches_bruteforce():
    rng = np.random.default_rng(2)
    x = rng.random((100, 4))
    model = KMeansModel.fit(rng.random((30, 4)), 7, seed=1)
    assert model.assign(x) == nearest_centroid_bruteforce(x, model.centroids)


def test_assign_on_centroids_is_identity():
    rng = np.random.default_rng(3)
    model = KMeansModel.fit(rng.random((25, 3)), 6, seed=2)
    assert model.assign(model.centroids) == list(range(6))


def test_tie_breaks_to_lowest_centroid_index():
    centroids = np.array(
        [[9.0, 0.0], [7.0, 3.0], [1.0, 0.0], [5.0, 5.0], [0.0, 6.0], [-1.0, 0.0]]
    )
    model = KMeansModel(centroids=centroids)
    # the origin is exactly distance 1 from centroids 2 and 5
    assert model.assign(np.array([[0.0, 0.0]])) == [2]


@pytest.mark.parametrize("block", [1, 5, 40])
def test_nearest_is_the_same_in_any_block_size(monkeypatch, block):
    # integer rows and centroids with repeats: exact ties in many rows
    rng = np.random.default_rng(10)
    x = rng.integers(-2, 3, size=(37, 3)).astype(np.float64)
    centroids = rng.integers(-2, 3, size=(9, 3)).astype(np.float64)
    want = _nearest(x, centroids)
    assert want[0].tolist() == nearest_centroid_bruteforce(x, centroids)
    monkeypatch.setattr(kmeans, "_BLOCK", block)
    labels, dists = _nearest(x, centroids)
    assert labels.tolist() == want[0].tolist()
    assert dists.tobytes() == want[1].tobytes()


def test_inertia_history_is_monotone_and_fit_beats_seeding():
    rng = np.random.default_rng(4)
    x = blobs(rng, [(0, 0), (5, 5), (9, 0)], 20, spread=0.8)
    model = KMeansModel.fit(x, 3, seed=7)
    hist = model.inertia_per_iter
    assert len(hist) >= 2
    assert all(a >= b for a, b in zip(hist, hist[1:]))
    assert model.inertia == hist[-1] <= hist[0]


def test_deterministic_for_fixed_seed():
    rng = np.random.default_rng(5)
    x = rng.random((60, 5))
    a = KMeansModel.fit(x, 8, seed=11)
    b = KMeansModel.fit(x, 8, seed=11)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.to_bytes() == b.to_bytes()


def test_structural_large_k():
    rng = np.random.default_rng(6)
    x = rng.random((2500, 3))
    model = KMeansModel.fit(x, 2000, seed=1, max_iters=2)
    assert model.centroids.shape == (2000, 3)
    assert max(model.assign(x[:50])) < 2000


def test_centroids_distinct_on_distinct_data():
    rng = np.random.default_rng(7)
    x = blobs(rng, [(0, 0), (4, 4), (8, 0), (0, 8)], 10, spread=0.2)
    model = KMeansModel.fit(x, 4, seed=9)
    rounded = {tuple(c) for c in model.centroids}
    assert len(rounded) == 4


def test_golden_fit_and_assign_on_a_mixture():
    """k=64, dim 96 on a 100-component mixture, 3 iterations: the digests pin
    every centroid byte, the inertia history and held-out labels, so a faster
    distance computation must reproduce them."""
    rng = np.random.default_rng(12)
    means = rng.standard_normal((100, 96)) * 3.0
    rows = means[rng.integers(0, 100, 600)] + rng.standard_normal((600, 96))
    model = KMeansModel.fit(rows[:400], 64, seed=4, max_iters=3, tol=0)
    assert model.n_iter == 3

    def sha(blob):
        return hashlib.sha256(blob).hexdigest()

    assert sha(model.to_bytes()) == (
        "b585cab853cbadb8686e855191ac68f4ddb3e5abf286ae8d576ad8cf4e3bd035")
    assert sha(repr(model.inertia_per_iter).encode()) == (
        "aa63a2e5191bf1d7a3bc9ea2387c522fc25640d4ab6eb5756ea8679cade55610")
    assert sha(repr(model.assign(rows[400:])).encode()) == (
        "01cae560cd742f533dd34296ccea906f8dc923b341f6c0169c4cec847bfd9ff1")


def paper_shape_rows():
    """2400 float32 rows of dim 768 from a 2000-component mixture, generated
    as the discretize-k500 benchmark generates its seed-1 inputs: the first
    800 are its fit rows, the other 1600 its held-out rows."""
    k, dim, n = 500, 768, 2400
    rng = np.random.default_rng([1, 768])
    means = rng.standard_normal((4 * k, dim), dtype=np.float32)
    rows = means[rng.integers(0, len(means), size=n)]
    rows += rng.standard_normal((n, dim), dtype=np.float32)
    return rows


def test_golden_seeding_at_the_paper_shape():
    """k-means++ seeds at k=500, dim 768 over the 800 fit rows. The digest
    was recorded with a full recompute of every row's distance per draw, so
    screening must keep every draw."""
    x = paper_shape_rows()[:800].astype(np.float64)
    seeds, _, _ = _plusplus_init(x, 500, np.random.default_rng(0))
    assert hashlib.sha256(x[seeds].tobytes()).hexdigest() == (
        "6d4365aaeb3180f08907c3f987c0e659ca6da7c3376316852b46d0e8746825d1")


def test_golden_seeding_at_the_paper_shape_off_the_origin():
    """The same rows moved by a common offset of 100, recorded with the
    float64 screen: a screen that rounds the offset instead of the spread
    needs more exact rows here, and must still keep every draw."""
    x = paper_shape_rows()[:800].astype(np.float64) + 100.0
    seeds, _, _ = _plusplus_init(x, 500, np.random.default_rng(0))
    assert hashlib.sha256(repr(seeds).encode()).hexdigest() == (
        "64c05023f999130c63865ef4607ab642fae6060136cbc7ae72db489ff1b7d61e")


def test_golden_fit_and_assign_at_the_paper_shape():
    """k=500 over the 800 fit rows, 2 iterations, then the 1600 held-out
    rows assigned: the discretize-k500 benchmark's fit and assign, pinned by
    digests recorded with the float64 screen."""
    rows = paper_shape_rows()
    model = KMeansModel.fit(rows[:800], 500, seed=0, max_iters=2, tol=0)

    def sha(blob):
        return hashlib.sha256(blob).hexdigest()

    assert sha(model.to_bytes()) == (
        "b056782bd70322dae9557886cee46c464f03eb57fe89d683cf9fc0147a442f7a")
    assert sha(repr(model.inertia_per_iter).encode()) == (
        "ae59747b7d5eadbe5a26122103be4033560d4406480c9656f31baaba976ee3b5")
    assert sha(repr(model.assign(rows[800:])).encode()) == (
        "24051eb3781e78370bb76a7fe7e074dfae7f813ee4f81376e213086d30a74317")


def test_seeding_past_the_distinct_rows_takes_the_lowest_unused():
    # 3 distinct rows among 30 and k=12: once the three are seeds every d2 is
    # zero, and the other nine seeds are the lowest unused rows
    rng = np.random.default_rng(13)
    x = rng.random((3, 5))[rng.integers(0, 3, 30)]
    seeds, _, _ = _plusplus_init(x, 12, np.random.default_rng(2))
    assert seeds == kmeans_plusplus_naive(x, 12, np.random.default_rng(2))
    assert len(np.unique(x[seeds[:3]], axis=0)) == 3
    assert seeds[3:] == sorted(set(range(30)) - set(seeds[:3]))[:9]


def test_seeding_labels_a_tied_row_with_the_lowest_seed_index():
    # rows 2 then 0 are drawn, and row 1 lies halfway between them
    x = np.array([[0.0], [1.0], [2.0]])
    seeds, labels, dists = _plusplus_init(x, 2, np.random.default_rng(0))
    assert seeds == [2, 0]
    assert labels.tolist() == [1, 0, 0]
    assert dists.tolist() == [0.0, 1.0, 0.0]


def test_fit_assigns_the_rows_once_per_iteration(monkeypatch):
    """Seeding gives the first assignment, and each iteration's assignment to
    its updated centroids gives the next inertia, the last the final one."""
    calls = []

    def counted(x, centroids):
        calls.append(len(centroids))
        return _nearest(x, centroids)

    monkeypatch.setattr(kmeans, "_nearest", counted)
    rng = np.random.default_rng(5)
    x = blobs(rng, [(0, 0), (5, 5), (0, 5)], 20)
    for max_iters, tol in ((1, 0.0), (3, 0.0), (100, 1e-6)):
        calls.clear()
        model = KMeansModel.fit(x, 3, seed=1, max_iters=max_iters, tol=tol)
        assert len(calls) == model.n_iter == len(model.inertia_per_iter) - 1
    assert model.n_iter < 100  # the last fit converged before its limit


def test_empty_cluster_repair_moves_to_farthest_point():
    x = np.array([[0.0, 0.0], [0.1, 0.0], [4.0, 4.0], [4.2, 4.0]])
    centroids = np.array([[0.0, 0.0], [4.0, 4.0], [100.0, 100.0]])
    labels, dists = _nearest(x, centroids)
    assert np.bincount(labels, minlength=3)[2] == 0
    updated = _update_centroids(x, labels, dists, 3)
    farthest = x[int(np.argmax(dists))]
    assert np.array_equal(updated[2], farthest)


def test_n_below_k_rejected():
    with pytest.raises(ValueError, match="at least"):
        KMeansModel.fit(np.zeros((3, 2)), 4, seed=0)


def test_non_finite_features_rejected():
    x = np.zeros((4, 2))
    x[1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        KMeansModel.fit(x, 2, seed=0)


def test_features_outside_float32_rejected():
    x = np.zeros((4, 2))
    x[2, 0] = -1e39
    with pytest.raises(FormatError, match="features: value outside the float32 range"):
        KMeansModel.fit(x, 2, seed=0)
    model = KMeansModel(centroids=np.array([[0.0, 1.0], [2.0, 3.0]]))
    with pytest.raises(FormatError, match="float32"):
        model.assign(x)


@pytest.mark.parametrize("value, message", [
    (1e39, "value outside the float32 range"), (np.nan, "non-finite value"),
])
def test_centroids_a_model_file_cannot_hold_rejected(value, message):
    with pytest.raises(FormatError, match=f"centroids: {message}"):
        KMeansModel(centroids=np.array([[0.0, 1.0], [value, 2.0]]))


def test_dim_mismatch_rejected():
    rng = np.random.default_rng(8)
    model = KMeansModel.fit(rng.random((10, 3)), 2, seed=0)
    with pytest.raises(ValueError, match="dim"):
        model.assign(rng.random((5, 4)))


def test_save_load_roundtrip_at_f32_precision(tmp_path):
    rng = np.random.default_rng(9)
    model = KMeansModel.fit(rng.random((30, 4)), 5, seed=3)
    path = tmp_path / "km.bin"
    model.save(str(path))
    loaded = KMeansModel.load(str(path))
    assert loaded.k == 5 and loaded.dim == 4
    assert np.abs(loaded.centroids - model.centroids).max() < 1e-6
    x = rng.random((50, 4))
    assert loaded.assign(x) == model.assign(x)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "km.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
    with pytest.raises(FormatError, match="magic"):
        KMeansModel.load(str(path))


def test_load_rejects_truncated_payload(tmp_path):
    import struct

    path = tmp_path / "km.bin"
    path.write_bytes(struct.pack("<8sIQQ", b"ABPEKMNS", 1, 2, 2) + b"\x00" * 8)
    with pytest.raises(FormatError, match="payload"):
        KMeansModel.load(str(path))
