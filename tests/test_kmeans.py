import hashlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from abpe import FormatError, KMeansModel, kmeans, load_features
from abpe.cli import main
from abpe.kmeans import (_as_features, _nearest, _plusplus_init, _scale_exponent, _screened,
                         _update_centroids)

from oracles import (
    best_two_means_partition,
    kmeans_plusplus_naive,
    labels_to_partition,
    nearest_centroid_bruteforce,
)


def fit_rows(x, centroids=()):
    """``(x, mean, e, xs)``: ``x`` as a fit screens it, one float32 copy ``xs``
    centred on the rows' mean, in a frame that also holds ``centroids``."""
    x, lo, hi = _as_features(x)
    c = np.asarray(centroids, dtype=np.float64)
    mean = x.mean(axis=0)
    e = _scale_exponent(mean, min(lo, c.min(initial=lo)), max(hi, c.max(initial=hi)))
    return x, mean, e, _screened(x, mean, e)


def nearest(x, centroids):
    """``_nearest`` on ``x`` as a fit screens it."""
    x, mean, e, xs = fit_rows(x, centroids)
    return _nearest(x, centroids, mean, e, xs)


def seeding(x, k, rng):
    """``_plusplus_init`` on ``x`` as a fit screens it."""
    x, _, e, xs = fit_rows(x)
    return _plusplus_init(x, xs, e, k, rng)


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
    want = nearest(x, centroids)
    assert want[0].tolist() == nearest_centroid_bruteforce(x, centroids)
    monkeypatch.setattr(kmeans, "_BLOCK", block)
    labels, dists = nearest(x, centroids)
    assert labels.tolist() == want[0].tolist()
    assert dists.tobytes() == want[1].tobytes()
    assert KMeansModel(centroids).assign(x) == want[0].tolist()


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
    seeds, _, _ = seeding(x, 500, np.random.default_rng(0))
    assert hashlib.sha256(x[seeds].tobytes()).hexdigest() == (
        "6d4365aaeb3180f08907c3f987c0e659ca6da7c3376316852b46d0e8746825d1")


def test_golden_seeding_at_the_paper_shape_off_the_origin():
    """The same rows moved by a common offset of 100, recorded with the
    float64 screen: a screen that rounds the offset instead of the spread
    needs more exact rows here, and must still keep every draw."""
    x = paper_shape_rows()[:800].astype(np.float64) + 100.0
    seeds, _, _ = seeding(x, 500, np.random.default_rng(0))
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
    seeds, _, _ = seeding(x, 12, np.random.default_rng(2))
    assert seeds == kmeans_plusplus_naive(x, 12, np.random.default_rng(2))
    assert len(np.unique(x[seeds[:3]], axis=0)) == 3
    assert seeds[3:] == sorted(set(range(30)) - set(seeds[:3]))[:9]


def test_seeding_labels_a_tied_row_with_the_lowest_seed_index():
    # rows 2 then 0 are drawn, and row 1 lies halfway between them
    x = np.array([[0.0], [1.0], [2.0]])
    seeds, labels, dists = seeding(x, 2, np.random.default_rng(0))
    assert seeds == [2, 0]
    assert labels.tolist() == [1, 0, 0]
    assert dists.tolist() == [0.0, 1.0, 0.0]


def test_fit_assigns_the_rows_once_per_iteration(monkeypatch):
    """Seeding gives the first assignment, and each iteration's assignment to
    its updated centroids gives the next inertia, the last the final one."""
    calls = []

    def counted(x, centroids, *frame):
        calls.append(len(centroids))
        return _nearest(x, centroids, *frame)

    monkeypatch.setattr(kmeans, "_nearest", counted)
    rng = np.random.default_rng(5)
    x = blobs(rng, [(0, 0), (5, 5), (0, 5)], 20)
    for max_iters, tol in ((1, 0.0), (3, 0.0), (100, 1e-6)):
        calls.clear()
        model = KMeansModel.fit(x, 3, seed=1, max_iters=max_iters, tol=tol)
        assert len(calls) == model.n_iter == len(model.inertia_per_iter) - 1
    assert model.n_iter < 100  # the last fit converged before its limit


def test_kmeans_fit_screens_its_rows_once(monkeypatch):
    """Seeding and every Lloyd iteration screen against one float32 copy of
    the rows; each iteration converts only its centroids."""
    converted = []

    def counted(a, mean, e):
        converted.append(len(a))
        return _screened(a, mean, e)

    monkeypatch.setattr(kmeans, "_screened", counted)
    x = np.random.default_rng(5).random((60, 2))
    for max_iters in (1, 2, 3):
        converted.clear()
        model = KMeansModel.fit(x, 4, seed=1, max_iters=max_iters, tol=0.0)
        assert model.n_iter == max_iters
        assert converted.count(len(x)) == 1
        assert converted.count(4) == len(converted) - 1 == max_iters


@pytest.mark.parametrize("far", [4e6, -4e6])
def test_nearest_to_centroids_far_beyond_the_rows_matches_oracle(far):
    """A centroid far above or below the rows' range, in a frame that holds it."""
    rng = np.random.default_rng(14)
    x = rng.random((30, 3))
    centroids = np.array([[0.5, 0.5, 0.5], [far, 0.0, 1.0], [0.2, 0.1, 0.9]])
    assert fit_rows(x, centroids)[2] < fit_rows(x)[2]  # the centroid lowers the scale
    labels, dists = nearest(x, centroids)
    assert labels.tolist() == nearest_centroid_bruteforce(x, centroids)
    assert dists.tobytes() == ((x - centroids[labels]) ** 2).sum(axis=1).tobytes()


def test_kmeans_fit_screens_a_mean_beyond_the_rows_in_its_padded_frame(monkeypatch):
    """Rows at 1e8 with a spread of 1e-8, below one float64 step there, take a
    few values, and a cluster's float64 mean rounds past the rows' range: the
    fit's frame, padded for such means, still gives the exact labels."""
    x = 1e8 + 1e-8 * np.random.default_rng(63).standard_normal((40, 2))
    lo, hi = x.min(), x.max()
    pad = len(x) * 2.0**-52 * max(-lo, hi)
    beyond = []

    def updated(x, labels, dists, k):
        centroids = _update_centroids(x, labels, dists, k)
        beyond.append(max(lo - centroids.min(), centroids.max() - hi))
        return centroids

    def checked(x, centroids, *frame):
        labels, dists = _nearest(x, centroids, *frame)
        assert labels.tolist() == nearest_centroid_bruteforce(x, centroids)
        assert dists.tobytes() == ((x - centroids[labels]) ** 2).sum(axis=1).tobytes()
        return labels, dists

    monkeypatch.setattr(kmeans, "_update_centroids", updated)
    monkeypatch.setattr(kmeans, "_nearest", checked)
    model = KMeansModel.fit(x, 4, seed=0, max_iters=3, tol=0)
    monkeypatch.undo()
    assert 0 < max(beyond) <= pad
    want = nearest_centroid_bruteforce(x, model.centroids)
    assert model.assign(x) == want
    assert model.inertia == float(((x - model.centroids[want]) ** 2).sum(axis=1).sum())


def test_kmeans_picks_one_frame_per_call(monkeypatch):
    calls = []

    def counted(mean, lo, hi):
        calls.append((lo, hi))
        return _scale_exponent(mean, lo, hi)

    monkeypatch.setattr(kmeans, "_scale_exponent", counted)
    x = np.random.default_rng(5).random((60, 2))
    for max_iters in (1, 2, 3):
        calls.clear()
        model = KMeansModel.fit(x, 4, seed=1, max_iters=max_iters, tol=0.0)
        assert model.n_iter == max_iters
        assert len(calls) == 1
    calls.clear()
    model.assign(x)
    assert len(calls) == 1


def test_nearest_and_plusplus_leave_their_arguments_as_they_were():
    x, centroids = tied_rows_and_centroids(1e6)  # the exact formula runs on many rows
    x, mean, e, xs = fit_rows(x, centroids)
    arrays = (x, centroids, mean, xs)
    before = [a.tobytes() for a in arrays]
    _nearest(x, centroids, mean, e, xs)
    _nearest(x, centroids, mean, e)
    _plusplus_init(x, xs, e, 9, np.random.default_rng(0))
    assert [a.tobytes() for a in arrays] == before


def tied_rows_and_centroids(offset):
    """Centroids of dim 6 (below 8, so numpy sums in the oracle's order) with
    duplicates, and rows on them or halfway between two: most rows have two
    or more nearest centroids, exactly, so the screen keeps two or more."""
    rng = np.random.default_rng(21)
    distinct = rng.integers(-3, 4, size=(5, 6)).astype(np.float64)
    centroids = distinct[[0, 1, 1, 2, 3, 3, 3, 4, 0]]
    pairs = rng.integers(0, len(centroids), size=(60, 2))
    x = (centroids[pairs[:, 0]] + centroids[pairs[:, 1]]) / 2
    return x + offset, centroids + offset


def tied_share(x, centroids):
    """The share of rows with two or more nearest centroids under the float64 formula."""
    d = np.stack([((x - c) ** 2).sum(axis=1) for c in centroids], axis=1)
    return float(((d == d.min(axis=1, keepdims=True)).sum(axis=1) >= 2).mean())


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
def test_nearest_on_tied_rows_matches_oracle(offset):
    # halves of integers near 1e8 are exact, so every exact tie stays a tie
    x, centroids = tied_rows_and_centroids(offset)
    assert tied_share(x, centroids) > 0.5
    want = nearest_centroid_bruteforce(x, centroids)
    labels, dists = nearest(x, centroids)
    assert labels.tolist() == want
    assert dists.tobytes() == ((x - centroids[labels]) ** 2).sum(axis=1).tobytes()
    assert KMeansModel(centroids).assign(x) == want


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
def test_kmeans_fit_on_tied_rows_matches_oracle(offset):
    """Six distinct rows, three points and their midpoints, and k=9: seeding
    runs past the distinct rows, so three centroids repeat, and half the rows
    tie at every assignment."""
    rng = np.random.default_rng(22)
    a, b, c = rng.integers(-3, 4, size=(3, 6)).astype(np.float64)
    points = np.array([a, b, c, (a + b) / 2, (b + c) / 2, (a + c) / 2])
    x = points[rng.permutation(np.repeat(np.arange(6), 5))] + offset
    model = KMeansModel.fit(x, 9, seed=3, max_iters=3, tol=0)
    seeds = kmeans_plusplus_naive(x, 9, np.random.default_rng(3))
    d2 = np.min([((x - x[s]) ** 2).sum(axis=1) for s in seeds], axis=0)
    assert model.inertia_per_iter[0] == float(d2.sum())
    assert tied_share(x, model.centroids) >= 0.5
    want = nearest_centroid_bruteforce(x, model.centroids)
    assert model.assign(x) == want
    assert model.inertia == float(((x - model.centroids[want]) ** 2).sum(axis=1).sum())


def test_centroids_take_array_likes_as_features_do():
    values = [[0.0, 1.0], [2.0, -3.0]]
    want = KMeansModel(np.array(values)).to_bytes()
    for centroids in (values, np.array(values, dtype=np.int64), np.array(values, np.float32)):
        model = KMeansModel(centroids)
        assert model.centroids.dtype == np.float64
        assert model.to_bytes() == want
        assert model.assign([[2, -2]]) == [1]


_NON_FINITE = "non-finite value"
_OUT_OF_RANGE = "value outside the float32 range"
# bad values, and the message every check of a matrix gives for them: a
# non-finite value is named before one out of range, wherever either lies
_BAD_VALUES = [
    ([np.nan], _NON_FINITE), ([np.inf], _NON_FINITE), ([-np.inf], _NON_FINITE),
    ([1e39], _OUT_OF_RANGE), ([-1e39], _OUT_OF_RANGE),
    *(([bad, big][::order], _NON_FINITE)
      for bad in (np.nan, np.inf, -np.inf) for big in (1e39, -1e39) for order in (1, -1)),
]


@pytest.mark.parametrize("values, message", _BAD_VALUES)
def test_kmeans_check_messages(tmp_path, capsys, values, message):
    x = np.arange(8.0).reshape(4, 2)
    x.flat[[5, 2][: len(values)]] = values
    good = KMeansModel(np.array([[0.0, 1.0], [2.0, 3.0]]))
    calls = [(lambda: KMeansModel.fit(x, 2, seed=0), "features"),
             (lambda: good.assign(x), "features"),
             (lambda: KMeansModel(x), "centroids"),
             (lambda: KMeansModel(x.tolist()), "centroids")]
    csv = tmp_path / "f.csv"
    csv.write_text("".join(",".join(map(repr, row)) + "\n" for row in x.tolist()),
                   encoding="utf-8")
    files = [csv]
    if not any(np.isfinite(values)):  # float32 holds NaN and ±inf, not 1e39
        binary = tmp_path / "f.bin"
        binary.write_bytes(struct.pack("<8sIQQ", b"ABPEFEAT", 1, 4, 2) + x.astype("<f4").tobytes())
        files.append(binary)
    calls += [(lambda path=path: load_features(str(path)), str(path)) for path in files]
    for call, origin in calls:
        with pytest.raises(FormatError) as err:
            call()
        assert str(err.value) == f"{origin}: {message}"
    km, out = tmp_path / "km.bin", tmp_path / "out.tok"
    good.save(str(km))
    for path in files:
        for argv in (["kmeans-fit", "--in", path, "--k", 2, "--seed", 0],
                     ["discretize", "--model", km, "--in", path]):
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([str(a) for a in argv + ["--out", out]]) == 1
            assert capsys.readouterr().err == f"error: {path}: {message}\n"
            assert not out.exists()


def test_empty_cluster_repair_moves_to_farthest_point():
    x = np.array([[0.0, 0.0], [0.1, 0.0], [4.0, 4.0], [4.2, 4.0]])
    centroids = np.array([[0.0, 0.0], [4.0, 4.0], [100.0, 100.0]])
    labels, dists = nearest(x, centroids)
    assert np.bincount(labels, minlength=3)[2] == 0
    updated = _update_centroids(x, labels, dists, 3)
    farthest = x[int(np.argmax(dists))]
    assert np.array_equal(updated[2], farthest)


@pytest.mark.parametrize("k, dim", [(3, 1), (50, 100)])
def test_update_centroids_memory_is_bounded_in_bytes(k, dim):
    # rows holding 4·_BLOCK values: the flat scatter's index covers one block of rows at a time
    n = 4 * kmeans._BLOCK // dim + 1
    x = np.random.default_rng(0).random((n, dim))
    labels, dists = np.arange(n) % k, np.zeros(n)
    tracemalloc.start()
    try:
        _update_centroids(x, labels, dists, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (k * dim + 2 * kmeans._BLOCK) * 8


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
