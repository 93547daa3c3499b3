"""Lloyd's k-means with k-means++ seeding over feature matrices.

The fitted model is the discretizer of the pipeline: ``assign`` maps each
feature row to the id of its nearest centroid (squared Euclidean, ties to
the lowest centroid index), turning a feature matrix into a token
sequence.

Model file: magic ``ABPEKMNS``, u32 LE version (=1), u64 LE k, u64 LE dim,
then k*dim little-endian float32 centroid values, row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import _BLOCK, _check_matrix, _check_size, _pack_matrix, _save, _unpack_matrix

KMEANS_MAGIC = b"ABPEKMNS"
KMEANS_VERSION = 1


def _as_features(features, dim: int | None = None) -> tuple[np.ndarray, float, float]:
    """``features`` as a checked float64 matrix, with its least and greatest value."""
    x = np.asarray(features, dtype=np.float64)
    lo, hi = _check_matrix(x, "features")
    if dim is not None and x.shape[1] != dim:
        raise ValueError(f"feature dim {x.shape[1]} != model dim {dim}")
    return x, lo, hi


def _rounding_bound(dim: int, sq_norms):
    """How far the float32 screen may lie from the exact distance:
    ``3·(dim+8)·u·sq_norms + dim·2^-144`` with ``u = 2^-24``, infinite for
    ``dim > 2^21``.

    The screen works on float32 copies ``a = fl32(fl64(x - m)·2^e)`` of a row
    ``x`` and ``w`` of a centroid ``c`` (``_screened``), with any one float64
    ``m`` and ``e`` from ``_scale_exponent`` over a range that holds ``x`` and
    ``c``; the copies may be made at different times (``_Rows``). Let ``p``,
    ``q`` and ``G`` be float32 sums of the ``a_i²``, the ``w_i²`` and the
    ``a_i·w_i``, each added up in any order, by any BLAS kernel, with or
    without FMA (``2G`` may also be summed from the products ``a_i·(-2w_i)``);
    ``sq_norms = p + q``; and ``E = ((x - c) ** 2).sum()`` in float64. Then
    ``|4^e·E - (p + q - 2G)| <= bound``. In reals, with ``y = (x - m)·2^e``,
    ``z = (c - m)·2^e``, ``T = ‖y‖² + ‖z‖²`` and ``v = 2^-53``:

    - ``4^e·E*`` is ``‖y - z‖² <= 2T`` for the real distance ``E*``, and
      ``‖a - w‖² = ‖a‖² + ‖w‖² - 2a·w``, both exactly.
    - The float64 formula: each term of ``E`` meets at most ``dim + 2``
      roundings of size ``v``, and a square may lose ``2^-1075`` to underflow, so
      ``4^e·|E - E*| <= 2^-31·T + 4^e·dim·2^-1074 <= 2^-31·T + dim·2^-146``,
      as ``e <= 464``.
    - The copies: the float64 centring rounds by ``v``, the scaling is exact
      or underflows in float64, and float32 rounds by ``u`` or underflows by
      ``2^-150``, so ``|a_i - y_i| <= (u + 2v)·|y_i| + 2^-149``, likewise for
      ``w``. With ``r = (a - w) - (y - z)``, ``|‖a - w‖² - ‖y - z‖²|`` is at
      most ``2‖y - z‖·‖r‖ + ‖r‖²`` and
      ``‖r‖ <= (u + 2v)·(‖y‖ + ‖z‖) + 2^-148·√dim``: at most
      ``4.01·u·T + dim·2^-260``.
    - The float32 sums: every product meets at most ``dim`` roundings in any
      order of the additions, so each sum is off by at most
      ``γ = dim·u / (1 - dim·u)`` of the sum of its terms' magnitudes, plus
      ``2^-150`` per product that underflows (an addition never does). With
      ``Σ|a_i·w_i| <= (‖a‖² + ‖w‖²)/2``, ``p + q - 2G`` is within
      ``2γ·(‖a‖² + ‖w‖²) + dim·2^-147.5`` of ``‖a - w‖²``.

    Going back from ``T`` to ``‖a‖² + ‖w‖²`` costs a factor ``1 + 3u``, and from
    that to ``p + q`` a factor ``1 / (1 - γ)``. For ``dim·u <= 1/8``, so
    ``γ <= 1/7``, the sum is at most ``(8/3·dim + 4.8)·u·(p + q) + dim·2^-145``.
    The bound is larger by ``(dim/3 + 19)·u·(p + q) + dim·2^-145``: room for the
    few float32 or float64 roundings that each caller adds on its way to a
    threshold.
    """
    if dim > 2**21:
        return np.inf
    return 3 * (dim + 8) * 2.0**-24 * sq_norms + dim * 2.0**-144


def _scale_exponent(mean: np.ndarray, lo: float, hi: float) -> int:
    """The ``e`` for ``_screened``: for every value ``a`` in ``[lo, hi]``,
    ``fl64(a - mean)·2^e`` lies within ``±2^t``, ``t = (126 - L) // 2`` for
    ``dim = mean.size < 2^L``, so the float32 sums of ``dim`` such products,
    doubled and plus a squared norm, stay below ``2^128``. ``e`` stops at 464,
    so that the float64 formula's own underflow, scaled by ``4^e``, stays below
    ``dim·2^-146`` (see ``_rounding_bound``).
    ``lo`` and ``hi`` are extremes as ``_check_matrix`` returns them, so no
    value is scanned again; a wider range can only lower ``e``.
    """
    # rounding is monotone, so no |fl64(a - mean)| exceeds this
    spread = max(hi - mean.min(), mean.max() - lo)
    return min((126 - mean.size.bit_length()) // 2 - math.frexp(spread)[1], 464)


def _screened(a: np.ndarray, mean: np.ndarray, e: int) -> np.ndarray:
    """The float32 screen copy ``fl32(fl64(a - mean)·2^e)`` of ``a``."""
    return np.multiply(a - mean, 2.0**e, out=np.empty(a.shape, np.float32), casting="same_kind")


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``((a - b) ** 2).sum(axis=1)``, bit for bit, computed in ``a``'s memory."""
    a -= b
    a *= a
    return np.add.reduce(a, axis=1)


@dataclass(eq=False)
class _Rows:
    """Checked feature rows ``x`` and the frame of their float32 screen: every
    copy ``_screened(a, mean, e)`` uses ``e = _scale_exponent(mean, lo, hi)``,
    with ``lo`` and ``hi`` bounding ``x`` and each centroid set screened so far.
    A fit's rows are centred on their mean and copied once, into ``xs``, which
    seeding and every Lloyd iteration reuse; ``cover`` copies them again only
    when a centroid set lowers ``e``. Rows to assign are screened per block."""

    x: np.ndarray
    lo: float
    hi: float
    mean: np.ndarray
    xs: np.ndarray | None = None
    e: int = field(init=False)

    def __post_init__(self) -> None:
        self.e = _scale_exponent(self.mean, self.lo, self.hi)

    @classmethod
    def for_fit(cls, x: np.ndarray, lo: float, hi: float) -> "_Rows":
        rows = cls(x, lo, hi, x.mean(axis=0))
        rows.xs = _screened(x, rows.mean, rows.e)
        return rows

    def cover(self, centroids: np.ndarray) -> int:
        """``e`` once the range holds ``centroids`` too; ``xs`` follows a lower ``e``."""
        self.lo = min(self.lo, float(centroids.min()))
        self.hi = max(self.hi, float(centroids.max()))
        e = _scale_exponent(self.mean, self.lo, self.hi)
        if self.xs is not None and e != self.e:
            self.xs = _screened(self.x, self.mean, e)
        self.e = e
        return e


def _nearest(rows: _Rows, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Per row: index of the nearest centroid, and for a fit's rows (with an
    ``xs``) the squared distance to it; for rows to assign, None.

    Exact by definition: the label is the lowest index among the minima of
    ``((row - c) ** 2).sum()`` over the centroids, and the distance is that
    expression's value for the label, bit for bit, whatever the BLAS.

    Rows and centroids are screened on float32 copies in the frame of
    ``rows``, which ``cover`` widens to the centroids: one matmul gives
    ``‖c‖² - 2x·c`` per pair, which after the row's own ``‖x‖²`` is within
    ``bound = _rounding_bound(dim, ‖x‖² + max‖c‖²)`` of the exact value,
    scaled. A centroid screened more than ``2·bound`` above the row's screened
    minimum cannot be (or tie) the exact nearest, so a row with one centroid
    left takes it. Only a row near a tie keeps two or more; those get the
    exact formula, and the row takes the lowest index among their minima. A
    fit's distances are the exact formula again, on each row and its label.
    Every temporary holds at most about ``corpus._BLOCK`` doubles, beside the
    float32 copies of the centroids and of a fit's rows.
    """
    x = rows.x
    n, dim = x.shape
    k = centroids.shape[0]
    e = rows.cover(centroids)
    cs = _screened(centroids, rows.mean, e)
    cc = np.einsum("ij,ij->i", cs, cs)
    cs *= -2
    labels = np.empty(n, dtype=np.int64)
    dists = None if rows.xs is None else np.empty(n, dtype=np.float64)
    step = max(1, _BLOCK // max(k, dim))
    pairs_step = max(1, _BLOCK // dim)
    for s in range(0, n, step):
        xb = x[s : s + step]
        xs = _screened(xb, rows.mean, e) if rows.xs is None else rows.xs[s : s + step]
        d = xs @ cs.T
        d += cc
        bound = _rounding_bound(dim, np.einsum("ij,ij->i", xs, xs) + cc.max())
        near, cols = np.divmod(np.flatnonzero(d <= (d.min(axis=1) + 2 * bound)[:, None]), k)
        # the pairs left come by row, then index: each row's first is its lowest index left
        first = np.flatnonzero(np.diff(near, prepend=-1))
        best = cols[first]
        left = np.diff(first, append=near.size)
        tied = np.repeat(left > 1, left)
        if tied.any():
            near, cols = near[tied], cols[tied]
            exact = np.concatenate([
                _sq_dists(xb[near[a : a + pairs_step]], centroids[cols[a : a + pairs_step]])
                for a in range(0, near.size, pairs_step)
            ])
            # the sort is stable: sorted by row, then exact distance, each
            # row's first pair is its lowest-index minimum
            order = np.lexsort((exact, near))
            won = order[np.flatnonzero(np.diff(near[order], prepend=-1))]
            best[near[won]] = cols[won]
        labels[s : s + step] = best
        if dists is not None:
            dists[s : s + step] = _sq_dists(centroids[best], xb)  # (c - x)² is (x - c)²
    return labels, dists


def _plusplus_init(rows: _Rows, k: int,
                   rng: np.random.Generator) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Row indices of the k-means++ seeds (Arthur & Vassilvitskii 2007) of a
    fit's rows, then ``_nearest(rows, x[seeds])``: each row's nearest seed and
    squared distance.

    Each draw after the first picks a row with probability proportional to
    ``d2``, its squared distance to the nearest seed so far, so the draws
    depend on every bit of ``d2``. It stays exact: each entry is the minimum
    of ``((row - seed) ** 2).sum()`` over the seeds, as a full recompute per
    seed would give it.

    A new seed ``s`` can change only the rows whose exact distance to it is
    below their ``d2``. One float32 matvec over the fit's copies (``rows.xs``,
    centred on the rows' mean; a seed is a row, so the frame holds it) screens
    every row: ``‖x‖² - 2x·s + ‖s‖²`` lies within
    ``bound = _rounding_bound(dim, ‖x‖² + ‖s‖²)`` of that exact distance,
    scaled, so a row is left only if the screen minus ``bound`` is below its
    scaled ``d2``. As the bound is affine in the norms, that test is
    ``x·s >= lo + lo[s] - 4^e·d2/2`` with ``lo = (‖x‖² - bound(2‖x‖²)/2)/2``
    per row. Only the rows left get the exact formula and take its minimum
    with ``d2``; a row whose ``d2`` falls takes the new seed as its label, so
    a tie keeps the lowest seed index.

    Once every ``d2`` is zero it stays zero and the rng is not drawn again:
    the remaining seeds are the lowest unused rows, in order.
    """
    x, xs, e = rows.x, rows.xs, rows.e
    n, dim = x.shape
    xx = np.einsum("ij,ij->i", xs, xs).astype(np.float64)
    lo = (xx - _rounding_bound(dim, 2 * xx) / 2) / 2
    chosen = [int(rng.integers(0, n))]
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    labels = np.zeros(n, dtype=np.int64)
    for t in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            unused = np.ones(n, dtype=bool)
            unused[chosen] = False
            chosen += np.flatnonzero(unused)[: k - len(chosen)].tolist()
            break
        u = rng.random() * total
        j = min(int(np.searchsorted(np.cumsum(d2), u, side="right")), n - 1)
        chosen.append(j)
        rows = np.flatnonzero(xs @ xs[j] >= lo + lo[j] - np.ldexp(d2, 2 * e - 1))
        exact = _sq_dists(x[rows], x[j])
        labels[rows[exact < d2[rows]]] = t
        d2[rows] = np.minimum(d2[rows], exact)
    return chosen, labels, d2


def _update_centroids(
    x: np.ndarray, labels: np.ndarray, dists: np.ndarray, k: int
) -> np.ndarray:
    dim = x.shape[1]
    sums = np.zeros((k, dim), dtype=np.float64)
    np.add.at(sums, labels, x)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    nonempty = counts > 0
    sums[nonempty] /= counts[nonempty, None]
    empty = np.flatnonzero(~nonempty)
    if empty.size:
        # deterministic repair: hand each empty cluster the next point that
        # is farthest from its currently assigned centroid
        order = np.argsort(-dists, kind="stable")
        for slot, ci in enumerate(empty):
            sums[ci] = x[order[slot]]
    return sums


@dataclass(eq=False)
class KMeansModel:
    """Centroids plus the fit diagnostics: the inertia of the centroids each of Lloyd's iterations
    started from, then of the final ones. ``inertia`` and ``n_iter`` are None for a loaded model."""

    centroids: np.ndarray
    inertia_per_iter: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        # array-likes as features are taken; centroids a file could not hold
        # would also break _nearest's bound
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        _check_matrix(self.centroids, "centroids")

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def inertia(self) -> float | None:
        return self.inertia_per_iter[-1] if self.inertia_per_iter else None

    @property
    def n_iter(self) -> int | None:
        return len(self.inertia_per_iter) - 1 if self.inertia_per_iter else None

    @classmethod
    def fit(
        cls,
        features,
        k: int,
        *,
        seed: int,
        max_iters: int = 100,
        tol: float = 1e-6,
    ) -> "KMeansModel":
        """Run k-means++ seeding then Lloyd's iterations.

        Iterates until the largest centroid shift is <= ``tol`` or
        ``max_iters`` is reached. Deterministic for a fixed seed.
        """
        x, lo, hi = _as_features(features)
        k = _check_size(k, "k", 1)
        if x.shape[0] < k:
            raise ValueError(f"need at least k={k} rows, got {x.shape[0]}")
        max_iters = _check_size(max_iters, "max_iters", 1)
        if not tol >= 0:
            raise ValueError("tol must be >= 0")

        rows = _Rows.for_fit(x, lo, hi)
        seeds, labels, dists = _plusplus_init(rows, k, np.random.default_rng(seed))
        centroids = x[seeds]
        history = [float(dists.sum())]
        for _ in range(max_iters):
            updated = _update_centroids(x, labels, dists, k)
            shift = float(np.sqrt(((updated - centroids) ** 2).sum(axis=1)).max())
            centroids = updated
            labels, dists = _nearest(rows, centroids)
            history.append(float(dists.sum()))
            if shift <= tol:
                break
        return cls(centroids=centroids, inertia_per_iter=tuple(history))

    def assign(self, features) -> list[int]:
        """Nearest-centroid id per feature row (ties to the lowest index)."""
        x, lo, hi = _as_features(features, dim=self.dim)
        labels, _ = _nearest(_Rows(x, lo, hi, self.centroids.mean(axis=0)), self.centroids)
        return labels.tolist()

    def to_bytes(self) -> bytes:
        return _pack_matrix(KMEANS_MAGIC, KMEANS_VERSION, self.centroids, "centroids")

    def save(self, path: str) -> None:
        _save(self.to_bytes(), path)

    @classmethod
    def load(cls, path: str) -> "KMeansModel":
        """Read a model file; centroids come back at float32 precision."""
        with open(path, "rb") as fh:
            blob = fh.read()
        return cls(centroids=_unpack_matrix(blob, KMEANS_MAGIC, KMEANS_VERSION, path))
