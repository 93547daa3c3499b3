"""Lloyd's k-means with k-means++ seeding over feature matrices.

The fitted model is the discretizer of the pipeline: ``assign`` maps each
feature row to the id of its nearest centroid (squared Euclidean, ties to
the lowest centroid index), turning a feature matrix into a token
sequence.

Model file: magic ``ABPEKMNS``, u32 LE version (=1), u64 LE k, u64 LE dim,
then k*dim little-endian float32 centroid values, row-major.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import _check_matrix, _check_size, _pack_matrix, _save, _unpack_matrix

KMEANS_MAGIC = b"ABPEKMNS"
KMEANS_VERSION = 1


def _as_features(features, dim: int | None = None) -> np.ndarray:
    x = _check_matrix(np.asarray(features, dtype=np.float64), "features")
    if dim is not None and x.shape[1] != dim:
        raise ValueError(f"feature dim {x.shape[1]} != model dim {dim}")
    return x


def _rounding_bound(dim: int, sq_norms):
    """How far the screen ``‖a‖² − 2a·b + ‖b‖²`` may lie from the exact
    ``((a - b) ** 2).sum()``, both in float64 and each in any summation
    order, for vectors of length ``dim`` with ``sq_norms = ‖a‖² + ‖b‖²``:
    ``4·(dim+4)·(eps·sq_norms + smallest subnormal)``, that is both formulas'
    rounding relative to ``sq_norms`` plus underflow, with room to spare.
    """
    fin = np.finfo(np.float64)
    return 4 * (dim + 4) * (fin.eps * sq_norms + fin.smallest_subnormal)


# doubles per temporary array in _nearest (about 4 MB)
_BLOCK = 500_000


def _nearest(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: index of the nearest centroid and the squared distance to it.

    Exact by definition: the label is the lowest index among the minima of
    ``((row - c) ** 2).sum()`` over the centroids, and the distance is that
    expression's value for the label, bit for bit, whatever the BLAS.

    Each block of rows is screened with one matmul, ``‖x‖² − 2x·cᵀ + ‖c‖²``,
    which is within ``bound = _rounding_bound(dim, ‖x‖² + max‖c‖²)`` of the
    exact value, so a centroid screened more than ``2·bound`` above the row's
    screened minimum cannot be (or tie) the exact nearest. The centroids left,
    one per row unless the row is near a tie, get the exact formula, and the
    row takes the lowest index among their minima; that value is the returned
    distance.
    Values within the float32 range cannot overflow any of this in float64.
    Every temporary holds at most about ``_BLOCK`` doubles.
    """
    n, dim = x.shape
    k = centroids.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    cc = (centroids**2).sum(axis=1)
    step = max(1, _BLOCK // max(k, dim))
    pairs_step = max(1, _BLOCK // dim)
    for s in range(0, n, step):
        xb = x[s : s + step]
        xx = (xb**2).sum(axis=1)
        d = xb @ centroids.T
        d *= -2.0
        d += xx[:, None]
        d += cc
        bound = _rounding_bound(dim, xx + cc.max())
        rows, cols = np.nonzero(d <= (d.min(axis=1) + 2.0 * bound)[:, None])
        exact = np.concatenate([
            ((xb[rows[a : a + pairs_step]] - centroids[cols[a : a + pairs_step]]) ** 2).sum(axis=1)
            for a in range(0, rows.size, pairs_step)
        ])
        # pairs come by row, then index, and the sort is stable: sorted by row,
        # then exact distance, each row's first pair is its lowest-index minimum
        order = np.lexsort((exact, rows))
        first = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
        labels[s : s + step] = cols[first]
        dists[s : s + step] = exact[first]
    return labels, dists


def _plusplus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """Row indices of the k-means++ seeds (Arthur & Vassilvitskii 2007).

    Each draw after the first picks a row with probability proportional to
    ``d2``, its squared distance to the nearest seed so far, so the draws
    depend on every bit of ``d2``. It stays exact: each entry is the minimum
    of ``((row - seed) ** 2).sum()`` over the seeds, as a full recompute per
    seed would give it.

    A new seed ``s`` can change only the rows whose exact distance to it is
    below their ``d2``. One matvec screens every row with
    ``‖x‖² − 2x·s + ‖s‖²``, which lies within
    ``bound = _rounding_bound(dim, ‖x‖² + ‖s‖²)`` of that exact distance, so
    a row screened above ``d2 + 2·bound`` cannot fall, nor can a row whose
    ``d2`` is already ``+0.0``. Only the rows left get the exact formula and
    take its minimum with ``d2``.

    Once every ``d2`` is zero it stays zero and the rng is not drawn again:
    the remaining seeds are the lowest unused rows, in order.
    """
    n, dim = x.shape
    xx = (x**2).sum(axis=1)
    chosen = [int(rng.integers(0, n))]
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            unused = np.ones(n, dtype=bool)
            unused[chosen] = False
            chosen += np.flatnonzero(unused)[: k - len(chosen)].tolist()
            break
        u = rng.random() * total
        j = min(int(np.searchsorted(np.cumsum(d2), u, side="right")), n - 1)
        chosen.append(j)
        screen = xx - 2.0 * (x @ x[j]) + xx[j]
        rows = np.flatnonzero(
            (screen <= d2 + 2.0 * _rounding_bound(dim, xx + xx[j])) & (d2 > 0.0)
        )
        d2[rows] = np.minimum(d2[rows], ((x[rows] - x[j]) ** 2).sum(axis=1))
    return chosen


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
        # centroids a file could not hold would also break _nearest's bound
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
        x = _as_features(features)
        k = _check_size(k, "k", 1)
        if x.shape[0] < k:
            raise ValueError(f"need at least k={k} rows, got {x.shape[0]}")
        max_iters = _check_size(max_iters, "max_iters", 1)
        if not tol >= 0:
            raise ValueError("tol must be >= 0")

        rng = np.random.default_rng(seed)
        centroids = x[_plusplus_init(x, k, rng)]
        history: list[float] = []
        for _ in range(max_iters):
            labels, dists = _nearest(x, centroids)
            history.append(float(dists.sum()))
            updated = _update_centroids(x, labels, dists, k)
            shift = float(np.sqrt(((updated - centroids) ** 2).sum(axis=1)).max())
            centroids = updated
            if shift <= tol:
                break
        _, dists = _nearest(x, centroids)
        history.append(float(dists.sum()))
        return cls(centroids=centroids, inertia_per_iter=tuple(history))

    def assign(self, features) -> list[int]:
        """Nearest-centroid id per feature row (ties to the lowest index)."""
        x = _as_features(features, dim=self.dim)
        labels, _ = _nearest(x, self.centroids)
        return [int(c) for c in labels]

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
