"""Seeded k-means over real vectors with deterministic tie-breaking.

Lloyd's algorithm with uniformly sampled data points as initial centroids, a
fixed number of independent restarts, and squared Euclidean distance on the
raveled vectors. All randomness comes from numpy's PCG64 generator
(`numpy.random.default_rng`) seeded from (seed, restart index), so a given
(points, options) pair always produces bitwise-identical labels regardless of
how restarts are scheduled.

Assignment runs in row chunks under a fixed scratch budget, so its memory
stays bounded whatever n and k are. Ties in assignment go to the lowest
centroid index. An empty cluster is reseeded with the point farthest from
that cluster's current centroid, which keeps exactly k representatives
alive. A descent stops when its labels repeat those of one or two iterations
earlier, or after max_iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class ClusterOptions:
    k: int
    max_iterations: int = 100
    restarts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class ClusterResult:
    """Labels in 1..k, real-valued centroids, and the within-cluster SSE.

    sse_history holds the SSE after each Lloyd iteration of the restart that
    produced this result (non-increasing by construction).
    """

    labels: np.ndarray
    centroids: np.ndarray
    sse: float
    sse_history: list[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


# float64 scratch per assignment chunk: bounds the n x k score block
_CHUNK_BYTES = 2 << 20


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centroid, lowest index on ties.

    Takes the argmin of 0.5*||c||^2 - p.c, which ranks centroids like
    ||p - c||^2, over row chunks whose score block fits in _CHUNK_BYTES.
    """
    half_c2 = 0.5 * np.einsum("ij,ij->i", centroids, centroids)
    rows = max(1, _CHUNK_BYTES // (8 * len(centroids)))
    labels = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), rows):
        scores = points[start:start + rows] @ centroids.T
        np.subtract(half_c2, scores, out=scores)
        labels[start:start + rows] = scores.argmin(axis=1)
    return labels


def _label_sums(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    n, dim = points.shape
    if dim <= 512:
        # per-dimension bincount: deterministic summation order, fast for
        # many points in few dimensions
        return np.stack(
            [np.bincount(labels, weights=points[:, j], minlength=k)
             for j in range(dim)],
            axis=1,
        )
    # few wide clusters: masked sums
    sums = np.zeros((k, dim), dtype=np.float64)
    for j in range(k):
        members = points[labels == j]
        if len(members):
            sums[j] = members.sum(axis=0)
    return sums


def _lloyd(
    points: np.ndarray, centroids: np.ndarray, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    k = centroids.shape[0]
    recent: list[np.ndarray] = []  # labels of the last two iterations
    history: list[float] = []
    labels = np.zeros(len(points), dtype=np.int64)
    sse = float("inf")
    for _ in range(max_iterations):
        labels = _assign(points, centroids)
        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            # farthest point from the empty cluster's current centroid among
            # those whose cluster keeps a member (k <= n, so one exists);
            # argmax keeps the lowest index on ties
            d2 = ((points - centroids[j]) ** 2).sum(axis=1)
            d2[counts[labels] < 2] = -1.0
            p = d2.argmax()
            counts[labels[p]] -= 1
            labels[p] = j
            counts[j] = 1
        sums = _label_sums(points, labels, k)
        centroids = sums / np.maximum(counts, 1)[:, None]
        sse = float(((points - centroids[labels]) ** 2).sum())
        history.append(sse)
        # centroids are a function of the labels, so labels seen one or two
        # iterations ago mean a fixed point or a period-2 cycle: stop
        if any(np.array_equal(labels, old) for old in recent):
            break
        recent = [labels] + recent[:1]
    return labels, centroids, sse, history


def kmeans(
    points: np.ndarray,
    opts: ClusterOptions,
    initial_centroids: np.ndarray | None = None,
) -> ClusterResult:
    """Cluster row vectors into opts.k groups minimizing within-cluster SSE.

    Runs opts.restarts independent Lloyd descents from random initial
    centroids (k distinct input points each) and returns the result with the
    smallest SSE; ties go to the earliest restart. Passing
    ``initial_centroids`` (shape (k, dim)) skips the random restarts and runs
    a single descent from the given centroids.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty 2-D array of row vectors")
    n = pts.shape[0]
    if opts.k > n:
        raise ValueError(f"k={opts.k} exceeds number of points {n}")

    if initial_centroids is not None:
        cents = np.asarray(initial_centroids, dtype=np.float64)
        if cents.shape != (opts.k, pts.shape[1]):
            raise ValueError(
                f"initial centroids must have shape ({opts.k}, {pts.shape[1]})"
            )
        labels, cents, sse, history = _lloyd(pts, cents, opts.max_iterations)
        return ClusterResult(labels + 1, cents, sse, history)

    best: tuple[np.ndarray, np.ndarray, float, list[float]] | None = None
    for restart in range(opts.restarts):
        rng = np.random.default_rng([opts.seed & _SEED_MASK, restart])
        idx = rng.choice(n, size=opts.k, replace=False)
        result = _lloyd(pts, pts[idx], opts.max_iterations)
        if best is None or result[2] < best[2]:
            best = result
    labels, cents, sse, history = best  # type: ignore[misc]
    return ClusterResult(labels + 1, cents, sse, history)


def canonicalize_labels(result: ClusterResult) -> ClusterResult:
    """Renumber clusters in order of first appearance in the label array.

    Label j of the output is the j-th distinct input label encountered while
    scanning left to right; centroids are permuted to match. Clusters that
    own no points keep their centroids, appended after the used ones in
    original order. Idempotent, SSE unchanged.
    """
    labels = np.asarray(result.labels)
    k = result.k
    _, first_pos = np.unique(labels, return_index=True)
    used_old = labels[np.sort(first_pos)]  # old labels by first appearance
    mapping = np.zeros(k + 1, dtype=np.int64)
    for new, old in enumerate(used_old, start=1):
        mapping[old] = new
    unused_old = [j for j in range(1, k + 1) if mapping[j] == 0]
    for new, old in enumerate(unused_old, start=len(used_old) + 1):
        mapping[old] = new
    order = np.empty(k, dtype=np.int64)
    order[mapping[1:] - 1] = np.arange(k)
    return ClusterResult(
        labels=mapping[labels],
        centroids=result.centroids[order],
        sse=result.sse,
        sse_history=list(result.sse_history),
    )
