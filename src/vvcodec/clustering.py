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

Each assignment scores its stale points against all k centroids in one
loop, in blocks with the shape of a full-pass chunk. On a descent's first
iteration every point is stale. After it, by code vector activity detection
(Kaukoranta, Franti & Nevalainen, IEEE TIP 9(8), 2000), a centroid whose
bits did not change scores every point as before: a point is stale only if
its own winner moved or a moved centroid, screened alone, comes within a
rounding margin of its stored winning score. Likewise the first centroid
update sums every cluster and later ones only those whose members changed.

Rescoring gives the full pass's bits because of how the BLAS rounds, as
measured on OpenBLAS 0.3.31: each cell of a product with the shape of one
chunk (the same row count and all k columns) rounds the same whatever rows
fill it, when k is a multiple of 8. A block of another row count can round
differently (one row goes through gemv; two rows at k=600, dim 64 take
another kernel), and so can a subset of the columns, which is why the
screen needs its margin. Off a multiple of 8 the last columns round by the
row's place in the block, so for those k, and for levels whose whole score
block fits in one chunk, every point is stale on every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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

# the incremental assignment needs k to be a multiple of this: the column
# unroll of the OpenBLAS dgemm kernels (see the module docstring)
_COLUMN_UNROLL = 8


class _Assignment(NamedTuple):
    """One assignment step: the centroids it scored, each point's argmin
    label before any empty-cluster repair, and that label's score."""

    centroids: np.ndarray
    labels: np.ndarray
    scores: np.ndarray


def _score_block(
    points: np.ndarray, centroids: np.ndarray, half_c2: np.ndarray
) -> np.ndarray:
    scores = points @ centroids.T
    np.subtract(half_c2, scores, out=scores)
    return scores


def _run(idx: np.ndarray) -> np.ndarray | slice:
    """A slice over sorted, distinct indices when they are consecutive (as
    in a full pass), so that indexing takes a view; else the indices."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _screen_margin(
    pnorm: np.ndarray, half_c2: np.ndarray, dim: int
) -> np.ndarray:
    # A screened score and the score of the same cell in a full block are
    # both h - p.c with the same h = 0.5*||c||^2; their dot products add the
    # same dim products in different orders, so each is within dim*u*|p||c|
    # of exact (u = 2^-53), and each subtraction adds u*|h - p.c|. They
    # differ by at most 2*(dim + 1)*u*(|p|*cmax + hmax), with cmax and hmax
    # the largest norm and half squared norm of any centroid, which also
    # bounds the rounding of winner + margin. (dim + 2) * 2^-51 leaves 2x
    # headroom; a wider margin only costs rescored rows.
    hmax = float(half_c2.max())
    return (dim + 2) * 2.0 ** -51 * (pnorm * np.sqrt(2.0 * hmax) + hmax)


def _assign(
    points: np.ndarray,
    centroids: np.ndarray,
    prev: _Assignment | None = None,
) -> _Assignment:
    """Nearest centroid of each point, lowest index on ties.

    Takes the argmin of 0.5*||c||^2 - p.c, which ranks centroids like
    ||p - c||^2, over row chunks whose score block fits in _CHUNK_BYTES.
    Given the previous step ``prev``, only the points that a moved centroid
    can reach are stale and rescored; the labels and scores are those of
    the full pass, in which every point is stale.
    """
    n, dim = points.shape
    k = len(centroids)
    half_c2 = 0.5 * np.einsum("ij,ij->i", centroids, centroids)
    rows = max(1, _CHUNK_BYTES // (8 * k))
    if prev is None or rows >= n or k % _COLUMN_UNROLL:
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=np.float64)
        stale = np.ones(n, dtype=bool)
    else:
        labels = prev.labels.copy()
        best = prev.scores.copy()
        moved = (centroids != prev.centroids).any(axis=1)
        if not moved.any():
            return _Assignment(centroids, labels, best)
        # an unmoved centroid scores the same bits as before, so the old
        # winner is still the argmin among the unmoved ones; a point keeps it
        # unless its winner moved or a moved centroid comes within the margin
        # (<=, so a tie with a lower index is rescored)
        stale = moved[labels]
        cols = np.flatnonzero(moved)
        moved_c, moved_h = centroids[cols], half_c2[cols]
        keep = np.flatnonzero(~stale)
        step = max(1, _CHUNK_BYTES // (8 * max(len(cols), dim)))
        for start in range(0, len(keep), step):
            idx = keep[start:start + step]
            pts = points[idx]
            limit = best[idx] + _screen_margin(
                np.sqrt(np.einsum("ij,ij->i", pts, pts)), half_c2, dim
            )
            stale[idx] = _score_block(pts, moved_c, moved_h).min(axis=1) <= limit

    # score the stale rows in blocks shaped like the full pass's chunk that
    # holds each row: a block of another row count can round differently
    # (one row goes through gemv), so short blocks are padded by repeating
    # their rows
    redo = np.flatnonzero(stale)
    full = n - n % rows
    for group, size in ((redo[redo < full], rows), (redo[redo >= full], n - full)):
        for start in range(0, len(group), max(size, 1)):
            idx = group[start:start + size]
            idx = _run(idx) if len(idx) == size else np.resize(idx, size)
            scores = _score_block(points[idx], centroids, half_c2)
            win = scores.argmin(axis=1)
            labels[idx], best[idx] = win, scores[np.arange(size), win]
    return _Assignment(centroids, labels, best)


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
    sums = np.empty((k, points.shape[1]))
    step: _Assignment | None = None
    for _ in range(max_iterations):
        step = _assign(points, centroids, step)
        labels = step.labels.copy()  # the repair must not touch step
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
        # bincount adds each cluster's members in point order, so a cluster
        # that kept its members keeps its sum bit for bit; the first update
        # touches every cluster
        touched = np.full(k, not recent)
        if recent:
            changed = labels != recent[0]
            touched[labels[changed]] = True
            touched[recent[0][changed]] = True
        members = _run(np.flatnonzero(touched[labels]))
        sums[touched] = _label_sums(points[members], labels[members], k)[touched]
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
        starts = [cents]
    else:
        rngs = (np.random.default_rng([opts.seed & _SEED_MASK, restart])
                for restart in range(opts.restarts))
        starts = (pts[rng.choice(n, size=opts.k, replace=False)] for rng in rngs)
    # min keeps the earliest of equal SSEs
    labels, cents, sse, history = min(
        (_lloyd(pts, start, opts.max_iterations) for start in starts),
        key=lambda result: result[2],
    )
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
    u = len(used_old)
    mapping = np.zeros(k + 1, dtype=np.int64)
    mapping[used_old] = np.arange(1, u + 1)
    unused = mapping[1:] == 0  # unused old labels, in original order
    mapping[1:][unused] = np.arange(u + 1, k + 1)
    order = np.empty(k, dtype=np.int64)
    order[mapping[1:] - 1] = np.arange(k)
    return ClusterResult(
        labels=mapping[labels],
        centroids=result.centroids[order],
        sse=result.sse,
        sse_history=list(result.sse_history),
    )
