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
loop, in blocks of at most one chunk's rows. On a descent's first
iteration every point is stale. After it, by code vector activity detection
(Kaukoranta, Franti & Nevalainen, IEEE TIP 9(8), 2000), a centroid whose
bits did not change scores every point as before: a point is stale only if
its own winner moved or a moved centroid, screened alone, comes within a
rounding margin of its stored winning score. A rescored label stands if it
wins its row by more than that margin, else its chunk is scored whole as in
the full pass, so the labels are the full pass's on any BLAS kernel.
Likewise the first centroid update sums every cluster and later ones only
those whose members changed.
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


class _Assignment(NamedTuple):
    """One assignment step: the centroids it scored, each point's argmin
    label before any empty-cluster repair, and that label's score, within
    the screening margin of the full pass's."""

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


def _screen_margin(points: np.ndarray, half_c2: np.ndarray) -> np.ndarray:
    # Two computations of one score h - p.c (h = 0.5*||c||^2, the same bits
    # in both) add the same dim products in different orders, so each is
    # within dim*u*|p||c| of exact (u = 2^-53; Higham 2002, section 3.1),
    # and the subtraction adds u*|h - p.c|. They differ by at most
    # D = 2*(dim + 1)*u*X, X = |p|*cmax + hmax, with cmax and hmax the
    # largest norm and half squared norm of any centroid. A stored score and
    # a screened or rescored one may each be D off the full pass's bits, so
    # a gap over 2*D between two of them is a strict gap in the full pass;
    # (dim + 2) * 2^-51 * X = 2*D + 4*u*X also covers the rounding of
    # winner + margin and of the margin itself. A wider margin only costs
    # rescored rows.
    dim = points.shape[1]
    hmax = float(half_c2.max())
    pnorm = np.sqrt(np.einsum("ij,ij->i", points, points))
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
    can reach are stale and rescored; on any BLAS kernel the labels are
    those of the full pass, in which every point is stale.
    """
    n, dim = points.shape
    k = len(centroids)
    half_c2 = 0.5 * np.einsum("ij,ij->i", centroids, centroids)
    rows = max(1, _CHUNK_BYTES // (8 * k))
    if prev is None:
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=np.float64)
        stale = np.ones(n, dtype=bool)
    else:
        labels = prev.labels.copy()
        best = prev.scores.copy()
        moved = (centroids != prev.centroids).any(axis=1)
        if not moved.any():
            return _Assignment(centroids, labels, best)
        # an unmoved centroid keeps its full-pass bits, so the old label, the
        # full pass's, is still the argmin among the unmoved ones; a point
        # keeps it unless its winner moved or a moved centroid comes within
        # the margin (<=, so a tie with a lower index is rescored)
        margin = _screen_margin(points, half_c2)
        stale = moved[labels]
        cols = np.flatnonzero(moved)
        moved_c, moved_h = centroids[cols], half_c2[cols]
        keep = np.flatnonzero(~stale)
        step = max(1, _CHUNK_BYTES // (8 * max(len(cols), dim)))
        for start in range(0, len(keep), step):
            idx = keep[start:start + step]
            scores = _score_block(points[idx], moved_c, moved_h)
            stale[idx] = scores.min(axis=1) <= best[idx] + margin[idx]

    # score the stale rows in blocks of at most a chunk's rows; when some
    # rows were kept, a block need not be a chunk and can round unlike the
    # full pass, so a label stands only if it wins its row by more than the
    # margin, and each chunk holding a row that does not is then scored whole
    redo = np.flatnonzero(stale)
    whole = len(redo) == n
    while len(redo):
        unsure = np.zeros(-(-n // rows), dtype=bool)
        for start in range(0, len(redo), rows):
            idx = redo[start:start + rows]
            scores = _score_block(points[_run(idx)], centroids, half_c2)
            at, win = np.arange(len(idx)), scores.argmin(axis=1)
            labels[idx], best[idx] = win, scores[at, win]
            if not whole:
                scores[at, win] = np.inf
                fail = scores.min(axis=1) <= best[idx] + margin[idx]
                unsure[idx[fail] // rows] = True
        redo, whole = np.flatnonzero(np.repeat(unsure, rows)[:n]), True
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
