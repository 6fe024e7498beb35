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

A level that fits in one chunk is scored whole on every iteration; a
larger one only where it can change. On a descent's first iteration every
point is stale. After it, by code vector activity detection (Kaukoranta,
Franti & Nevalainen, IEEE TIP 9(8), 2000), a centroid whose bits did not
change scores every point as before: a point is stale only if its own
winner moved or a moved centroid, screened alone, comes within a rounding
margin of its stored winning score. Stale points are scored against the
window of centroids that the equal-average bound dim*(mean_p - mean_c)^2 <=
||p - c||^2 leaves (Guan & Kamel, Pattern Recognition Letters 13(10), 1992;
Ra & Kim, IEEE TCAS-II 40(9), 1993) under one upper bound: the point's
score against a guessed centroid, its previous label or, on a first
iteration, the centroid nearest it in mean. The guess lies in its window,
so the window is never empty and its winner scores no worse. A label
stands if it wins its window by more than the margin, else its chunk is
scored whole as in the full pass, so the labels are the full pass's on any
BLAS kernel. Likewise the first centroid update sums every cluster and
later ones only those whose members changed.
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

# rows per window tile: fewer rows give narrower windows, more give fewer
# and larger BLAS calls. Replaying the V=1024 levels of image A (2-core
# Xeon, OpenBLAS 0.3.31), 64-row tiles took 1.16x the time of 128-row ones,
# and 256-row ones the same time for 1.2x the cells scored
_TILE_ROWS = 128


class _Assignment(NamedTuple):
    """One assignment step: the centroids it scored, each point's argmin
    label before any empty-cluster repair, and that label's score, within
    the screening margin of the full pass's; then, fixed for a descent of a
    level larger than one chunk, the points' squared norms and means, and
    their indices sorted by mean. In the next step a stale point's window
    is drawn around its score against its label's new centroid."""

    centroids: np.ndarray
    labels: np.ndarray
    scores: np.ndarray
    p2: np.ndarray | None = None
    means: np.ndarray | None = None
    order: np.ndarray | None = None


def _score_block(
    points: np.ndarray, centroids: np.ndarray, half_c2: np.ndarray
) -> np.ndarray:
    scores = points @ centroids.T
    np.subtract(half_c2, scores, out=scores)
    return scores


def _margins(
    p2: np.ndarray, dim: int, half_c2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's screening margin and window slack."""
    # Margin. Two computations of one score h - p.c (h = 0.5*||c||^2, the
    # same bits in both) add the same dim products in different orders, so
    # each is within dim*u*|p||c| of exact (u = 2^-53; Higham 2002, section
    # 3.1), and the subtraction adds u*|h - p.c|. They differ by at most
    # D = 2*(dim + 1)*u*X, X = |p|*cmax + hmax, with cmax and hmax the
    # largest norm and half squared norm of any centroid. A stored score and
    # a screened or rescored one may each be D off the full pass's bits, so
    # a gap over 2*D between two of them is a strict gap in the full pass;
    # (dim + 2) * 2^-51 * X = 2*D + 4*u*X also covers the rounding of
    # winner + margin and of the margin itself. A wider margin only costs
    # rescored rows.
    #
    # Slack. A row's window holds every centroid whose mean is within
    # r = sqrt((||p||^2 + 2*(ub + slack))/dim) of the row's, where ub is the
    # row's computed score h - p.c of one guessed centroid g. Exactly,
    # dim*(mean_p - mean_c)^2 <= ||p - c||^2 = ||p||^2 + 2*(h - p.c) by
    # Cauchy-Schwarz. Let Z = |p| + cmax: Z^2 = ||p||^2 + 2*X bounds X and
    # ||p||^2 + 2*hmax, no mean is more than Z/sqrt(dim) from the row's, and
    # so a centroid c can be outside the window only if r < 1.01*Z/sqrt(dim).
    # Then:
    # - a mean sums dim terms, so the row's and c's are within
    #   (dim + 1)*u*Z/sqrt(dim) of exact together, and mean -/+ r rounds by
    #   u*(|mean| + r) < 2.01*u*Z/sqrt(dim); together they cost
    #   dim*(mean_p - mean_c)^2 at most 2.02*(dim + 3.01)*u*Z^2;
    # - ||p||^2 + 2*(ub + slack), the division and the square root round
    #   dim*r^2 by at most 6*u*Z^2;
    # - h is within dim*u*hmax of 0.5*||c||^2 and ||p||^2 within
    #   dim*u*||p||^2, together dim*u*Z^2 in 2*(h - p.c);
    # so c's exact score (of h as stored) exceeds ub + slack -
    # (1.51*dim + 6.05)*u*Z^2, and the full pass's bits of it exceed that
    # less D/2. ub is within D/2 of g's exact score, so g scores at most
    # ub + D in the full pass, and c loses to g there once
    # slack > (1.51*dim + 6.05)*u*Z^2 + 1.5*D, which is at most
    # (4.51*dim + 9.05)*u*Z^2. So g, which cannot lose to itself, lies in
    # its window, and a winner that beats the rest of the window by more
    # than the margin beats g, and every centroid outside, in the full pass.
    # (dim + 2) * 2^-49 * Z^2 = (16*dim + 32)*u*Z^2 leaves room for the
    # second-order terms dropped above. A wider slack only costs cells.
    eps = (dim + 2) * 2.0 ** -51
    hmax = float(half_c2.max())
    x = np.sqrt(p2 * (2.0 * hmax)) + hmax
    return eps * x, 4.0 * eps * (p2 + 2.0 * x)


def _assign(
    points: np.ndarray,
    centroids: np.ndarray,
    prev: _Assignment | None = None,
) -> _Assignment:
    """Nearest centroid of each point, lowest index on ties.

    Takes the argmin of 0.5*||c||^2 - p.c, which ranks centroids like
    ||p - c||^2. The full pass scores every point against every centroid,
    in row chunks whose score block fits in _CHUNK_BYTES. A level larger
    than one chunk is scored only where it can change (_pruned), and any
    chunk holding a label that is not certain is scored whole; on any BLAS
    kernel the labels are those of the full pass.
    """
    n = len(points)
    k = len(centroids)
    half_c2 = 0.5 * np.einsum("ij,ij->i", centroids, centroids)
    rows = max(1, _CHUNK_BYTES // (8 * k))
    if n > rows:
        step, unsure = _pruned(points, centroids, half_c2, rows, prev)
    else:
        # in one chunk a label that is not certain has the whole level
        # scored anyway, and one block is a handful of numpy calls: in
        # encodes of image A the assignments took a third of the pruned
        # step's time at V = 4 and 16, half at V = 64, the same at V = 256
        step = _Assignment(centroids, np.empty(n, dtype=np.int64), np.empty(n))
        unsure = np.ones(1, dtype=bool)
    for chunk in np.flatnonzero(unsure):
        span = slice(chunk * rows, (chunk + 1) * rows)
        scores = _score_block(points[span], centroids, half_c2)
        step.labels[span] = win = scores.argmin(axis=1)
        step.scores[span] = scores[np.arange(len(win)), win]
    return step


def _pruned(
    points: np.ndarray,
    centroids: np.ndarray,
    half_c2: np.ndarray,
    rows: int,
    prev: _Assignment | None,
) -> tuple[_Assignment, np.ndarray]:
    """The assignment step's labels except in the chunks it flags, which
    the caller scores whole.

    Only stale points are scored: on a descent's first step every point,
    and given the previous step ``prev``, those that a moved centroid can
    reach. They are scored in tiles of mean-sorted points, each against the
    window of mean-sorted centroids that the equal-average bound leaves
    under ub: the row's score against one guessed centroid, its old label
    or, on a first step, the first centroid in mean order whose mean is not
    below the row's (the last if every mean is).
    """
    n, dim = points.shape
    k = len(centroids)
    unsure = np.zeros(-(-n // rows), dtype=bool)
    cmeans = centroids @ np.ones(dim) / dim
    corder = np.argsort(cmeans)
    cm, sorted_c, sorted_h = cmeans[corder], centroids[corder], half_c2[corder]
    if prev is None:
        p2 = np.einsum("ij,ij->i", points, points)
        means = points @ np.ones(dim) / dim
        order = np.argsort(means)
        labels = corder[np.minimum(np.searchsorted(cm, means), k - 1)]
        best = np.empty(n)
        margin, slack = _margins(p2, dim, half_c2)
        redo = order
    else:
        p2, means, order = prev.p2, prev.means, prev.order
        labels = prev.labels.copy()
        best = prev.scores.copy()
        moved = (centroids != prev.centroids).any(axis=1)
        if not moved.any():
            return prev._replace(centroids=centroids), unsure
        # an unmoved centroid keeps its full-pass bits, so the old label, the
        # full pass's, is still the argmin among the unmoved ones; a point
        # keeps it unless its winner moved or a moved centroid comes within
        # the margin (<=, so a tie with a lower index is rescored)
        margin, slack = _margins(p2, dim, half_c2)
        stale = moved[labels]
        cols = np.flatnonzero(moved)
        moved_c, moved_h = centroids[cols], half_c2[cols]
        keep = np.flatnonzero(~stale)
        step = max(1, _CHUNK_BYTES // (8 * max(len(cols), dim)))
        for start in range(0, len(keep), step):
            # one row per moved centroid: numpy takes a column minimum far
            # faster than the minimum of each short row
            idx = keep[start:start + step]
            scores = moved_c @ points[idx].T
            np.subtract(moved_h[:, None], scores, out=scores)
            stale[idx] = scores.min(axis=0) <= best[idx] + margin[idx]
        redo = order[stale[order]]

    # a row's label stands only if its winner beats every other score in its
    # window by more than the margin; the guess lies in the window, so the
    # winner scores no worse than it
    tile = max(1, min(_TILE_ROWS, _CHUNK_BYTES // (8 * max(k, dim))))
    for start in range(0, len(redo), tile):
        idx = redo[start:start + tile]  # in mean order
        block = points[idx]
        guess = labels[idx]
        ub = half_c2[guess] - np.einsum("ij,ij->i", block, centroids[guess])
        r = np.sqrt((p2[idx] + 2.0 * (ub + slack[idx])) / dim)
        # every centroid whose mean equals an end is in
        lo = int(np.searchsorted(cm, (means[idx] - r).min(), "left"))
        hi = int(np.searchsorted(cm, (means[idx] + r).max(), "right"))
        scores = _score_block(block, sorted_c[lo:hi], sorted_h[lo:hi])
        at = np.arange(len(idx))
        win = scores.argmin(axis=1)
        labels[idx], best[idx] = corder[lo + win], scores[at, win]
        scores[at, win] = np.inf
        fail = scores[at, scores.argmin(axis=1)] <= best[idx] + margin[idx]
        unsure[idx[fail] // rows] = True
    return _Assignment(centroids, labels, best, p2, means, order), unsure


def _label_sums(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    # one flat bincount per column block that fits in _CHUNK_BYTES; each
    # bin adds its members in point order, as a sum over each cluster's
    # members in point order does, so the sums are the same bits
    n, dim = points.shape
    sums = np.empty((k, dim))
    width = max(1, _CHUNK_BYTES // (8 * max(n, 1)))
    for start in range(0, dim, width):
        block = points[:, start:start + width]
        w = block.shape[1]
        bins = (labels[:, None] * w + np.arange(w)).ravel()
        sums[:, start:start + w] = np.bincount(
            bins, weights=block.ravel(), minlength=k * w
        ).reshape(k, w)
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
        # touches every cluster, and takes every point as a view, not a copy
        touched = np.full(k, not recent)
        members: slice | np.ndarray = slice(None)
        if recent:
            changed = labels != recent[0]
            touched[labels[changed]] = True
            touched[recent[0][changed]] = True
            members = np.flatnonzero(touched[labels])
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
    scanning left to right; centroids are permuted to match. Every cluster
    must own a point, as each kmeans result's does, else ValueError.
    Idempotent, SSE unchanged.
    """
    labels = np.asarray(result.labels)
    k = result.k
    _, first_pos = np.unique(labels, return_index=True)
    if len(first_pos) != k:
        raise ValueError(f"{k - len(first_pos)} of {k} clusters own no point")
    old = labels[np.sort(first_pos)]  # old labels by first appearance
    mapping = np.zeros(k + 1, dtype=np.int64)
    mapping[old] = np.arange(1, k + 1)
    return ClusterResult(
        labels=mapping[labels],
        centroids=result.centroids[old - 1],
        sse=result.sse,
        sse_history=list(result.sse_history),
    )
