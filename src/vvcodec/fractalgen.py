"""Contractive interval systems, code trees, and typed quadtree squares.

This module generates the mathematical objects behind the codec: attractor
approximants of a contractive affine family on [0, 1], code trees that pick a
different system at every node, skeleton matrices that force at most V
distinct subtrees per level, and square images coloured by skeleton type.

Interval sets are plain sorted lists of disjoint (lo, hi) tuples inside
[0, 1]; endpoints closer than 1e-12 are merged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import vvar

MERGE_TOL = 1e-12

Interval = tuple[float, float]


@dataclass(frozen=True)
class Affine1D:
    """x -> a*x + b with |a| < 1 (strict contraction)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not abs(self.a) < 1.0:
            raise ValueError(f"|a|={abs(self.a)} is not a strict contraction")

    def __call__(self, x: float) -> float:
        return self.a * x + self.b

    def map_interval(self, iv: Interval) -> Interval:
        lo, hi = self(iv[0]), self(iv[1])
        return (lo, hi) if lo <= hi else (hi, lo)


@dataclass(frozen=True)
class IFSFamily:
    """An indexed family of systems, all with the same number of maps."""

    systems: tuple[tuple[Affine1D, ...], ...]

    def __post_init__(self) -> None:
        if not self.systems:
            raise ValueError("family needs at least one system")
        m = len(self.systems[0])
        if m < 2:
            raise ValueError("systems need at least two maps")
        if any(len(s) != m for s in self.systems):
            raise ValueError("all systems must share the same number of maps")

    @property
    def m(self) -> int:
        return len(self.systems[0])


@dataclass
class CodeTreeLevels:
    """Per-level system choices: levels[k][p] is the index (1-based) of the
    system acting at the p-th level-k node in address-lexicographic order."""

    m: int
    levels: list[np.ndarray]

    def __post_init__(self) -> None:
        for k, level in enumerate(self.levels):
            if len(level) != self.m ** k:
                raise ValueError(f"level {k} must have {self.m ** k} entries")

    @property
    def depth(self) -> int:
        """Number of stored levels; supports approximants up to this order."""
        return len(self.levels)


@dataclass
class SkeletonMatrix:
    """(V*M) x depth grid of node types.

    The root has type 1. Column k (1-based) row (L-1)*M + i gives the type
    of child i of a type-L node at level k-1. Entries are 1..V; 0 marks a
    slot that is never reachable and must never be read during propagation.
    """

    v: int
    m: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=np.int64)
        if e.ndim != 2 or e.shape[0] != self.v * self.m:
            raise ValueError(f"entries must have {self.v * self.m} rows")
        if e.size and (e.min() < 0 or e.max() > self.v):
            raise ValueError("types must lie in 0..V (0 = unused)")
        self.entries = e

    @property
    def depth(self) -> int:
        return self.entries.shape[1]


def _child_types(s: SkeletonMatrix, types: np.ndarray, k: int) -> np.ndarray:
    """Types of every child of nodes of the given types, read from column
    k + 1 (1-based) in node then child order; a 0 read there raises."""
    children = s.entries[(types - 1)[:, None] * s.m + np.arange(s.m), k].ravel()
    if (children == 0).any():
        raise ValueError(f"unused skeleton entry read in column {k + 1}")
    return children


@dataclass
class LabelMatrix:
    """Per-level type -> system index functions; row k column t-1 holds the
    system label of a type-t node at level k (0 = unused)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.int64)
        if v.ndim != 2:
            raise ValueError("label matrix must be 2-D")
        if v.size and v.min() < 0:
            raise ValueError("labels must be >= 0 (0 = unused)")
        self.values = v

    @property
    def depth(self) -> int:
        """Highest level with a labelling row."""
        return self.values.shape[0] - 1


def _images(
    system: tuple[Affine1D, ...] | list[Affine1D], children: list[list[Interval]]
) -> list[Interval]:
    """Merged union of each child's intervals under its map: children[j]
    goes through system[j]."""
    merged: list[Interval] = []
    for lo, hi in sorted(
        f.map_interval(iv) for f, ivs in zip(system, children) for iv in ivs
    ):
        if merged and lo <= merged[-1][1] + MERGE_TOL:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _check_keeps_unit(maps: tuple[Affine1D, ...] | list[Affine1D]) -> None:
    for f in maps:
        lo, hi = f.map_interval((0.0, 1.0))
        if lo < -MERGE_TOL or hi > 1.0 + MERGE_TOL:
            raise ValueError(f"map {f} sends [0,1] to [{lo}, {hi}]")


def attractor_intervals(ifs: list[Affine1D], n: int) -> list[Interval]:
    """n-th approximant of a single system's attractor, starting from [0,1].

    The result is the merged union of the images of [0,1] under all length-n
    map compositions.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_keeps_unit(ifs)
    current: list[Interval] = [(0.0, 1.0)]
    for _ in range(n):
        current = _images(ifs, [current] * len(ifs))
    return current


def code_tree_intervals(
    family: IFSFamily, tree: CodeTreeLevels, n: int
) -> list[Interval]:
    """n-th approximant of the code tree fractal.

    The map applied at step k of an address is drawn from the system chosen
    by the tree at the address's length-(k-1) prefix.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > tree.depth:
        raise ValueError(f"tree stores {tree.depth} levels, cannot expand to {n}")
    if tree.m != family.m:
        raise ValueError("tree arity does not match the family")
    for system in family.systems:
        _check_keeps_unit(system)
    # the sets of the level-k nodes, from k = n up to the root
    sets: list[list[Interval]] = [[(0.0, 1.0)]] * tree.m ** n
    for level in reversed(tree.levels[:n]):
        sets = [
            _images(family.systems[label - 1], sets[tree.m * p:tree.m * (p + 1)])
            for p, label in enumerate(level)
        ]
    return sets[0]


def expand_skeleton(s: SkeletonMatrix, q: LabelMatrix) -> CodeTreeLevels:
    """Propagate types from the root through the skeleton, then label every
    node with its level's type -> system assignment."""
    if q.depth < s.depth:
        raise ValueError(
            f"label matrix covers levels 0..{q.depth}, skeleton needs {s.depth}"
        )
    if q.values.shape[1] < s.v:
        raise ValueError("label matrix has fewer columns than types")
    types = np.ones(1, dtype=np.int64)
    levels: list[np.ndarray] = []
    for k in range(s.depth + 1):
        labels = q.values[k, types - 1]
        if (labels == 0).any():
            raise ValueError(f"unused label read at level {k}")
        levels.append(labels.astype(np.int64))
        if k < s.depth:
            types = _child_types(s, types, k)
    return CodeTreeLevels(m=s.m, levels=levels)


def random_skeleton(v: int, m: int, depth: int, seed: int) -> SkeletonMatrix:
    """Skeleton with independent uniform types on 1..V; deterministic in seed."""
    if v < 1 or m < 1 or depth < 1:
        raise ValueError("v, m, depth must all be >= 1")
    rng = np.random.default_rng(seed & ((1 << 64) - 1))
    entries = rng.integers(1, v + 1, size=(v * m, depth), dtype=np.int64)
    return SkeletonMatrix(v=v, m=m, entries=entries)


def skeleton_to_code(
    s: SkeletonMatrix, values: np.ndarray, depth: int
) -> vvar.VVarCode:
    """Translate a skeleton + per-type gray values into a decoder code.

    Skeleton types double as cluster labels, and unreachable table slots are
    filled with 1. A 0 on a slot that propagation from the root reaches
    within `depth` columns raises ValueError naming the column, as do gray
    values outside 0..255 and a (V, depth) pair the codec cannot hold.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (s.v,):
        raise ValueError(f"need one gray value per type, got {values.shape}")
    if values.min() < 0 or values.max() > 255:
        raise ValueError("gray values must lie in 0..255")
    if s.m != 4:
        raise ValueError("square coding needs a 4-map skeleton")
    if s.depth < depth:
        raise ValueError(f"skeleton depth {s.depth} < requested depth {depth}")
    n0 = vvar.compute_n0(s.v, depth)

    # first labels: level-(n0+1) types in address order; deeper, the set that occurs
    types = np.ones(1, dtype=np.int64)
    for k in range(depth):
        types = _child_types(s, np.unique(types) if k > n0 else types, k)
        if k == n0:
            first = types
    tables = np.maximum(s.entries, 1).astype(np.int32)  # 0 slots: never consulted
    return vvar.VVarCode(
        depth=depth,
        v=s.v,
        first_labels=first.astype(np.int32),
        level_labels=[tables[:, k] for k in range(n0 + 1, depth - 1)],
        leaf_values=values[tables[:, depth - 1] - 1].astype(np.uint8),
    )


def intervals_csv(intervals: list[Interval]) -> str:
    """CSV rows "lo,hi", 17 significant digits, one interval per line."""
    return "".join(f"{lo:.17g},{hi:.17g}\n" for lo, hi in intervals)


def read_integer_grid(text: str) -> np.ndarray:
    """Parse an integer grid (0 allowed for unused). Rows end at '\\n', a
    trailing '\\r' dropped; only ASCII spaces and tabs separate entries."""
    lines = (line.removesuffix("\r") for line in text.split("\n"))
    rows = [r for r in (re.findall(r"[^ \t]+", line) for line in lines) if r]
    if not rows:
        raise ValueError("empty matrix")
    if not all(re.fullmatch(r"-?[0-9]+", x) for r in rows for x in r):
        raise ValueError("matrix entries must be integers")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix rows")
    try:
        return np.array([[int(x) for x in r] for r in rows], dtype=np.int64)
    except OverflowError:
        raise ValueError("matrix entries must fit in a signed 64-bit integer") from None


def cantor_ifs() -> list[Affine1D]:
    """The two maps whose attractor is the middle-third deletion set."""
    return [Affine1D(1 / 3, 0.0), Affine1D(1 / 3, 2 / 3)]


def gap_family() -> IFSFamily:
    """Three two-map systems that cut a narrow, middle-third, or wide gap."""
    return IFSFamily(
        systems=(
            (Affine1D(10 / 21, 0.0), Affine1D(10 / 21, 11 / 21)),
            (Affine1D(1 / 3, 0.0), Affine1D(1 / 3, 2 / 3)),
            (Affine1D(1 / 10, 0.0), Affine1D(1 / 10, 9 / 10)),
        )
    )


def gap_demo_skeleton() -> SkeletonMatrix:
    """Two-type, depth-3 binary skeleton used by the code-tree demo."""
    return SkeletonMatrix(
        v=2,
        m=2,
        entries=np.array(
            [
                [1, 1, 1],
                [2, 1, 2],
                [0, 1, 1],
                [0, 2, 2],
            ]
        ),
    )


def gap_demo_labels() -> LabelMatrix:
    """Type -> system assignment per level for the code-tree demo."""
    return LabelMatrix(
        values=np.array(
            [
                [1, 0],
                [2, 1],
                [1, 3],
                [2, 3],
            ]
        )
    )
