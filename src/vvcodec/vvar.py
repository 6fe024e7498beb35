"""Hierarchical V-cluster quadtree codec.

The compressed form of a 2**D-sided image consists of, for a chosen cluster
budget V with 4**n0 <= V < 4**(n0+1):

* labels in 1..V for the 4**(n0+1) actual level-(n0+1) image blocks, in
  quadtree-address lexicographic order;
* for each level n0+2..D-1, a 4V-entry table giving the cluster label of
  child digit i of a type-L parent at slot 4(L-1)+i;
* a 4V-entry table of leaf gray values for level D, indexed the same way.

Levels 0..n0 carry no information: the 4**k blocks of level k <= n0 take
types 1..4**k in address order.

Encoding clusters the actual level-(n0+1) blocks with k-means, then at every
deeper level splits the V cluster representatives into their 4V quadrant
children and clusters those. At the single-pixel level the 4V children are
scalars: for V < 256 they are clustered too and each is stored as its
cluster's value rounded to 0..255; for V >= 256 each child is rounded to
0..255 directly, since a uint8 table holds at most 256 <= V gray levels.
Decoding is pure label propagation and touches each pixel once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitpack import pack, unpack
from .clustering import ClusterOptions, canonicalize_labels, kmeans
from .imaging import (
    MAX_DEPTH,
    FormatError,
    PixelImage,
    QuadAddress,
    blocks_at_level,
    child_tiles,
    place_tiles,
    row_keys,
    split_quadrants,
)

MIN_DEPTH = 2

MAGIC = b"VVC1"
VERSION = 1
HEADER_BYTES = 10  # magic + version byte + depth byte + V as u32 big-endian


def compute_n0(v: int, depth: int) -> int:
    """The unique n0 with 4**n0 <= v < 4**(n0+1)."""
    if not MIN_DEPTH <= depth <= MAX_DEPTH:
        raise ValueError(f"depth {depth} out of range {MIN_DEPTH}..{MAX_DEPTH}")
    if not 1 <= v < 4 ** (depth - 1):
        raise ValueError(f"V={v} out of range 1..{4 ** (depth - 1) - 1}")
    return (v.bit_length() - 1) // 2


@dataclass(frozen=True, eq=False)
class VVarCode:
    """Compressed representation of a 2**depth-sided grayscale image.

    level_labels[i] is the 4V-entry table for level n0+2+i; the list covers
    levels n0+2..depth-1 and is empty when n0 = depth-2. The code is
    checked once, when it is made, and its fields cannot be reassigned.
    """

    depth: int
    v: int
    first_labels: np.ndarray
    level_labels: list[np.ndarray]
    leaf_values: np.ndarray

    @property
    def n0(self) -> int:
        return compute_n0(self.v, self.depth)

    def __post_init__(self) -> None:
        n0 = self.n0  # also checks depth and V ranges
        first = np.asarray(self.first_labels)
        if first.shape != (4 ** (n0 + 1),):
            raise FormatError(
                f"first_labels must have length {4 ** (n0 + 1)}, got {first.shape}"
            )
        tables = [np.asarray(t) for t in self.level_labels]
        if len(tables) != self.depth - n0 - 2:
            raise FormatError(
                f"expected {self.depth - n0 - 2} mid-level tables, "
                f"got {len(tables)}"
            )
        for t in tables:
            if t.shape != (4 * self.v,):
                raise FormatError("mid-level label tables must have length 4V")
        leaves = np.asarray(self.leaf_values)
        if leaves.shape != (4 * self.v,):
            raise FormatError(f"leaf_values must have length {4 * self.v}")
        if any(a.dtype.kind not in "iu" for a in (first, *tables, leaves)):
            raise FormatError("labels and leaf values must be integers")
        # in stream order, so a corrupt stream names its first bad label
        labels = np.concatenate([first, *tables])
        bad = np.flatnonzero((labels < 1) | (labels > self.v))
        if bad.size:
            raise FormatError(f"label {labels[bad[0]]} out of range 1..{self.v}")
        if leaves.min() < 0 or leaves.max() > 255:
            raise FormatError("leaf values must lie in 0..255")
        # V=1 stores its leaf table as the first byte
        if self.v == 1 and len(set(int(x) for x in leaves)) != 1:
            raise FormatError("V=1 codes must have a single leaf value")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VVarCode):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.v == other.v
            and np.array_equal(self.first_labels, other.first_labels)
            and len(self.level_labels) == len(other.level_labels)
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.level_labels, other.level_labels)
            )
            and np.array_equal(self.leaf_values, other.leaf_values)
        )


def _distinct_rows(points: np.ndarray, k: int) -> np.ndarray:
    """First k distinct rows in input order, cycled if fewer exist."""
    _, first = np.unique(row_keys(points), return_index=True)
    first = np.sort(first)[:k]
    return points[first[np.arange(k) % len(first)]]


def encode(
    img: PixelImage,
    v: int,
    *,
    seed: int = 0,
    restarts: int = 5,
    max_iterations: int = 100,
    init: str = "random",
) -> VVarCode:
    """Compress an image into a VVarCode with cluster budget V.

    ``init`` selects the k-means initialization: "random" (seeded restarts)
    or "distinct" (a single descent from the first V distinct input vectors
    of each level, useful when the image is exactly V-variable).
    """
    depth = img.depth
    n0 = compute_n0(v, depth)
    if init not in ("random", "distinct"):
        raise ValueError(f"unknown init mode {init!r}")

    def cluster(points: np.ndarray, level: int):
        opts = ClusterOptions(
            k=v, max_iterations=max_iterations, restarts=restarts,
            seed=seed + level,
        )
        initial = _distinct_rows(points, v) if init == "distinct" else None
        return canonicalize_labels(kmeans(points, opts, initial_centroids=initial))

    def children(reps: np.ndarray) -> np.ndarray:
        # row 4(L-1)+d-1 holds child digit d of representative L
        side = math.isqrt(reps.shape[1])
        return split_quadrants(reps.reshape(v, side, side)).reshape(4 * v, -1)

    points = blocks_at_level(img, n0 + 1)
    tables: list[np.ndarray] = []
    for level in range(n0 + 1, depth):
        result = cluster(points, level)
        tables.append(result.labels.astype(np.int32))
        points = children(result.centroids)

    # single-pixel level: children are scalars. At V >= 256 each is rounded
    # straight to 0..255, which already leaves at most 256 <= V gray levels;
    # below that each is stored as its cluster's value so the decoded image
    # keeps at most V gray levels
    leaf = points[:, 0]
    if v < 256:
        result = cluster(leaf[:, None], depth)
        leaf = result.centroids[result.labels - 1, 0]
    leaf_values = np.clip(np.rint(leaf), 0, 255).astype(np.uint8)

    return VVarCode(depth, v, tables[0], tables[1:], leaf_values)


def decode(code: VVarCode) -> PixelImage:
    """Reconstruct the full image by label propagation.

    The deepest tables fold into the leaf tiles, deepest first, so each type
    of a deep level is rendered once; folding stops before the V tiles would
    hold more than a quarter of the image's pixels, so each tile is placed
    at least four times on average. The levels above propagate types, and
    the tiles are placed once.
    """
    tiles = child_tiles(np.asarray(code.leaf_values, np.uint8))
    mid = list(code.level_labels)
    # a fold doubles the side h; V tiles of side 2h fit in a quarter image
    while mid and 4 * code.v * (2 * tiles.shape[-1]) ** 2 <= 4 ** code.depth:
        tiles = place_tiles(child_tiles(np.asarray(mid.pop(), np.int32)), tiles)
    trivial = [np.arange(1, 4 ** k + 1) for k in range(1, code.n0 + 1)]
    grid = np.ones((1, 1), dtype=np.int32)
    for table in [*trivial, code.first_labels, *mid]:
        grid = place_tiles(grid, child_tiles(np.asarray(table, np.int32)))
    return PixelImage(place_tiles(grid, tiles))


def pixel_value(code: VVarCode, addr: QuadAddress) -> int:
    """Value of the single pixel at a full-length address.

    Independent of decode(): walks the extended coding matrix column by
    column, starting from the root label 1.
    """
    if len(addr) != code.depth:
        raise ValueError(f"address must have length {code.depth}")
    n0 = code.n0
    label = 1
    for k, digit in enumerate(addr, start=1):
        if digit not in (1, 2, 3, 4):
            raise ValueError(f"quadrant digit {digit} not in 1..4")
        slot = 4 * (label - 1) + digit - 1
        if k <= n0:
            label = slot + 1
        elif k == n0 + 1:
            label = int(code.first_labels[slot])
        elif k < code.depth:
            label = int(code.level_labels[k - (n0 + 2)][slot])
    return int(code.leaf_values[slot])  # the last digit's slot


def _layout(v: int, depth: int) -> tuple[int, int, int]:
    """Label count, bits per label and leaf bytes of a (V, depth) payload.

    A V=1 code's four leaves are equal, so its leaf table is its first byte.
    """
    n0 = compute_n0(v, depth)
    label_count = 4 ** (n0 + 1) + 4 * v * (depth - 2 - n0)
    return label_count, (v - 1).bit_length(), 1 if v == 1 else 4 * v


def payload_size(v: int, depth: int) -> int:
    """Exact payload size in bytes for a (V, depth) code.

    ceil(count * ceil(log2 V) / 8) + leaf bytes, for count = 4**(n0+1) +
    4V(depth-2-n0) labels, one zero pad to a byte boundary, and leaf bytes
    1 at V=1 and 4V otherwise.
    """
    count, width, leaf_bytes = _layout(v, depth)
    return (count * width + 7) // 8 + leaf_bytes


def serialize(code: VVarCode) -> bytes:
    """Pack a code into the VVC1 container.

    Layout: magic "VVC1", version byte 0x01, depth byte, V as 4-byte
    big-endian, then the payload: all label arrays in level order bit-packed
    MSB-first at ceil(log2 V) bits per label storing label-1, zero-padded to
    a byte boundary, then the leaf values as raw bytes. At V=1 the labels
    take 0 bits and the leaves one byte.
    """
    header = MAGIC + bytes([VERSION, code.depth]) + code.v.to_bytes(4, "big")
    _, width, leaf_bytes = _layout(code.v, code.depth)
    labels = np.concatenate([code.first_labels, *code.level_labels]) - 1
    leaves = np.asarray(code.leaf_values, np.uint8)[:leaf_bytes]
    return header + pack(labels[:, None], [width]) + bytes(leaves)


def deserialize(data: bytes) -> VVarCode:
    """Exact inverse of serialize; an invalid stream raises FormatError."""
    if len(data) < HEADER_BYTES:
        raise FormatError("stream shorter than VVC1 header")
    if data[:4] != MAGIC:
        raise FormatError("bad magic (not a VVC1 stream)")
    if data[4] != VERSION:
        raise FormatError(f"unsupported VVC1 version {data[4]}")
    depth = data[5]
    v = int.from_bytes(data[6:10], "big")
    try:
        n0 = compute_n0(v, depth)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    count, width, leaf_bytes = _layout(v, depth)
    expected = HEADER_BYTES + payload_size(v, depth)
    if len(data) != expected:
        raise FormatError(
            f"stream has {len(data)} bytes, expected {expected}"
        )
    labels = (unpack(data[HEADER_BYTES:], count, [width])[:, 0] + 1).astype(np.int32)
    first_count = 4 ** (n0 + 1)
    level_labels = list(labels[first_count:].reshape(-1, 4 * v))
    # the leaves end the stream; at V=1 the one stored byte fills all four
    leaf_values = np.resize(np.frombuffer(data[-leaf_bytes:], np.uint8), 4 * v)
    return VVarCode(depth, v, labels[:first_count], level_labels, leaf_values)


def code_from_matrix(matrix: np.ndarray) -> VVarCode:
    """Build a VVarCode from a 4V x (depth - n0) coding matrix.

    Rows are indexed by 4(L-1)+i for parent type L and child digit i; the
    columns hold the label tables for levels n0+1..depth-1 followed by a
    final column of leaf gray values. Requires V to be a power of 4 (so the
    level-(n0+1) column doubles as the address-ordered first_labels).
    """
    m = np.asarray(matrix, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] % 4:
        raise ValueError("coding matrix must be 2-D with 4V rows")
    v = m.shape[0] // 4
    n0 = (v.bit_length() - 1) // 2
    if 4 ** n0 != v:
        raise ValueError(f"matrix form requires V to be a power of 4, got {v}")
    # the code checks the labels and leaves before anything casts them
    try:
        return VVarCode(n0 + m.shape[1], v, m[:, 0], list(m[:, 1:-1].T), m[:, -1])
    except FormatError as exc:  # a matrix is not a stream
        raise ValueError(str(exc)) from None
