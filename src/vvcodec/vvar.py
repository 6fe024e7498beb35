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
from dataclasses import dataclass, field

import numpy as np

from .bitpack import pack, unpack
from .clustering import ClusterOptions, canonicalize_labels, kmeans
from .imaging import (
    FormatError,
    PixelImage,
    QuadAddress,
    blocks_at_level,
    expand_types,
    row_keys,
    split_quadrants,
)

MIN_DEPTH = 2
MAX_DEPTH = 12

MAGIC = b"VVC1"
VERSION = 1
HEADER_BYTES = 10  # magic + version byte + depth byte + V as u32 big-endian


def compute_n0(v: int, depth: int = 9) -> int:
    """The unique n0 with 4**n0 <= v < 4**(n0+1)."""
    if not MIN_DEPTH <= depth <= MAX_DEPTH:
        raise ValueError(f"depth {depth} out of range {MIN_DEPTH}..{MAX_DEPTH}")
    if not 1 <= v < 4 ** (depth - 1):
        raise ValueError(f"V={v} out of range 1..{4 ** (depth - 1) - 1}")
    return (v.bit_length() - 1) // 2


@dataclass
class VVarCode:
    """Compressed representation of a 2**depth-sided grayscale image.

    level_labels[i] is the 4V-entry table for level n0+2+i; the list covers
    levels n0+2..depth-1 and is empty when n0 = depth-2.
    """

    depth: int
    v: int
    first_labels: np.ndarray
    level_labels: list[np.ndarray] = field(default_factory=list)
    leaf_values: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))

    @property
    def n0(self) -> int:
        return compute_n0(self.v, self.depth)

    def validate(self) -> None:
        n0 = self.n0  # also checks depth and V ranges
        first = np.asarray(self.first_labels)
        if first.shape != (4 ** (n0 + 1),):
            raise FormatError(
                f"first_labels must have length {4 ** (n0 + 1)}, got {first.shape}"
            )
        tables = [first] + [np.asarray(t) for t in self.level_labels]
        if len(self.level_labels) != max(0, self.depth - 1 - (n0 + 1)):
            raise FormatError(
                f"expected {max(0, self.depth - n0 - 2)} mid-level tables, "
                f"got {len(self.level_labels)}"
            )
        for t in tables[1:]:
            if t.shape != (4 * self.v,):
                raise FormatError("mid-level label tables must have length 4V")
        for t in tables:
            if t.size and (t.min() < 1 or t.max() > self.v):
                raise FormatError("label out of range 1..V")
        leaves = np.asarray(self.leaf_values)
        if leaves.shape != (4 * self.v,):
            raise FormatError(f"leaf_values must have length {4 * self.v}")
        if leaves.size and (leaves.min() < 0 or leaves.max() > 255):
            raise FormatError("leaf values must lie in 0..255")
        if self.v == 1:
            if not (first == 1).all() or any(
                not (t == 1).all() for t in self.level_labels
            ):
                raise FormatError("V=1 codes must have all-ones label tables")
            if len(set(int(x) for x in leaves)) != 1:
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
    seen: dict[bytes, None] = {}
    rows = []
    for row in points:
        key = row.tobytes()
        if key not in seen:
            seen[key] = None
            rows.append(row)
            if len(rows) == k:
                break
    out = [rows[i % len(rows)] for i in range(k)]
    return np.array(out, dtype=np.float64)


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
        if init == "distinct":
            result = kmeans(points, opts, initial_centroids=_distinct_rows(points, v))
        else:
            result = kmeans(points, opts)
        return canonicalize_labels(result)

    first = cluster(blocks_at_level(img, n0 + 1), n0 + 1)
    first_labels = first.labels.astype(np.int32)
    reps = first.centroids

    def children(reps: np.ndarray) -> np.ndarray:
        # row 4(L-1)+d-1 holds child digit d of representative L
        side = math.isqrt(reps.shape[1])
        return split_quadrants(reps.reshape(v, side, side)).reshape(4 * v, -1)

    level_labels: list[np.ndarray] = []
    for level in range(n0 + 2, depth):
        result = cluster(children(reps), level)
        level_labels.append(result.labels.astype(np.int32))
        reps = result.centroids

    # single-pixel level: children are scalars. At V >= 256 each is rounded
    # straight to 0..255, which already leaves at most 256 <= V gray levels;
    # below that each is stored as its cluster's value so the decoded image
    # keeps at most V gray levels
    leaf = children(reps)[:, 0]
    if v < 256:
        result = cluster(leaf[:, None], depth)
        leaf = result.centroids[result.labels - 1, 0]
    leaf_values = np.clip(np.rint(leaf), 0, 255).astype(np.uint8)

    return VVarCode(depth, v, first_labels, level_labels, leaf_values)


def _level_table(code: VVarCode, level: int) -> np.ndarray:
    """Label table for one level, indexed by 4*(parent_type-1) + digit-1."""
    n0 = code.n0
    if 1 <= level <= n0:
        return np.arange(1, 4 ** level + 1, dtype=np.int32)  # trivial coding
    if level == n0 + 1:
        return np.asarray(code.first_labels, dtype=np.int32)
    if level < code.depth:
        return np.asarray(code.level_labels[level - (n0 + 2)], dtype=np.int32)
    raise ValueError(f"no label table for level {level}")


def decode(code: VVarCode) -> PixelImage:
    """Reconstruct the full image by label propagation."""
    code.validate()
    grid = np.ones((1, 1), dtype=np.int32)
    for level in range(1, code.depth):
        grid = expand_types(grid, _level_table(code, level))
    return PixelImage(expand_types(grid, np.asarray(code.leaf_values, np.uint8)))


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
        else:
            return int(code.leaf_values[slot])
    raise AssertionError("unreachable")


def payload_size(v: int, depth: int = 9) -> int:
    """Exact payload size in bytes for a (V, depth) code.

    Labels are bit-packed at ceil(log2 V) bits each with a single zero-pad
    to a byte boundary; leaf values take one byte each. V=1 codes are a
    single byte.
    """
    n0 = compute_n0(v, depth)
    if v == 1:
        return 1
    label_count = 4 ** (n0 + 1) + 4 * v * (depth - 2 - n0)
    width = (v - 1).bit_length()
    return (label_count * width + 7) // 8 + 4 * v


def serialize(code: VVarCode) -> bytes:
    """Pack a code into the VVC1 container.

    Layout: magic "VVC1", version byte 0x01, depth byte, V as 4-byte
    big-endian, then the payload: all label arrays in level order bit-packed
    MSB-first at ceil(log2 V) bits per label storing label-1, zero-padded to
    a byte boundary, then the leaf values as raw bytes. V=1 stores only the
    single leaf gray value byte.
    """
    code.validate()
    header = MAGIC + bytes([VERSION, code.depth]) + code.v.to_bytes(4, "big")
    if code.v == 1:
        return header + bytes([int(code.leaf_values[0])])
    labels = np.concatenate([code.first_labels, *code.level_labels]) - 1
    payload = pack(labels[:, None], [(code.v - 1).bit_length()])
    return header + payload + bytes(np.asarray(code.leaf_values, np.uint8))


def deserialize(data: bytes) -> VVarCode:
    """Exact inverse of serialize."""
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
    expected = HEADER_BYTES + payload_size(v, depth)
    if len(data) != expected:
        raise FormatError(
            f"stream has {len(data)} bytes, expected {expected}"
        )
    if v == 1:
        value = data[HEADER_BYTES]
        return VVarCode(
            depth=depth,
            v=1,
            first_labels=np.ones(4, dtype=np.int32),
            level_labels=[np.ones(4, dtype=np.int32) for _ in range(depth - 2)],
            leaf_values=np.full(4, value, dtype=np.uint8),
        )
    first_count = 4 ** (n0 + 1)
    raw, used = unpack(
        data[HEADER_BYTES:], first_count + 4 * v * (depth - 2 - n0),
        [(v - 1).bit_length()],
    )
    labels = raw[:, 0]
    bad = np.flatnonzero(labels >= v)
    if bad.size:
        raise FormatError(f"label {labels[bad[0]] + 1} out of range 1..{v}")
    labels = (labels + 1).astype(np.int32)
    first_labels = labels[:first_count]
    level_labels = [
        labels[start:start + 4 * v]
        for start in range(first_count, len(labels), 4 * v)
    ]
    leaf_start = HEADER_BYTES + used
    leaf_values = np.frombuffer(
        data[leaf_start:leaf_start + 4 * v], dtype=np.uint8
    ).copy()
    code = VVarCode(depth, v, first_labels, level_labels, leaf_values)
    code.validate()
    return code


def distinct_block_count(img: PixelImage, level: int) -> int:
    """Number of distinct level-`level` blocks under exact pixel equality."""
    if not 0 <= level <= img.depth:
        raise ValueError(f"level {level} out of range 0..{img.depth}")
    blocks = img.data
    for _ in range(level):
        blocks = split_quadrants(blocks)
    return len(np.unique(row_keys(blocks.reshape(4 ** level, -1))))


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
    depth = n0 + m.shape[1]
    label_cols, leaf_col = m[:, :-1], m[:, -1]
    if label_cols.size and (label_cols.min() < 1 or label_cols.max() > v):
        raise ValueError("matrix labels must lie in 1..V")
    if leaf_col.min() < 0 or leaf_col.max() > 255:
        raise ValueError("leaf column values must lie in 0..255")
    code = VVarCode(
        depth=depth,
        v=v,
        first_labels=label_cols[:, 0].astype(np.int32),
        level_labels=[
            label_cols[:, j].astype(np.int32)
            for j in range(1, label_cols.shape[1])
        ],
        leaf_values=leaf_col.astype(np.uint8),
    )
    code.validate()
    return code
