"""Grayscale image primitives: PGM I/O, quadrant addressing, block arithmetic,
quadtree expansion.

Images are square with side 2**depth and 8-bit gray values stored row-major,
row 0 at the top. Quadrant digits 1..4 follow the unit-square convention with
y pointing up, so with screen coordinates:

    1 = bottom-left   2 = top-left   3 = bottom-right   4 = top-right

("bottom" means larger row indices). This module is the only one that knows
the mapping: the others split blocks and expand quadtrees through
split_quadrants, blocks_at_level and expand_types.

Intermediate block values are real-valued float64 arrays; rounding and
clamping to 0..255 happens only when a PixelImage is produced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

QuadAddress = tuple[int, ...]

# row/column half offsets per quadrant digit (index digit-1)
_DIGIT_ROW = (1, 0, 1, 0)
_DIGIT_COL = (0, 0, 1, 1)

# a PGM header token after any whitespace and "#" comments (to end of line)
_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*)*(\S*)")

MAX_DEPTH = 12  # deepest quadtree either codec holds: a 4096 x 4096 image


class FormatError(ValueError):
    """Raised for malformed or corrupt serialized data (PGM/VVC1/FBC1)."""


@dataclass(frozen=True, eq=False)
class PixelImage:
    """Square 2**depth x 2**depth grid of integer gray values in 0..255."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("image data must be a square 2-D array")
        side = arr.shape[0]
        if side < 1 or side & (side - 1):
            raise ValueError(f"image side {side} is not a power of two")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("pixel values must be integers")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("pixel values must lie in 0..255")
            arr = arr.astype(np.uint8)
        object.__setattr__(self, "data", arr)

    @property
    def side(self) -> int:
        return self.data.shape[0]

    @property
    def depth(self) -> int:
        return self.side.bit_length() - 1

    @classmethod
    def from_real(cls, values: np.ndarray) -> "PixelImage":
        """Round to nearest and clamp a real-valued array into an image."""
        return cls(np.clip(np.rint(values), 0, 255).astype(np.uint8))


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise FormatError("truncated PGM header")
    return match[1], match.end()


def load_pgm(data: bytes) -> PixelImage:
    """Parse a binary PGM (P5) byte stream into a PixelImage.

    The image must be square with a power-of-two side and maxval 255.
    Header comments are accepted.
    """
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise FormatError("not a binary PGM (P5) stream")
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"bad PGM header field {token!r}") from None
    width, height, maxval = fields
    if width != height:
        raise FormatError(f"image is {width}x{height}, not square")
    if width < 1 or width & (width - 1):
        raise FormatError(f"image side {width} is not a power of two")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (need 255)")
    if not data[pos:pos + 1].isspace():
        raise FormatError("missing whitespace before PGM raster")
    raster = data[pos + 1:]
    if len(raster) != width * height:
        raise FormatError(
            f"PGM raster has {len(raster)} bytes, expected {width * height}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return PixelImage(pixels.copy())


def save_pgm(img: PixelImage) -> bytes:
    """Serialize to binary PGM (P5), single-whitespace header, no comments."""
    header = f"P5 {img.side} {img.side} 255\n".encode("ascii")
    return header + img.data.tobytes()


def _check_address(addr: QuadAddress, depth: int) -> None:
    if len(addr) > depth:
        raise ValueError(f"address length {len(addr)} exceeds depth {depth}")
    for d in addr:
        if d not in (1, 2, 3, 4):
            raise ValueError(f"quadrant digit {d} not in 1..4")


def extract_block(img: PixelImage, addr: QuadAddress) -> np.ndarray:
    """Return the sub-block selected by successive quadrant digits.

    The result is a real-valued (float64) square array of side
    2**(depth - len(addr)).
    """
    _check_address(addr, img.depth)
    row = col = 0
    side = img.side
    for d in addr:
        side //= 2
        row += _DIGIT_ROW[d - 1] * side
        col += _DIGIT_COL[d - 1] * side
    return img.data[row:row + side, col:col + side].astype(np.float64)


def split_quadrants(blocks: np.ndarray) -> np.ndarray:
    """Split each square block into its four quadrants in digit order 1..4.

    Maps shape (..., side, side) to (..., 4, side/2, side/2), keeping the
    dtype.
    """
    blocks = np.asarray(blocks)
    side = blocks.shape[-1]
    if blocks.ndim < 2 or blocks.shape[-2] != side:
        raise ValueError("block must be square")
    if side < 2 or side % 2:
        raise ValueError(f"cannot split a block of side {side}")
    h = side // 2
    halves = blocks.reshape(*blocks.shape[:-2], 2, h, 2, h).swapaxes(-3, -2)
    return halves[..., _DIGIT_ROW, _DIGIT_COL, :, :]


def downsample2x(block: np.ndarray) -> np.ndarray:
    """Halve a block's side, each output value the mean of a 2x2 cell."""
    block = np.asarray(block, dtype=np.float64)
    side = block.shape[0]
    if block.ndim != 2 or block.shape[1] != side:
        raise ValueError("block must be square")
    if side < 2 or side % 2:
        raise ValueError(f"cannot downsample a block of side {side}")
    return 0.25 * (
        block[0::2, 0::2]
        + block[0::2, 1::2]
        + block[1::2, 0::2]
        + block[1::2, 1::2]
    )


def blocks_at_level(img: PixelImage, level: int) -> np.ndarray:
    """All level-`level` blocks as a (4**level, block_pixels) float matrix,
    rows in address-lexicographic order."""
    if not 0 <= level <= img.depth:
        raise ValueError(f"level {level} out of range 0..{img.depth}")
    blocks = img.data
    for _ in range(level):
        blocks = split_quadrants(blocks)
    return blocks.reshape(4 ** level, -1).astype(np.float64)


def expand_types(grid: np.ndarray, table: np.ndarray) -> np.ndarray:
    """One quadtree expansion step: parent types -> child values via table.

    grid holds types in 1..V and table has 4V entries, entry 4(t-1)+d-1
    giving the value of child digit d of a type-t parent. The child grid, of
    twice the side, takes table's dtype; each parent's top and bottom child
    pairs are gathered as one 2-wide item each.
    """
    side = grid.shape[0]
    # cells[half, t] is the top (half 0) or bottom child pair of type t; the
    # zero row t = 0 lets types index the table without subtracting 1; digit
    # d of type t sits at cells[_DIGIT_ROW[d-1], t, _DIGIT_COL[d-1]]
    cells = np.zeros((2, len(table) // 4 + 1, 2), dtype=table.dtype)
    cells[_DIGIT_ROW, 1:, _DIGIT_COL] = table.reshape(-1, 4).T
    out = np.empty((side, 2, side, 2), dtype=table.dtype)
    for half in (0, 1):
        np.take(cells[half], grid, axis=0, out=out[:, half])
    return out.reshape(2 * side, 2 * side)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """View each row of a 2-D array as one opaque np.void item.

    np.unique and sorting then compare whole rows by their bytes, which for
    integer pixels is exact equality.
    """
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))[:, 0]
