"""Fractal block coding baseline: affine cross-scale block matching.

Each small (range) block is approximated by alpha * downsample(LB) + beta
over all large (domain) blocks, with the least-squares alpha clamped to
[-1, 1] and quantized to 16 uniform levels (step 2/15, endpoints included),
and beta re-fit after alpha quantization, rounded to an integer in -255..255.
Decoding iterates the block transform from a flat start image. No block
isometries are used; a code entry is (large block index, q_alpha, q_beta).
The encoder's domain search works through tiles of whole rows of the
(small block, large block) error matrix, in five scratch buffers of at most
_TILE_CELLS float64 cells each, so its memory does not grow with the image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitpack import pack, unpack
from .imaging import FormatError, PixelImage, downsample2x

ALPHA_BITS = 4
BETA_BITS = 9
_VAR_EPS = 1e-6  # guards alpha against roundoff on constant domain blocks
# q * _ALPHA_STEP - 1 equals alpha_value(q) bit for bit on the 16 levels
_ALPHA_STEP = 1.0 / 7.5
_TILE_CELLS = 1 << 15  # float64 cells per search buffer: 256 KiB, fits in L2

MAGIC = b"FBC1"
VERSION = 1
HEADER_BYTES = 7


@dataclass(frozen=True)
class FbcParams:
    """Geometry and decode schedule; large blocks are twice the small side."""

    small_size: int
    decode_iterations: int = 10

    def __post_init__(self) -> None:
        s = self.small_size
        if s < 2 or s & (s - 1):
            raise ValueError(f"small block size {s} is not a power of two >= 2")
        if self.decode_iterations < 1:
            raise ValueError("decode_iterations must be >= 1")

    @property
    def large_size(self) -> int:
        return 2 * self.small_size

    def check_side(self, side: int) -> None:
        if side % self.small_size or side % self.large_size:
            raise ValueError(
                f"block sizes {self.small_size}/{self.large_size} do not "
                f"divide image side {side}"
            )


@dataclass
class FbcCode:
    """One (large_index, q_alpha, q_beta) entry per small block, row-major."""

    depth: int
    small_size: int
    entries: np.ndarray  # (n_small, 3) int32

    @property
    def n_small(self) -> int:
        return (2 ** self.depth // self.small_size) ** 2

    @property
    def n_large(self) -> int:
        return (2 ** self.depth // (2 * self.small_size)) ** 2

    def validate(self) -> None:
        FbcParams(self.small_size).check_side(2 ** self.depth)
        e = np.asarray(self.entries)
        if e.shape != (self.n_small, 3):
            raise FormatError(
                f"expected {self.n_small} entries of 3 fields, got {e.shape}"
            )
        if e[:, 0].min() < 0 or e[:, 0].max() >= self.n_large:
            raise FormatError("large block index out of range")
        if e[:, 1].min() < 0 or e[:, 1].max() > 15:
            raise FormatError("quantized alpha out of range 0..15")
        if e[:, 2].min() < 0 or e[:, 2].max() > 510:
            raise FormatError("quantized beta out of range 0..510")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FbcCode):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.small_size == other.small_size
            and np.array_equal(self.entries, other.entries)
        )


def alpha_value(q_alpha: np.ndarray | int) -> np.ndarray | float:
    """Dequantize: level q in 0..15 maps to -1 + q * 2/15."""
    return np.asarray(q_alpha, dtype=np.float64) / 7.5 - 1.0


def quantize_alpha(alpha: np.ndarray) -> np.ndarray:
    """Nearest of the 16 uniform levels on [-1, 1] after clamping."""
    clamped = np.clip(alpha, -1.0, 1.0)
    return np.rint((clamped + 1.0) * 7.5).astype(np.int64)


def _grid_blocks(plane: np.ndarray, size: int) -> np.ndarray:
    """Cut a plane into (n, size*size) rows of non-overlapping blocks,
    row-major scan order."""
    g = plane.shape[0] // size
    return (
        plane.reshape(g, size, g, size)
        .transpose(0, 2, 1, 3)
        .reshape(g * g, size * size)
    )


def fbc_encode(img: PixelImage, params: FbcParams) -> FbcCode:
    """Find the best (large block, alpha, beta) triple for every small block.

    The error minimized is the squared norm of SB - (alpha_q * L + beta_q)
    with both parameters already quantized; ties go to the lowest large
    block index.
    """
    params.check_side(img.side)
    s = params.small_size
    n = s * s
    plane = img.data.astype(np.float64)
    small = _grid_blocks(plane, s)
    large = _grid_blocks(downsample2x(plane), s)

    sum_s = small.sum(axis=1)
    sum_s2 = np.einsum("ij,ij->i", small, small)
    sum_l = large.sum(axis=1)
    sum_l2 = np.einsum("ij,ij->i", large, large)
    var_l = sum_l2 - sum_l * sum_l / n  # n * variance
    mean_s = sum_s / n
    mean_l = sum_l / n
    two_sum_s = 2.0 * sum_s  # 2 * b * sum_s is an exact integer either way
    # flat domains get alpha = cov / inf = +-0, which quantizes like alpha = 0
    var_div = np.where(var_l > _VAR_EPS, var_l, np.inf)

    n_small = small.shape[0]
    n_large = large.shape[0]
    large_t = np.ascontiguousarray(large.T)
    entries = np.empty((n_small, 3), dtype=np.int32)
    rows = min(n_small, max(1, _TILE_CELLS // n_large))
    cross, aq, b_int, err, tmp = np.empty((5, rows, n_large))
    for start in range(0, n_small, rows):
        stop = min(start + rows, n_small)
        r = stop - start
        if r < rows:
            cross, aq, b_int, err, tmp = (
                buf[:r] for buf in (cross, aq, b_int, err, tmp)
            )
        ms = mean_s[start:stop, None]
        np.matmul(small[start:stop], large_t, out=cross)
        # alpha = (cross - outer(sum_s, sum_l) / n) / var, quantized to aq;
        # n is a power of two, so outer(sum_s / n, sum_l) has the same bits
        np.multiply(ms, sum_l, out=aq)
        np.subtract(cross, aq, out=aq)
        aq /= var_div
        np.clip(aq, -1.0, 1.0, out=aq)
        aq += 1.0
        aq *= 7.5
        np.rint(aq, out=aq)
        aq *= _ALPHA_STEP
        aq -= 1.0
        # beta = sum_s / n - aq * (sum_l / n), rounded and clamped
        np.multiply(aq, mean_l, out=b_int)
        np.subtract(ms, b_int, out=b_int)
        np.rint(b_int, out=b_int)
        # pixels are 0..255 and |aq| <= 1, so beta >= -255 already
        np.minimum(b_int, 255.0, out=b_int)
        # err = sum_s2 + aq*aq*sum_l2 + n*b*b - 2*aq*cross - 2*b*sum_s
        #       + 2*aq*b*sum_l, summed left to right; aq becomes 2 * aq
        np.multiply(aq, aq, out=err)
        err *= sum_l2
        err += sum_s2[start:stop, None]
        np.multiply(b_int, n, out=tmp)
        tmp *= b_int
        err += tmp
        aq *= 2.0
        cross *= aq
        err -= cross
        np.multiply(b_int, two_sum_s[start:stop, None], out=tmp)
        err -= tmp
        np.multiply(aq, b_int, out=tmp)
        tmp *= sum_l
        err += tmp
        best = err.argmin(axis=1)
        at = np.arange(r), best
        entries[start:stop, 0] = best
        entries[start:stop, 1] = np.rint((aq[at] / 2.0 + 1.0) * 7.5)
        entries[start:stop, 2] = b_int[at] + 255.0
    return FbcCode(img.depth, s, entries)


def apply_block_transform(code: FbcCode, plane: np.ndarray) -> np.ndarray:
    """One real-valued decoder pass: every small block becomes
    alpha * downsample(its large block) + beta, taken from `plane`."""
    side = 2 ** code.depth
    s = code.small_size
    gs = side // s
    idx = code.entries[:, 0]
    alpha = alpha_value(code.entries[:, 1])
    beta = code.entries[:, 2].astype(np.float64) - 255.0
    domains = _grid_blocks(downsample2x(plane), s)
    blocks = alpha[:, None] * domains[idx] + beta[:, None]
    return (
        blocks.reshape(gs, gs, s, s).transpose(0, 2, 1, 3).reshape(side, side)
    )


def fbc_decode(
    code: FbcCode,
    params: FbcParams | None = None,
    init: PixelImage | float = 128.0,
) -> PixelImage:
    """Iterate the block transform from `init` (default flat 128).

    Arithmetic stays real-valued across passes; rounding and clamping to
    0..255 happen once at the end.
    """
    code.validate()
    if params is None:
        params = FbcParams(code.small_size)
    if params.small_size != code.small_size:
        raise ValueError("params.small_size does not match the code")
    side = 2 ** code.depth
    if isinstance(init, PixelImage):
        if init.depth != code.depth:
            raise ValueError("init image depth does not match the code")
        current = init.data.astype(np.float64)
    else:
        current = np.full((side, side), float(init))
    for _ in range(params.decode_iterations):
        current = apply_block_transform(code, current)
    return PixelImage.from_real(current)


def index_bits(n_large: int) -> int:
    return (n_large - 1).bit_length()


def fbc_payload_bits(code: FbcCode) -> int:
    """Payload size in bits: one (index, alpha, beta) triple per entry."""
    code.validate()
    return len(code.entries) * (ALPHA_BITS + BETA_BITS + index_bits(code.n_large))


def serialize(code: FbcCode) -> bytes:
    """Pack into the FBC1 container.

    Layout: magic "FBC1", version byte 0x01, depth byte, small size byte,
    then the entries bit-packed MSB-first (index at ceil(log2 n_large) bits,
    alpha 4 bits, beta 9 bits), zero-padded to a byte boundary.
    """
    code.validate()
    if code.small_size > 255:
        raise ValueError("FBC1 stores the small block size in one byte")
    header = MAGIC + bytes([VERSION, code.depth, code.small_size])
    widths = [index_bits(code.n_large), ALPHA_BITS, BETA_BITS]
    return header + pack(code.entries, widths)


def deserialize(data: bytes) -> FbcCode:
    """Exact inverse of serialize."""
    if len(data) < HEADER_BYTES:
        raise FormatError("stream shorter than FBC1 header")
    if data[:4] != MAGIC:
        raise FormatError("bad magic (not an FBC1 stream)")
    if data[4] != VERSION:
        raise FormatError(f"unsupported FBC1 version {data[4]}")
    depth, s = data[5], data[6]
    try:
        FbcParams(s).check_side(2 ** depth)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    n_small = (2 ** depth // s) ** 2
    n_large = (2 ** depth // (2 * s)) ** 2
    ibits = index_bits(n_large)
    expected = HEADER_BYTES + (n_small * (ibits + ALPHA_BITS + BETA_BITS) + 7) // 8
    if len(data) != expected:
        raise FormatError(f"stream has {len(data)} bytes, expected {expected}")
    entries, _ = unpack(data[HEADER_BYTES:], n_small, [ibits, ALPHA_BITS, BETA_BITS])
    if (entries[:, 0] >= n_large).any():
        raise FormatError("large block index out of range")
    if (entries[:, 2] > 510).any():
        raise FormatError("quantized beta out of range 0..510")
    return FbcCode(depth, s, entries.astype(np.int32))
