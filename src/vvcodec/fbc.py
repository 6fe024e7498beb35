"""Fractal block coding baseline: affine cross-scale block matching.

Each small (range) block is approximated by alpha * downsample(LB) + beta
over all large (domain) blocks, with the least-squares alpha clamped to
[-1, 1] and quantized to 16 uniform levels (step 2/15, endpoints included),
and beta re-fit after alpha quantization, rounded to an integer in -255..255.
Decoding iterates the block transform from a flat start image. No block
isometries are used; a code entry is (large block index, q_alpha, q_beta).
The encoder's domain search is exact but pruned (Saupe 1995; Fisher 1995,
ch. 3). Identical small blocks are searched once, in tiles of rows of alike
spread, with one correlation pass per tile: a float32 matmul of mean-removed,
unit-norm blocks gives each cell's rho, and whatever alpha and beta, the
error is at least Sss * (1 - rho^2), Sss being the small block's centered
sum of squares. Each row's upper bound ub is the exact error of a few
candidate blocks picked from the same rho. A cell is skipped only when its
lower bound exceeds ub plus a margin derived from the magnitudes (see
_ERR_SLACK), so the winner and every cell tied with it survive. The exact
error expressions then run over the union of the columns that survive for
any of the tile's rows, in five scratch buffers of at most _TILE_CELLS
float64 cells each, so memory does not grow with the image, and the output
is bit for bit that of the full scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitpack import pack, unpack
from .imaging import MAX_DEPTH, FormatError, PixelImage, downsample2x, row_keys

ALPHA_BITS = 4
BETA_BITS = 9
_VAR_EPS = 1e-6  # guards alpha against roundoff on constant domain blocks
# q * _ALPHA_STEP - 1 equals alpha_value(q) bit for bit on the 16 levels
_ALPHA_STEP = 1.0 / 7.5
# float64 cells per search buffer (1 MiB). A tile has this many cells
# divided by max(n_large, n) rows, so neither its search buffers nor the
# pixels gathered for one of its candidates exceed it. Larger tiles spread
# each tile's calls over more rows, but every row of a tile pays for the
# union of its rows' columns. On image B (2-core Xeon, numpy 2.4, OpenBLAS
# 0.3.31) 2^16 ran s=4, the costliest size, ~1.2x slower, and 2^18 ran s=8
# ~1.15x slower.
_TILE_CELLS = 1 << 17
# The search skips a cell only when a lower bound on its exact error exceeds
# ub, the least computed error of its row's candidates, plus n * _ERR_SLACK.
# The winner's computed error is at most ub, so it and every cell tied with
# it survive if computed and exact errors differ by less than that margin
# and the bounds are evaluated conservatively:
# - err sums six terms of magnitude at most 2 * 255^2 * n (9 * 255^2 * n <
#   2^20 * n in all), each through at most 7 roundings, so it is within
#   7 * 2^-53 * 2^20 * n < n * 2^-30 of exact: _ERR_SLACK leaves 4x headroom;
# - cross is exact, and Sss is within (n + 2) float64 ulps of exact;
# - _rho2_slack(n) bounds the float32 rounding of rho^2.
# A wider margin only costs survivors; a narrower one could change output.
_ERR_SLACK = 2.0 ** -28

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
        if s > 128:  # the largest power of two in FBC1's size byte
            raise ValueError(f"small block size {s} exceeds 128")
        if self.decode_iterations < 1:
            raise ValueError("decode_iterations must be >= 1")

    @property
    def large_size(self) -> int:
        return 2 * self.small_size

    def check_side(self, side: int) -> None:
        if side > 2 ** MAX_DEPTH:
            raise ValueError(f"image side {side} exceeds {2 ** MAX_DEPTH}")
        if side % self.large_size:
            raise ValueError(
                f"block sizes {self.small_size}/{self.large_size} do not "
                f"divide image side {side}"
            )


@dataclass(frozen=True, eq=False)
class FbcCode:
    """One (large_index, q_alpha, q_beta) entry per small block, row-major;
    checked once, when it is made, and frozen."""

    depth: int
    small_size: int
    entries: np.ndarray  # (n_small, 3) int32

    @property
    def n_small(self) -> int:
        return (2 ** self.depth // self.small_size) ** 2

    @property
    def n_large(self) -> int:
        return (2 ** self.depth // (2 * self.small_size)) ** 2

    def __post_init__(self) -> None:
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


def _collage_errors(cross, row_consts, col_consts, n, aq, b_int, err, tmp) -> None:
    """The quantized fit and its squared error for a block of cells.

    `cross` holds sum(SB * LB) for each cell; `row_consts` = (mean_s,
    sum_s2, 2 * sum_s) and `col_consts` = (sum_l, mean_l, sum_l2, var_div)
    broadcast against it. Fills aq with 2 * alpha_q, b_int with beta_q and
    err with the error, and overwrites cross. Elementwise IEEE operations on
    the same operand values give the same bits in any layout, so any subset
    of cells gets the bits the full error matrix would hold.
    """
    ms, sum_s2, two_sum_s = row_consts
    sum_l, mean_l, sum_l2, var_div = col_consts
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
    err += sum_s2
    np.multiply(b_int, n, out=tmp)
    tmp *= b_int
    err += tmp
    aq *= 2.0
    cross *= aq
    err -= cross
    np.multiply(b_int, two_sum_s, out=tmp)
    err -= tmp
    np.multiply(aq, b_int, out=tmp)
    tmp *= sum_l
    err += tmp


def _centered_units(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's centered sum of squares, and the centered row scaled to
    unit norm as float32 (all zero for a flat row).

    Centering is exact, since pixels and their 2x2 means are multiples of
    1/4 and n is a power of two, and the sum of squares has no cancellation,
    so both are within (n + 2) float64 ulps of exact before the cast.
    """
    centered = blocks - blocks.mean(axis=1, keepdims=True)
    sq = np.einsum("ij,ij->i", centered, centered)
    centered /= np.where(sq > 0.0, np.sqrt(sq), np.inf)[:, None]
    return sq, centered.astype(np.float32)


def _rho2_slack(n: int) -> float:
    """A bound on |rho_hat^2 - rho^2| plus the rounding of the comparison.

    The float32 unit rows are within 2 float32 ulps of exact per pixel, and
    their float32 dot product over n pixels errs by at most gamma_n, so
    |rho_hat - rho| <= eps = g / (1 - g) with g = (n + 5) * 2^-24, and
    |rho_hat^2 - rho^2| <= eps * (2 + eps). 2^-22 covers the float32 square,
    the float64 floor (error ~n * 2^-53) and its float32 cast.
    """
    g = (n + 5) * 2.0 ** -24
    eps = g / (1.0 - g) if g < 1.0 else np.inf
    return eps * (2.0 + eps) + 2.0 ** -22


def _distinct_by_spread(pixels: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of uint8 `pixels` in order of spread, and each row's
    place in that list.

    Identical blocks have identical error rows, so each is searched once;
    rows of alike spread share tiles, and so do their survivors.
    """
    _, first, inverse = np.unique(
        row_keys(pixels), return_index=True, return_inverse=True
    )
    rows = pixels[first]
    sums = rows.sum(axis=1, dtype=np.int64)
    squares = np.einsum("ij,ij->i", rows, rows, dtype=np.int64)
    order = np.argsort(n * squares - sums * sums, kind="stable")  # n * Sss
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    return first[order], place[inverse]


def _least_errors(small, large, cand, row_consts, col_consts, n) -> np.ndarray:
    """Each row's least computed error over its domains cand[:, row], with the
    bits the full search gives those cells."""
    cross, aq, b_int, err, tmp = np.empty((5, *cand.shape))
    for k, domains in enumerate(cand):
        # integer times quarter-integer products: exact in any order
        np.einsum("ij,ij->i", small, large[domains], out=cross[k])
    col_consts = tuple(c[cand] for c in col_consts)
    _collage_errors(cross, row_consts, col_consts, n, aq, b_int, err, tmp)
    return err.min(axis=0)


def _search_columns(small, large_t, cols, row_consts, col_consts, n, bufs, out):
    """Write each row's best (domain, q_alpha, q_beta) over the domains
    `cols` into out, ties to the lowest index; bufs are five flat scratch
    buffers of at least len(small) * len(cols) cells."""
    r, k = len(small), len(cols)
    cross, aq, b_int, err, tmp = (buf[: r * k].reshape(r, k) for buf in bufs)
    np.matmul(small, large_t[:, cols], out=cross)
    col_consts = tuple(c[cols] for c in col_consts)
    _collage_errors(cross, row_consts, col_consts, n, aq, b_int, err, tmp)
    best = err.argmin(axis=1)
    at = np.arange(r), best
    out[:, 0] = cols[best]
    out[:, 1] = np.rint((aq[at] / 2.0 + 1.0) * 7.5)
    out[:, 2] = b_int[at] + 255.0


def fbc_encode(img: PixelImage, params: FbcParams) -> FbcCode:
    """Find the best (large block, alpha, beta) triple for every small block.

    The error minimized is the squared norm of SB - (alpha_q * L + beta_q)
    with both parameters already quantized; ties go to the lowest large
    block index.
    """
    params.check_side(img.side)
    s = params.small_size
    n = s * s
    pixels = _grid_blocks(img.data, s)
    distinct, where = _distinct_by_spread(pixels, n)
    small = pixels[distinct].astype(np.float64)
    sss, unit_small = _centered_units(small)
    sd_small = np.sqrt(sss)
    large = _grid_blocks(downsample2x(img.data.astype(np.float64)), s)
    # domains in spread order, for the half-spread candidates
    var_sq, unit_large = _centered_units(large)
    by_sd = np.argsort(var_sq, kind="stable")
    sd_large = np.sqrt(var_sq[by_sd])
    unit_large_t = np.ascontiguousarray(unit_large[by_sd].T)

    sum_s = small.sum(axis=1)
    sum_l = large.sum(axis=1)
    sum_l2 = np.einsum("ij,ij->i", large, large)
    var_l = sum_l2 - sum_l * sum_l / n  # n * variance
    # 2 * b * sum_s is an exact integer either way
    row_consts = (sum_s / n, np.einsum("ij,ij->i", small, small), 2.0 * sum_s)
    # flat domains get alpha = cov / inf = +-0, which quantizes like alpha = 0
    var_div = np.where(var_l > _VAR_EPS, var_l, np.inf)
    col_consts = (sum_l, sum_l / n, sum_l2, var_div)

    # one tile of rows at a time: its rho band gives each row's candidates,
    # their least error ub, and a lower bound that rules out domains (see
    # _ERR_SLACK for why this is exact); the exact search covers the domains
    # whose rho^2 reaches the floor of one of the tile's rows, and its
    # candidates
    n_small, n_large = len(small), len(large)
    rows = min(n_small, max(1, _TILE_CELLS // max(n_large, n)))
    large_t = np.ascontiguousarray(large.T)
    bufs = np.empty((5, rows * n_large))
    rho = np.empty((rows, n_large), dtype=np.float32)
    hits = np.empty((rows, n_large), dtype=bool)
    keep = np.empty(n_large, dtype=bool)
    found = np.empty((n_small, 3), dtype=np.int32)
    for start in range(0, n_small, rows):
        tile = slice(start, min(start + rows, n_small))
        r = tile.stop - start
        band, hit = rho[:r], hits[:r]
        np.matmul(unit_small[tile], unit_large_t, out=band)
        # the most and least correlated domain overall, the same among the
        # domains with at least half the spread of the tile's widest row
        # (their slope seldom needs clamping), and the flattest domain
        j0 = min(int(np.searchsorted(sd_large, 0.5 * sd_small[tile.stop - 1])),
                 n_large - 1)
        wide = band[:, j0:]
        cand = by_sd[np.stack([
            band.argmax(axis=1), band.argmin(axis=1),
            wide.argmax(axis=1) + j0, wide.argmin(axis=1) + j0,
            np.zeros(r, dtype=np.intp),
        ])]
        ub = _least_errors(
            small[tile], large, cand, tuple(c[tile] for c in row_consts),
            col_consts, n,
        )
        ub += n * _ERR_SLACK
        # every error is at least Sss * (1 - rho^2): keep rho^2 >= floor
        with np.errstate(divide="ignore"):
            floor = ((1.0 - ub / sss[tile]) - _rho2_slack(n)).astype(np.float32)
        np.square(band, out=band)
        np.greater_equal(band, floor[:, None], out=hit)
        keep[by_sd] = hit.any(axis=0)
        keep[cand] = True
        _search_columns(
            small[tile], large_t, np.flatnonzero(keep),
            tuple(c[tile, None] for c in row_consts), col_consts, n,
            bufs, found[tile],
        )
    return FbcCode(img.depth, s, found[where])


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
    code: FbcCode, params: FbcParams | None = None, init: float = 128.0
) -> PixelImage:
    """Iterate the block transform from a flat plane of value `init`.

    Arithmetic stays real-valued across passes; rounding and clamping to
    0..255 happen once at the end.
    """
    if params is None:
        params = FbcParams(code.small_size)
    if params.small_size != code.small_size:
        raise ValueError("params.small_size does not match the code")
    side = 2 ** code.depth
    current = np.full((side, side), float(init))
    for _ in range(params.decode_iterations):
        current = apply_block_transform(code, current)
    return PixelImage.from_real(current)


def field_widths(n_large: int) -> list[int]:
    """Bits of an FBC1 entry's fields: large block index, q_alpha, q_beta."""
    return [(n_large - 1).bit_length(), ALPHA_BITS, BETA_BITS]


def fbc_payload_bits(code: FbcCode) -> int:
    """Payload size in bits: one (index, alpha, beta) triple per entry."""
    return len(code.entries) * sum(field_widths(code.n_large))


def serialize(code: FbcCode) -> bytes:
    """Pack into the FBC1 container.

    Layout: magic "FBC1", version byte 0x01, depth byte, small size byte,
    then the entries bit-packed MSB-first (index at ceil(log2 n_large) bits,
    alpha 4 bits, beta 9 bits), zero-padded to a byte boundary.
    """
    header = MAGIC + bytes([VERSION, code.depth, code.small_size])
    return header + pack(code.entries, field_widths(code.n_large))


def deserialize(data: bytes) -> FbcCode:
    """Exact inverse of serialize; an invalid stream raises FormatError."""
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
    # large blocks have twice the small side, so there are n / 4 of them
    n = (2 ** depth // s) ** 2
    widths = field_widths(n // 4)
    expected = HEADER_BYTES + (n * sum(widths) + 7) // 8
    if len(data) != expected:
        raise FormatError(f"stream has {len(data)} bytes, expected {expected}")
    return FbcCode(depth, s, unpack(data[HEADER_BYTES:], n, widths).astype(np.int32))
