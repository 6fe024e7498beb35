"""Fractal block coding baseline: affine cross-scale block matching.

Each small (range) block is approximated by alpha * downsample(LB) + beta
over all large (domain) blocks, with the least-squares alpha clamped to
[-1, 1] and quantized to 16 uniform levels (step 2/15, endpoints included),
and beta re-fit after alpha quantization, rounded to an integer in -255..255.
Decoding iterates the block transform from a flat start image. Iterate k is
constant on aligned squares of side small / 2^(k-1) (Baharav, Malah & Karnin
1993), so each pass holds one value per square, in four parts of a quarter
of the values each, with the bits of the full-resolution loop. No block
isometries are used; a code entry is (large block index, q_alpha, q_beta).
The encoder's domain search is exact but pruned (Saupe 1995; Fisher 1995,
ch. 3). Identical small blocks are searched once, in tiles of rows of alike
spread, four tiles to a group, with one correlation pass per group: a
float32 matmul of mean-removed, unit-norm blocks gives each cell's rho, and
whatever alpha and beta, the error is at least Sss * (1 - rho^2), Sss being
the small block's centered sum of squares. Each row's upper bound ub is the
exact error of two candidate blocks picked from the same rho. A cell is
skipped only when its lower bound exceeds ub plus a margin derived from the
magnitudes (see _ERR_SLACK), so the winner and every cell tied with it
survive. One routine scores listed cells with row-wise dot products: a
group's candidates, for its rows' ub, and, where a tile's rows keep at most
a quarter of their cells, each row's own survivors, listed across tiles and
scored in batches. Other tiles' rows are scored over the union of the
columns that survive for any of the tile's rows. Either way each cell gets
the bits of the full error matrix, and ties go to the lowest index. Each
search's arrays hold at most _TILE_CELLS cells, or one row when a row holds
more; the pixels it gathers are at most one more copy of the side^2 / 4
cell domain table. So scratch memory grows no faster than the block tables
do, and the output is bit for bit that of the full scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitpack import pack, unpack
from .imaging import MAX_DEPTH, FormatError, PixelImage, downsample2x, row_keys

ALPHA_BITS = 4
BETA_BITS = 9
# float64 cells per search array (1 MiB). A tile has this many cells
# divided by max(n_large, n) rows, so its search arrays do not exceed it.
# The pixels gathered for a union search, |cols| x n cells, can be the
# whole domain table, side^2 / 4 cells; listed cells (a group's candidates,
# or survivors) are gathered _TILE_CELLS // n at a time, one tile's worth.
# Survivors are scored once the next tile's would take them past that many
# cells; a listed tile keeps at most a quarter of its cells, so a batch
# holds at most a quarter of a tile's cells (n >= 4), or of one row's when
# a row holds more. Larger tiles spread each call over more rows, but a
# union search pays for the union of its rows' columns. On image B (2-core
# Xeon, numpy 2.4, OpenBLAS 0.3.31) a sweep of 2^15 to 2^19 found none
# faster than 2^17 beyond the noise, and 2^15 and 2^19 ran s=4, the
# costliest size, ~1.4-2x slower.
_TILE_CELLS = 1 << 17
# The search skips a cell only when a lower bound on its exact error exceeds
# ub, the least computed error of its row's candidates, plus n * _ERR_SLACK.
# The winner's computed error is at most ub, so it and every cell tied with
# it survive if computed and exact errors differ by less than that margin
# and the bounds are evaluated conservatively:
# - err sums six terms of magnitude at most 2 * 255^2 * n (9 * 255^2 * n <
#   2^20 * n in all), each through at most 7 roundings, so it is within
#   7 * 2^-53 * 2^20 * n < n * 2^-30 of exact: _ERR_SLACK leaves 4x headroom;
# - cross and Sss are exact (see fbc_encode's sums);
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

    def check_side(self, side: int) -> None:
        if side > 2 ** MAX_DEPTH:
            raise ValueError(f"image side {side} exceeds {2 ** MAX_DEPTH}")
        if side % (2 * self.small_size):
            raise ValueError(
                f"block sizes {self.small_size}/{2 * self.small_size} do not "
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
        if not np.issubdtype(e.dtype, np.integer):
            raise FormatError("entries must be integers")
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


def _collage_errors(cross, row_consts, col_consts, n):
    """The quantized fit of each cell of a block and its squared error, as
    (2 * alpha_q, beta_q, err).

    `cross` holds sum(SB * LB) for each cell; `row_consts` = (mean_s,
    sum_s2, 2 * sum_s) and `col_consts` = (sum_l, mean_l, sum_l2, var_div)
    broadcast against it. Elementwise IEEE operations on the same operand
    values give the same bits in any layout, so any subset of cells gets
    the bits the full error matrix would hold.
    """
    ms, sum_s2, two_sum_s = row_consts
    sum_l, mean_l, sum_l2, var_div = col_consts
    # one block: a full tile's four arrays make the 4 MiB from which numpy
    # asks for huge pages
    aq, b_int, err, tmp = np.empty((4, *cross.shape))
    # alpha = (cross - outer(sum_s, sum_l) / n) / var, quantized to aq;
    # n is a power of two, so outer(sum_s / n, sum_l) has the same bits
    np.multiply(ms, sum_l, out=aq)
    np.subtract(cross, aq, out=aq)
    aq /= var_div
    np.clip(aq, -1.0, 1.0, out=aq)
    aq += 1.0
    aq *= 7.5
    np.rint(aq, out=aq)
    aq /= 7.5
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
    np.multiply(cross, aq, out=tmp)
    err -= tmp
    np.multiply(b_int, two_sum_s, out=tmp)
    err -= tmp
    np.multiply(aq, b_int, out=tmp)
    tmp *= sum_l
    err += tmp
    return aq, b_int, err


def _unit_rows(blocks: np.ndarray, means: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Each row minus its mean, divided by its norm `sd` (the square root of
    its centered sum of squares), as float32 (all zero for a flat row).
    Pixels and 2x2 means are multiples of 1/4 and n is a power of two, so
    centering is exact and each value within 2 float64 roundings of exact
    before the cast."""
    centered = blocks - means[:, None]
    centered /= np.where(sd > 0.0, sd, np.inf)[:, None]
    return centered.astype(np.float32)


def _rho2_slack(n: int) -> float:
    """A bound on |rho_hat^2 - rho^2| plus the rounding of the comparison.

    The float32 unit rows are within 2 float32 ulps of exact per pixel, and
    their float32 dot product over n pixels errs by at most gamma_n, so
    |rho_hat - rho| <= eps = g / (1 - g) with g = (n + 5) * 2^-24, and
    |rho_hat^2 - rho^2| <= eps * (2 + eps). 2^-22 covers the float32 square,
    the float64 floor (a few ulps, Sss being exact) and its float32 cast.
    """
    g = (n + 5) * 2.0 ** -24
    eps = g / (1.0 - g)  # n <= 128^2, so g <= 16389 * 2^-24 < 1
    return eps * (2.0 + eps) + 2.0 ** -22


def _entries(domains, aq, b_int) -> np.ndarray:
    """FBC1 entries (domain, q_alpha, q_beta) from the winners' domains,
    2 * alpha_q and beta_q."""
    return np.column_stack((domains, np.rint((aq / 2.0 + 1.0) * 7.5), b_int + 255.0))


def _search_columns(small, large, cols, row_consts, col_consts, n) -> np.ndarray:
    """Each row's best (domain, q_alpha, q_beta) over the domains `cols`,
    ties to the lowest index."""
    # sums of integer times quarter-integer products below 2^53: exact in
    # any order, so BLAS's layout of the operands cannot change the bits
    cross = small @ large[cols].T
    col_consts = tuple(c[cols] for c in col_consts)
    aq, b_int, err = _collage_errors(cross, row_consts, col_consts, n)
    best = err.argmin(axis=1)
    at = np.arange(len(small)), best
    return _entries(cols[best], aq[at], b_int[at])


def _cell_errors(small, large, rows, domains, row_consts, col_consts, n):
    """(2 * alpha_q, beta_q, err) of the listed cells, with the bits of the
    full error matrix: cell k pairs small row rows[k] with domain domains[k]."""
    cross = np.empty(len(rows))
    step = max(1, _TILE_CELLS // n)  # cells per gather, as in a tile
    for k in range(0, len(rows), step):
        cell = slice(k, k + step)
        # integer times quarter-integer products: exact in any order
        np.einsum("ij,ij->i", small[rows[cell]], large[domains[cell]], out=cross[cell])
    return _collage_errors(
        cross, tuple(c[rows] for c in row_consts),
        tuple(c[domains] for c in col_consts), n,
    )


def _search_cells(small, large, rows, domains, row_consts, col_consts, n):
    """The listed rows and each one's best (domain, q_alpha, q_beta) over its
    own cells, ties to the lowest index: cell k pairs small row rows[k]
    (ascending) with domain domains[k], and each row's domains are distinct."""
    aq, b_int, err = _cell_errors(small, large, rows, domains, row_consts, col_consts, n)
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    per_row = np.diff(first, append=len(rows))
    least = np.minimum.reduceat(err, first)
    tied = np.where(err == np.repeat(least, per_row), domains, len(large))
    best = np.minimum.reduceat(tied, first)
    win = np.flatnonzero(tied == np.repeat(best, per_row))
    return rows[first], _entries(best, aq[win], b_int[win])


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
    # identical blocks have identical error rows, so each is searched once
    first, where = np.unique(
        row_keys(pixels), return_index=True, return_inverse=True
    )[1:]
    small = pixels[first].astype(np.float64)
    large = _grid_blocks(downsample2x(img.data.astype(np.float64)), s)
    sum_s = small.sum(axis=1)
    sum_s2 = np.einsum("ij,ij->i", small, small)
    sum_l = large.sum(axis=1)
    sum_l2 = np.einsum("ij,ij->i", large, large)
    # pixels and 2x2 means are quarter-integers and n <= 128^2, so the sums,
    # sum^2 / n and each block's centered sum of squares (n * variance) are
    # exact: var_l is 0 on a flat domain, else >= 1 / (16n)
    sss = sum_s2 - sum_s * sum_s / n
    var_l = sum_l2 - sum_l * sum_l / n
    # rows of alike spread share tiles, and so do their survivors
    by_ss = np.argsort(sss, kind="stable")
    small, sum_s, sum_s2, sss = small[by_ss], sum_s[by_ss], sum_s2[by_ss], sss[by_ss]
    where = np.argsort(by_ss)[where]  # argsort inverts a permutation
    del first, by_ss
    sd_small = np.sqrt(sss)
    # domains in spread order, for the half-spread candidates
    by_sd = np.argsort(var_l, kind="stable")
    sd_large = np.sqrt(var_l[by_sd])
    # 2 * b * sum_s is an exact integer either way
    row_consts = (sum_s / n, sum_s2, 2.0 * sum_s)
    # flat domains get alpha = +-0, which quantizes like 0
    var_div = np.where(var_l > 0.0, var_l, np.inf)
    col_consts = (sum_l, sum_l / n, sum_l2, var_div)
    unit_small = _unit_rows(small, row_consts[0], sd_small)
    unit_large = _unit_rows(large[by_sd], col_consts[1][by_sd], sd_large)

    # tiles of rows, four to a group: each tile's rho band gives its rows'
    # candidates, the group's least candidate errors give each row's ub, and
    # a row's floor rules out the domains whose rho^2 falls below it, which
    # keeps the row's winner (see _ERR_SLACK). A tile whose rows keep more
    # than a quarter of their cells searches its union of kept domains with
    # one matmul; the others list each row's own, scored in batches. On the
    # machine above, listing every tile ran the dense 256 px test images
    # 2.0-4.3x slower, the union everywhere B and A 1.2-1.5x. Cut-offs of
    # 1/16 and 1/8 ran dither at s=4 1.13x and 1.07x slower, 3/8 noise at
    # s=16 2.1x, 1/2 dither at s=8 1.8x
    n_small, n_large = len(small), len(large)
    rows = min(n_small, max(1, _TILE_CELLS // max(n_large, n)))
    batch = _TILE_CELLS // n
    # every row keeps its winner; were one to keep nothing, its -1 would
    # fail FbcCode's checks rather than pass as a code
    found = np.full((n_small, 3), -1, dtype=np.int32)
    listed, cells = [], 0  # survivors of listed rows, flat in spread order

    def flush():
        nonlocal cells
        r, c = np.divmod(np.concatenate(listed), n_large)
        c = by_sd[c]  # replaces the spread-order columns: one array less
        at, best = _search_cells(small, large, r, c, row_consts, col_consts, n)
        found[at] = best
        listed.clear()
        cells = 0

    for start in range(0, n_small, 4 * rows):
        group = slice(start, min(start + 4 * rows, n_small))
        # one matmul for the group's tiles, at most 4 * _TILE_CELLS float32
        # values (2 MiB): ~5% faster at s = 4 and 8 than one per tile
        band = unit_small[group] @ unit_large.T
        tiles = [slice(t, min(t + rows, len(band))) for t in range(0, len(band), rows)]
        cand = []
        for tile in tiles:
            # the most and least correlated domain among those with at least
            # half the spread of the tile's widest row (its last), whose
            # slope seldom needs clamping. Any candidates give a ub no
            # smaller than the winner's error; these seldom give one far
            # above it
            widest = sd_small[start + tile.stop - 1]
            j0 = min(int(np.searchsorted(sd_large, 0.5 * widest)), n_large - 1)
            wide = band[tile, j0:]
            cand.append(np.stack([wide.argmax(axis=1), wide.argmin(axis=1)]) + j0)
        # each row's ub from its own two candidates, listed candidate-major
        cand_rows = np.tile(np.arange(group.start, group.stop), 2)
        cand = by_sd[np.concatenate(cand, axis=1)].ravel()
        err = _cell_errors(small, large, cand_rows, cand, row_consts, col_consts, n)[2]
        ub = err.reshape(2, -1).min(axis=0) + n * _ERR_SLACK
        # every error is at least Sss * (1 - rho^2): keep rho^2 >= floor, a
        # tile at a time while its band is in cache
        with np.errstate(divide="ignore"):
            floor = ((1.0 - ub / sss[group]) - _rho2_slack(n)).astype(np.float32)
        masks = [np.square(band[t], out=band[t]) >= floor[t, None] for t in tiles]
        del band, wide  # before the searches allocate theirs
        for tile, mask in zip(tiles, masks):
            count = np.count_nonzero(mask)  # before any index is listed
            at = slice(start + tile.start, start + tile.stop)
            if 4 * count > mask.size:
                if listed:  # rows reach the searches in spread order
                    flush()
                found[at] = _search_columns(
                    small[at], large, np.sort(by_sd[mask.any(axis=0)]),
                    tuple(c[at, None] for c in row_consts), col_consts, n,
                )
            else:
                if cells + count > batch and listed:
                    flush()
                listed.append(np.flatnonzero(mask) + at.start * n_large)
                cells += count
    if listed:
        flush()
    return FbcCode(img.depth, s, found[where])


def _block_maps(code: FbcCode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Large block index, alpha and beta of each small block, as (2, 2,
    n_large): [a, c, l] is the small block in row a, column c of the four
    on large block l's place."""
    g = 2 ** code.depth // (2 * code.small_size)
    e = code.entries.reshape(g, 2, g, 2, 3).transpose(4, 1, 3, 0, 2)
    e = e.reshape(3, 2, 2, g * g)
    return e[0].astype(np.intp), alpha_value(e[1]), e[2] - 255.0


def apply_block_transform(maps, table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One real-valued decoder pass: each small block becomes alpha * (its
    large block of `table`, the downsampled iterate) + beta, with `maps`
    from _block_maps.

    table[y, x, l] is value (y, x) of large block l, b = 1, 2, 4, ..., small
    values a side. `out` is the new iterate, b values a small block side,
    or the next table: its 2x2 means at b = small, else the iterate itself
    at twice b (the mean of four copies of x is x). The four parts, one per
    position (a, c) on a large block's place, each fill a quarter of `out`
    (512 KiB at 512 px, in cache through the map and the downsample).
    """
    index, alpha, beta = maps
    b, n_large = len(table), table.shape[2]
    g = math.isqrt(n_large)
    if out.ndim == 2:
        dst = out.reshape(g, 2, b, g, 2, b).transpose(1, 4, 2, 5, 0, 3)
    else:
        h = len(out) // 2
        dst = out.reshape(2, h, 2, h, g, g).transpose(0, 2, 1, 3, 4, 5)
    src = table.reshape(b * b, n_large)
    y = np.empty((b, b, g, g))
    flat = y.reshape(b * b, n_large)
    for a, c in np.ndindex(2, 2):
        # mode="raise" would copy through a buffer; the indices are valid
        np.take(src, index[a, c], axis=1, out=flat, mode="clip")
        flat *= alpha[a, c]
        flat += beta[a, c]
        part = dst[a, c]
        if len(part) == b:  # the iterate, or the table at twice b
            np.copyto(part, y)
            continue
        # downsample2x's order: ((top left + top right) + bottom left)
        # + bottom right, times 0.25
        np.add(y[0::2, 0::2], y[0::2, 1::2], out=part)
        part += y[1::2, 0::2]
        part += y[1::2, 1::2]
        part *= 0.25
    return out


def fbc_decode(
    code: FbcCode, params: FbcParams | None = None, init: float = 128.0
) -> PixelImage:
    """Iterate the block transform from a flat plane of value `init`, in
    real arithmetic; the output is rounded and clamped in place at the end.

    The flat start is constant on large blocks, and a pass halves the side
    of the aligned squares its input is constant on, so each pass holds one
    value per square: the first log2(small) + 1 read at most a quarter of
    the pixels. downsample2x of four equal values x is x (4x finite):
    fl(3x) + x is within half an ulp of 4x, a tie only when x's significand
    is even, so it rounds to 4x, and 0.25 * 4x is exact. So every value has
    the bits of the full-resolution loop.
    """
    if params is None:
        params = FbcParams(code.small_size)
    if params.small_size != code.small_size:
        raise ValueError(f"small size {params.small_size} does not match "
                         f"the code's {code.small_size}")
    side, s, n_large = 2 ** code.depth, code.small_size, code.n_large
    maps = _block_maps(code)
    tables = np.empty((2, side * side // 4))
    table = tables[0, :n_large].reshape(1, 1, n_large)
    table.fill(init)  # downsample2x of the flat start
    for k in range(1, params.decode_iterations):
        b = min(2 * len(table), s)
        nxt = tables[k % 2, : b * b * n_large].reshape(b, b, n_large)
        table = apply_block_transform(maps, table, nxt)
    n = side * len(table) // s  # the last iterate's values a side
    out = apply_block_transform(maps, table, np.empty((n, n)))
    np.rint(out, out=out)
    np.clip(out, 0, 255, out=out)
    pixels = out.astype(np.uint8)
    if n < side:  # an iterate still constant on r x r squares
        r = side // n
        pixels = pixels.repeat(r, axis=0).repeat(r, axis=1)
    return PixelImage(pixels)


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
