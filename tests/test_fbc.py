import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from conftest import adversarial_image, constant_image, spectral_field
from vvcodec import fbc
from vvcodec.bitpack import pack
from vvcodec.imaging import FormatError, PixelImage, downsample2x


def natural_image(seed: int, size: int) -> PixelImage:
    return PixelImage.from_real(128 + 40 * spectral_field(seed, 2.0, size))


def reference_iterates(code: fbc.FbcCode, init: float):
    """The full-resolution decoder loop: each pass downsamples the whole
    iterate, cuts it into large blocks, gathers each small block's domain and
    maps it to alpha * d + beta. Yields the real-valued iterates."""
    side, s = 2 ** code.depth, code.small_size
    alpha = fbc.alpha_value(code.entries[:, 1])[:, None]
    beta = code.entries[:, 2].astype(np.float64)[:, None] - 255.0
    plane = np.full((side, side), float(init))
    while True:
        domains = fbc._grid_blocks(downsample2x(plane), s)
        blocks = alpha * domains[code.entries[:, 0]] + beta
        plane = blocks.reshape(side // s, side // s, s, s).transpose(0, 2, 1, 3)
        plane = plane.reshape(side, side)
        yield plane


def brute_force_best(img: PixelImage, s: int):
    """Independent per-pair search: least-squares fit per (SB, LB) with plain
    loops, quantized the same way the format mandates."""
    plane = img.data.astype(np.float64)
    side = img.side
    results = []
    for sr in range(side // s):
        for sc in range(side // s):
            sb = plane[sr * s:(sr + 1) * s, sc * s:(sc + 1) * s].ravel()
            best = None
            li = 0
            for lr in range(side // (2 * s)):
                for lc in range(side // (2 * s)):
                    lb = plane[
                        lr * 2 * s:(lr + 1) * 2 * s, lc * 2 * s:(lc + 1) * 2 * s
                    ]
                    low = lb.reshape(s, 2, s, 2).mean(axis=(1, 3)).ravel()
                    var = float(((low - low.mean()) ** 2).sum())
                    if var > 1e-6:
                        alpha = float(
                            ((low - low.mean()) * (sb - sb.mean())).sum() / var
                        )
                    else:
                        alpha = 0.0
                    q_alpha = int(np.rint((np.clip(alpha, -1, 1) + 1) * 7.5))
                    aq = q_alpha / 7.5 - 1.0
                    beta = float(np.clip(np.rint(sb.mean() - aq * low.mean()), -255, 255))
                    err = float(((sb - (aq * low + beta)) ** 2).sum())
                    if best is None or err < best[0]:
                        best = (err, li, q_alpha, int(beta) + 255)
                    li += 1
            results.append(best)
    return results


def search_operands(img: PixelImage, s: int):
    """The encoder's search operands over every small block, unsorted and
    not deduplicated: (small, large, row_consts, col_consts, n)."""
    n = s * s
    small = fbc._grid_blocks(img.data, s).astype(np.float64)
    large = fbc._grid_blocks(downsample2x(img.data.astype(np.float64)), s)
    sum_s, sum_l = small.sum(axis=1), large.sum(axis=1)
    sum_l2 = np.einsum("ij,ij->i", large, large)
    var_l = sum_l2 - sum_l * sum_l / n
    row_consts = (sum_s / n, np.einsum("ij,ij->i", small, small), 2.0 * sum_s)
    var_div = np.where(var_l > 0.0, var_l, np.inf)
    return small, large, row_consts, (sum_l, sum_l / n, sum_l2, var_div), n


# (image, small size), named by the image alone at s = 4. Sizes 32 to 128
# reach n = 128^2 pixels a block, the most that fbc's exactness bounds hold for
PRUNING_CASES = {
    name if s == 4 else f"{name}-{s}": (name, s)
    for s in (4, 32, 64, 128)
    for name in ("dither", "mixed", "noise", "two-level")
}


def stress_image(kind: str) -> PixelImage:
    """16x16 inputs that stress the search's bounds."""
    rng = np.random.default_rng(7)
    y, x = np.indices((16, 16))
    if kind == "duplicates":  # constant patches and repeated range blocks
        plane = natural_image(13, 16).data.astype(np.int64)
        plane[8:, :8] = 100
        plane[:4, 12:] = 7
        patch = rng.integers(0, 256, (4, 4))
        for r0, c0 in ((0, 4), (4, 12), (12, 12), (8, 8)):
            plane[r0:r0 + 4, c0:c0 + 4] = patch
    elif kind == "two_level":
        plane = (y + x) // 4 % 2 * 200
    elif kind == "dither_texture":  # low-contrast 1-bit dither beside edges
        texture = 128 + 120 * np.sign(np.sin(x * 1.7 + y * 0.9))
        plane = np.where(x < 8, texture, 128 + rng.integers(0, 2, (16, 16)))
    elif kind == "ties":  # equal errors and exact fits, err = 0 = bound
        plane = natural_image(13, 16).data.astype(np.int64)
        low = np.array([[90, 120], [60, 45]])
        domain = np.kron(low, np.ones((2, 2), dtype=np.int64))
        for r0, c0 in ((0, 4), (8, 12), (12, 8)):  # large blocks 1, 11, 14
            plane[r0:r0 + 4, c0:c0 + 4] = domain
        plane[12:14, 4:6] = low - 20  # small block 50: alpha 1, beta -20
        plane[14:16, 4:6] = 255 - low  # small block 58: alpha -1, beta 255
        plane[14:16, 0:2] = low // 5 + 60  # small block 56: alpha 1/5, beta 60
        # exact fits whose computed error is below 0: small blocks 57, 0
        # and 1, at alpha -13/15, -13/15 and 7/15
        plane[14:16, 2:4] = -13 * low // 15 + 178
        plane[0:2, 0:2] = -13 * low // 15 + 227
        plane[0:2, 2:4] = 7 * low // 15 + 173
    elif kind == "tight":  # the winner is no candidate and its bound is ub
        plane = natural_image(13, 16).data.astype(np.int64)
        low = np.array([[165, 120], [150, 60]])
        block = -13 * low // 15 + 215  # small block 63: alpha -13/15
        plane[14:16, 14:16] = block
        plane[0:4, 4:8] = np.kron(low, np.ones((2, 2), dtype=np.int64))
        # large block 4 has the same shape at half the spread (165 / 2 is
        # the mean of 82, 83, 83, 82), so it hides block 1 as a candidate
        half = np.kron(low // 2, np.ones((2, 2), dtype=np.int64))
        half[0:2, 0:2] += np.eye(2, dtype=np.int64)[::-1]
        plane[4:8, 0:4] = half
        # large block 11 fits block 63 exactly too, at alpha 1 and beta 20
        plane[8:12, 12:16] = np.kron(block - 20, np.ones((2, 2), dtype=np.int64))
    else:
        raise ValueError(kind)
    return PixelImage(plane.astype(np.uint8))


class TestQuantizer:
    def test_levels(self):
        assert fbc.quantize_alpha(np.array(-1.0)) == 0
        assert fbc.quantize_alpha(np.array(1.0)) == 15
        assert fbc.quantize_alpha(np.array(0.0)) == 8  # ties round half-even
        assert fbc.alpha_value(0) == -1.0
        assert fbc.alpha_value(15) == 1.0
        assert fbc.alpha_value(8) == pytest.approx(1 / 15)

    def test_step(self):
        levels = fbc.alpha_value(np.arange(16))
        assert np.allclose(np.diff(levels), 2 / 15)

    def test_search_dequantizes_like_alpha_value_bit_for_bit(self):
        # cells whose exact slope lies in each level's bin: at its level and
        # a third of a step to either side (clamped at -1 and 1)
        q = np.arange(16)
        cross = (q + np.array([[-1 / 3], [0.0], [1 / 3]])) / 7.5 - 1.0
        zeros = np.zeros(16)
        # mean_s = 0 and var = 1, so each cell's exact alpha is its cross
        twice_aq, _, _ = fbc._collage_errors(
            cross, (np.zeros((3, 1)),) * 3, (zeros, zeros, zeros, np.ones(16)), 4
        )
        expected = np.broadcast_to(2 * fbc.alpha_value(q), cross.shape)
        assert np.array_equal(twice_aq.view(np.int64), expected.view(np.int64))


class TestEncode:
    def test_constant_image_entries(self):
        img = constant_image(45, depth=4)
        code = fbc.fbc_encode(img, fbc.FbcParams(4))
        assert set(code.entries[:, 1].tolist()) == {8}  # quantized zero slope
        # decode recovers the constant exactly (45 = 15 * 3)
        assert np.array_equal(fbc.fbc_decode(code).data, img.data)

    def test_constant_within_one_gray_everywhere(self):
        # the quantizer has no zero level, so constants whose fixed point
        # lands exactly half a gray away can be off by one
        for c in (7, 22, 100, 128, 255):
            img = constant_image(c, depth=4)
            dec = fbc.fbc_decode(fbc.fbc_encode(img, fbc.FbcParams(4)))
            assert np.abs(dec.data.astype(int) - c).max() <= 1

    def test_exact_constants(self):
        for c in (0, 15, 30, 150, 255):
            img = constant_image(c, depth=4)
            decoded = fbc.fbc_decode(fbc.fbc_encode(img, fbc.FbcParams(4)))
            assert np.array_equal(decoded.data, img.data)

    def test_exact_half_scale_similarity_found(self):
        rng = np.random.default_rng(0)
        plane = np.full((32, 32), 100.0)
        lb = (rng.integers(0, 64, (8, 8)) * 4).astype(np.float64)
        plane[0:8, 0:8] = lb
        low = lb.reshape(4, 2, 4, 2).mean(axis=(1, 3))  # integer-valued
        plane[16:20, 16:20] = low
        img = PixelImage.from_real(plane)
        code = fbc.fbc_encode(img, fbc.FbcParams(4))
        entry = code.entries[4 * 8 + 4]  # small block grid (4, 4)
        alpha = fbc.alpha_value(int(entry[1]))
        beta = float(entry[2]) - 255
        # recompute the achieved error directly
        lr, lc = divmod(int(entry[0]), 4)
        dom = plane[lr * 8:(lr + 1) * 8, lc * 8:(lc + 1) * 8]
        dom_low = dom.reshape(4, 2, 4, 2).mean(axis=(1, 3))
        err = float(((low - (alpha * dom_low + beta)) ** 2).sum())
        assert err == 0.0

    def test_matches_brute_force_search(self):
        img = natural_image(13, 16)
        code = fbc.fbc_encode(img, fbc.FbcParams(2))
        expected = brute_force_best(img, 2)
        for entry, (err, li, qa, qb) in zip(code.entries, expected):
            assert (entry[0], entry[1], entry[2]) == (li, qa, qb)

    @staticmethod
    def force_tile_rows(monkeypatch, img, s, rows):
        # a tile has _TILE_CELLS // max(n_large, n) rows
        n_large = (img.side // (2 * s)) ** 2
        monkeypatch.setattr(fbc, "_TILE_CELLS", rows * max(n_large, s * s))

    @classmethod
    def search_in_tiles(cls, monkeypatch, img, rows, s=2):
        cls.force_tile_rows(monkeypatch, img, s, rows)
        code = fbc.fbc_encode(img, fbc.FbcParams(s))
        return [tuple(int(v) for v in entry) for entry in code.entries]

    @pytest.mark.parametrize("flat_corner", [False, True])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_matches_brute_force_across_tiles(self, monkeypatch, rows, flat_corner):
        # 3 rows do not divide the 64 small blocks; a constant corner makes
        # four flat domain blocks (alpha 0) in every tile, the partial one too
        img = natural_image(13, 16)
        if flat_corner:
            plane = img.data.copy()
            plane[:8, :8] = 100
            img = PixelImage(plane)
        got = self.search_in_tiles(monkeypatch, img, rows)
        expected = brute_force_best(img, 2)
        assert got == [(li, qa, qb) for _, li, qa, qb in expected]

    @pytest.mark.parametrize(
        "kind", ["duplicates", "two_level", "dither_texture", "ties", "tight"]
    )
    @pytest.mark.parametrize("rows", [1, 3])
    def test_bound_stressing_images_match_brute_force(self, monkeypatch, rows, kind):
        img = stress_image(kind)
        got = self.search_in_tiles(monkeypatch, img, rows)
        expected = brute_force_best(img, 2)
        assert got == [(li, qa, qb) for _, li, qa, qb in expected]
        if kind == "ties":
            # three equal large blocks fit exactly; the lowest index wins
            assert got[50] == (1, 15, 235)
            assert got[58] == (1, 0, 510)
            assert got[56] == (1, 9, 315)
            assert got[57] == (1, 1, 433)
            assert got[:2] == [(1, 1, 482), (1, 11, 428)]
        if kind == "tight":
            assert got[63] == (1, 1, 470)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_blocks_with_more_pixels_than_domains_match_brute_force(
        self, monkeypatch, rows
    ):
        # s=8 on 32 px: n = 64 pixels per block against n_large = 4 domains,
        # so n, not n_large, sets the rows of a tile
        img = natural_image(13, 32)
        got = self.search_in_tiles(monkeypatch, img, rows, s=8)
        expected = brute_force_best(img, 8)
        assert got == [(li, qa, qb) for _, li, qa, qb in expected]

    @pytest.mark.parametrize("s", [4, 8])
    @pytest.mark.parametrize("name", ["dither", "mixed", "noise"])
    def test_large_images_encode_alike_in_small_tiles(self, monkeypatch, name, s):
        # hundreds of 3-row tiles, each with its own candidates and floor
        img = adversarial_image(name, 256)
        params = fbc.FbcParams(s)
        default = fbc.serialize(fbc.fbc_encode(img, params))
        self.force_tile_rows(monkeypatch, img, s, 3)
        assert fbc.serialize(fbc.fbc_encode(img, params)) == default

    @pytest.mark.parametrize("name, s", PRUNING_CASES.values(), ids=PRUNING_CASES)
    def test_pruning_never_changes_the_answer(self, monkeypatch, name, s):
        # an infinite margin makes every ub infinite and every floor -inf,
        # so every tile searches every domain
        img = adversarial_image(name, 256)
        params = fbc.FbcParams(s)
        default = fbc.serialize(fbc.fbc_encode(img, params))
        monkeypatch.setattr(fbc, "_ERR_SLACK", np.inf)
        assert fbc.serialize(fbc.fbc_encode(img, params)) == default

    @pytest.mark.parametrize("name, s", [("two-level", 4), ("mixed", 2), ("mixed", 4)])
    def test_search_takes_each_distinct_block_once_in_spread_order(
        self, monkeypatch, name, s
    ):
        # few distinct blocks, or many of them beside 16 repeated patterns;
        # two-level takes only the union search, mixed both: one union tile
        # beside 63 listed batches at s=2, 17 beside 2 at s=4
        img = adversarial_image(name, 256)
        searched = []
        search_columns, search_cells = fbc._search_columns, fbc._search_cells

        def spy_columns(small, *args):
            searched.append(small.copy())
            return search_columns(small, *args)

        def spy_cells(small, large, rows, *args):
            searched.append(small[np.unique(rows)])
            return search_cells(small, large, rows, *args)

        monkeypatch.setattr(fbc, "_search_columns", spy_columns)
        monkeypatch.setattr(fbc, "_search_cells", spy_cells)
        fbc.fbc_encode(img, fbc.FbcParams(s))
        rows = np.concatenate(searched)
        distinct = np.unique(fbc._grid_blocks(img.data, s), axis=0)
        assert len(rows) == len(np.unique(rows, axis=0)) == len(distinct)
        # quarter-integer centering and integer squares: Sss is exact
        centered = rows - rows.mean(axis=1, keepdims=True)
        sss = np.einsum("ij,ij->i", centered, centered)
        assert np.all(np.diff(sss) >= 0.0)

    @pytest.mark.parametrize("kind", ["ties", "tight", "flat_corner"])
    def test_listed_cells_score_like_the_union_search(self, kind):
        # every row gets its own domains: row 0 all of them, highest index
        # first, row 1 one, the others a shuffled random subset; each row is
        # also searched alone over the same domains in index order
        if kind == "flat_corner":  # four flat domains, var_div = inf
            plane = natural_image(13, 16).data.copy()
            plane[:8, :8] = 100
            img = PixelImage(plane)
        else:
            img = stress_image(kind)
        small, large, row_consts, col_consts, n = search_operands(img, 2)
        rng = np.random.default_rng(3)
        rows, domains, want = [], [], []
        for row in range(len(small)):
            size = {0: len(large), 1: 1}.get(row, int(rng.integers(1, len(large) + 1)))
            cols = rng.permutation(len(large))[:size] if row else np.arange(size)[::-1]
            rows.append(np.full(size, row))
            domains.append(cols)
            want.append(fbc._search_columns(
                small[row:row + 1], large, np.sort(cols),
                tuple(c[row:row + 1, None] for c in row_consts), col_consts, n,
            ))
        at, got = fbc._search_cells(
            small, large, np.concatenate(rows), np.concatenate(domains),
            row_consts, col_consts, n,
        )
        assert np.array_equal(at, np.arange(len(small)))
        assert np.array_equal(got, np.concatenate(want))
        if kind == "ties":
            # three equal large blocks fit row 0 (small block 0) exactly;
            # the lowest index wins, listed in any order
            assert tuple(got[0]) == (1, 1, 482)

    def test_a_row_left_unsearched_fails_the_code_checks(self, monkeypatch):
        # every row keeps its winner; were one to be left out of the
        # searches, the encode must raise, not emit an unset entry
        search_cells = fbc._search_cells

        def drop_first_row(*args):
            at, best = search_cells(*args)
            return at[1:], best[1:]

        monkeypatch.setattr(fbc, "_search_cells", drop_first_row)
        with pytest.raises(FormatError, match="large block index"):
            fbc.fbc_encode(natural_image(5, 64), fbc.FbcParams(2))

    def test_search_scratch_memory_is_bounded(self):
        # 4096 x 1024 (small, large) pairs: 32 MiB per full error matrix
        img = natural_image(41, 128)
        tracemalloc.start()
        try:
            fbc.fbc_encode(img, fbc.FbcParams(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_geometry_mismatch(self):
        img = constant_image(0, depth=2)
        with pytest.raises(ValueError):
            params = fbc.FbcParams(4)
            params.check_side(img.side)
            fbc.fbc_encode(img, params)

    def test_side_beyond_the_codec_range_refused(self):
        params = fbc.FbcParams(128)
        params.check_side(4096)
        with pytest.raises(ValueError, match="exceeds 4096"):
            params.check_side(8192)

    def test_bad_small_size(self):
        with pytest.raises(ValueError):
            fbc.FbcParams(7)
        with pytest.raises(ValueError):
            fbc.FbcParams(1)
        # FBC1 stores the size in one byte
        with pytest.raises(ValueError, match="exceeds 128"):
            fbc.FbcParams(256)


class TestDecode:
    def test_near_zero_alpha_code_ignores_init(self):
        # all-alpha = 1/15 (the quantization of zero): ten passes shrink any
        # init difference by 15**-10, so the outputs coincide exactly
        depth, s = 4, 4
        n_small = (2 ** depth // s) ** 2
        rng = np.random.default_rng(17)
        entries = np.zeros((n_small, 3), dtype=np.int32)
        entries[:, 0] = rng.integers(0, (2 ** depth // (2 * s)) ** 2, n_small)
        entries[:, 1] = 8
        entries[:, 2] = rng.integers(0, 511, n_small)
        code = fbc.FbcCode(depth, s, entries)
        out0 = fbc.fbc_decode(code, init=0.0)
        out255 = fbc.fbc_decode(code, init=255.0)
        assert np.array_equal(out0.data, out255.data)

    def test_near_zero_alpha_uniform_beta_fixed_point(self):
        # with one shared beta the fixed point is flat: x = x/15 + beta
        depth, s = 4, 4
        n_small = (2 ** depth // s) ** 2
        beta = 100
        entries = np.zeros((n_small, 3), dtype=np.int32)
        entries[:, 1] = 8
        entries[:, 2] = beta + 255
        code = fbc.FbcCode(depth, s, entries)
        want = int(np.clip(np.rint(beta * 15 / 14), 0, 255))
        for init in (0.0, 255.0, 128.0):
            out = fbc.fbc_decode(code, init=init)
            assert np.all(out.data == want)

    def test_init_independence_within_one_gray(self):
        img = natural_image(29, 64)
        for s in (4, 8):
            code = fbc.fbc_encode(img, fbc.FbcParams(s))
            d0 = fbc.fbc_decode(code, init=0.0)
            d255 = fbc.fbc_decode(code, init=255.0)
            gap = np.abs(d0.data.astype(int) - d255.data.astype(int)).max()
            assert gap <= 1

    def test_successive_iterates_contract(self):
        # with every |alpha| <= 15/16 the sup-norm of successive differences
        # cannot grow. The pass function runs from the flat plane's table,
        # as the decoder does, so the first passes are the coarse ones; each
        # step writes the real-valued iterate at its resolution, compared at
        # full resolution, and the next table
        img = natural_image(31, 32)
        code = fbc.fbc_encode(img, fbc.FbcParams(4))
        code.entries[:, 1] = np.clip(code.entries[:, 1], 1, 14)
        maps = fbc._block_maps(code)
        table = np.full((1, 1, code.n_large), 128.0)
        current = np.full((32, 32), 128.0)
        diffs = []
        for want in itertools.islice(reference_iterates(code, 128.0), 12):
            n = 32 * len(table) // 4  # the iterate's values a side
            nxt = fbc.apply_block_transform(maps, table, np.empty((n, n)))
            nxt = nxt.repeat(32 // n, axis=0).repeat(32 // n, axis=1)
            assert np.array_equal(nxt, want)
            diffs.append(float(np.abs(nxt - current).max()))
            current = nxt
            b = min(2 * len(table), 4)
            table = fbc.apply_block_transform(
                maps, table, np.empty((b, b, code.n_large))
            )
        for earlier, later in zip(diffs[1:], diffs[2:]):
            assert later <= earlier + 1e-9

    def test_mean_of_four_equal_values_is_exact(self):
        # the coarse passes copy each value where the full-resolution loop
        # takes downsample2x of four equal ones: random bits below 2^62 are
        # finite doubles under 2, subnormals included
        rng = np.random.default_rng(5)
        plane = rng.integers(0, 2 ** 62, (128, 128)).view(np.float64)
        plane[::2] *= -1.0
        full = plane.repeat(2, axis=0).repeat(2, axis=1)
        assert np.array_equal(downsample2x(full), plane)

    @pytest.mark.parametrize("kind", ["natural", "constant", "two-level", "dither"])
    @pytest.mark.parametrize("s", [2, 4, 8, 16, 32])
    def test_matches_the_full_resolution_loop(self, kind, s):
        # every iteration count up to two past the last coarse pass (the
        # first log2(s) + 1 read a coarse iterate), and the default 10
        img = {
            "natural": natural_image(37, 128),
            "constant": constant_image(93, depth=7),
            "two-level": adversarial_image("two-level", 128),
            "dither": adversarial_image("dither", 128),
        }[kind]
        self.assert_matches_reference(fbc.fbc_encode(img, fbc.FbcParams(s)))

    def test_largest_blocks_match_the_full_resolution_loop(self):
        # s = 128 on a 256 px image: one large block, eight coarse passes
        code = fbc.fbc_encode(natural_image(41, 256), fbc.FbcParams(128))
        self.assert_matches_reference(code)

    @staticmethod
    def assert_matches_reference(code):
        s = code.small_size
        last = max(s.bit_length() + 2, 10)  # log2(2s) + 2 = bit_length + 2
        for init in (0.0, 128.0, 255.0, 17.3):
            planes = reference_iterates(code, init)
            for iterations, plane in zip(range(1, last + 1), planes):
                got = fbc.fbc_decode(code, fbc.FbcParams(s, iterations), init)
                want = PixelImage.from_real(plane)
                assert np.array_equal(got.data, want.data), (iterations, init)

    @pytest.mark.parametrize("iterations", [1, 2, 3, 10, 13])
    def test_one_pass_function_call_per_iteration(self, monkeypatch, iterations):
        # perfbench counts and times decoder passes by wrapping this function
        calls = []
        real = fbc.apply_block_transform

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fbc, "apply_block_transform", spy)
        code = fbc.fbc_encode(natural_image(43, 64), fbc.FbcParams(4))
        fbc.fbc_decode(code, fbc.FbcParams(4, iterations))
        assert len(calls) == iterations

    def test_decode_constant_round_trip(self):
        img = constant_image(60, depth=4)
        decoded = fbc.fbc_decode(fbc.fbc_encode(img, fbc.FbcParams(2)))
        assert np.array_equal(decoded.data, img.data)

    def test_params_mismatch(self):
        img = constant_image(0, depth=3)
        code = fbc.fbc_encode(img, fbc.FbcParams(2))
        with pytest.raises(ValueError):
            fbc.fbc_decode(code, fbc.FbcParams(4))


class TestPayloadBits:
    def test_published_sizes(self):
        e16 = fbc.FbcCode(9, 16, np.zeros((1024, 3), np.int32))
        e8 = fbc.FbcCode(9, 8, np.zeros((4096, 3), np.int32))
        assert fbc.fbc_payload_bits(e16) == 2688 * 8
        assert fbc.fbc_payload_bits(e8) == 11776 * 8

    def test_single_large_block(self):
        # side = 2s: one large block, so the index costs zero bits
        code = fbc.FbcCode(2, 2, np.zeros((4, 3), np.int32))
        assert code.n_large == 1
        assert fbc.fbc_payload_bits(code) == 4 * (4 + 9 + 0)

    @pytest.mark.parametrize("side,s", [(4, 2), (16, 2), (16, 4), (64, 16), (128, 8)])
    def test_bits_agree_with_the_stream(self, side, s):
        img = PixelImage(np.random.default_rng(side + s).integers(0, 256, (side, side)))
        code = fbc.fbc_encode(img, fbc.FbcParams(s))
        payload = len(fbc.serialize(code)) - fbc.HEADER_BYTES
        assert (fbc.fbc_payload_bits(code) + 7) // 8 == payload


class TestSerialization:
    def _code(self):
        img = natural_image(37, 32)
        return fbc.fbc_encode(img, fbc.FbcParams(4))

    def test_round_trip(self):
        code = self._code()
        blob = fbc.serialize(code)
        assert fbc.serialize(fbc.deserialize(blob)) == blob
        assert len(blob) == 7 + (fbc.fbc_payload_bits(code) + 7) // 8

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            fbc.deserialize(b"NOPE" + bytes(10))

    def test_bad_version(self):
        blob = bytearray(fbc.serialize(self._code()))
        blob[4] = 9
        with pytest.raises(FormatError):
            fbc.deserialize(bytes(blob))

    def test_truncated(self):
        blob = fbc.serialize(self._code())
        with pytest.raises(FormatError):
            fbc.deserialize(blob[:-1])

    def test_invalid_beta_rejected(self):
        # craft a stream whose beta fields are 511; a 4x4 image at s=2 has
        # a single large block, so the index field takes zero bits
        header = fbc.MAGIC + bytes([fbc.VERSION, 2, 2])
        fields = np.tile([0, 0, 511], (4, 1))
        payload = pack(fields, [0, fbc.ALPHA_BITS, fbc.BETA_BITS])
        with pytest.raises(FormatError):
            fbc.deserialize(header + payload)

    def test_depth_beyond_the_codec_range_refused(self):
        # depth 13 at s=128: 4096 entries of 10 + 4 + 9 bits, 11783 bytes
        # in all, whose decode would need 8192 x 8192 float64 planes
        blob = fbc.MAGIC + bytes([fbc.VERSION, 13, 128]) + bytes(4096 * 23 // 8)
        assert len(blob) == 11783
        with pytest.raises(FormatError, match="exceeds 4096"):
            fbc.deserialize(blob)
        # depth 12 is the deepest accepted: 1024 entries of 8 + 4 + 9 bits
        deepest = fbc.MAGIC + bytes([fbc.VERSION, 12, 128]) + bytes(1024 * 21 // 8)
        assert fbc.deserialize(deepest).depth == 12


def depth3_entries(column=None, value=None):
    """Entries of a depth-3 code at s=2 (16 small blocks, 4 large blocks),
    all zero but one field of entry 5."""
    entries = np.zeros((16, 3), np.int32)
    if column is not None:
        entries[5, column] = value
    return entries


class TestInvalidCodeCannotBeMade:
    """An FbcCode checks itself when made, so no invalid code exists."""

    @pytest.mark.parametrize(
        "entries,message",
        [
            (np.zeros((15, 3), np.int32), "expected 16 entries of 3 fields, got (15, 3)"),
            (depth3_entries(0, 4), "large block index out of range"),
            (depth3_entries(1, 16), "quantized alpha out of range 0..15"),
            (depth3_entries(2, 511), "quantized beta out of range 0..510"),
            (depth3_entries().astype(np.float64), "entries must be integers"),
            (depth3_entries().astype(np.float64) + 0.25, "entries must be integers"),
        ],
    )
    def test_invalid_entries_raise(self, entries, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            fbc.FbcCode(3, 2, entries)

    def test_undivided_side_raises(self):
        # side 16 at s=16: the 32-pixel large blocks do not fit
        message = "block sizes 16/32 do not divide image side 16"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fbc.FbcCode(4, 16, np.zeros((1, 3), np.int32))

    @pytest.mark.parametrize("name", ["depth", "small_size", "entries"])
    def test_fields_cannot_be_reassigned(self, name):
        code = fbc.FbcCode(3, 2, depth3_entries())
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(code, name, getattr(code, name))
