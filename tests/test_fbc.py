import tracemalloc

import numpy as np
import pytest

from conftest import spectral_field
from vvcodec import fbc
from vvcodec.bitpack import pack
from vvcodec.imaging import FormatError, PixelImage


def natural_image(seed: int, size: int) -> PixelImage:
    return PixelImage.from_real(128 + 40 * spectral_field(seed, 2.0, size))


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

    def test_search_step_matches_alpha_value_bit_for_bit(self):
        # the encoder's search multiplies by the step instead of dividing
        q = np.arange(16, dtype=np.float64)
        searched = q * fbc._ALPHA_STEP - 1.0
        expected = fbc.alpha_value(q)
        assert np.array_equal(searched.view(np.int64), expected.view(np.int64))


class TestEncode:
    def test_constant_image_entries(self):
        img = PixelImage.constant(45, depth=4)
        code = fbc.fbc_encode(img, fbc.FbcParams(4))
        assert set(code.entries[:, 1].tolist()) == {8}  # quantized zero slope
        # decode recovers the constant exactly (45 = 15 * 3)
        assert fbc.fbc_decode(code) == img

    def test_constant_within_one_gray_everywhere(self):
        # the quantizer has no zero level, so constants whose fixed point
        # lands exactly half a gray away can be off by one
        for c in (7, 22, 100, 128, 255):
            img = PixelImage.constant(c, depth=4)
            dec = fbc.fbc_decode(fbc.fbc_encode(img, fbc.FbcParams(4)))
            assert np.abs(dec.data.astype(int) - c).max() <= 1

    def test_exact_constants(self):
        for c in (0, 15, 30, 150, 255):
            img = PixelImage.constant(c, depth=4)
            assert fbc.fbc_decode(fbc.fbc_encode(img, fbc.FbcParams(4))) == img

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
    def search_in_tiles(monkeypatch, img, rows):
        n_large = (16 // 4) ** 2
        monkeypatch.setattr(fbc, "_TILE_CELLS", rows * n_large)
        code = fbc.fbc_encode(img, fbc.FbcParams(2))
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
        img = PixelImage.constant(0, depth=2)
        with pytest.raises(ValueError):
            params = fbc.FbcParams(4)
            params.check_side(img.side)
            fbc.fbc_encode(img, params)

    def test_bad_small_size(self):
        with pytest.raises(ValueError):
            fbc.FbcParams(7)
        with pytest.raises(ValueError):
            fbc.FbcParams(1)


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
        assert out0 == out255

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
        # cannot grow
        img = natural_image(31, 32)
        code = fbc.fbc_encode(img, fbc.FbcParams(4))
        code.entries[:, 1] = np.clip(code.entries[:, 1], 1, 14)
        current = np.full((32, 32), 128.0)
        diffs = []
        for _ in range(12):
            nxt = fbc.apply_block_transform(code, current)
            diffs.append(float(np.abs(nxt - current).max()))
            current = nxt
        for earlier, later in zip(diffs[1:], diffs[2:]):
            assert later <= earlier + 1e-9

    def test_decode_constant_round_trip(self):
        img = PixelImage.constant(60, depth=4)
        assert fbc.fbc_decode(fbc.fbc_encode(img, fbc.FbcParams(2))) == img

    def test_params_mismatch(self):
        img = PixelImage.constant(0, depth=3)
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


class TestSerialization:
    def _code(self):
        img = natural_image(37, 32)
        return fbc.fbc_encode(img, fbc.FbcParams(4))

    def test_round_trip(self):
        code = self._code()
        blob = fbc.serialize(code)
        assert fbc.deserialize(blob) == code
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
