import re

import numpy as np
import pytest

from conftest import constant_image
from vvcodec.imaging import (
    FormatError,
    PixelImage,
    blocks_at_level,
    child_tiles,
    downsample2x,
    extract_block,
    load_pgm,
    place_tiles,
    save_pgm,
    split_quadrants,
)

# Unit-square quadrant maps: digit d shrinks by 1/2 and shifts by OFFSETS[d-1]
# with y measured upward. The oracle below converts them to screen cells.
OFFSETS = ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5))


def quadrant_cell(digit: int) -> tuple[int, int]:
    """(row, col) of the digit's quadrant in a 2x2 screen grid (row 0 top)."""
    ox, oy = OFFSETS[digit - 1]
    col = 0 if ox == 0.0 else 1
    row = 0 if oy == 0.5 else 1  # upper half of the unit square is row 0
    return row, col


class TestPixelImage:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            PixelImage(np.zeros((2, 4), dtype=np.uint8))

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            PixelImage(np.zeros((3, 3), dtype=np.uint8))

    def test_rejects_float_pixels(self):
        with pytest.raises(ValueError, match="^pixel values must be integers$"):
            PixelImage(np.zeros((2, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PixelImage(np.full((2, 2), 300))

    def test_depth(self):
        assert constant_image(0, depth=9).side == 512
        assert PixelImage(np.zeros((4, 4), np.uint8)).depth == 2


class TestPgm:
    def test_load_tiny(self):
        img = load_pgm(b"P5 2 2 255\n" + bytes([0, 255, 0, 255]))
        assert img.depth == 1
        assert img.data.tolist() == [[0, 255], [0, 255]]

    def test_load_512(self):
        data = b"P5 512 512 255\n" + bytes(512 * 512)
        assert load_pgm(data).depth == 9

    def test_non_power_of_two(self):
        with pytest.raises(FormatError):
            load_pgm(b"P5 3 3 255\n" + bytes(9))

    def test_save_constant(self):
        out = save_pgm(constant_image(0, depth=1))
        assert out.endswith(bytes(4))

    def test_save_512_payload(self):
        out = save_pgm(constant_image(7, depth=9))
        header_len = out.index(b"\n") + 1
        assert len(out) - header_len == 262144

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        img = PixelImage(rng.integers(0, 256, (16, 16)))
        assert np.array_equal(load_pgm(save_pgm(img)).data, img.data)

    def test_comments_accepted(self):
        data = b"P5 # format\n2 2 # size\n255\n" + bytes([1, 2, 3, 4])
        assert load_pgm(data).data.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize(
        "blob,want",
        [
            pytest.param(b"P5\n#c\n2 2 255\n" + bytes(4), 2, id="comment-after-P5"),
            pytest.param(
                b"P5#c 2 2 255\n" + bytes(4), "not a binary PGM", id="hash-in-token"
            ),
            pytest.param(b"P5 #c\r2 2 255\n" + bytes(4), 2, id="CR-ended-comment"),
            pytest.param(b"P5 2 2 #c\r\n255\r" + bytes(4), 2, id="CR-before-raster"),
            pytest.param(
                b"P5 2 2 255#c\n" + bytes(4), "bad PGM header field",
                id="comment-glued-to-maxval",
            ),
            pytest.param(b"P5 2 2 #c", "truncated PGM header", id="comment-to-EOF"),
            pytest.param(
                b"P5\x0b2\x0c2\x0b255\x0c" + bytes(4), 2, id="VT-FF-separators"
            ),
            pytest.param(
                b"P5 +512 512 255\n" + bytes(512 * 512), "bad PGM header field",
                id="plus-sign",
            ),
            pytest.param(
                b"P5 0_2 2 255\n" + bytes(4), "bad PGM header field",
                id="underscore",
            ),
            pytest.param(
                b"P5 2 2 255", "missing whitespace before PGM raster",
                id="no-byte-before-raster",
            ),
            pytest.param(b"P5 2 2 255 " + b"\n" * 4, 2, id="whitespace-raster"),
        ],
    )
    def test_header_tokens(self, blob, want):
        if isinstance(want, str):
            with pytest.raises(FormatError, match=want):
                load_pgm(blob)
        else:
            assert load_pgm(blob).side == want

    @pytest.mark.parametrize(
        "blob",
        [
            b"P6 2 2 255\n" + bytes(4),          # wrong magic
            b"P5 2 4 255\n" + bytes(8),          # non-square
            b"P5 2 2 128\n" + bytes(4),          # wrong maxval
            b"P5 2 2 255\n" + bytes(3),          # truncated raster
            b"P5 2 2 255\n" + bytes(5),          # oversized raster
            b"P5 2 2",                           # truncated header
            b"P5 x 2 255\n" + bytes(4),          # non-numeric field
        ],
    )
    def test_malformed(self, blob):
        with pytest.raises(FormatError):
            load_pgm(blob)


class TestExtractBlock:
    def test_empty_address(self):
        img = PixelImage(np.arange(16).reshape(4, 4))
        assert np.array_equal(extract_block(img, ()), img.data)

    def test_depth1_matches_unit_square_maps(self):
        # derived from the quadrant maps: a=top-left in row-major (a,b,c,d)
        img = PixelImage(np.array([[10, 20], [30, 40]]))
        for digit in (1, 2, 3, 4):
            row, col = quadrant_cell(digit)
            block = extract_block(img, (digit,))
            assert block.shape == (1, 1)
            assert block[0, 0] == img.data[row, col]

    def test_full_length_address(self):
        rng = np.random.default_rng(0)
        img = PixelImage(rng.integers(0, 256, (8, 8)))
        block = extract_block(img, (1, 1, 1))
        assert block.shape == (1, 1)

    def test_too_long(self):
        img = constant_image(0, depth=1)
        with pytest.raises(ValueError):
            extract_block(img, (1, 1))

    def test_composition_of_splits(self):
        rng = np.random.default_rng(1)
        img = PixelImage(rng.integers(0, 256, (16, 16)))
        addr = (3, 1, 4)
        block = img.data.astype(float)
        for digit in addr:
            block = split_quadrants(block)[digit - 1]
        assert np.array_equal(extract_block(img, addr), block)

    def test_level_blocks_partition(self):
        rng = np.random.default_rng(2)
        img = PixelImage(rng.integers(0, 256, (16, 16)))
        for level in (0, 1, 2):
            blocks = [
                extract_block(img, addr)
                for addr in _all_addresses(level)
            ]
            total = sum(b.sum() for b in blocks)
            count = sum(b.size for b in blocks)
            assert count == img.side ** 2
            assert total == img.data.sum()

    def test_blocks_at_level_order(self):
        rng = np.random.default_rng(4)
        img = PixelImage(rng.integers(0, 256, (16, 16)))
        for level in range(5):
            blocks = blocks_at_level(img, level)
            assert blocks.dtype == np.float64
            assert blocks.shape == (4 ** level, 4 ** (4 - level))
            for pos, addr in enumerate(_all_addresses(level)):
                assert np.array_equal(
                    blocks[pos], extract_block(img, addr).ravel()
                )


def _all_addresses(level):
    import itertools

    return list(itertools.product((1, 2, 3, 4), repeat=level))


class TestSplitTile:
    def test_constant(self):
        parts = split_quadrants(np.full((4, 4), 9.0))
        assert all(np.all(p == 9.0) for p in parts)

    def test_two_by_two_order(self):
        # same oracle as extract_block: (a,b,c,d) row-major, digit order 1..4
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        parts = split_quadrants(block)
        expected = []
        for digit in (1, 2, 3, 4):
            row, col = quadrant_cell(digit)
            expected.append(block[row, col])
        assert [p[0, 0] for p in parts] == expected == [3.0, 1.0, 4.0, 2.0]

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_batch_matches_per_block_quadrants(self, dtype):
        rng = np.random.default_rng(5)
        stack = rng.integers(0, 256, (3, 5, 8, 8)).astype(dtype)
        parts = split_quadrants(stack)
        assert parts.shape == (3, 5, 4, 4, 4) and parts.dtype == dtype
        for i, j in np.ndindex(3, 5):
            for digit in (1, 2, 3, 4):
                row, col = quadrant_cell(digit)
                want = stack[i, j, 4 * row:4 * row + 4, 4 * col:4 * col + 4]
                assert np.array_equal(parts[i, j, digit - 1], want)

    def test_split_side_one(self):
        with pytest.raises(ValueError):
            split_quadrants(np.ones((1, 1)))


class TestTiles:
    def test_child_tiles_inverts_split_quadrants(self):
        table = np.arange(10, 30, dtype=np.int32)
        tiles = child_tiles(table)
        assert tiles.shape == (6, 2, 2) and tiles.dtype == np.int32
        assert not tiles[0].any()
        assert np.array_equal(split_quadrants(tiles[1:]).reshape(-1), table)

    @pytest.mark.parametrize("h", [1, 2, 8, 16])
    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_place_batched_grid_matches_loop(self, dtype, h):
        rng = np.random.default_rng(h)
        tiles = rng.integers(0, 256, (6, h, h)).astype(dtype)
        grid = rng.integers(0, 6, (3, 4, 4)).astype(np.int32)
        got = place_tiles(grid, tiles)
        assert got.shape == (3, 4 * h, 4 * h) and got.dtype == dtype
        want = np.empty_like(got)
        for b, i, j in np.ndindex(grid.shape):
            want[b, i * h:(i + 1) * h, j * h:(j + 1) * h] = tiles[grid[b, i, j]]
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "make,message",
    [
        pytest.param(
            lambda: extract_block(constant_image(0, depth=2), (1, 5)),
            "quadrant digit 5 not in 1..4", id="extract-digit",
        ),
        pytest.param(
            lambda: split_quadrants(np.ones((2, 4))), "block must be square",
            id="split-non-square",
        ),
        pytest.param(
            lambda: split_quadrants(np.ones(4)), "block must be square",
            id="split-1d",
        ),
        pytest.param(
            lambda: downsample2x(np.ones((2, 4))), "block must be square",
            id="downsample-non-square",
        ),
        pytest.param(
            lambda: blocks_at_level(constant_image(0, depth=2), 3),
            "level 3 out of range 0..2", id="level-above-depth",
        ),
        pytest.param(
            lambda: blocks_at_level(constant_image(0, depth=2), -1),
            "level -1 out of range 0..2", id="level-negative",
        ),
    ],
)
def test_refusal(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


class TestDownsample:
    def test_constant(self):
        out = downsample2x(np.full((4, 4), 3.5))
        assert np.all(out == 3.5)

    def test_two_by_two(self):
        out = downsample2x(np.array([[0.0, 255.0], [0.0, 255.0]]))
        assert out.shape == (1, 1) and out[0, 0] == 127.5

    def test_checkerboard(self):
        board = np.zeros((4, 4))
        board[::2, 1::2] = 255.0
        board[1::2, ::2] = 255.0
        assert np.all(downsample2x(board) == 127.5)

    def test_mean_preserved(self):
        rng = np.random.default_rng(6)
        block = rng.random((16, 16)) * 255
        assert downsample2x(block).mean() == pytest.approx(
            block.mean(), abs=1e-12
        )

    def test_side_one(self):
        with pytest.raises(ValueError):
            downsample2x(np.ones((1, 1)))
