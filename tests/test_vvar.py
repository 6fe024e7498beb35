import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DEMO_ADDRESS,
    constant_image,
    distinct_block_count,
    random_vvar_code,
)
from vvcodec import metrics, vvar
from vvcodec.clustering import ClusterOptions, canonicalize_labels, kmeans
from vvcodec.imaging import FormatError, PixelImage, blocks_at_level, split_quadrants


def all_addresses(depth):
    return itertools.product((1, 2, 3, 4), repeat=depth)


def assert_decode_matches_walker(rng, v, depth, samples):
    """decode() against pixel_value() on random full-length addresses."""
    code = random_vvar_code(rng, v=v, depth=depth)
    img = vvar.decode(code)
    assert img.data.dtype == np.uint8 and img.side == 2 ** depth
    for addr in rng.integers(1, 5, size=(samples, depth)):
        row = col = 0
        for d in addr:
            row = 2 * row + (1, 0, 1, 0)[d - 1]
            col = 2 * col + (0, 0, 1, 1)[d - 1]
        addr = tuple(int(d) for d in addr)
        assert vvar.pixel_value(code, addr) == img.data[row, col]


class TestComputeN0:
    @pytest.mark.parametrize("v,n0", [(1, 0), (4, 1), (5, 1), (15, 1), (16, 2), (256, 4), (1023, 4), (1024, 5)])
    def test_values(self, v, n0):
        assert vvar.compute_n0(v, depth=9) == n0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            vvar.compute_n0(0, depth=9)
        with pytest.raises(ValueError):
            vvar.compute_n0(4 ** 8, depth=9)
        with pytest.raises(ValueError):
            vvar.compute_n0(4, depth=1)


class TestEncodeDecode:
    def test_constant_round_trip(self):
        img = constant_image(77, depth=4)
        for v in (1, 2, 4, 9):
            code = vvar.encode(img, v, restarts=1)
            assert np.array_equal(vvar.decode(code).data, img.data)

    def test_v1_decodes_to_rounded_mean(self):
        rng = np.random.default_rng(1)
        img = PixelImage(rng.integers(0, 256, (32, 32)))
        code = vvar.encode(img, 1, restarts=1)
        decoded = vvar.decode(code)
        value = int(np.rint(img.data.mean()))
        assert np.all(decoded.data == value)

    def test_demo_image_lossless_with_distinct_init(self, demo_code, demo_image):
        code = vvar.encode(demo_image, 4, restarts=1, init="distinct")
        assert metrics.mse(demo_image, vvar.decode(code)) == 0.0

    def test_unknown_init(self):
        with pytest.raises(ValueError, match="^unknown init mode 'bogus'$"):
            vvar.encode(constant_image(0, depth=3), 2, init="bogus")

    def test_encode_deterministic(self):
        rng = np.random.default_rng(2)
        img = PixelImage(rng.integers(0, 256, (32, 32)))
        a = vvar.encode(img, 6, seed=3)
        b = vvar.encode(img, 6, seed=3)
        assert a == b

    @settings(settings.get_profile("fuzz"), max_examples=60)
    @given(st.integers(3, 5), st.data())
    def test_v_variability_of_random_encodes(self, depth, data):
        # few gray levels give duplicate blocks, so clusters can start empty
        v = data.draw(st.integers(1, 4 ** (depth - 1) - 1), label="v")
        levels = data.draw(st.sampled_from([2, 3, 256]), label="gray levels")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        img = PixelImage(rng.integers(0, levels, (2 ** depth, 2 ** depth)))
        decoded = vvar.decode(vvar.encode(img, v, seed=seed, restarts=1))
        for level in range(img.depth + 1):
            assert distinct_block_count(decoded, level) <= v

    def test_monotone_capacity_under_seeded_init(self):
        # SSE with V clusters <= SSE with V-1 when the V-run starts from the
        # (V-1)-run's centroids plus the worst-fit point
        rng = np.random.default_rng(4)
        img = PixelImage(rng.integers(0, 256, (32, 32)))
        points = blocks_at_level(img, 2)
        v = 7
        small = kmeans(points, ClusterOptions(k=v - 1, seed=0, restarts=3))
        dists = ((points - small.centroids[small.labels - 1]) ** 2).sum(axis=1)
        extra = points[int(np.argmax(dists))]
        seeded = kmeans(
            points,
            ClusterOptions(k=v),
            initial_centroids=np.vstack([small.centroids, extra]),
        )
        assert seeded.sse <= small.sse * (1 + 1e-12) + 1e-9


class TestLeafLevel:
    @pytest.fixture
    def recorded(self, monkeypatch):
        """Point dims of every kmeans call and the last canonical result."""
        calls = {"dims": [], "last": None}

        def counting_kmeans(points, opts, **kwargs):
            calls["dims"].append(points.shape[1])
            return kmeans(points, opts, **kwargs)

        def keeping_canonicalize(result):
            calls["last"] = canonicalize_labels(result)
            return calls["last"]

        monkeypatch.setattr(vvar, "kmeans", counting_kmeans)
        monkeypatch.setattr(vvar, "canonicalize_labels", keeping_canonicalize)
        return calls

    @pytest.fixture
    def image(self):
        rng = np.random.default_rng(15)
        return PixelImage(rng.integers(0, 256, (64, 64)))

    def test_v256_rounds_leaf_children(self, recorded, image):
        code = vvar.encode(image, 256, restarts=1)
        assert recorded["dims"] == [4]  # level 5 only, no leaf kmeans call
        reps = recorded["last"].centroids.reshape(256, 2, 2)
        children = split_quadrants(reps).ravel()  # row-major = slot order
        want = np.clip(np.rint(children), 0, 255).astype(np.uint8)
        assert np.array_equal(code.leaf_values, want)

    def test_v255_clusters_leaf(self, recorded, image):
        code = vvar.encode(image, 255, restarts=1)
        assert recorded["dims"] == [16, 4, 1]  # levels 4 and 5, then the leaf
        assert len(np.unique(code.leaf_values)) <= 255


class TestDemoMatrix:
    def test_walkthrough_pixel(self, demo_code):
        assert vvar.pixel_value(demo_code, DEMO_ADDRESS) == 138

    def test_all_ones_address(self, demo_code):
        assert vvar.pixel_value(demo_code, (1,) * 9) == 33

    def test_decode_agrees_with_trace_on_random_addresses(
        self, demo_code, demo_image
    ):
        rng = np.random.default_rng(5)
        addrs = rng.integers(1, 5, size=(1000, 9))
        for addr in addrs:
            addr = tuple(int(d) for d in addr)
            row = col = 0
            for d in addr:
                row = 2 * row + (1, 0, 1, 0)[d - 1]
                col = 2 * col + (0, 0, 1, 1)[d - 1]
            assert vvar.pixel_value(demo_code, addr) == demo_image.data[row, col]

    def test_leaf_level_values(self, demo_image):
        assert distinct_block_count(demo_image, 9) == 4
        assert set(np.unique(demo_image.data).tolist()) == {33, 37, 138, 171}

    def test_distinct_blocks_bounded(self, demo_image):
        for level in range(10):
            bound = min(4 ** level, 4)
            assert distinct_block_count(demo_image, level) <= bound


class TestPixelValue:
    def test_constant_code(self):
        code = vvar.encode(constant_image(200, depth=3), 1, restarts=1)
        for addr in all_addresses(3):
            assert vvar.pixel_value(code, addr) == 200

    def test_wrong_length(self, demo_code):
        with pytest.raises(ValueError):
            vvar.pixel_value(demo_code, (1, 2, 3))

    @pytest.mark.parametrize(
        "addr,digit", [((0,) + (1,) * 8, 0), ((1,) * 8 + (5,), 5)]
    )
    def test_bad_digit(self, demo_code, addr, digit):
        with pytest.raises(ValueError, match=f"^quadrant digit {digit} not in 1..4$"):
            vvar.pixel_value(demo_code, addr)

    def test_matches_decode_exhaustively_small_depth(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            code = random_vvar_code(rng, v=int(rng.integers(1, 30)))
            if code.depth > 5:
                continue
            img = vvar.decode(code)
            for addr in all_addresses(code.depth):
                row = col = 0
                for d in addr:
                    row = 2 * row + (1, 0, 1, 0)[d - 1]
                    col = 2 * col + (0, 0, 1, 1)[d - 1]
                assert vvar.pixel_value(code, addr) == img.data[row, col]

    @pytest.mark.parametrize("v", [4, 64, 1024])
    def test_matches_decode_at_depth_9(self, v):
        # decode's expansion against the independent walker at full depth
        assert_decode_matches_walker(np.random.default_rng(v), v, 9, 500)

    @pytest.mark.parametrize("depth", [10, 11, 12])
    @pytest.mark.parametrize("v", [1, 3, 255, 256, 1023, 1024, 4095])
    def test_matches_decode_deep(self, v, depth):
        # 3, 255, 1023 and 4095 fold one level fewer than a power of 4 does
        assert_decode_matches_walker(np.random.default_rng([v, depth]), v, depth, 200)


class TestDecode:
    @pytest.mark.parametrize("v", [1, 1023])
    def test_memory_is_bounded(self, v):
        code = random_vvar_code(np.random.default_rng(v), v=v, depth=11)
        tracemalloc.start()
        try:
            img = vvar.decode(code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * img.data.nbytes


class TestPayloadSize:
    @pytest.mark.parametrize(
        "v,want",
        [(1, 1), (4, 44), (16, 256), (64, 1216), (256, 5120), (1024, 19456)],
    )
    def test_published_sizes(self, v, want):
        assert vvar.payload_size(v, depth=9) == want

    def test_non_power_of_four(self):
        # v=5: n0=1, 16 + 20*(d-3) labels at 3 bits, plus 20 leaf bytes
        labels = 16 + 20 * 4
        assert vvar.payload_size(5, depth=7) == (labels * 3 + 7) // 8 + 20

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            vvar.payload_size(0, depth=9)
        with pytest.raises(ValueError):
            vvar.payload_size(4 ** 8, depth=9)


class TestSerialization:
    def test_header_plus_payload_length(self):
        rng = np.random.default_rng(7)
        code = random_vvar_code(rng, v=1024)
        blob = vvar.serialize(code)
        assert len(blob) == 10 + vvar.payload_size(1024, code.depth)

    @staticmethod
    def _v1_code(depth, leaves=(138,) * 4, first=(1,) * 4):
        return vvar.VVarCode(
            depth=depth,
            v=1,
            first_labels=np.array(first, np.int32),
            level_labels=[np.ones(4, np.int32) for _ in range(depth - 2)],
            leaf_values=np.array(leaves, np.uint8),
        )

    def test_v1_single_byte(self):
        code = self._v1_code(9)
        blob = vvar.serialize(code)
        assert len(blob) == 11
        assert blob[10] == 0x8A
        assert vvar.deserialize(blob) == code

    def test_v1_unequal_leaves_refused(self):
        # the one stored leaf byte would silently drop the other three
        with pytest.raises(FormatError, match="single leaf value"):
            vvar.serialize(self._v1_code(9, leaves=(138, 138, 138, 139)))

    def test_v1_label_2_refused(self):
        with pytest.raises(FormatError, match="label 2 out of range 1..1"):
            vvar.serialize(self._v1_code(9, first=(1, 2, 1, 1)))

    @pytest.mark.parametrize("depth", [vvar.MIN_DEPTH, vvar.MAX_DEPTH])
    def test_v1_round_trip_at_the_depth_limits(self, depth):
        code = self._v1_code(depth)
        blob = vvar.serialize(code)
        assert vvar.payload_size(1, depth) == 1
        assert blob == vvar.MAGIC + bytes([1, depth, 0, 0, 0, 1, 138])
        assert vvar.deserialize(blob) == code

    def test_round_trip_random_codes(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            code = random_vvar_code(rng)
            blob = vvar.serialize(code)
            assert vvar.deserialize(blob) == code
            assert len(blob) - 10 == vvar.payload_size(code.v, code.depth)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            vvar.deserialize(b"XXXX" + bytes(20))

    def test_bad_version(self):
        blob = bytearray(vvar.serialize(random_vvar_code(np.random.default_rng(9))))
        blob[4] = 2
        with pytest.raises(FormatError):
            vvar.deserialize(bytes(blob))

    def test_truncated(self):
        blob = vvar.serialize(random_vvar_code(np.random.default_rng(10)))
        with pytest.raises(FormatError):
            vvar.deserialize(blob[:-1])

    def test_label_out_of_range_detected(self):
        # v=3 packs labels in 2 bits; the raw value 3 would mean label 4
        code = vvar.VVarCode(
            depth=2,
            v=3,
            first_labels=np.array([1, 2, 3, 1], np.int32),
            level_labels=[],
            leaf_values=np.arange(12, dtype=np.uint8),
        )
        blob = bytearray(vvar.serialize(code))
        blob[10] |= 0xC0  # force the first packed label to raw value 3
        with pytest.raises(FormatError):
            vvar.deserialize(bytes(blob))

    def test_nonzero_padding_detected(self):
        code = vvar.VVarCode(
            depth=2,
            v=2,
            first_labels=np.array([1, 2, 2, 1], np.int32),
            level_labels=[],
            leaf_values=np.arange(8, dtype=np.uint8),
        )
        blob = bytearray(vvar.serialize(code))
        blob[10] |= 0x0F  # four labels occupy the top nibble; pad must be 0
        with pytest.raises(FormatError):
            vvar.deserialize(bytes(blob))


class TestDistinctBlockCount:
    """conftest's count, which the V-variability checks rely on."""

    def test_constant(self):
        img = constant_image(5, depth=4)
        for level in range(5):
            assert distinct_block_count(img, level) == 1

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            distinct_block_count(constant_image(0, depth=2), 3)
        with pytest.raises(ValueError):
            distinct_block_count(constant_image(0, depth=2), -1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_float_row_reference(self, seed):
        # the float-row expression distinct_block_count used to be
        rng = np.random.default_rng(seed)
        images = [
            PixelImage(rng.integers(0, 2, (16, 16))),
            PixelImage(rng.integers(0, 256, (8, 8))),
            vvar.decode(random_vvar_code(rng, v=5, depth=4)),
        ]
        for img in images:
            for level in range(img.depth + 1):
                reference = len(np.unique(blocks_at_level(img, level), axis=0))
                assert distinct_block_count(img, level) == reference


class TestDistinctRows:
    def test_first_rows_in_input_order_cycled(self):
        points = np.array([[3, 4], [1, 2], [3, 4], [5, 6], [1, 2]], dtype=float)
        assert vvar._distinct_rows(points, 2).tolist() == [[3, 4], [1, 2]]
        assert vvar._distinct_rows(points, 5).tolist() == [
            [3, 4], [1, 2], [5, 6], [3, 4], [1, 2]
        ]


class TestCodeFromMatrix:
    def test_rejects_non_power_of_four(self):
        with pytest.raises(ValueError):
            vvar.code_from_matrix(np.ones((8, 3), dtype=np.int64))

    def test_rejects_bad_labels(self):
        bad = np.ones((4, 3), dtype=np.int64)
        bad[0, 0] = 2  # v=1 admits only label 1
        with pytest.raises(ValueError, match="^label 2 out of range 1..1$") as info:
            vvar.code_from_matrix(bad)
        assert type(info.value) is ValueError  # a matrix is not a stream

    def test_single_type_matrix(self):
        matrix = np.ones((4, 4), dtype=np.int64)
        matrix[:, -1] = 99
        code = vvar.code_from_matrix(matrix)
        assert code.depth == 4 and code.v == 1
        assert np.array_equal(vvar.decode(code).data, constant_image(99, depth=4).data)


class TestInvalidCodeCannotBeMade:
    """A VVarCode checks itself when made, so no invalid code exists."""

    @staticmethod
    def _fields(**changes):
        # a valid V=3 depth-3 code: four first labels, one mid table of 4V
        fields = dict(
            depth=3,
            v=3,
            first_labels=np.array([1, 2, 3, 1], np.int32),
            level_labels=[np.tile(np.array([1, 2, 3], np.int32), 4)],
            leaf_values=np.arange(12, dtype=np.uint8),
        )
        fields.update(changes)
        return fields

    @pytest.mark.parametrize(
        "changes,message",
        [
            (dict(first_labels=np.ones(5, np.int32)),
             "first_labels must have length 4, got (5,)"),
            (dict(level_labels=[]), "expected 1 mid-level tables, got 0"),
            (dict(level_labels=[np.ones(11, np.int32)]),
             "mid-level label tables must have length 4V"),
            (dict(first_labels=np.array([1, 0, 1, 1], np.int32)),
             "label 0 out of range 1..3"),
            (dict(level_labels=[np.full(12, 4, np.int32)]),
             "label 4 out of range 1..3"),
            (dict(leaf_values=np.arange(13, dtype=np.uint8)),
             "leaf_values must have length 12"),
            (dict(leaf_values=np.arange(245, 257)),
             "leaf values must lie in 0..255"),
            (dict(v=1, first_labels=np.ones(4, np.int32),
                  level_labels=[np.ones(4, np.int32)],
                  leaf_values=np.array([7, 7, 7, 8], np.uint8)),
             "V=1 codes must have a single leaf value"),
            (dict(leaf_values=np.full(12, 3.7)),
             "labels and leaf values must be integers"),
            (dict(first_labels=np.array([1, 1.5, 2, 3])),
             "labels and leaf values must be integers"),
            (dict(level_labels=[np.ones(12, bool)]),
             "labels and leaf values must be integers"),
        ],
    )
    def test_invalid_fields_raise(self, changes, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            vvar.VVarCode(**self._fields(**changes))

    @pytest.mark.parametrize("name", ["depth", "v", "first_labels", "leaf_values"])
    def test_fields_cannot_be_reassigned(self, name):
        code = vvar.VVarCode(**self._fields())
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(code, name, getattr(code, name))
