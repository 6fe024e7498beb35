import numpy as np
import pytest

from vvcodec import bitpack, fbc, vvar
from vvcodec.imaging import FormatError


def reference_pack(fields, widths) -> bytes:
    """Bit-by-bit packer: every field MSB first, then zero pad to a byte."""
    bits = [
        (int(value) >> shift) & 1
        for row in fields
        for value, width in zip(row, widths)
        for shift in range(width - 1, -1, -1)
    ]
    bits += [0] * (-len(bits) % 8)
    return bytes(
        int("".join(map(str, bits[i:i + 8])), 2) for i in range(0, len(bits), 8)
    )


def random_fields(rng, n, widths):
    cols = [rng.integers(0, 1 << w, n, dtype=np.int64) for w in widths]
    return np.stack(cols, axis=1).reshape(n, len(widths))


class TestAgainstReference:
    def test_random_widths(self):
        rng = np.random.default_rng(0)
        seen_unaligned = False
        for _ in range(200):
            widths = [int(w) for w in rng.integers(0, 33, rng.integers(1, 5))]
            n = int(rng.integers(0, 50))
            fields = random_fields(rng, n, widths)
            blob = bitpack.pack(fields, widths)
            assert blob == reference_pack(fields, widths)
            seen_unaligned |= n * sum(widths) % 8 != 0
            out = bitpack.unpack(blob + b"\xff\x01", n, widths)
            assert out.shape == (n, len(widths))
            assert np.array_equal(out, fields)
        assert seen_unaligned

    def test_empty(self):
        fields = np.zeros((0, 2), dtype=np.int64)
        assert bitpack.pack(fields, [5, 3]) == b""
        assert bitpack.unpack(b"", 0, [5, 3]).shape == (0, 2)

    def test_all_zero_widths(self):
        fields = np.zeros((9, 2), dtype=np.int64)
        assert bitpack.pack(fields, [0, 0]) == b""
        out = bitpack.unpack(b"", 9, [0, 0])
        assert out.shape == (9, 2) and not out.any()

    def test_rows_span_several_chunks(self):
        rng = np.random.default_rng(1)
        widths = [3, 0, 7, 32]  # 42 bits a row: the last chunk ends mid-byte
        n = 2 * bitpack._CHUNK_ROWS + 5
        fields = random_fields(rng, n, widths)
        blob = bitpack.pack(fields, widths)
        assert blob == reference_pack(fields, widths)
        assert np.array_equal(bitpack.unpack(blob, n, widths), fields)


def test_hand_computed_vvc1_labels():
    # V=3 stores label-1 in 2 bits: 00 01 10 00
    assert bitpack.pack(np.array([[0], [1], [2], [0]]), [2]) == b"\x18"
    code = vvar.VVarCode(
        depth=2,
        v=3,
        first_labels=np.array([1, 2, 3, 1], np.int32),
        level_labels=[],
        leaf_values=np.arange(12, dtype=np.uint8),
    )
    assert vvar.serialize(code)[vvar.HEADER_BYTES] == 0x18


class TestErrors:
    def test_truncated(self):
        blob = bitpack.pack(np.arange(10)[:, None], [5])
        with pytest.raises(FormatError):
            bitpack.unpack(blob[:-1], 10, [5])

    def test_nonzero_padding(self):
        blob = bytearray(bitpack.pack(np.arange(3)[:, None], [5]))  # 15 bits
        blob[-1] |= 0x01
        with pytest.raises(FormatError):
            bitpack.unpack(bytes(blob), 3, [5])


class TestFieldExtremes:
    """`pack` trusts the codes to keep every field inside its width; a code
    holding each field's extreme values must round-trip at the stated size."""

    @pytest.mark.parametrize(
        "v", [1, 2, 3, 4, 5, 16, 17, 255, 256, 257, 1023, 1024, 1025]
    )
    @pytest.mark.parametrize("extreme", ["max", "min"])
    def test_vvc1(self, v, extreme):
        n0 = vvar.compute_n0(v, vvar.MAX_DEPTH)
        depth = n0 + 2  # the least depth that holds V
        label, leaf = (v, 255) if extreme == "max" else (1, 0)
        code = vvar.VVarCode(
            depth=depth,
            v=v,
            first_labels=np.full(4 ** (n0 + 1), label, np.int32),
            level_labels=[],
            leaf_values=np.full(4 * v, leaf, np.uint8),
        )
        blob = vvar.serialize(code)
        assert len(blob) == vvar.HEADER_BYTES + vvar.payload_size(v, depth)
        assert vvar.deserialize(blob) == code

    @pytest.mark.parametrize("depth,s", [(2, 2), (5, 2), (9, 4)])
    @pytest.mark.parametrize("extreme", ["max", "min"])
    def test_fbc1(self, depth, s, extreme):
        n_small = (2 ** depth // s) ** 2
        n_large = n_small // 4
        entry = [n_large - 1, 15, 510] if extreme == "max" else [0, 0, 0]
        code = fbc.FbcCode(depth, s, np.tile(np.int32(entry), (n_small, 1)))
        blob = fbc.serialize(code)
        assert len(blob) == fbc.HEADER_BYTES + (fbc.fbc_payload_bits(code) + 7) // 8
        back = fbc.deserialize(blob)
        assert (back.depth, back.small_size) == (depth, s)
        assert np.array_equal(back.entries, code.entries)
