"""Property tests: corrupt PGM, VVC1 and FBC1 streams only ever raise
FormatError."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import byte_mutations, random_vvar_code
from vvcodec import fbc, vvar
from vvcodec.bitpack import pack
from vvcodec.imaging import FormatError, PixelImage, load_pgm, save_pgm

FUZZ = settings(settings.get_profile("fuzz"), max_examples=150)


def _vv_streams() -> list[bytes]:
    rng = np.random.default_rng(0)
    vs = (1, 2, 3, 5, 17, 64, 300)
    return [vvar.serialize(random_vvar_code(rng, v=v)) for v in vs]


def _fbc_streams() -> list[bytes]:
    rng = np.random.default_rng(1)
    out = []
    for side, s in ((4, 2), (8, 2), (16, 2), (16, 4)):
        img = PixelImage(rng.integers(0, 256, (side, side)))
        out.append(fbc.serialize(fbc.fbc_encode(img, fbc.FbcParams(s))))
    return out


def _pgm_streams() -> list[bytes]:
    rng = np.random.default_rng(2)
    out = [save_pgm(PixelImage(rng.integers(0, 256, (s, s)))) for s in (1, 2, 4, 8)]
    out.append(b"P5 # comment\n2 2 # size\n255\n" + bytes([1, 2, 3, 4]))
    return out


VV_STREAMS = _vv_streams()
FBC_STREAMS = _fbc_streams()
PGM_STREAMS = _pgm_streams()


@st.composite
def resized(draw, streams):
    """A stream cut short or with bytes appended."""
    blob = draw(st.sampled_from(streams))
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob) - 1))]
    return blob + draw(st.binary(min_size=1, max_size=8))


@FUZZ
@given(byte_mutations(VV_STREAMS))
def test_vvc1_mutation_raises_only_format_error(blob):
    try:
        code = vvar.deserialize(blob)
    except FormatError:
        return
    assert vvar.decode(code).side == 2 ** code.depth


@FUZZ
@given(resized(VV_STREAMS))
def test_vvc1_wrong_length_rejected(blob):
    with pytest.raises(FormatError):
        vvar.deserialize(blob)


@FUZZ
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_vvc1_planted_label_rejected(seed, data):
    # V not a power of two, so the label field can hold a raw value >= V
    v = data.draw(st.sampled_from([3, 5, 6, 7, 11, 17, 33, 100, 1000]))
    n0 = vvar.compute_n0(v, 9)
    depth = data.draw(st.integers(n0 + 3, min(9, n0 + 4)))  # >= 1 mid table
    code = random_vvar_code(np.random.default_rng(seed), v=v, depth=depth)
    labels = np.concatenate([code.first_labels, *code.level_labels]) - 1
    width = (v - 1).bit_length()
    positions = sorted(data.draw(st.lists(
        st.integers(0, len(labels) - 1), min_size=1, max_size=2, unique=True
    )))
    raws = [data.draw(st.integers(v, (1 << width) - 1)) for _ in positions]
    labels[positions] = raws
    blob = (
        vvar.serialize(code)[:vvar.HEADER_BYTES]
        + pack(labels[:, None], [width])
        + bytes(code.leaf_values)
    )
    with pytest.raises(FormatError, match=f"label {raws[0] + 1} out of range"):
        vvar.deserialize(blob)


@FUZZ
@given(byte_mutations(FBC_STREAMS))
def test_fbc1_mutation_raises_only_format_error(blob):
    try:
        code = fbc.deserialize(blob)
    except FormatError:
        return
    assert fbc.fbc_decode(code).side == 2 ** code.depth


@FUZZ
@given(resized(FBC_STREAMS))
def test_fbc1_wrong_length_rejected(blob):
    with pytest.raises(FormatError):
        fbc.deserialize(blob)


@FUZZ
@given(st.sampled_from(FBC_STREAMS), st.data())
def test_fbc1_planted_beta_rejected(blob, data):
    # the index field is exactly log2(n_large) bits, so only beta can be
    # planted out of range
    code = fbc.deserialize(blob)
    entries = code.entries.copy()
    entries[data.draw(st.integers(0, len(entries) - 1)), 2] = 511
    widths = fbc.field_widths(code.n_large)
    with pytest.raises(FormatError, match="beta"):
        fbc.deserialize(blob[:fbc.HEADER_BYTES] + pack(entries, widths))


@FUZZ
@given(byte_mutations(PGM_STREAMS))
def test_pgm_mutation_raises_only_format_error(blob):
    try:
        img = load_pgm(blob)
    except FormatError:
        return
    assert np.array_equal(load_pgm(save_pgm(img)).data, img.data)


@FUZZ
@given(resized(PGM_STREAMS))
def test_pgm_wrong_length_rejected(blob):
    with pytest.raises(FormatError):
        load_pgm(blob)
