"""Shared fixtures: the four-type demo coding matrix, synthetic 512x512 test
images with natural-image-like spectra, and cached heavy encodes."""

from __future__ import annotations

import time

import numpy as np
import pytest

from vvcodec import fbc, vvar
from vvcodec.imaging import PixelImage

# 4-type coding matrix for a 512x512 image: columns are the label tables for
# levels 2..8 followed by the four leaf gray values.
DEMO_MATRIX = np.array(
    [
        [1, 1, 4, 3, 3, 3, 2, 138],
        [3, 2, 1, 2, 3, 3, 4, 138],
        [1, 1, 4, 3, 3, 3, 2, 138],
        [3, 2, 1, 2, 3, 3, 4, 138],
        [2, 2, 2, 4, 1, 4, 3, 33],
        [2, 2, 3, 4, 1, 4, 3, 33],
        [2, 2, 2, 4, 1, 4, 3, 33],
        [4, 2, 3, 4, 1, 4, 3, 33],
        [1, 3, 1, 2, 1, 1, 1, 171],
        [3, 4, 1, 2, 1, 1, 1, 171],
        [3, 3, 1, 2, 1, 1, 1, 171],
        [2, 4, 1, 2, 1, 1, 1, 171],
        [2, 4, 3, 1, 2, 2, 3, 37],
        [4, 2, 2, 1, 4, 2, 3, 37],
        [4, 3, 3, 1, 2, 2, 3, 37],
        [4, 3, 2, 1, 4, 2, 3, 37],
    ]
)

# walkthrough address whose pixel value is 138 in the demo image
DEMO_ADDRESS = (3, 2, 2, 1, 1, 3, 4, 1, 4)

# options used for every heavy encode in the suite
ENCODE_OPTS = dict(seed=0, restarts=1, max_iterations=40)


def spectral_field(seed: int, exponent: float, size: int = 512) -> np.ndarray:
    """Random field with a 1/f**exponent amplitude spectrum, unit variance."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((size, size))
    f = np.fft.fftfreq(size)
    radius = np.sqrt(f[:, None] ** 2 + f[None, :] ** 2)
    radius[0, 0] = 1.0
    spectrum = np.fft.fft2(noise) / radius ** exponent
    spectrum[0, 0] = 0.0
    field = np.real(np.fft.ifft2(spectrum))
    return (field - field.mean()) / field.std()


def _disk(cx: float, cy: float, r: float, soft: float = 4.0) -> np.ndarray:
    y, x = np.mgrid[0:512, 0:512]
    d = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
    return 1.0 / (1.0 + np.exp((d - r) / soft))


def make_image_a() -> PixelImage:
    """Cloud-like field with two soft disks and a diagonal ramp."""
    base = 128 + 55 * spectral_field(11, 1.8)
    base += 45 * _disk(170, 200, 90) - 35 * _disk(360, 330, 70, soft=2.0)
    y, x = np.mgrid[0:512, 0:512] / 511.0
    base += 25 * (x - y)
    base += 6 * spectral_field(12, 0.6)
    return PixelImage.from_real(base)


def make_image_b() -> PixelImage:
    """Smoother field with a hard-edged panel and one disk."""
    base = 120 + 60 * spectral_field(21, 2.2)
    y, x = np.mgrid[0:512, 0:512] / 511.0
    base += 30 * np.where((x > 0.55) & (y > 0.25) & (y < 0.75), 1.0, 0.0) * (1 - x)
    base += 20 * _disk(130, 380, 60, soft=3.0)
    base += 10 * spectral_field(22, 1.0)
    return PixelImage.from_real(base)


def adversarial_image(name: str, size: int = 512) -> PixelImage:
    """Inputs on which the FBC search's bounds rule out little or nothing:
    flat, two-level and gradient images (few distinct blocks), a 1-bit
    dither (tiny spreads), noise, and noise beside a 1-bit dither."""
    rng = np.random.default_rng(1)
    y, x = np.indices((size, size))
    if name == "constant":
        plane = np.full((size, size), 128)
    elif name == "two-level":
        plane = (y + x) // 64 % 2 * 200
    elif name == "gradient":
        plane = 60 + (x + y) // 8
    elif name == "dither":
        plane = 100 + x // 64 + rng.integers(0, 2, (size, size))
    elif name == "noise":
        plane = rng.integers(0, 256, (size, size))
    elif name == "mixed":
        noise = rng.integers(0, 256, (size, size))
        dither = 128 + rng.integers(0, 2, (size, size))
        plane = np.where(x < size // 2, noise, dither)
    else:
        raise ValueError(f"unknown adversarial image {name!r}")
    return PixelImage(plane.astype(np.uint8))


def random_vvar_code(
    rng: np.random.Generator, v: int | None = None, depth: int | None = None
) -> vvar.VVarCode:
    """A structurally valid random code with bounded (or the given) depth."""
    if v is None:
        v = int(rng.integers(1, 1024))
    n0 = vvar.compute_n0(v, vvar.MAX_DEPTH)
    if depth is None:
        depth = int(rng.integers(n0 + 2, min(9, n0 + 4) + 1))
    if v == 1:
        value = int(rng.integers(0, 256))
        return vvar.VVarCode(
            depth=depth,
            v=1,
            first_labels=np.ones(4, dtype=np.int32),
            level_labels=[np.ones(4, np.int32) for _ in range(depth - 2)],
            leaf_values=np.full(4, value, dtype=np.uint8),
        )
    return vvar.VVarCode(
        depth=depth,
        v=v,
        first_labels=rng.integers(1, v + 1, 4 ** (n0 + 1)).astype(np.int32),
        level_labels=[
            rng.integers(1, v + 1, 4 * v).astype(np.int32)
            for _ in range(depth - 2 - n0)
        ],
        leaf_values=rng.integers(0, 256, 4 * v).astype(np.uint8),
    )


@pytest.fixture(scope="session")
def demo_code() -> vvar.VVarCode:
    return vvar.code_from_matrix(DEMO_MATRIX)


@pytest.fixture(scope="session")
def demo_image(demo_code) -> PixelImage:
    return vvar.decode(demo_code)


@pytest.fixture(scope="session")
def image_a() -> PixelImage:
    return make_image_a()


@pytest.fixture(scope="session")
def image_b() -> PixelImage:
    return make_image_b()


@pytest.fixture(scope="session")
def vv_codes(image_a, image_b):
    """Dict (image name, V) -> (code, encode seconds) for the heavy encodes."""
    cache: dict[tuple[str, int], tuple[vvar.VVarCode, float]] = {}
    jobs = [("a", image_a, (1, 4, 16, 64, 256, 1024)), ("b", image_b, (16, 1024))]
    for name, img, vs in jobs:
        for v in vs:
            start = time.monotonic()
            code = vvar.encode(img, v, **ENCODE_OPTS)
            cache[(name, v)] = (code, time.monotonic() - start)
    return cache


@pytest.fixture(scope="session")
def fbc_codes(image_a, image_b):
    """Dict (image name, small size) -> (code, encode seconds)."""
    cache: dict[tuple[str, int], tuple[fbc.FbcCode, float]] = {}
    for name, img in (("a", image_a), ("b", image_b)):
        for s in (8, 16):
            start = time.monotonic()
            code = fbc.fbc_encode(img, fbc.FbcParams(s))
            cache[(name, s)] = (code, time.monotonic() - start)
    return cache
