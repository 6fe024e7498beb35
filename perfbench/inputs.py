"""Seeded inputs for the benchmark.

The image recipes follow ``tests/conftest.py`` (images A and B) and are
reimplemented here so the benchmark does not import the test suite. The
workload seed picks the polarity of the image: an even seed gives the
conftest image pixel for pixel, an odd seed its negative ``255 - x``.
Negation changes every pixel and every output stream but is an isometry of
the pixel space that keeps the point order, so k-means takes the same
iterations and the encoders reach the same PSNR on both polarities. New
noise fields per seed would not: over seeds 0-5 they changed the V=1024
encode time from 12 s to 54 s (the k-means livelock comes and goes) and the
PSNR at V=4 by 2.5 dB, a spread no bound on run time or quality could hold.

The random VVC1 codes for ``vv-decode`` are drawn from the seed outright;
their decode cost does not depend on the labels drawn.
"""

from __future__ import annotations

import numpy as np

from vvcodec import vvar
from vvcodec.imaging import PixelImage

SIDE = 512
DEPTH = 9


def spectral_field(seed: int, exponent: float, size: int = SIDE) -> np.ndarray:
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
    y, x = np.mgrid[0:SIDE, 0:SIDE]
    d = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
    return 1.0 / (1.0 + np.exp((d - r) / soft))


def _polarity(img: PixelImage, seed: int) -> PixelImage:
    if seed < 0:
        raise ValueError("workload seed must be >= 0")
    return PixelImage(255 - img.data) if seed % 2 else img


def make_image_a(seed: int = 0) -> PixelImage:
    """Cloud-like field with two soft disks and a diagonal ramp."""
    base = 128 + 55 * spectral_field(11, 1.8)
    base += 45 * _disk(170, 200, 90) - 35 * _disk(360, 330, 70, soft=2.0)
    y, x = np.mgrid[0:SIDE, 0:SIDE] / (SIDE - 1.0)
    base += 25 * (x - y)
    base += 6 * spectral_field(12, 0.6)
    return _polarity(PixelImage.from_real(base), seed)


def make_image_b(seed: int = 0) -> PixelImage:
    """Smoother field with a hard-edged panel and one disk."""
    base = 120 + 60 * spectral_field(21, 2.2)
    y, x = np.mgrid[0:SIDE, 0:SIDE] / (SIDE - 1.0)
    base += 30 * np.where((x > 0.55) & (y > 0.25) & (y < 0.75), 1.0, 0.0) * (1 - x)
    base += 20 * _disk(130, 380, 60, soft=3.0)
    base += 10 * spectral_field(22, 1.0)
    return _polarity(PixelImage.from_real(base), seed)


def random_vvar_code(rng: np.random.Generator, v: int) -> vvar.VVarCode:
    """A structurally valid random depth-9 code with cluster budget V.

    Same structure as ``conftest.random_vvar_code`` with the depth fixed at
    9, so every stream decodes to a 512x512 image.
    """
    n0 = vvar.compute_n0(v, DEPTH)
    if v == 1:
        value = int(rng.integers(0, 256))
        return vvar.VVarCode(
            depth=DEPTH,
            v=1,
            first_labels=np.ones(4, dtype=np.int32),
            level_labels=[np.ones(4, np.int32) for _ in range(DEPTH - 2)],
            leaf_values=np.full(4, value, dtype=np.uint8),
        )
    return vvar.VVarCode(
        depth=DEPTH,
        v=v,
        first_labels=rng.integers(1, v + 1, 4 ** (n0 + 1)).astype(np.int32),
        level_labels=[
            rng.integers(1, v + 1, 4 * v).astype(np.int32)
            for _ in range(DEPTH - 2 - n0)
        ],
        leaf_values=rng.integers(0, 256, 4 * v).astype(np.uint8),
    )
