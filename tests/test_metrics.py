import math

import numpy as np
import pytest

from conftest import constant_image
from vvcodec import metrics
from vvcodec.imaging import PixelImage


def test_mse_identical():
    img = constant_image(12, depth=3)
    assert metrics.mse(img, img) == 0.0


def test_mse_extremes():
    a = constant_image(0, depth=3)
    b = constant_image(255, depth=3)
    assert metrics.mse(a, b) == 65025.0


def test_mse_single_differing_pixel():
    a = PixelImage(np.zeros((2, 2), np.uint8))
    data = np.zeros((2, 2), np.uint8)
    data[0, 0] = 255
    b = PixelImage(data)
    assert metrics.mse(a, b) == 65025.0 / 4


def test_mse_size_mismatch():
    with pytest.raises(ValueError):
        metrics.mse(constant_image(0, depth=2), constant_image(0, depth=3))


def test_psnr_identical_is_infinite():
    img = constant_image(9, depth=2)
    assert math.isinf(metrics.psnr(img, img))


def test_psnr_zero_db():
    a = constant_image(0, depth=2)
    b = constant_image(255, depth=2)
    assert metrics.psnr(a, b) == pytest.approx(0.0)


def test_psnr_30_db():
    # mse of 65.025 corresponds to exactly 30 dB
    assert 10 * math.log10(255 ** 2 / 65.025) == pytest.approx(30.0)
    a = np.zeros((16, 16), np.int64)
    diffs = np.zeros(256, np.int64)
    # 65.025 isn't reachable with integer pixels; check the formula through
    # the nearest attainable mse instead
    diffs[:65] = 16
    a_img = PixelImage(np.zeros((16, 16), np.uint8))
    b_img = PixelImage(diffs.reshape(16, 16).astype(np.uint8))
    m = metrics.mse(a_img, b_img)
    assert metrics.psnr(a_img, b_img) == pytest.approx(10 * math.log10(255 ** 2 / m))


def test_psnr_symmetric():
    rng = np.random.default_rng(0)
    a = PixelImage(rng.integers(0, 256, (8, 8)))
    b = PixelImage(rng.integers(0, 256, (8, 8)))
    assert metrics.psnr(a, b) == metrics.psnr(b, a)


def test_compression_ratio_published_values():
    assert metrics.compression_ratio(262144, 1216) == pytest.approx(215.6, abs=0.05)
    assert metrics.compression_ratio(262144, 5120) == 51.2
    assert metrics.compression_ratio(1000, 1000) == 1.0


def test_compression_ratio_zero_payload():
    with pytest.raises(ValueError):
        metrics.compression_ratio(100, 0)
