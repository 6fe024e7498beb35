"""Distortion and rate metrics for comparing codecs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import PixelImage

PEAK = 255.0  # 8-bit peak signal


def mse(a: PixelImage, b: PixelImage) -> float:
    if a.depth != b.depth:
        raise ValueError(f"image depths differ: {a.depth} vs {b.depth}")
    diff = a.data.astype(np.float64) - b.data.astype(np.float64)
    return float(np.mean(diff * diff))


def psnr(a: PixelImage, b: PixelImage) -> float:
    """Peak signal-to-noise ratio in dB; math.inf for identical images."""
    m = mse(a, b)
    if m == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / m)


def compression_ratio(raw_bytes: int, payload_bytes: int) -> float:
    if payload_bytes <= 0:
        raise ValueError("payload_bytes must be positive")
    return raw_bytes / payload_bytes


@dataclass(frozen=True)
class QualityReport:
    mse: float
    psnr_db: float
    payload_bytes: int
    compression_ratio: float

    def rate_row(self) -> str:
        """The row the CLI prints: payload_bytes,psnr_db,compression_ratio."""
        return (
            f"{self.payload_bytes},{fmt(self.psnr_db)},"
            f"{fmt(self.compression_ratio)}"
        )


def fmt(x: float) -> str:
    """A CSV number: four decimals, or "inf"."""
    return "inf" if math.isinf(x) else f"{x:.4f}"


def quality_report(
    original: PixelImage, decoded: PixelImage, payload_bytes: int
) -> QualityReport:
    """Distortion of `decoded` against `original` plus rate bookkeeping.

    The raw size is one byte per pixel of the original.
    """
    return QualityReport(
        mse=mse(original, decoded),
        psnr_db=psnr(original, decoded),
        payload_bytes=payload_bytes,
        compression_ratio=compression_ratio(
            original.side * original.side, payload_bytes
        ),
    )
