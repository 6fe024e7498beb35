"""MSB-first bit packing used by the VVC1 and FBC1 containers.

A packed stream holds n records of m unsigned fields, field j at widths[j]
bits (0..32), each field MSB first, records back to back, then one zero pad
to a byte boundary. Each field goes through a 32-bit big-endian lane so that
numpy's packbits/unpackbits do the bit shuffling; rows are processed in
chunks of _CHUNK_ROWS, so the scratch memory does not grow with n.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .imaging import FormatError

MAX_WIDTH = 32
# a multiple of 8, so every chunk but the last fills whole bytes
_CHUNK_ROWS = 1 << 12


def _lane_columns(widths: Sequence[int]) -> np.ndarray:
    """Bit columns of the (n, 32m) lane matrix that a record keeps, in order."""
    if any(not 0 <= w <= MAX_WIDTH for w in widths):
        raise ValueError(f"field widths must lie in 0..{MAX_WIDTH}, got {widths}")
    return np.array(
        [MAX_WIDTH * j + b for j, w in enumerate(widths)
         for b in range(MAX_WIDTH - w, MAX_WIDTH)],
        dtype=np.intp,
    )


def pack(fields: np.ndarray, widths: Sequence[int]) -> bytes:
    """Pack an (n, m) array of unsigned integers, field j at widths[j] bits."""
    fields = np.asarray(fields, dtype=np.int64)
    cols = _lane_columns(widths)
    if fields.ndim != 2 or fields.shape[1] != len(widths):
        raise ValueError(f"fields must have shape (n, {len(widths)})")
    if fields.size and (fields.min() < 0 or (fields >> np.asarray(widths)).any()):
        raise ValueError(f"a value does not fit its field width {list(widths)}")
    lanes = fields.astype(">u4").view(np.uint8)  # (n, 4m) big-endian bytes
    return b"".join(
        np.packbits(np.unpackbits(lanes[i:i + _CHUNK_ROWS], axis=1)[:, cols]).tobytes()
        for i in range(0, len(lanes), _CHUNK_ROWS)
    )


def unpack(data: bytes, n: int, widths: Sequence[int]) -> np.ndarray:
    """Read n packed records as an (n, m) int64 array of fields.

    Raises FormatError when data is too short or the pad bits are not zero.
    """
    cols = _lane_columns(widths)
    row_bits = len(cols)
    nbytes = (n * row_bits + 7) // 8
    if len(data) < nbytes:
        raise FormatError("bitstream truncated")
    buf = np.frombuffer(data, dtype=np.uint8, count=nbytes)
    pad = 8 * nbytes - n * row_bits
    if pad and buf[-1] & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits")
    out = np.empty((n, len(widths)), dtype=np.int64)
    lanes = np.zeros((min(n, _CHUNK_ROWS), MAX_WIDTH * len(widths)), np.uint8)
    for i in range(0, n, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n - i)
        start = i * row_bits // 8
        chunk = buf[start:start + (rows * row_bits + 7) // 8]
        bits = np.unpackbits(chunk, count=rows * row_bits)
        lanes[:rows, cols] = bits.reshape(rows, row_bits)
        out[i:i + rows] = np.packbits(lanes[:rows], axis=1).view(">u4")
    return out
