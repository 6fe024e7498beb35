"""MSB-first bit packing used by the VVC1 and FBC1 containers.

A packed stream holds n records of m unsigned fields, field j at widths[j]
bits (0..32), each field MSB first, records back to back, then one zero pad
to a byte boundary. Each field goes through a 32-bit big-endian lane so that
numpy's packbits/unpackbits do the bit shuffling; rows are processed in
chunks of _CHUNK_ROWS, so the scratch memory does not grow with n.
`pack` trusts its fields, which `VVarCode` and `FbcCode` check when a code is
made; `unpack` checks the length and padding of the bytes it reads.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from .imaging import FormatError

MAX_WIDTH = 32
# a multiple of 8, so every chunk but the last fills whole bytes
_CHUNK_ROWS = 1 << 12


def _field_slices(widths: Sequence[int]) -> list[tuple[slice, slice]]:
    """Each field's (record bits, lane bits): the low widths[j] bits of lane j."""
    return [
        (slice(end - w, end), slice(MAX_WIDTH * (j + 1) - w, MAX_WIDTH * (j + 1)))
        for j, (w, end) in enumerate(zip(widths, accumulate(widths)))
    ]


def pack(fields: np.ndarray, widths: Sequence[int]) -> bytes:
    """Pack an (n, m) array of unsigned integers, field j at widths[j] bits.

    Unchecked precondition: fields has shape (n, len(widths)), each width
    lies in 0..32 and each value in column j in 0..2**widths[j] - 1.
    """
    slices = _field_slices(widths)
    lanes = fields.astype(">u4").view(np.uint8)  # (n, 4m) big-endian bytes
    record = np.empty((min(len(lanes), _CHUNK_ROWS), sum(widths)), np.uint8)
    chunks = []
    for i in range(0, len(lanes), _CHUNK_ROWS):
        chunk = lanes[i:i + _CHUNK_ROWS]
        # each lane row is whole bytes, so the flat bits split into rows
        bits = np.unpackbits(chunk.ravel()).reshape(len(chunk), -1)
        for rec, lane in slices:
            record[:len(chunk), rec] = bits[:, lane]
        chunks.append(np.packbits(record[:len(chunk)]).tobytes())
    return b"".join(chunks)


def unpack(data: bytes, n: int, widths: Sequence[int]) -> np.ndarray:
    """Read n packed records as an (n, m) int64 array of fields.

    Raises FormatError when data is too short or the pad bits are not zero.
    """
    slices = _field_slices(widths)
    row_bits = sum(widths)
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
        bits = np.unpackbits(chunk, count=rows * row_bits).reshape(rows, row_bits)
        for rec, lane in slices:
            lanes[:rows, lane] = bits[:, rec]
        out[i:i + rows] = np.packbits(lanes[:rows]).view(">u4").reshape(rows, -1)
    return out
