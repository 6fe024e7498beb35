"""Spans around calls into vvcodec's public functions, recorded from outside
the package.

A traced function is replaced by a wrapper under every name its callers look
it up by: ``vvar`` imports ``kmeans``, ``canonicalize_labels`` and
``blocks_at_level`` by name and ``cli`` imports ``load_pgm`` and
``save_pgm`` by name, so patching only the defining module would miss those
calls. ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

from vvcodec import cli, clustering, fbc, imaging, metrics, vvar


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _payload_bits(header_bytes: int) -> Callable[..., dict[str, Any]]:
    def info(args, result):
        return {"bits": 8 * (len(result) - header_bytes)}
    return info


def _read_bits(header_bytes: int) -> Callable[..., dict[str, Any]]:
    def info(args, result):
        return {"bits": 8 * (len(args[0]) - header_bytes)}
    return info


def _kmeans_info(args, result) -> dict[str, Any]:
    points, opts = args[0], args[1]
    return {
        "dim": int(points.shape[1]),
        "k": opts.k,
        "iterations": len(result.sse_history),
        "max_iterations": opts.max_iterations,
    }


def _search_info(args, result) -> dict[str, Any]:
    s = result.small_size
    return {"gflop": 2.0 * result.n_small * result.n_large * s * s / 1e9}


# (span name, every (module, attribute) the codec path looks it up by,
#  extra info taken from the arguments and result, measure allocations)
TRACED = (
    ("cli.main", [(cli, "main")], None, False),
    ("imaging.load_pgm", [(cli, "load_pgm"), (imaging, "load_pgm")], None, False),
    ("imaging.save_pgm", [(cli, "save_pgm"), (imaging, "save_pgm")], None, False),
    ("imaging.blocks_at_level",
     [(vvar, "blocks_at_level"), (imaging, "blocks_at_level")], None, False),
    ("clustering.kmeans",
     [(vvar, "kmeans"), (clustering, "kmeans")], _kmeans_info, True),
    ("clustering.canonicalize_labels",
     [(vvar, "canonicalize_labels"), (clustering, "canonicalize_labels")],
     None, False),
    ("vvar.encode", [(vvar, "encode")], None, False),
    ("vvar.decode", [(vvar, "decode")], None, False),
    ("vvar.serialize", [(vvar, "serialize")],
     _payload_bits(vvar.HEADER_BYTES), False),
    ("vvar.deserialize", [(vvar, "deserialize")],
     _read_bits(vvar.HEADER_BYTES), False),
    ("fbc.fbc_encode", [(fbc, "fbc_encode")], _search_info, False),
    ("fbc.fbc_decode", [(fbc, "fbc_decode")], None, False),
    ("fbc.apply_block_transform", [(fbc, "apply_block_transform")], None, False),
    ("fbc.serialize", [(fbc, "serialize")], _payload_bits(fbc.HEADER_BYTES), False),
    ("fbc.deserialize", [(fbc, "deserialize")],
     _read_bits(fbc.HEADER_BYTES), False),
    ("metrics.quality_report", [(metrics, "quality_report")], None, False),
)


class Tracer:
    """Keeps spans in memory while installed; single-threaded use only."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for name, sites, info, measure_alloc in TRACED:
            module, attr = sites[0]
            wrapper = self._wrap(getattr(module, attr), name, info, measure_alloc)
            for module, attr in sites:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, original, name, info, measure_alloc):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            if measure_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if measure_alloc:
                    span.info["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if info is not None:
                span.info.update(info(args, result))
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


# per-layer metric name -> unit; trace.overhead_s comes from run.py
LAYER_UNITS = {
    "clustering.kmeans_s.leaf": "s",
    "clustering.kmeans_s.inner": "s",
    "clustering.calls": "count",
    "clustering.iterations.leaf": "count",
    "clustering.max_iter_hits": "count",
    "clustering.canonicalize_s": "s",
    "clustering.peak_alloc_mib": "MiB",
    "vvar.encode_self_s": "s",
    "vvar.decode_s": "s",
    "bitpack.write_s": "s",
    "bitpack.read_s": "s",
    "bitpack.bits_written": "bit",
    "bitpack.bits_read": "bit",
    "bitpack.read_mbit_s": "Mbit/s",
    "fbc.search_s": "s",
    "fbc.search_gflop": "GFLOP-computed",
    "fbc.search_gflop_s": "GFLOP/s",
    "fbc.decode_s": "s",
    "fbc.decode_passes": "count",
    "imaging.pgm_s": "s",
    "imaging.blocks_s": "s",
    "metrics.quality_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over one pass's spans."""
    own = self_times(spans)

    def total(*names: str) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def own_total(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name == name)

    def info_sum(key: str, *names: str) -> float:
        return sum(s.info.get(key, 0) for s in spans if s.name in names)

    kmeans = [s for s in spans if s.name == "clustering.kmeans"]
    # a call that raised has no info; its command already failed its check
    leaf = [s for s in kmeans if s.info.get("dim") == 1]  # single-pixel children
    inner = [s for s in kmeans if s.info.get("dim") != 1]
    read_s = total("vvar.deserialize", "fbc.deserialize")
    bits_read = info_sum("bits", "vvar.deserialize", "fbc.deserialize")
    search_s = total("fbc.fbc_encode")
    gflop = info_sum("gflop", "fbc.fbc_encode")
    return {
        "clustering.kmeans_s.leaf": sum(s.duration for s in leaf),
        "clustering.kmeans_s.inner": sum(s.duration for s in inner),
        "clustering.calls": len(kmeans),
        "clustering.iterations.leaf": sum(s.info.get("iterations", 0) for s in leaf),
        "clustering.max_iter_hits": sum(
            s.info.get("iterations") == s.info.get("max_iterations", -1)
            for s in kmeans
        ),
        "clustering.canonicalize_s": total("clustering.canonicalize_labels"),
        "clustering.peak_alloc_mib": max(
            (s.info["peak_alloc_bytes"] for s in kmeans), default=0
        ) / 2**20,
        "vvar.encode_self_s": own_total("vvar.encode"),
        "vvar.decode_s": total("vvar.decode"),
        "bitpack.write_s": total("vvar.serialize", "fbc.serialize"),
        "bitpack.read_s": read_s,
        "bitpack.bits_written": info_sum("bits", "vvar.serialize", "fbc.serialize"),
        "bitpack.bits_read": bits_read,
        "bitpack.read_mbit_s": bits_read / read_s / 1e6 if read_s else 0.0,
        "fbc.search_s": search_s,
        "fbc.search_gflop": gflop,
        "fbc.search_gflop_s": gflop / search_s if search_s else 0.0,
        "fbc.decode_s": total("fbc.apply_block_transform"),
        "fbc.decode_passes": sum(s.name == "fbc.apply_block_transform" for s in spans),
        "imaging.pgm_s": total("imaging.load_pgm", "imaging.save_pgm"),
        "imaging.blocks_s": total("imaging.blocks_at_level"),
        "metrics.quality_s": total("metrics.quality_report"),
        "cli.self_s": own_total("cli.main"),
    }
