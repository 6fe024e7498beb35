"""Benchmark of the vvcodec command-line codec.

Runs real CLI commands in this process through ``vvcodec.cli.main(argv)``,
one at a time (a closed loop with one client), on inputs made from the
workload seed, and checks every command's output outside the timed span.

    python3 perfbench/run.py --workload vv-encode --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``vv-encode``: ``vv-encode`` at V = 1, 4, 16, 64, 256, 1024 on image A;
* ``vv-decode``: ``vv-decode`` of random depth-9 VVC1 streams at the same V;
* ``fbc``: ``fbc`` encode at --small 4, 8, 16 on image B, each followed by
  a decode of the stream it wrote.

One pass runs the workload's command list once; passes repeat until
``--seconds`` have elapsed, and at least one pass always runs. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` an untraced run is followed by a traced run of the same
length and the last line holds the per-layer metrics. Details (machine,
every command's payload, PSNR and stream SHA-256, and the spans) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("vv-encode", "vv-decode", "fbc")
V_LADDER = (1, 4, 16, 64, 256, 1024)
SMALL_SIZES = (4, 8, 16)
# payload bytes fixed by the formats for a 512x512 image
VV_PAYLOAD = {1: 1, 4: 44, 16: 256, 64: 1216, 256: 5120, 1024: 19456}
FBC_PAYLOAD = {4: 51200, 8: 11776, 16: 2688}
SETUP_REPEATS = 3

PSNR_METRICS = [f"psnr_db.v{v}" for v in V_LADDER] + [
    f"psnr_db.s{s}" for s in SMALL_SIZES
]
# A PSNR metric belongs to the workload that writes that stream. The other
# workloads report this fixed value so every run prints every metric name.
NOT_APPLICABLE = 1.0


class CheckError(Exception):
    """A command's output failed a correctness check."""


@dataclass
class Command:
    tag: str  # "v64", "s8", "s8.decode"
    argv: list[str]
    check: Callable[[str], dict]  # stdout -> record fields; raises CheckError


@dataclass
class Record:
    tag: str
    pass_index: int
    traced: bool
    seconds: float
    ok: bool
    row: str
    fields: dict = field(default_factory=dict)
    error: str = ""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else f"{x:.4f}"


def _psnr(a, b) -> float:
    """PSNR in dB of two 8-bit images, computed here, not by vvcodec."""
    import numpy as np

    diff = a.data.astype(np.float64) - b.data.astype(np.float64)
    mse = float(np.mean(diff * diff))
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 ** 2 / mse)


def _parse_row(stdout: str) -> tuple[int, str]:
    """Payload and PSNR text of a ``payload_bytes,psnr_db,ratio`` row."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise CheckError(f"expected one CSV row, got {stdout!r}")
    parts = lines[0].split(",")
    if len(parts) != 3:
        raise CheckError(f"expected 3 CSV fields, got {lines[0]!r}")
    try:
        payload = int(parts[0])
        float(parts[1])
    except ValueError:
        raise CheckError(f"malformed CSV row {lines[0]!r}") from None
    if payload <= 0 or parts[2] != _fmt(512 * 512 / payload):
        raise CheckError(f"compression ratio {parts[2]} disagrees with payload")
    return payload, parts[1]


def _expect_silent(stdout: str) -> None:
    if stdout:
        raise CheckError(f"decode printed {stdout!r}")


def build_vv_encode(seed: int, work: Path) -> list[Command]:
    from inputs import make_image_a
    from vvcodec import vvar
    from vvcodec.imaging import save_pgm

    img = make_image_a(seed)
    src = work / "a.pgm"
    src.write_bytes(save_pgm(img))
    commands = []
    for v in V_LADDER:
        out = work / f"v{v}.vvc"

        def check(stdout: str, v=v, out=out) -> dict:
            payload, psnr_text = _parse_row(stdout)
            if payload != VV_PAYLOAD[v]:
                raise CheckError(f"V={v} payload {payload} != {VV_PAYLOAD[v]}")
            blob = out.read_bytes()
            if len(blob) - vvar.HEADER_BYTES != payload:
                raise CheckError(f"V={v} stream length disagrees with payload")
            decoded = vvar.decode(vvar.deserialize(blob))
            if psnr_text != _fmt(_psnr(img, decoded)):
                raise CheckError(f"V={v} printed PSNR {psnr_text} disagrees")
            return {"payload_bytes": payload, "psnr_db": float(psnr_text),
                    "sha256": _sha256(blob)}

        commands.append(
            Command(f"v{v}", ["vv-encode", str(src), str(out), "--v", str(v)], check)
        )
    return commands


def build_vv_decode(seed: int, work: Path) -> list[Command]:
    import numpy as np
    from inputs import random_vvar_code
    from vvcodec import vvar
    from vvcodec.imaging import save_pgm

    rng = np.random.default_rng(seed)
    commands = []
    for v in V_LADDER:
        code = random_vvar_code(rng, v)
        blob = vvar.serialize(code)
        reference = save_pgm(vvar.decode(code))
        src, out = work / f"v{v}.vvc", work / f"v{v}.pgm"
        src.write_bytes(blob)
        fields = {"payload_bytes": len(blob) - vvar.HEADER_BYTES,
                  "sha256": _sha256(blob)}

        def check(stdout: str, v=v, out=out, reference=reference,
                  fields=fields) -> dict:
            _expect_silent(stdout)
            if out.read_bytes() != reference:
                raise CheckError(f"V={v} decode differs from the reference")
            return fields

        commands.append(Command(f"v{v}", ["vv-decode", str(src), str(out)], check))
    return commands


def build_fbc(seed: int, work: Path) -> list[Command]:
    from inputs import make_image_b
    from vvcodec import fbc
    from vvcodec.imaging import save_pgm

    img = make_image_b(seed)
    src = work / "b.pgm"
    src.write_bytes(save_pgm(img))
    decoded: dict[int, bytes] = {}  # reference decode of the latest stream
    commands = []
    for s in SMALL_SIZES:
        stream, out = work / f"s{s}.fbc", work / f"s{s}.pgm"

        def check_encode(stdout: str, s=s, stream=stream) -> dict:
            payload, psnr_text = _parse_row(stdout)
            if payload != FBC_PAYLOAD[s]:
                raise CheckError(f"s={s} payload {payload} != {FBC_PAYLOAD[s]}")
            blob = stream.read_bytes()
            if len(blob) - fbc.HEADER_BYTES != payload:
                raise CheckError(f"s={s} stream length disagrees with payload")
            image = fbc.fbc_decode(fbc.deserialize(blob), fbc.FbcParams(s))
            if psnr_text != _fmt(_psnr(img, image)):
                raise CheckError(f"s={s} printed PSNR {psnr_text} disagrees")
            decoded[s] = save_pgm(image)
            return {"payload_bytes": payload, "psnr_db": float(psnr_text),
                    "sha256": _sha256(blob)}

        def check_decode(stdout: str, s=s, out=out) -> dict:
            _expect_silent(stdout)
            if out.read_bytes() != decoded.pop(s, None):
                raise CheckError(f"s={s} decode differs from the reference")
            return {}

        commands.append(Command(
            f"s{s}", ["fbc", str(src), str(stream), "--small", str(s)], check_encode
        ))
        commands.append(Command(f"s{s}.decode", ["fbc", str(stream), str(out)],
                                check_decode))
    return commands


BUILDERS = {"vv-encode": build_vv_encode, "vv-decode": build_vv_decode,
            "fbc": build_fbc}


def run_command(cmd: Command, tracer) -> tuple[float, int | None, str, str]:
    """Time one CLI call; stdout and stderr are captured outside the span."""
    from vvcodec import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            status = cli.main(cmd.argv)
        except Exception:  # a crash is a failed command, not a failed run
            status = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    return elapsed, status, out.getvalue(), err.getvalue()


def run_passes(commands: list[Command], seconds: float, traced: bool,
               first_rows: dict[str, str]):
    """Repeat the command list until `seconds` elapse; at least one pass.

    Returns per-pass times, every command's record and, when traced, each
    pass's spans. A row that differs from the first row seen for the same
    command (traced or not) fails the command.
    """
    from tracing import Tracer

    pass_times: list[float] = []
    records: list[Record] = []
    pass_spans = []
    deadline = time.perf_counter() + seconds
    while not pass_times or time.perf_counter() < deadline:
        tracer = Tracer() if traced else None
        total = 0.0
        for cmd in commands:
            elapsed, status, stdout, stderr = run_command(cmd, tracer)
            total += elapsed
            rec = Record(cmd.tag, len(pass_times), traced, elapsed, False, stdout)
            try:
                if status != 0:
                    raise CheckError(f"exit status {status}: {stderr.strip()}")
                rec.fields = cmd.check(stdout)
                if first_rows.setdefault(cmd.tag, stdout) != stdout:
                    raise CheckError(
                        f"row {stdout!r} differs from {first_rows[cmd.tag]!r}"
                    )
                rec.ok = True
            except (CheckError, OSError, ValueError) as exc:
                rec.error = str(exc)
            records.append(rec)
        pass_times.append(total)
        if tracer is not None:
            pass_spans.append(tracer.spans)
    return pass_times, records, pass_spans


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine_info(nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_used": _blas_threads(),
    }


def end_to_end(pass_times, records, setup_s) -> dict:
    first = [r for r in records if r.pass_index == 0 and not r.traced]
    psnr = {m: NOT_APPLICABLE for m in PSNR_METRICS}
    for r in first:
        if "psnr_db" in r.fields:
            psnr[f"psnr_db.{r.tag}"] = r.fields["psnr_db"]
    ok = sum(r.ok for r in records)
    metrics = {
        "run_s": (statistics.median(pass_times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
        "ok_ratio": (ok / len(records), "ratio"),
        "payload_bytes": (
            sum(r.fields.get("payload_bytes", 0) for r in first), "B"
        ),
        **{m: (value, "dB") for m, value in psnr.items()},
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(pass_spans, untraced_times, traced_times) -> dict:
    from tracing import LAYER_UNITS, layer_metrics

    per_pass = [layer_metrics(spans) for spans in pass_spans]
    out = {
        name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
        for name, unit in LAYER_UNITS.items()
    }
    out["trace.overhead_s"] = {
        "value": statistics.median(traced_times) - statistics.median(untraced_times),
        "unit": "s",
    }
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vvcodec" / "cli.py").is_file():
        print(f"perfbench: no vvcodec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    start = time.perf_counter()
    import numpy  # noqa: F401
    import vvcodec  # noqa: F401
    import_s = time.perf_counter() - start

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        build_s = []
        for i in range(SETUP_REPEATS):
            work = Path(tmp) / f"setup{i}"
            start = time.perf_counter()
            work.mkdir()
            commands = BUILDERS[args.workload](args.seed, work)
            build_s.append(time.perf_counter() - start)
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(work)
        setup_s = import_s + statistics.median(build_s)

        first_rows: dict[str, str] = {}
        times, records, _ = run_passes(commands, args.seconds, False, first_rows)
        traced_times: list[float] = []
        spans: list = []
        if args.trace:
            traced_times, traced_records, spans = run_passes(
                commands, args.seconds, True, first_rows
            )
            records += traced_records

    failed = sum(not r.ok for r in records)
    if args.trace:
        metrics = per_layer(spans, times, traced_times)
    else:
        metrics = end_to_end(times, records, setup_s)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(nproc),
        "import_s": import_s,
        "setup_build_s": build_s,
        "pass_s": times,
        "traced_pass_s": traced_times,
        "records": [vars(r) for r in records],
        "spans": [[vars(s) for s in pass_] for pass_ in spans],
        "metrics": metrics,
    }
    detail_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1))
    print(f"machine: {json.dumps(detail['machine'])}")
    for r in records:
        if not r.ok:
            print(f"FAILED {args.workload} {r.tag} pass {r.pass_index}: {r.error}")
    print(f"details: {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
