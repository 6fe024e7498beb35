"""Command-line front end.

Results go to standard output as header-less CSV rows; diagnostics go to
standard error. Output files are written to a temp file and renamed, so a
failing command never leaves a partial file behind. Exit codes: 0 success,
1 validation error, 2 I/O error, 3 format corruption.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import fbc, fractalgen, metrics, vvar
from .imaging import FormatError, load_pgm, save_pgm

_MAX_DEMO_LEVEL = 20  # 2**n intervals; keeps the CSV demos bounded


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _write_atomic(path: str, data: bytes) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)  # mkstemp defaults to 0600
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_image(path: str):
    return load_pgm(Path(path).read_bytes())


def cmd_vv_encode(args: argparse.Namespace) -> int:
    if args.v < 1:
        raise _UsageError("--v must be >= 1")
    img = _load_image(args.input)
    code = vvar.encode(img, args.v, seed=args.seed, restarts=args.restarts)
    blob = vvar.serialize(code)
    _write_atomic(args.output, blob)
    payload = len(blob) - vvar.HEADER_BYTES
    print(metrics.quality_report(img, vvar.decode(code), payload))
    return 0


def cmd_vv_decode(args: argparse.Namespace) -> int:
    code = vvar.deserialize(Path(args.input).read_bytes())
    _write_atomic(args.output, save_pgm(vvar.decode(code)))
    return 0


def cmd_fbc(args: argparse.Namespace) -> int:
    data = Path(args.input).read_bytes()
    if data[:2] == b"P5":
        if args.small is None:
            raise _UsageError("--small is required when encoding")
        img = load_pgm(data)
        params = fbc.FbcParams(args.small, args.iters)
        code = fbc.fbc_encode(img, params)
        _write_atomic(args.output, fbc.serialize(code))
        payload = (fbc.fbc_payload_bits(code) + 7) // 8
        print(metrics.quality_report(img, fbc.fbc_decode(code, params), payload))
        return 0
    if data[:4] == fbc.MAGIC:
        code = fbc.deserialize(data)
        if args.small is not None and args.small != code.small_size:
            raise _UsageError(
                f"--small {args.small} conflicts with the code's "
                f"{code.small_size}"
            )
        params = fbc.FbcParams(code.small_size, args.iters)
        _write_atomic(args.output, save_pgm(fbc.fbc_decode(code, params)))
        return 0
    raise FormatError("input is neither a PGM image nor an FBC1 stream")


def cmd_psnr(args: argparse.Namespace) -> int:
    a = _load_image(args.a)
    b = _load_image(args.b)
    print(f"{metrics.fmt(metrics.mse(a, b))},{metrics.fmt(metrics.psnr(a, b))}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    img = _load_image(args.input)
    if img.depth != 9:
        raise ValueError(f"table needs a 512x512 image, got side {img.side}")
    for n in range(6):
        v = 4 ** n
        code = vvar.encode(img, v, seed=args.seed, restarts=args.restarts)
        payload = vvar.payload_size(v, img.depth)
        print(f"{v},{metrics.quality_report(img, vvar.decode(code), payload)}")
    return 0


def _demo_level(n: int, limit: int) -> int:
    if not 0 <= n <= limit:
        raise _UsageError(f"--n must lie in 0..{limit}")
    return n


def cmd_fractal(args: argparse.Namespace) -> int:
    if args.demo == "cantor":
        n = _demo_level(args.n, _MAX_DEMO_LEVEL)
        sets = fractalgen.attractor_intervals(fractalgen.cantor_ifs(), n)
        sys.stdout.write(fractalgen.intervals_csv(sets))
        return 0
    if args.demo == "codetree":
        tree = fractalgen.expand_skeleton(
            fractalgen.gap_demo_skeleton(), fractalgen.gap_demo_labels()
        )
        n = _demo_level(args.n, tree.depth)
        sets = fractalgen.code_tree_intervals(fractalgen.gap_family(), tree, n)
        sys.stdout.write(fractalgen.intervals_csv(sets))
        return 0
    # vsquare
    if args.matrix is not None:
        grid = fractalgen.read_integer_grid(Path(args.matrix).read_text())
        img = vvar.decode(vvar.code_from_matrix(grid))
    else:
        if args.v is None or args.v < 1:
            raise _UsageError("--v must be >= 1 (or use --matrix)")
        vvar.compute_n0(args.v, args.depth)  # before the skeleton is allocated
        skeleton = fractalgen.random_skeleton(args.v, 4, args.depth, args.seed)
        values = np.random.default_rng([args.seed & ((1 << 64) - 1), 1]).integers(
            0, 256, size=args.v
        )
        img = vvar.decode(fractalgen.skeleton_to_code(skeleton, values, args.depth))
    _write_atomic(args.output, save_pgm(img))
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parse_args leaves it as it was."""
    parser = _Parser(prog="vvcodec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("vv-encode", help="compress a PGM into a VVC1 file")
    enc.add_argument("input")
    enc.add_argument("output")
    enc.add_argument("--v", type=int, required=True, help="cluster budget V")
    enc.add_argument("--seed", type=int, default=0)
    enc.add_argument("--restarts", type=int, default=5)
    enc.set_defaults(func=cmd_vv_encode)

    dec = sub.add_parser("vv-decode", help="decode a VVC1 file to PGM")
    dec.add_argument("input")
    dec.add_argument("output")
    dec.set_defaults(func=cmd_vv_decode)

    fb = sub.add_parser(
        "fbc",
        help="block-code a PGM (input P5) or decode an FBC1 file (input FBC1)",
    )
    fb.add_argument("input")
    fb.add_argument("output")
    fb.add_argument("--small", type=int, default=None, help="small block side")
    fb.add_argument("--iters", type=int, default=10, help="decode iterations")
    fb.set_defaults(func=cmd_fbc)

    ps = sub.add_parser("psnr", help="print mse,psnr_db for two PGM images")
    ps.add_argument("a")
    ps.add_argument("b")
    ps.set_defaults(func=cmd_psnr)

    fr = sub.add_parser("fractal", help="interval-set and typed-square demos")
    frsub = fr.add_subparsers(dest="demo", required=True)
    cantor = frsub.add_parser("cantor", help="middle-third approximant CSV")
    cantor.add_argument("--n", type=int, required=True)
    codetree = frsub.add_parser(
        "codetree", help="two-type gap-family approximant CSV"
    )
    codetree.add_argument("--n", type=int, required=True)
    vsquare = frsub.add_parser(
        "vsquare", help="render a typed square from a matrix or a random skeleton"
    )
    vsquare.add_argument("output")
    vsquare.add_argument("--matrix", default=None, help="coding matrix file")
    vsquare.add_argument("--v", type=int, default=None, help="number of types")
    vsquare.add_argument("--seed", type=int, default=0)
    vsquare.add_argument("--depth", type=int, default=9)
    fr.set_defaults(func=cmd_fractal)

    tab = sub.add_parser(
        "table", help="rate/distortion table at V = 1, 4, ..., 1024"
    )
    tab.add_argument("input")
    tab.add_argument("--seed", type=int, default=0)
    tab.add_argument("--restarts", type=int, default=5)
    tab.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"vvcodec: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"vvcodec: corrupt input: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"vvcodec: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"vvcodec: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
