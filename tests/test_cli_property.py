"""Property test: whatever argv and input files it is given, the CLI ends
with exit 0, 1, 2 or 3, never raises, and leaves no file behind when it
fails."""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import byte_mutations, random_vvar_code
from vvcodec import cli, fbc, vvar
from vvcodec.imaging import PixelImage, save_pgm

CLI_FUZZ = settings(settings.get_profile("fuzz"), max_examples=1000)


def _matrix_text(rng: np.random.Generator, v: int, depth: int) -> bytes:
    """A valid coding matrix for `vsquare --matrix` (V a power of 4)."""
    n0 = vvar.compute_n0(v, depth)
    labels = rng.integers(1, v + 1, (4 * v, depth - n0 - 1))
    leaves = np.full((4 * v, 1), 7) if v == 1 else rng.integers(0, 256, (4 * v, 1))
    rows = np.hstack([labels, leaves])
    return "\n".join(" ".join(map(str, row)) for row in rows).encode()


def _input_files() -> dict[str, list[bytes]]:
    """Valid 8x8 and 16x16 PGM, FBC1 and VVC1 files, and coding matrices."""
    rng = np.random.default_rng(3)
    images = [PixelImage(rng.integers(0, 256, (side, side))) for side in (8, 16)]
    return {
        "pgm": [save_pgm(img) for img in images],
        "fbc1": [
            fbc.serialize(fbc.fbc_encode(img, fbc.FbcParams(s)))
            for img in images for s in (2, 4)
        ],
        "vvc1": [
            vvar.serialize(random_vvar_code(rng, v=v, depth=depth))
            for v, depth in ((1, 3), (3, 3), (4, 4), (17, 4))
        ],
        # a one-column grid has no label column, so no depth the codec holds
        "matrix": [
            _matrix_text(rng, v, depth) for v, depth in ((1, 3), (4, 3), (4, 4))
        ] + [b"1\n2\n3\n4"],
    }


FILES = _input_files()
BEYOND_INT64 = st.one_of(
    st.integers(min_value=2 ** 63), st.integers(max_value=-(2 ** 63) - 1)
)


ENTRIES = st.one_of(st.integers(-1, 256), BEYOND_INT64)
BLANK = ["", " \t"]


@st.composite
def matrix_files(draw):
    """A coding matrix drawn by shape: V = 1, a power of 4 or not; one column
    (leaves only) or more; now and then entries out of range or beyond
    int64, a ragged row or blank lines."""
    v = draw(st.sampled_from([1, 4, 16, 2, 3, 5]))
    width = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.integers(1, v + 1, (4 * v, width - 1))
    leaves = np.full((4 * v, 1), 7) if v == 1 else rng.integers(0, 256, (4 * v, 1))
    rows = np.hstack([labels, leaves]).tolist()
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, 4 * v - 1))]
        row[draw(st.integers(0, width - 1))] = draw(ENTRIES)
    if draw(st.integers(0, 3)) == 0:  # one row an entry short or long
        row = rows[draw(st.integers(0, 4 * v - 1))]
        if draw(st.booleans()):
            row.append(1)
        else:
            row.pop()
    lines = [" ".join(map(str, row)) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK)))
    return "\n".join(lines).encode()


def contents(*kinds: str):
    """One of the files of these kinds, as it is or with bytes overwritten."""
    files = [blob for kind in kinds for blob in FILES[kind]]
    return st.one_of(st.sampled_from(files), byte_mutations(files))


# the files each command reads (the two demos read none); one time in four
# it gets any file
READS = {
    "vv-encode": contents("pgm"),
    "vv-decode": contents("vvc1"),
    "fbc": contents("pgm", "fbc1"),
    "psnr": contents("pgm"),
    "table": contents("pgm"),
    "cantor": contents(*FILES),
    "codetree": contents(*FILES),
    "vsquare": st.one_of(matrix_files(), contents("matrix")),
}
GARBAGE = ["", "x", "1.5", "0x10", "--v"]
# small, negative and garbage values; flags whose size sets the run time
# (--restarts, --iters, --n) never get a large one
SMALL_VALUES = [str(i) for i in range(-2, 7)] + GARBAGE
SMALL = st.sampled_from(SMALL_VALUES)
ANY_SIZE = st.sampled_from(SMALL_VALUES + [str(2 ** 31), str(2 ** 64), str(10 ** 24)])
# path placeholders: an input file, a second one, the output, a missing
# file, a path under a missing directory, and the directory itself
PATHS = {
    "IN": "in", "IN2": "in2", "OUT": "out", "MISSING": "missing",
    "NODIR": os.path.join("nodir", "out"), "DIR": "",
}
SOURCES = ["IN"] * 4 + ["MISSING", "NODIR", "DIR"]
OUTPUTS = ["OUT"] * 4 + ["MISSING", "NODIR", "DIR"]


@st.composite
def cli_cases(draw):
    """Two input files and a command line, with optional flags, over every
    subcommand."""
    command = draw(st.sampled_from(list(READS)))
    files = [
        draw(READS[command] if draw(st.integers(0, 3)) else contents(*FILES))
        for _ in range(2)
    ]
    src, out = draw(st.sampled_from(SOURCES)), draw(st.sampled_from(OUTPUTS))

    def flags(**values):
        argv = []
        for name, strategy in values.items():
            if draw(st.booleans()):
                argv += [f"--{name}", draw(strategy)]
        return argv

    if command == "vv-encode":
        argv = [command, src, out, "--v", draw(ANY_SIZE)]
        argv += flags(seed=ANY_SIZE, restarts=SMALL)
    elif command == "vv-decode":
        argv = [command, src, out]
    elif command == "fbc":
        argv = [command, src, out] + flags(small=ANY_SIZE, iters=SMALL)
    elif command == "psnr":
        argv = [command, src, draw(st.sampled_from(SOURCES + ["IN2"]))]
    elif command == "table":
        argv = [command, src] + flags(seed=ANY_SIZE, restarts=SMALL)
    elif command in ("cantor", "codetree"):
        argv = ["fractal", command, "--n", draw(SMALL)]
    else:
        argv = ["fractal", command, out]
        if draw(st.integers(0, 2)):
            argv += ["--matrix", src]
        argv += flags(v=ANY_SIZE, seed=ANY_SIZE, depth=ANY_SIZE)
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(GARBAGE)))
    return files, argv


def vsquare_matrix(text: bytes):
    """`fractal vsquare OUT --matrix IN` on the matrix `text`."""
    return [text, b""], ["fractal", "vsquare", "OUT", "--matrix", "IN"]


# half the cases render a drawn matrix, so the shapes the codec cannot hold
# come up often; the examples pin those that once failed: one column (an
# IndexError), V=1 with unequal leaves (exit 3), an entry beyond int64 (an
# OverflowError)
@CLI_FUZZ
@given(st.one_of(cli_cases(), st.builds(vsquare_matrix, matrix_files())))
@example(vsquare_matrix(b"1\n2\n3\n4"))
@example(vsquare_matrix(b"1 1 7\n1 1 8\n1 1 7\n1 1 7\n"))
@example(vsquare_matrix(b"1 1 1\n1 1 1\n1 1 1\n99999999999999999999 1 7\n"))
def test_cli_exits_with_a_documented_code(case):
    files, argv = case
    with tempfile.TemporaryDirectory() as root:
        for name, blob in zip(("in", "in2"), files):
            with open(os.path.join(root, name), "wb") as handle:
                handle.write(blob)
        argv = [os.path.join(root, PATHS[a]) if a in PATHS else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        assert status in (0, 1, 2, 3)
        if status:
            assert stderr.getvalue().startswith("vvcodec: ")
        # the output goes to "out" or "missing"; a failure leaves nothing
        written = set(os.listdir(root)) - {"in", "in2"}
        assert written <= ({"out", "missing"} if status == 0 else set())
