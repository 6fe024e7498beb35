import hashlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import DEMO_ADDRESS, DEMO_MATRIX, constant_image
from vvcodec import cli, fbc, load_pgm, save_pgm, vvar
from vvcodec.imaging import PixelImage


@pytest.fixture(scope="session")
def image_a_path(tmp_path_factory, image_a):
    path = tmp_path_factory.mktemp("cli") / "a.pgm"
    path.write_bytes(save_pgm(image_a))
    return path


@pytest.fixture()
def small_image_path(tmp_path):
    rng = np.random.default_rng(0)
    img = PixelImage(rng.integers(0, 256, (32, 32)))
    path = tmp_path / "small.pgm"
    path.write_bytes(save_pgm(img))
    return path


def run_cli(capsys, *argv):
    status = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return status, out.out, out.err


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_calls_keep_each_subcommand_defaults(
        self, capsys, monkeypatch, small_image_path, image_a_path, tmp_path
    ):
        seen = []

        def fake_encode(img, v, *, seed, restarts):
            seen.append((seed, restarts))
            raise ValueError("stop")

        def fake_params(small, iters):
            seen.append(iters)
            raise ValueError("stop")

        monkeypatch.setattr(vvar, "encode", fake_encode)
        monkeypatch.setattr(fbc, "FbcParams", fake_params)
        out = tmp_path / "o"
        calls = [
            ("vv-encode", small_image_path, out, "--v", 4, "--seed", 7,
             "--restarts", 2),
            ("table", image_a_path),
            ("vv-encode", small_image_path, out, "--v", 4),
            ("table", image_a_path, "--seed", 3),
            ("fbc", small_image_path, out, "--small", 4, "--iters", 3),
            ("fbc", small_image_path, out, "--small", 4),
        ]
        for argv in calls:
            assert run_cli(capsys, *argv)[0] == 1
        assert seen == [(7, 2), (0, 5), (0, 5), (3, 5), 3, 10]


class TestVvEncodeDecode:
    def test_reports_payload_psnr_ratio(self, capsys, image_a_path, tmp_path):
        out_vvc = tmp_path / "a.vvc"
        status, out, _ = run_cli(
            capsys, "vv-encode", image_a_path, out_vvc, "--v", 64,
            "--restarts", 1,
        )
        assert status == 0
        payload, psnr, ratio = out.strip().split(",")
        assert payload == "1216"
        assert float(ratio) == pytest.approx(215.6, abs=0.05)
        assert float(psnr) > 20

        out_pgm = tmp_path / "a_dec.pgm"
        status, _, _ = run_cli(capsys, "vv-decode", out_vvc, out_pgm)
        assert status == 0
        assert load_pgm(out_pgm.read_bytes()).depth == 9

    def test_v1_constant_output(self, capsys, small_image_path, tmp_path):
        out_vvc = tmp_path / "o.vvc"
        status, out, _ = run_cli(
            capsys, "vv-encode", small_image_path, out_vvc, "--v", 1
        )
        assert status == 0
        assert out.strip().split(",")[0] == "1"
        out_pgm = tmp_path / "o.pgm"
        run_cli(capsys, "vv-decode", out_vvc, out_pgm)
        decoded = load_pgm(out_pgm.read_bytes())
        assert len(np.unique(decoded.data)) == 1

    def test_v0_usage_error(self, capsys, small_image_path, tmp_path):
        status, _, err = run_cli(
            capsys, "vv-encode", small_image_path, tmp_path / "x.vvc", "--v", 0
        )
        assert status == 1 and err

    def test_no_output_file_on_error(self, capsys, small_image_path, tmp_path):
        out_vvc = tmp_path / "nope.vvc"
        status, _, _ = run_cli(
            capsys, "vv-encode", small_image_path, out_vvc, "--v", 100000
        )
        assert status == 1
        assert not out_vvc.exists()

    def test_truncated_vvc(self, capsys, small_image_path, tmp_path):
        out_vvc = tmp_path / "t.vvc"
        run_cli(capsys, "vv-encode", small_image_path, out_vvc, "--v", 4)
        (tmp_path / "trunc.vvc").write_bytes(out_vvc.read_bytes()[:12])
        status, _, _ = run_cli(
            capsys, "vv-decode", tmp_path / "trunc.vvc", tmp_path / "y.pgm"
        )
        assert status == 3

    def test_missing_input(self, capsys, tmp_path):
        status, _, _ = run_cli(
            capsys, "vv-decode", tmp_path / "missing.vvc", tmp_path / "y.pgm"
        )
        assert status == 2

    def test_demo_code_file_decodes_to_four_grays(self, capsys, demo_code, tmp_path):
        vvc = tmp_path / "demo.vvc"
        vvc.write_bytes(vvar.serialize(demo_code))
        out_pgm = tmp_path / "demo.pgm"
        status, _, _ = run_cli(capsys, "vv-decode", vvc, out_pgm)
        assert status == 0
        img = load_pgm(out_pgm.read_bytes())
        assert sorted(np.unique(img.data).tolist()) == [33, 37, 138, 171]

    def test_seeded_runs_are_byte_identical(self, capsys, small_image_path, tmp_path):
        first = tmp_path / "one.vvc"
        second = tmp_path / "two.vvc"
        run_cli(capsys, "vv-encode", small_image_path, first, "--v", 6, "--seed", 5)
        run_cli(capsys, "vv-encode", small_image_path, second, "--v", 6, "--seed", 5)
        assert first.read_bytes() == second.read_bytes()


class TestFbcCommand:
    def test_encode_decode_sizes(self, capsys, image_a_path, tmp_path):
        out_fbc = tmp_path / "a.fbc"
        status, out, _ = run_cli(
            capsys, "fbc", image_a_path, out_fbc, "--small", 16
        )
        assert status == 0
        assert out.strip().split(",")[0] == "2688"
        out_pgm = tmp_path / "a_fbc.pgm"
        status, _, _ = run_cli(capsys, "fbc", out_fbc, out_pgm)
        assert status == 0
        assert load_pgm(out_pgm.read_bytes()).depth == 9

    def test_small8_payload(self, capsys, image_a_path, tmp_path):
        status, out, _ = run_cli(
            capsys, "fbc", image_a_path, tmp_path / "b.fbc", "--small", 8
        )
        assert status == 0
        assert out.strip().split(",")[0] == "11776"

    def test_small_not_power_of_two(self, capsys, image_a_path, tmp_path):
        status, _, _ = run_cli(
            capsys, "fbc", image_a_path, tmp_path / "x.fbc", "--small", 7
        )
        assert status == 1

    def test_small_required_for_encoding(self, capsys, image_a_path, tmp_path):
        status, _, _ = run_cli(capsys, "fbc", image_a_path, tmp_path / "x.fbc")
        assert status == 1

    def test_garbage_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"neither")
        status, _, _ = run_cli(capsys, "fbc", bad, tmp_path / "y.pgm")
        assert status == 3

    def test_too_deep_stream_refused_before_decoding(
        self, capsys, tmp_path, monkeypatch
    ):
        # a depth-13, s=128 stream: a well-formed header and payload length
        def decode(*args, **kwargs):
            raise AssertionError("a depth-13 stream reached the decoder")

        monkeypatch.setattr(fbc, "fbc_decode", decode)
        deep = tmp_path / "deep.fbc"
        deep.write_bytes(fbc.MAGIC + bytes([fbc.VERSION, 13, 128]) + bytes(11776))
        out_pgm = tmp_path / "deep.pgm"
        status, _, err = run_cli(capsys, "fbc", deep, out_pgm)
        assert status == 3
        assert "exceeds 4096" in err
        assert not out_pgm.exists()

    def test_small_beyond_the_size_byte_refused_before_encoding(
        self, capsys, image_a_path, tmp_path, monkeypatch
    ):
        # 256/512 blocks divide a 512 side, but FBC1 stores the size in a byte
        def encode(*args, **kwargs):
            raise AssertionError("an unstorable block size reached the encoder")

        monkeypatch.setattr(fbc, "fbc_encode", encode)
        out_fbc = tmp_path / "big.fbc"
        status, _, err = run_cli(capsys, "fbc", image_a_path, out_fbc, "--small", 256)
        assert status == 1
        assert "exceeds 128" in err
        assert not out_fbc.exists()


@pytest.mark.parametrize(
    "encode, decode, header_bytes",
    [
        (("vv-encode", "--v", 4), "vv-decode", vvar.HEADER_BYTES),
        (("fbc", "--small", 4), "fbc", fbc.HEADER_BYTES),
    ],
    ids=["vv-encode", "fbc"],
)
def test_rate_row_describes_the_written_stream(
    capsys, small_image_path, tmp_path, encode, decode, header_bytes
):
    command, *options = encode
    stream, decoded = tmp_path / "o.bin", tmp_path / "o.pgm"
    status, out, _ = run_cli(capsys, command, small_image_path, stream, *options)
    assert status == 0
    payload, psnr, ratio = out.strip().split(",")
    assert run_cli(capsys, decode, stream, decoded)[0] == 0

    original = load_pgm(small_image_path.read_bytes()).data.astype(np.float64)
    diff = original - load_pgm(decoded.read_bytes()).data
    mse = float(np.mean(diff * diff))
    want = "inf" if mse == 0 else f"{10 * np.log10(255.0 ** 2 / mse):.4f}"
    assert int(payload) == stream.stat().st_size - header_bytes
    assert psnr == want
    assert ratio == f"{original.size / int(payload):.4f}"


class TestPsnrCommand:
    def test_identical(self, capsys, small_image_path, tmp_path):
        status, out, _ = run_cli(capsys, "psnr", small_image_path, small_image_path)
        assert status == 0
        assert out.strip() == "0.0000,inf"

    def test_extremes(self, capsys, tmp_path):
        a = tmp_path / "zero.pgm"
        b = tmp_path / "full.pgm"
        a.write_bytes(save_pgm(constant_image(0, depth=3)))
        b.write_bytes(save_pgm(constant_image(255, depth=3)))
        status, out, _ = run_cli(capsys, "psnr", a, b)
        mse, psnr = out.strip().split(",")
        assert float(mse) == 65025.0 and float(psnr) == 0.0


class TestFractalCommand:
    def test_cantor_rows(self, capsys):
        status, out, _ = run_cli(capsys, "fractal", "cantor", "--n", 4)
        assert status == 0
        rows = out.strip().splitlines()
        assert len(rows) == 16
        lo, hi = map(float, rows[0].split(","))
        assert hi - lo == pytest.approx(3.0 ** -4, abs=1e-12)

    def test_codetree_rows(self, capsys):
        status, out, _ = run_cli(capsys, "fractal", "codetree", "--n", 1)
        rows = out.strip().splitlines()
        assert status == 0 and len(rows) == 2
        assert float(rows[0].split(",")[1]) == pytest.approx(10 / 21, abs=1e-12)

    def test_vsquare_from_matrix(self, capsys, tmp_path, demo_image):
        matrix_file = tmp_path / "demo.txt"
        matrix_file.write_text(
            "\n".join(" ".join(str(x) for x in row) for row in DEMO_MATRIX)
        )
        out_pgm = tmp_path / "sq.pgm"
        status, _, _ = run_cli(
            capsys, "fractal", "vsquare", out_pgm, "--matrix", matrix_file
        )
        assert status == 0
        img = load_pgm(out_pgm.read_bytes())
        assert np.array_equal(img.data, demo_image.data)
        row = col = 0
        for d in DEMO_ADDRESS:
            row = 2 * row + (1, 0, 1, 0)[d - 1]
            col = 2 * col + (0, 0, 1, 1)[d - 1]
        assert img.data[row, col] == 138

    def test_vsquare_single_type_constant(self, capsys, tmp_path):
        out_pgm = tmp_path / "flat.pgm"
        status, _, _ = run_cli(
            capsys, "fractal", "vsquare", out_pgm, "--v", 1, "--depth", 5
        )
        assert status == 0
        img = load_pgm(out_pgm.read_bytes())
        assert len(np.unique(img.data)) == 1

    @pytest.mark.parametrize(
        "v,seed,depth,digest",
        [
            (4, 7, 9,
             "8709c407d7a4df6ae800556080c8698060b9d7d0417e47ce7ce9d3a8e5adb3b8"),
            (37, 3, 6,
             "3d9498b54e36820b8a62570b31449e02be73f29eb3de127f8f9af716327b87ab"),
            (1023, 11, 7,
             "2344c64766acc6f900a9b95f8dd3bc3a2feb4a52d58441663a05b984f3d247c7"),
        ],
    )
    def test_vsquare_random_skeleton_pinned(
        self, capsys, tmp_path, v, seed, depth, digest
    ):
        out_pgm = tmp_path / "sq.pgm"
        status, out, _ = run_cli(
            capsys, "fractal", "vsquare", out_pgm,
            "--v", v, "--seed", seed, "--depth", depth,
        )
        assert status == 0 and out == ""
        assert hashlib.sha256(out_pgm.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "entry", ["99999999999999999999", str(2 ** 63), str(-(2 ** 63) - 1)]
    )
    def test_vsquare_matrix_entry_beyond_int64(self, capsys, tmp_path, entry):
        matrix_file = tmp_path / "big.txt"
        matrix_file.write_text(f"1 1 1\n1 1 1\n1 1 1\n{entry} 1 7\n")
        out_pgm = tmp_path / "sq.pgm"
        status, out, err = run_cli(
            capsys, "fractal", "vsquare", out_pgm, "--matrix", matrix_file
        )
        assert status == 1 and out == ""
        assert err.startswith("vvcodec: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [matrix_file]

    def test_vsquare_needs_source(self, capsys, tmp_path):
        status, _, _ = run_cli(capsys, "fractal", "vsquare", tmp_path / "x.pgm")
        assert status == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--v", 2, "--depth", 13],
            ["--v", 16, "--depth", 2],
            ["--v", 1000000000, "--depth", 9],
            ["--v", 1, "--depth", 1],
        ],
    )
    def test_vsquare_refuses_codec_range(self, capsys, tmp_path, monkeypatch, argv):
        # refused before the 4V x depth skeleton is allocated
        def no_skeleton(*args):
            raise AssertionError("random_skeleton called")

        monkeypatch.setattr(cli.fractalgen, "random_skeleton", no_skeleton)
        out_pgm = tmp_path / "sq.pgm"
        status, out, err = run_cli(capsys, "fractal", "vsquare", out_pgm, *argv)
        assert status == 1 and out == "" and "out of range" in err
        assert list(tmp_path.iterdir()) == []


class TestTableCommand:
    def test_published_payload_column(self, capsys, image_a_path):
        status, out, _ = run_cli(
            capsys, "table", image_a_path, "--restarts", 1
        )
        assert status == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert [r[0] for r in rows] == ["1", "4", "16", "64", "256", "1024"]
        assert [r[1] for r in rows] == ["1", "44", "256", "1216", "5120", "19456"]
        ratio_64 = float(rows[3][3])
        assert ratio_64 == pytest.approx(215.6, abs=0.05)

    def test_wrong_size(self, capsys, small_image_path):
        status, _, _ = run_cli(capsys, "table", small_image_path)
        assert status == 1


def test_module_entry_point(tmp_path):
    img = tmp_path / "c.pgm"
    img.write_bytes(save_pgm(constant_image(50, depth=3)))
    proc = subprocess.run(
        [sys.executable, "-m", "vvcodec.cli", "psnr", str(img), str(img)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.0000,inf"
