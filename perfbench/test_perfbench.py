"""Tests of the benchmark's own inputs, output checks and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from vvcodec import vvar  # noqa: E402
from vvcodec.imaging import PixelImage  # noqa: E402


def _conftest():
    spec = importlib.util.spec_from_file_location(
        "vvcodec_tests_conftest", ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patch_sites():
    return [(m, a) for _, sites, _, _ in tracing.TRACED for m, a in sites]


def test_default_seed_reproduces_conftest_images():
    conftest = _conftest()
    assert np.array_equal(inputs.make_image_a(0).data, conftest.make_image_a().data)
    assert np.array_equal(inputs.make_image_b(0).data, conftest.make_image_b().data)


def test_odd_seed_negates_images():
    for make in (inputs.make_image_a, inputs.make_image_b):
        assert np.array_equal(make(7).data, 255 - make(0).data)
        assert np.array_equal(make(2).data, make(0).data)
    with pytest.raises(ValueError):
        inputs.make_image_a(-1)


@pytest.mark.parametrize("v", run.V_LADDER)
def test_random_codes_are_seeded_depth_9_streams(v):
    code = inputs.random_vvar_code(np.random.default_rng(3), v)
    assert code == inputs.random_vvar_code(np.random.default_rng(3), v)
    assert code.depth == 9
    blob = vvar.serialize(code)
    assert len(blob) - vvar.HEADER_BYTES == run.VV_PAYLOAD[v]
    assert vvar.deserialize(blob) == code


def test_decode_check_rejects_wrong_output(tmp_path):
    cmd = run.build_vv_decode(0, tmp_path)[2]
    elapsed, status, stdout, _ = run.run_command(cmd, None)
    assert status == 0 and elapsed > 0
    assert cmd.check(stdout)["payload_bytes"] == run.VV_PAYLOAD[16]
    out = Path(cmd.argv[2])
    out.write_bytes(out.read_bytes()[:-1] + b"\x00")
    with pytest.raises(run.CheckError):
        cmd.check(stdout)
    with pytest.raises(run.CheckError):
        cmd.check("1,2.0000,3.0000\n")


def test_parse_row_rejects_malformed_rows():
    assert run._parse_row("44,20.1234,5957.8182\n") == (44, "20.1234")
    for row in ("", "44,20.1\n1,2,3\n", "44,20.1234\n", "x,1,2\n", "44,20.1,1.0\n"):
        with pytest.raises(run.CheckError):
            run._parse_row(row)


def test_traced_command_spans_nest_and_originals_return(tmp_path):
    originals = [getattr(m, a) for m, a in _patch_sites()]
    cmd = run.build_vv_decode(0, tmp_path)[1]
    tracer = tracing.Tracer()
    _, status, stdout, _ = run.run_command(cmd, tracer)
    assert status == 0
    cmd.check(stdout)
    assert all(getattr(m, a) is f for (m, a), f in zip(_patch_sites(), originals))
    root, *children = tracer.spans
    assert root.name == "cli.main" and root.parent == -1
    assert {s.name for s in children} == {
        "vvar.deserialize", "vvar.decode", "imaging.save_pgm"
    }
    assert all(s.parent == 0 and root.start <= s.start <= s.end <= root.end
               for s in children)
    own = tracing.self_times(tracer.spans)
    assert own[0] == pytest.approx(root.duration - sum(s.duration for s in children))
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["bitpack.bits_read"] == 8 * run.VV_PAYLOAD[4]
    assert layers["clustering.calls"] == 0


def test_kmeans_spans_count_levels_and_iteration_limit_hits():
    rng = np.random.default_rng(5)
    img = PixelImage(rng.integers(0, 256, (16, 16)).astype(np.uint8))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        vvar.encode(img, 4, restarts=1, max_iterations=1)
    finally:
        tracer.restore()
    layers = tracing.layer_metrics(tracer.spans)
    # depth 4, V=4: levels 2 and 3 plus the single-pixel leaf level
    assert layers["clustering.calls"] == 3
    assert layers["clustering.iterations.leaf"] == 1
    assert layers["clustering.max_iter_hits"] == 3
    assert layers["clustering.peak_alloc_mib"] > 0
    assert layers["imaging.blocks_s"] > 0
    assert 0 < layers["vvar.encode_self_s"] < tracer.spans[0].duration
