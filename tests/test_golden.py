"""Bit-exact digests of seeded encodes: the equality oracle for changes that
must leave the VVC1 and FBC1 output unchanged."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vvcodec import fbc, vvar

# SHA-256 of vvar.serialize(vvar.encode(image A, V, **ENCODE_OPTS))
VV_DIGESTS = {
    4: "2bde34fdcceb2147324dae2afaea7023020f37c63c3ebe1145b9dacad7f9b868",
    64: "eb701d2659f4ce45340aa0332680dd08b1cdb0da8c9b2185ada7ac366d12f852",
    256: "5f0d15969d302d05a9e1ae4bb8a133f84c4ddf7b407ceae0f885483e5e0d59b5",
    1024: "dcd053d989e5ab76ba5c26d400f2b90fcc4ceaa7ee688851215aaaee2ca06c9d",
}
# SHA-256 of fbc.serialize(fbc.fbc_encode(image A, FbcParams(8)))
FBC_S8_DIGEST = "9805145a9f0665a893d3ec5a2f4b28c7b02edeb0eeb8520a51536cd1d88ee54f"

TESTS_DIR = Path(__file__).resolve().parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("v", sorted(VV_DIGESTS))
def test_vvc1_digest(vv_codes, v):
    code, _ = vv_codes[("a", v)]
    assert sha256(vvar.serialize(code)) == VV_DIGESTS[v]


def test_fbc1_digest(fbc_codes):
    code, _ = fbc_codes[("a", 8)]
    assert sha256(fbc.serialize(code)) == FBC_S8_DIGEST


def test_digest_independent_of_blas_threads():
    """A single-threaded BLAS gives the same V=1024 stream as the pinned one."""
    script = (
        "import hashlib\n"
        "from conftest import ENCODE_OPTS, make_image_a\n"
        "from vvcodec import vvar\n"
        "code = vvar.encode(make_image_a(), 1024, **ENCODE_OPTS)\n"
        "print(hashlib.sha256(vvar.serialize(code)).hexdigest())\n"
    )
    path = os.pathsep.join(
        [str(TESTS_DIR.parent / "src"), str(TESTS_DIR), os.environ.get("PYTHONPATH", "")]
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == VV_DIGESTS[1024]
