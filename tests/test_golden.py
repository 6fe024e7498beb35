"""Bit-exact digests of seeded encodes: the equality oracle for changes that
must leave the VVC1 and FBC1 output unchanged."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import adversarial_image
from vvcodec import fbc, vvar

# SHA-256 of vvar.serialize(vvar.encode(image A, V, **ENCODE_OPTS))
VV_DIGESTS = {
    4: "2bde34fdcceb2147324dae2afaea7023020f37c63c3ebe1145b9dacad7f9b868",
    64: "eb701d2659f4ce45340aa0332680dd08b1cdb0da8c9b2185ada7ac366d12f852",
    256: "5f0d15969d302d05a9e1ae4bb8a133f84c4ddf7b407ceae0f885483e5e0d59b5",
    1024: "dcd053d989e5ab76ba5c26d400f2b90fcc4ceaa7ee688851215aaaee2ca06c9d",
}
# SHA-256 of fbc.serialize(fbc.fbc_encode(image, FbcParams(s))), keyed by
# (image name, small size s)
FBC_DIGESTS = {
    ("a", 4): "4b8984424bb663a48773279ae209a301cd683d41f6233254215003647f5fa18e",
    ("a", 8): "9805145a9f0665a893d3ec5a2f4b28c7b02edeb0eeb8520a51536cd1d88ee54f",
    ("a", 16): "373ef919daa9ccc16abdc261b0cfb26586b31b628ec96a9f522b2ec6bf8bf042",
    ("b", 4): "4e5e3c4b85f293a122c7b468600ae5f3b695dfd5fb4f5cdaaa73ec7bbb05d50e",
    ("b", 8): "0e0c74fcf6ef174bf2c851633ef9319ba6aafae903504094983eb04cbfb17c39",
    ("b", 16): "8c2e53ba4c66c1c5b96784e2b28b54737df3c1f990c91403a8bb0c87dc39efbe",
}
# SHA-256 of fbc.serialize(fbc.fbc_encode(adversarial_image(name, 256),
# FbcParams(s))): inputs on which the search's bounds rule out little,
# pinned from the dense search before it was pruned
FBC_ADVERSARIAL_DIGESTS = {
    ("constant", 4): "74b494e23190caaf9f7b8d158e73b9c5cc2e508c69e4a427dac83528de878866",
    ("constant", 8): "d1620380682380ac0db6609054b900b0d04d49cbdb3aeb7605c51cd50b534a85",
    ("constant", 16): "a8ead191d1c01341897b4252d401ed48f1aa4b1df68e772106574811e15847cf",
    ("two-level", 4): "c73803aaab127a613aaa82a386d522278564c29b2df8e9a4bf7d2ae3083e5008",
    ("two-level", 8): "afacdd637a095868cd2719658a78ecf4c31f127a57caef587223d6b74e151e6d",
    ("two-level", 16): "2be0639ff626b02e240b81133166d29165f6e1b3ce64a9c22285b38e3a51ce37",
    ("mixed", 4): "af35baa97942597bbc7395823fb4aef7d788bd2a31fe0106bfbfc5ff530c2731",
    ("mixed", 8): "632ceeae109a089cb2cc92e46380384c4d2adf156eaa3d00741fa3cb0605f43a",
    ("mixed", 16): "138961bbf07cea097319744279d4765a5adace538b41ea7aff32baf22de55fb1",
}

TESTS_DIR = Path(__file__).resolve().parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("v", sorted(VV_DIGESTS))
def test_vvc1_digest(vv_codes, v):
    code, _ = vv_codes[("a", v)]
    assert sha256(vvar.serialize(code)) == VV_DIGESTS[v]


def test_fbc1_digest(fbc_codes, image_a, image_b):
    images = {"a": image_a, "b": image_b}
    got = {}
    for key in FBC_DIGESTS:
        name, s = key
        if key in fbc_codes:
            code, _ = fbc_codes[key]
        else:  # s=4 is not in the fixture: criterion 8 decodes all its entries
            code = fbc.fbc_encode(images[name], fbc.FbcParams(s))
        got[key] = sha256(fbc.serialize(code))
    assert got == FBC_DIGESTS


def test_fbc1_adversarial_digest():
    got = {}
    for name, s in FBC_ADVERSARIAL_DIGESTS:
        code = fbc.fbc_encode(adversarial_image(name, 256), fbc.FbcParams(s))
        got[(name, s)] = sha256(fbc.serialize(code))
    assert got == FBC_ADVERSARIAL_DIGESTS


def test_digest_independent_of_blas_threads():
    """A single-threaded BLAS gives the same V=1024 and FBC s=4 streams as the
    pinned ones. The FBC search prunes with a float32 matmul whose rounding
    may follow the thread count; its output must not."""
    script = (
        "import hashlib\n"
        "from conftest import ENCODE_OPTS, adversarial_image\n"
        "from conftest import make_image_a, make_image_b\n"
        "from vvcodec import fbc, vvar\n"
        "code = vvar.encode(make_image_a(), 1024, **ENCODE_OPTS)\n"
        "print(hashlib.sha256(vvar.serialize(code)).hexdigest())\n"
        "code = fbc.fbc_encode(make_image_b(), fbc.FbcParams(4))\n"
        "print(hashlib.sha256(fbc.serialize(code)).hexdigest())\n"
        "code = fbc.fbc_encode(adversarial_image('mixed', 256), fbc.FbcParams(4))\n"
        "print(hashlib.sha256(fbc.serialize(code)).hexdigest())\n"
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
    assert proc.stdout.split() == [
        VV_DIGESTS[1024],
        FBC_DIGESTS[("b", 4)],
        FBC_ADVERSARIAL_DIGESTS[("mixed", 4)],
    ]
