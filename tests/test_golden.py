"""Bit-exact digests of seeded encodes and decodes: the equality oracle for
changes that must leave the VVC1 and FBC1 output, the decoded images and
the fractal demos' output unchanged."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import adversarial_image, random_vvar_code
from vvcodec import cli, fbc, vvar
from vvcodec import fractalgen as fg
from vvcodec.imaging import PixelImage, save_pgm

# SHA-256 of vvar.serialize(vvar.encode(image A, V, **ENCODE_OPTS))
VV_DIGESTS = {
    4: "2bde34fdcceb2147324dae2afaea7023020f37c63c3ebe1145b9dacad7f9b868",
    64: "eb701d2659f4ce45340aa0332680dd08b1cdb0da8c9b2185ada7ac366d12f852",
    256: "5f0d15969d302d05a9e1ae4bb8a133f84c4ddf7b407ceae0f885483e5e0d59b5",
    1024: "dcd053d989e5ab76ba5c26d400f2b90fcc4ceaa7ee688851215aaaee2ca06c9d",
}
# SHA-256 of vvar.serialize(vvar.encode(image A, V)) at the library defaults,
# which are the options `vv-encode`, `table` and the benchmark run
VV_DEFAULT_DIGESTS = {
    1: "6f27e16d32f80e3788f64061bb75063df4b272c47cb10899851f32394bd28a5c",
    4: "3c278cf79def6bf19867e156e95ba54180e525c69e394fa34f0afdd32136cf30",
    16: "b5a3b94f90782efa5c1a01bb8c650e878c78efc7d4e2a977497ae4dd40f77854",
    64: "ede2cbd982ff26448f972acfed81065f15bf6056dc3315e228cff6dc29f20310",
    256: "180aa629461a17198d0d7bf3ba8c2d01b7ca63e13cafbe56c1df425efb58344e",
    1024: "fae035389490a1f65f20e2f555e150795a89d222c717125dd28fed9abc3eed95",
}
# SHA-256 of vvar.serialize(vvar.encode(image, V)) at the library defaults,
# keyed by (image name, V), "b" being image B and the others
# adversarial_image(name, 256): streams on which Lloyd's exact-tie rescores
# and empty-cluster repairs fire. The b and dither streams differ under the
# Nehalem and Katmai kernels, whose full pass rounds some scores otherwise
VV_TIE_DIGESTS = {
    ("b", 1024): "e5172a3d09409c793bebcfe709ec719312796cbc15b7935ed6faac495b235a75",
    ("dither", 256): "568d54a6241240b0d725978a7c72da3189ee39321e8ffd951321622b94812ce9",
    ("dither", 1024): "471848213561cf8dcc89b837b846372608266aa119315232ffe5acb361f48984",
    ("two-level", 256): "d126bc71f2bbaa15ef683e80c3fc002e462b3623a5495aedaaf365c0f851ae54",
    ("two-level", 1024): "ae1d336d4fa8275a855653c62f72990a136dceaafa59aa12f55252b53201af5d",
    ("gradient", 256): "4d24014cc6df44b0cfa6d573934310faae44159ff905613dee94b4b863ec8035",
    ("gradient", 1024): "c07e43ef273305a6b2ba61ef42cce83af3372b49b537374fdb4914908ab02b02",
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
# FbcParams(s))), "b-crop" being image B's top-left 256 x 256 pixels: inputs
# on which the search's bounds rule out little. The constant,
# two-level and mixed digests were pinned from the dense search before it
# was pruned; the others from the search that scored the union of a tile's
# surviving domains
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
    ("dither", 4): "84514b7765bfd84c65e97af0c4114f380030f7f1584f908f828856e5024fa72e",
    ("dither", 8): "41193bdbfff22daa8deb2996296b9d0f33b44cda2e18d0054cf5fbcce3514011",
    ("dither", 16): "72e0e60aee8e22bbf514f554babed6b8f3d32ec85993f924b0442279a72da2af",
    ("noise", 4): "5f2e8ff571e2293c5020a60e984544fc6841e11fa1c343d986e75d7144739593",
    ("noise", 8): "3597e1a1e22f78832341297f0b35dbd41c3ee9b4c2bbc7b45929d5290ece15b6",
    ("noise", 16): "780a25f57d9d1b37a9008d6dcb4d9e76b92e88f7cf03873f3f0c5e49c8592d6b",
    ("gradient", 4): "0db29a417f186846c73ff2a50ad97cb5678279eea522187c0864c5ffd021160c",
    ("gradient", 8): "dea0283443c1c83f11a9090f60fa6d5f5b596499f88ac94d11ed76dbc260c160",
    ("gradient", 16): "bcf2bfde5886d0cd021c90286d215fac5890c1de7f85939539715720a3a0fdba",
    ("b-crop", 2): "4ace17042eaba58916e0dc3358db2f763cd5c951cd4d9f59300e6ce6892713cd",
}
# SHA-256 of save_pgm(vvar.decode(random_vvar_code(default_rng([V, depth]),
# V, depth))), keyed by (V, depth): the six benchmark V at depth 9, where the
# decoder folds every level, and V = 3, 255, 1023, where it folds one fewer,
# at depths 2, 6 and 12 where valid
DECODE_DIGESTS = {
    (1, 9): "4a1cab9ad84b65ac89d950dff49728d032ba86c3b899243feea8162f6f1d92d3",
    (4, 9): "3eb507977431514217503ef22544ac838bf37c0cf95872a908b8c1c255139599",
    (16, 9): "8de3e15bd37c2908cb8397d954a96bfee7b575d582df70aa0ada1b5eaf19399c",
    (64, 9): "59f84a83c51f7c7b3607ad3efe6f6d93eaa066d21cdf75c3f8f77d22fedcf571",
    (256, 9): "a7f359a7ca51d5e9799fcc4969e949827d49081c53ef28d5b00e8eaea9bad762",
    (1024, 9): "eac71f0eda47b7147c575424f468e41a40fa464f43cacc0fe807f7d6a853dc4b",
    (3, 2): "233064d09cebeb1d11ed30ce40aa7f95f2c85c33bc25c67de94779150b302f6e",
    (3, 6): "b3c7bff54eada50d768a428dbba2f6241d12d9529eefe55de0e91f0aea3d1892",
    (3, 12): "39b597db1b56b67a1894b603146ae8c225345ec1e0765379a40234bd539c6e92",
    (255, 6): "ebf984fb9ed04417c0814db6de235d5853258dd8c59028007f9e4d3f3486fa06",
    (255, 12): "fafc688e044e4aad96b86440e8bd00cbb3b7e9fc5e440cf520a79dd1a8e30360",
    (1023, 6): "b95639d55bf799d6bed73d1abf6ce343ba6ce252ef87e1195547d54d5a3d662f",
    (1023, 12): "841a6bdbd44d93ffbd5c138b9b54dc1af6240b945566cf406936492344476be2",
}

# SHA-256 of save_pgm(fbc.fbc_decode(code)) for the FBC_DIGESTS code of
# image B at small size s, decoded at the default 10 iterations from 128
FBC_DECODE_DIGESTS = {
    4: "fe079a2c892dd135fd75a8846a429455b7fb933244401e04c5626392e5dc4831",
    8: "bb49f26b95c03035e7b2d49639e5fdc6fa2bbc8c456b25be783f9dc398b8f5da",
    16: "88f103513914ee681168ccfa51e77b42b50e349db485102c0380e558b958c962",
}
# SHA-256 of the stdout of `fractal DEMO --n N`, keyed by (DEMO, N); the
# code-tree demo stores 4 levels
FRACTAL_DIGESTS = {
    ("cantor", 0): "8d66c089414bb76bc2ee5c11465c93257821752b4e08be4f1d70737b9fa10f0c",
    ("cantor", 1): "61d2e0d265d73ab1353ed0c1f81af98a359dedf96556a7ffbef21439efcc7dbd",
    ("cantor", 5): "3149a4177b74610833507bfede05bcd3f29b773212a4cd40904dfdaf7756883b",
    ("cantor", 12): "fdcd9c75608e38b3ab5e33fec2031902ecae82628b92b336c3fb4c28a2e6ab5f",
    ("codetree", 0): "8d66c089414bb76bc2ee5c11465c93257821752b4e08be4f1d70737b9fa10f0c",
    ("codetree", 1): "bf65e320467e93a019deba9da6ec87741158efc5bd3e129bb9068d823f3932a5",
    ("codetree", 2): "ccab737c51b8e6970fbef8098de57a3b7164d433c6c317b035648e195dbbd0c6",
    ("codetree", 3): "6e2c38188e5758542b6e2d7cd27ea233835d8a99ddde5acf12497348309b1ed7",
    ("codetree", 4): "e776b6028dc9bc6c5f6dcdd48fb77179263781a75eb876c32633d51d7960c003",
}
# SHA-256 over 40 seeded skeletons passed to skeleton_to_code (see
# test_skeleton_to_code_digest): each case adds its VVC1 stream and decoded
# PGM, or the message of the ValueError it raises
SKELETON_DIGEST = "8730c6e7efb7cf2fe996235a9f9bea8065b6c2a1a83a371c9ad670326b9fcf4f"

TESTS_DIR = Path(__file__).resolve().parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("v", sorted(VV_DIGESTS))
def test_vvc1_digest(vv_codes, v):
    code, _ = vv_codes[("a", v)]
    assert sha256(vvar.serialize(code)) == VV_DIGESTS[v]


@pytest.mark.parametrize("v", sorted(VV_DEFAULT_DIGESTS))
def test_vvc1_default_options_digest(image_a, v):
    code = vvar.encode(image_a, v)
    assert sha256(vvar.serialize(code)) == VV_DEFAULT_DIGESTS[v]


@pytest.mark.parametrize("name,v", sorted(VV_TIE_DIGESTS))
def test_vvc1_tie_digest(image_b, name, v):
    img = image_b if name == "b" else adversarial_image(name, 256)
    code = vvar.encode(img, v)
    assert sha256(vvar.serialize(code)) == VV_TIE_DIGESTS[(name, v)]


@pytest.mark.parametrize("v,depth", sorted(DECODE_DIGESTS))
def test_decode_digest(v, depth):
    code = random_vvar_code(np.random.default_rng([v, depth]), v=v, depth=depth)
    assert sha256(save_pgm(vvar.decode(code))) == DECODE_DIGESTS[(v, depth)]


@pytest.fixture(scope="module")
def fbc_golden_codes(fbc_codes, image_a, image_b):
    """Dict (image name, small size) -> code for every FBC_DIGESTS key. s=4
    is encoded here, not in the session fixture: criterion 8 decodes all
    of that fixture's entries."""
    codes = {key: code for key, (code, _) in fbc_codes.items()}
    for name, img in (("a", image_a), ("b", image_b)):
        codes[(name, 4)] = fbc.fbc_encode(img, fbc.FbcParams(4))
    return codes


def test_fbc1_digest(fbc_golden_codes):
    got = {key: sha256(fbc.serialize(fbc_golden_codes[key])) for key in FBC_DIGESTS}
    assert got == FBC_DIGESTS


@pytest.mark.parametrize("s", sorted(FBC_DECODE_DIGESTS))
def test_fbc1_decode_digest(fbc_golden_codes, s):
    image = fbc.fbc_decode(fbc_golden_codes[("b", s)])
    assert sha256(save_pgm(image)) == FBC_DECODE_DIGESTS[s]


def test_fbc1_adversarial_digest(image_b):
    got = {}
    for name, s in FBC_ADVERSARIAL_DIGESTS:
        if name == "b-crop":
            img = PixelImage(image_b.data[:256, :256])
        else:
            img = adversarial_image(name, 256)
        code = fbc.fbc_encode(img, fbc.FbcParams(s))
        got[(name, s)] = sha256(fbc.serialize(code))
    assert got == FBC_ADVERSARIAL_DIGESTS


@pytest.mark.parametrize("demo,n", sorted(FRACTAL_DIGESTS))
def test_fractal_intervals_digest(capsys, demo, n):
    assert cli.main(["fractal", demo, "--n", str(n)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == FRACTAL_DIGESTS[(demo, n)]


def test_skeleton_to_code_digest():
    # V 1..70 at depths 2..7, up to V = 4**(depth-1), which the codec
    # refuses; half the skeletons leave types unused and zero three slots,
    # reached or not; some carry a column beyond the depth
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for _ in range(40):
        depth = int(rng.integers(2, 8))
        v = int(rng.integers(1, min(70, 4 ** (depth - 1)) + 1))
        cols = depth + int(rng.integers(0, 2))
        entries = rng.integers(1, v + 1, (4 * v, cols))
        if rng.integers(2):
            entries = np.minimum(entries, int(rng.integers(1, v + 1)))
            entries[rng.integers(4 * v, size=3), rng.integers(cols, size=3)] = 0
        values = rng.integers(0, 256, v)
        skeleton = fg.SkeletonMatrix(v=v, m=4, entries=entries)
        try:
            code = fg.skeleton_to_code(skeleton, values, depth)
        except ValueError as exc:
            digest.update(str(exc).encode())
        else:
            digest.update(vvar.serialize(code) + save_pgm(vvar.decode(code)))
    assert digest.hexdigest() == SKELETON_DIGEST


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
