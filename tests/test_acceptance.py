"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report. The heavyweight encodes are shared session fixtures; their wall-clock
cost is recorded so the runtime budgets can be asserted alongside the
numerical tolerances.
"""

import itertools
import time

import numpy as np

from conftest import DEMO_ADDRESS, distinct_block_count, random_vvar_code
from vvcodec import fbc, fractalgen as fg, metrics, vvar
from vvcodec.clustering import ClusterOptions, kmeans
from vvcodec.imaging import PixelImage


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_payload_sizes(vv_codes):
    expected = {1: 1, 4: 44, 16: 256, 64: 1216, 256: 5120, 1024: 19456}
    ok = True
    elapsed = 0.0
    for v, want in expected.items():
        code, seconds = vv_codes[("a", v)]
        elapsed += seconds
        payload = len(vvar.serialize(code)) - 10
        ok = ok and payload == want == vvar.payload_size(v, 9)
    ok = ok and elapsed < 60.0
    _report(
        1,
        f"512x512 payloads exactly {sorted(expected.values())} bytes "
        f"(encodes took {elapsed:.1f}s < 60s)",
        ok,
    )


def test_criterion_2_fbc_payload_sizes(fbc_codes):
    bits16 = fbc.fbc_payload_bits(fbc_codes[("a", 16)][0])
    bits8 = fbc.fbc_payload_bits(fbc_codes[("a", 8)][0])
    ok = bits16 == 2688 * 8 and bits8 == 11776 * 8
    _report(2, "block-coding payloads exactly 2688 B (s=16) and 11776 B (s=8)", ok)


def test_criterion_3_reconstruction_oracle(demo_code, demo_image):
    ok = vvar.pixel_value(demo_code, DEMO_ADDRESS) == 138
    ok = ok and vvar.pixel_value(demo_code, (1,) * 9) == 33
    mismatches = 0
    for addr in itertools.product((1, 2, 3, 4), repeat=9):
        row = col = 0
        for d in addr:
            row = 2 * row + (1, 0, 1, 0)[d - 1]
            col = 2 * col + (0, 0, 1, 1)[d - 1]
        if vvar.pixel_value(demo_code, addr) != demo_image.data[row, col]:
            mismatches += 1
    ok = ok and mismatches == 0
    _report(
        3,
        "demo-matrix pixel trace gives 138/33 and matches the full decode "
        f"at all 262144 addresses ({mismatches} mismatches)",
        ok,
    )


def test_criterion_4_v_variability_invariant():
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        img = PixelImage(rng.integers(0, 256, (64, 64)))
        for v in (4, 16, 256):
            code = vvar.encode(img, v, seed=seed, restarts=1, max_iterations=25)
            decoded = vvar.decode(code)
            n0 = code.n0
            for level in range(n0 + 1, img.depth + 1):
                if distinct_block_count(decoded, level) > v:
                    violations += 1
    _report(
        4,
        "20 seeds x V in {4,16,256}: decoded images keep <= V distinct "
        f"blocks at every level >= n0+1 ({violations} violations)",
        violations == 0,
    )


def test_criterion_5_lossless_fixed_point(demo_image):
    code = vvar.encode(demo_image, 4, restarts=1, init="distinct")
    error = metrics.mse(demo_image, vvar.decode(code))
    _report(
        5,
        f"re-encoding the rendered demo image at V=4 with distinct-vector "
        f"initialization is lossless (mse={error})",
        error == 0.0,
    )


def test_criterion_6_rate_distortion_ordering(vv_codes, fbc_codes, image_a, image_b):
    ok = True
    details = []
    elapsed = 0.0
    for name, img in (("a", image_a), ("b", image_b)):
        start = time.monotonic()
        psnr16 = metrics.psnr(img, vvar.decode(vv_codes[(name, 16)][0]))
        psnr1024 = metrics.psnr(img, vvar.decode(vv_codes[(name, 1024)][0]))
        fbc_code = fbc_codes[(name, 8)][0]
        psnr_fbc = metrics.psnr(img, fbc.fbc_decode(fbc_code))
        elapsed += time.monotonic() - start
        elapsed += vv_codes[(name, 16)][1] + vv_codes[(name, 1024)][1]
        elapsed += fbc_codes[(name, 8)][1]
        gain = psnr1024 - psnr16
        gap = abs(psnr1024 - psnr_fbc)
        ok = ok and gain >= 3.0 and gap <= 4.0
        details.append(
            f"{name}: V=1024 {psnr1024:.2f} dB vs V=16 {psnr16:.2f} dB "
            f"(+{gain:.2f}), fbc s=8 {psnr_fbc:.2f} dB (gap {gap:.2f})"
        )
    ok = ok and elapsed < 300.0
    _report(
        6,
        "; ".join(details) + f"; total {elapsed:.0f}s < 300s",
        ok,
    )


def test_criterion_7_kmeans_properties():
    rng = np.random.default_rng(123)
    monotone_ok = True
    brute_checked = 0
    brute_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(n, 4) + 1))
        pts = rng.random((n, d)) * 20
        res = kmeans(pts, ClusterOptions(k=k, seed=int(rng.integers(2 ** 32)), restarts=20))
        hist = res.sse_history
        monotone_ok = monotone_ok and all(
            later <= earlier * (1 + 1e-12) + 1e-12
            for earlier, later in zip(hist, hist[1:])
        )
        if n <= 8 and d <= 2 and k <= 3:
            brute_checked += 1
            best = float("inf")
            for assignment in itertools.product(range(k), repeat=n):
                sse = 0.0
                for j in range(k):
                    members = pts[[i for i in range(n) if assignment[i] == j]]
                    if len(members):
                        sse += float(((members - members.mean(axis=0)) ** 2).sum())
                best = min(best, sse)
            brute_ok = brute_ok and res.sse <= best * (1 + 1e-9) + 1e-12
    ok = monotone_ok and brute_ok and brute_checked >= 20
    _report(
        7,
        "k-means SSE non-increasing on 100 instances; optimal partition "
        f"matched on {brute_checked} brute-forced instances",
        ok,
    )


def test_criterion_8_fbc_decoder_contraction(fbc_codes):
    worst = 0
    for key, (code, _) in fbc_codes.items():
        d0 = fbc.fbc_decode(code, init=0.0)
        d255 = fbc.fbc_decode(code, init=255.0)
        gap = int(np.abs(d0.data.astype(int) - d255.data.astype(int)).max())
        worst = max(worst, gap)
    _report(
        8,
        "decoding each coded test image from flat 0 and flat 255 differs "
        f"by at most {worst} gray level(s) after 10 iterations",
        worst <= 1,
    )


def test_criterion_9_fractal_generator():
    ok = True
    for n in range(9):
        sets = fg.attractor_intervals(fg.cantor_ifs(), n)
        ok = ok and len(sets) == 2 ** n
        ok = ok and all(abs((hi - lo) - 3.0 ** -n) <= 1e-12 for lo, hi in sets)
    tree = fg.expand_skeleton(fg.gap_demo_skeleton(), fg.gap_demo_labels())
    roots = fg.code_tree_intervals(fg.gap_family(), tree, 1)
    ok = ok and len(roots) == 2
    ok = ok and abs(roots[0][0] - 0.0) <= 1e-12
    ok = ok and abs(roots[0][1] - 10 / 21) <= 1e-12
    ok = ok and abs(roots[1][0] - 11 / 21) <= 1e-12
    ok = ok and abs(roots[1][1] - 1.0) <= 1e-12
    ok = ok and set(tree.levels[3].tolist()) == {2, 3}
    _report(
        9,
        "middle-third approximants have 2^n intervals of length 3^-n "
        "(n <= 8); demo tree root intervals and level-3 labels match",
        ok,
    )


def test_criterion_10_serialization_round_trip():
    rng = np.random.default_rng(2024)
    bad = 0
    for _ in range(1000):
        code = random_vvar_code(rng)
        blob = vvar.serialize(code)
        if vvar.deserialize(blob) != code:
            bad += 1
        if len(blob) - 10 != vvar.payload_size(code.v, code.depth):
            bad += 1
    _report(
        10,
        f"1000 random codes across V in 1..1023 round-trip bit-exactly with "
        f"payload length equal to the closed form ({bad} failures)",
        bad == 0,
    )


def test_psnr_improves_with_capacity(vv_codes, image_a):
    # expected empirical behavior, reported alongside the gate: quality is
    # monotone in V on the test image
    psnrs = [
        metrics.psnr(image_a, vvar.decode(vv_codes[("a", v)][0]))
        for v in (1, 4, 16, 64, 256, 1024)
    ]
    print("psnr by V:", ", ".join(f"{p:.2f}" for p in psnrs))
    assert all(b >= a - 0.05 for a, b in zip(psnrs, psnrs[1:]))
