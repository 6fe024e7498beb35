import itertools

import numpy as np
import pytest

from conftest import DEMO_ADDRESS, DEMO_MATRIX, constant_image, distinct_block_count
from vvcodec import fractalgen as fg
from vvcodec import vvar


def compose_all(ifs, n):
    """Independent oracle: image of [0,1] under every length-n composition."""
    intervals = []
    for seq in itertools.product(ifs, repeat=n):
        lo, hi = 0.0, 1.0
        for f in reversed(seq):
            lo, hi = f.map_interval((lo, hi))
        intervals.append((lo, hi))
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1] + 1e-12:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class TestAffine:
    def test_contraction_enforced(self):
        with pytest.raises(ValueError):
            fg.Affine1D(1.0, 0.0)
        assert fg.Affine1D(0.5, 0.1)(0.2) == pytest.approx(0.2)

    def test_negative_slope_interval(self):
        f = fg.Affine1D(-0.5, 1.0)
        lo, hi = f.map_interval((0.0, 1.0))
        assert (lo, hi) == (0.5, 1.0)


class TestAttractorIntervals:
    def test_level_zero(self):
        assert fg.attractor_intervals(fg.cantor_ifs(), 0) == [(0.0, 1.0)]

    def test_middle_third_counts(self):
        sets = fg.attractor_intervals(fg.cantor_ifs(), 2)
        assert len(sets) == 4
        for lo, hi in sets:
            assert hi - lo == pytest.approx(1 / 9, abs=1e-12)

    def test_matches_composition_oracle(self):
        ifs = fg.cantor_ifs()
        got = fg.attractor_intervals(ifs, 4)
        want = compose_all(ifs, 4)
        assert len(got) == len(want) == 16
        for (glo, ghi), (wlo, whi) in zip(got, want):
            assert glo == pytest.approx(wlo, abs=1e-12)
            assert ghi == pytest.approx(whi, abs=1e-12)
        assert sum(hi - lo for lo, hi in got) == pytest.approx(
            (2 / 3) ** 4, abs=1e-12
        )

    def test_map_escaping_unit_interval(self):
        with pytest.raises(ValueError):
            fg.attractor_intervals([fg.Affine1D(0.5, 0.8)], 1)

    def test_nesting(self):
        prev = fg.attractor_intervals(fg.cantor_ifs(), 3)
        nxt = fg.attractor_intervals(fg.cantor_ifs(), 4)
        for lo, hi in nxt:
            assert any(
                plo - 1e-12 <= lo and hi <= phi + 1e-12 for plo, phi in prev
            )


class TestCodeTree:
    def test_constant_tree_reduces_to_single_system(self):
        family = fg.gap_family()
        levels = [np.full(2 ** k, 2, dtype=np.int64) for k in range(4)]
        tree = fg.CodeTreeLevels(m=2, levels=levels)
        got = fg.code_tree_intervals(family, tree, 3)
        want = fg.attractor_intervals(fg.cantor_ifs(), 3)
        assert got == pytest.approx(want)

    def test_root_level_split(self):
        tree = fg.expand_skeleton(fg.gap_demo_skeleton(), fg.gap_demo_labels())
        got = fg.code_tree_intervals(fg.gap_family(), tree, 1)
        assert len(got) == 2
        assert got[0] == pytest.approx((0.0, 10 / 21), abs=1e-12)
        assert got[1] == pytest.approx((11 / 21, 1.0), abs=1e-12)

    def test_nesting(self):
        family = fg.gap_family()
        tree = fg.expand_skeleton(fg.gap_demo_skeleton(), fg.gap_demo_labels())
        prev = fg.code_tree_intervals(family, tree, 2)
        nxt = fg.code_tree_intervals(family, tree, 3)
        for lo, hi in nxt:
            assert any(
                plo - 1e-12 <= lo and hi <= phi + 1e-12 for plo, phi in prev
            )

    def test_depth_exceeded(self):
        tree = fg.expand_skeleton(fg.gap_demo_skeleton(), fg.gap_demo_labels())
        with pytest.raises(ValueError):
            fg.code_tree_intervals(fg.gap_family(), tree, tree.depth + 1)


def count_distinct_subtrees(tree: fg.CodeTreeLevels, level: int) -> int:
    """Exhaustive oracle: distinct label subtrees rooted at one level."""

    def subtree(k, pos):
        if k >= tree.depth:
            return ()
        children = tuple(
            subtree(k + 1, tree.m * pos + j) for j in range(tree.m)
        )
        return (int(tree.levels[k][pos]), children)

    return len({subtree(level, p) for p in range(tree.m ** level)})


class TestExpandSkeleton:
    def test_all_ones(self):
        skeleton = fg.SkeletonMatrix(v=1, m=2, entries=np.ones((2, 3), np.int64))
        labels = fg.LabelMatrix(values=np.full((4, 1), 5, np.int64))
        tree = fg.expand_skeleton(skeleton, labels)
        assert all(np.all(level == 5) for level in tree.levels)

    def test_demo_level3_labels(self):
        tree = fg.expand_skeleton(fg.gap_demo_skeleton(), fg.gap_demo_labels())
        assert set(tree.levels[3].tolist()) == {2, 3}

    def test_subtree_count_bounded_by_types(self):
        rng = np.random.default_rng(0)
        for v in (1, 2, 3):
            skeleton = fg.random_skeleton(v, 2, 4, seed=int(rng.integers(1e9)))
            labels = fg.LabelMatrix(
                values=rng.integers(1, 4, size=(5, v)).astype(np.int64)
            )
            tree = fg.expand_skeleton(skeleton, labels)
            for level in range(tree.depth):
                assert count_distinct_subtrees(tree, level) <= max(
                    v, 1 if level == 0 else v
                )

    def test_depth_mismatch(self):
        skeleton = fg.gap_demo_skeleton()
        labels = fg.LabelMatrix(values=np.ones((2, 2), np.int64))
        with pytest.raises(ValueError):
            fg.expand_skeleton(skeleton, labels)

    def test_unused_entry_never_read(self):
        # root type 1 with children of type 1 only; type-2 rows are unused
        skeleton = fg.SkeletonMatrix(
            v=2, m=2, entries=np.array([[1, 1], [1, 1], [0, 0], [0, 0]])
        )
        labels = fg.LabelMatrix(values=np.ones((3, 2), np.int64))
        tree = fg.expand_skeleton(skeleton, labels)
        assert tree.depth == 3
        # but routing into an unused slot raises
        bad = fg.SkeletonMatrix(
            v=2, m=2, entries=np.array([[2, 1], [1, 1], [0, 0], [0, 0]])
        )
        with pytest.raises(ValueError):
            fg.expand_skeleton(bad, labels)


class TestRandomSkeleton:
    def test_single_type(self):
        skeleton = fg.random_skeleton(1, 4, 5, seed=3)
        assert np.all(skeleton.entries == 1)

    def test_deterministic(self):
        a = fg.random_skeleton(4, 4, 8, seed=7)
        b = fg.random_skeleton(4, 4, 8, seed=7)
        assert np.array_equal(a.entries, b.entries)

    def test_frequencies_roughly_uniform(self):
        skeleton = fg.random_skeleton(4, 4, 8, seed=7)
        counts = np.bincount(skeleton.entries.ravel(), minlength=5)[1:]
        total = skeleton.entries.size
        chi2 = float(((counts - total / 4) ** 2 / (total / 4)).sum())
        assert chi2 < 16.27  # chi-square df=3 at p=0.001


def walk_pixels(skeleton, values, depth):
    """Per-pixel oracle for typed squares: walk each address from the root.

    Returns the image as an int array and the first column in which some
    walk reads a 0 slot (None if no walk does).
    """
    side = 2 ** depth
    img = np.zeros((side, side), dtype=np.int64)
    zero_column = None
    for addr in itertools.product((1, 2, 3, 4), repeat=depth):
        node_type, row, col = 1, 0, 0
        for k, digit in enumerate(addr):
            node_type = int(skeleton.entries[4 * (node_type - 1) + digit - 1, k])
            if node_type == 0:
                zero_column = min(zero_column or k + 1, k + 1)
                break
            row = 2 * row + (1, 0, 1, 0)[digit - 1]
            col = 2 * col + (0, 0, 1, 1)[digit - 1]
        else:
            img[row, col] = values[node_type - 1]
    return img, zero_column


class TestRenderSquare:
    def test_single_type_constant(self):
        skeleton = fg.random_skeleton(1, 4, 5, seed=0)
        img = vvar.decode(fg.skeleton_to_code(skeleton, np.array([77]), 5))
        assert np.array_equal(img.data, constant_image(77, depth=5).data)

    def test_demo_matrix_render(self, demo_code, demo_image):
        # depth-9 skeleton: trivial first level, the matrix's label columns,
        # and a last level mapping each leaf slot to its gray value's type
        values = np.array([138, 33, 171, 37])
        trivial = np.zeros((16, 1), dtype=np.int64)
        trivial[:4, 0] = [1, 2, 3, 4]
        label_cols = DEMO_MATRIX[:, :7]
        leaf_types = np.array(
            [[int(np.where(values == x)[0][0]) + 1] for x in DEMO_MATRIX[:, 7]]
        )
        entries = np.hstack([trivial, label_cols, leaf_types])
        skeleton = fg.SkeletonMatrix(v=4, m=4, entries=entries)
        img = vvar.decode(fg.skeleton_to_code(skeleton, values, 9))
        assert np.array_equal(img.data, demo_image.data)
        row = col = 0
        for d in DEMO_ADDRESS:
            row = 2 * row + (1, 0, 1, 0)[d - 1]
            col = 2 * col + (0, 0, 1, 1)[d - 1]
        assert img.data[row, col] == 138

    def test_render_matches_pixel_walker(self):
        rng = np.random.default_rng(1)
        for v, depth in ((1, 2), (3, 2), (2, 3), (15, 3), (5, 4), (16, 5), (200, 5)):
            skeleton = fg.random_skeleton(v, 4, depth, seed=int(rng.integers(1e9)))
            values = rng.integers(0, 256, v)
            want, zero_column = walk_pixels(skeleton, values, depth)
            assert zero_column is None
            img = vvar.decode(fg.skeleton_to_code(skeleton, values, depth))
            assert np.array_equal(img.data, want)

    def test_zero_slots_match_pixel_walker(self):
        # a 0 on a slot that some pixel's walk reads raises and names the
        # first such column; zeros no walk reads leave the render unchanged
        rng = np.random.default_rng(2)
        outcomes = {"raised": 0, "rendered": 0}
        for _ in range(60):
            depth = int(rng.integers(2, 6))
            v = int(rng.integers(2, min(4 ** (depth - 1), 40)))
            entries = rng.integers(1, v + 1, (4 * v, depth))
            # a few types left unused so that some zeros are unreachable
            entries = np.minimum(entries, int(rng.integers(1, v + 1)))
            for _ in range(int(rng.integers(1, 4))):
                entries[rng.integers(4 * v), rng.integers(depth)] = 0
            skeleton = fg.SkeletonMatrix(v=v, m=4, entries=entries)
            values = rng.integers(0, 256, v)
            want, zero_column = walk_pixels(skeleton, values, depth)
            if zero_column is None:
                outcomes["rendered"] += 1
                img = vvar.decode(fg.skeleton_to_code(skeleton, values, depth))
                assert np.array_equal(img.data, want)
            else:
                outcomes["raised"] += 1
                with pytest.raises(
                    ValueError,
                    match=f"unused skeleton entry read in column {zero_column}$",
                ):
                    fg.skeleton_to_code(skeleton, values, depth)
        assert min(outcomes.values()) >= 10

    @pytest.mark.parametrize("gray", [300, -1])
    def test_gray_values_out_of_range(self, gray):
        skeleton = fg.random_skeleton(2, 4, 4, seed=0)
        with pytest.raises(ValueError, match="gray values"):
            fg.skeleton_to_code(skeleton, [0, gray], 4)

    def test_codec_range_enforced(self):
        # depth 1, and V >= 4**(depth-1), have no VVC1 code
        with pytest.raises(ValueError, match="depth 1"):
            fg.skeleton_to_code(fg.random_skeleton(1, 4, 1, 0), [9], 1)
        with pytest.raises(ValueError, match="V=16"):
            fg.skeleton_to_code(fg.random_skeleton(16, 4, 2, 0), np.zeros(16, int), 2)

    def test_distinct_blocks_bounded(self):
        skeleton = fg.random_skeleton(3, 4, 6, seed=9)
        values = np.array([0, 128, 255])
        img = vvar.decode(fg.skeleton_to_code(skeleton, values, 6))
        for level in range(7):
            assert distinct_block_count(img, level) <= max(
                3, 1 if level == 0 else 3
            )

    def test_depth_insufficient(self):
        skeleton = fg.random_skeleton(2, 4, 3, seed=0)
        with pytest.raises(ValueError):
            fg.skeleton_to_code(skeleton, np.array([0, 255]), 4)


class TestTextFormats:
    def test_intervals_csv_digits(self):
        csv = fg.intervals_csv([(0.0, 1 / 3)])
        assert csv == "0,0.33333333333333331\n"

    def test_read_integer_grid(self):
        grid = fg.read_integer_grid("1 2 3\n4 0 6\n")
        assert grid.tolist() == [[1, 2, 3], [4, 0, 6]]

    def test_read_integer_grid_errors(self):
        with pytest.raises(ValueError):
            fg.read_integer_grid("")
        with pytest.raises(ValueError):
            fg.read_integer_grid("1 2\n3\n")
        with pytest.raises(ValueError):
            fg.read_integer_grid("1 x\n")
        with pytest.raises(ValueError, match="64-bit"):
            fg.read_integer_grid(f"1 {2 ** 63}\n")
