"""Raster sets: one-cell topology, integer hulls, near-convexity checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from marginlab import (
    DimensionMismatch,
    Grid,
    GridMismatch,
    HypothesisNotMet,
    NotNodePreserving,
    RasterError,
    RasterSet,
    closure,
    dump_raster,
    hull_raster,
    image_preservation_check,
    interior,
    intersection_preservation_check,
    is_int_nearly_convex,
    load_raster,
    projection_map,
    refine_raster,
)
from marginlab.nearconvex import box_dilate, box_erode

from helpers import FIXTURES, oracle_hull_member

INF = math.inf

G5 = Grid.from_bounds([(-1.0, 1.0, 5), (-1.0, 1.0, 5)])


def load(name):
    return load_raster((FIXTURES / f"{name}.raster").read_text())


def random_raster(rng, dim=2, count=5, p=0.5):
    g = Grid.from_bounds([(-1.0, 1.0, count)] * dim)
    mask = rng.random(g.shape) < p
    return RasterSet(g, mask)


class TestTopology:
    def test_mask_shape_enforced(self):
        with pytest.raises(GridMismatch):
            RasterSet(G5, np.ones((3, 3), dtype=bool))

    def test_closure_is_one_cell_dilation(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        cl = closure(RasterSet(G5, mask))
        assert cl.mask.sum() == 9
        assert cl.mask[1:4, 1:4].all()

    def test_interior_erodes_with_empty_border(self):
        full = RasterSet(G5, np.ones((5, 5), dtype=bool))
        inner = interior(full)
        assert inner.mask.sum() == 9
        assert inner.mask[1:4, 1:4].all()
        assert not inner.mask[0].any()

    def test_sandwich_and_monotonicity(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            dim = int(rng.integers(2, 4))
            S = random_raster(rng, dim=dim, count=4)
            extra = random_raster(rng, dim=dim, count=4)
            T = RasterSet(S.grid, S.mask | extra.mask)
            assert not (interior(S).mask & ~S.mask).any()
            assert not (S.mask & ~closure(S).mask).any()
            assert not (closure(S).mask & ~closure(T).mask).any()
            assert not (interior(S).mask & ~interior(T).mask).any()


masks = st.integers(1, 3).flatmap(
    lambda d: hnp.arrays(
        bool, hnp.array_shapes(min_dims=d, max_dims=d, min_side=1, max_side=6)
    )
)


class TestBoxKernels:
    """The numpy box kernels against scipy.ndimage, the route they replaced."""

    @given(masks)
    @example(np.ones((1,), dtype=bool))
    @example(np.ones((2, 1), dtype=bool))
    @example(np.ones((2, 2, 2), dtype=bool))
    @example(np.ones((3, 1, 3), dtype=bool))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_ndimage(self, mask):
        box = np.ones((3,) * mask.ndim, dtype=bool)
        dilated = ndimage.binary_dilation(mask, structure=box)
        eroded = ndimage.binary_erosion(mask, structure=box, border_value=0)
        assert np.array_equal(box_dilate(mask), dilated)
        assert np.array_equal(box_erode(mask), eroded)


class TestIntegerHull:
    @pytest.mark.parametrize("dim,count,tries", [(2, 5, 10), (3, 4, 5)])
    def test_matches_lp_oracle(self, dim, count, tries):
        rng = np.random.default_rng(73)
        for _ in range(tries):
            S = random_raster(rng, dim=dim, count=count, p=0.35)
            if not S.mask.any():
                continue
            hull = hull_raster(S)
            pts = S.true_indices().astype(np.float64)
            queries = np.argwhere(np.ones(S.grid.shape, dtype=bool)).astype(
                np.float64
            )
            want = np.array([oracle_hull_member(pts, q) for q in queries])
            np.testing.assert_array_equal(hull.flat(), want)

    @staticmethod
    def _failing_hull(monkeypatch, error):
        import scipy.spatial

        def hull(points):
            raise error

        monkeypatch.setattr(scipy.spatial, "ConvexHull", hull)

    def test_qhull_error_falls_back_to_the_triple_scan(self, monkeypatch):
        from scipy.spatial import QhullError

        rng = np.random.default_rng(83)
        rasters = [random_raster(rng, dim=3, count=4, p=0.35) for _ in range(5)]
        for S in rasters:  # full rank, so the hull goes through _facets3
            pts = S.true_indices()
            assert np.linalg.matrix_rank(pts - pts[0]) == 3
        want = [hull_raster(S).flat() for S in rasters]
        self._failing_hull(monkeypatch, QhullError("QH6154 initial simplex is flat"))
        for S, hull in zip(rasters, want):
            np.testing.assert_array_equal(hull_raster(S).flat(), hull)

    def test_memory_error_in_qhull_propagates(self, monkeypatch):
        S = random_raster(np.random.default_rng(83), dim=3, count=4, p=0.35)
        self._failing_hull(monkeypatch, MemoryError("qhull"))
        with pytest.raises(MemoryError):
            hull_raster(S)

    def test_empty_and_singleton(self):
        empty = RasterSet(G5, np.zeros((5, 5), dtype=bool))
        assert not hull_raster(empty).mask.any()
        one = np.zeros((5, 5), dtype=bool)
        one[1, 3] = True
        assert hull_raster(RasterSet(G5, one)).mask.sum() == 1


class TestNearConvexityFixtures:
    def test_open_box_corner_is_int_nearly_convex(self):
        rep = is_int_nearly_convex(load("open_box_corner"))
        assert rep.verdict
        assert rep.closure_convex and rep.interior_nonempty and rep.interior_inside
        assert rep.witness is None

    def test_two_segments_fails_on_closure(self):
        rep = is_int_nearly_convex(load("two_segments"))
        assert not rep.verdict
        assert not rep.closure_convex
        assert rep.witness_kind == "hull node missing from closure"
        assert rep.witness is not None

    def test_punctured_box_fails_with_center_witness(self):
        rep = is_int_nearly_convex(load("punctured_box"))
        assert not rep.verdict
        assert rep.closure_convex
        assert not rep.interior_inside
        assert rep.witness == (0.0, 0.0)
        assert rep.witness_kind == "interior node missing from the set"

    def test_verdicts_stable_under_refinement(self):
        for name, want in [
            ("open_box_corner", True),
            ("two_segments", False),
            ("punctured_box", False),
        ]:
            fine = refine_raster(load(name), 2)
            assert is_int_nearly_convex(fine).verdict == want


class TestPreservation:
    def test_intersection_of_overlapping_boxes(self):
        rep = intersection_preservation_check(load("box_left"), load("box_right"))
        assert rep.verdict
        assert rep.closure_convex and rep.interior_nonempty and rep.interior_inside

    def test_disjoint_interiors_skip_via_hypothesis(self):
        left = np.zeros((5, 5), dtype=bool)
        left[:, :2] = True
        right = np.zeros((5, 5), dtype=bool)
        right[:, 3:] = True
        with pytest.raises(HypothesisNotMet):
            intersection_preservation_check(RasterSet(G5, left), RasterSet(G5, right))

    def test_projection_image(self):
        rep = image_preservation_check(load("box_left"), projection_map(2, (0,)))
        assert rep.verdict
        assert rep.image_nearly_convex and rep.interior_match
        assert rep.image_grid.dim == 1

    def test_non_integer_map_rejected(self):
        with pytest.raises(NotNodePreserving):
            image_preservation_check(load("box_left"), np.array([[0.5, 0.0]]))

    @pytest.mark.parametrize("T, row", [([[0, 0]], 0), ([[1, 0], [0, 0]], 1)])
    def test_map_row_to_one_value_rejected(self, T, row):
        with pytest.raises(NotNodePreserving, match=f"map row {row} sends every node to one value"):
            image_preservation_check(load("box_left"), np.array(T))

    @pytest.mark.parametrize(
        "T",
        [np.array([0, 1]), np.zeros((0, 2)), np.zeros((1, 3)), np.zeros((1, 1, 2))],
        ids=["one-dimensional", "no-rows", "too-wide", "three-dimensional"],
    )
    def test_malformed_map_rejected(self, T):
        with pytest.raises(DimensionMismatch, match="matrix of at least one row and 2 columns"):
            image_preservation_check(load("box_left"), T)

    def test_input_must_be_int_nearly_convex(self):
        with pytest.raises(HypothesisNotMet):
            image_preservation_check(load("punctured_box"), projection_map(2, (0,)))


class TestRefineAndFormat:
    def test_refined_grid_keeps_box(self):
        S = load("box_left")
        fine = refine_raster(S, 2)
        assert fine.grid.shape == (9, 9)
        # every coarse member survives at its own coordinates
        for idx in S.true_indices():
            coarse_pt = [ax.coords()[i] for ax, i in zip(S.grid.axes, idx)]
            assert fine.mask.reshape(-1)[fine.grid.index_of(coarse_pt)]

    def test_dump_load_roundtrip(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            S = random_raster(rng, dim=int(rng.integers(1, 4)), count=4)
            T = load_raster(dump_raster(S))
            assert T.same_mask(S)
        again = dump_raster(load_raster(dump_raster(S)))
        assert again == dump_raster(S)

    def test_load_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            load_raster("not a raster")
        with pytest.raises(ValueError):
            load_raster("raster 2 2 2 0.0 1.0 0.0 1.0\n10\n1")
        with pytest.raises(ValueError):
            load_raster("raster 2 2 2 0.0 1.0 0.0 1.0\n10\n1x")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("raster 1 3 0.0 1.0\n1x1y1\n", 2),  # used to parse as 111
            ("raster 1 3 0.0 1.0\n1,1,1\n", 2),
            ("raster 2 2 3 0.0 1.0 0.0 1.0\n111\n1x1y1\n", 3),
            ("raster 1 3 0.0 1.0\n", 2),  # header without a body
            ("raster\n101\n", 1),  # bare header
            ("raster 1 3 0.0 1.0\n101\n111\n", 2),
        ],
    )
    def test_strict_parsing_names_the_line(self, text, line):
        with pytest.raises(RasterError, match=f"^line {line}: ") as info:
            load_raster(text)
        assert info.value.line == line
