"""Opacity-map voxelization, masks and metrics.

``visibility_mask`` always marches at the smallest voxel edge.  Two oracles
are kept here: ``full_march``, the march before rays retired, which also
returns the voxels a march covers, and ``BruteForceVisibility``, a scalar
re-derivation with a ``step`` of its own.  Step sensitivity is measured only
through ``BruteForceVisibility.run``; ``tests/vis_probe.py`` compares the
march against both.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from occrebench.benchmark import (MetricsReport, OpacityMap, _interpolate, _map_cells,
                                  build_opacity_map, compute_metrics, conventional_voxelize,
                                  frustum_mask, grid_sample_opacity, visibility_mask,
                                  voxelize_occupancy)
from occrebench.field import AnalyticScene, Box, VoxelDensityField, ground_truth_occupancy
from occrebench.geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose, \
    all_pixel_coords, pixel_directions, project
from occrebench.grids import VoxelGrid
from occrebench.rendering import SamplingConfig, interval_lengths, opacity, \
    sample_distances

from conftest import IntervalScaledField, rotation_about
from test_center_blocks import excess_peak


def eval_cfg(n=64, near=3.0, far=20.0):
    return SamplingConfig(n, near, far, mode="eval")


def default_view(w=48, h=36, fov_scale=1.0, near=3.0, far=20.0):
    fx = 36.0 * fov_scale
    return CameraView(CameraIntrinsics(fx, fx, (w - 1) / 2, (h - 1) / 2, w, h),
                      Pose.identity(), FrustumSpec(near, far))


def traced_peak(fn) -> int:
    """Bytes ``fn()`` holds at its tracemalloc peak above what was held
    before the call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def random_voxel_field(seed=0):
    """Trilinear field over the default view's near frustum, random theta."""
    rng = np.random.default_rng(seed)
    return VoxelDensityField([-6.0, -5.0, 2.0], 0.5, rng.normal(0.0, 3.0, (25, 21, 37)))


class TestOpacityMap:
    def test_empty_scene_all_zero(self):
        omap = build_opacity_map(AnalyticScene(()), default_view(), eval_cfg(16))
        assert omap.values.shape == (48, 36, 16)
        assert np.all(omap.values == 0.0)

    def test_shape_contract(self):
        omap = build_opacity_map(AnalyticScene(()), default_view(w=20, h=12), eval_cfg(8))
        assert omap.values.shape == (20, 12, 8)

    def test_requires_eval_mode(self):
        cfg = SamplingConfig(8, 3.0, 20.0, mode="train")
        with pytest.raises(ValueError):
            build_opacity_map(AnalyticScene(()), default_view(), cfg)

    def test_opaque_wall_saturates_covering_bins(self):
        """A dense full-frustum wall at 8..9 m saturates exactly the bins
        whose sample interval overlaps the wall, on every pixel ray."""
        wall = Box([-100, -100, 8.0], [100, 100, 9.0], 80.0, [1, 0, 0])
        view = default_view()
        cfg = eval_cfg(64)
        omap = build_opacity_map(AnalyticScene((wall,)), view, cfg)
        assert np.max(omap.values) > 0.999
        # Independent bin prediction for one pixel: alpha is nonzero exactly
        # at samples whose point lies inside the wall, with value
        # 1 - exp(-sigma * delta_i).
        from occrebench.rendering import sample_distances, interval_lengths
        t = sample_distances(cfg)
        d = interval_lengths(t, cfg.far)
        u, v = 23, 17
        direction = pixel_directions(view.intrinsics, np.array([float(u), float(v)]))
        z = t * direction[2]
        inside = (z >= 8.0) & (z <= 9.0)
        expected = np.where(inside, 1.0 - np.exp(-80.0 * d), 0.0)
        assert np.allclose(omap.values[u, v], expected, atol=1e-12)

    def test_matches_all_samples_at_once_bit_for_bit(self):
        """The per-bin build equals one density lookup over every
        (ray, sample) point, the formula it replaced."""
        field, view, cfg = random_voxel_field(), default_view(), eval_cfg(48)
        origins, dirs = view.world_rays(all_pixel_coords(view.intrinsics).reshape(-1, 2))
        t = sample_distances(cfg)
        pts = origins[:, None] + t[None, :, None] * dirs[:, None]
        sigma = field.density_at(pts.reshape(-1, 3)).reshape(len(origins), len(t))
        expected = opacity(sigma, interval_lengths(t, cfg.far)).reshape(48, 36, 48)
        got = build_opacity_map(field, view, cfg).values
        assert 0.0 < np.mean(got > 0.5) < 1.0
        assert np.array_equal(got, expected)

    def test_softplus_once_per_map(self, softplus_calls):
        """Eight depth bins, one softplus of the whole lattice."""
        field = random_voxel_field()
        build_opacity_map(field, default_view(), eval_cfg(8))
        assert softplus_calls == [field.shape]

    def test_peak_memory_is_the_map_plus_per_ray_state(self):
        field, view = random_voxel_field(), default_view()
        rays = view.intrinsics.width * view.intrinsics.height
        for n in (8, 64):
            map_bytes = rays * n * 8
            peak = traced_peak(lambda: build_opacity_map(field, view, eval_cfg(n)))
            assert peak < map_bytes + 512 * rays

    def test_map_rejects_out_of_range_alpha(self):
        view = default_view(w=4, h=4)
        with pytest.raises(ValueError):
            OpacityMap(np.full((4, 4, 2), 1.5), view.intrinsics, view.frustum)
        with pytest.raises(ValueError):
            OpacityMap(np.full((4, 4, 2), -0.1), view.intrinsics, view.frustum)
        values = np.full((4, 4, 2), 0.5)
        values[1, 2, 1] = np.nan
        with pytest.raises(ValueError):
            OpacityMap(values, view.intrinsics, view.frustum)

    def test_nan_density_fails_the_build(self):
        """A NaN density used to become a NaN opacity, which the map took and
        voxelization read as unoccupied."""
        class NanAtOnePoint:
            def density_at(self, pts):
                sigma = np.zeros(len(pts))
                sigma[len(pts) // 2] = np.nan
                return sigma

        with pytest.raises(ValueError, match="density"):
            build_opacity_map(NanAtOnePoint(), default_view(w=8, h=6), eval_cfg(4))


class TestGridSample:
    def make_map(self, values):
        w, h, _ = values.shape
        intr = CameraIntrinsics(10.0, 10.0, (w - 1) / 2, (h - 1) / 2, w, h)
        return OpacityMap(values, intr, FrustumSpec(3.0, 20.0))

    def test_node_value_exact(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 0.99, (5, 4, 8))
        omap = self.make_map(vals)
        # node (2, 1, 3) sits at (2/4, 1/3, 3/8)
        pt = np.array([2 / 4, 1 / 3, 3 / 8])
        assert np.isclose(grid_sample_opacity(omap, pt), vals[2, 1, 3], atol=1e-12)

    def test_border_padding_clamps_depth(self):
        vals = np.zeros((4, 4, 8))
        vals[:, :, 7] = 0.7
        omap = self.make_map(vals)
        # z beyond the last node (7/8) clamps to it
        assert np.isclose(grid_sample_opacity(omap, np.array([0.5, 0.5, 0.99])), 0.7)
        assert np.isclose(grid_sample_opacity(omap, np.array([0.5, 0.5, 5.0])), 0.7)

    def test_border_padding_clamps_pixels(self):
        vals = np.zeros((4, 4, 8))
        vals[0, :, :] = 0.3
        omap = self.make_map(vals)
        assert np.isclose(grid_sample_opacity(omap, np.array([-2.0, 0.0, 0.0])), 0.3)

    def test_midpoint_interpolation_hand_value(self):
        vals = np.zeros((4, 4, 8))
        vals[1, 1, 2] = 0.2
        vals[1, 1, 3] = 0.6
        omap = self.make_map(vals)
        # midpoint between depth nodes 2 and 3 at the (1,1) pixel node
        pt = np.array([1 / 3, 1 / 3, 2.5 / 8])
        assert np.isclose(grid_sample_opacity(omap, pt), 0.4, atol=1e-12)

    def test_monotone_in_node_values(self):
        """Raising any node never lowers a sampled value (voxelization
        monotonicity follows)."""
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 0.9, (4, 4, 8))
        omap = self.make_map(vals)
        pts = rng.uniform(-0.2, 1.2, (100, 3))
        base = grid_sample_opacity(omap, pts)
        for _ in range(10):
            idx = tuple(rng.integers(0, s) for s in vals.shape)
            bumped = vals.copy()
            bumped[idx] = min(0.999, bumped[idx] + rng.uniform(0, 0.1))
            omap2 = self.make_map(bumped)
            assert np.all(grid_sample_opacity(omap2, pts) >= base - 1e-12)

    def test_interpolation_holds_one_corner_at_a_time(self):
        """Beyond the output, four 8 B arrays a point: one corner's weight
        and gathered values, and the two weight factors of
        ``trilinear_corners``.  A per-corner index array held five, and
        keeping the previous corner alive while the next is made six."""
        rng = np.random.default_rng(2)
        omap = self.make_map(rng.random((32, 24, 16)))
        n = 100_000
        base, frac = _map_cells(omap.values.shape, rng.uniform(-0.1, 1.1, (n, 3)))
        peak = traced_peak(lambda: _interpolate(omap, base, frac))
        assert peak - 8 * n <= 36 * n


def camera_frame_grid(counts=(16, 16, 16), res=0.25, origin=(-2.0, -2.0, 4.0)):
    return VoxelGrid.filled(origin, counts, res, False, dtype=bool, frame="camera")


class TestVoxelize:
    def test_all_zero_map_all_false(self):
        omap = build_opacity_map(AnalyticScene(()), default_view(), eval_cfg(16))
        out = voxelize_occupancy(omap, camera_frame_grid(), Pose.identity())
        assert not out.values.any()

    def test_saturated_map_marks_in_frustum_true(self):
        view = default_view()
        omap = OpacityMap(np.full((48, 36, 16), 0.99), view.intrinsics, view.frustum)
        grid = camera_frame_grid()
        out = voxelize_occupancy(omap, grid, Pose.identity())
        front = grid.centers_flat()[:, 2] > 0
        assert np.array_equal(out.values.reshape(-1), front)

    def test_behind_camera_voxels_false(self):
        view = default_view()
        omap = OpacityMap(np.full((48, 36, 16), 0.99), view.intrinsics, view.frustum)
        grid = camera_frame_grid(origin=(-2.0, -2.0, -8.0))
        out = voxelize_occupancy(omap, grid, Pose.identity())
        assert not out.values.any()

    def test_box_scene_iou_against_ground_truth(self):
        """End-to-end protocol check: analytic box, 16^3 grid at 0.25 m,
        N=128; frustum-restricted IoU against exact ground truth >= 0.9."""
        scene = AnalyticScene((Box([-1.2, -1.3, 5.0], [1.1, 1.2, 6.6], 50.0,
                                   [1, 0, 0]),))
        view = default_view()
        grid = camera_frame_grid()
        omap = build_opacity_map(scene, view, eval_cfg(128))
        pred = voxelize_occupancy(omap, grid, Pose.identity())
        gt = ground_truth_occupancy(scene, grid)
        mf = frustum_mask(grid, Pose.identity(), view.intrinsics)
        inter = int(np.sum(pred.values & gt.values & mf.values))
        union = int(np.sum((pred.values | gt.values) & mf.values))
        assert inter / union >= 0.9

    def test_conventional_trivials(self):
        class Const:
            def __init__(self, s):
                self.s = s

            def density_at(self, pts):
                return np.full(np.asarray(pts).shape[:-1], self.s)

        grid = camera_frame_grid()
        out0 = conventional_voxelize(Const(0.0), grid, Pose.identity())
        assert not out0.values.any()
        out1 = conventional_voxelize(Const(1.0), grid, Pose.identity())
        front = grid.centers_flat()[:, 2] > 0
        assert np.array_equal(out1.values.reshape(-1), front)

    def test_protocols_disagree_on_interval_scaled_far_region(self):
        """The defining fixture: a far slab whose raw density sits below the
        fixed 0.5 threshold while its per-sample opacity exceeds it.  The
        conventional protocol calls it free; the opacity protocol calls it
        occupied."""
        view = default_view(near=3.0, far=20.0)
        slab = Box([-6, -6, 14.0], [6, 6, 18.0], 1.0, [1, 1, 1])
        field = IntervalScaledField(region=slab, ray_origin=[0, 0, 0], near=3.0,
                                    far=20.0, num_samples=32, alpha_target=0.55)
        assert field.density_at(np.array([0.0, 0.0, 14.01])) < 0.5
        grid = camera_frame_grid(counts=(12, 12, 10), res=0.5, origin=(-3.0, -3.0, 13.0))
        conv = conventional_voxelize(field, grid, Pose.identity())
        omap = build_opacity_map(field, view, eval_cfg(32))
        opac = voxelize_occupancy(omap, grid, Pose.identity())
        mf = frustum_mask(grid, Pose.identity(), view.intrinsics)
        gt = ground_truth_occupancy(AnalyticScene((slab,)), grid)
        far_region = gt.values & mf.values
        assert far_region.any()
        # raw density in the far slab stays below the threshold
        assert not (conv.values & far_region).any()
        # sampled opacity crosses it on most of the slab
        hits = (opac.values & far_region).sum() / far_region.sum()
        assert hits > 0.8


class TestFrustumMask:
    def test_axis_voxel_true_behind_false(self):
        view = default_view()
        grid = camera_frame_grid(counts=(1, 1, 1), res=0.5, origin=(-0.25, -0.25, 9.75))
        assert frustum_mask(grid, Pose.identity(), view.intrinsics).values.all()
        behind = camera_frame_grid(counts=(1, 1, 1), res=0.5, origin=(-0.25, -0.25, -5.25))
        assert not frustum_mask(behind, Pose.identity(), view.intrinsics).values.any()

    def test_exact_bit_pattern_matches_hand_projection(self):
        view = default_view(w=16, h=12)
        grid = camera_frame_grid(counts=(4, 4, 4), res=1.5, origin=(-3.0, -3.0, 2.0))
        got = frustum_mask(grid, Pose.identity(), view.intrinsics)
        intr = view.intrinsics
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    c = grid.origin + (np.array([i, j, k]) + 0.5) * 1.5
                    if c[2] <= 0:
                        expected = False
                    else:
                        u = intr.fx * c[0] / c[2] + intr.cx
                        v = intr.fy * c[1] / c[2] + intr.cy
                        expected = 0 <= u <= 15 and 0 <= v <= 11
                    assert got.values[i, j, k] == expected, (i, j, k)

    def test_transformed_grid(self):
        # Voxel frame: x forward, y left, z up; camera: x right, y down, z fwd.
        r_vc = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        t_vc = Pose(r_vc, np.zeros(3))
        grid = VoxelGrid.filled([4.0, -2.0, -2.0], (8, 16, 16), 0.25, False, bool)
        view = default_view()
        got = frustum_mask(grid, t_vc, view.intrinsics)
        centers_cam = t_vc.apply(grid.centers_flat())
        u, v, z = project(view.intrinsics, centers_cam)
        expected = (z > 0) & (u >= 0) & (u <= 47) & (v >= 0) & (v <= 35)
        assert np.array_equal(got.values.reshape(-1), expected)


class BruteForceVisibility:
    """Independent scalar re-derivation of the visibility march."""

    @staticmethod
    def run(gt, view, t_vc, step):
        intr = view.intrinsics
        inv = t_vc.inverse()
        o = inv.translation
        visible = np.zeros(gt.counts, dtype=bool)
        covered = np.zeros(gt.counts, dtype=bool)
        lo, hi = gt.origin, gt.max_corner
        counts = np.asarray(gt.counts)
        for u in range(intr.width):
            for v in range(intr.height):
                d = inv.rotate(pixel_directions(intr, np.array([float(u), float(v)])))
                with np.errstate(divide="ignore"):
                    t1 = (lo - o) / d
                    t2 = (hi - o) / d
                te = np.minimum(t1, t2).max()
                tx = np.maximum(t1, t2).min()
                start = max(view.frustum.near, te)
                if tx < start:
                    continue
                ts = start + step * np.arange(int((tx - start) / step) + 1)
                pts = o + ts[:, None] * d
                idx = np.floor((pts - lo) / gt.resolution).astype(int)
                ok = np.all((idx >= 0) & (idx < counts), axis=1)
                idx = idx[ok]
                occ = gt.values[idx[:, 0], idx[:, 1], idx[:, 2]]
                vis = np.logical_and.accumulate(~occ)
                covered[idx[:, 0], idx[:, 1], idx[:, 2]] = True
                vi = idx[vis]
                visible[vi[:, 0], vi[:, 1], vi[:, 2]] = True
        visible &= frustum_mask(gt, t_vc, intr).values
        return visible, covered


class TestVisibilityMask:
    def view(self):
        intr = CameraIntrinsics(24.0, 24.0, 15.5, 11.5, 32, 24)
        return CameraView(intr, Pose.identity(), FrustumSpec(0.5, 100.0))

    def grid(self, occ):
        return VoxelGrid([-2.0, -2.0, 2.0], (16, 16, 16), 0.25, occ)

    def test_empty_grid_every_sampled_frustum_voxel_visible(self):
        gt = self.grid(np.zeros((16, 16, 16), dtype=bool))
        view = self.view()
        mv = visibility_mask(gt, view, Pose.identity())
        cov = full_march(gt, view, Pose.identity())[1]
        mf = frustum_mask(gt, Pose.identity(), view.intrinsics)
        assert np.array_equal(mv.values, cov & mf.values)
        assert mv.values.any()

    def test_single_blocker_shadows_axis_column(self):
        occ = np.zeros((16, 16, 16), dtype=bool)
        occ[8, 8, 4] = True  # on the optical axis (center at x=y=0.125)
        gt = self.grid(occ)
        mv = visibility_mask(gt, self.view(), Pose.identity())
        assert not mv.values[8, 8, 4]
        # voxels straight behind it along the axis are never visible
        assert not mv.values[8, 8, 5:].any()
        # voxels in front of it on the axis are visible
        assert mv.values[8, 8, :4].all()

    def test_requires_boolean_grid(self):
        gt = VoxelGrid([-2, -2, 2], (4, 4, 4), 1.0, np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            visibility_mask(gt, self.view(), Pose.identity())

    def test_visibility_subset_of_coverage_and_determinism(self):
        rng = np.random.default_rng(5)
        gt = self.grid(rng.random((16, 16, 16)) < 0.2)
        mv1 = visibility_mask(gt, self.view(), Pose.identity())
        mv2 = visibility_mask(gt, self.view(), Pose.identity())
        cov = full_march(gt, self.view(), Pose.identity())[1]
        assert np.array_equal(mv1.values, mv2.values)
        assert not (mv1.values & ~cov).any()
        assert not (mv1.values & gt.values).any()  # occupied voxels never visible

    def test_exact_match_with_independent_same_step_oracle(self):
        """The march has one well-defined meaning: an independently coded
        scalar implementation at the same step must agree bit-for-bit."""
        rng = np.random.default_rng(31)
        view = self.view()
        for _ in range(10):
            gt = self.grid(rng.random((16, 16, 16)) < rng.uniform(0.05, 0.5))
            mv = visibility_mask(gt, view, Pose.identity())
            expect, _ = BruteForceVisibility.run(gt, view, Pose.identity(), 0.25)
            assert np.array_equal(mv.values, expect)

    def test_peak_memory_independent_of_march_length(self):
        """A 512-voxel-deep grid gives the central rays ~370 steps; the march
        holds per-ray and per-voxel state only."""
        rng = np.random.default_rng(2)
        gt = VoxelGrid([-2.0, -2.0, 2.0], (16, 16, 512), 0.25,
                       rng.random((16, 16, 512)) < 0.002)
        view = self.view()
        rays = view.intrinsics.width * view.intrinsics.height
        peak = traced_peak(lambda: visibility_mask(gt, view, Pose.identity()))
        assert peak < 128 * (gt.num_voxels + rays)

    def test_visibility_within_frustum(self):
        rng = np.random.default_rng(8)
        gt = self.grid(rng.random((16, 16, 16)) < 0.15)
        view = self.view()
        mv = visibility_mask(gt, view, Pose.identity())
        mf = frustum_mask(gt, Pose.identity(), view.intrinsics)
        assert not (mv.values & ~mf.values).any()


def full_march(gt, view, t_vc):
    """The march before rays retired, kept as the oracle: every ray takes
    every step of the longest march, masked by its own step count.

    Returns (visible, covered, steps per ray, steps per ray up to and
    including its first occupied sample, or all of them if it has none).
    """
    step = float(np.min(gt.resolution))
    intr = view.intrinsics
    cam_to_voxel = t_vc.inverse()
    origin_v = cam_to_voxel.translation
    dirs_v = cam_to_voxel.rotate(pixel_directions(intr, all_pixel_coords(intr).reshape(-1, 2)))
    te, tx = Box(gt.origin, gt.max_corner, 0.0, (0, 0, 0)).ray_intervals(origin_v, dirs_v)
    start = np.maximum(view.frustum.near, te)
    span = tx - start
    num_steps = np.where(span >= 0, np.floor(span / step) + 1, 0).astype(np.int64)
    used = num_steps.copy()
    visible_flat = np.zeros(gt.num_voxels, dtype=bool)
    covered_flat = np.zeros(gt.num_voxels, dtype=bool)
    occ_flat = gt.values.reshape(-1)
    counts = np.asarray(gt.counts)
    clear = np.ones(len(dirs_v), dtype=bool)
    for k in range(num_steps.max(initial=0)):
        pts = origin_v + (start + k * step)[:, None] * dirs_v
        idx = np.floor((pts - gt.origin) / gt.resolution).astype(np.int64)
        in_grid = np.all((idx >= 0) & (idx < counts), axis=-1)
        idx = np.clip(idx, 0, counts - 1)
        flat = (idx[:, 0] * counts[1] + idx[:, 1]) * counts[2] + idx[:, 2]
        valid = (k < num_steps) & in_grid
        blocked = clear & valid & occ_flat[flat]
        used[blocked] = k + 1
        clear &= ~blocked
        visible_flat[flat[valid & clear]] = True
        covered_flat[flat[valid]] = True
    visible_flat &= frustum_mask(gt, t_vc, intr).values.reshape(-1)
    return (visible_flat.reshape(gt.counts), covered_flat.reshape(gt.counts),
            num_steps, used)


def assert_mixed(mask):
    assert mask.any() and not mask.all()


# The retirement grids span about 4 m a side: 16 voxels of 0.25 m an axis, or 57
# voxels along z of 0.07 m, the march's step, which divides no other edge.
GRIDS = pytest.mark.parametrize("counts, res", [((16, 16, 16), 0.25),
                                                ((16, 16, 57), (0.25, 0.25, 0.07))],
                                ids=["cubic", "anisotropic"])


class TestRayRetirement:
    """Rays leave the march at their end or their first occupied sample; the
    mask must be that of the full march bit for bit."""

    # A wide view (half-angles 52 and 44 degrees) so that tilted grids leave
    # some rays missing the grid altogether.
    VIEW = CameraView(CameraIntrinsics(12.0, 12.0, 15.5, 11.5, 32, 24),
                      Pose.identity(), FrustumSpec(0.5, 100.0))

    @staticmethod
    def random_pose(rng, max_translation):
        return Pose(rotation_about(rng.normal(size=3), rng.uniform(0.1, 0.5)),
                    rng.uniform(-max_translation, max_translation, 3))

    def check(self, gt, t_vc):
        expect = full_march(gt, self.VIEW, t_vc)
        assert np.array_equal(visibility_mask(gt, self.VIEW, t_vc).values, expect[0])
        return expect

    @GRIDS
    @pytest.mark.parametrize("seed", range(6))
    def test_random_grid_in_front(self, seed, counts, res):
        rng = np.random.default_rng(seed)
        gt = VoxelGrid([-2.0, -2.0, 2.0], counts, res,
                       rng.random(counts) < rng.uniform(0.05, 0.4))
        mv, cov, num_steps, used = self.check(gt, self.random_pose(rng, 1.5))
        assert_mixed(mv)
        assert_mixed(cov)
        assert (num_steps == 0).any()            # rays that miss the grid
        assert (used == 1).any()                 # ... that start in an occupied voxel
        assert (used < num_steps).any()          # ... that retire early

    @GRIDS
    @pytest.mark.parametrize("seed", range(3))
    def test_random_grid_around_the_camera(self, seed, counts, res):
        """Every ray starts inside the grid, at the near bound."""
        rng = np.random.default_rng(100 + seed)
        gt = VoxelGrid([-2.0, -2.0, -2.0], counts, res, rng.random(counts) < 0.1)
        mv, cov, num_steps, used = self.check(gt, self.random_pose(rng, 0.5))
        assert_mixed(mv)
        assert_mixed(cov)
        assert (num_steps > 0).all()
        assert (used == 1).any() and (used == num_steps).any()

    @GRIDS
    def test_empty_grid_no_ray_retires_early(self, counts, res):
        gt = VoxelGrid([-2.0, -2.0, 2.0], counts, res, np.zeros(counts, dtype=bool))
        mv, cov, num_steps, used = self.check(
            gt, self.random_pose(np.random.default_rng(7), 1.5))
        assert np.array_equal(used, num_steps)
        assert_mixed(mv)
        assert_mixed(cov)

    @GRIDS
    def test_full_grid_every_ray_retires_at_once(self, counts, res):
        gt = VoxelGrid([-2.0, -2.0, 2.0], counts, res, np.ones(counts, dtype=bool))
        mv, cov, num_steps, used = self.check(
            gt, self.random_pose(np.random.default_rng(8), 1.5))
        assert not mv.any()
        assert_mixed(cov)
        # A ray whose entry sample rounds to just outside the grid is blocked
        # at its second; both kinds occur here.
        assert np.array_equal(np.unique(used[num_steps > 0]), [1, 2])
        assert np.all(used[num_steps == 0] == 0)

    @GRIDS
    def test_work_is_the_samples_up_to_the_first_occupied_one(self, monkeypatch, counts, res):
        """Count the samples the march looks up on a half wall: each ray's
        steps up to and including its first occupied sample, plus at most the
        rest of the window that sample falls in, so fewer than the full
        march; no pass looks up more samples than the first, one per ray
        that enters the grid; and the windows end with the longest march."""
        occ = np.zeros(counts, dtype=bool)
        occ[:8, :, counts[2] * 6 // 16] = True       # 1.5 m into the grid
        gt = VoxelGrid([-2.0, -2.0, 2.0], counts, res, occ)
        view, pose = TestVisibilityMask().view(), Pose.identity()
        _, _, num_steps, used = full_march(gt, view, pose)
        assert used.sum() < num_steps.sum() < len(num_steps) * num_steps.max()

        tiles = []      # (window, live rays) of each pass
        lookup = VoxelGrid.flat_index

        def counting(grid, columns):
            tiles.append(columns[0].shape)
            return lookup(grid, columns)

        monkeypatch.setattr(VoxelGrid, "flat_index", counting)
        visibility_mask(gt, view, pose)
        samples = [w * m for w, m in tiles]
        assert used.sum() <= sum(samples) < num_steps.sum()
        assert max(samples) == samples[0] == np.count_nonzero(num_steps)
        assert sum(w for w, _ in tiles) == num_steps.max()


class TestMetrics:
    def make(self, flags):
        return VoxelGrid([0, 0, 0], (2, 2, 2), 1.0,
                         np.asarray(flags, dtype=bool).reshape(2, 2, 2))

    def test_perfect_prediction_all_ones(self):
        rng = np.random.default_rng(0)
        gt = self.make(rng.random(8) < 0.5)
        mf = self.make([True] * 8)
        mv = self.make([False] * 8)
        rep = compute_metrics(gt, gt, mf, mv)
        assert rep.o_acc == 1.0 and rep.ie_acc == 1.0 and rep.iou == 1.0

    def test_all_empty_prediction_against_full_gt(self):
        pred = self.make([False] * 8)
        gt = self.make([True] * 8)
        mf = self.make([True] * 8)
        mv = self.make([False] * 8)
        rep = compute_metrics(pred, gt, mf, mv)
        assert rep.o_rec == 0.0 and rep.o_acc == 0.0 and rep.ie_pre == 0.0
        # no predicted-occupied voxels: precision undefined, flagged
        assert rep.o_pre is None and "o_pre" in rep.undefined

    def test_crafted_2x2x2_hand_enumeration(self):
        """3 occupied gt, 2 predicted, 1 overlap, all in frustum, 4 invisible.

        Voxels 0..7; gt occupied {0,1,2}, pred occupied {2,3}; invisible
        {0,2,4,5}.  Hand counts: TP=1 FP=1 FN=2 TN=4; invisible region with
        empty positive: e_tp={4,5}=2, e_fp={0}=1, e_fn={}=0, e_tn={2}=1.
        """
        pred = self.make([0, 0, 1, 1, 0, 0, 0, 0])
        gt = self.make([1, 1, 1, 0, 0, 0, 0, 0])
        mf = self.make([1] * 8)
        mv = self.make([0, 1, 0, 1, 0, 0, 1, 1])  # visible = complement of invisible
        rep = compute_metrics(pred, gt, mf, mv)
        assert rep.o_acc == 5 / 8
        assert rep.o_pre == 1 / 2
        assert rep.o_rec == 1 / 3
        assert rep.ie_acc == 3 / 4
        assert rep.ie_pre == 2 / 3
        assert rep.ie_rec == 1.0
        assert rep.iou == 1 / 4
        assert rep.precision == 1 / 2
        assert rep.recall == 1 / 3

    def test_frustum_restriction(self):
        # Outside-frustum voxels must not contribute to any count.
        pred = self.make([1, 0, 0, 0, 1, 1, 1, 1])
        gt = self.make([1, 0, 0, 0, 0, 0, 0, 0])
        mf = self.make([1, 1, 1, 1, 0, 0, 0, 0])
        mv = self.make([0] * 8)
        rep = compute_metrics(pred, gt, mf, mv)
        assert rep.o_acc == 1.0 and rep.iou == 1.0
        assert rep.counts["frustum_total"] == 4

    def test_metric_identities(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            pred = self.make(rng.random(8) < 0.5)
            gt = self.make(rng.random(8) < 0.5)
            mf = self.make(rng.random(8) < 0.8)
            mv = self.make(rng.random(8) < 0.5)
            rep = compute_metrics(pred, gt, mf, mv)
            c = rep.counts
            if rep.o_acc is not None:
                assert rep.o_acc * c["frustum_total"] == pytest.approx(
                    c["frustum_tp"] + c["frustum_tn"])
            defined = [getattr(rep, n) for n in rep.METRIC_NAMES
                       if getattr(rep, n) is not None]
            assert all(0.0 <= m <= 1.0 for m in defined)
            if rep.iou is not None and rep.precision is not None and rep.recall is not None:
                assert rep.iou <= min(rep.precision, rep.recall) + 1e-12

    @pytest.mark.parametrize("name", ["pred", "gt", "frustum", "visible"])
    def test_non_boolean_grid_is_named(self, name):
        grids = {n: self.make([0] * 8) for n in ("pred", "gt", "frustum", "visible")}
        grids[name] = grids[name].like(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match=f"boolean grids; {name} is float64"):
            compute_metrics(**grids)

    def test_peak_memory_is_three_boolean_grids(self):
        """Counts hold one boolean temporary at a time: over the invisible
        region, the region, the predicted positives in it and their overlap
        with the ground truth (1 KiB of slack for small objects)."""
        rng = np.random.default_rng(8)
        grids = [VoxelGrid([0, 0, 0], (128, 128, 32), 0.2, rng.random((128, 128, 32)) < 0.5)
                 for _ in range(4)]
        n = grids[0].num_voxels
        peak = excess_peak(lambda: compute_metrics(*grids), 0)
        assert peak <= 3 * n + 1024, peak / n

    def test_geometry_mismatch_rejected(self):
        a = self.make([0] * 8)
        b = VoxelGrid([0, 0, 0], (2, 2, 2), 2.0, np.zeros((2, 2, 2), dtype=bool))
        with pytest.raises(ValueError):
            compute_metrics(a, a, a, b)

    @pytest.mark.parametrize("name", ["gt", "frustum", "visible"])
    def test_frame_mismatch_is_named(self, name):
        """Same geometry in another frame is another grid: a camera-frame
        prediction against a voxel-frame mask was counted."""
        grids = {n: self.make([0] * 8) for n in ("pred", "gt", "frustum", "visible")}
        g = grids[name]
        grids[name] = VoxelGrid(g.origin, g.counts, g.resolution, g.values, "camera")
        with pytest.raises(ValueError, match=f"{name} grid frame 'camera'"):
            compute_metrics(**grids)

