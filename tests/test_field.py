"""Analytic scene oracle and voxel density field.

The closed-form optical depth of ``conftest`` is itself validated here
against dense numerical quadrature so downstream convergence tests can
trust it.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from occrebench import fixtures
from occrebench.field import (AnalyticScene, Box, HalfSpace, Sphere, VoxelDensityField,
                              ground_truth_occupancy, inverse_softplus,
                              render_reference_image, sigmoid, slab_intervals, softplus,
                              trilinear_corners)
from occrebench.geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose, \
    pixel_directions
from occrebench.grids import VoxelGrid

from conftest import IntervalScaledField, closed_form_transmittance, optical_depth


def density_gradient_wrt_params(f: VoxelDensityField, point):
    """Sparse d(sigma)/d(theta) at one point: (node indices (k,3), values (k,)).

    Each surrounding node contributes its trilinear weight times the
    softplus derivative sigmoid(theta_node); zero-weight corners are
    dropped, so a query exactly on a node returns a single entry.
    Outside the hull the gradient is empty.  The scalar oracle for the
    field's vectorized scatter.
    """
    loc = f.locate(np.asarray(point, dtype=np.float64).reshape(1, 3))
    if not loc.inside[0]:
        return np.zeros((0, 3), dtype=np.int64), np.zeros(0)
    cell, frac = np.unravel_index(loc.base[0], f.shape), loc.frac[:, 0]
    indices, values = [], []
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = ((frac[0] if dx else 1 - frac[0])
                     * (frac[1] if dy else 1 - frac[1])
                     * (frac[2] if dz else 1 - frac[2]))
                if w == 0.0:
                    continue
                node = (int(cell[0]) + dx, int(cell[1]) + dy, int(cell[2]) + dz)
                indices.append(node)
                values.append(w * float(sigmoid(f.theta[node])))
    return np.asarray(indices, dtype=np.int64), np.asarray(values)


def bincount_param_grad(f: VoxelDensityField, loc, dloss_dsigma) -> np.ndarray:
    """The scatter as it was before it ran part by part, kept as the oracle:
    one located batch, one ``np.bincount`` per corner, added in corner order."""
    coeff = np.asarray(dloss_dsigma, dtype=np.float64).reshape(loc.inside.shape)[loc.inside]
    grad_flat = np.zeros(f.theta.size)
    for offset, w in trilinear_corners(loc.frac, f.node_strides):
        w *= coeff
        grad_flat += np.bincount(loc.base + offset, weights=w, minlength=f.theta.size)
    return (grad_flat * sigmoid(f.theta).reshape(-1)).reshape(f.shape)


def plane_intervals(hs: HalfSpace, origin, dirs):
    """``HalfSpace.ray_intervals`` as it was before it became the slab test
    of ``bounds()``, kept as the oracle: the plane crossing, entering or
    leaving by the sign of the direction, and all or nothing along rays
    parallel to the plane."""
    o = float(np.asarray(origin, dtype=np.float64).reshape(3)[hs.axis])
    d = np.asarray(dirs, dtype=np.float64)[..., hs.axis]
    with np.errstate(divide="ignore"):
        t_cross = (hs.offset - o) / d
    entering = (d > 0) == (hs.side > 0)
    te = np.where(entering, t_cross, -np.inf)
    tx = np.where(entering, np.inf, t_cross)
    if np.any(d == 0.0):
        inside = o >= hs.offset if hs.side > 0 else o <= hs.offset
        te = np.where(d == 0.0, -np.inf if inside else np.inf, te)
        tx = np.where(d == 0.0, np.inf if inside else -np.inf, tx)
    return te, tx


class TestPrimitives:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box([0, 0, 0], [1, 0, 1], 1.0, [1, 1, 1])
        with pytest.raises(ValueError):
            Box([0, 0, 0], [1, 1, 1], -1.0, [1, 1, 1])
        with pytest.raises(ValueError):
            Box([0, 0, 0], [1, 1, 1], 1.0, [2, 0, 0])

    @pytest.mark.parametrize("make, field", [
        (lambda: Box([0, 0, 0], [1, 1, 1], np.nan, [1, 1, 1]), "density"),
        (lambda: Box([0, 0, 0], [1, 1, 1], np.inf, [1, 1, 1]), "density"),
        (lambda: Sphere([0, 0, 0], 1.0, np.nan, [1, 1, 1]), "density"),
        (lambda: HalfSpace(1, 0.0, 1, np.inf, [1, 1, 1]), "density"),
        (lambda: Box([0, 0, 0], [1, 1, 1], 1.0, [1, np.nan, 1]), "albedo"),
        (lambda: Box([0, np.nan, 0], [1, 1, 1], 1.0, [1, 1, 1]), "min_corner"),
        (lambda: Box([0, 0, 0], [1, 1, np.nan], 1.0, [1, 1, 1]), "max_corner"),
        (lambda: Box([-np.inf, 0, 0], [1, 1, 1], 1.0, [1, 1, 1]), "min_corner"),
        (lambda: Sphere([0, 0, np.nan], 1.0, 1.0, [1, 1, 1]), "center"),
        (lambda: Sphere([0, 0, 0], np.nan, 1.0, [1, 1, 1]), "radius"),
        (lambda: Sphere([0, 0, 0], np.inf, 1.0, [1, 1, 1]), "radius"),
        (lambda: HalfSpace(1, np.nan, 1, 1.0, [1, 1, 1]), "offset"),
    ])
    def test_nan_and_infinite_inputs_rejected(self, make, field):
        """They used to be accepted: a NaN density gave sigma = NaN, and a NaN
        corner, center, radius or offset a primitive containing nothing."""
        with pytest.raises(ValueError, match=field):
            make()

    def test_box_ray_intervals_hand_case(self):
        box = Box([-1, -1, 4], [1, 1, 6], 1.0, [1, 0, 0])
        te, tx = box.ray_intervals(np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
        assert te[0] == 4.0 and tx[0] == 6.0
        te, tx = box.ray_intervals(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        assert te[0] >= tx[0]  # ray along x at y=z=0 misses (z slab at 4..6)

    def test_sphere_ray_intervals_hand_case(self):
        s = Sphere([0, 0, 5], 1.0, 1.0, [0, 1, 0])
        te, tx = s.ray_intervals(np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
        assert np.isclose(te[0], 4.0) and np.isclose(tx[0], 6.0)

    def test_halfspace_contains_and_intervals(self):
        ground = HalfSpace(axis=1, offset=1.5, side=1, density=1.0, albedo=[0.5] * 3)
        assert ground.contains(np.array([0.0, 2.0, 0.0]))
        assert not ground.contains(np.array([0.0, 0.0, 0.0]))
        d = np.array([[0.0, 0.6, 0.8]])
        te, tx = ground.ray_intervals(np.zeros(3), d)
        assert np.isclose(te[0], 1.5 / 0.6) and tx[0] == np.inf

    @pytest.mark.parametrize("axis, side, field", [
        (True, 1, "axis"), (1.0, 1, "axis"), (3, 1, "axis"), (-1, 1, "axis"),
        (1, True, "side"), (1, 1.0, "side"), (1, 0, "side"), (1, 2, "side"),
    ])
    def test_halfspace_rejects_a_bad_axis_or_side(self, axis, side, field):
        """An axis of True constructed, and contains then boolean-indexed the
        points (an array of the wrong shape); an axis of 1.0 constructed, and
        contains and bounds raised IndexError."""
        with pytest.raises(ValueError, match=f"^half-space {field} "):
            HalfSpace(axis, 0.0, side, 1.0, [1, 1, 1])

    @pytest.mark.parametrize("seed", range(4))
    def test_halfspace_slab_test_equals_the_plane_formula(self, seed):
        """Bit for bit, signed zeros included, on rays with zero direction
        components and origins on the plane; the formula warns at 0/0, the
        slab test does not."""
        rng = np.random.default_rng(seed)
        for _ in range(500):
            hs = HalfSpace(int(rng.integers(3)), float(rng.normal()),
                           int(rng.choice([-1, 1])), 1.0, [1, 1, 1])
            origin = rng.normal(size=3)
            if rng.random() < 0.3:
                origin[hs.axis] = hs.offset
            dirs = rng.normal(size=(32, 3))
            dirs[rng.random((32, 3)) < 0.25] = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = plane_intervals(hs, origin, dirs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = hs.ray_intervals(origin, dirs)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_plane_formula_warns_at_zero_over_zero(self):
        hs = HalfSpace(1, 0.0, 1, 1.0, [1, 1, 1])
        on_plane, parallel = np.zeros(3), np.array([[1.0, 0.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="invalid value encountered in divide"):
            plane_intervals(hs, on_plane, parallel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hs.ray_intervals(on_plane, parallel)

    def test_occluder_images_equal_the_plane_formula_images(self, monkeypatch):
        fix = fixtures.standard_occluder()
        images = [render_reference_image(fix.scene, v) for v in fix.views]
        monkeypatch.setattr(HalfSpace, "ray_intervals", plane_intervals)
        for view, image in zip(fix.views, images):
            assert render_reference_image(fix.scene, view).tobytes() == image.tobytes()


class TestAnalyticScene:
    def test_empty_scene_density_zero(self):
        scene = AnalyticScene(())
        assert np.all(scene.density_at(np.random.default_rng(0).normal(size=(10, 3))) == 0)

    def test_box_interior_density(self):
        scene = AnalyticScene((Box([0, 0, 0], [1, 1, 1], 50.0, [1, 1, 1]),))
        assert scene.density_at(np.array([0.5, 0.5, 0.5])) == 50.0

    def test_overlap_resolves_by_list_order(self):
        a = Box([0, 0, 0], [2, 2, 2], 10.0, [1, 0, 0])
        b = Box([1, 1, 1], [3, 3, 3], 20.0, [0, 1, 0])
        pt = np.array([1.5, 1.5, 1.5])
        assert AnalyticScene((a, b)).density_at(pt) == 10.0
        assert AnalyticScene((b, a)).density_at(pt) == 20.0
        assert np.allclose(AnalyticScene((a, b)).color_at(pt), [1, 0, 0])

    def test_optical_depth_single_slab(self):
        # Hand value: the box spans t in [4, 6] on the axis ray; integral = 2 * 50.
        scene = AnalyticScene((Box([-1, -1, 4], [1, 1, 6], 50.0, [1, 0, 0]),))
        depth = optical_depth(scene, np.zeros(3), np.array([0, 0, 1.0]), 0.0, 10.0)
        assert np.isclose(depth, 100.0, atol=1e-12)
        assert np.isclose(closed_form_transmittance(scene, np.zeros(3), np.array([0, 0, 1.0]),
                                                    0.0, 10.0), np.exp(-100.0))

    def test_optical_depth_against_quadrature(self, sphere_scene):
        # Independent oracle: 200k-point midpoint quadrature of the density.
        rng = np.random.default_rng(4)
        for _ in range(5):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            d[2] = abs(d[2])
            t0, t1 = 1.0, 12.0
            ts = np.linspace(t0, t1, 200_001)
            mids = (ts[:-1] + ts[1:])[:, None] / 2 * d
            quad = np.sum(sphere_scene.density_at(mids)) * (t1 - t0) / 200_000
            exact = optical_depth(sphere_scene, np.zeros(3), d, t0, t1)
            assert abs(quad - exact) < 1e-3

    def test_optical_depth_with_overlapping_primitives(self):
        # First-wins overlap: box A (sigma 10) hides the overlapped half of
        # box B (sigma 20).  Integral = 10*2 (A over [4,6]) + 20*1 (B over [6,7]).
        a = Box([-1, -1, 4], [1, 1, 6], 10.0, [1, 0, 0])
        b = Box([-1, -1, 5], [1, 1, 7], 20.0, [0, 1, 0])
        scene = AnalyticScene((a, b))
        depth = optical_depth(scene, np.zeros(3), np.array([0, 0, 1.0]), 0.0, 10.0)
        assert np.isclose(depth, 40.0, atol=1e-12)


class TestGroundTruthOccupancy:
    def grid16(self):
        return VoxelGrid.filled([-2, -2, -2], (16, 16, 16), 0.25, False, dtype=bool)

    def test_empty_scene_all_false(self):
        out = ground_truth_occupancy(AnalyticScene(()), self.grid16())
        assert not out.values.any()

    def test_covering_box_all_true(self):
        scene = AnalyticScene((Box([-2, -2, -2], [2, 2, 2], 1.0, [1, 1, 1]),))
        out = ground_truth_occupancy(scene, self.grid16())
        assert out.values.all()

    def test_sphere_matches_per_voxel_brute_force(self):
        scene = AnalyticScene((Sphere([0, 0, 0], 1.0, 5.0, [1, 1, 1]),))
        grid = self.grid16()
        out = ground_truth_occupancy(scene, grid)
        for i in range(16):
            for j in range(16):
                for k in range(16):
                    center = grid.origin + (np.array([i, j, k]) + 0.5) * 0.25
                    assert out.values[i, j, k] == (np.linalg.norm(center) <= 1.0)

    def test_order_invariant_for_disjoint_primitives(self):
        a = Box([-2, -2, -2], [-1, -1, -1], 1.0, [1, 0, 0])
        b = Sphere([1, 1, 1], 0.8, 2.0, [0, 1, 0])
        g1 = ground_truth_occupancy(AnalyticScene((a, b)), self.grid16())
        g2 = ground_truth_occupancy(AnalyticScene((b, a)), self.grid16())
        assert np.array_equal(g1.values, g2.values)

    def test_grid_to_world_pose_applied(self):
        # Grid shifted by +10 in z through the pose lands on the box.
        scene = AnalyticScene((Box([-2, -2, 8], [2, 2, 12], 1.0, [1, 1, 1]),))
        pose = Pose(np.eye(3), [0, 0, 10.0])
        out = ground_truth_occupancy(scene, self.grid16(), grid_to_world=pose)
        assert out.values.all()


class TestReferenceImage:
    def view(self):
        intr = CameraIntrinsics(60.0, 60.0, 31.5, 23.5, 64, 48)
        return CameraView(intr, Pose.identity(), FrustumSpec(1.0, 50.0))

    def test_empty_scene_uniform_background(self):
        scene = AnalyticScene((), background=[0.2, 0.3, 0.4])
        img = render_reference_image(scene, self.view())
        assert img.shape == (48, 64, 3)
        assert np.allclose(img, [0.2, 0.3, 0.4])

    def test_full_frustum_wall(self):
        wall = Box([-100, -100, 5], [100, 100, 6], 50.0, [1, 0, 0])
        img = render_reference_image(AnalyticScene((wall,)), self.view())
        assert np.allclose(img, [1, 0, 0])

    def test_determinism_bit_identical(self, box_scene):
        a = render_reference_image(box_scene, self.view())
        b = render_reference_image(box_scene, self.view())
        assert np.array_equal(a, b)

    def test_matches_per_pixel_intersection_oracle(self, box_scene):
        """Scalar-math oracle on 100 random pixels of the box+ground scene."""
        view = self.view()
        img = render_reference_image(box_scene, view)
        rng = np.random.default_rng(17)
        box, ground = box_scene.primitives
        for _ in range(100):
            u = int(rng.integers(0, 64))
            v = int(rng.integers(0, 48))
            d = pixel_directions(view.intrinsics, np.array([float(u), float(v)]))
            # Box entry via scalar slab test.
            t_box = np.inf
            with np.errstate(divide="ignore"):
                lo = (box.min_corner - 0.0) / d
                hi = (box.max_corner - 0.0) / d
            te = np.minimum(lo, hi).max()
            tx = np.maximum(lo, hi).min()
            if te < tx and tx > 0:
                t_box = max(te, 0.0)
            t_ground = np.inf
            if d[1] > 0:
                t_ground = 1.5 / d[1]
            t = min(t_box, t_ground)
            if not np.isfinite(t):
                expected = box_scene.background
            elif t == t_box:
                expected = box.albedo
            else:
                expected = ground.albedo
            assert np.allclose(img[v, u], expected), (u, v)


class TestVoxelDensityField:
    def make_field(self, theta=None):
        if theta is None:
            theta = np.zeros((4, 4, 4))
        return VoxelDensityField(origin=[0, 0, 0], resolution=0.5, theta=theta)

    def test_zero_theta_gives_ln2_everywhere(self):
        f = self.make_field()
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1.5, (200, 3))
        assert np.allclose(f.density_at(pts), np.log(2.0), atol=1e-12)

    def test_outside_hull_is_zero(self):
        f = self.make_field()
        assert f.density_at(np.array([-0.1, 0.5, 0.5])) == 0.0
        assert f.density_at(np.array([0.5, 0.5, 1.6])) == 0.0

    def test_node_value_exact(self):
        theta = np.zeros((4, 4, 4))
        theta[1, 2, 3] = 1.7
        f = self.make_field(theta)
        node = f.origin + np.array([1, 2, 3]) * 0.5
        assert np.isclose(f.density_at(node), softplus(np.array(1.7)), atol=1e-12)

    def test_uniform_constructor_hits_target_density(self):
        f = VoxelDensityField.uniform([0, 0, 0], 0.5, (4, 4, 4), sigma0=0.05)
        assert np.allclose(f.density_at(np.array([0.7, 0.7, 0.7])), 0.05, atol=1e-12)

    def test_continuity_bound(self):
        # |sigma(x) - sigma(x+eps)| <= L * |eps| with L ~ max-slope of the
        # interpolant: max softplus spread over a cell / min resolution.
        rng = np.random.default_rng(23)
        theta = rng.normal(size=(5, 5, 5))
        f = VoxelDensityField(origin=[0, 0, 0], resolution=0.25, theta=theta)
        span = softplus(theta).max() - softplus(theta).min()
        lipschitz = 3 * span / 0.25
        pts = rng.uniform(0.05, 0.95, (300, 3))
        eps = rng.normal(size=(300, 3)) * 1e-3
        keep = np.all((pts + eps >= 0) & (pts + eps <= 1.0), axis=1)
        d = np.abs(f.density_at(pts + eps) - f.density_at(pts))
        assert np.all(d[keep] <= lipschitz * np.linalg.norm(eps, axis=1)[keep] + 1e-12)

    def test_gradient_at_node_single_entry(self):
        theta = np.zeros((4, 4, 4))
        theta[2, 1, 1] = -0.3
        f = self.make_field(theta)
        idx, vals = density_gradient_wrt_params(f, f.origin + np.array([2, 1, 1]) * 0.5)
        assert idx.shape == (1, 3) and tuple(idx[0]) == (2, 1, 1)
        expected = 1.0 / (1.0 + np.exp(0.3))
        assert np.isclose(vals[0], expected, atol=1e-12)

    def test_gradient_at_cell_center_eight_entries(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=(4, 4, 4))
        f = self.make_field(theta)
        center = f.origin + np.array([1.5, 1.5, 1.5]) * 0.5
        idx, vals = density_gradient_wrt_params(f, center)
        assert len(vals) == 8
        for node, val in zip(idx, vals):
            sig = 1.0 / (1.0 + np.exp(-theta[tuple(node)]))
            assert np.isclose(val, sig / 8.0, atol=1e-12)

    def test_gradient_outside_empty(self):
        idx, vals = density_gradient_wrt_params(self.make_field(), [-1.0, 0, 0])
        assert len(vals) == 0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(4, 4, 4))
        f = self.make_field(theta)
        for _ in range(20):
            x = rng.uniform(0.01, 1.49, 3)
            idx, vals = density_gradient_wrt_params(f, x)
            for node, val in zip(idx, vals):
                h = 1e-6
                fp = f.copy()
                fp.theta[tuple(node)] += h
                fm = f.copy()
                fm.theta[tuple(node)] -= h
                fd = (fp.density_at(x) - fm.density_at(x)) / (2 * h)
                assert abs(fd - val) <= 1e-6 * max(abs(fd), 1.0)

    def test_accumulate_matches_sparse_gradient(self):
        rng = np.random.default_rng(8)
        theta = rng.normal(size=(4, 4, 4))
        f = self.make_field(theta)
        pts = rng.uniform(0.0, 1.5, (50, 3))
        coeff = rng.normal(size=50)
        dense = f.accumulate_param_grad(pts, coeff)
        expected = np.zeros_like(theta)
        for p, c in zip(pts, coeff):
            idx, vals = density_gradient_wrt_params(f, p)
            for node, val in zip(idx, vals):
                expected[tuple(node)] += c * val
        assert np.allclose(dense, expected, atol=1e-12)

    @pytest.mark.parametrize("rays_per_part", [1, 7, 500])
    def test_scatter_over_parts_equals_the_one_part_scatter(self, rays_per_part):
        """``param_grad_from`` over ray parts, some with no point inside the
        hull, is the one-part scatter and the whole-batch bincount bit for bit."""
        rng = np.random.default_rng(10)
        f = self.make_field(rng.normal(size=(4, 4, 4)))
        pts = rng.uniform(-0.2, 1.7, (1200, 6, 3))
        pts[500:1000] += 10.0                  # whole parts outside the hull
        g = rng.normal(size=(1200, 6))
        parts = [(f.locate(pts[s:s + rays_per_part]), g[s:s + rays_per_part])
                 for s in range(0, len(pts), rays_per_part)]
        assert any(not loc.inside.any() for loc, _ in parts)
        blocked = f.param_grad_from(iter(parts))
        whole = f.locate(pts)
        assert np.array_equal(blocked, f.param_grad_from([(whole, g)]))
        assert np.array_equal(blocked, bincount_param_grad(f, whole, g))
        assert np.any(blocked != 0.0)

    @pytest.mark.parametrize("stage", ["density_from", "param_grad_from"])
    def test_lattice_kernels_hold_what_their_docstrings_name(self, stage):
        """Beyond 16 KiB, ``density_from`` peaks at five 8 B arrays per
        inside point (the sum, one corner's gathered node values and the
        three arrays ``trilinear_corners`` names; its output is made after
        them) and the scatter of one part at four (the coefficients and
        those three).  Holding the previous corner while the next is made,
        or a corner's index array, costs one more at least."""
        rng = np.random.default_rng(11)
        f = self.make_field(rng.normal(size=(4, 4, 4)))
        loc = f.locate(rng.uniform(0.0, 1.5, (50_000, 3)))
        assert loc.inside.all()
        g = rng.normal(size=len(loc.base))
        nodes = f.node_density()
        if stage == "density_from":
            run, arrays = lambda: f.density_from(loc, nodes), 5
        else:
            run, arrays = lambda: f.param_grad_from([(loc, g)]), 4
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 8 * len(loc.base) + 16384

    def test_inverse_softplus_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inverse_softplus(0.0)

    @pytest.mark.parametrize("y", [710.0, 800.0, 1e300])
    def test_inverse_softplus_stays_finite_where_expm1_overflows(self, y):
        """np.expm1 overflows above about 709.78, which gave theta = inf."""
        theta = inverse_softplus(y)
        assert np.isfinite(theta)
        assert softplus(theta) == y

    @pytest.mark.parametrize("y", [0.05, 60.0])
    def test_inverse_softplus_keeps_its_bits_below_the_switch(self, y):
        """The evaluation fields' densities: y + ln(1 - e^-y) differs from
        ln(e^y - 1) by an ulp at 0.05."""
        assert inverse_softplus(y) == float(np.log(np.expm1(y)))

    @pytest.mark.parametrize("sigma0", [np.nan, np.inf])
    def test_uniform_field_rejects_a_non_finite_density(self, sigma0):
        """A NaN or infinite sigma0 gave a field of NaN or infinite theta."""
        with pytest.raises(ValueError, match="softplus value"):
            VoxelDensityField.uniform([0.0, 0.0, 0.0], 1.0, (2, 2, 2), sigma0=sigma0)


class TestIntervalScaledField:
    def test_density_tracks_sample_count(self):
        region = Box([-5, -5, 10], [5, 5, 14], 1.0, [1, 1, 1])
        base = dict(region=region, ray_origin=[0, 0, 0], near=3.0, far=20.0)
        f32 = IntervalScaledField(num_samples=32, **base)
        f128 = IntervalScaledField(num_samples=128, **base)
        x = np.array([0.0, 0.0, 12.0])
        assert np.isclose(f128.density_at(x) / f32.density_at(x), 4.0)
        assert f32.density_at(np.array([0.0, 0.0, 5.0])) == 0.0

    def test_per_sample_opacity_is_flat(self):
        # The defining property: sigma * local_interval is constant in depth.
        region = Box([-50, -50, 4], [50, 50, 19], 1.0, [1, 1, 1])
        f = IntervalScaledField(region=region, ray_origin=[0, 0, 0], near=3.0,
                                far=20.0, num_samples=64, alpha_target=0.55)
        for z in (5.0, 9.0, 18.0):
            x = np.array([0.0, 0.0, z])
            sigma = f.density_at(x)
            alpha = 1 - np.exp(-sigma * f.local_interval(np.array(z)))
            assert np.isclose(alpha, 0.55, atol=1e-12)


@pytest.mark.parametrize("origin, resolution, field", [
    ([np.nan, 0.0, 0.0], 1.0, "origin"),
    ([0.0, -np.inf, 0.0], 1.0, "origin"),
    ([0.0, 0.0, 0.0], np.nan, "resolution"),
    ([0.0, 0.0, 0.0], [1.0, np.inf, 1.0], "resolution"),
    ([0.0, 0.0, 0.0], [1.0, 1.0, 0.0], "resolution"),
    ([0.0, 0.0, 0.0], -1.0, "resolution"),
])
def test_grid_and_field_name_the_rejected_geometry(origin, resolution, field):
    with pytest.raises(ValueError, match=field):
        VoxelGrid(origin, (2, 2, 2), resolution, np.zeros((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError, match=field):
        VoxelDensityField(origin, resolution, np.zeros((2, 2, 2)))


@pytest.mark.parametrize("counts", [(2.5, 2, 2), (2, True, 2), (2, 2, 0),
                                    np.array([2.0, 2.0, 2.0])])
def test_grid_counts_must_be_ints(counts):
    """Counts of (2.5, 2, 2) became (2, 2, 2)."""
    with pytest.raises(ValueError, match="^voxel counts must be an int >= 1"):
        VoxelGrid([0.0, 0.0, 0.0], counts, 1.0, np.zeros((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError, match="^voxel counts must be an int >= 1"):
        VoxelGrid.filled([0.0, 0.0, 0.0], counts, 1.0, False, dtype=bool)


def reduced_slab_intervals(lo, hi, origin, dirs):
    """``slab_intervals`` as it was, with length-3 max and min reductions."""
    o, d = np.asarray(origin, dtype=np.float64), np.asarray(dirs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo, t_hi = (lo - o) / d, (hi - o) / d
    near, far = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
    zero = d == 0.0
    in_slab = np.broadcast_to((o >= lo) & (o <= hi), d.shape)
    near = np.where(zero, np.where(in_slab, -np.inf, np.inf), near)
    far = np.where(zero, np.where(in_slab, np.inf, -np.inf), far)
    return near.max(axis=-1), far.min(axis=-1)


@pytest.mark.parametrize("seed", range(3))
def test_slab_folds_equal_the_reductions(seed):
    """Bit for bit, on rays with zero and signed-zero direction components,
    origins on a bound (so that t is a signed zero) and half-space-like
    boxes with infinite bounds; and on every triple drawn from signed
    zeros, ones and infinities."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        lo, hi = np.sort(rng.normal(size=(2, 3)) * 3, axis=0)
        lo[rng.random(3) < 0.3] = -np.inf
        hi[rng.random(3) < 0.3] = np.inf
        origin = rng.normal(size=3) * 3
        bound = np.where(rng.random(3) < 0.5, lo, hi)
        on_bound = (rng.random(3) < 0.4) & np.isfinite(bound)
        origin[on_bound] = bound[on_bound]
        dirs = rng.normal(size=(64, 3))
        dirs[rng.random((64, 3)) < 0.25] = 0.0
        dirs[rng.random((64, 3)) < 0.15] = -0.0
        for got, want in zip(slab_intervals(lo, hi, origin, dirs),
                             reduced_slab_intervals(lo, hi, origin, dirs)):
            assert got.tobytes() == want.tobytes()
    values = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf])
    triples = np.stack(np.meshgrid(values, values, values, indexing="ij"), -1).reshape(-1, 3)
    fold_max = np.maximum(np.maximum(triples[:, 0], triples[:, 1]), triples[:, 2])
    fold_min = np.minimum(np.minimum(triples[:, 0], triples[:, 1]), triples[:, 2])
    assert fold_max.tobytes() == triples.max(axis=-1).tobytes()
    assert fold_min.tobytes() == triples.min(axis=-1).tobytes()
