"""Camera, pose, and frustum-cube transform contracts.

Derived expectations are computed with independent scalar math (hand
pinhole equations, 4x4 homogeneous products) rather than the functions
under test.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occrebench.geometry import (CameraIntrinsics, CameraView, FrustumSpec, Pose,
                                 ccs_to_tcs, in_image, pixel_directions, project)

from conftest import random_pose, rotation_about


# ---------------------------------------------------------------------------
# Test-side geometry: the inverse cube map, a KITTI pose chain and the 4x4
# form of a pose, used only to check the package's maps against
# ---------------------------------------------------------------------------

def tcs_to_ccs(points_tcs: np.ndarray, intr: CameraIntrinsics,
               fr: FrustumSpec) -> np.ndarray:
    """Inverse of :func:`ccs_to_tcs` on the open frustum.

    The z coordinate determines the radial distance; x and y recover the
    pixel, hence the viewing direction.  Inputs implying a nonpositive
    radial distance are rejected.
    """
    pts = np.asarray(points_tcs, dtype=np.float64)
    u = pts[..., 0] * (intr.width - 1.0)
    v = pts[..., 1] * (intr.height - 1.0)
    inv_span = 1.0 / fr.near - 1.0 / fr.far
    inv_dist = 1.0 / fr.near - pts[..., 2] * inv_span
    if np.any(inv_dist <= 0.0):
        raise ValueError("tcs_to_ccs: z implies a nonpositive or infinite radial distance")
    dist = 1.0 / inv_dist
    d = np.stack([(u - intr.cx) / intr.fx,
                  (v - intr.cy) / intr.fy,
                  np.ones_like(u)], axis=-1)
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return d * dist[..., None]


def voxel_to_camera_transform(t_i: Pose, t_j: Pose, t_lc: Pose, t_vl: Pose) -> Pose:
    """Compose the voxel-to-camera pose from ego poses and extrinsics.

    T = T_i^-1 @ T_j @ T_lc @ T_vl: ego pose of the annotated frame carried
    into the query frame, then LiDAR-to-camera, then voxel-to-LiDAR.
    """
    return t_i.inverse().compose(t_j).compose(t_lc).compose(t_vl)


def matrix(pose: Pose) -> np.ndarray:
    """Homogeneous 4x4 matrix of a pose."""
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


class TestTypes:
    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(0.0, 1.0, 0.0, 0.0, 10, 10)
        with pytest.raises(ValueError):
            CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 1, 10)

    def test_pose_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            Pose(bad, np.zeros(3))

    def test_pose_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(refl, np.zeros(3))

    def test_frustum_ordering(self):
        with pytest.raises(ValueError):
            FrustumSpec(5.0, 5.0)
        with pytest.raises(ValueError):
            FrustumSpec(-1.0, 5.0)

    @pytest.mark.parametrize("width, height, name", [
        (64.9, 48, "width"), (64, 48.0, "height"), (True, 48, "width"), (64, None, "height"),
    ])
    def test_intrinsics_reject_a_non_integer_size(self, width, height, name):
        """A width of 64.9 became 64 on its way in from a scene spec."""
        with pytest.raises(ValueError, match=f"^{name} must be an int >= 2"):
            CameraIntrinsics(10.0, 10.0, 3.0, 3.0, width, height)

    @pytest.mark.parametrize("args, name", [
        ((np.nan, 10.0, 3.0, 3.0, 10, 8), "fx"),
        ((np.inf, 10.0, 3.0, 3.0, 10, 8), "fx"),
        ((10.0, np.nan, 3.0, 3.0, 10, 8), "fy"),
        ((10.0, np.inf, 3.0, 3.0, 10, 8), "fy"),
        ((10.0, 10.0, np.nan, 3.0, 10, 8), "cx"),
        ((10.0, 10.0, -np.inf, 3.0, 10, 8), "cx"),
        ((10.0, 10.0, 3.0, np.nan, 10, 8), "cy"),
        ((10.0, 10.0, 3.0, np.inf, 10, 8), "cy"),
    ])
    def test_intrinsics_reject_non_finite(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            CameraIntrinsics(*args)

    def test_pose_rejects_non_finite(self):
        with pytest.raises(ValueError, match="^translation "):
            Pose(np.eye(3), [np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="^translation "):
            Pose(np.eye(3), [0.0, np.inf, 0.0])
        rot = rotation_about(np.array([0.2, 1.0, -0.4]), 0.7)
        rot[1, 2] = np.nan
        with pytest.raises(ValueError, match="^rotation "):
            Pose(rot, np.zeros(3))

    def test_frustum_rejects_non_finite(self):
        with pytest.raises(ValueError, match="^far "):
            FrustumSpec(1.0, np.inf)
        with pytest.raises(ValueError):
            FrustumSpec(np.nan, 5.0)
        with pytest.raises(ValueError):
            FrustumSpec(1.0, np.nan)


class TestRayForPixel:
    def test_principal_point_is_optical_axis(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 2, 2)
        origin, direction = CameraView(intr).world_rays(np.array([0.0, 0.0]))
        assert np.allclose(direction, [0, 0, 1])
        assert np.allclose(origin, 0.0)

    def test_45_degree_ray(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 2, 2)
        direction = pixel_directions(intr, np.array([1.0, 0.0]))
        assert np.allclose(direction, np.array([1, 0, 1]) / np.sqrt(2))

    def test_hand_unprojection(self):
        # (u - cx)/fx = (60 - 50)/100 = 0.1, so d ~ (0.1, 0, 1) normalized.
        intr = CameraIntrinsics(100.0, 100.0, 50.0, 25.0, 101, 51)
        direction = pixel_directions(intr, np.array([60.0, 25.0]))
        expected = np.array([0.1, 0.0, 1.0])
        expected /= np.linalg.norm(expected)
        assert np.allclose(direction, expected, atol=1e-15)


class TestProject:
    def test_optical_axis_hits_principal_point(self, simple_intrinsics):
        u, v, z = project(simple_intrinsics, np.array([0.0, 0.0, 10.0]))
        assert (u, v, z) == (50.0, 25.0, 10.0)

    def test_hand_projection(self):
        intr = CameraIntrinsics(100.0, 100.0, 50.0, 25.0, 101, 51)
        u, v, z = project(intr, np.array([1.0, 0.0, 1.0]))
        assert (u, v, z) == (150.0, 25.0, 1.0)

    def test_behind_camera_flagged_by_sign(self, simple_intrinsics):
        _, _, z = project(simple_intrinsics, np.array([0.0, 0.0, -1.0]))
        assert z == -1.0

    def test_unproject_project_cycle(self, simple_intrinsics):
        rng = np.random.default_rng(7)
        uv = rng.uniform([0, 0], [100, 50], size=(64, 2))
        dirs = pixel_directions(simple_intrinsics, uv)
        u, v, z = project(simple_intrinsics, dirs * rng.uniform(1, 30, (64, 1)))
        assert np.allclose(np.stack([u, v], axis=-1), uv, atol=1e-9)
        assert np.all(z > 0)


class TestInImage:
    """simple_intrinsics: a 101 x 51 image, so u in [0, 100], v in [0, 50]."""

    @pytest.mark.parametrize("point, expected", [
        ([0.0, 0.0, 10.0], True),            # principal point
        ([0.5, 0.25, 1.0], True),            # u = w-1, v = h-1: edges included
        ([-0.5, -0.25, 1.0], True),          # u = 0, v = 0
        ([0.5 + 1e-9, 0.0, 1.0], False),     # just past u = w-1
        ([-0.5 - 1e-9, 0.0, 1.0], False),    # just before u = 0
        ([0.0, 0.25 + 1e-9, 1.0], False),    # just past v = h-1
        ([0.0, 0.0, 0.0], False),            # z = 0: (u, v) not finite
        ([1.0, 1.0, 0.0], False),            # z = 0: (u, v) infinite
        ([0.0, 0.0, -10.0], False),          # behind, projects onto the image
    ])
    def test_point_cases(self, simple_intrinsics, point, expected):
        u, v, z = project(simple_intrinsics, np.array(point))
        if point[2] == 0.0:
            assert not (np.isfinite(u) and np.isfinite(v))
        assert in_image(simple_intrinsics, u, v, z) == expected


class TestTcs:
    def test_near_anchor_maps_to_origin(self, simple_intrinsics):
        fr = FrustumSpec(3.0, 20.0)
        x = pixel_directions(simple_intrinsics, np.array([0.0, 0.0])) * fr.near
        assert np.allclose(ccs_to_tcs(x, simple_intrinsics, fr), [0, 0, 0], atol=1e-12)

    def test_far_anchor_maps_to_ones(self, simple_intrinsics):
        fr = FrustumSpec(3.0, 20.0)
        x = pixel_directions(simple_intrinsics, np.array([100.0, 50.0])) * fr.far
        assert np.allclose(ccs_to_tcs(x, simple_intrinsics, fr), [1, 1, 1], atol=1e-12)

    def test_hand_value_on_axis(self, simple_intrinsics):
        # Independent scalar evaluation: u=cx, v=cy, |x|=10,
        # z = (1/3 - 1/10) / (1/3 - 1/20).
        fr = FrustumSpec(3.0, 20.0)
        got = ccs_to_tcs(np.array([0.0, 0.0, 10.0]), simple_intrinsics, fr)
        expected_z = (1 / 3 - 1 / 10) / (1 / 3 - 1 / 20)
        assert np.allclose(got, [0.5, 0.5, expected_z], atol=1e-15)

    def test_rejects_zero_norm_and_negative_depth(self, simple_intrinsics):
        fr = FrustumSpec(3.0, 20.0)
        with pytest.raises(ValueError):
            ccs_to_tcs(np.zeros(3), simple_intrinsics, fr)
        with pytest.raises(ValueError):
            ccs_to_tcs(np.array([0.0, 0.0, -2.0]), simple_intrinsics, fr)

    def test_rejects_nan(self, simple_intrinsics):
        fr = FrustumSpec(3.0, 20.0)
        for bad in ([[0.1, 0.2, np.nan]], [[np.nan, 0.2, 5.0]],
                    [[1.0, 2.0, 5.0], [0.0, np.nan, 4.0]]):
            with pytest.raises(ValueError, match="NaN"):
                ccs_to_tcs(np.array(bad), simple_intrinsics, fr)

    def test_inverse_anchors(self, simple_intrinsics):
        fr = FrustumSpec(3.0, 20.0)
        near_pt = tcs_to_ccs(np.zeros(3), simple_intrinsics, fr)
        assert np.allclose(np.linalg.norm(near_pt), fr.near, atol=1e-12)
        assert np.allclose(near_pt, pixel_directions(simple_intrinsics,
                                                     np.array([0.0, 0.0])) * fr.near)
        far_pt = tcs_to_ccs(np.ones(3), simple_intrinsics, fr)
        assert np.allclose(far_pt, pixel_directions(simple_intrinsics,
                                                    np.array([100.0, 50.0])) * fr.far)

    def test_round_trip_1000_points(self, simple_intrinsics):
        fr = FrustumSpec(3.0, 20.0)
        rng = np.random.default_rng(11)
        cube = rng.uniform(0, 1, (1000, 3))
        ccs = tcs_to_ccs(cube, simple_intrinsics, fr)
        back = ccs_to_tcs(ccs, simple_intrinsics, fr)
        assert np.max(np.abs(back - cube)) < 1e-9

    def test_monotone_in_radial_distance(self, simple_intrinsics):
        fr = FrustumSpec(3.0, 20.0)
        direction = pixel_directions(simple_intrinsics, np.array([30.0, 40.0]))
        ts = np.linspace(3.0, 20.0, 50)
        z = ccs_to_tcs(ts[:, None] * direction, simple_intrinsics, fr)[:, 2]
        assert np.all(np.diff(z) > 0)

    def test_in_frustum_points_map_into_cube(self, simple_intrinsics):
        fr = FrustumSpec(3.0, 20.0)
        rng = np.random.default_rng(3)
        uv = rng.uniform([0, 0], [100, 50], (500, 2))
        t = rng.uniform(fr.near, fr.far, (500, 1))
        pts = pixel_directions(simple_intrinsics, uv) * t
        cube = ccs_to_tcs(pts, simple_intrinsics, fr)
        assert np.all(cube >= -1e-12) and np.all(cube <= 1 + 1e-12)


class TestPoses:
    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = random_pose(rng), random_pose(rng)
            m = matrix(a.compose(b))
            assert np.allclose(m, matrix(a) @ matrix(b), atol=1e-12)

    def test_orthonormal_under_composition(self):
        rng = np.random.default_rng(9)
        pose = Pose.identity()
        for _ in range(60):
            pose = pose.compose(random_pose(rng))
            r = pose.rotation
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9

    def test_project_commutes_with_transform(self, simple_intrinsics):
        # Projecting a transformed point equals projecting in the composed frame.
        rng = np.random.default_rng(13)
        for _ in range(10):
            a, b = random_pose(rng), random_pose(rng)
            pts = rng.normal(size=(20, 3))
            lhs = project(simple_intrinsics, a.apply(b.apply(pts)))
            rhs = project(simple_intrinsics, a.compose(b).apply(pts))
            for lo, ro in zip(lhs, rhs):
                finite = np.isfinite(lo) & np.isfinite(ro)
                assert np.allclose(lo[finite], ro[finite], atol=1e-6)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_inverse_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        pose = random_pose(rng)
        pts = rng.normal(size=(8, 3))
        assert np.allclose(pose.inverse().apply(pose.apply(pts)), pts, atol=1e-9)


class TestVoxelToCamera:
    def test_all_identity(self):
        e = Pose.identity()
        out = voxel_to_camera_transform(e, e, e, e)
        assert np.allclose(matrix(out), np.eye(4))

    def test_shared_ego_pose_cancels(self):
        rng = np.random.default_rng(21)
        t = random_pose(rng)
        t_lc, t_vl = random_pose(rng), random_pose(rng)
        out = voxel_to_camera_transform(t, t, t_lc, t_vl)
        assert np.allclose(matrix(out), matrix(t_lc) @ matrix(t_vl), atol=1e-12)

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            t_i, t_j, t_lc, t_vl = (random_pose(rng) for _ in range(4))
            out = voxel_to_camera_transform(t_i, t_j, t_lc, t_vl)
            expect = (np.linalg.inv(matrix(t_i)) @ matrix(t_j)
                      @ matrix(t_lc) @ matrix(t_vl))
            assert np.allclose(matrix(out), expect, atol=1e-10)

    def test_applies_voxel_point_to_camera_frame(self):
        # Pure-translation case checked by hand: x_cam = x + t_j - t_i (+ extrinsics).
        shift = lambda v: Pose(np.eye(3), np.asarray(v, dtype=float))
        out = voxel_to_camera_transform(shift([1, 0, 0]), shift([4, 0, 0]),
                                        shift([0, 2, 0]), shift([0, 0, 5]))
        assert np.allclose(out.apply(np.zeros(3)), [3.0, 2.0, 5.0])


def test_rotation_about_is_special_orthogonal():
    rng = np.random.default_rng(2)
    for _ in range(10):
        r = rotation_about(rng.normal(size=3), rng.uniform(0, 7))
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(r), 1.0)
