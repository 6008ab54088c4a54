from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from occrebench import field
from occrebench.field import AnalyticScene, Box, HalfSpace, Sphere
from occrebench.geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose
from occrebench.rendering import composite, opacity, sample_points_batch


def rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_pose(rng: np.random.Generator, max_translation: float = 5.0) -> Pose:
    axis = rng.normal(size=3)
    angle = rng.uniform(0, 2 * np.pi)
    return Pose(rotation_about(axis, angle),
                rng.uniform(-max_translation, max_translation, 3))


def yaw_pose(yaw_deg: float, translation) -> Pose:
    """Camera turned about the world y axis (y points down, so +yaw turns left)."""
    return Pose(rotation_about(np.array([0.0, 1.0, 0.0]), np.deg2rad(yaw_deg)),
                np.asarray(translation, dtype=np.float64))


def render_rays(density_field, color_source, dirs, cfg) -> SimpleNamespace:
    """Render rays from the camera center along ``dirs`` (R, 3) with the
    batched forward model, checking each ray's invariants: sample distances
    strictly increasing, interval lengths positive, transmittance
    non-increasing.  Arrays are (R, N) or (R, N, 3); ``color`` is (R, 3)
    and ``residual`` (R,).  Missed samples keep zero color."""
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    t, pts, delta = sample_points_batch(np.zeros_like(dirs), dirs, cfg)
    sigma = density_field.density_at(pts)
    alpha = opacity(sigma, delta)
    colors, hit = color_source.sample_colors(pts)
    color, trans, residual = composite(alpha, colors)
    assert np.all(np.diff(t, axis=-1) > 0)
    assert np.all(delta > 0)
    assert np.all(np.diff(trans, axis=-1) <= 0)
    return SimpleNamespace(t=t, delta=delta, sigma=sigma, alpha=alpha, trans=trans,
                           colors=colors, miss=~hit, color=color, residual=residual)


@pytest.fixture
def softplus_calls(monkeypatch) -> list:
    """The shape of the argument of every ``field.softplus`` call made while
    the test runs."""
    calls, real = [], field.softplus

    def counting(x):
        calls.append(np.shape(x))
        return real(x)

    monkeypatch.setattr(field, "softplus", counting)
    return calls


@pytest.fixture
def simple_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=25.0, width=101, height=51)


@pytest.fixture
def simple_view(simple_intrinsics) -> CameraView:
    return CameraView(simple_intrinsics, Pose.identity(), FrustumSpec(3.0, 20.0))


@pytest.fixture
def box_scene() -> AnalyticScene:
    """A red box in front of a gray ground plane, camera-frame coordinates."""
    return AnalyticScene((
        Box([-1.0, -1.0, 6.0], [1.0, 1.0, 8.0], density=50.0, albedo=[1.0, 0.0, 0.0]),
        HalfSpace(axis=1, offset=1.5, side=1, density=40.0, albedo=[0.5, 0.5, 0.5]),
    ))


@pytest.fixture
def sphere_scene() -> AnalyticScene:
    return AnalyticScene((
        Sphere([0.1, -0.07, 6.3], 1.3, density=2.0, albedo=[0.0, 0.4, 0.9]),
    ))
