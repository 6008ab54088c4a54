from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from occrebench import benchmark, field, optim
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


def optical_depth(scene: AnalyticScene, origin, direction, t0: float, t1: float) -> float:
    """Exact integral of the scene's density along origin + t*direction
    over [t0, t1].

    The density is piecewise constant between primitive boundary
    crossings, so the integral is a finite sum of segment lengths times
    midpoint densities.
    """
    if t1 <= t0:
        return 0.0
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    cuts = [t0, t1]
    for prim in scene.primitives:
        te, tx = prim.ray_intervals(origin, direction)
        if te >= tx:
            continue
        for t in (float(te), float(tx)):
            if t0 < t < t1:
                cuts.append(t)
    ts = np.unique(np.asarray(cuts, dtype=np.float64))
    mids = origin + 0.5 * (ts[:-1] + ts[1:])[:, None] * direction
    seg_sigma = scene.density_at(mids)
    return float(np.sum(seg_sigma * np.diff(ts)))


def closed_form_transmittance(scene: AnalyticScene, origin, direction,
                              t0: float, t1: float) -> float:
    """exp(-integral of the scene's density) over the ray segment."""
    return float(np.exp(-optical_depth(scene, origin, direction, t0, t1)))


@dataclass(frozen=True)
class IntervalScaledField:
    """Emulates a field trained under inverse-depth sampling.

    Inside ``region`` the raw density is chosen so that one sample interval
    of the given sampling configuration absorbs a fixed opacity: sigma(x) =
    -ln(1 - alpha_target) / delta(t), where t is the radial distance from
    ``ray_origin`` and delta(t) = t^2 (1/near - 1/far) / num_samples is the
    local interval length of inverse-depth sampling.  Raw density therefore
    scales with sample count and depth while per-sample opacity stays flat,
    which is exactly the behavior that breaks fixed raw-density thresholds.
    """

    region: object
    ray_origin: np.ndarray
    near: float
    far: float
    num_samples: int
    alpha_target: float = 0.55

    def __post_init__(self):
        if not (0.0 < self.alpha_target < 1.0):
            raise ValueError("alpha_target must lie in (0, 1)")
        if not (0.0 < self.near < self.far):
            raise ValueError("requires 0 < near < far")
        object.__setattr__(self, "ray_origin",
                           np.asarray(self.ray_origin, dtype=np.float64).reshape(3))

    def local_interval(self, dist: np.ndarray) -> np.ndarray:
        """Continuous inverse-depth interval length at radial distance dist."""
        return dist ** 2 * (1.0 / self.near - 1.0 / self.far) / self.num_samples

    def density_at(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        dist = np.linalg.norm(p - self.ray_origin, axis=-1)
        dist = np.maximum(dist, 1e-12)
        sigma = -np.log1p(-self.alpha_target) / self.local_interval(dist)
        return np.where(self.region.contains(p), sigma, 0.0)


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


@pytest.fixture(autouse=True)
def no_eval_plan(monkeypatch):
    """Every test starts with no evaluation plan left by another:
    ``optim.evaluate_field`` builds its masks afresh on its first call."""
    monkeypatch.setattr(optim, "_last_plan", None)


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
def cell_table_builds(monkeypatch) -> list:
    """The node count of every ``benchmark.cell_table`` built while the test
    runs."""
    calls, real = [], benchmark.cell_table

    def counting(omap):
        calls.append(omap.values.size)
        return real(omap)

    monkeypatch.setattr(benchmark, "cell_table", counting)
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
