"""The shared trilinear kernel against the three-index corner loops it replaced.

Each reference below is the per-caller 8-corner loop as it stood before the
kernel was shared.  The kernel must reproduce them bit for bit, not within a
tolerance: trained parameters and benchmark count tables depend on every
last digit.
"""

from __future__ import annotations

import numpy as np
import pytest

from occrebench.benchmark import OpacityMap, grid_sample_opacity
from occrebench.field import VoxelDensityField, sigmoid, softplus
from occrebench.geometry import CameraIntrinsics, FrustumSpec


def reference_locate(fld: VoxelDensityField, pts):
    """Cell index, fractional offset and inside-hull mask of every point,
    inside the hull or not."""
    rel = (np.asarray(pts, dtype=np.float64) - fld.origin) / fld.resolution
    n = np.asarray(fld.shape)
    inside = np.all((rel >= 0.0) & (rel <= n - 1), axis=-1)
    cell = np.clip(np.floor(rel).astype(np.int64), 0, n - 2)
    return cell, rel - cell, inside


def reference_density_at(fld: VoxelDensityField, pts):
    cell, frac, inside = reference_locate(fld, pts)
    sp = softplus(fld.theta)
    out = np.zeros(inside.shape)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = (np.where(dx, frac[..., 0], 1 - frac[..., 0])
                     * np.where(dy, frac[..., 1], 1 - frac[..., 1])
                     * np.where(dz, frac[..., 2], 1 - frac[..., 2]))
                out += w * sp[cell[..., 0] + dx, cell[..., 1] + dy, cell[..., 2] + dz]
    return np.where(inside, out, 0.0)


def reference_accumulate(fld: VoxelDensityField, pts, dloss_dsigma):
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    coeff = np.asarray(dloss_dsigma, dtype=np.float64).reshape(-1)
    cell, frac, inside = reference_locate(fld, pts)
    coeff = np.where(inside, coeff, 0.0)
    sig = sigmoid(fld.theta)
    nx, ny, nz = fld.shape
    grad_flat = np.zeros(fld.theta.size)
    sig_flat = sig.reshape(-1)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = (np.where(dx, frac[:, 0], 1 - frac[:, 0])
                     * np.where(dy, frac[:, 1], 1 - frac[:, 1])
                     * np.where(dz, frac[:, 2], 1 - frac[:, 2]))
                flat = ((cell[:, 0] + dx) * ny + (cell[:, 1] + dy)) * nz + (cell[:, 2] + dz)
                grad_flat += np.bincount(flat, weights=coeff * w,
                                         minlength=fld.theta.size)
    return (grad_flat * sig_flat).reshape(fld.shape)


def reference_grid_sample(omap: OpacityMap, points_tcs):
    pts = np.asarray(points_tcs, dtype=np.float64)
    w, h, n = omap.values.shape
    scale = np.array([w - 1.0, h - 1.0, float(n)])
    idx = np.clip(pts * scale, 0.0, [w - 1.0, h - 1.0, n - 1.0])
    lo = np.clip(np.floor(idx).astype(np.int64), 0, [w - 2, h - 2, n - 2])
    f = idx - lo
    out = np.zeros(pts.shape[:-1])
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                wgt = (np.where(dx, f[..., 0], 1 - f[..., 0])
                       * np.where(dy, f[..., 1], 1 - f[..., 1])
                       * np.where(dz, f[..., 2], 1 - f[..., 2]))
                out += wgt * omap.values[lo[..., 0] + dx, lo[..., 1] + dy, lo[..., 2] + dz]
    return out


def field_points(fld: VoxelDensityField, rng) -> np.ndarray:
    """Random points in and around the hull, plus every node, points on the
    hull's max faces and corner, and points just outside it."""
    lo, hi = fld.origin, fld.max_corner
    span = hi - lo
    random = lo - 0.2 * span + rng.uniform(0.0, 1.4, (400, 3)) * span
    axes = [lo[a] + fld.resolution[a] * np.arange(fld.shape[a]) for a in range(3)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    on_max_face = lo + rng.uniform(0.0, 1.0, (30, 3)) * span
    for a in range(3):
        on_max_face[10 * a:10 * (a + 1), a] = hi[a]
    outside = np.array([hi + 1e-12, lo - 1e-12, hi + [1e-9, 0.0, 0.0],
                        [lo[0], hi[1] + 1e-9, lo[2]]])
    return np.concatenate([random, nodes, on_max_face, [hi, lo], outside])


@pytest.fixture(params=[0, 1, 2])
def voxel_field(request) -> VoxelDensityField:
    rng = np.random.default_rng(request.param)
    shape = tuple(rng.integers(2, 7, 3))
    res = rng.uniform(0.2, 0.7, 3)
    return VoxelDensityField(rng.uniform(-2, 2, 3), res, rng.normal(size=shape))


def test_density_at_bit_exact(voxel_field):
    rng = np.random.default_rng(10)
    pts = field_points(voxel_field, rng)
    assert np.array_equal(voxel_field.density_at(pts), reference_density_at(voxel_field, pts))
    # Leading batch axes are kept: (R, N, 3) and a single (3,) point.
    batch = pts[:60].reshape(5, 12, 3)
    assert np.array_equal(voxel_field.density_at(batch),
                          reference_density_at(voxel_field, batch))
    assert np.array_equal(voxel_field.density_at(pts[0]),
                          reference_density_at(voxel_field, pts[0]))


def test_accumulate_param_grad_bit_exact(voxel_field):
    rng = np.random.default_rng(11)
    pts = field_points(voxel_field, rng)
    coeff = rng.normal(size=len(pts))
    assert np.array_equal(voxel_field.accumulate_param_grad(pts, coeff),
                          reference_accumulate(voxel_field, pts, coeff))


@pytest.mark.parametrize("size", [(2, 2, 2), (7, 5, 9)])
def test_grid_sample_opacity_bit_exact(size):
    rng = np.random.default_rng(12)
    w, h, n = size
    intr = CameraIntrinsics(10.0, 10.0, (w - 1) / 2, (h - 1) / 2, w, h)
    omap = OpacityMap(rng.uniform(0.0, 1.0, size), intr, FrustumSpec(1.0, 10.0))
    inside = rng.uniform(0.0, 1.0, (300, 3))
    beyond = rng.uniform(-0.5, 1.5, (300, 3))      # clamped by border padding
    nodes = np.stack(np.meshgrid(np.arange(w) / (w - 1), np.arange(h) / (h - 1),
                                 np.arange(n) / n, indexing="ij"), axis=-1).reshape(-1, 3)
    edges = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, (n - 1) / n],
                      [1.0 + 1e-12, -1e-12, 2.0]])
    pts = np.concatenate([inside, beyond, nodes, edges])
    assert np.array_equal(grid_sample_opacity(omap, pts), reference_grid_sample(omap, pts))
