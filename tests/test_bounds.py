"""The in-bounds tests and the geometry kernels work one column at a time;
they must give the results of the length-3-axis forms they replaced, kept
here as oracles, bit for bit, on points on the faces and with NaN and
infinite coordinates.  Poses are random non-axis rotations: an axis
permutation's products are exact, so agreement on it proves nothing about
rounding."""

from __future__ import annotations

import numpy as np
import pytest

from occrebench.field import Box, Sphere, VoxelDensityField
from occrebench.geometry import CameraIntrinsics, FrustumSpec, ccs_to_tcs, project
from occrebench.grids import VoxelGrid
from occrebench.rendering import MODE_EVAL, MODE_TRAIN, SamplingConfig, \
    sample_points_batch

from conftest import random_pose

LO = np.array([-1.5, 0.25, 2.0])
HI = np.array([2.5, 1.75, 6.0])


def probe_points(seed: int, lo, hi, n: int = 4000) -> np.ndarray:
    """Random points around the box [lo, hi]; a third of the coordinates are
    replaced by a face coordinate, and some by NaN or an infinity."""
    rng = np.random.default_rng(seed)
    span = hi - lo
    pts = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, (n, 3))
    choice = rng.integers(0, 9, (n, 3))
    pts = np.where(choice == 0, lo, pts)
    pts = np.where(choice == 1, hi, pts)
    pts = np.where(choice == 2, np.nextafter(hi, -np.inf), pts)
    special = np.array([np.nan, np.inf, -np.inf])
    pts = np.where(choice == 3, special[rng.integers(0, 3, (n, 3))], pts)
    return pts


def shapes(pts: np.ndarray):
    """The points as (n, 3), (a, b, 3) and one point at a time, (3,)."""
    yield pts
    yield pts[:3960].reshape(60, 66, 3)
    for p in pts[:40]:
        yield p


@pytest.mark.parametrize("seed", range(3))
def test_box_contains_matches_the_reduction(seed):
    box = Box(LO, HI, 1.0, (0, 0, 0))
    pts = probe_points(seed, LO, HI)
    for p in shapes(pts):
        expect = np.all((p >= LO) & (p <= HI), axis=-1)
        got = box.contains(p)
        assert np.shape(got) == np.shape(expect)
        assert np.array_equal(got, expect)
    inside = box.contains(pts)
    assert inside.any() and not inside.all()
    assert box.contains(LO) and box.contains(HI)   # closed faces


def flat_index(grid, p):
    """``grid.flat_index`` of points (..., 3), on copies of their columns."""
    return grid.flat_index([np.array(p[..., a]) for a in range(3)])


@pytest.mark.parametrize("seed", range(3))
def test_flat_index_matches_the_reduction(seed):
    grid = VoxelGrid(LO, (16, 6, 8), (0.25, 0.25, 0.5), np.zeros((16, 6, 8)))
    counts = np.asarray(grid.counts)
    pts = probe_points(seed, grid.origin, grid.max_corner)
    with np.errstate(invalid="ignore"):   # NaN and inf cast to int64
        for p in shapes(pts):
            idx = np.floor((p - grid.origin) / grid.resolution).astype(np.int64)
            expect = np.all((idx >= 0) & (idx < counts), axis=-1)
            got_flat, got = flat_index(grid, p)
            assert np.shape(got) == np.shape(got_flat) == np.shape(expect)
            assert np.array_equal(got, expect)
            idx = np.where(expect[..., None], idx, 0)   # the index is arbitrary outside
            flat = (idx[..., 0] * counts[1] + idx[..., 1]) * counts[2] + idx[..., 2]
            assert np.array_equal(got_flat[got], flat[expect])
        inside = flat_index(grid, pts)[1]
    assert inside.any() and not inside.all()
    # half-open: the min face is inside, the max face is not
    assert flat_index(grid, grid.origin) == (0, True)
    assert not flat_index(grid, grid.max_corner)[1]


@pytest.mark.parametrize("seed", range(3))
def test_locate_matches_the_reduction(seed):
    fld = VoxelDensityField(LO, (0.5, 0.25, 1.0), np.zeros((9, 7, 5)))
    n = np.asarray(fld.shape)
    pts = probe_points(seed, fld.origin, fld.max_corner)
    with np.errstate(invalid="ignore"):   # NaN and inf cast to int64
        for p in shapes(pts):
            rel = (p - fld.origin) / fld.resolution
            expect = np.all((rel >= 0.0) & (rel <= n - 1), axis=-1)
            got = fld.locate(p).inside
            assert np.shape(got) == np.shape(expect)
            assert np.array_equal(got, expect)
        inside = fld.locate(pts).inside
    assert inside.any() and not inside.all()
    # the hull is closed: both its faces are inside
    assert fld.locate(fld.origin).inside and fld.locate(fld.max_corner).inside


def same(got, expect) -> bool:
    """Equal shapes and values, NaN matching NaN."""
    return np.shape(got) == np.shape(expect) and np.array_equal(got, expect, equal_nan=True)


@pytest.mark.parametrize("seed", range(3))
def test_pose_apply_matches_the_broadcast(seed):
    """Also on F-ordered input and on one, two and 2^16 + 1 points; each
    output coordinate is one contiguous run."""
    pose = random_pose(np.random.default_rng(seed))
    assert not np.any(np.isin(pose.rotation, (-1.0, 0.0, 1.0)))
    pts = probe_points(seed, LO, HI)
    wide = np.random.default_rng(100 + seed).uniform(-50.0, 50.0, (2 ** 16 + 1, 3))
    with np.errstate(invalid="ignore"):   # inf * 0 in the product
        for p in (*shapes(pts), np.asfortranarray(pts), pts[:1], pts[:2], wide):
            got = pose.apply(p)
            assert same(got, p @ pose.rotation.T + pose.translation)
            assert all(got[..., a].flags.c_contiguous for a in range(3))


@pytest.mark.parametrize("seed", range(3))
def test_sphere_contains_matches_the_norm(seed):
    rng = np.random.default_rng(seed)
    sphere = Sphere(rng.uniform(-2.0, 2.0, 3), rng.uniform(0.5, 3.0), 1.0, (0, 0, 0))
    r = sphere.radius
    pts = probe_points(seed, sphere.center - r, sphere.center + r)
    # every other point on the sphere up to rounding, where the fold decides
    u = rng.normal(size=(len(pts) // 2, 3))
    pts[::2] = sphere.center + r * (u / np.linalg.norm(u, axis=-1, keepdims=True))
    for p in shapes(pts):
        assert same(sphere.contains(p), np.linalg.norm(p - sphere.center, axis=-1) <= r)
    inside = sphere.contains(pts)
    assert inside.any() and not inside.all()


@pytest.mark.parametrize("seed", range(3))
def test_ccs_to_tcs_matches_the_norm(seed):
    intr = CameraIntrinsics(31.5, 29.0, 31.5, 23.5, 64, 48)
    fr = FrustumSpec(2.5, 12.0)
    pts = probe_points(seed, LO, HI, n=6000)
    with np.errstate(invalid="ignore"):
        pts = pts[~(pts[:, 2] <= 0.0)][:4000]   # keeps NaN rows, which must raise
        nan_row = np.isnan(pts).any(axis=-1)
        good = pts[~nan_row]
        assert nan_row.any() and np.isinf(good).any()
        for p in (good, good[:len(good) // 66 * 66].reshape(-1, 66, 3),
                  *pts[:40][~nan_row[:40]]):
            u, v, _ = project(intr, p)
            zt = ((1.0 / fr.near - 1.0 / np.linalg.norm(p, axis=-1))
                  / (1.0 / fr.near - 1.0 / fr.far))
            expect = np.stack([u / (intr.width - 1.0), v / (intr.height - 1.0), zt], axis=-1)
            assert same(ccs_to_tcs(p, intr, fr), expect)
    for p in (pts, *pts[nan_row]):
        with pytest.raises(ValueError, match="NaN"):
            ccs_to_tcs(p, intr, fr)


@pytest.mark.parametrize("mode", [MODE_EVAL, MODE_TRAIN])
@pytest.mark.parametrize("seed", range(3))
def test_sample_points_batch_matches_the_broadcast(seed, mode):
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    origins = probe_points(seed, LO, HI)[:500]
    dirs = pose.rotate(rng.normal(size=(500, 3)))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    cfg = SamplingConfig(24, 2.5, 12.0, mode)
    t, pts, _ = sample_points_batch(origins, dirs, cfg, np.random.default_rng(seed))
    with np.errstate(invalid="ignore"):   # inf - inf
        assert same(pts, origins[:, None, :] + t[..., None] * dirs[:, None, :])
