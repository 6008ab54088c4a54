"""Voxel-center blocks and the stages that walk the grid through them.

Each stage is checked bit for bit against its all-at-once formula (every
voxel center in one array), kept here as the oracle, and its memory beyond
the boolean grids it writes is checked not to grow with the block count.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from occrebench import benchmark
from occrebench.benchmark import (OCCUPANCY_THRESHOLD, OpacityMap, conventional_voxelize,
                                  frustum_mask, grid_sample_opacity, visibility_mask,
                                  voxelize_occupancy)
from occrebench.field import (AnalyticScene, Box, HalfSpace, Sphere, VoxelDensityField,
                              ground_truth_occupancy)
from occrebench.geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose, \
    ccs_to_tcs, in_image, project
from occrebench.grids import BLOCK_VOXELS, VoxelGrid

from conftest import rotation_about

INTR = CameraIntrinsics(24.0, 24.0, 15.5, 11.5, 32, 24)
FRUSTUM = FrustumSpec(2.0, 14.0)


# ---------------------------------------------------------------------------
# All-at-once oracles
# ---------------------------------------------------------------------------

def voxelize_all_at_once(omap, grid, t_vc):
    centers_cam = t_vc.apply(grid.centers_flat())
    front = centers_cam[:, 2] > 0
    occupied = np.zeros(len(centers_cam), dtype=bool)
    if np.any(front):
        tcs = ccs_to_tcs(centers_cam[front], omap.intrinsics, omap.frustum)
        occupied[front] = grid_sample_opacity(omap, tcs) > OCCUPANCY_THRESHOLD
    return occupied.reshape(grid.counts)


def conventional_all_at_once(density_field, grid, t_vc):
    centers_cam = t_vc.apply(grid.centers_flat())
    sigma = density_field.density_at(centers_cam)
    return ((centers_cam[:, 2] > 0) & (sigma > OCCUPANCY_THRESHOLD)).reshape(grid.counts)


def frustum_all_at_once(grid, t_vc, intr):
    ok = in_image(intr, *project(intr, t_vc.apply(grid.centers_flat())))
    return ok.reshape(grid.counts)


def ground_truth_all_at_once(scene, grid, grid_to_world):
    centers = grid_to_world.apply(grid.centers_flat())
    occupied = np.zeros(len(centers), dtype=bool)
    for prim in scene.primitives:
        occupied |= prim.contains(centers)
    return occupied.reshape(grid.counts)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def centered_grid(counts, extent, values=False):
    """Grid of ``counts`` voxels spanning ``extent`` metres, centered on 0."""
    extent = np.asarray(extent, dtype=np.float64)
    return VoxelGrid.filled(-extent / 2, counts, extent / np.asarray(counts), values,
                            dtype=bool)


def grid_to_camera(rng) -> Pose:
    """Random rotation; the grid's center lands 5-8 m in front of the camera."""
    return Pose(rotation_about(rng.normal(size=3), rng.uniform(0, 2 * np.pi)),
                [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(5, 8)])


def scene() -> AnalyticScene:
    """A box, a floor and a ball holding the center of every grid placed by
    ``grid_to_camera``, in the camera frame."""
    return AnalyticScene((Box([-3.5, -0.5, 3.0], [-1.5, 1.0, 4.8], 5.0, [1, 0, 0]),
                          Sphere([0.0, 0.0, 6.5], 2.5, 5.0, [0, 1, 0]),
                          HalfSpace(1, 1.1, 1, 5.0, [0, 0, 1])))


def opacity_map(rng) -> OpacityMap:
    return OpacityMap(rng.random((INTR.width, INTR.height, 16)), INTR, FRUSTUM)


def density_field(rng) -> VoxelDensityField:
    """Random field over the camera-frame region the grids occupy."""
    return VoxelDensityField([-6.0, -6.0, 0.5], 0.5, rng.normal(0.0, 3.0, (25, 25, 26)))


VIEW = CameraView(INTR, Pose.identity(), FRUSTUM)


# Last block short: 65536 // (41 * 40) = 39 slices a block, so 39 + 39 + 22.
SHORT_TAIL = (100, 41, 40)
# One voxel per slice, and a one-voxel tail that is folded into the block
# before it.
LINE = (2 * BLOCK_VOXELS + 1, 1, 1)


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------

class TestCenterBlocks:
    @pytest.mark.parametrize("counts", [(1, 1, 1), (3, 4, 5), SHORT_TAIL, LINE,
                                        (BLOCK_VOXELS + 2, 1, 1), (300, 300, 1),
                                        (3, 300, 300)])
    def test_blocks_are_the_rows_of_centers_flat(self, counts):
        grid = VoxelGrid.filled([-1.3, 0.7, 2.1], counts, [0.013, 0.29, 0.071], False)
        pose = grid_to_camera(np.random.default_rng(7))
        per_slice = counts[1] * counts[2]
        for carried, flat in ((None, grid.centers_flat()),
                              (pose, pose.apply(grid.centers_flat()))):
            stop = 0
            for xs, centers in grid.center_blocks(carried):
                assert xs.start == stop and xs.step is None
                stop = xs.stop
                assert np.array_equal(centers, flat[xs.start * per_slice:xs.stop * per_slice])
                # column-major, as the per-voxel stages read them
                assert all(centers[:, a].flags.c_contiguous for a in range(3))
            assert stop == counts[0]

    @pytest.mark.parametrize("counts, sizes", [
        ((1, 1, 1), [1]),
        ((20, 11, 21), [4620]),
        ((64, 64, 16), [65536]),
        ((256, 256, 32), [65536] * 32),
        (SHORT_TAIL, [39 * 1640, 39 * 1640, 22 * 1640]),
        ((3, 300, 300), [90000] * 3),
        (LINE, [BLOCK_VOXELS, BLOCK_VOXELS + 1]),
        ((BLOCK_VOXELS + 2, 1, 1), [BLOCK_VOXELS, 2]),
    ])
    def test_whole_slices_up_to_the_block_and_no_single_voxel(self, counts, sizes):
        grid = VoxelGrid.filled([0, 0, 0], counts, 1.0, False)
        assert [len(c) for _, c in grid.center_blocks()] == sizes


# ---------------------------------------------------------------------------
# The five stages against their oracles, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("counts", [SHORT_TAIL, LINE])
@pytest.mark.parametrize("seed", [0, 1])
class TestStagesMatchAllAtOnce:
    def setup_grid(self, counts, seed):
        rng = np.random.default_rng(seed)
        return rng, centered_grid(counts, [12.0, 6.0, 6.0]), grid_to_camera(rng)

    def test_voxelize_occupancy(self, counts, seed):
        rng, grid, t_vc = self.setup_grid(counts, seed)
        omap = opacity_map(rng)
        got = voxelize_occupancy(omap, grid, t_vc).values
        assert np.array_equal(got, voxelize_all_at_once(omap, grid, t_vc))
        assert got.any() and not got.all()

    def test_conventional_voxelize(self, counts, seed):
        rng, grid, t_vc = self.setup_grid(counts, seed)
        fld = density_field(rng)
        got = conventional_voxelize(fld, grid, t_vc).values
        assert np.array_equal(got, conventional_all_at_once(fld, grid, t_vc))
        assert got.any() and not got.all()

    def test_frustum_mask(self, counts, seed):
        rng, grid, t_vc = self.setup_grid(counts, seed)
        got = frustum_mask(grid, t_vc, INTR).values
        assert np.array_equal(got, frustum_all_at_once(grid, t_vc, INTR))
        assert got.any() and not got.all()

    def test_ground_truth_occupancy(self, counts, seed):
        rng, grid, grid_to_world = self.setup_grid(counts, seed)
        got = ground_truth_occupancy(scene(), grid, grid_to_world).values
        assert np.array_equal(got, ground_truth_all_at_once(scene(), grid, grid_to_world))
        assert got.any() and not got.all()

    def test_visibility_mask_clip(self, counts, seed, monkeypatch):
        rng, grid, t_vc = self.setup_grid(counts, seed)
        gt = grid.like(rng.random(grid.counts) < 0.02)
        got = visibility_mask(gt, VIEW, t_vc, step=0.1).values
        monkeypatch.setattr(benchmark, "frustum_mask", lambda g, t, intr: g.like(
            frustum_all_at_once(g, t, intr)))
        assert np.array_equal(got, visibility_mask(gt, VIEW, t_vc, step=0.1).values)
        assert got.any()


def test_conventional_voxelize_takes_softplus_once(softplus_calls):
    """Three center blocks, one softplus of the whole lattice."""
    rng = np.random.default_rng(0)
    grid = centered_grid(SHORT_TAIL, [12.0, 6.0, 6.0])
    assert len(list(grid.center_blocks())) == 3
    fld = density_field(rng)
    conventional_voxelize(fld, grid, grid_to_camera(rng))
    assert softplus_calls == [fld.shape]


# ---------------------------------------------------------------------------
# Memory does not grow with the block count
# ---------------------------------------------------------------------------

def excess_peak(fn, bool_voxels: int) -> int:
    """Bytes ``fn()`` holds at its tracemalloc peak above what was held before
    the call, less ``bool_voxels`` bytes of boolean grids it writes."""
    fn()  # first call: numpy's one-off caches are not the stage's memory
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before - bool_voxels
    finally:
        tracemalloc.stop()


# Stage name -> (run it on a ground-truth grid and its grid-to-camera pose,
# boolean voxel grids it writes: the output, and for the march also its
# coverage and its frustum clip).
STAGES = {
    "voxelize_occupancy": (lambda g, t: voxelize_occupancy(
        opacity_map(np.random.default_rng(3)), g, t), 1),
    "conventional_voxelize": (lambda g, t: conventional_voxelize(
        density_field(np.random.default_rng(3)), g, t), 1),
    "frustum_mask": (lambda g, t: frustum_mask(g, t, INTR), 1),
    "ground_truth_occupancy": (lambda g, t: ground_truth_occupancy(scene(), g, t), 1),
    "visibility_mask": (lambda g, t: visibility_mask(g, VIEW, t, return_coverage=True), 3),
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_peak_memory_does_not_grow_with_block_count(stage):
    """16 slices of 64 x 64 voxels a block: 4 blocks against 8 blocks."""
    run, bools = STAGES[stage]
    t_vc = Pose(rotation_about(np.array([0.3, 1.0, 0.2]), 0.4), [0.2, -0.1, 6.0])
    peaks = []
    for nx in (64, 128):
        gt = ground_truth_occupancy(scene(), centered_grid((nx, 64, 64), [nx / 16, 4.0, 4.0]),
                                    t_vc)
        assert gt.values.any()
        peaks.append(excess_peak(lambda: run(gt, t_vc), bools * gt.num_voxels))
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks
