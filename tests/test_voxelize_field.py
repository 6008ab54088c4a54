"""The evaluation pass's voxelization over the read nodes of the opacity map.

``voxelize_field`` computes the map only at the nodes its voxels read and
must equal the dense formula, ``voxelize_occupancy(build_opacity_map(...))``,
bit for bit: on the occluder's evaluation setup, over random poses with
voxels behind the camera, on a grid wholly behind it, and through the cell
table over a partly filled map.  It must also do the work it claims (about
6% of the occluder map's density lookups), hold no more memory than the
dense pass, and still fail on a NaN density wherever it reads one.
``optim.evaluate_field`` builds the field-independent masks once per
setup, rebuilds them when an input changes by content, and keeps only
them between calls.
"""

from __future__ import annotations

import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occrebench import benchmark, fixtures, optim
from occrebench.benchmark import (build_opacity_map, compute_metrics, frustum_mask,
                                  visibility_mask, voxelize_field, voxelize_occupancy)
from occrebench.field import VoxelDensityField, ground_truth_occupancy, inverse_softplus
from occrebench.geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose
from occrebench.grids import VoxelGrid
from occrebench.rendering import MODE_EVAL, SamplingConfig

from conftest import random_pose

# ---------------------------------------------------------------------------
# The occluder's evaluation setup
# ---------------------------------------------------------------------------

OCCLUDER = fixtures.standard_occluder()
SETUP = OCCLUDER.eval_setup
VIEW = OCCLUDER.views[SETUP.view_index]
T_VC = SETUP.t_vc(VIEW)
CFG = OCCLUDER.train_config
EVAL_CFG = SamplingConfig(SETUP.num_samples, CFG.near, CFG.far, MODE_EVAL)
MAP_NODES = VIEW.intrinsics.width * VIEW.intrinsics.height * SETUP.num_samples


def primitive_field(scene, lo, hi, resolution: float) -> VoxelDensityField:
    """Node lattice over [lo, hi] with sigma 60 at nodes inside any
    primitive and 0.05 elsewhere (the evaluation workloads' recipe)."""
    lo = np.asarray(lo, dtype=np.float64)
    shape = tuple(int(n) for n in np.round((np.asarray(hi) - lo) / resolution) + 1)
    axes = [lo[a] + resolution * np.arange(shape[a]) for a in range(3)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    inside = scene.density_at(nodes) > 0
    theta = np.where(inside, inverse_softplus(60.0), inverse_softplus(0.05))
    return VoxelDensityField(lo, resolution, theta)


def occluder_field(seed: int) -> VoxelDensityField:
    """The occluder's lattice shifted by a seeded offset of up to half a
    node spacing per axis."""
    base = OCCLUDER.base_field
    lo = base.origin + np.random.default_rng(seed).uniform(-0.5, 0.5, 3) * base.resolution
    return primitive_field(OCCLUDER.scene, lo, lo + base.max_corner - base.origin,
                           float(base.resolution[0]))


def dense(density_field, view, cfg, grid, t_vc) -> np.ndarray:
    return voxelize_occupancy(build_opacity_map(density_field, view, cfg), grid, t_vc).values


def evaluate_field_dense(density_field, scene, views, setup, cfg):
    """``optim.evaluate_field`` through the whole opacity map, dropped once
    it is voxelized."""
    view = views[setup.view_index]
    t_vc = setup.t_vc(view)
    eval_cfg = SamplingConfig(setup.num_samples, cfg.near, cfg.far, MODE_EVAL)
    omap = build_opacity_map(density_field, view, eval_cfg)
    pred = voxelize_occupancy(omap, setup.grid, t_vc)
    del omap
    gt = ground_truth_occupancy(scene, setup.grid, setup.grid_to_world)
    mf = frustum_mask(setup.grid, t_vc, view.intrinsics)
    mv = visibility_mask(gt, view, t_vc)
    return compute_metrics(pred, gt, mf, mv)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_occluder_setup_matches_the_dense_map(seed):
    fld = occluder_field(seed)
    got = voxelize_field(fld, VIEW, EVAL_CFG, SETUP.grid, T_VC).values
    assert got.any() and not got.all()
    assert np.array_equal(got, dense(fld, VIEW, EVAL_CFG, SETUP.grid, T_VC))
    report = optim.evaluate_field(fld, OCCLUDER.scene, OCCLUDER.views, SETUP, CFG)
    expected = evaluate_field_dense(fld, OCCLUDER.scene, OCCLUDER.views, SETUP, CFG)
    assert report.counts == expected.counts


# ---------------------------------------------------------------------------
# Small random setups
# ---------------------------------------------------------------------------

INTR = CameraIntrinsics(18.0, 18.0, 11.5, 8.5, 24, 18)
SMALL_VIEW = CameraView(INTR, Pose.identity(), FrustumSpec(2.0, 14.0))
SMALL_CFG = SamplingConfig(24, 2.0, 14.0, MODE_EVAL)
SMALL_NODES = INTR.width * INTR.height * SMALL_CFG.num_samples     # 10,368


def random_field(rng) -> VoxelDensityField:
    """Random theta on a lattice over the small view's frustum, scaled so
    that opacities fall on both sides of 0.5."""
    return VoxelDensityField([-10.0, -8.0, 0.0], 0.5, rng.normal(0.0, 3.0, (41, 33, 31)))


def grid_around(counts, extent=12.0) -> VoxelGrid:
    half = np.full(3, extent / 2)
    return VoxelGrid.filled(-half, counts, extent / np.asarray(counts), False, dtype=bool)


def straddling_pose(rng) -> Pose:
    """A random rotation about the grid's center, which lies 3 to 5 m ahead
    of the camera: the camera is inside a 12 m grid, so voxels lie on both
    sides of it."""
    return Pose(random_pose(rng).rotation, [0.0, 0.0, 4.0] + rng.uniform(-1.0, 1.0, 3))


def behind_and_in_front(grid, t_vc) -> bool:
    z = t_vc.apply(grid.centers_flat())[:, 2]
    return bool(np.any(z > 0) and np.any(z <= 0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_poses_match_the_dense_map(seed):
    rng = np.random.default_rng(seed)
    fld, grid, t_vc = random_field(rng), grid_around((9, 8, 10)), straddling_pose(rng)
    assert behind_and_in_front(grid, t_vc)
    got = voxelize_field(fld, SMALL_VIEW, SMALL_CFG, grid, t_vc).values
    assert np.array_equal(got, dense(fld, SMALL_VIEW, SMALL_CFG, grid, t_vc))


def test_grid_behind_the_camera_reads_nothing(monkeypatch):
    fld = random_field(np.random.default_rng(1))
    grid = VoxelGrid.filled([-3.0, -3.0, -9.0], (6, 6, 6), 1.0, False, dtype=bool)
    looked_up = count_located_points(monkeypatch)
    got = voxelize_field(fld, SMALL_VIEW, SMALL_CFG, grid, Pose.identity()).values
    assert not got.any()
    assert looked_up == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cell_table_over_a_partly_filled_map(seed, cell_table_builds):
    """5,832 voxels against 10,368 nodes: the cell table is built over the
    read nodes' map, whose zeroed nodes classify some cells differently
    from the dense map; no voxel looks those cells up."""
    rng = np.random.default_rng(seed)
    fld, grid, t_vc = random_field(rng), grid_around((18, 18, 18)), straddling_pose(rng)
    assert 2 * grid.num_voxels >= SMALL_NODES
    got = voxelize_field(fld, SMALL_VIEW, SMALL_CFG, grid, t_vc).values
    assert cell_table_builds == [SMALL_NODES]
    assert got.any() and not got.all()
    assert np.array_equal(got, dense(fld, SMALL_VIEW, SMALL_CFG, grid, t_vc))

    nodes = benchmark._read_nodes(SMALL_VIEW, SMALL_CFG, grid, t_vc)
    sparse_map = benchmark._fill_map(fld, SMALL_VIEW, SMALL_CFG, nodes)
    dense_map = build_opacity_map(fld, SMALL_VIEW, SMALL_CFG)
    equal = sparse_map.values == dense_map.values
    assert equal.any() and not equal.all()
    tables = benchmark.cell_table(sparse_map), benchmark.cell_table(dense_map)
    assert not np.array_equal(*tables)


# ---------------------------------------------------------------------------
# Work, memory and validation on the occluder
# ---------------------------------------------------------------------------

def count_located_points(monkeypatch) -> list:
    """The number of points of every ``VoxelDensityField.locate`` call."""
    counts, real = [], VoxelDensityField.locate

    def counting(self, pts):
        counts.append(np.size(pts) // 3)
        return real(self, pts)

    monkeypatch.setattr(VoxelDensityField, "locate", counting)
    return counts


def test_evaluate_field_looks_up_only_the_read_nodes(monkeypatch):
    """The read nodes in lookups of one image's worth across depth bins,
    and the dense map in one lookup per depth bin."""
    fld = occluder_field(0)
    pixels = VIEW.intrinsics.width * VIEW.intrinsics.height
    looked_up = count_located_points(monkeypatch)
    optim.evaluate_field(fld, OCCLUDER.scene, OCCLUDER.views, SETUP, CFG)
    read = sum(looked_up)
    assert 0 < read <= 0.07 * MAP_NODES
    calls = -(-read // pixels)
    assert len(looked_up) == calls and looked_up[:-1] == [pixels] * (calls - 1)
    looked_up.clear()
    build_opacity_map(fld, VIEW, EVAL_CFG)
    assert sum(looked_up) == MAP_NODES
    assert looked_up == [pixels] * SETUP.num_samples


def least_traced_peak(fn) -> int:
    """The least of three tracemalloc peaks of ``fn()`` above what was held
    before the call, after one untraced call to warm caches."""
    fn()
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    return min(peaks)


# Bytes by which two call paths over the same arrays may differ in the
# Python objects they hold: measured within 0.4 KiB here.
OBJECT_NOISE = 4096


def test_evaluate_field_peaks_no_higher_than_the_dense_pass():
    """Both peak in the voxelization over a map of the same size, so
    nothing per read node may outlive the read-node pass: the node list or
    its opacities (about 0.19 MiB each here) would show."""
    fld = occluder_field(0)
    args = fld, OCCLUDER.scene, OCCLUDER.views, SETUP, CFG
    peak = least_traced_peak(lambda: optim.evaluate_field(*args))
    dense_peak = least_traced_peak(lambda: evaluate_field_dense(*args))
    assert MAP_NODES * 8 < dense_peak
    assert peak <= dense_peak + OBJECT_NOISE


class Recording:
    """A density source that keeps every point it is asked about."""

    def __init__(self, density_field):
        self.field, self.points = density_field, []

    def density_at(self, pts):
        self.points.append(np.array(pts))
        return self.field.density_at(pts)


class NanWhere:
    """``density_field``'s density, but NaN at the points ``bad`` picks."""

    def __init__(self, density_field, bad):
        self.field, self.bad = density_field, bad

    def density_at(self, pts):
        sigma = self.field.density_at(pts)
        sigma[self.bad(pts)] = np.nan
        return sigma


def test_nan_density_fails_only_where_it_is_read():
    fld = occluder_field(0)
    rec = Recording(fld)
    voxelize_field(rec, VIEW, EVAL_CFG, SETUP.grid, T_VC)
    points = np.concatenate(rec.points)
    read = {p.tobytes() for p in points}
    one = points[len(points) // 2].tobytes()
    nan_at_read = NanWhere(fld, lambda pts: [p.tobytes() == one for p in np.array(pts)])
    with pytest.raises(ValueError, match="density"):
        optim.evaluate_field(nan_at_read, OCCLUDER.scene, OCCLUDER.views, SETUP, CFG)

    # Unread nodes are never computed, so a NaN there goes unseen.
    nan_unread = NanWhere(fld, lambda pts: [p.tobytes() not in read for p in np.array(pts)])
    report = optim.evaluate_field(nan_unread, OCCLUDER.scene, OCCLUDER.views, SETUP, CFG)
    expected = optim.evaluate_field(fld, OCCLUDER.scene, OCCLUDER.views, SETUP, CFG)
    assert report.counts == expected.counts
    with pytest.raises(ValueError, match="density"):
        build_opacity_map(nan_unread, VIEW, EVAL_CFG)


# ---------------------------------------------------------------------------
# The field-independent plan of evaluate_field
# ---------------------------------------------------------------------------

MASK_BUILDERS = ("ground_truth_occupancy", "frustum_mask", "visibility_mask")


def count_mask_builds(monkeypatch) -> dict:
    """Calls of each of ``MASK_BUILDERS`` that ``optim`` makes from now on."""
    builds = dict.fromkeys(MASK_BUILDERS, 0)

    def counted(name):
        real = getattr(optim, name)

        def counting(*args):
            builds[name] += 1
            return real(*args)
        return counting

    for name in MASK_BUILDERS:
        monkeypatch.setattr(optim, name, counted(name))
    return builds


def test_one_setup_builds_its_masks_once(monkeypatch):
    """Three fields scored on one setup, the last on an equal copy of its
    inputs: the masks are built on the first call alone, and every count
    table is the dense pass's."""
    builds = count_mask_builds(monkeypatch)
    inputs = [(OCCLUDER.scene, OCCLUDER.views, SETUP)] * 2
    inputs.append(copy.deepcopy(inputs[0]))
    tables = []
    for seed, (scene, views, setup) in zip((0, 3, 7), inputs):
        fld = occluder_field(seed)
        report = optim.evaluate_field(fld, scene, views, setup, CFG)
        assert report.counts == evaluate_field_dense(fld, scene, views, setup, CFG).counts
        tables.append(tuple(report.counts.values()))
    assert builds == dict.fromkeys(MASK_BUILDERS, 1)
    assert len(set(tables)) == 3


def move_box_corner(fix):
    fix.scene.primitives[0].max_corner[2] += 0.6


def move_view(fix):
    fix.views[0].pose.translation[0] += 0.3


def move_grid_origin(fix):
    fix.eval_setup.grid.origin[2] += 0.15


def move_grid_to_world(fix):
    fix.eval_setup.grid_to_world.translation[1] += 0.2


def push_near(fix):
    """Another view object: the frustum is frozen.  The prediction samples
    from ``cfg.near``, so only the visibility march sees this."""
    fix.views[0] = replace(fix.views[0], frustum=FrustumSpec(4.0, 12.0))


@pytest.mark.parametrize("change", [move_box_corner, move_view, move_grid_origin,
                                    move_grid_to_world, push_near])
def test_a_changed_input_rebuilds_the_plan(monkeypatch, change):
    """Each input the masks read is part of the plan's key by content, so a
    change made in place rebuilds the masks, and the counts are a fresh
    evaluation's."""
    fix = copy.deepcopy(OCCLUDER)
    fld = occluder_field(0)
    args = fld, fix.scene, fix.views, fix.eval_setup, CFG
    before = optim.evaluate_field(*args).counts
    builds = count_mask_builds(monkeypatch)
    change(fix)
    report = optim.evaluate_field(*args)
    assert builds == dict.fromkeys(MASK_BUILDERS, 1)
    assert report.counts == evaluate_field_dense(*args).counts != before


def test_a_call_leaves_three_grids_allocated(monkeypatch):
    """Between calls only the plan stays: three boolean grids, a pose and
    the key, within 64 KiB.  A kept opacity map (3 MiB) or read-node list
    (0.19 MiB) would show."""
    args = occluder_field(0), OCCLUDER.scene, OCCLUDER.views, SETUP, CFG
    optim.evaluate_field(*args)   # warm caches
    monkeypatch.setattr(optim, "_last_plan", None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        optim.evaluate_field(*args)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert optim._last_plan is not None
    assert held <= 3 * SETUP.grid.num_voxels + 64 * 1024
