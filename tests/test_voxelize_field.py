"""The evaluation pass's voxelization through a per-view read plan.

A ``benchmark._ReadPlan`` takes the frustum mask and scores only its
voxels: it finds the map nodes their cells read, and each voxel's cell, and
scores a field as the read nodes' opacities, then each frustum voxel's
trilinear sample of them, an opacity in [0, 1] that the occupancy
thresholds.  Within the frustum, the only voxels the counts
read, it must equal the dense formula, ``voxelize_occupancy(build_opacity_map(...))``,
bit for bit: on the occluder's evaluation setup, over random poses with
voxels behind the camera and outside the image, on a grid wholly behind it,
against a dense pass that decides through its cell table, and on a setup
large enough to split the density lookup and the center blocks.  It must
also do the work it claims (one lookup of about 6% of the occluder map's
nodes, one score per frustum voxel) and still fail on a NaN density
wherever it reads one.  ``optim.evaluate_field`` keeps the
field-independent masks and the read plan between calls, rebuilds each
when an input of it changes by content (the grid's frame included), keeps
the grid's frame, holds the bytes the plan states and nothing of
``theta``, and peaks no higher than the dense pass; a cold call peaks at
most a byte a map node above the plan's per-node terms, and the ranks it
counts in the read mask's bytes are an int32 cumsum's.  The read plan keeps its read nodes located in the last
field's lattice: fields on one lattice locate them once, a field on
another lattice or with its origin moved in place locates them again, a
``theta`` changed in place is read afresh, and a source that is not a
voxel field is read at the nodes' points and leaves them located.
"""

from __future__ import annotations

import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occrebench import fixtures, optim
from occrebench.benchmark import (_map_cells, _ReadPlan, build_opacity_map, compute_metrics,
                                  frustum_mask, visibility_mask, voxelize_occupancy)
from occrebench.field import VoxelDensityField, ground_truth_occupancy, inverse_softplus
from occrebench.geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose, ccs_to_tcs
from occrebench.grids import BLOCK_VOXELS, VoxelGrid
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


def plan(view, cfg, grid, t_vc) -> _ReadPlan:
    """The read plan of ``view`` and ``cfg`` over ``grid``'s frustum voxels."""
    return _ReadPlan(view, cfg, frustum_mask(grid, t_vc, view.intrinsics), t_vc)


def scored(density_field, view, cfg, grid, t_vc) -> np.ndarray:
    return plan(view, cfg, grid, t_vc).occupancy(density_field)


def dense(density_field, view, cfg, grid, t_vc) -> np.ndarray:
    """The dense formula within the frustum, False outside it."""
    pred = voxelize_occupancy(build_opacity_map(density_field, view, cfg), grid, t_vc)
    return pred.values & frustum_mask(grid, t_vc, view.intrinsics).values


def cumsum_ranks(reads: _ReadPlan, view, cfg, grid, t_vc) -> np.ndarray:
    """``reads.ranks`` as the read plan first built them, kept as the
    oracle: the read mask dilated in whole-map operations, an int32 cumsum
    over every map node, and each frustum voxel's (du, di) corners looked up
    in it.  Checks on the way that the plan's read nodes are the mask's."""
    intr, fr = view.intrinsics, FrustumSpec(cfg.near, cfg.far)
    counts, image = (intr.width, intr.height, cfg.num_samples), intr.width * intr.height
    frustum = frustum_mask(grid, t_vc, intr).values
    base = np.concatenate([np.zeros(0, np.int64)] + [
        _map_cells(counts, ccs_to_tcs(np.compress(frustum[xs].reshape(-1), centers, axis=0),
                                      intr, fr))[0]
        for xs, centers in grid.center_blocks(t_vc)])
    read = np.zeros((cfg.num_samples, intr.width, intr.height), dtype=bool)
    read.reshape(-1)[base] = True
    read[1:] |= read[:-1]
    read[:, 1:] |= read[:, :-1]
    read[:, :, 1:] |= read[:, :, :-1]
    nodes = np.flatnonzero(read)
    assert np.array_equal(reads.pix, nodes % image)
    assert np.array_equal(reads.starts, np.searchsorted(nodes, image * np.arange(counts[2] + 1)))
    rank = np.cumsum(read.reshape(-1), dtype=np.int32)
    return np.stack([rank[base + offset] - 1
                     for offset in (0, image, intr.height, intr.height + image)])


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
    got = scored(fld, VIEW, EVAL_CFG, SETUP.grid, T_VC)
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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_poses_match_the_dense_map(seed):
    """Voxels lie behind the camera and, in front of it, mostly outside the
    image: the plan keeps a cell and offsets for the frustum voxels alone."""
    rng = np.random.default_rng(seed)
    fld, grid, t_vc = random_field(rng), grid_around((9, 8, 10)), straddling_pose(rng)
    inside = np.count_nonzero(frustum_mask(grid, t_vc, INTR).values)
    front = np.count_nonzero(t_vc.apply(grid.centers_flat())[:, 2] > 0)
    assert 0 < inside < front < grid.num_voxels
    reads = plan(SMALL_VIEW, SMALL_CFG, grid, t_vc)
    assert reads.ranks.shape == (4, inside) and reads.frac.shape == (3, inside)
    assert np.array_equal(reads.ranks, cumsum_ranks(reads, SMALL_VIEW, SMALL_CFG, grid, t_vc))
    got = reads.occupancy(fld)
    assert np.array_equal(got, dense(fld, SMALL_VIEW, SMALL_CFG, grid, t_vc))
    # The score's opacities, which the occupancy thresholds in the frustum.
    alpha = np.concatenate([batch_alpha for _, batch_alpha in reads.opacity(fld)])
    assert alpha.shape == (inside,) and np.all((alpha >= 0) & (alpha <= 1))
    assert np.array_equal(got[reads.frustum], alpha > 0.5)


def test_grid_behind_the_camera_reads_nothing(monkeypatch):
    fld = random_field(np.random.default_rng(1))
    grid = VoxelGrid.filled([-3.0, -3.0, -9.0], (6, 6, 6), 1.0, False, dtype=bool)
    assert not frustum_mask(grid, Pose.identity(), INTR).values.any()
    looked_up = count_located_points(monkeypatch)
    reads = plan(SMALL_VIEW, SMALL_CFG, grid, Pose.identity())
    assert len(reads.pix) == 0
    assert not reads.occupancy(fld).any()
    assert looked_up == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cell_table_over_a_partly_filled_map(seed, cell_table_builds):
    """5,832 voxels against 10,368 nodes: the dense pass decides most voxels
    through its cell table, the read plan interpolates every frustum voxel
    and builds no table."""
    rng = np.random.default_rng(seed)
    fld, grid, t_vc = random_field(rng), grid_around((18, 18, 18)), straddling_pose(rng)
    assert 2 * grid.num_voxels >= SMALL_NODES
    inside = frustum_mask(grid, t_vc, INTR).values
    got = scored(fld, SMALL_VIEW, SMALL_CFG, grid, t_vc)
    assert cell_table_builds == []
    assert got[inside].any() and not got[inside].all()
    assert np.array_equal(got, dense(fld, SMALL_VIEW, SMALL_CFG, grid, t_vc))
    assert cell_table_builds == [SMALL_NODES]


def fine_occluder_setup():
    """The occluder's evaluation setup on a grid of a third the voxel edge
    over the same box: 124,740 voxels."""
    grid = SETUP.grid
    fine = VoxelGrid.filled(grid.origin, np.multiply(grid.counts, 3), grid.resolution / 3,
                            False, dtype=bool, frame=grid.frame)
    return replace(SETUP, grid=fine)


def test_a_multi_batch_setup_matches_the_dense_map(monkeypatch):
    """Read nodes beyond one density batch and frustum voxels in two center
    blocks, which the occluder's setup (one of each) does not split."""
    setup = fine_occluder_setup()
    inside = frustum_mask(setup.grid, T_VC, VIEW.intrinsics).values
    per_block = [np.count_nonzero(inside[xs]) for xs, _ in setup.grid.center_blocks()]
    assert len(per_block) >= 2 and all(per_block)
    fld = occluder_field(3)
    looked_up = count_located_points(monkeypatch)
    reads = plan(VIEW, EVAL_CFG, setup.grid, T_VC)
    assert np.array_equal(reads.ranks, cumsum_ranks(reads, VIEW, EVAL_CFG, setup.grid, T_VC))
    got = reads.occupancy(fld)
    assert len(looked_up) >= 2 and looked_up[:-1] == [BLOCK_VOXELS] * (len(looked_up) - 1)
    assert got.any() and not got.all()
    assert np.array_equal(got, dense(fld, VIEW, EVAL_CFG, setup.grid, T_VC))
    report = optim.evaluate_field(fld, OCCLUDER.scene, OCCLUDER.views, setup, CFG)
    expected = evaluate_field_dense(fld, OCCLUDER.scene, OCCLUDER.views, setup, CFG)
    assert report.counts == expected.counts


@pytest.mark.parametrize("num_samples", [48, 128, 512])
def test_ranks_equal_the_cumsum_ranks(num_samples):
    """On the occluder's setup, whose map grows with N while its 4,620
    frustum voxels do not: the ranks counted in the mask's bytes are the
    int32 cumsum's, bit for bit, and every one names a read node."""
    cfg = replace(EVAL_CFG, num_samples=num_samples)
    reads = plan(VIEW, cfg, SETUP.grid, T_VC)
    assert np.array_equal(reads.ranks, cumsum_ranks(reads, VIEW, cfg, SETUP.grid, T_VC))
    assert reads.ranks.dtype == np.int32
    assert 0 <= reads.ranks.min() and reads.ranks.max() + 1 < len(reads.pix)


def test_a_map_beyond_int32_is_rejected():
    """The plan's ranks and corner indices are int32."""
    wide = CameraIntrinsics(100.0, 100.0, 16383.5, 0.5, 2 ** 15, 2)
    view = CameraView(wide, Pose.identity(), FrustumSpec(2.0, 14.0))
    cfg = SamplingConfig(2 ** 15, 2.0, 14.0, MODE_EVAL)
    with pytest.raises(ValueError, match="int32"):
        plan(view, cfg, grid_around((2, 2, 2)), Pose.identity())


# ---------------------------------------------------------------------------
# Work, memory and validation on the occluder
# ---------------------------------------------------------------------------

def count_located_points(monkeypatch) -> list:
    """The number of points of every ``VoxelDensityField.place`` call: the
    placement step that ``locate`` ends in and the read plan calls on its
    own scaled points."""
    counts, real = [], VoxelDensityField.place

    def counting(self, rel, *args):
        counts.append(np.size(rel[0]))
        return real(self, rel, *args)

    monkeypatch.setattr(VoxelDensityField, "place", counting)
    return counts


def test_evaluate_field_looks_up_only_the_read_nodes(monkeypatch):
    """The read nodes in one lookup, and the dense map in one lookup per
    depth bin."""
    fld = occluder_field(0)
    pixels = VIEW.intrinsics.width * VIEW.intrinsics.height
    looked_up = count_located_points(monkeypatch)
    optim.evaluate_field(fld, OCCLUDER.scene, OCCLUDER.views, SETUP, CFG)
    assert len(looked_up) == 1 and 0 < looked_up[0] <= 0.07 * MAP_NODES
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
    """The warm-up call builds the plan, so this is a score's peak: the
    read nodes' opacities and one batch's lookup, against the dense map
    and its voxelization."""
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
    scored(rec, VIEW, EVAL_CFG, SETUP.grid, T_VC)
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
PLAN_BUILDERS = MASK_BUILDERS + ("_ReadPlan",)


def count_plan_builds(monkeypatch) -> dict:
    """Calls of each of ``PLAN_BUILDERS`` that ``optim`` makes from now on."""
    builds = dict.fromkeys(PLAN_BUILDERS, 0)

    def counted(name):
        real = getattr(optim, name)

        def counting(*args):
            builds[name] += 1
            return real(*args)
        return counting

    for name in PLAN_BUILDERS:
        monkeypatch.setattr(optim, name, counted(name))
    return builds


def test_one_setup_builds_its_masks_once(monkeypatch):
    """Three fields scored on one setup, the last on an equal copy of its
    inputs: the masks and the read plan are built on the first call alone,
    and every count table is the dense pass's."""
    builds = count_plan_builds(monkeypatch)
    inputs = [(OCCLUDER.scene, OCCLUDER.views, SETUP, CFG)] * 2
    inputs.append(copy.deepcopy(inputs[0]))
    tables = []
    for seed, args in zip((0, 3, 7), inputs):
        fld = occluder_field(seed)
        report = optim.evaluate_field(fld, *args)
        assert report.counts == evaluate_field_dense(fld, *args).counts
        tables.append(tuple(report.counts.values()))
    assert builds == dict.fromkeys(PLAN_BUILDERS, 1)
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


def change_num_samples(fix):
    fix.eval_setup = replace(fix.eval_setup, num_samples=96)


def change_far(fix):
    fix.train_config = replace(fix.train_config, far=9.0)


@pytest.mark.parametrize("change, masks_rebuilt", [
    (move_box_corner, True), (move_view, True), (move_grid_origin, True),
    (move_grid_to_world, True), (push_near, True),
    (change_num_samples, False), (change_far, False)])
def test_a_changed_input_rebuilds_the_plan(monkeypatch, change, masks_rebuilt):
    """Each input the masks read is part of both keys by content, so a
    change made in place rebuilds the masks and the read plan.  The
    sampling config is part of the read plan's key alone, so a change of
    it rebuilds only the read plan.  Either way the counts are a fresh
    evaluation's."""
    fix = copy.deepcopy(OCCLUDER)
    fld = occluder_field(0)

    def args():
        return fld, fix.scene, fix.views, fix.eval_setup, fix.train_config

    before = optim.evaluate_field(*args()).counts
    builds = count_plan_builds(monkeypatch)
    change(fix)
    report = optim.evaluate_field(*args())
    assert builds == {**dict.fromkeys(MASK_BUILDERS, int(masks_rebuilt)), "_ReadPlan": 1}
    assert report.counts == evaluate_field_dense(*args()).counts != before


def cold_call(monkeypatch, args) -> tuple:
    """Bytes that one ``evaluate_field`` call on a fresh plan leaves
    allocated, and its peak, both above what was held before it, after an
    earlier call has warmed caches."""
    optim.evaluate_field(*args)
    monkeypatch.setattr(optim, "_last_plan", None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        optim.evaluate_field(*args)
        return tuple(m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def held_after_a_cold_call(monkeypatch, args) -> int:
    return cold_call(monkeypatch, args)[0]


def located_nodes(reads: _ReadPlan) -> int:
    """The read nodes inside the hull of the lattice they were last located in."""
    return sum(len(loc.base) for loc in reads.located[1])


def plan_bound(grid: VoxelGrid) -> int:
    """The bytes ``evaluate_field``'s last plan may hold over ``grid``: the
    three mask grids (1 B per voxel each) and the read plan at the bytes
    ``_ReadPlan`` states (5 per read node, 32 more per located one, 40 per
    frustum voxel, 24 per pixel and per depth bin), within 64 KiB for a
    pose, the key and Python's objects."""
    frustum, reads = optim._last_plan[1][2], optim._last_plan[3]
    inside = np.count_nonzero(frustum.values)
    rays = reads.dir_cols.shape[1] + len(reads.t)
    return (3 * grid.num_voxels + 5 * len(reads.pix) + 32 * located_nodes(reads)
            + 40 * inside + 24 * rays + 64 * 1024)


def test_a_call_leaves_three_grids_allocated(monkeypatch):
    """Between calls only the plan stays, within :func:`plan_bound`.  A kept
    opacity map (3 MiB) or opacity per read node (0.19 MiB) would show.
    Fields on one lattice with different theta leave the same bytes, within
    the few that Python's own objects vary by, and a field on a lattice of
    another shape leaves 32 B more per read node its hull holds, so nothing
    of theta is kept."""
    inputs = OCCLUDER.scene, OCCLUDER.views, SETUP, CFG
    fld = occluder_field(0)
    held = held_after_a_cold_call(monkeypatch, (fld,) + inputs)
    frustum, reads = optim._last_plan[1][2], optim._last_plan[3]
    assert reads.frustum is frustum.values
    assert 0 < len(reads.pix) <= 0.07 * MAP_NODES
    assert held <= plan_bound(SETUP.grid)
    located = located_nodes(reads)

    same = on_lattice_of(fld, occluder_field(3).theta)
    assert abs(held_after_a_cold_call(monkeypatch, (same,) + inputs) - held) <= OBJECT_NOISE

    coarse = OCCLUDER.base_field
    other = VoxelDensityField(coarse.origin, 2 * coarse.resolution,
                              coarse.theta[::2, ::2, ::2])
    assert fld.theta.nbytes - other.theta.nbytes > 4 * OBJECT_NOISE
    held_other = held_after_a_cold_call(monkeypatch, (other,) + inputs)
    more = 32 * (located_nodes(optim._last_plan[3]) - located)
    assert abs(held_other - held - more) <= OBJECT_NOISE


@pytest.mark.parametrize("num_samples", [48, 128, 512])
def test_a_cold_call_peaks_at_a_byte_a_map_node(monkeypatch, num_samples):
    """Above what it leaves held, a cold call peaks within what
    ``_ReadPlan`` states: 1 B per map node, 56 B per read node and 56 B
    per frustum voxel, within 64 KiB for Python's objects.  The masks'
    own scratch, O(pixels), comes and goes before the plan is built.  A
    rank per map node, as an int32 cumsum, put N = 512 6.9 MiB above the
    plan, against 1.5 MiB of map."""
    setup = replace(SETUP, num_samples=num_samples)
    held, peak = cold_call(monkeypatch, (occluder_field(0), OCCLUDER.scene, OCCLUDER.views,
                                         setup, CFG))
    reads = optim._last_plan[3]
    map_nodes = MAP_NODES // SETUP.num_samples * num_samples
    assert held <= plan_bound(setup.grid)
    assert peak - held <= (map_nodes + 56 * len(reads.pix) + 56 * reads.frac.shape[1]
                           + 64 * 1024)


def test_the_plan_keeps_the_grid_frame():
    """The occluder's grid lives in the camera frame, and so do the ground
    truth, frustum and visibility grids the plan keeps for it."""
    assert SETUP.grid.frame == "camera"
    optim.evaluate_field(occluder_field(0), OCCLUDER.scene, OCCLUDER.views, SETUP, CFG)
    assert [g.frame for g in optim._last_plan[1][1:]] == [SETUP.grid.frame] * 3


def test_a_grid_retagged_to_another_frame_gets_masks_in_it():
    """The occluder's grid, then the same grid tagged ``"voxel"``: the frame
    is part of the masks' key, so the second call builds its masks in that
    frame, and both count tables are a fresh evaluation's.  With the frame
    left out of the key, the second call met the first's camera-frame
    masks and raised a frame mismatch."""
    fld, grid = occluder_field(0), SETUP.grid
    voxel = replace(SETUP, grid=VoxelGrid(grid.origin, grid.counts, grid.resolution,
                                          grid.values, "voxel"))
    for setup in (SETUP, voxel):
        args = fld, OCCLUDER.scene, OCCLUDER.views, setup, CFG
        report = optim.evaluate_field(*args)
        assert report.counts == evaluate_field_dense(*args).counts
        assert [g.frame for g in optim._last_plan[1][1:]] == [setup.grid.frame] * 3


# ---------------------------------------------------------------------------
# Read nodes located once per lattice
# ---------------------------------------------------------------------------

INPUTS = OCCLUDER.scene, OCCLUDER.views, SETUP, CFG


def on_lattice_of(fld: VoxelDensityField, theta) -> VoxelDensityField:
    return VoxelDensityField(fld.origin.copy(), fld.resolution.copy(), theta)


def score(looked_up: list, density_field) -> tuple:
    """``evaluate_field``'s count table of ``density_field``, checked against
    the dense pass's, and the points of each ``locate`` call it made."""
    looked_up.clear()
    report = optim.evaluate_field(density_field, *INPUTS)
    located = list(looked_up)
    assert report.counts == evaluate_field_dense(density_field, *INPUTS).counts
    return tuple(report.counts.values()), located


def read_nodes() -> list:
    """The points of the one lookup that locates the occluder's read nodes."""
    return [len(optim._last_plan[3].pix)]


def test_fields_on_one_lattice_locate_the_read_nodes_once(monkeypatch):
    looked_up = count_located_points(monkeypatch)
    base = occluder_field(0)
    scores = [score(looked_up, on_lattice_of(base, occluder_field(seed).theta))
              for seed in (0, 3, 7)]
    assert [located for _, located in scores] == [read_nodes(), [], []]
    assert len({table for table, _ in scores}) == 3


def test_a_field_on_another_lattice_relocates_once(monkeypatch):
    """Only the last lattice's located nodes are kept."""
    looked_up = count_located_points(monkeypatch)
    fld, other = occluder_field(0), occluder_field(3)
    assert score(looked_up, fld)[1] == read_nodes()
    assert score(looked_up, other)[1] == read_nodes()
    assert score(looked_up, other)[1] == []
    assert score(looked_up, fld)[1] == read_nodes()


@pytest.mark.parametrize("axis", [0, 2])
def test_an_origin_moved_in_place_relocates(monkeypatch, axis):
    """The located nodes are keyed by the lattice's content, not its
    object."""
    looked_up = count_located_points(monkeypatch)
    fld = occluder_field(0)
    before = score(looked_up, fld)[0]
    fld.origin[axis] += 0.3 * fld.resolution[axis]
    table, located = score(looked_up, fld)
    assert located == read_nodes() and table != before


def test_theta_changed_in_place_gives_a_fresh_table(monkeypatch):
    """Nothing of theta is kept: the nodes stay located and the densities
    are read afresh."""
    looked_up = count_located_points(monkeypatch)
    fld = occluder_field(0)
    before = score(looked_up, fld)[0]
    fld.theta[...] = occluder_field(3).theta
    table, located = score(looked_up, fld)
    assert located == [] and table != before


def test_a_generic_source_leaves_the_located_nodes(monkeypatch):
    """An analytic scene, scored between two fields on one lattice, is read
    through ``density_at`` at the read nodes' points; the second field then
    makes no lookup."""
    looked_up = count_located_points(monkeypatch)
    fld = occluder_field(0)
    assert score(looked_up, fld)[1] == read_nodes()
    assert score(looked_up, OCCLUDER.scene)[1] == []
    assert score(looked_up, on_lattice_of(fld, occluder_field(7).theta))[1] == []
