"""Voxel-center blocks and the stages that walk the grid through them.

Each stage is checked bit for bit against its all-at-once formula (every
voxel center in one array), kept here as the oracle, and its memory beyond
the boolean grids it writes is checked not to grow with the block count.
The two stages that decide voxels from bounds (the opacity voxelization's
cell table, the ground truth's primitive culling) are checked against the
same oracles on inputs built to sit on those bounds.
"""

from __future__ import annotations

import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from occrebench import benchmark, fixtures
from occrebench.benchmark import (CELL_ABOVE, CELL_BELOW, CELL_MARGIN, CELL_UNDECIDED,
                                  OCCUPANCY_THRESHOLD, SUB_BLOCK, OpacityMap,
                                  conventional_voxelize,
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


@pytest.mark.parametrize("seed", range(4))
def test_apply_rows_do_not_depend_on_the_others(seed):
    """The premise of ``center_blocks`` and of ``frustum_mask``'s batches:
    ``Pose.apply`` of any two or more rows, in any order, laid out as
    (3, rows) as they lay them out, gives each row the bits the product of
    all rows gives it.  (A single row need not.)"""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        pose = Pose(rotation_about(rng.normal(size=3), rng.uniform(0, 2 * np.pi)),
                    rng.normal(size=3) * 10.0)
        n = int(rng.integers(2, 3000))
        rows = np.empty((3, n))
        rows[...] = rng.normal(size=(3, n)) * rng.uniform(0.1, 100.0)
        full = pose.apply(rows.T)
        pick = rng.permutation(n)[:int(rng.integers(2, n + 1))]
        subset = np.ascontiguousarray(rows[:, pick])
        got = pose.apply(subset.T, out=np.empty(subset.shape))
        assert got.tobytes() == np.ascontiguousarray(full[pick]).tobytes()


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
        got = visibility_mask(gt, VIEW, t_vc).values
        monkeypatch.setattr(benchmark, "frustum_mask", lambda g, t, intr: g.like(
            frustum_all_at_once(g, t, intr)))
        assert np.array_equal(got, visibility_mask(gt, VIEW, t_vc).values)
        assert got.any()


@pytest.mark.parametrize("seed", [0, 1])
def test_visibility_march_on_the_line_grid_takes_few_passes(seed, monkeypatch):
    """``test_visibility_mask_clip``'s LINE ground truth: rays that run along
    the 6 m slab take some 65,000 steps of its 9.2e-5 m x edge, and a pass
    of one step each took 41,861 and 68,809 passes for seeds 0 and 1; the
    march's windows cover them in at most 1,000 passes."""
    rng, grid, t_vc = TestStagesMatchAllAtOnce().setup_grid(LINE, seed)
    gt = grid.like(rng.random(grid.counts) < 0.02)
    passes = []
    lookup = VoxelGrid.flat_index

    def counting(g, columns):
        passes.append(columns[0].size)
        return lookup(g, columns)

    monkeypatch.setattr(VoxelGrid, "flat_index", counting)
    visibility_mask(gt, VIEW, t_vc)
    assert 0 < len(passes) <= 1000


# ---------------------------------------------------------------------------
# The frustum mask's sub-block bound on grids built to sit on it
# ---------------------------------------------------------------------------

# fx = cx and fy = cy, powers of two: a camera-frame center with x = -z
# projects to u = 0 exactly, x = z to u = w - 1, y = -z to v = 0 and y = z to
# v = h - 1.
BORDER_INTR = CameraIntrinsics(16.0, 8.0, 16.0, 8.0, 33, 17)


def border_grid(shift: int):
    """Centers on multiples of 0.25 m: x in [-6, 5.75] and y in [-5, 4.75],
    both moved by ``shift`` voxels, and z in [-4, 7.75]; the z = 0 plane
    starts a run of sub-blocks.  Over the 16 shifts, each of the lines
    x = -z, x = z, y = -z and y = z meets some sub-block only at an edge
    or corner of its box of centers."""
    return VoxelGrid.filled([-6.125 + 0.25 * shift, -5.125 + 0.25 * shift, -4.125],
                            (48, 40, 48), 0.25, False, dtype=bool)


# Poses that keep the centers' coordinates exact: the identity, and a cyclic
# swap of the axes with a translation of whole voxels.
EXACT_POSES = {"identity": Pose.identity(),
               "cyclic": Pose([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                              [0.5, -0.25, 1.0])}


def count_projected(monkeypatch) -> list:
    """The number of centers of each batch ``frustum_mask`` projects."""
    projected = []

    def counting(intr, u, v, z):
        projected.append(len(z))
        return in_image(intr, u, v, z)

    monkeypatch.setattr(benchmark, "in_image", counting)
    return projected


@pytest.mark.parametrize("shift", range(SUB_BLOCK))
@pytest.mark.parametrize("pose", sorted(EXACT_POSES))
def test_frustum_mask_on_the_image_border(pose, shift, monkeypatch):
    """Centers exactly on u = 0, u = w - 1, v = 0, v = h - 1 and z = 0, in
    sub-blocks that touch those borders from either side: bit for bit the
    all-at-once mask, with both decided and projected sub-blocks."""
    grid, t_vc = border_grid(shift), EXACT_POSES[pose]
    u, v, z = project(BORDER_INTR, t_vc.apply(grid.centers_flat()))
    for on_border in (u == 0, u == BORDER_INTR.width - 1, v == 0,
                      v == BORDER_INTR.height - 1, z == 0):
        assert on_border.any()
    projected = count_projected(monkeypatch)
    got = frustum_mask(grid, t_vc, BORDER_INTR).values
    want = frustum_all_at_once(grid, t_vc, BORDER_INTR)
    assert np.array_equal(got, want)
    assert want.any() and not want.all()
    assert 0 < sum(projected) < grid.num_voxels


def test_frustum_mask_on_the_optical_axis(monkeypatch):
    """Centers on the optical axis from z = 0 on: every form but z's is
    positive, and z's is 0 at the first center, which is outside."""
    grid = VoxelGrid.filled([-0.125, -0.125, -0.125], (1, 1, 3 * SUB_BLOCK), 0.25, False,
                            dtype=bool)
    projected = count_projected(monkeypatch)
    got = frustum_mask(grid, Pose.identity(), BORDER_INTR).values.reshape(-1)
    assert not got[0] and got[1:].all()
    assert projected == [SUB_BLOCK]


def test_frustum_mask_leaves_nothing_held(monkeypatch):
    """A call that projects 179 sub-blocks holds no more than its output
    and a few small objects once it returns.  Boxes made by ``tuple()`` of
    a generator each left a 64 B tuple in the interpreter's free list
    (18.4 KiB here), which only ``gc.collect()`` empties."""
    grid = centered_grid((128, 128, 128), [4.0, 4.0, 4.0])
    t_vc = Pose(rotation_about(np.array([0.3, 1.0, 0.2]), 0.4), [0.2, -0.1, 3.0])
    projected = count_projected(monkeypatch)
    frustum_mask(grid, t_vc, INTR)
    assert sum(projected) == 179 * SUB_BLOCK ** 3
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        out = frustum_mask(grid, t_vc, INTR)
        held = tracemalloc.get_traced_memory()[0] - before - out.values.nbytes
    finally:
        tracemalloc.stop()
    assert held <= 6 * 1024, held


@pytest.mark.parametrize("counts", [(1, 1, 1), (2, 1, 1), (3, 4, 5), (SUB_BLOCK + 1, 1, 1),
                                    (SUB_BLOCK + 1, 2 * SUB_BLOCK + 1, 3),
                                    (3 * SUB_BLOCK, SUB_BLOCK - 1, 2 * SUB_BLOCK + 1)])
@pytest.mark.parametrize("seed", range(6))
def test_frustum_mask_on_tails_and_small_grids(counts, seed):
    """One-voxel tails on every axis (which join the run before them),
    grids smaller than a sub-block and single voxels, under random poses
    and intrinsics, against the all-at-once mask."""
    rng = np.random.default_rng(seed)
    grid = centered_grid(counts, rng.uniform(2.0, 12.0, 3))
    intr = CameraIntrinsics(*rng.uniform(10.0, 40.0, 2), *rng.uniform(0.0, 30.0, 2),
                            int(rng.integers(2, 40)), int(rng.integers(2, 40)))
    t_vc = grid_to_camera(rng)
    t_vc = Pose(t_vc.rotation, t_vc.translation * rng.uniform(0.0, 1.0))
    assert all(np.diff(benchmark._runs(n)).min() >= min(n, 2) for n in counts)
    assert np.array_equal(frustum_mask(grid, t_vc, intr).values,
                          frustum_all_at_once(grid, t_vc, intr))


def test_conventional_voxelize_takes_softplus_once(softplus_calls):
    """Three center blocks, one softplus of the whole lattice."""
    rng = np.random.default_rng(0)
    grid = centered_grid(SHORT_TAIL, [12.0, 6.0, 6.0])
    assert len(list(grid.center_blocks())) == 3
    fld = density_field(rng)
    conventional_voxelize(fld, grid, grid_to_camera(rng))
    assert softplus_calls == [fld.shape]


# ---------------------------------------------------------------------------
# The opacity cell table on maps built to test its bound
# ---------------------------------------------------------------------------

def up(x: float) -> float:
    return float(np.nextafter(x, 2.0))


def down(x: float) -> float:
    return float(np.nextafter(x, -1.0))


HALF = OCCUPANCY_THRESHOLD
# Node opacities of each slab of ``bound_map``.
PALETTES = (
    (HALF, down(HALF), up(HALF)),            # on the threshold: undecided
    (HALF - CELL_MARGIN, HALF + CELL_MARGIN),  # on the margins: undecided
    (down(HALF - CELL_MARGIN), 0.0),         # an ulp clear of the margin: below
    (up(HALF + CELL_MARGIN), 1.0),           # an ulp clear of the margin: above
    (0.0,),
    (1.0,),
    (HALF, down(HALF - CELL_MARGIN), up(HALF + CELL_MARGIN)),
)


def bound_map(rng) -> OpacityMap:
    """Slabs of four pixel columns, each drawn from one of ``PALETTES``,
    crossed by depth slabs saturated at 0 and at 1."""
    values = np.empty((INTR.width, INTR.height, 16))
    for k, u0 in enumerate(range(0, INTR.width, 4)):
        slab = values[u0:u0 + 4]
        slab[...] = rng.choice(PALETTES[k % len(PALETTES)], size=slab.shape)
    values[:, :, 3:5] = 0.0
    values[:, :, 9:11] = 1.0
    return OpacityMap(values, INTR, FRUSTUM)


def straddling_pose(rng) -> Pose:
    """A small random tilt, the grid's center 6 m ahead: a grid of
    ``STRADDLING`` extent reaches behind the camera, past the far bound and
    beyond the image on every side."""
    return Pose(rotation_about(rng.normal(size=3), rng.uniform(0.0, 0.3)), [0.0, 0.0, 6.0])


STRADDLING = [14.0, 10.0, 24.0]


# The table is built when 2 voxels per node are reached: 32 x 24 x 16 = 12,288
# nodes against 19,200 voxels, and not against 2,400.
@pytest.mark.parametrize("counts, tabled", [((24, 20, 40), True), ((12, 10, 20), False)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_voxelize_through_the_cell_table(counts, tabled, seed, cell_table_builds):
    rng = np.random.default_rng(seed)
    omap, grid, t_vc = bound_map(rng), centered_grid(counts, STRADDLING), straddling_pose(rng)
    got = voxelize_occupancy(omap, grid, t_vc).values
    assert cell_table_builds == ([omap.values.size] if tabled else [])
    assert np.array_equal(got, voxelize_all_at_once(omap, grid, t_vc))

    # The voxels reach every case the bound must get right.
    cam = t_vc.apply(grid.centers_flat())
    front = cam[:, 2] > 0
    assert front.any() and not front.all()
    tcs = ccs_to_tcs(cam[front], INTR, FRUSTUM)
    assert np.any(tcs[:, 2] * omap.values.shape[2] >= omap.values.shape[2] - 1)   # offset 1
    assert np.any(tcs[:, :2] < 0) and np.any(tcs[:, :2] > 1)             # clamped
    cls = benchmark.cell_table(omap)[benchmark._map_cells(omap.values.shape, tcs)[0]]
    occ = got.reshape(-1)[front]
    assert np.all(occ[cls == CELL_ABOVE]) and np.any(cls == CELL_ABOVE)
    assert not np.any(occ[cls == CELL_BELOW]) and np.any(cls == CELL_BELOW)
    assert np.any(occ[cls == CELL_UNDECIDED]) and not np.all(occ[cls == CELL_UNDECIDED])


def test_cell_table_classes_at_the_margin():
    """Eight equal corners decide a cell only strictly beyond the margin."""
    cases = {0.0: CELL_BELOW, down(HALF - CELL_MARGIN): CELL_BELOW,
             HALF - CELL_MARGIN: CELL_UNDECIDED, HALF: CELL_UNDECIDED,
             HALF + CELL_MARGIN: CELL_UNDECIDED, up(HALF + CELL_MARGIN): CELL_ABOVE,
             1.0: CELL_ABOVE}
    intr = CameraIntrinsics(2.0, 2.0, 1.0, 0.5, 3, 2)
    for value, expected in cases.items():
        table = benchmark.cell_table(OpacityMap(np.full((3, 2, 4), value), intr, FRUSTUM))
        cells = table.reshape(4, 3, 2)
        assert np.all(cells[:-1, :-1, :-1] == expected), value
        # nodes on a last face are no cell's lower corner
        assert np.all(cells[-1] == CELL_UNDECIDED) and np.all(cells[:, -1] == CELL_UNDECIDED)
        assert np.all(cells[:, :, -1] == CELL_UNDECIDED)


def test_occluder_sized_grid_builds_no_table(cell_table_builds):
    """The occluder's 4,620 voxels against its 393,216-node map (64 x 48
    pixels, 128 depth bins): every voxel is interpolated."""
    fix = fixtures.standard_occluder()
    setup = fix.eval_setup
    view = fix.views[setup.view_index]
    intr, t_vc = view.intrinsics, setup.t_vc(view)
    values = np.random.default_rng(4).random((intr.width, intr.height, setup.num_samples))
    omap = OpacityMap(values, intr, view.frustum)
    assert (omap.values.size, setup.grid.num_voxels) == (393_216, 4_620)
    got = voxelize_occupancy(omap, setup.grid, t_vc).values
    assert cell_table_builds == []
    assert np.array_equal(got, voxelize_all_at_once(omap, setup.grid, t_vc))


# ---------------------------------------------------------------------------
# Ground truth: primitives whose bounds meet a block only at its faces
# ---------------------------------------------------------------------------

def touching_primitives(grid, pose, k):
    """Primitives that reach block ``k``'s box of centers only at a face:
    boxes and half-spaces closed on it from outside, and spheres outside it
    that hold the center on that face on their surface.  A sphere's radius
    is the float distance from its center to that voxel center, so the
    sphere holds it; with the large radius, center + radius can round to
    the wrong side of it."""
    centers = [c.copy() for _, c in grid.center_blocks(pose)][k]   # a block is reused
    lo, hi = centers.min(axis=0), centers.max(axis=0)
    wide_lo, wide_hi = lo - 50.0, hi + 50.0
    prims = []
    for a in range(3):
        for side, face, extreme in ((-1, lo, np.argmin), (1, hi, np.argmax)):
            box_lo, box_hi = wide_lo.copy(), wide_hi.copy()
            (box_hi if side < 0 else box_lo)[a] = face[a]
            prims.append(Box(box_lo, box_hi, 1.0, [0, 0, 0]))
            prims.append(HalfSpace(a, face[a], side, 1.0, [0, 0, 0]))
            tangent = centers[extreme(centers[:, a])]
            for offset in (0.7, 65.26):
                center = tangent.copy()
                center[a] += side * offset
                prims.append(Sphere(center, abs(center[a] - tangent[a]), 1.0, [0, 0, 0]))
    return prims


@pytest.mark.parametrize("rotated", [False, True])
def test_ground_truth_culling_at_block_faces(rotated):
    grid = centered_grid(SHORT_TAIL, [12.0, 6.0, 6.0])
    pose = grid_to_camera(np.random.default_rng(5)) if rotated else Pose.identity()
    blocks = [xs for xs, _ in grid.center_blocks(pose)]
    assert len(blocks) == 3
    for prim in touching_primitives(grid, pose, 1):
        scene_ = AnalyticScene((prim,))
        got = ground_truth_occupancy(scene_, grid, pose).values
        want = ground_truth_all_at_once(scene_, grid, pose)
        assert np.array_equal(got, want), prim
        assert got[blocks[1]].any(), prim


def test_primitive_disjoint_from_a_block_is_not_tested_on_it(monkeypatch):
    grid = centered_grid(SHORT_TAIL, [12.0, 6.0, 6.0])
    blocks = [c.copy() for _, c in grid.center_blocks()]   # a block is reused
    first_x = {c[0, 0]: k for k, c in enumerate(blocks)}
    lo = [c.min(axis=0) for c in blocks]
    hi = [c.max(axis=0) for c in blocks]
    mid2 = (lo[2] + hi[2]) / 2
    prims = (Box([lo[1][0], -9, -9], [hi[1][0], 9, 9], 1.0, [0, 0, 0]),      # block 1 only
             Sphere(mid2, (hi[2][0] - lo[2][0]) / 3, 1.0, [0, 0, 0]),        # block 2 only
             HalfSpace(0, hi[0][0], -1, 1.0, [0, 0, 0]),                     # block 0 only
             HalfSpace(1, 0.0, 1, 1.0, [0, 0, 0]))                           # every block
    tested = {id(p): [] for p in prims}
    for cls in (Box, Sphere, HalfSpace):
        def counting(self, pts, real=cls.contains):
            tested[id(self)].append(first_x[pts[0, 0]])
            return real(self, pts)
        monkeypatch.setattr(cls, "contains", counting)
    got = ground_truth_occupancy(AnalyticScene(prims), grid, Pose.identity()).values
    assert [tested[id(p)] for p in prims] == [[1], [2], [0], [0, 1, 2]]
    monkeypatch.undo()
    assert np.array_equal(got, ground_truth_all_at_once(AnalyticScene(prims), grid,
                                                        Pose.identity()))


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
# frustum clip).
def without_cell_table(fn):
    with mock.patch.object(benchmark, "CELL_TABLE_NODES_PER_VOXEL", 0):
        return fn()


STAGES = {
    # the grids outnumber the map's 12,288 nodes, so the cell table is built
    "voxelize_occupancy": (lambda g, t: voxelize_occupancy(
        opacity_map(np.random.default_rng(3)), g, t), 1),
    "voxelize_occupancy_untabled": (lambda g, t: without_cell_table(
        lambda: voxelize_occupancy(opacity_map(np.random.default_rng(3)), g, t)), 1),
    "conventional_voxelize": (lambda g, t: conventional_voxelize(
        density_field(np.random.default_rng(3)), g, t), 1),
    "frustum_mask": (lambda g, t: frustum_mask(g, t, INTR), 1),
    "ground_truth_occupancy": (lambda g, t: ground_truth_occupancy(scene(), g, t), 1),
    "visibility_mask": (lambda g, t: visibility_mask(g, VIEW, t), 2),
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


def test_cell_table_adds_at_most_a_byte_per_node(cell_table_builds):
    """A map 16 times deeper raises the voxelization's peak by its extra
    nodes' table bytes.  The map varies across pixels only, so at either
    depth every voxel falls in a cell of the same class and each block's
    work is the same."""
    t_vc = Pose(rotation_about(np.array([0.3, 1.0, 0.2]), 0.4), [0.2, -0.1, 6.0])
    grid = centered_grid((64, 64, 64), [4.0, 4.0, 4.0])
    image = np.random.default_rng(6).random((INTR.width, INTR.height)) < 0.3
    peaks = []
    for n in (16, 256):
        omap = OpacityMap(np.repeat(image[:, :, None], n, axis=2).astype(float), INTR, FRUSTUM)
        peaks.append(excess_peak(lambda: voxelize_occupancy(omap, grid, t_vc), grid.num_voxels))
    assert cell_table_builds == [INTR.width * INTR.height * n for n in (16, 16, 256, 256)]
    # 1 KiB of slack for small Python objects; the two peaks differ by 32
    # bytes less than the tables do
    assert peaks[1] - peaks[0] <= INTR.width * INTR.height * (256 - 16) + 1024, peaks
