"""The reformulated occupancy evaluation protocol.

Opacity protocol: render per-pixel opacities with eval-mode sampling into a
map over the normalized frustum cube (pixel axes scaled by 1/(w-1),
1/(h-1); depth node i at z = i/N, which is exact for eval-mode
inverse-depth sampling), take each voxel center into the cube, sample the
map trilinearly with border padding and threshold at 0.5.  The
conventional protocol, thresholding raw density at voxel centers, is kept
for comparison.

Masks: the frustum mask keeps voxels whose centers project inside the image
with positive depth; the visibility mask marches one ray per pixel at
voxel-size steps through the ground-truth grid and keeps voxels reached
before the first occupied sample.  Metrics are exact count ratios.

Every stage that visits voxel centers does so through
``VoxelGrid.map_centers`` or ``center_blocks``, one block of x-slices at a
time (``test_center_blocks.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import VoxelDensityField, slab_intervals, trilinear_corners
from .geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose, ccs_to_tcs, \
    all_pixel_coords, in_image, pixel_directions, project
from .grids import BLOCK_VOXELS, VoxelGrid
from .rendering import MODE_EVAL, SamplingConfig, interval_lengths, opacity, \
    sample_distances

OCCUPANCY_THRESHOLD = 0.5


def _density_lookup(density_field):
    """``points -> sigma`` for one stage's batches of points.

    A ``VoxelDensityField``'s node densities are taken here, once
    (``test_benchmark.py::TestOpacityMap::test_softplus_once_per_map``), so
    the lookup must not outlive the stage: training updates ``theta`` in
    place.
    """
    if isinstance(density_field, VoxelDensityField):
        nodes = density_field.node_density()
        return lambda pts: density_field.density_from(density_field.locate(pts), nodes)
    return density_field.density_at


# ---------------------------------------------------------------------------
# Opacity map
# ---------------------------------------------------------------------------

@dataclass
class OpacityMap:
    """Per-pixel, per-depth-bin opacities over the normalized frustum cube.

    ``values[u, v, i]`` is the opacity of depth bin i on the ray of pixel
    (u, v); the node coordinates in the cube are (u/(w-1), v/(h-1), i/N).
    Note the depth nodes span [0, (N-1)/N]; sampling beyond the last node
    clamps to it (border padding).
    ``values`` is a (w, h, N) view of a C-ordered (N, w, h) buffer, one
    image per depth bin, the order in which it is built and sampled; other
    layouts are copied into it.
    """

    values: np.ndarray
    intrinsics: CameraIntrinsics
    frustum: FrustumSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError("opacity map must be (width, height, samples)")
        if v.shape[0] != self.intrinsics.width or v.shape[1] != self.intrinsics.height:
            raise ValueError("opacity map does not match the intrinsics' image size")
        # 1.0 is allowed as the saturated rounding of 1 - exp(-x); see
        # rendering.composite.  NaN fails both comparisons.
        if not (np.all(v >= 0) and np.all(v <= 1)):
            raise ValueError("opacities must lie in [0, 1]")
        self.values = np.ascontiguousarray(v.transpose(2, 0, 1)).transpose(1, 2, 0)


def _node_strides(counts) -> tuple:
    """Element strides along (u, v, i) of a depth-major map of (w, h, n)
    ``counts`` nodes."""
    w, h, _ = counts
    return (h, 1, w * h)


def _eval_rays(view: CameraView, cfg: SamplingConfig) -> tuple:
    """Each pixel ray's world direction as three rows (3, w * h), in the
    map's (u, v) order, and the eval-mode depths and interval lengths of
    ``cfg``."""
    if cfg.mode != MODE_EVAL:
        raise ValueError("opacity maps must be built with eval-mode sampling")
    _, dirs = view.world_rays(all_pixel_coords(view.intrinsics).reshape(-1, 2))
    t = sample_distances(cfg)
    return np.ascontiguousarray(dirs.T), t, interval_lengths(t, cfg.far)


def build_opacity_map(density_field, view: CameraView,
                      cfg: SamplingConfig) -> OpacityMap:
    """One eval-mode ray per pixel; N opacities per ray, filled one depth
    bin at a time into the depth-major map.

    Memory beyond the map is O(pixels), independent of N
    (``test_benchmark.py::TestOpacityMap::test_peak_memory_is_the_map_plus_per_ray_state``).
    A point is formed one coordinate at a time, ``t * d[a] + o[a]``, the
    same bits as ``origins + t * dirs``, and its opacity depends on its own
    sample alone, so :class:`_ReadPlan` gives a node the same bits.
    """
    dir_cols, t, delta = _eval_rays(view, cfg)
    density = _density_lookup(density_field)
    intr = view.intrinsics
    alpha = np.empty((cfg.num_samples, intr.width * intr.height))
    for i in range(cfg.num_samples):
        pts = np.empty(dir_cols.shape)
        for a in range(3):
            np.multiply(t[i], dir_cols[a], out=pts[a])
            pts[a] += view.position[a]
        alpha[i] = opacity(density(pts.T), delta[i])
        del pts
    values = alpha.reshape(cfg.num_samples, intr.width, intr.height).transpose(1, 2, 0)
    return OpacityMap(values, intr, FrustumSpec(cfg.near, cfg.far))


def _map_cells(counts, pts: np.ndarray):
    """The cell of each cube point (..., 3) in an opacity map of (w, h, n)
    ``counts`` nodes: the flat node index of its lower corner, and its
    offset (3, ...) within the cell.

    Coordinates are scaled to node indices (u*(w-1), v*(h-1), z*N) and
    clamped to the node range, which implements border padding; a point
    clamped to the last node of an axis sits at offset 1 in the last cell.
    """
    w, h, n = counts
    scale = (w - 1.0, h - 1.0, float(n))
    strides = _node_strides(counts)
    base = np.zeros(pts.shape[:-1], dtype=np.int64)
    frac = np.empty((3,) + pts.shape[:-1])
    for a in range(3):
        idx = np.clip(pts[..., a] * scale[a], 0.0, counts[a] - 1.0)
        # idx >= 0, so its floor needs only the upper clip; kept as a float
        # until the subtraction is done, which then needs no conversion
        lo = np.minimum(np.floor(idx), counts[a] - 2.0)
        np.subtract(idx, lo, out=frac[a, ...])
        base += lo.astype(np.int64) * strides[a]
    return base, frac


def _interpolate(omap: OpacityMap, base, frac) -> np.ndarray:
    """Trilinear opacity at located points (see :func:`_map_cells`)."""
    values = omap.values.transpose(2, 0, 1).reshape(-1)
    out = np.zeros(frac.shape[1:])
    for flat, wgt in trilinear_corners(base, frac, _node_strides(omap.values.shape)):
        wgt *= values[flat]
        out += wgt
        del flat, wgt               # before the generator makes the next corner
    return out


def grid_sample_opacity(omap: OpacityMap, points_tcs: np.ndarray) -> np.ndarray:
    """Trilinear sample of the opacity map at cube coordinates (..., 3),
    with border padding."""
    pts = np.asarray(points_tcs, dtype=np.float64)
    return _interpolate(omap, *_map_cells(omap.values.shape, pts))


# Cell classes of :func:`cell_table`.
CELL_BELOW, CELL_ABOVE, CELL_UNDECIDED = 0, 1, 2
# Distance from the threshold by which all eight corners of a cell must
# clear it for the cell to be decided; see :func:`cell_table`.
CELL_MARGIN = 2.0 ** -20
# A table is built when the map has at most this many nodes per voxel to
# decide.  Measured on the eval_kitti360 street (2 vCPUs): the table costs
# about 7 ns per node to build and saves about 38 ns per decided voxel, so at
# 2 nodes per voxel it repays itself once about 40% of the voxels are decided
# (79% are there, at about 1 node per voxel).
CELL_TABLE_NODES_PER_VOXEL = 2


def cell_table(omap: OpacityMap) -> np.ndarray:
    """One byte per map node: the class of the cell whose lower corner it is.

    A cell is ``CELL_BELOW`` if all eight of its corner opacities are below
    ``OCCUPANCY_THRESHOLD - CELL_MARGIN``, ``CELL_ABOVE`` if all are above
    ``OCCUPANCY_THRESHOLD + CELL_MARGIN``, and ``CELL_UNDECIDED`` otherwise
    (as are the nodes on a last face, which are no cell's lower corner).
    Indexed like the depth-major value buffer, so a cell's class is
    ``table[base]`` for the ``base`` of :func:`_map_cells`.  Built one depth
    bin at a time: beyond the table its memory is O(w * h)
    (``test_center_blocks.py::test_cell_table_adds_at_most_a_byte_per_node``).

    Why a decided cell needs no interpolation: the opacity at any point of
    a cell is a convex combination of its corner opacities, so it lies
    between their min and max.  The offsets are exact and in [0, 1], so in
    exact arithmetic the eight weights are nonnegative and sum to 1; the
    float64 products and sums of :func:`grid_sample_opacity` round each
    of its about 20 operations by at most half an ulp of 1, so the computed
    opacity is within about 1e-15 of that combination, far inside
    ``CELL_MARGIN``.  So a voxel in a ``CELL_ABOVE`` cell samples above
    the threshold and one in a ``CELL_BELOW`` cell at or below it, exactly
    as :func:`grid_sample_opacity` would decide.  (With one depth bin no
    cell is decided, and every voxel is interpolated.)
    """
    w, h, n = omap.values.shape
    bins = omap.values.transpose(2, 0, 1)
    table = np.full((n, w, h), CELL_UNDECIDED, dtype=np.uint8)
    below = OCCUPANCY_THRESHOLD - CELL_MARGIN
    above = OCCUPANCY_THRESHOLD + CELL_MARGIN
    prev = None
    for i in range(n):
        img = bins[i]
        lo = np.minimum(img[:-1], img[1:])
        lo = np.minimum(lo[:, :-1], lo[:, 1:])
        hi = np.maximum(img[:-1], img[1:])
        hi = np.maximum(hi[:, :-1], hi[:, 1:])
        if prev is not None:
            cells = table[i - 1, :-1, :-1]
            cells[np.maximum(prev[1], hi) < below] = CELL_BELOW
            cells[np.minimum(prev[0], lo) > above] = CELL_ABOVE
        prev = lo, hi
    return table.reshape(-1)


# ---------------------------------------------------------------------------
# Voxelization protocols
# ---------------------------------------------------------------------------

def _front_tcs(centers_cam: np.ndarray, intr: CameraIntrinsics, fr: FrustumSpec):
    """Cube coordinates of the centers (m, 3) in front of the camera, and
    which centers those are (``slice(None)`` if all are: such a block is
    passed on as it is, with no row gather)."""
    front = centers_cam[:, 2] > 0
    if front.all():
        return slice(None), ccs_to_tcs(centers_cam, intr, fr)
    return front, ccs_to_tcs(np.compress(front, centers_cam, axis=0), intr, fr)


def voxelize_occupancy(omap: OpacityMap, grid: VoxelGrid, t_vc: Pose) -> VoxelGrid:
    """Opacity protocol: occupied iff the sampled opacity exceeds 0.5.

    Voxel centers are taken to the camera frame by ``t_vc``, then into the
    normalized cube; centers behind the camera are unoccupied (whether they
    count at all is the frustum mask's business).

    The result is that of :func:`grid_sample_opacity` thresholded at 0.5,
    bit for bit.  When the grid has at least one voxel per
    ``CELL_TABLE_NODES_PER_VOXEL`` map nodes, a :func:`cell_table` is built
    first: each voxel's cell is found as :func:`grid_sample_opacity` finds
    it, a voxel in a decided cell takes that cell's class, and only voxels
    in undecided cells are interpolated.  Smaller grids interpolate every
    voxel.  Either way a voxel reads the map only at its cell's eight
    corners (``test_center_blocks.py::test_voxelize_through_the_cell_table``).
    """
    table = None
    if CELL_TABLE_NODES_PER_VOXEL * grid.num_voxels >= omap.values.size:
        table = cell_table(omap)

    def occupied_in_front(tcs):
        if table is None:
            return grid_sample_opacity(omap, tcs) > OCCUPANCY_THRESHOLD
        base, frac = _map_cells(omap.values.shape, tcs)
        cls = table[base]
        occ = cls == CELL_ABOVE
        todo = np.flatnonzero(cls == CELL_UNDECIDED)
        occ[todo] = _interpolate(omap, base[todo], frac[:, todo]) > OCCUPANCY_THRESHOLD
        return occ

    def occupied(centers_cam):
        front, tcs = _front_tcs(centers_cam, omap.intrinsics, omap.frustum)
        occ_front = occupied_in_front(tcs)   # before the block's output exists
        occ = np.zeros(len(centers_cam), dtype=bool)
        occ[front] = occ_front
        return occ

    return grid.map_centers(occupied, t_vc)


def _batches(size: int):
    """Slices of ``range(size)`` of ``BLOCK_VOXELS`` each, the last shorter."""
    return (slice(k, min(k + BLOCK_VOXELS, size)) for k in range(0, size, BLOCK_VOXELS))


class _ReadPlan:
    """The part of :func:`voxelize_field` that does not depend on the field:
    which nodes of the opacity map of ``view`` and ``cfg`` the voxels of
    ``grid`` read, and how each voxel weighs them.

    - ``points`` (3, R) and ``delta`` (R,): the world point and interval
      length of each read node, in the map's depth-major order, formed as
      :func:`build_opacity_map` forms them.  The read nodes are the eight
      corners of each front voxel's cell, found as
      :func:`voxelize_occupancy` finds them.
    - ``front``: grid-shaped, True where the voxel center is in front of
      the camera.
    - ``ranks`` (4, F) int32: for each front voxel, in C order, the ranks
      in the read-node list of its cell's corners (du, di) = (0, 0),
      (0, 1), (1, 0), (1, 1) at dv = 0.  The dv = 1 corner of a read node
      is read too and is the next map node, so its rank is one more.
    - ``frac`` (3, F): each front voxel's offsets within its cell
      (:func:`_map_cells`).

    Held: 32 B per read node, 40 B per front voxel and 1 B per voxel.
    Nothing of a field is kept.
    """

    def __init__(self, view: CameraView, cfg: SamplingConfig, grid: VoxelGrid, t_vc: Pose):
        intr, fr = view.intrinsics, FrustumSpec(cfg.near, cfg.far)
        counts = (intr.width, intr.height, cfg.num_samples)
        image = intr.width * intr.height
        if image * cfg.num_samples > np.iinfo(np.int32).max:
            raise ValueError("a read plan indexes the map in int32: at most 2**31 - 1 nodes")
        dir_cols, t, delta = _eval_rays(view, cfg)
        self.front = np.zeros(grid.counts, dtype=bool)
        # ranks[0] holds each front voxel's lower corner, a flat map index,
        # until the read nodes are known.
        ranks = np.empty((4, grid.num_voxels), dtype=np.int32)
        frac = np.empty((3, grid.num_voxels))
        read = np.zeros((cfg.num_samples, intr.width, intr.height), dtype=bool)
        n = 0
        for xs, centers_cam in grid.center_blocks(t_vc):
            ahead, tcs = _front_tcs(centers_cam, intr, fr)
            self.front[xs].reshape(-1)[ahead] = True   # a run of x-slices is contiguous
            base, offsets = _map_cells(counts, tcs)
            read.reshape(-1)[base] = True
            ranks[0, n:n + len(base)] = base
            frac[:, n:n + len(base)] = offsets
            n += len(base)
        if n < grid.num_voxels:
            ranks, frac = ranks[:, :n].copy(), frac[:, :n].copy()
        self.ranks, self.frac = ranks, frac
        # Lower corners to whole cells.  _map_cells keeps each lower corner
        # one node short of the last on every axis, so no corner leaves the map.
        read[1:] |= read[:-1]
        read[:, 1:] |= read[:, :-1]
        read[:, :, 1:] |= read[:, :, :-1]
        read = read.reshape(-1)
        rank = read.astype(np.int32)    # then, in place, one more than a read node's rank
        np.cumsum(rank, out=rank)       # (a cast in the cumsum would copy the map twice)
        for batch in _batches(n):
            base = self.ranks[0, batch]
            # (du, di) = (1, 1), (1, 0), (0, 1), then (0, 0) over the base
            for row, offset in zip(self.ranks[::-1, batch], (intr.height + image,
                                                             intr.height, image, 0)):
                np.subtract(rank[base + offset], 1, out=row)
        del rank
        nodes = np.flatnonzero(read)
        del read
        self.points = np.empty((3, len(nodes)))
        self.delta = np.empty(len(nodes))
        for batch in _batches(len(nodes)):
            i, pix = np.divmod(nodes[batch], image)
            pts = self.points[:, batch]
            np.multiply(dir_cols[:, pix], t[i], out=pts)   # t * d[a] + o[a], as the map's
            pts += view.position[:, None]
            self.delta[batch] = delta[i]

    def occupancy(self, density_field) -> np.ndarray:
        """The prediction's values: the read nodes' opacities, then each
        front voxel's trilinear sample of them, in :func:`_interpolate`'s
        corner order, thresholded.  Both run in batches of ``BLOCK_VOXELS``,
        so memory beyond the plan, the opacities and the output is
        O(``BLOCK_VOXELS``)."""
        density = _density_lookup(density_field)
        alpha = np.empty(len(self.delta))
        for batch in _batches(len(alpha)):
            alpha[batch] = opacity(density(self.points[:, batch].T), self.delta[batch])
        occ_front = np.empty(self.frac.shape[1], dtype=bool)
        for batch in _batches(len(occ_front)):
            sampled = np.zeros(batch.stop - batch.start)
            # With base 0 and strides (2, 4, 1) each corner's index is
            # 2 du + 4 dv + di: its row of ``ranks``, plus 4 if it is one rank on.
            for corner, wgt in trilinear_corners(0, self.frac[:, batch], (2, 4, 1)):
                ranks = self.ranks[corner & 3, batch]
                wgt *= alpha[ranks + 1 if corner & 4 else ranks]
                sampled += wgt
                del ranks, wgt      # before the generator makes the next corner
            occ_front[batch] = sampled > OCCUPANCY_THRESHOLD
        occ = np.zeros(self.front.shape, dtype=bool)
        occ[self.front] = occ_front
        return occ


def voxelize_field(density_field, view: CameraView, cfg: SamplingConfig,
                   grid: VoxelGrid, t_vc: Pose) -> VoxelGrid:
    """``voxelize_occupancy(build_opacity_map(density_field, view, cfg), grid,
    t_vc)``, bit for bit, computing only the map nodes the voxels read: a
    :class:`_ReadPlan` of the view, scored for the field.

    No map and no cell table is built: every front voxel is interpolated
    over the read nodes' opacities, which the cell table's proof shows is
    what the table decides.  A NaN or negative density at an unread node is
    never seen; at a read node it raises as in :func:`build_opacity_map`.
    """
    return grid.like(_ReadPlan(view, cfg, grid, t_vc).occupancy(density_field))


def conventional_voxelize(density_field, grid: VoxelGrid, t_vc: Pose) -> VoxelGrid:
    """Baseline protocol: occupied iff raw density at the camera-frame center exceeds 0.5."""
    density = _density_lookup(density_field)

    def occupied(centers_cam):
        sigma = np.asarray(density(centers_cam))
        return (centers_cam[:, 2] > 0) & (sigma > OCCUPANCY_THRESHOLD)

    return grid.map_centers(occupied, t_vc)


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------

def frustum_mask(grid: VoxelGrid, t_vc: Pose, intr: CameraIntrinsics) -> VoxelGrid:
    """True iff the voxel center projects inside the image with depth > 0.

    The positive-depth requirement is an addition over the pure image-bounds
    test: projection of behind-camera points is geometrically meaningless.
    """
    return grid.map_centers(lambda centers_cam: in_image(intr, *project(intr, centers_cam)),
                            t_vc)


def visibility_mask(gt: VoxelGrid, view: CameraView, t_vc: Pose) -> VoxelGrid:
    """Ray-traced visibility against ground-truth occupancy.

    One ray per image pixel, marched from the near bound (or the grid entry
    point, whichever is farther) to the grid exit in steps of the smallest
    voxel edge.  A sample is visible iff it and all preceding samples on its
    ray fall in unoccupied voxels; a voxel is visible iff any visible sample
    lands in it.  Voxels never sampled default to invisible, and the result
    is clipped to the frustum mask so m_v = 1 implies m_f = 1 (rays can clip
    voxels whose centers project just outside the image).  All live rays
    advance one step per pass, so memory is O(pixels) plus a few boolean
    voxel grids, independent of the march length.  A ray leaves the pass
    set once its march ends or its first occupied sample is taken, since
    nothing after that changes the mask: the work is O(samples up to each
    ray's first occupied voxel) (``test_benchmark.py::TestRayRetirement``,
    ``TestVisibilityMask::test_peak_memory_independent_of_march_length``).
    """
    if gt.values.dtype != bool:
        raise ValueError("visibility mask needs a boolean ground-truth grid")
    step = float(np.min(gt.resolution))
    intr = view.intrinsics
    cam_to_voxel = t_vc.inverse()
    origin_v = cam_to_voxel.translation
    dirs_cam = pixel_directions(intr, all_pixel_coords(intr).reshape(-1, 2))
    dirs_v = cam_to_voxel.rotate(dirs_cam)

    te, tx = slab_intervals(gt.origin, gt.max_corner, origin_v, dirs_v)
    start = np.maximum(view.frustum.near, te)
    span = tx - start
    num_steps = np.where(span >= 0, np.floor(span / step) + 1, 0).astype(np.int64)

    visible_flat = np.zeros(gt.num_voxels, dtype=bool)
    occ_flat = gt.values.reshape(-1)
    # Per-ray state of the rays still marching, compacted as rays retire.
    live = num_steps > 0
    start, dirs_v, num_steps = start[live], dirs_v[live], num_steps[live]
    clear = np.ones(len(dirs_v), dtype=bool)
    k = 0
    while len(dirs_v):
        dist = start + k * step
        pts = np.empty(dirs_v.shape)
        for a in range(3):   # per column, as origin_v + dist[:, None] * dirs_v
            np.multiply(dist, dirs_v[:, a], out=pts[:, a])
            pts[:, a] += origin_v[a]
        idx, valid = gt.point_to_index(pts)
        flat = (idx[:, 0] * gt.counts[1] + idx[:, 1]) * gt.counts[2] + idx[:, 2]
        clear &= ~(valid & occ_flat[flat])
        visible_flat[flat[valid & clear]] = True
        k += 1
        keep = (k < num_steps) & clear
        if not keep.all():
            start, dirs_v, num_steps, clear = (start[keep], dirs_v[keep],
                                               num_steps[keep], clear[keep])
    visible_flat &= frustum_mask(gt, t_vc, intr).values.reshape(-1)
    return gt.like(visible_flat.reshape(gt.counts))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# The keys of ``MetricsReport.counts``, in the order they are emitted.
COUNT_NAMES = ("frustum_tp", "frustum_fp", "frustum_fn", "frustum_tn",
               "invisible_empty_tp", "invisible_empty_fp", "invisible_empty_fn",
               "invisible_empty_tn", "frustum_total", "invisible_total")


@dataclass(frozen=True)
class MetricsReport:
    """The six occupancy metrics plus the unified IoU/Pre/Rec triple.

    O_* metrics range over the frustum with occupied as the positive class;
    IE_* metrics range over the invisible part of the frustum with EMPTY as
    the positive class, so their tp, fp, fn and tn are the occupied table's
    tn, fn, fp and tp there.  IoU/Pre/Rec repeat the frustum-restricted
    occupied counts in the form supervised benchmarks use; Pre/Rec are
    O_Pre/O_Rec under those names, derived rather than stored.  Metrics
    with an empty denominator are None and listed in ``undefined``.
    ``counts`` holds the two tables under ``COUNT_NAMES``.
    """

    o_acc: float | None
    o_pre: float | None
    o_rec: float | None
    ie_acc: float | None
    ie_pre: float | None
    ie_rec: float | None
    iou: float | None
    counts: dict

    METRIC_NAMES = ("o_acc", "o_pre", "o_rec", "ie_acc", "ie_pre", "ie_rec",
                    "iou", "precision", "recall")

    @property
    def precision(self) -> float | None:
        return self.o_pre

    @property
    def recall(self) -> float | None:
        return self.o_rec

    @property
    def undefined(self) -> tuple:
        return tuple(n for n in self.METRIC_NAMES if getattr(self, n) is None)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def _scores(tp: int, fp: int, fn: int, tn: int) -> tuple:
    """Accuracy, precision and recall of one confusion table."""
    return _ratio(tp + tn, tp + fp + fn + tn), _ratio(tp, tp + fp), _ratio(tp, tp + fn)


def compute_metrics(pred: VoxelGrid, gt: VoxelGrid, frustum: VoxelGrid,
                    visible: VoxelGrid) -> MetricsReport:
    """Exact count-ratio metrics from four same-geometry boolean grids.

    One rule counts a region's (tp, fp, fn, tn), occupied positive: over
    the frustum for O_*, and reversed over its invisible part for IE_*.
    With one boolean temporary at a time, at most three grids are held above
    the inputs (``test_benchmark.py::TestMetrics::test_peak_memory_is_three_boolean_grids``).
    """
    for name, g in (("pred", pred), ("gt", gt), ("frustum", frustum), ("visible", visible)):
        if not pred.same_geometry(g):
            raise ValueError(f"{name} grid geometry differs from the prediction grid")
        if g.values.dtype != bool:
            raise ValueError(f"metrics require boolean grids; {name} is {g.values.dtype}")

    p = pred.values.reshape(-1)
    g = gt.values.reshape(-1)
    mf = frustum.values.reshape(-1)

    def confusion(region) -> tuple:
        positive = p & region
        tp = int(np.count_nonzero(positive & g))
        fp = int(np.count_nonzero(positive)) - tp
        del positive
        fn = int(np.count_nonzero(g & region)) - tp
        return tp, fp, fn, int(np.count_nonzero(region)) - tp - fp - fn

    o = confusion(mf)
    ie = confusion(mf & ~visible.values.reshape(-1))[::-1]   # empty as the positive class
    tp, fp, fn, _ = o
    return MetricsReport(*_scores(*o), *_scores(*ie), iou=_ratio(tp, tp + fp + fn),
                         counts=dict(zip(COUNT_NAMES, (*o, *ie, sum(o), sum(ie)))))
