"""The reformulated occupancy evaluation protocol.

Pipeline: render per-pixel opacities with eval-mode sampling, treat them as
a dense map over the normalized frustum cube (pixel axes scaled by
1/(w-1), 1/(h-1); depth node i at z = i/N, which is exact for eval-mode
inverse-depth sampling), then voxelize by transforming each voxel center
into the cube, trilinearly sampling the map with border padding, and
thresholding at 0.5.  On a grid with about as many voxels as the map has
nodes, a one-byte-per-node table first marks the map cells whose eight
corners all lie clear of 0.5 on one side; a voxel in such a cell takes that
side without interpolation, and only voxels in the cells that straddle 0.5
are sampled, with the same result bit for bit.  The conventional protocol -
thresholding raw density at voxel centers - is kept for comparison.

Masks: the frustum mask keeps voxels whose centers project inside the image
with positive depth; the visibility mask marches one ray per pixel at
voxel-size steps through the ground-truth grid and keeps voxels reached
before the first occupied sample.  A ray retires at its first occupied
sample, so the march does O(samples up to each ray's first occupied voxel)
work, not O(rays x the longest march).  Metrics are exact count ratios.

Both image-sized stages take one depth bin or march step per pass for all
rays at once, so beyond the (w, h, N) map their memory is O(pixels +
voxels), independent of the march length and the sample count.  Arrays
are stored in the order they are read: the opacity map depth bin by depth
bin (a bin is written at once, and a block of voxels reads a few bins of
every pixel), voxel centers one coordinate at a time.  The stages
that visit every voxel center (both voxelizations and the frustum mask,
hence the visibility mask's clip) take one block of whole x-slices at a
time (``grids.BLOCK_VOXELS`` voxels at most), so beyond the boolean grid
they write their memory is O(block), not O(voxels); the opacity
voxelization adds its cell table, one byte per map node, built one depth
bin at a time.

Both stages that look density up (the map build, one call per depth bin,
and the conventional voxelization, one per center block) take softplus of
a ``VoxelDensityField``'s parameters once per call and reuse it for every
batch (``node_density``/``density_from``); any other density source is
asked through ``density_at``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import Box, VoxelDensityField, trilinear_corners
from .geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose, ccs_to_tcs, \
    all_pixel_coords, in_image, pixel_directions, project
from .grids import VoxelGrid
from .rendering import MODE_EVAL, SamplingConfig, interval_lengths, opacity, \
    sample_distances

OCCUPANCY_THRESHOLD = 0.5


def _density_lookup(density_field):
    """``points -> sigma`` for one stage's batches of points.

    A ``VoxelDensityField``'s node densities are taken here, once, so the
    lookup must not outlive the stage: training updates ``theta`` in place.
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

    @property
    def num_samples(self) -> int:
        return self.values.shape[2]

    @property
    def node_strides(self) -> tuple:
        """Element strides of the depth-major buffer along (u, v, i)."""
        w, h, _ = self.values.shape
        return (h, 1, w * h)


def build_opacity_map(density_field, view: CameraView,
                      cfg: SamplingConfig) -> OpacityMap:
    """One eval-mode ray per pixel; N opacities per ray, filled one depth
    bin at a time into the depth-major map (memory beyond the map is
    O(pixels), independent of N)."""
    if cfg.mode != MODE_EVAL:
        raise ValueError("opacity maps must be built with eval-mode sampling")
    intr = view.intrinsics
    pixels = all_pixel_coords(intr).reshape(-1, 2)
    origins, dirs = view.world_rays(pixels)
    t = sample_distances(cfg)
    delta = interval_lengths(t, cfg.far)
    density = _density_lookup(density_field)
    alpha = np.empty((cfg.num_samples, len(pixels)))
    for i in range(cfg.num_samples):
        alpha[i] = opacity(density(origins + t[i] * dirs), delta[i])
    values = alpha.reshape(cfg.num_samples, intr.width, intr.height).transpose(1, 2, 0)
    return OpacityMap(values, intr, FrustumSpec(cfg.near, cfg.far))


def _map_cells(omap: OpacityMap, pts: np.ndarray):
    """The opacity-map cell of each cube point (..., 3): the flat node index
    of its lower corner, and its offset (3, ...) within the cell.

    Coordinates are scaled to node indices (u*(w-1), v*(h-1), z*N) and
    clamped to the node range, which implements border padding; a point
    clamped to the last node of an axis sits at offset 1 in the last cell.
    """
    w, h, n = counts = omap.values.shape
    scale = (w - 1.0, h - 1.0, float(n))
    base = np.zeros(pts.shape[:-1], dtype=np.int64)
    frac = np.empty((3,) + pts.shape[:-1])
    for a in range(3):
        idx = np.clip(pts[..., a] * scale[a], 0.0, counts[a] - 1.0)
        # idx >= 0, so its floor needs only the upper clip; kept as a float
        # until the subtraction is done, which then needs no conversion
        lo = np.minimum(np.floor(idx), counts[a] - 2.0)
        np.subtract(idx, lo, out=frac[a, ...])
        base += lo.astype(np.int64) * omap.node_strides[a]
    return base, frac


def _interpolate(omap: OpacityMap, base, frac) -> np.ndarray:
    """Trilinear opacity at located points (see :func:`_map_cells`)."""
    values = omap.values.transpose(2, 0, 1).reshape(-1)
    out = np.zeros(frac.shape[1:])
    for flat, wgt in trilinear_corners(base, frac, omap.node_strides):
        wgt *= values[flat]
        out += wgt
    return out


def grid_sample_opacity(omap: OpacityMap, points_tcs: np.ndarray) -> np.ndarray:
    """Trilinear sample of the opacity map at cube coordinates (..., 3),
    with border padding."""
    return _interpolate(omap, *_map_cells(omap, np.asarray(points_tcs, dtype=np.float64)))


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
    bin at a time: beyond the table its memory is O(w * h).

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

def voxelize_occupancy(omap: OpacityMap, grid: VoxelGrid, t_vc: Pose) -> VoxelGrid:
    """Opacity protocol: occupied iff the sampled opacity exceeds 0.5.

    Voxel centers are taken to the camera frame by ``t_vc``, then into the
    normalized cube; centers behind the camera are unoccupied (whether they
    count at all is the frustum mask's business).  A block wholly in front
    of the camera is passed on as it is, with no row gather.

    The result is that of :func:`grid_sample_opacity` thresholded at 0.5,
    bit for bit.  When the grid has at least one voxel per
    ``CELL_TABLE_NODES_PER_VOXEL`` map nodes, a :func:`cell_table` is built
    first: each voxel's cell is found as :func:`grid_sample_opacity` finds
    it, a voxel in a decided cell takes that cell's class, and only voxels
    in undecided cells are interpolated.  Smaller grids interpolate every
    voxel.
    """
    table = None
    if CELL_TABLE_NODES_PER_VOXEL * grid.num_voxels >= omap.values.size:
        table = cell_table(omap)

    def occupied_in_front(tcs):
        if table is None:
            return grid_sample_opacity(omap, tcs) > OCCUPANCY_THRESHOLD
        base, frac = _map_cells(omap, tcs)
        cls = table[base]
        occ = cls == CELL_ABOVE
        todo = np.flatnonzero(cls == CELL_UNDECIDED)
        occ[todo] = _interpolate(omap, base[todo], frac[:, todo]) > OCCUPANCY_THRESHOLD
        return occ

    def occupied(centers_cam):
        front = centers_cam[:, 2] > 0
        if front.all():
            return occupied_in_front(ccs_to_tcs(centers_cam, omap.intrinsics, omap.frustum))
        occ = np.zeros(len(centers_cam), dtype=bool)
        if front.any():
            cam = np.compress(front, centers_cam, axis=0)
            occ[front] = occupied_in_front(ccs_to_tcs(cam, omap.intrinsics, omap.frustum))
        return occ

    return grid.map_centers(occupied, t_vc)


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


def visibility_mask(gt: VoxelGrid, view: CameraView, t_vc: Pose,
                    step: float | None = None, return_coverage: bool = False):
    """Ray-traced visibility against ground-truth occupancy.

    One ray per image pixel, marched from the near bound (or the grid entry
    point, whichever is farther) to the grid exit at voxel-size steps
    (``step``, default the smallest voxel edge, must be finite and
    positive).  A sample is visible iff it and all preceding samples on its
    ray fall in unoccupied voxels; a voxel is visible iff any visible sample
    lands in it.  Voxels never sampled default to invisible, and the result
    is clipped to the frustum mask so m_v = 1 implies m_f = 1 (rays can clip
    voxels whose centers project just outside the image).  All live rays
    advance one step per pass, so memory is O(pixels) plus a few boolean
    voxel grids, independent of the march length.  A ray leaves the pass
    set once its march ends or its first occupied sample is taken, since
    nothing after that changes the mask: the work is O(samples up to each
    ray's first occupied voxel).

    With ``return_coverage`` the raw set of voxels receiving at least one
    sample is returned alongside (diagnostic for oracle comparisons); rays
    then march to their end, and the work is O(samples inside the grid
    interval of each ray).
    """
    if gt.values.dtype != bool:
        raise ValueError("visibility mask needs a boolean ground-truth grid")
    if step is None:
        step = float(np.min(gt.resolution))
    elif not 0.0 < step < np.inf:
        raise ValueError(f"step {step}: must be finite and positive")
    intr = view.intrinsics
    cam_to_voxel = t_vc.inverse()
    origin_v = cam_to_voxel.translation
    dirs_cam = pixel_directions(intr, all_pixel_coords(intr).reshape(-1, 2))
    dirs_v = cam_to_voxel.rotate(dirs_cam)

    bounds = Box(gt.origin, gt.max_corner, 0.0, (0, 0, 0))
    te, tx = bounds.ray_intervals(origin_v, dirs_v)
    start = np.maximum(view.frustum.near, te)
    span = tx - start
    num_steps = np.where(span >= 0, np.floor(span / step) + 1, 0).astype(np.int64)

    visible_flat = np.zeros(gt.num_voxels, dtype=bool)
    covered_flat = np.zeros(gt.num_voxels, dtype=bool) if return_coverage else None
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
        if return_coverage:
            covered_flat[flat[valid]] = True
        k += 1
        # A blocked ray can change nothing but the coverage.
        keep = k < num_steps if return_coverage else (k < num_steps) & clear
        if not keep.all():
            start, dirs_v, num_steps, clear = (start[keep], dirs_v[keep],
                                               num_steps[keep], clear[keep])
    visible_flat &= frustum_mask(gt, t_vc, intr).values.reshape(-1)
    visible = gt.like(visible_flat.reshape(gt.counts))
    if return_coverage:
        return visible, gt.like(covered_flat.reshape(gt.counts))
    return visible


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsReport:
    """The six occupancy metrics plus the unified IoU/Pre/Rec triple.

    O_* metrics range over the frustum with occupied as the positive class;
    IE_* metrics range over the invisible part of the frustum with EMPTY as
    the positive class.  IoU/Pre/Rec repeat the frustum-restricted occupied
    counts in the form supervised benchmarks use; Pre/Rec are O_Pre/O_Rec
    under those names, derived rather than stored.  Metrics with an empty
    denominator are None and listed in ``undefined``.
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


def compute_metrics(pred: VoxelGrid, gt: VoxelGrid, frustum: VoxelGrid,
                    visible: VoxelGrid) -> MetricsReport:
    """Exact count-ratio metrics from four same-geometry boolean grids."""
    for name, g in (("gt", gt), ("frustum", frustum), ("visible", visible)):
        if not pred.same_geometry(g):
            raise ValueError(f"{name} grid geometry differs from the prediction grid")
        if g.values.dtype != bool or pred.values.dtype != bool:
            raise ValueError("metrics require boolean grids")

    p = pred.values.reshape(-1)
    g = gt.values.reshape(-1)
    mf = frustum.values.reshape(-1)
    inv = ~visible.values.reshape(-1) & mf

    tp = int(np.sum(p & g & mf))
    fp = int(np.sum(p & ~g & mf))
    fn = int(np.sum(~p & g & mf))
    tn = int(np.sum(~p & ~g & mf))

    # Invisible region, empty as the positive class.
    e_tp = int(np.sum(~p & ~g & inv))
    e_fp = int(np.sum(~p & g & inv))
    e_fn = int(np.sum(p & ~g & inv))
    e_tn = int(np.sum(p & g & inv))

    counts = {"frustum_tp": tp, "frustum_fp": fp, "frustum_fn": fn, "frustum_tn": tn,
              "invisible_empty_tp": e_tp, "invisible_empty_fp": e_fp,
              "invisible_empty_fn": e_fn, "invisible_empty_tn": e_tn,
              "frustum_total": tp + fp + fn + tn,
              "invisible_total": e_tp + e_fp + e_fn + e_tn}

    return MetricsReport(
        o_acc=_ratio(tp + tn, tp + fp + fn + tn),
        o_pre=_ratio(tp, tp + fp),
        o_rec=_ratio(tp, tp + fn),
        ie_acc=_ratio(e_tp + e_tn, e_tp + e_fp + e_fn + e_tn),
        ie_pre=_ratio(e_tp, e_tp + e_fp),
        ie_rec=_ratio(e_tp, e_tp + e_fn),
        iou=_ratio(tp, tp + fp + fn),
        counts=counts,
    )


# ---------------------------------------------------------------------------
# View-overlap diagnostic
# ---------------------------------------------------------------------------

def view_overlap_ratio(target: CameraView, sources, grid: VoxelGrid,
                       grid_to_world: Pose | None = None) -> float:
    """Fraction of target-frustum voxel centers visible from any source.

    A center is in the target frustum if it projects inside the target
    image with positive depth and its radial distance lies within the
    target's near/far bounds; it counts as covered if it projects inside at
    least one source image with positive depth.  Low values diagnose rigs
    whose multi-view supervision cannot constrain the frustum.
    """
    centers = grid.centers_flat()
    if grid_to_world is not None:
        centers = grid_to_world.apply(centers)
    cam = target.pose.inverse().apply(centers)
    u, v, z = project(target.intrinsics, cam)
    dist = np.linalg.norm(cam, axis=-1)
    in_target = (in_image(target.intrinsics, u, v, z)
                 & (dist >= target.frustum.near) & (dist <= target.frustum.far))
    n_target = int(np.sum(in_target))
    if n_target == 0:
        raise ValueError("no voxel centers fall inside the target frustum")
    pts = centers[in_target]
    covered = np.zeros(len(pts), dtype=bool)
    for src in sources:
        cam_s = src.pose.inverse().apply(pts)
        covered |= in_image(src.intrinsics, *project(src.intrinsics, cam_s))
    return float(np.sum(covered)) / n_target
