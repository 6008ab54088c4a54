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
time (``test_center_blocks.py``), except the frustum mask: it decides
whole sub-blocks of voxels from an affine bound on their box of centers,
and visits only the centers of the sub-blocks that the image border or
the z = 0 plane may cross (:func:`frustum_mask`).  Both ways give each
voxel the bits of the all-at-once formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import VoxelDensityField, slab_intervals, trilinear_corners
from .geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose, Workspace, \
    ccs_to_tcs, all_pixel_coords, in_image, pixel_directions, project
from .grids import VoxelGrid, batches
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


def _map_cells(counts, pts: np.ndarray, ws: Workspace | None = None):
    """The cell of each cube point (..., 3) in an opacity map of (w, h, n)
    ``counts`` nodes: the flat node index of its lower corner, taken from
    ``ws``, and its offset (3, ...) within the cell, which is ``pts``
    overwritten in place, one row per axis.

    Coordinates are scaled to node indices (u*(w-1), v*(h-1), z*N) and
    clamped to the node range, which implements border padding; a point
    clamped to the last node of an axis sits at offset 1 in the last cell.
    """
    w, h, n = counts
    scale = (w - 1.0, h - 1.0, float(n))
    strides = _node_strides(counts)
    ws = Workspace() if ws is None else ws
    # the flat index as a float: a sum of whole multiples of the strides,
    # exact below 2**53, converted once
    flat, lo = ws.take(pts.shape[:-1]), ws.take(pts.shape[:-1])
    for a in range(3):
        idx = np.multiply(pts[..., a], scale[a], out=pts[..., a])
        np.clip(idx, 0.0, counts[a] - 1.0, out=idx)
        # idx >= 0, so its floor needs only the upper clip; kept as a float
        # until the subtraction is done, which then needs no conversion
        np.minimum(np.floor(idx, out=lo), counts[a] - 2.0, out=lo)
        idx -= lo
        if a == 0:
            np.multiply(lo, strides[a], out=flat)
        else:
            lo *= strides[a]
            flat += lo
    base = ws.take(pts.shape[:-1], np.int64)
    np.copyto(base, flat, casting="unsafe")
    return base, np.moveaxis(pts, -1, 0)


def _interpolate(omap: OpacityMap, base, frac) -> np.ndarray:
    """Trilinear opacity at located points (see :func:`_map_cells`)."""
    values = omap.values.transpose(2, 0, 1).reshape(-1)
    out = np.zeros(frac.shape[1:])
    for offset, wgt in trilinear_corners(frac, _node_strides(omap.values.shape)):
        wgt *= values[offset:].take(base)
        out += wgt
    return out


def grid_sample_opacity(omap: OpacityMap, points_tcs: np.ndarray) -> np.ndarray:
    """Trilinear sample of the opacity map at cube coordinates (..., 3),
    with border padding."""
    pts = np.array(points_tcs, dtype=np.float64)   # _map_cells overwrites it
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
    # Every bin's images are written into these: a half-reduced image, the
    # (min, max) pairs of this bin and the last, a bound and its mask.
    pair = np.empty((w - 1, h))
    extremes = [(np.empty((w - 1, h - 1)), np.empty((w - 1, h - 1))) for _ in range(2)]
    bound, mask = np.empty((w - 1, h - 1)), np.empty((w - 1, h - 1), dtype=bool)
    for i in range(n):
        img = bins[i]
        lo, hi = extremes[i % 2]
        np.minimum(img[:-1], img[1:], out=pair)
        np.minimum(pair[:, :-1], pair[:, 1:], out=lo)
        np.maximum(img[:-1], img[1:], out=pair)
        np.maximum(pair[:, :-1], pair[:, 1:], out=hi)
        if i:
            prev_lo, prev_hi = extremes[(i - 1) % 2]
            cells = table[i - 1, :-1, :-1]
            np.less(np.maximum(prev_hi, hi, out=bound), below, out=mask)
            np.copyto(cells, CELL_BELOW, where=mask)
            np.greater(np.minimum(prev_lo, lo, out=bound), above, out=mask)
            np.copyto(cells, CELL_ABOVE, where=mask)
    return table.reshape(-1)


# ---------------------------------------------------------------------------
# Voxelization protocols
# ---------------------------------------------------------------------------

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
    A block's cube points, cells and classes are written into the buffers
    of one ``Workspace``, which every block reuses.
    """
    table = None
    if CELL_TABLE_NODES_PER_VOXEL * grid.num_voxels >= omap.values.size:
        table = cell_table(omap)
    ws = Workspace()

    def occupied(centers_cam):
        with ws:
            m = len(centers_cam)
            front = np.greater(centers_cam[:, 2], 0, out=ws.take(m, bool))
            k = int(np.count_nonzero(front))
            if k < m:   # the centers in front, column by column
                pts = ws.take((3, k))
                for a in range(3):
                    np.compress(front, centers_cam[:, a], out=pts[a])
                centers_cam = pts.T
            tcs = ccs_to_tcs(centers_cam, omap.intrinsics, omap.frustum, out=ws.take((3, k)))
            base, frac = _map_cells(omap.values.shape, tcs, ws)
            if table is None:
                occ = _interpolate(omap, base, frac) > OCCUPANCY_THRESHOLD
            else:
                cls = table.take(base, out=ws.take(k, np.uint8))
                occ = cls == CELL_ABOVE
                todo = np.flatnonzero(cls == CELL_UNDECIDED)
                occ[todo] = _interpolate(omap, base[todo], frac[:, todo]) > OCCUPANCY_THRESHOLD
            if k < m:
                occ_front, occ = occ, np.zeros(m, dtype=bool)
                occ[front] = occ_front
            return occ

    return grid.map_centers(occupied, t_vc)


# Map nodes per block of a read plan's rank count: a block's count of read
# nodes must fit the mask's byte.
RANK_SHIFT = 7
RANK_BLOCK = 1 << RANK_SHIFT


class _ReadPlan:
    """The part of the opacity protocol's voxelization that does not depend
    on the field, over the voxels of a ``frustum`` mask alone: which nodes
    of the opacity map of ``view`` and ``cfg`` they read, and how each of
    them weighs those nodes.

    - ``pix`` (R,) int32: the pixel of each read node, in the map's
      depth-major order, so the nodes of depth bin i are the run
      ``starts[i]:starts[i + 1]``; ``t`` and ``delta`` hold each bin's
      depth and interval length.  A node's world point is formed as
      :func:`build_opacity_map` forms it, from ``dir_cols`` and
      ``origin``.  The read nodes are the eight corners of each frustum
      voxel's cell, found as :func:`voxelize_occupancy` finds them.
    - ``frustum``: the mask's values, the voxels the plan scores.
    - ``ranks`` (4, F) int32: for each frustum voxel, in C order, the ranks
      in the read-node list of its cell's corners (du, di) = (0, 0),
      (0, 1), (1, 0), (1, 1) at dv = 0.  The dv = 1 corner of a read node
      is read too and is the next map node, so its rank is one more.
    - ``frac`` (3, F): each frustum voxel's offsets within its cell
      (:func:`_map_cells`).
    - ``located``: the key of the last ``VoxelDensityField`` lattice
      scored and the read nodes located in it (:meth:`_located`).

    Held: 5 B per read node (its pixel and whether it is in the last
    lattice's hull), 32 B more per one in that hull, 40 B per frustum
    voxel, 24 B per pixel and per depth bin; the mask is the caller's.
    Nothing of ``theta`` is kept
    (``test_voxelize_field.py::test_a_call_leaves_three_grids_allocated``).

    A build takes no array a map node wider than the read mask's byte: the
    mask counts its read nodes in place per ``RANK_BLOCK`` nodes, giving
    an int32 cumsum's ranks bit for bit
    (``test_voxelize_field.py::test_ranks_equal_the_cumsum_ranks``).
    Beyond what stays held, a build holds the mask and 8 B per read node,
    and a score at most 56 B per read node and per frustum voxel
    (``test_voxelize_field.py::test_a_cold_call_peaks_at_a_byte_a_map_node``).
    """

    def __init__(self, view: CameraView, cfg: SamplingConfig, frustum: VoxelGrid, t_vc: Pose):
        intr, fr = view.intrinsics, FrustumSpec(cfg.near, cfg.far)
        counts = (intr.width, intr.height, cfg.num_samples)
        image = intr.width * intr.height
        if image * cfg.num_samples > np.iinfo(np.int32).max:
            raise ValueError("a read plan indexes the map in int32: at most 2**31 - 1 nodes")
        self.dir_cols, self.t, self.delta = _eval_rays(view, cfg)
        self.origin = np.array(view.position)
        self.frustum = frustum.values
        self.located = None
        m = int(np.count_nonzero(self.frustum))
        # ranks[0] holds each frustum voxel's lower corner, a flat map
        # index, until the read nodes are known.
        self.ranks = np.empty((4, m), dtype=np.int32)
        self.frac = np.empty((3, m))
        # The read mask, one byte a map node, rounded up to whole rank blocks.
        size = image * cfg.num_samples
        mask = np.zeros(-(-size // RANK_BLOCK) * RANK_BLOCK, dtype=bool)
        read = mask[:size].reshape(cfg.num_samples, intr.width, intr.height)
        n, ws = 0, Workspace()
        for xs, centers_cam in frustum.center_blocks(t_vc):
            # every frustum center has z > 0 (geometry.in_image)
            inside = self.frustum[xs].reshape(-1)   # a run of x-slices is contiguous
            k = int(np.count_nonzero(inside))
            with ws:
                pts = ws.take((3, k))
                for a in range(3):
                    np.compress(inside, centers_cam[:, a], out=pts[a])
                # the cube points are written where their offsets are kept
                tcs = ccs_to_tcs(pts.T, intr, fr, out=self.frac[:, n:n + k])
                base, _ = _map_cells(counts, tcs, ws)
                read.reshape(-1)[base] = True
                self.ranks[0, n:n + k] = base
            n += k
        # Lower corners to whole cells.  _map_cells keeps each lower corner
        # one node short of the last on every axis, so no corner leaves the map.
        # One image at a time: numpy copies an operand that overlaps the
        # output, and so copies one image, not the mask.
        for img in read:
            img[1:] |= img[:-1]
            img[:, 1:] |= img[:, :-1]
        for i in range(cfg.num_samples - 1, 0, -1):     # bin i - 1 is not dilated yet
            read[i] |= read[i - 1]
        nodes = np.flatnonzero(read)
        self.starts = np.searchsorted(nodes, image * np.arange(cfg.num_samples + 1))
        self.pix = np.remainder(nodes, image, out=nodes).astype(np.int32)
        del nodes, read
        # A read node's rank is the read nodes before its block, plus those
        # up to it in the block, less one: ``before`` holds the first and the
        # -1, and the mask's own bytes, counted in place, the second (a
        # block holds at most RANK_BLOCK < 256 of them).
        local = mask.view(np.uint8).reshape(-1, RANK_BLOCK)
        np.cumsum(local, axis=1, dtype=np.uint8, out=local)
        before = np.empty(len(local), dtype=np.int32)
        before[0] = 0
        np.cumsum(local[:-1, -1], dtype=np.int32, out=before[1:])
        before -= 1
        local = local.reshape(-1)
        for batch in batches(m):
            base = self.ranks[0, batch].astype(np.intp)     # take needs no cast then
            # (du, di) = (1, 1), (1, 0), (0, 1), then (0, 0) over the base;
            # every corner is a read node (the dilation marks it)
            for row, offset in zip(self.ranks[::-1, batch], (intr.height + image,
                                                             intr.height, image, 0)):
                corner = base + offset
                np.add(before.take(corner >> RANK_SHIFT), local.take(corner), out=row)
        del local, mask

    def _per_node(self, values: np.ndarray, batch: slice) -> np.ndarray:
        """``values`` (one per depth bin) at each read node of ``batch``."""
        return np.repeat(values, np.diff(np.clip(self.starts, batch.start, batch.stop)))

    def _points(self, batch: slice) -> np.ndarray:
        """The world points (3, B) of the read nodes of ``batch``: t * d[a] + o[a],
        as the map's."""
        pts = self.dir_cols[:, self.pix[batch]]
        pts *= self._per_node(self.t, batch)
        return np.add(pts, self.origin[:, None], out=pts)

    def _located(self, fld: VoxelDensityField) -> list:
        """The read nodes located in ``fld``'s lattice, one
        :class:`~.field.Located` per batch: the kept ones if the lattice's
        key, its origin and resolution bytes and ``theta``'s shape, is the
        last one's, else placed afresh from their points, which the plan
        forms for the purpose and so scales in place."""
        key = fld.origin.tobytes(), fld.resolution.tobytes(), fld.shape
        if self.located is None or self.located[0] != key:
            self.located = None     # the last lattice's go before these are made
            located = []
            for batch in batches(len(self.pix)):
                pts = self._points(batch)
                for a in range(3):      # to node units in place, as locate scales a copy
                    pts[a] -= fld.origin[a]
                    pts[a] /= fld.resolution[a]
                located.append(fld.place(pts))
                del pts     # before the next batch's are formed
            self.located = key, located
        return self.located[1]

    def opacity(self, density_field):
        """Yields each batch of frustum voxels, in C order, and their opacities:
        the read nodes' opacities, then each voxel's trilinear sample of
        them, in :func:`_interpolate`'s corner order, in batches of
        ``BLOCK_VOXELS``; memory beyond the plan and the read nodes'
        opacities is O(``BLOCK_VOXELS``).  A voxel field is read at the
        :meth:`_located` nodes, another source through ``density_at`` at
        their points.  A NaN or negative density raises as in
        :func:`build_opacity_map` at a read node alone."""
        alpha = np.empty(len(self.pix))
        if isinstance(density_field, VoxelDensityField):
            nodes = density_field.node_density()
            sigma = (density_field.density_from(loc, nodes)
                     for loc in self._located(density_field))
        else:
            sigma = (density_field.density_at(self._points(b).T) for b in batches(len(alpha)))
        for batch, s in zip(batches(len(alpha)), sigma):
            opacity(s, self._per_node(self.delta, batch), out=alpha[batch])
        for batch in batches(self.frac.shape[1]):
            sampled = np.zeros(batch.stop - batch.start)
            # Under strides (2, 4, 1) a corner's offset is 2 du + 4 dv + di: its
            # row of ``ranks``, plus 4 if it is the read node one rank on.  An
            # index, not ``take``, which would copy the int32 ranks to intp.
            for corner, wgt in trilinear_corners(self.frac[:, batch], (2, 4, 1)):
                wgt *= alpha[corner >> 2:][self.ranks[corner & 3, batch]]
                sampled += wgt
            yield batch, sampled

    def occupancy(self, density_field) -> np.ndarray:
        """The prediction's values: :meth:`opacity` above the threshold in
        the frustum, False outside it.

        In the frustum this is :func:`voxelize_occupancy` over
        :func:`build_opacity_map`, bit for bit, as :func:`cell_table`'s
        proof shows for a voxel the table decides.
        """
        occ_in = np.empty(self.frac.shape[1], dtype=bool)
        for batch, alpha in self.opacity(density_field):
            occ_in[batch] = alpha > OCCUPANCY_THRESHOLD
        occ = np.zeros(self.frustum.shape, dtype=bool)
        occ[self.frustum] = occ_in
        return occ


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

# Voxels along each axis of a sub-block that :func:`frustum_mask` decides
# from a bound; a one-voxel tail joins the run before it.
SUB_BLOCK = 16
# The frustum bound's margin, as a share of the scale of its forms; see
# :func:`frustum_mask`.
FRUSTUM_MARGIN = 2.0 ** -40
# Voxels per batch of undecided sub-blocks that :func:`frustum_mask`
# projects (a sub-block may take a batch past it).
FRUSTUM_BATCH = 2 ** 14


def _runs(n: int) -> np.ndarray:
    """Bounds of the sub-block runs along an axis of ``n`` voxels."""
    starts = list(range(0, n, SUB_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return np.array(starts + [n])


def frustum_mask(grid: VoxelGrid, t_vc: Pose, intr: CameraIntrinsics) -> VoxelGrid:
    """True iff the voxel center projects inside the image with depth > 0.

    The positive-depth requirement is an addition over the pure image-bounds
    test: projection of behind-camera points is geometrically meaningless.

    The mask is that of :func:`~.geometry.in_image` over
    :func:`~.geometry.project` of ``t_vc.apply(grid.centers_flat())``, bit
    for bit (``test_center_blocks.py::test_frustum_mask_on_the_image_border``),
    but most of it is decided a sub-block of ``SUB_BLOCK`` voxels a side at
    a time.  With (x, y, z) = R p + t for a grid-frame center p, and z > 0,
    each of the five tests is the sign of an affine form a . p + b:
    z; fx x + cx z (u >= 0); (w-1-cx) z - fx x (u <= w-1); and the two
    like it in v.  Over the box [lo, hi] of a sub-block's centers a form
    takes values in a . mid + b -/+ |a| . half.  A sub-block whose every
    form stays above the margin is all True, one with a form below minus
    the margin all False; all sub-blocks are decided in one array
    operation.  The centers of the others go through ``t_vc.apply`` in
    batches of about ``FRUSTUM_BATCH`` and are projected as above.  Every
    sub-block has two voxels or more, unless the grid is one voxel, and
    ``Pose.apply`` gives each row of two or more the bits the full product
    gives it
    (``test_center_blocks.py::test_apply_rows_do_not_depend_on_the_others``).

    Why the margin decides right: let e = 2**-53, P_k the largest |center
    coordinate| on grid axis k, C the largest entry of |R| P + |t| and
    S = (fx + fy + |cx| + |cy| + w + h) C, so each form's |coefficients|
    times |terms| sum to at most S.  ``Pose.apply`` computes (x', y', z')
    within 5e C of R p + t.  For z' > 0, u' = fl(fl(fl(fx x') / z') + cx)
    is >= 0 iff s = fl(fl(fx x') / z') + cx is (a nonzero sum of two floats
    does not round to 0), and z' s is within 2.01e fx |x'| of the form at
    (x', z'), so within 8e S of the form at R p + t; u' <= w - 1 likewise,
    but for u' = w - 1 when s is within e |s| above it, which widens the
    band to 10e S.  So every test has its form's sign unless the form is
    within 10e S of 0.  The bound's own arithmetic (a and b from R and t,
    the midpoints and half-widths, their products and sums) is off by less
    than 24e S.  ``FRUSTUM_MARGIN`` S is 2**13 e S: a form decided above it
    is above 10e S at every center, so its test is true, and one decided
    below its negative is below -10e S, so its test is false (as it is for
    any center with z' <= 0).
    """
    axes = grid._center_axes()
    runs = [_runs(n) for n in grid.counts]
    w1, h1 = intr.width - 1.0, intr.height - 1.0
    forms = np.array([[0.0, 0.0, 1.0], [intr.fx, 0.0, intr.cx], [-intr.fx, 0.0, w1 - intr.cx],
                      [0.0, intr.fy, intr.cy], [0.0, -intr.fy, h1 - intr.cy]])
    a, b = forms @ t_vc.rotation, forms @ t_vc.translation
    reach = np.array([max(abs(ax[0]), abs(ax[-1])) for ax in axes])
    scale = (intr.fx + intr.fy + abs(intr.cx) + abs(intr.cy) + intr.width + intr.height) \
        * np.max(np.abs(t_vc.rotation) @ reach + np.abs(t_vc.translation))
    # each form (first axis) over the sub-blocks (the other three)
    mid = b.reshape(5, 1, 1, 1)
    half = 0.0
    for k, (ax, r) in enumerate(zip(axes, runs)):
        lo, hi = ax[r[:-1]], ax[r[1:] - 1]
        shape = [5, 1, 1, 1]
        shape[k + 1] = len(lo)
        mid = mid + (a[:, k, None] * ((lo + hi) / 2)).reshape(shape)
        half = half + (np.abs(a[:, k, None]) * ((hi - lo) / 2)).reshape(shape)
    margin = FRUSTUM_MARGIN * scale
    inside = np.all(mid - half > margin, axis=0)
    undecided = ~inside & ~np.any(mid + half < -margin, axis=0)
    # the decided values, the runs' booleans repeated out to their voxels
    out = inside
    for k in (2, 1, 0):
        out = np.repeat(out, np.diff(runs[k]), axis=k)

    # the undecided sub-blocks, one row of run indices each, and their sizes
    blocks = np.argwhere(undecided)
    sizes = np.prod([np.diff(r)[blocks[:, k]] for k, r in enumerate(runs)], axis=0)
    ex, ey, ez = (r.tolist() for r in runs)
    ws = Workspace()

    def boxes(rows):
        """The voxel slices of the sub-blocks of ``rows``, made one at a
        time.  A tuple display, not ``tuple()`` of a generator: that one
        is resized from a longer tuple, so each call would leave one more
        3-tuple in the interpreter's free list."""
        for i, j, k in zip(*rows.T.tolist()):
            yield slice(ex[i], ex[i + 1]), slice(ey[j], ey[j + 1]), slice(ez[k], ez[k + 1])

    def project_exactly(rows, m):
        """Set the voxels of the sub-blocks ``rows``, m in all, from their
        centers' projections."""
        with ws:
            xyz, o = ws.take((3, m)), 0
            for box in boxes(rows):
                seg = xyz[:, o:o + out[box].size].reshape(3, *out[box].shape)
                seg[0] = axes[0][box[0], None, None]
                seg[1] = axes[1][box[1], None]
                seg[2] = axes[2][box[2]]
                o += seg[0].size
            cam = t_vc.apply(xyz.T, out=ws.take((3, m)))
            ok = in_image(intr, *project(intr, cam, out=(cam[:, 0], cam[:, 1])))
            o = 0
            for box in boxes(rows):
                voxels = out[box]
                voxels[...] = ok[o:o + voxels.size].reshape(voxels.shape)
                o += voxels.size

    first, m = 0, 0
    for k, n in enumerate(sizes.tolist()):
        if m and m + n > FRUSTUM_BATCH:
            project_exactly(blocks[first:k], m)
            first, m = k, 0
        m += n
    if m:
        project_exactly(blocks[first:], m)
    return grid.like(out)


def visibility_mask(gt: VoxelGrid, view: CameraView, t_vc: Pose) -> VoxelGrid:
    """Ray-traced visibility against ground-truth occupancy.

    One ray per image pixel, marched from the near bound (or the grid entry
    point, whichever is farther) to the grid exit in steps of the smallest
    voxel edge.  A sample is visible iff it and all preceding samples on its
    ray fall in unoccupied voxels; a voxel is visible iff any visible sample
    lands in it.  Voxels never sampled default to invisible, and the result
    is clipped to the frustum mask so m_v = 1 implies m_f = 1 (rays can clip
    voxels whose centers project just outside the image).  Each pass takes
    every live ray a window of K steps, one (K, live rays) tile, with K =
    (rays entering the grid) // (live rays), capped at the longest march a
    live ray has left: K is 1 while every ray is live, and no pass holds
    more samples than the first, so memory is O(pixels) plus a few boolean
    voxel grids, independent of the march length
    (``TestVisibilityMask::test_peak_memory_independent_of_march_length``).
    Samples past a ray's own step count are masked.  A ray leaves the pass
    set between windows, once its march ends or it has taken an occupied
    sample, since nothing after that changes the mask: the work is the
    samples up to each ray's first occupied one, plus at most the rest of
    that window (``test_benchmark.py::TestRayRetirement``;
    ``test_center_blocks.py::test_visibility_march_on_the_line_grid_takes_few_passes``).
    """
    if gt.values.dtype != bool:
        raise ValueError("visibility mask needs a boolean ground-truth grid")
    step = float(np.min(gt.resolution))
    intr = view.intrinsics
    cam_to_voxel = t_vc.inverse()
    origin_v = cam_to_voxel.translation
    dirs_v = cam_to_voxel.rotate(pixel_directions(intr, all_pixel_coords(intr).reshape(-1, 2)))
    te, tx = slab_intervals(gt.origin, gt.max_corner, origin_v, dirs_v)
    start = np.maximum(view.frustum.near, te)
    span = tx - start
    num_steps = np.where(span >= 0, np.floor(span / step) + 1, 0).astype(np.int64)

    visible_flat = np.zeros(gt.num_voxels, dtype=bool)
    occ_flat = gt.values.reshape(-1)
    # Per-ray state of the rays still marching, compacted as rays retire;
    # the directions as one contiguous row per axis.
    live = num_steps > 0
    start, num_steps, dirs_v = start[live], num_steps[live], dirs_v[live].T.copy()
    entering = len(start)
    k = 0
    while len(start):
        window = min(entering // len(start), int(num_steps.max()) - k)
        ks = np.arange(k, k + window)
        dist = start + ks[:, None] * step
        cols = [np.multiply(dist, dirs_v[a], out=dist if a == 2 else None)
                for a in range(3)]   # per axis, as origin_v + dist * dirs_v
        for a in range(3):
            cols[a] += origin_v[a]
        flat, valid = gt.flat_index(cols)
        del cols, dist
        valid &= ks[:, None] < num_steps
        blocked = valid & occ_flat.take(flat, mode="clip")   # flat is arbitrary outside
        for j in range(1, window):   # a ray is blocked from its first occupied sample on
            blocked[j] |= blocked[j - 1]
        visible_flat[flat[valid & ~blocked]] = True
        k += window
        keep = (k < num_steps) & ~blocked[-1]
        if not keep.all():
            start, num_steps, dirs_v = start[keep], num_steps[keep], dirs_v.compress(keep, 1)
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
    """Exact count-ratio metrics from four boolean grids of one geometry and frame.

    One rule counts a region's (tp, fp, fn, tn), occupied positive: over
    the frustum for O_*, and reversed over its invisible part for IE_*.
    With one boolean temporary at a time, at most three grids are held above
    the inputs (``test_benchmark.py::TestMetrics::test_peak_memory_is_three_boolean_grids``).
    """
    for name, g in (("pred", pred), ("gt", gt), ("frustum", frustum), ("visible", visible)):
        if not pred.same_geometry(g):
            raise ValueError(f"{name} grid geometry differs from the prediction grid")
        if g.frame != pred.frame:
            raise ValueError(f"{name} grid frame {g.frame!r} differs from the prediction's")
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
