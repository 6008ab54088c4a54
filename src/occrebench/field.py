"""Density and color sources.

Two families:

* ``AnalyticScene`` - a list of constant-density primitives with exact
  containment and exact ray intersections.  Supplies reference images and
  ground-truth occupancy, and serves as the scene oracle in tests.  Its
  point lookups and the ground truth test a primitive on a run or block
  of points only if its ``bounds()`` meet the points' box
  (``AnalyticScene.candidates``, which a NaN bound never prunes), so
  memory beyond the output is O(``grids.BLOCK_VOXELS``).
* ``VoxelDensityField`` - a learnable field; raw parameters live on a
  regular lattice of nodes and the density is the trilinear interpolation
  of softplus(theta), so it is nonnegative with smooth parameter gradients.

Any object with a ``density_at(points) -> sigma`` method is accepted as a
density field by the benchmark module (``benchmark._density_lookup``) and
by ``losses.occlusion_gradient_probe``.  A caller that looks up many
batches of points against one ``theta`` (the opacity-map build, the
conventional voxelization, a training step) takes
``VoxelDensityField.node_density()`` once and passes it to
``density_from(locate(points), nodes)`` per batch, so softplus runs once
per lattice, not once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .geometry import CameraView, Pose, Workspace, all_pixel_coords, check_int, check_real
from .grids import BLOCK_VOXELS, VoxelGrid, batches, lattice


def softplus(x: np.ndarray) -> np.ndarray:
    """ln(1 + e^x), overflow-safe."""
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def inverse_softplus(y: float) -> float:
    """theta with softplus(theta) = y, for finite y > 0.  From y = 700 on,
    where e^y nears overflow, ln(e^y - 1) is taken as y + ln(1 - e^-y);
    below, the first form is kept for its bits."""
    check_real("softplus value", y, above=0)
    if y < 700:
        return float(np.log(np.expm1(y)))
    return float(y + np.log(-np.expm1(-y)))


# ---------------------------------------------------------------------------
# Scene primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box, closed on all faces."""

    min_corner: np.ndarray
    max_corner: np.ndarray
    density: float
    albedo: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=np.float64).reshape(3)
        hi = np.asarray(self.max_corner, dtype=np.float64).reshape(3)
        check_real("box min_corner", lo)
        check_real("box max_corner", hi)
        if np.any(lo >= hi):
            raise ValueError("box requires min < max per axis")
        check_real("primitive density", self.density, least=0)
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)
        object.__setattr__(self, "albedo", _as_rgb(self.albedo))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        lo, hi = self.min_corner, self.max_corner
        inside = (p[..., 0] >= lo[0]) & (p[..., 0] <= hi[0])
        for a in (1, 2):  # per column; see VoxelGrid.flat_index
            inside &= (p[..., a] >= lo[a]) & (p[..., a] <= hi[a])
        return inside

    def bounds(self):
        """(min, max) corners of a box holding every point :meth:`contains`."""
        return self.min_corner, self.max_corner

    def ray_intervals(self, origin: np.ndarray, dirs: np.ndarray):
        return slab_intervals(self.min_corner, self.max_corner, origin, dirs)


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float
    density: float
    albedo: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64).reshape(3)
        check_real("sphere center", center)
        check_real("sphere radius", self.radius, above=0)
        check_real("primitive density", self.density, least=0)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "albedo", _as_rgb(self.albedo))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        # One column at a time; the sum is the (x0 + x1) + x2 fold that
        # np.linalg.norm takes along a length-3 axis, so results are equal.
        d = [p[..., a] - self.center[a] for a in range(3)]
        return np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) <= self.radius

    def bounds(self):
        """(min, max) corners of a box holding every point :meth:`contains`.

        center -/+ radius, widened by 1e-9 * (radius + |center|) per axis: a
        point the float test accepts is within a few ulp of the sphere, and
        the pad is far beyond that and beyond the rounding of the bound.
        """
        pad = self.radius + 1e-9 * (self.radius + np.abs(self.center))
        return self.center - pad, self.center + pad

    def ray_intervals(self, origin: np.ndarray, dirs: np.ndarray):
        oc = np.asarray(origin, dtype=np.float64) - self.center
        d = np.asarray(dirs, dtype=np.float64)
        b = d @ oc if oc.ndim == 1 else np.sum(d * oc, axis=-1)
        c = float(np.dot(oc, oc)) - self.radius ** 2
        disc = b * b - c
        hit = disc > 0.0
        root = np.sqrt(np.where(hit, disc, 0.0))
        te = np.where(hit, -b - root, np.inf)
        tx = np.where(hit, -b + root, -np.inf)
        return te, tx


@dataclass(frozen=True)
class HalfSpace:
    """Axis-aligned half-space, e.g. a ground plane.

    ``side=+1`` keeps points with coordinate >= offset along ``axis``;
    ``side=-1`` keeps points with coordinate <= offset.
    """

    axis: int
    offset: float
    side: int
    density: float
    albedo: np.ndarray

    def __post_init__(self):
        for name, allowed in (("axis", (0, 1, 2)), ("side", (-1, 1))):
            value = getattr(self, name)
            check_int(f"half-space {name}", value, allowed[0])   # `in` takes True and 1.0
            if value not in allowed:
                raise ValueError(f"half-space {name} must be one of {allowed}, got {value!r}")
        check_real("half-space offset", self.offset)
        check_real("primitive density", self.density, least=0)
        object.__setattr__(self, "albedo", _as_rgb(self.albedo))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        coord = np.asarray(pts, dtype=np.float64)[..., self.axis]
        return coord >= self.offset if self.side > 0 else coord <= self.offset

    def bounds(self):
        """(min, max) corners of a box holding every point :meth:`contains`:
        unbounded except on the kept side of ``offset`` along ``axis``."""
        lo, hi = np.full(3, -np.inf), np.full(3, np.inf)
        (lo if self.side > 0 else hi)[self.axis] = self.offset
        return lo, hi

    def ray_intervals(self, origin: np.ndarray, dirs: np.ndarray):
        return slab_intervals(*self.bounds(), origin, dirs)


def _as_rgb(c) -> np.ndarray:
    rgb = np.asarray(c, dtype=np.float64).reshape(3)
    if not np.all((rgb >= 0) & (rgb <= 1)):   # NaN fails too
        raise ValueError(f"albedo {rgb}: components must lie in [0, 1]")
    return rgb


def slab_intervals(lo: np.ndarray, hi: np.ndarray, origin: np.ndarray, dirs: np.ndarray):
    """Slab test of the box [lo, hi] for rays from ``origin`` along
    directions (..., 3): (t_enter, t_exit) arrays.  A bound may be
    infinite, so a half-space is a box too.

    Disjoint rays come back with t_enter >= t_exit.  Along an axis that a
    direction does not move on, the ray is in the slab for all t or none.
    The three axes are folded pairwise, (x, y) then z, the values of a
    max or min reduction along the last axis, at a fraction of its cost
    (``test_field.py::test_slab_folds_equal_the_reductions``).
    """
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(dirs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - o) / d
        t_hi = (hi - o) / d
    near = np.minimum(t_lo, t_hi)
    far = np.maximum(t_lo, t_hi)
    zero = d == 0.0
    if np.any(zero):
        in_slab = np.broadcast_to((o >= lo) & (o <= hi), d.shape)
        near = np.where(zero, np.where(in_slab, -np.inf, np.inf), near)
        far = np.where(zero, np.where(in_slab, np.inf, -np.inf), far)
    return (np.maximum(np.maximum(near[..., 0], near[..., 1]), near[..., 2]),
            np.minimum(np.minimum(far[..., 0], far[..., 1]), far[..., 2]))


# ---------------------------------------------------------------------------
# Analytic scene
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticScene:
    """Ordered primitive list; on overlap the first containing primitive wins.

    The point lookups (:meth:`density_at`, :meth:`color_at`,
    :meth:`sample_colors`) take points (..., 3), and any other last axis
    raises.  They walk the points in runs of ``grids.BLOCK_VOXELS``: a run's
    coordinates are copied into three contiguous rows of one reused buffer,
    and only the primitives that :meth:`candidates` keeps for the run's
    box, spanned per axis by ``np.fmin``/``np.fmax`` of its rows, are asked
    whether they contain its points.  NaN coordinates are left out of the
    box; a primitive contains a point with a NaN coordinate only along an
    axis where its bounds are unbounded, which never prune, so the result
    is that of testing every primitive on every point.  Memory beyond the
    output (and a copy of the points if they are not float64 or cannot be
    viewed as (n, 3)) is O(``BLOCK_VOXELS``).
    """

    primitives: tuple
    background: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        object.__setattr__(self, "background", _as_rgb(self.background))

    def candidates(self):
        """``meeting(lo, hi)``: the primitives, in order, whose ``bounds()``
        meet the box [lo, hi].

        A primitive is left out only when pl > hi or lo > ph on some axis,
        for its bounds (pl, ph): it then contains no point of the box.  A
        comparison with NaN is false, so a NaN in ``lo`` or ``hi`` prunes
        nothing along its axis.  The bounds are taken here, once for all
        the boxes a caller asks about; the scene keeps none, so it pickles
        as its primitives and background alone (``optim._eval_plan`` keys
        its plan by those bytes).
        """
        bounds = np.array([prim.bounds() for prim in self.primitives], dtype=np.float64)
        p_lo, p_hi = bounds.reshape(-1, 2, 3).transpose(1, 0, 2)

        def meeting(lo, hi) -> list:
            miss = np.any(p_lo > hi, axis=1) | np.any(lo > p_hi, axis=1)
            return [prim for prim, out in zip(self.primitives, miss) if not out]

        return meeting

    def _first_containing(self, p: np.ndarray, out: np.ndarray, attr: str) -> np.ndarray:
        """``out``, one row per point of ``p`` in C order, with each point's
        row set to its first containing primitive's ``attr``, a run of
        points at a time."""
        pts, meeting = p.reshape(-1, 3), self.candidates()
        cols = np.empty((3, min(len(pts), BLOCK_VOXELS)))
        unset = np.empty(cols.shape[1], dtype=bool)
        for run in batches(len(pts)):
            m = run.stop - run.start
            xyz = cols[:, :m]
            np.copyto(xyz.T, pts[run])
            prims = meeting(np.fmin.reduce(xyz, axis=1), np.fmax.reduce(xyz, axis=1))
            left, dest = unset[:m], out[run]
            left.fill(True)
            for prim in prims:
                hit = prim.contains(xyz.T)
                hit &= left
                dest[hit] = getattr(prim, attr)
                left &= ~hit
        return out

    @staticmethod
    def _as_points(pts) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        if p.shape[-1:] != (3,):
            raise ValueError(f"points must have shape (..., 3), got {p.shape}")
        return p

    def density_at(self, pts: np.ndarray) -> np.ndarray:
        p = self._as_points(pts)
        return self._first_containing(p, np.zeros(p.size // 3), "density").reshape(p.shape[:-1])

    def color_at(self, pts: np.ndarray) -> np.ndarray:
        p = self._as_points(pts)
        colors = np.broadcast_to(self.background, (p.size // 3, 3)).copy()
        return self._first_containing(p, colors, "albedo").reshape(p.shape)

    def sample_colors(self, pts: np.ndarray):
        """ColorSource protocol: point colors plus an all-true hit mask."""
        p = self._as_points(pts)
        return self.color_at(p), np.ones(p.shape[:-1], dtype=bool)


def ground_truth_occupancy(scene: AnalyticScene, grid: VoxelGrid,
                           grid_to_world: Pose | None = None) -> VoxelGrid:
    """Boolean grid: a voxel is occupied iff its center lies in any primitive.

    Centers are taken one block of x-slices at a time
    (:meth:`VoxelGrid.center_blocks`), so memory beyond the output grid is
    O(block).  A primitive is tested on a block only if
    :meth:`AnalyticScene.candidates` keeps it for the box spanned by the
    block's centers: one whose bounds miss that box contains none of them,
    so the grid is the same.
    """
    meeting = scene.candidates()

    def occupied(centers):
        occ = np.zeros(len(centers), dtype=bool)
        for prim in meeting(centers.min(axis=0), centers.max(axis=0)):
            occ |= prim.contains(centers)
        return occ

    return grid.map_centers(occupied, grid_to_world)


def render_reference_image(scene: AnalyticScene, view: CameraView) -> np.ndarray:
    """Exact first-hit RGB image of shape (h, w, 3).

    Each pixel takes the albedo of the scene at the first ray/primitive
    entry point (the camera may start inside a primitive, in which case the
    hit is immediate); pixels hitting nothing get the scene background.
    Overlaps at the hit point resolve by primitive list order.
    """
    intr = view.intrinsics
    _, dirs = view.world_rays(all_pixel_coords(intr).transpose(1, 0, 2))
    flat_d = dirs.reshape(-1, 3)
    o = view.position

    t_hit = np.full(len(flat_d), np.inf)
    for prim in scene.primitives:
        te, tx = prim.ray_intervals(o, flat_d)
        entry = np.maximum(te, 0.0)
        valid = tx > entry
        t_hit = np.where(valid, np.minimum(t_hit, entry), t_hit)

    image = np.broadcast_to(scene.background, (len(flat_d), 3)).copy()
    hit = np.isfinite(t_hit)
    if np.any(hit):
        pts = o + (t_hit[hit, None] + 1e-9) * flat_d[hit]
        image[hit] = scene.color_at(pts)
    return image.reshape(intr.height, intr.width, 3)


def trilinear_corners(frac, strides, out=None):
    """The eight corners of trilinear interpolation, one at a time.

    ``frac`` (3, ...) holds each query's offset within its cell along each
    axis, in [0, 1], in a node array with element ``strides`` along the
    three axes.  Yields (offset, weight) per corner (dx, dy, dz) in
    lexicographic order: the corner's flat offset dx * sx + dy * sy + dz *
    sz from the cell's lower corner, an int, and its weight (wx * wy) * wz,
    where each factor is frac or 1 - frac.  A caller with lower corners
    ``base`` reads the corner as ``values[offset:].take(base)`` and
    scatters to it with ``np.add.at(row[offset:], base, w)``: the elements
    of ``base + offset`` in the same order, with no index array built.
    wx * wy is taken once per (dx, dy), and no (..., 8) array is built.
    It holds three 8 B arrays a query, ``out`` if given (three of a
    ``frac`` row's shape): the yielded weight, which each corner
    overwrites, wx and wx * wy.  A caller may work in a yielded array
    until it asks for the next corner.
    """
    sx, sy, sz = strides
    fx, fy, fz = frac
    w, wx_buf, wxy = out if out is not None else [np.empty(np.shape(fx)) for _ in range(3)]
    for dx in (0, 1):
        wx = fx if dx else np.subtract(1, fx, out=wx_buf)
        for dy in (0, 1):       # a 1 - f factor is made in the product's own array
            np.multiply(wx, fy if dy else np.subtract(1, fy, out=wxy), out=wxy)
            for dz in (0, 1):
                np.multiply(wxy, fz if dz else np.subtract(1, fz, out=w), out=w)
                yield dx * sx + dy * sy + dz * sz, w


# ---------------------------------------------------------------------------
# Learnable voxel density field
# ---------------------------------------------------------------------------

@dataclass
class VoxelDensityField:
    """Trainable density field on a regular node lattice.

    ``theta`` holds one raw parameter per node; node (i, j, k) sits at
    ``origin + (i, j, k) * resolution``.  Density is the trilinear
    interpolation of softplus(theta) inside the node hull and exactly zero
    outside, so sigma >= 0 everywhere.
    """

    origin: np.ndarray
    resolution: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.origin, self.resolution = lattice(self.origin, self.resolution)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 3 or any(n < 2 for n in self.theta.shape):
            raise ValueError("theta must be 3-D with at least 2 nodes per axis")

    @classmethod
    def uniform(cls, origin, resolution, shape, sigma0: float = 0.05) -> "VoxelDensityField":
        """Constant field with density sigma0 everywhere inside the hull."""
        theta = np.full(tuple(shape), inverse_softplus(sigma0))
        return cls(origin, resolution, theta)

    @property
    def shape(self) -> tuple:
        return self.theta.shape

    @property
    def max_corner(self) -> np.ndarray:
        return self.origin + (np.asarray(self.shape) - 1) * self.resolution

    @property
    def node_strides(self) -> tuple:
        """Element strides of the C-ordered node lattice, per axis."""
        return (self.shape[1] * self.shape[2], self.shape[2], 1)

    def copy(self) -> "VoxelDensityField":
        return VoxelDensityField(self.origin.copy(), self.resolution.copy(),
                                 self.theta.copy())

    def locate(self, pts: np.ndarray, ws: Workspace | None = None) -> "Located":
        """Where points (..., 3) fall in the node lattice; see :class:`Located`.

        Two steps: each coordinate is scaled to node units as its own
        column, (p - origin) / resolution, and :meth:`place` places them.
        The result's arrays are taken from ``ws``, which it keeps, sized for
        all the points so that batches of one size reuse them (else they
        fit the inside points).  The scratch is the three 8 B node-unit
        arrays a point, from ``ws``, and :meth:`place`'s.
        """
        p = np.asarray(pts, dtype=np.float64)
        shape, size = p.shape[:-1], p.size // 3
        out = ws and (ws.take(size, np.int64), ws.take(3 * size), ws.take(shape, bool))
        with (ws or Workspace()) as scratch:
            rel = [scratch.take(shape) for _ in range(3)]
            for a in range(3):      # per column; see VoxelGrid.flat_index
                np.subtract(p[..., a], self.origin[a], out=rel[a])
                rel[a] /= self.resolution[a]
            return self.place(rel, scratch, out)

    def place(self, rel, ws: Workspace | None = None, out=None) -> "Located":
        """Points given in node units, placed in the lattice: the second step
        of :meth:`locate`, and the whole of it for a caller that owns its
        points and scales them in place (``benchmark._ReadPlan``).

        ``rel`` holds the three node-unit coordinates, one contiguous
        float64 row each of the points' shape, and is overwritten.  Points
        in the hull have coordinates >= 0, so truncation is their floor.
        ``out`` is (base, frac, inside) taken from ``ws`` for all the
        points, and the result keeps ``ws`` with them; without it they are
        allocated, fitting the inside points.  The scratch is a boolean a
        point from ``ws`` (or its own) and, allocated, the index of the
        inside points.
        """
        n, shape = self.shape, np.shape(rel[0])
        base, frac, inside = out or (None, None, np.empty(shape, bool))
        with (ws or Workspace()) as scratch:
            test = scratch.take(shape, bool)
            inside.fill(True)
            for a in range(3):
                inside &= np.greater_equal(rel[a], 0.0, out=test)
                inside &= np.less_equal(rel[a], n[a] - 1, out=test)
        index = np.flatnonzero(inside)
        m = len(index)
        base, frac = ((base[:m], frac[:3 * m].reshape(3, m)) if out
                      else (np.empty(m, np.int64), np.empty((3, m))))
        base.fill(0)
        for a in range(3):
            np.take(rel[a].reshape(-1), index, out=frac[a], mode="clip")
            cell = rel[a].reshape(-1)[:m].view(np.int64)    # rel[a] is read by now
            np.copyto(cell, frac[a], casting="unsafe")
            np.minimum(cell, n[a] - 2, out=cell)
            frac[a] -= cell
            base *= n[a]
            base += cell
        return Located(inside, base, frac, ws if out else None)

    def density_at(self, pts: np.ndarray) -> np.ndarray:
        return self.density_from(self.locate(pts), self.node_density())

    def node_density(self) -> np.ndarray:
        """softplus(theta) per node, flat in C order: the ``nodes`` of
        :meth:`density_from`, valid until ``theta`` changes."""
        return softplus(self.theta).reshape(-1)

    def density_from(self, loc: "Located", nodes: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Density at located points, in ``out`` (their shape, any layout)
        or a new array; zero outside the hull.

        ``nodes`` is :meth:`node_density` of the current ``theta``.  At its
        peak this holds five 8 B arrays per point from ``loc.ws`` (or its
        own, which go before a new ``out`` is made): the sum, one corner's
        gathered node values and the three :func:`trilinear_corners` names.
        """
        with (loc.ws or Workspace()) as ws:
            m = len(loc.base)
            cap = m if loc.ws is None else loc.inside.size      # a reused one: all the points'
            inner, gathered, *corners = (ws.take(cap)[:m] for _ in range(5))
            inner.fill(0.0)
            for offset, w in trilinear_corners(loc.frac, self.node_strides, corners):
                # every index is in range: base + offset is a node
                w *= nodes[offset:].take(loc.base, out=gathered, mode="clip")
                inner += w
        del ws, gathered, w, corners      # inner stays: nothing more is taken
        out = np.empty(loc.inside.shape) if out is None else out
        out.fill(0.0)
        out[loc.inside] = inner
        return out

    def accumulate_param_grad(self, pts: np.ndarray, dloss_dsigma: np.ndarray) -> np.ndarray:
        """Scatter dL/dsigma at many points into a dL/dtheta array."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        return self.param_grad_from([(self.locate(pts), dloss_dsigma)])

    def param_grad_from(self, parts) -> np.ndarray:
        """Scatter dL/dsigma at located points into a dL/dtheta array.

        ``parts`` is an iterable of (:class:`Located`, dL/dsigma in the
        located points' shape), in batch order; points outside the hull
        contribute nothing.  Each corner k of :func:`trilinear_corners` has
        a row of per-node sums that ``np.add.at`` fills in point order,
        continuing from the row's running value, so the rows are the eight
        whole-batch bincounts bit for bit, however the batch is split; they
        are then added into zeros in corner order.  The reduction order is
        fixed, so runs are reproducible.

        Memory: the rows, 8 per node (64 B a node), span the batch; per
        point, only the current part's.  A part is dropped before the next
        is drawn, so a generator of parts holds one at a time.  Beyond the
        parts, the scatter holds four 8 B arrays per inside point of the
        part: its coefficients, allocated, and the three arrays
        :func:`trilinear_corners` names, from ``loc.ws`` or its own.
        """
        size, strides, own = self.theta.size, self.node_strides, Workspace()
        sums = np.zeros((8, size))
        for loc, dloss_dsigma in parts:
            coeff = np.asarray(dloss_dsigma, dtype=np.float64).reshape(loc.inside.shape)
            coeff = coeff[loc.inside]
            with (loc.ws or own) as ws:
                cap = len(coeff) if loc.ws is None else loc.inside.size     # as density_from's
                buffers = [ws.take(cap)[:len(coeff)] for _ in range(3)]
                for row, (offset, w) in zip(sums, trilinear_corners(loc.frac, strides, buffers)):
                    w *= coeff
                    np.add.at(row[offset:], loc.base, w)
            del loc, dloss_dsigma, coeff   # before the next part is drawn
        grad_flat = np.zeros(size)
        for row in sums:
            grad_flat += row
        return (grad_flat * sigmoid(self.theta).reshape(-1)).reshape(self.shape)


@dataclass(frozen=True)
class Located:
    """Points placed in a field's node lattice by :meth:`VoxelDensityField.place`,
    the last step of :meth:`~VoxelDensityField.locate`.

    ``inside`` has the points' shape and marks those in the node hull (its
    max faces included).  For those M points, in their C order, ``base``
    (M,) is the flat node index of each one's lower cell corner and
    ``frac`` (3, M) its offset within the cell along each axis: the inputs
    of :func:`trilinear_corners`.  Locating once lets the density gather
    and the gradient scatter of a training step share the work, and
    neither walks the corners of points outside the hull; both take their
    scratch from ``ws``, the workspace these arrays came from, if any."""

    inside: np.ndarray
    base: np.ndarray
    frac: np.ndarray
    ws: Workspace | None = None
