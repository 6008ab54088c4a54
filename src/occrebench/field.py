"""Density and color sources.

Two families:

* ``AnalyticScene`` - a list of constant-density primitives with exact
  containment and exact ray intersections.  Supplies reference images and
  ground-truth occupancy, and serves as the scene oracle in tests.
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

from .geometry import CameraView, Pose, check_int, check_real
from .grids import VoxelGrid, lattice


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
        for a in (1, 2):  # per column; see VoxelGrid.point_to_index
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
    return near.max(axis=-1), far.min(axis=-1)


# ---------------------------------------------------------------------------
# Analytic scene
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticScene:
    """Ordered primitive list; on overlap the first containing primitive wins."""

    primitives: tuple
    background: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        object.__setattr__(self, "background", _as_rgb(self.background))

    def _first_containing(self, p: np.ndarray, out: np.ndarray, attr: str) -> np.ndarray:
        """``out`` with each point's entry set to its first primitive's ``attr``."""
        unset = np.ones(p.shape[:-1], dtype=bool)
        for prim in self.primitives:
            hit = prim.contains(p) & unset
            out[hit] = getattr(prim, attr)
            unset &= ~hit
        return out

    def density_at(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        return self._first_containing(p, np.zeros(p.shape[:-1]), "density")

    def color_at(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        colors = np.broadcast_to(self.background, p.shape).copy()
        return self._first_containing(p, colors, "albedo")

    def sample_colors(self, pts: np.ndarray):
        """ColorSource protocol: point colors plus an all-true hit mask."""
        p = np.asarray(pts, dtype=np.float64)
        return self.color_at(p), np.ones(p.shape[:-1], dtype=bool)


def ground_truth_occupancy(scene: AnalyticScene, grid: VoxelGrid,
                           grid_to_world: Pose | None = None) -> VoxelGrid:
    """Boolean grid: a voxel is occupied iff its center lies in any primitive.

    Centers are taken one block of x-slices at a time
    (:meth:`VoxelGrid.center_blocks`), so memory beyond the output grid is
    O(block).  A primitive is tested on a block only if its ``bounds()``
    meet the axis-aligned box spanned by the block's centers: one whose
    bounds miss that box contains none of them, so the grid is the same.
    """
    bounds = [prim.bounds() for prim in scene.primitives]

    def occupied(centers):
        lo, hi = centers.min(axis=0), centers.max(axis=0)
        occ = np.zeros(len(centers), dtype=bool)
        for prim, (p_lo, p_hi) in zip(scene.primitives, bounds):
            if np.all(p_lo <= hi) and np.all(lo <= p_hi):
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
    us, vs = np.meshgrid(np.arange(intr.width, dtype=np.float64),
                         np.arange(intr.height, dtype=np.float64), indexing="xy")
    pixels = np.stack([us, vs], axis=-1)
    _, dirs = view.world_rays(pixels)
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


def trilinear_corners(base: np.ndarray, frac, strides):
    """The eight corners of trilinear interpolation, one at a time.

    ``base`` (...) holds the flat index, into a node array with element
    ``strides`` along the three axes, of each query's lower cell corner,
    and ``frac`` (3, ...) the query's offset within its cell along each
    axis, in [0, 1].  Yields (flat index, weight) per corner (dx, dy, dz)
    in lexicographic order; the weight is (wx * wy) * wz, where each factor
    is frac or 1 - frac.  wx * wy is taken once per (dx, dy) and each
    corner's index is one addition to ``base``.  A 1 - frac factor is
    made only while its half of the corners needs it, and no (..., 8)
    array is built.  Each yielded array is new, so the caller may work in
    it in place; a caller that drops both before it asks for the next
    corner holds one corner's arrays at a time and, here, at most two
    per-query weight arrays (wx and wx * wy) besides: four 8 B arrays a
    query.
    """
    sx, sy, sz = strides
    fx, fy, fz = frac
    for dx in (0, 1):
        wx = fx if dx else 1 - fx
        for dy in (0, 1):
            wxy = wx * (fy if dy else 1 - fy)
            for dz in (0, 1):
                if dz:
                    w = wxy * fz
                else:               # (1 - fz) * wxy with no temporary: the same product
                    w = np.subtract(1, fz)
                    w *= wxy
                yield base + (dx * sx + dy * sy + dz * sz), w
                del w               # the caller's drop frees this corner
            del wxy                 # before the next (dx, dy)'s is made


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

    def locate(self, pts: np.ndarray) -> "Located":
        """Where points (..., 3) fall in the node lattice; see :class:`Located`.

        Each coordinate is scaled to node units as its own column.  Points
        in the hull have coordinates >= 0, so truncation is their floor.
        """
        p = np.asarray(pts, dtype=np.float64)
        n = self.shape
        rel = [(p[..., a] - self.origin[a]) / self.resolution[a] for a in range(3)]
        inside = (rel[0] >= 0.0) & (rel[0] <= n[0] - 1)
        for a in (1, 2):  # per column; see VoxelGrid.point_to_index
            inside &= (rel[a] >= 0.0) & (rel[a] <= n[a] - 1)
        base = 0
        frac = np.empty((3, np.count_nonzero(inside)))
        for a in range(3):
            r, rel[a] = rel[a][inside], None
            cell = np.minimum(r.astype(np.int64), n[a] - 2)
            np.subtract(r, cell, out=frac[a])
            base = base * n[a] + cell
        return Located(inside, base, frac)

    def density_at(self, pts: np.ndarray) -> np.ndarray:
        return self.density_from(self.locate(pts), self.node_density())

    def node_density(self) -> np.ndarray:
        """softplus(theta) per node, flat in C order: the ``nodes`` of
        :meth:`density_from`, valid until ``theta`` changes."""
        return softplus(self.theta).reshape(-1)

    def density_from(self, loc: "Located", nodes: np.ndarray) -> np.ndarray:
        """Density at located points, in their shape; zero outside the hull.

        ``nodes`` is :meth:`node_density` of the current ``theta``.  At its
        peak this holds six 8 B arrays per inside point: the sum, one
        corner's gathered node values and the four arrays
        :func:`trilinear_corners` names.  The output is made after them.
        """
        inner = np.zeros(len(loc.base))
        for flat, w in trilinear_corners(loc.base, loc.frac, self.node_strides):
            w *= nodes[flat]
            inner += w
            del flat, w             # before the generator makes the next corner
        out = np.zeros(loc.inside.shape)
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
        parts, the scatter holds the part's coefficients and the four
        arrays :func:`trilinear_corners` names: five 8 B arrays per inside
        point of the part.
        """
        size, strides = self.theta.size, self.node_strides
        sums = np.zeros((8, size))
        for loc, dloss_dsigma in parts:
            coeff = np.asarray(dloss_dsigma, dtype=np.float64).reshape(loc.inside.shape)
            coeff = coeff[loc.inside]
            # next() rather than enumerate or zip, whose cached result
            # tuple would keep the previous corner alive
            corners = trilinear_corners(loc.base, loc.frac, strides)
            for row in sums:
                flat, w = next(corners)
                w *= coeff
                np.add.at(row, flat, w)
                del flat, w         # before the generator makes the next corner
            del loc, dloss_dsigma, coeff, corners   # before the next part is drawn
        grad_flat = np.zeros(size)
        for row in sums:
            grad_flat += row
        return (grad_flat * sigmoid(self.theta).reshape(-1)).reshape(self.shape)


@dataclass(frozen=True)
class Located:
    """Points placed in a field's node lattice by :meth:`VoxelDensityField.locate`.

    ``inside`` has the points' shape and marks those in the node hull (its
    max faces included).  For those M points, in their C order, ``base``
    (M,) is the flat node index of each one's lower cell corner and
    ``frac`` (3, M) its offset within the cell along each axis: the inputs
    of :func:`trilinear_corners`.  Locating once lets the density gather
    and the gradient scatter of a training step share the work, and
    neither walks the corners of points outside the hull.
    """

    inside: np.ndarray
    base: np.ndarray
    frac: np.ndarray
