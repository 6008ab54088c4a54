"""Density and color sources.

Two families:

* ``AnalyticScene`` - a list of constant-density primitives with exact
  containment, exact ray intersections, and a closed-form transmittance
  along any ray segment.  Serves as the ground-truth oracle in tests and
  supplies reference images / ground-truth occupancy.
* ``VoxelDensityField`` - a learnable field; raw parameters live on a
  regular lattice of nodes and the density is the trilinear interpolation
  of softplus(theta), so it is nonnegative with smooth parameter gradients.

Any object with a ``density_at(points) -> sigma`` method is accepted as a
density field by the rendering and benchmark modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .geometry import CameraView, Pose
from .grids import VoxelGrid


def softplus(x: np.ndarray) -> np.ndarray:
    """ln(1 + e^x), overflow-safe."""
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def inverse_softplus(y: float) -> float:
    """theta with softplus(theta) = y, for y > 0."""
    if y <= 0:
        raise ValueError("softplus is positive; cannot invert a nonpositive value")
    return float(np.log(np.expm1(y)))


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
        if np.any(lo >= hi):
            raise ValueError("box requires min < max per axis")
        _check_density(self.density)
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

    def ray_intervals(self, origin: np.ndarray, dirs: np.ndarray):
        """Slab test for directions (..., 3): (t_enter, t_exit) arrays.

        Disjoint rays come back with t_enter >= t_exit.
        """
        o = np.asarray(origin, dtype=np.float64)
        d = np.asarray(dirs, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = (self.min_corner - o) / d
            t_hi = (self.max_corner - o) / d
        near = np.minimum(t_lo, t_hi)
        far = np.maximum(t_lo, t_hi)
        zero = d == 0.0
        if np.any(zero):
            in_slab = np.broadcast_to((o >= self.min_corner) & (o <= self.max_corner),
                                      d.shape)
            near = np.where(zero, np.where(in_slab, -np.inf, np.inf), near)
            far = np.where(zero, np.where(in_slab, np.inf, -np.inf), far)
        return near.max(axis=-1), far.min(axis=-1)


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float
    density: float
    albedo: np.ndarray

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")
        _check_density(self.density)
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64).reshape(3))
        object.__setattr__(self, "albedo", _as_rgb(self.albedo))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        return np.linalg.norm(p - self.center, axis=-1) <= self.radius

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
        if self.axis not in (0, 1, 2) or self.side not in (-1, 1):
            raise ValueError("half-space needs axis in {0,1,2} and side in {-1,+1}")
        _check_density(self.density)
        object.__setattr__(self, "albedo", _as_rgb(self.albedo))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        coord = np.asarray(pts, dtype=np.float64)[..., self.axis]
        return coord >= self.offset if self.side > 0 else coord <= self.offset

    def ray_intervals(self, origin: np.ndarray, dirs: np.ndarray):
        o = float(np.asarray(origin, dtype=np.float64).reshape(3)[self.axis])
        d = np.asarray(dirs, dtype=np.float64)[..., self.axis]
        with np.errstate(divide="ignore"):
            t_cross = (self.offset - o) / d
        entering = (d > 0) == (self.side > 0)
        te = np.where(entering, t_cross, -np.inf)
        tx = np.where(entering, np.inf, t_cross)
        if np.any(d == 0.0):
            inside = o >= self.offset if self.side > 0 else o <= self.offset
            te = np.where(d == 0.0, -np.inf if inside else np.inf, te)
            tx = np.where(d == 0.0, np.inf if inside else -np.inf, tx)
        return te, tx


def _as_rgb(c) -> np.ndarray:
    rgb = np.asarray(c, dtype=np.float64).reshape(3)
    if np.any(rgb < 0) or np.any(rgb > 1):
        raise ValueError("albedo components must lie in [0, 1]")
    return rgb


def _check_density(density: float) -> None:
    if density < 0:
        raise ValueError("primitive density must be nonnegative")


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

    def density_at(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        sigma = np.zeros(p.shape[:-1])
        unset = np.ones(p.shape[:-1], dtype=bool)
        for prim in self.primitives:
            hit = prim.contains(p) & unset
            sigma[hit] = prim.density
            unset &= ~hit
        return sigma

    def color_at(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        colors = np.broadcast_to(self.background, p.shape).copy()
        unset = np.ones(p.shape[:-1], dtype=bool)
        for prim in self.primitives:
            hit = prim.contains(p) & unset
            colors[hit] = prim.albedo
            unset &= ~hit
        return colors

    def sample_colors(self, pts: np.ndarray):
        """ColorSource protocol: point colors plus an all-true hit mask."""
        p = np.asarray(pts, dtype=np.float64)
        return self.color_at(p), np.ones(p.shape[:-1], dtype=bool)

    def optical_depth(self, origin, direction, t0: float, t1: float) -> float:
        """Exact integral of density along origin + t*direction over [t0, t1].

        The density is piecewise constant between primitive boundary
        crossings, so the integral is a finite sum of segment lengths times
        midpoint densities.
        """
        if t1 <= t0:
            return 0.0
        origin = np.asarray(origin, dtype=np.float64)
        direction = np.asarray(direction, dtype=np.float64)
        cuts = [t0, t1]
        for prim in self.primitives:
            te, tx = prim.ray_intervals(origin, direction)
            if te >= tx:
                continue
            for t in (float(te), float(tx)):
                if t0 < t < t1:
                    cuts.append(t)
        ts = np.unique(np.asarray(cuts, dtype=np.float64))
        mids = origin + 0.5 * (ts[:-1] + ts[1:])[:, None] * direction
        seg_sigma = self.density_at(mids)
        return float(np.sum(seg_sigma * np.diff(ts)))

    def transmittance(self, origin, direction, t0: float, t1: float) -> float:
        """Closed-form exp(-integral of density) over the ray segment."""
        return float(np.exp(-self.optical_depth(origin, direction, t0, t1)))


def ground_truth_occupancy(scene: AnalyticScene, grid: VoxelGrid,
                           grid_to_world: Pose | None = None) -> VoxelGrid:
    """Boolean grid: a voxel is occupied iff its center lies in any primitive.

    Centers are taken one block of x-slices at a time
    (:meth:`VoxelGrid.center_blocks`), so memory beyond the output grid is
    O(block).
    """
    def occupied(centers):
        occ = np.zeros(len(centers), dtype=bool)
        for prim in scene.primitives:
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


def trilinear_corners(base: np.ndarray, frac, counts):
    """The eight corners of trilinear interpolation, one at a time.

    ``base`` (...) holds the flat index, into a C-ordered node array of
    shape ``counts``, of each query's lower cell corner, and ``frac``
    (3, ...) the query's offset within its cell along each axis, in
    [0, 1].  Yields (flat index, weight) per corner (dx, dy, dz) in
    lexicographic order; the weight is (wx * wy) * wz, where each factor
    is frac or 1 - frac.  wx * wy is taken once per (dx, dy) and each
    corner's index is one addition to ``base``.  A 1 - frac factor is
    made only while its half of the corners needs it, and no (..., 8)
    array is built, so a caller holds one corner's arrays at a time and
    at most two per-query weight arrays besides.  Each yielded array is
    new, so the caller may work in it in place.
    """
    ny, nz = counts[1], counts[2]
    fx, fy, fz = frac
    for dx in (0, 1):
        wx = fx if dx else 1 - fx
        for dy in (0, 1):
            wxy = wx * (fy if dy else 1 - fy)
            for dz in (0, 1):
                yield base + ((dx * ny + dy) * nz + dz), wxy * (fz if dz else 1 - fz)


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
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        res = np.asarray(self.resolution, dtype=np.float64)
        if res.ndim == 0:
            res = np.full(3, float(res))
        self.resolution = res.reshape(3)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 3 or any(n < 2 for n in self.theta.shape):
            raise ValueError("theta must be 3-D with at least 2 nodes per axis")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError(f"node origin {self.origin}: must be finite")
        if not np.all((self.resolution > 0) & (self.resolution < np.inf)):
            raise ValueError(
                f"node resolution {self.resolution}: must be finite and positive")

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
        return self.density_from(self.locate(pts))

    def density_from(self, loc: "Located") -> np.ndarray:
        """Density at located points, in their shape; zero outside the hull."""
        sp = softplus(self.theta).reshape(-1)
        inner = np.zeros(len(loc.base))
        for flat, w in trilinear_corners(loc.base, loc.frac, self.shape):
            w *= sp[flat]
            inner += w
        out = np.zeros(loc.inside.shape)
        out[loc.inside] = inner
        return out

    def density_gradient_wrt_params(self, point: np.ndarray):
        """Sparse d(sigma)/d(theta) at one point: (node indices (k,3), values (k,)).

        Each surrounding node contributes its trilinear weight times the
        softplus derivative sigmoid(theta_node); zero-weight corners are
        dropped, so a query exactly on a node returns a single entry.
        Outside the hull the gradient is empty.
        """
        loc = self.locate(np.asarray(point, dtype=np.float64).reshape(1, 3))
        if not loc.inside[0]:
            return np.zeros((0, 3), dtype=np.int64), np.zeros(0)
        cell, frac = np.unravel_index(loc.base[0], self.shape), loc.frac[:, 0]
        indices, values = [], []
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    w = ((frac[0] if dx else 1 - frac[0])
                         * (frac[1] if dy else 1 - frac[1])
                         * (frac[2] if dz else 1 - frac[2]))
                    if w == 0.0:
                        continue
                    node = (int(cell[0]) + dx, int(cell[1]) + dy, int(cell[2]) + dz)
                    indices.append(node)
                    values.append(w * float(sigmoid(self.theta[node])))
        return np.asarray(indices, dtype=np.int64), np.asarray(values)

    def accumulate_param_grad(self, pts: np.ndarray, dloss_dsigma: np.ndarray) -> np.ndarray:
        """Scatter dL/dsigma at many points into a dL/dtheta array."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        return self.param_grad_from(self.locate(pts), dloss_dsigma)

    def param_grad_from(self, loc: "Located", dloss_dsigma: np.ndarray) -> np.ndarray:
        """Scatter dL/dsigma at located points into a dL/dtheta array.

        Points outside the hull contribute nothing.  Bincount-based, in the
        points' C order, so the reduction order is fixed and runs are
        reproducible.
        """
        coeff = np.asarray(dloss_dsigma, dtype=np.float64).reshape(loc.inside.shape)[loc.inside]
        grad_flat = np.zeros(self.theta.size)
        for flat, w in trilinear_corners(loc.base, loc.frac, self.shape):
            w *= coeff
            grad_flat += np.bincount(flat, weights=w, minlength=self.theta.size)
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


@dataclass(frozen=True)
class IntervalScaledField:
    """Emulates a field trained under inverse-depth sampling.

    Inside ``region`` the raw density is chosen so that one sample interval
    of the given sampling configuration absorbs a fixed opacity: sigma(x) =
    -ln(1 - alpha_target) / delta(t), where t is the radial distance from
    ``ray_origin`` and delta(t) = t^2 (1/near - 1/far) / num_samples is the
    local interval length of inverse-depth sampling.  Raw density therefore
    scales with sample count and depth while per-sample opacity stays flat,
    which is exactly the behavior that breaks fixed raw-density thresholds.
    """

    region: object
    ray_origin: np.ndarray
    near: float
    far: float
    num_samples: int
    alpha_target: float = 0.55

    def __post_init__(self):
        if not (0.0 < self.alpha_target < 1.0):
            raise ValueError("alpha_target must lie in (0, 1)")
        if not (0.0 < self.near < self.far):
            raise ValueError("requires 0 < near < far")
        object.__setattr__(self, "ray_origin",
                           np.asarray(self.ray_origin, dtype=np.float64).reshape(3))

    def local_interval(self, dist: np.ndarray) -> np.ndarray:
        """Continuous inverse-depth interval length at radial distance dist."""
        return dist ** 2 * (1.0 / self.near - 1.0 / self.far) / self.num_samples

    def density_at(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=np.float64)
        dist = np.linalg.norm(p - self.ray_origin, axis=-1)
        dist = np.maximum(dist, 1e-12)
        sigma = -np.log1p(-self.alpha_target) / self.local_interval(dist)
        return np.where(self.region.contains(p), sigma, 0.0)
