"""Pinhole cameras, rigid poses, rays, the frustum-normalizing coordinate map, workspaces.

Conventions used throughout the package:

* Camera frame: x right, y down, z forward (optical axis = +z).
* Integer pixel (u, v) addresses the pixel center; the image spans
  u in [0, w-1], v in [0, h-1].
* A ``Pose`` is the rigid map ``y = R @ x + t``.  Camera poses stored on a
  ``CameraView`` are camera-to-world.
* The transformed coordinate system (TCS) normalizes the view frustum to
  the unit cube: x = u/(w-1), y = v/(h-1), and z is the inverse radial
  distance rescaled so the near bound maps to 0 and the far bound to 1.

All math is float64; round-trip contracts are asserted at 1e-9.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

_ORTHO_TOL = 1e-9


class Workspace:
    """A stack of byte buffers: :meth:`take` views the next as an array,
    growing it if too small, and a ``with`` block gives back on exit what
    it took, so arrays whose lifetimes do not overlap share memory, and a
    pass taking the same arrays every call allocates on its first only."""

    def __init__(self):
        self._slots, self._frames, self._top = [], [], 0   # slot: buffer, (shape, dtype), array

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        if self._top == len(self._slots):
            self._slots.append((np.empty(0, np.uint8), None, None))
        buf, key, array = self._slots[self._top]
        if key != (shape, dtype):   # else the array taken here last serves again
            count = shape if isinstance(shape, (int, np.integer)) else math.prod(shape)
            nbytes = int(count) * np.dtype(dtype).itemsize
            buf = buf if buf.size >= nbytes else np.empty(nbytes, np.uint8)
            array = buf[:nbytes].view(dtype).reshape(shape)
            self._slots[self._top] = buf, (shape, dtype), array
        self._top += 1
        return array

    def __enter__(self):
        self._frames.append(self._top)
        return self

    def __exit__(self, *exc):
        self._top = self._frames.pop()


def rotation_y(angle_rad: float) -> np.ndarray:
    """Rotation matrix about the y axis by ``angle_rad``."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def check_int(name: str, value, least: int) -> None:
    """Raise, naming the field, unless ``value`` is an int (a bool is not)
    of at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def check_real(name: str, value, least=None, above=None) -> None:
    """Raise, naming the field, unless ``value`` (a real number, not a
    bool, or an array checked entry by entry) is finite and, where a bound
    is given, at least ``least`` or strictly above ``above``.  Python
    numbers compare in Python: a config is checked on every set-up, and
    numpy calls cost more than the comparisons."""
    for x in (value.ravel().tolist() if isinstance(value, np.ndarray) else (value,)):
        # a float, the common case, skips the slower ABC check
        if type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(x) and (least is None or x >= least)
                and (above is None or x > above)):
            bound = (f" and >= {least}" if least is not None
                     else f" and > {above}" if above is not None else "")
            raise ValueError(f"{name} {value}: must be finite{bound}")


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics (no skew, no distortion), sizes in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy"):
            check_real(name, getattr(self, name), above=0)
        for name in ("cx", "cy"):
            check_real(name, getattr(self, name))
        for name in ("width", "height"):   # TCS divides by w-1, h-1
            check_int(name, getattr(self, name), 2)


@dataclass(frozen=True)
class Pose:
    """Rigid transform y = rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = _as_vec3(self.translation)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        # NaN would pass the tolerance tests below: comparisons with it are false.
        check_real("rotation", r)
        check_real("translation", t)
        if np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant must be +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transform points of shape (..., 3) into a column-major result of
        that shape: ``out[..., a]`` is contiguous, as its readers walk it.
        ``R @ points.T`` is faster than ``points @ R.T``, with the same bits;
        ``out`` may give the (3, points) columns."""
        pts = np.asarray(points, dtype=np.float64)
        cols = np.matmul(self.rotation, pts.reshape(-1, 3).T, out=out)
        cols += self.translation[:, None]
        return cols.T.reshape(pts.shape)

    def rotate(self, vectors: np.ndarray) -> np.ndarray:
        """Rotate direction vectors (no translation)."""
        return np.asarray(vectors, dtype=np.float64) @ self.rotation.T

    def compose(self, other: "Pose") -> "Pose":
        """Return the pose applying ``other`` first, then ``self``."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)


@dataclass(frozen=True)
class FrustumSpec:
    """Near/far bounds of the rendering frustum, in meters: the one depth
    range rule, which ``SamplingConfig`` and ``TrainConfig`` apply too.  A
    finite far bound keeps the last sample interval, and so its opacity,
    finite."""

    near: float
    far: float

    def __post_init__(self):
        check_real("far", self.far)
        check_real("near", self.near, above=0)
        if not self.near < self.far:
            raise ValueError(f"near {self.near}: must be below far {self.far}")


@dataclass(frozen=True)
class CameraView:
    """One rig entry: intrinsics, camera-to-world pose, and frustum bounds."""

    intrinsics: CameraIntrinsics
    pose: Pose = field(default_factory=Pose.identity)
    frustum: FrustumSpec = FrustumSpec(0.1, 100.0)

    @property
    def position(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return self.pose.translation

    def world_rays(self, pixels_uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World-frame (origins, unit directions) for pixel coords (..., 2)."""
        dirs_cam = pixel_directions(self.intrinsics, pixels_uv)
        dirs = self.pose.rotate(dirs_cam)
        origins = np.broadcast_to(self.position, dirs.shape)
        return origins, dirs


def pixel_directions(intr: CameraIntrinsics, pixels_uv: np.ndarray) -> np.ndarray:
    """Unit camera-frame directions for pixel coordinates of shape (..., 2)."""
    uv = np.asarray(pixels_uv, dtype=np.float64)
    x = (uv[..., 0] - intr.cx) / intr.fx
    y = (uv[..., 1] - intr.cy) / intr.fy
    d = np.stack([x, y, np.ones_like(x)], axis=-1)
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def all_pixel_coords(intr: CameraIntrinsics) -> np.ndarray:
    """Pixel-center coordinates for the full image, shape (w, h, 2).

    Indexed [u, v] to match the opacity-map layout.
    """
    us = np.arange(intr.width, dtype=np.float64)
    vs = np.arange(intr.height, dtype=np.float64)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    return np.stack([uu, vv], axis=-1)


def project(intr: CameraIntrinsics, points_cam: np.ndarray, out=None):
    """Perspective-project camera-frame points (..., 3) to (u, v, z).

    z is returned unmodified so callers can classify behind-camera points
    (z <= 0); z == 0 yields non-finite (u, v).  :func:`in_image` treats
    both as outside the image.  ``out`` may give the arrays for u and v,
    which may be the points' x and y.
    """
    pts = np.asarray(points_cam, dtype=np.float64)
    z = pts[..., 2]
    u, v = (None, None) if out is None else out
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.add(np.divide(np.multiply(intr.fx, pts[..., 0], out=u), z, out=u), intr.cx, out=u)
        v = np.add(np.divide(np.multiply(intr.fy, pts[..., 1], out=v), z, out=v), intr.cy, out=v)
    return u, v, z


def in_image(intr: CameraIntrinsics, u: np.ndarray, v: np.ndarray,
             z: np.ndarray) -> np.ndarray:
    """True where a projection (u, v, z) lies in front of the camera and on
    the image, edges included: z > 0, 0 <= u <= w-1 and 0 <= v <= h-1.

    Requiring z > 0 makes the non-finite (u, v) that :func:`project`
    returns at z == 0 count as outside.
    """
    return ((z > 0) & (u >= 0) & (u <= intr.width - 1)
            & (v >= 0) & (v <= intr.height - 1))


def ccs_to_tcs(points_cam: np.ndarray, intr: CameraIntrinsics,
               fr: FrustumSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Map camera-frame points into the normalized frustum cube.

    x = u/(w-1), y = v/(h-1),
    z = (1/near - 1/|x_c|) / (1/near - 1/far).

    Points on the image with radial distance in [near, far] land in [0,1]^3.
    Requires strictly positive depth and nonzero norm; a NaN coordinate
    fails both.  The result is stored one coordinate at a time
    (``out[..., a]`` contiguous), the order the opacity-map lookup reads;
    ``out`` may give the (3, ...) rows it is written into, which must not
    overlap the points.
    """
    pts = np.asarray(points_cam, dtype=np.float64)
    x, y, z = (pts[..., a] for a in range(3))
    rows = np.empty((3,) + pts.shape[:-1]) if out is None else out
    u, v, norm = (rows[a, ...] for a in range(3))
    # the (x0 + x1) + x2 fold of np.linalg.norm along a length-3 axis
    np.multiply(x, x, out=norm)
    norm += np.multiply(y, y, out=u)
    norm += np.multiply(z, z, out=u)
    np.sqrt(norm, out=norm)
    if not np.all(norm > 0.0):
        raise ValueError("ccs_to_tcs: zero-norm or NaN input point")
    if not np.all(z > 0.0):
        raise ValueError("ccs_to_tcs: point has nonpositive or NaN depth (outside frustum)")
    project(intr, pts, out=(u, v))
    u /= intr.width - 1.0
    v /= intr.height - 1.0
    zt = np.divide(1.0, norm, out=norm)
    np.subtract(1.0 / fr.near, zt, out=zt)
    zt /= 1.0 / fr.near - 1.0 / fr.far
    return np.moveaxis(rows, 0, -1)
