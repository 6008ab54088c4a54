"""Axis-aligned voxel grids carrying scalar or boolean payloads.

A grid is described by the coordinates of its minimum corner (``origin``),
per-axis voxel counts, and per-axis voxel edge lengths.  Voxel (i, j, k)
occupies the box ``origin + (i, j, k) * resolution`` to
``origin + (i+1, j+1, k+1) * resolution``; its center sits at
``origin + (i+0.5, j+0.5, k+0.5) * resolution``.

Payloads are indexed ``values[i, j, k]`` (x, y, z).  The ``frame`` tag
records whether grid coordinates live in the dedicated voxel frame or
directly in a camera frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import check_int, check_real

FRAME_VOXEL = "voxel"
FRAME_CAMERA = "camera"

# Voxels per block of :meth:`VoxelGrid.center_blocks` (whole x-slices; a
# block holds at least one slice whatever its size), and points per run of
# :func:`batches`.
BLOCK_VOXELS = 2 ** 16


def batches(size: int):
    """Slices of ``range(size)`` of ``BLOCK_VOXELS`` each, the last shorter:
    the runs in which a per-point stage walks its points."""
    return (slice(k, min(k + BLOCK_VOXELS, size)) for k in range(0, size, BLOCK_VOXELS))


def _voxel_counts(counts) -> tuple:
    """Three voxel counts as ints; a non-integer or one below 1 raises."""
    counts = tuple(np.asarray(counts, dtype=object).reshape(3))
    for c in counts:
        check_int("voxel counts", c, 1)
    return tuple(int(c) for c in counts)


def lattice(origin, resolution) -> tuple:
    """A lattice's origin and scalar-or-3 spacing as float 3-vectors.
    Raises, naming the field, unless the origin is finite and each spacing
    finite and positive."""
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    res = np.asarray(resolution, dtype=np.float64)
    res = np.full(3, float(res)) if res.ndim == 0 else res.reshape(3)
    check_real("origin", origin)
    check_real("resolution", res, above=0)
    return origin, res


@dataclass
class VoxelGrid:
    origin: np.ndarray
    counts: tuple
    resolution: np.ndarray
    values: np.ndarray
    frame: str = FRAME_VOXEL

    def __post_init__(self):
        self.counts = _voxel_counts(self.counts)
        self.origin, self.resolution = lattice(self.origin, self.resolution)
        if self.frame not in (FRAME_VOXEL, FRAME_CAMERA):
            raise ValueError(f"unknown frame tag {self.frame!r}")
        self.values = np.asarray(self.values)
        if self.values.shape != self.counts:
            raise ValueError(
                f"payload shape {self.values.shape} does not match counts {self.counts}")

    @classmethod
    def filled(cls, origin, counts, resolution, fill, dtype=None,
               frame: str = FRAME_VOXEL) -> "VoxelGrid":
        values = np.full(_voxel_counts(counts), fill, dtype=dtype)
        return cls(origin, counts, resolution, values, frame)

    def like(self, values: np.ndarray) -> "VoxelGrid":
        """New grid with the same geometry and a replaced payload."""
        return VoxelGrid(self.origin, self.counts, self.resolution, values, self.frame)

    @property
    def num_voxels(self) -> int:
        return int(np.prod(self.counts))

    @property
    def max_corner(self) -> np.ndarray:
        return self.origin + np.asarray(self.counts) * self.resolution

    def _center_axes(self) -> list:
        return [self.origin[a] + (np.arange(self.counts[a]) + 0.5) * self.resolution[a]
                for a in range(3)]

    def centers(self) -> np.ndarray:
        """Voxel centers, shape (nx, ny, nz, 3), in grid-frame coordinates."""
        return np.stack(np.meshgrid(*self._center_axes(), indexing="ij"), axis=-1)

    def centers_flat(self) -> np.ndarray:
        """Voxel centers flattened to (n, 3), x index varying slowest."""
        return self.centers().reshape(-1, 3)

    def center_blocks(self, pose=None):
        """Voxel centers in blocks of whole x-slices, x index slowest.

        Yields (x-index slice, (voxels in the block, 3) centers), column-major
        (``centers[:, a]`` contiguous) as every per-voxel stage reads them.
        The centers are taken to ``pose``'s frame here (a ``geometry.Pose``;
        the grid frame if None) and are bit-equal to the matching rows of
        ``pose.apply(centers_flat())``.  Every block is written into the
        same buffers, so a yielded block stays valid only until the next
        one is asked for; a caller that keeps one copies it.  A block holds
        as many whole slices as fit in ``BLOCK_VOXELS``, and at least one.
        No block is a single voxel unless the grid is: ``Pose.apply`` may
        round a one-row product differently from the same row among others
        (``test_center_blocks.py::test_apply_rows_do_not_depend_on_the_others``),
        so a one-voxel tail is folded into the block before it.
        """
        nx, ny, nz = self.counts
        per_block = max(1, BLOCK_VOXELS // (ny * nz))
        starts = list(range(0, nx, per_block))
        if ny * nz == 1 and len(starts) > 1 and nx - starts[-1] == 1:
            starts.pop()
        stops = starts[1:] + [nx]
        size = 3 * ny * nz * max(i1 - i0 for i0, i1 in zip(starts, stops))
        grid_buf = np.empty(size)
        pose_buf = None if pose is None else np.empty(size)
        ax, ay, az = self._center_axes()
        for i0, i1 in zip(starts, stops):
            m = (i1 - i0) * ny * nz
            xyz = grid_buf[:3 * m].reshape(3, i1 - i0, ny, nz)
            xyz[0] = ax[i0:i1, None, None]
            xyz[1] = ay[:, None]
            xyz[2] = az
            xyz = xyz.reshape(3, m).T
            if pose is not None:
                xyz = pose.apply(xyz, out=pose_buf[:3 * m].reshape(3, m))
            yield slice(i0, i1), xyz

    def map_centers(self, fn, pose=None) -> "VoxelGrid":
        """Boolean grid of ``fn(centers)`` over :meth:`center_blocks`.

        ``fn`` maps (m, 3) centers in ``pose``'s frame to m booleans; the
        result is written one block at a time, so memory beyond the output
        is O(block).  The output is allocated once the first block is done,
        so a grid that fits in one block peaks no higher than one all-at-once
        pass.
        """
        out = None
        for xs, centers in self.center_blocks(pose):
            block = fn(centers).reshape(-1, *self.counts[1:])
            if out is None:
                out = np.empty(self.counts, dtype=bool)
            out[xs] = block
        return self.like(out)

    def flat_index(self, columns) -> tuple[np.ndarray, np.ndarray]:
        """Flat voxel index (x slowest) and in-grid mask of points given as
        their three float64 coordinate columns, which are overwritten.

        Per axis, q = (p - origin) / resolution in place; a point is inside
        iff 0 <= q < count on every axis, tested on the float (half-open
        boxes; NaN and infinite coordinates are outside), and its index is
        trunc(q) there, which is its floor.  Outside, the index is arbitrary.
        Working one column at a time, in place, is several times faster than
        across (..., 3) arrays.
        """
        inside = flat = None
        for a, q in enumerate(columns):
            q -= self.origin[a]
            q /= self.resolution[a]
            ok = q >= 0
            ok &= q < self.counts[a]
            if flat is None:
                inside, flat = ok, q.astype(np.int64)
            else:
                inside &= ok
                flat *= self.counts[a]
                flat += q.astype(np.int64)
        return flat, inside

    def same_geometry(self, other: "VoxelGrid") -> bool:
        """Equal counts, and origin and resolution equal exactly."""
        return (self.counts == other.counts
                and np.array_equal(self.origin, other.origin)
                and np.array_equal(self.resolution, other.resolution))
