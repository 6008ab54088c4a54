"""Binary voxel-grid file format.

Little-endian throughout:

    offset  size  field
    0       4     magic "OGRD"
    4       2     format version (u16), currently 1
    6       1     frame tag (u8): 0 = voxel frame, 1 = camera frame
    7       1     dtype code (u8): 0 = f32 scalars, 1 = u8 booleans {0,1}
    8       12    counts (3 x u32): nx, ny, nz
    20      24    origin (3 x f64)
    44      24    resolution (3 x f64)
    68      ...   payload, row-major with x fastest

Round-trips are bit-exact; the frozen test vectors
tests/data/bool_2x3x4.ogrd and tests/data/f32_3x2x2.ogrd pin the layout,
and any header change requires a version bump.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .grids import FRAME_CAMERA, FRAME_VOXEL, VoxelGrid, lattice

MAGIC = b"OGRD"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sHBB3I3d3d")

_FRAME_CODES = {FRAME_VOXEL: 0, FRAME_CAMERA: 1}
_FRAME_NAMES = {v: k for k, v in _FRAME_CODES.items()}
DTYPE_F32 = 0
DTYPE_BOOL = 1


class GridFormatError(ValueError):
    """Base class for voxel-grid file errors."""


class BadMagicError(GridFormatError):
    pass


class UnsupportedVersionError(GridFormatError):
    pass


class TruncatedFileError(GridFormatError):
    pass


class HeaderFieldError(GridFormatError):
    pass


class PayloadValueError(GridFormatError):
    pass


# Voxels per edge of the tiles a boolean payload is reordered in: a tile's
# source and destination bytes stay in cache together.
TILE = 32


def _zyx_bytes(values: np.ndarray) -> np.ndarray:
    """A boolean payload's bytes in the file's order, (z, y, x) in C order,
    copied a ``TILE``-voxel cube at a time: 2.2 ms against 6.9 ms for one
    transposed copy of a 256 x 256 x 32 grid on 2 vCPUs."""
    nx, ny, nz = values.shape
    src = values.view(np.uint8)
    out = np.empty((nz, ny, nx), dtype=np.uint8)
    for x in range(0, nx, TILE):
        for y in range(0, ny, TILE):
            for z in range(0, nz, TILE):
                out[z:z + TILE, y:y + TILE, x:x + TILE] = \
                    src[x:x + TILE, y:y + TILE, z:z + TILE].transpose(2, 1, 0)
    return out


def _grid_parts(grid: VoxelGrid) -> tuple:
    """The header, and the payload converted in one copy: the file's bytes
    are its only other copy (``test_gridio.py::test_write_holds_two_payloads``)."""
    code = DTYPE_BOOL if grid.values.dtype == bool else DTYPE_F32
    # x fastest: (z, y, x) in C order; as bytes, a bool payload is copied, not cast
    payload = (_zyx_bytes(grid.values) if code == DTYPE_BOOL
               else np.ascontiguousarray(grid.values.transpose(2, 1, 0), dtype="<f4"))
    nx, ny, nz = grid.counts
    header = HEADER.pack(MAGIC, FORMAT_VERSION, _FRAME_CODES[grid.frame], code,
                         nx, ny, nz, *grid.origin, *grid.resolution)
    return header, payload.data


def grid_to_bytes(grid: VoxelGrid) -> bytes:
    """The file's bytes, the parts :func:`write_voxel_grid` writes joined."""
    return b"".join(_grid_parts(grid))


def grid_from_bytes(data) -> VoxelGrid:
    """The grid of a file's bytes; a boolean grid views them (writable if ``data`` is)."""
    if len(data) < HEADER.size:
        raise TruncatedFileError(
            f"file shorter than the {HEADER.size}-byte header")
    (magic, version, frame_code, dtype_code,
     nx, ny, nz, ox, oy, oz, rx, ry, rz) = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")
    if frame_code not in _FRAME_NAMES:
        raise HeaderFieldError(f"unknown frame tag {frame_code}")
    if dtype_code not in (DTYPE_F32, DTYPE_BOOL):
        raise HeaderFieldError(f"unknown dtype code {dtype_code}")
    if min(nx, ny, nz) < 1:
        raise HeaderFieldError(f"counts {(nx, ny, nz)}: each must be >= 1")
    try:
        origin, resolution = lattice((ox, oy, oz), (rx, ry, rz))
    except ValueError as e:
        raise HeaderFieldError(str(e)) from None
    n = nx * ny * nz
    itemsize = 4 if dtype_code == DTYPE_F32 else 1
    expected = HEADER.size + n * itemsize
    if len(data) != expected:
        raise TruncatedFileError(
            f"payload size mismatch: file has {len(data)} bytes, header "
            f"implies {expected}")
    raw = np.frombuffer(data, offset=HEADER.size,
                        dtype="<f4" if dtype_code == DTYPE_F32 else np.uint8)
    if dtype_code == DTYPE_BOOL and raw.max() > 1:
        raise PayloadValueError(
            f"payload: boolean byte {int(raw.max())} outside {{0, 1}}")
    values = raw.reshape(nz, ny, nx).transpose(2, 1, 0)
    values = values.view(bool) if dtype_code == DTYPE_BOOL else values.astype(np.float64)
    return VoxelGrid(origin=origin, counts=(nx, ny, nz),
                     resolution=resolution, values=values,
                     frame=_FRAME_NAMES[frame_code])


def atomic_write_bytes(path, *parts) -> None:
    """Write the bytes-like ``parts``, in order, via temp-file-then-rename
    so readers never see partial files."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-ogrd-")
    try:
        with os.fdopen(fd, "wb") as f:
            for data in parts:
                f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_voxel_grid(path, grid: VoxelGrid) -> None:
    atomic_write_bytes(path, *_grid_parts(grid))


def read_voxel_grid(path) -> VoxelGrid:
    with open(path, "rb") as f:
        data = bytearray(os.fstat(f.fileno()).st_size + 1)   # a byte more shows a grown file
        return grid_from_bytes(memoryview(data)[:f.readinto(data)])
