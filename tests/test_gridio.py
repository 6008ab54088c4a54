"""The OGRD voxel-grid file format: frozen vectors, error classes, and the
atomic writer."""

from __future__ import annotations

import io
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from occrebench.gridio import (HEADER, TILE, BadMagicError, GridFormatError,
                               HeaderFieldError, PayloadValueError,
                               TruncatedFileError, UnsupportedVersionError,
                               atomic_write_bytes, grid_from_bytes, grid_to_bytes,
                               read_voxel_grid, write_voxel_grid)
from occrebench.grids import VoxelGrid

from test_center_blocks import excess_peak

DATA = Path(__file__).with_name("data")


def bool_grid() -> VoxelGrid:
    return VoxelGrid(origin=[-1.0, 0.5, 2.0], counts=(2, 3, 4), resolution=[0.25, 0.5, 1.0],
                     values=np.arange(24).reshape(2, 3, 4) % 3 == 0, frame="voxel")


def f32_grid() -> VoxelGrid:
    values = np.linspace(-1.5, 2.0, 12).reshape(3, 2, 2).astype(np.float32)
    return VoxelGrid(origin=[0.0, -2.0, 3.5], counts=(3, 2, 2), resolution=[0.2, 0.2, 0.4],
                     values=values.astype(np.float64), frame="camera")


def assert_same_grid(a: VoxelGrid, b: VoxelGrid) -> None:
    assert a.same_geometry(b) and a.frame == b.frame
    assert a.values.dtype == b.values.dtype
    assert np.array_equal(a.values, b.values)


def test_same_geometry_is_exact():
    """Grids one ulp apart in origin or resolution differ in geometry."""
    a = bool_grid()
    assert a.same_geometry(bool_grid())
    for origin, res in ((np.nextafter(a.origin, np.inf), a.resolution),
                        (a.origin, np.nextafter(a.resolution, 0.0))):
        assert not a.same_geometry(VoxelGrid(origin, a.counts, res, a.values))


@pytest.mark.parametrize("name, make, frame_code, dtype_code, item", [
    ("bool_2x3x4.ogrd", bool_grid, 0, 1, "<u1"),
    ("f32_3x2x2.ogrd", f32_grid, 1, 0, "<f4"),
])
def test_frozen_vector(name, make, frame_code, dtype_code, item):
    data = (DATA / name).read_bytes()
    grid = make()
    assert grid_to_bytes(grid) == data
    # The header, spelled out field by field.
    nx, ny, nz = grid.counts
    header = (b"OGRD" + struct.pack("<H", 1) + bytes([frame_code, dtype_code])
              + struct.pack("<3I", nx, ny, nz)
              + struct.pack("<3d", *grid.origin) + struct.pack("<3d", *grid.resolution))
    assert data[:68] == header
    # The payload, x fastest.
    payload = np.frombuffer(data, dtype=item, offset=68)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                assert payload[(k * ny + j) * nx + i] == grid.values[i, j, k]
    assert_same_grid(read_voxel_grid(DATA / name), grid)


def test_write_read_round_trip(tmp_path):
    for grid in (bool_grid(), f32_grid()):
        path = tmp_path / "grid.ogrd"
        write_voxel_grid(path, grid)
        assert_same_grid(read_voxel_grid(path), grid)


@pytest.mark.parametrize("counts", [(1, 1, 1), (TILE, TILE, TILE), (TILE + 1, 2 * TILE - 1, 3),
                                    (5, TILE + 7, 2 * TILE + 1), (70, 3, 40)])
def test_boolean_payload_is_x_fastest_across_tiles(counts):
    """Counts that are not multiples of the tile, on either side of it, and
    a payload given as a transposed view: the bytes are the payload
    transposed whole."""
    values = np.random.default_rng(sum(counts)).random(counts[::-1]) < 0.5
    for payload in (np.ascontiguousarray(values.transpose(2, 1, 0)), values.transpose(2, 1, 0)):
        data = grid_to_bytes(VoxelGrid([0.0, 0.0, 0.0], counts, 0.5, payload))
        assert data[HEADER.size:] == np.ascontiguousarray(
            payload.transpose(2, 1, 0)).view(np.uint8).tobytes()


def test_write_holds_two_payloads(tmp_path):
    """Writing a 2 MiB boolean grid holds the converted payload and the
    file's bytes, and no third copy (1 KiB of slack for small objects)."""
    grid = VoxelGrid([0.0, 0.0, 0.0], (128, 128, 128), 0.2,
                     np.random.default_rng(5).random((128, 128, 128)) < 0.5)
    peak = excess_peak(lambda: write_voxel_grid(tmp_path / "g.ogrd", grid), 0)
    assert peak <= 2 * grid.num_voxels + 1024, peak / grid.num_voxels
    assert np.array_equal(read_voxel_grid(tmp_path / "g.ogrd").values, grid.values)


def patched(data: bytes, offset: int, new: bytes) -> bytes:
    return data[:offset] + new + data[offset + len(new):]


@pytest.mark.parametrize("mutate, error", [
    (lambda d: patched(d, 0, b"OGRX"), BadMagicError),
    (lambda d: patched(d, 4, struct.pack("<H", 2)), UnsupportedVersionError),
    (lambda d: d[:67], TruncatedFileError),
    (lambda d: d[:-1], TruncatedFileError),
    (lambda d: d + b"\x00", TruncatedFileError),
    (lambda d: patched(d, 6, bytes([2])), HeaderFieldError),
    (lambda d: patched(d, 7, bytes([2])), HeaderFieldError),
])
def test_malformed_files_rejected(mutate, error):
    data = grid_to_bytes(bool_grid())
    with pytest.raises(error):
        grid_from_bytes(mutate(data))
    assert issubclass(error, GridFormatError) and issubclass(error, ValueError)


def one_byte_file(counts=(1, 1, 1), origin=(0.0, 0.0, 0.0),
                  resolution=(1.0, 1.0, 1.0), payload=b"\x01") -> bytes:
    """A voxel-frame boolean file with the given header values."""
    return HEADER.pack(b"OGRD", 1, 0, 1, *counts, *origin, *resolution) + payload


def assert_rejected(data: bytes, error, field: str) -> None:
    with pytest.raises(error, match=field):
        grid_from_bytes(data)
    assert issubclass(error, GridFormatError)


@pytest.mark.parametrize("data, field", [
    (one_byte_file(counts=(0, 1, 1), payload=b""), "counts"),
    (one_byte_file(resolution=(1.0, -0.5, 1.0)), "resolution"),
    (one_byte_file(resolution=(1.0, 1.0, 0.0)), "resolution"),
])
def test_header_values_the_grid_rejects_name_their_field(data, field):
    """Values VoxelGrid refuses fail as a format error, not a bare ValueError."""
    assert_rejected(data, HeaderFieldError, field)


@pytest.mark.parametrize("data, field", [
    (one_byte_file(origin=(0.0, np.nan, 0.0)), "origin"),
    (one_byte_file(origin=(np.inf, 0.0, 0.0)), "origin"),
    (one_byte_file(resolution=(np.nan, 1.0, 1.0)), "resolution"),
    (one_byte_file(resolution=(1.0, 1.0, np.inf)), "resolution"),
])
def test_non_finite_header_values_rejected(data, field):
    assert_rejected(data, HeaderFieldError, field)


@pytest.mark.parametrize("byte", [2, 7, 255])
def test_boolean_payload_byte_outside_0_1_rejected(byte):
    assert_rejected(one_byte_file(payload=bytes([byte])), PayloadValueError, "payload")


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.ogrd"
    with pytest.raises(TypeError):
        atomic_write_bytes(path, "text, not bytes")
    assert os.listdir(tmp_path) == []


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, b"first version, longer")
    atomic_write_bytes(path, b"second")
    assert path.read_bytes() == b"second"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_read_holds_one_payload(tmp_path):
    """Reading a 2 MiB boolean grid holds the file's bytes, which the
    grid's values view, and no second copy (slack: the file object's
    buffer and 1 KiB)."""
    grid = VoxelGrid([0.0, 0.0, 0.0], (128, 128, 128), 0.2,
                     np.random.default_rng(5).random((128, 128, 128)) < 0.5)
    write_voxel_grid(tmp_path / "g.ogrd", grid)
    peak = excess_peak(lambda: read_voxel_grid(tmp_path / "g.ogrd"), 0)
    assert peak <= grid.num_voxels + io.DEFAULT_BUFFER_SIZE + 1024, peak / grid.num_voxels
    assert_same_grid(read_voxel_grid(tmp_path / "g.ogrd"), grid)


def test_a_file_grown_or_cut_is_rejected(tmp_path):
    """The read takes the file's bytes as it finds them: a byte more or
    less than the header implies fails as a format error."""
    path = tmp_path / "g.ogrd"
    for data in (grid_to_bytes(bool_grid()) + b"\x00", grid_to_bytes(bool_grid())[:-1]):
        path.write_bytes(data)
        with pytest.raises(TruncatedFileError):
            read_voxel_grid(path)
