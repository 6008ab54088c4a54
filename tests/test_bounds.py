"""The in-bounds tests compare one column at a time; they must give the
booleans of the length-3 reductions they replaced, kept here as oracles, on
points on the faces and with NaN and infinite coordinates."""

from __future__ import annotations

import numpy as np
import pytest

from occrebench.field import Box, VoxelDensityField
from occrebench.grids import VoxelGrid

LO = np.array([-1.5, 0.25, 2.0])
HI = np.array([2.5, 1.75, 6.0])


def probe_points(seed: int, lo, hi, n: int = 4000) -> np.ndarray:
    """Random points around the box [lo, hi]; a third of the coordinates are
    replaced by a face coordinate, and some by NaN or an infinity."""
    rng = np.random.default_rng(seed)
    span = hi - lo
    pts = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, (n, 3))
    choice = rng.integers(0, 9, (n, 3))
    pts = np.where(choice == 0, lo, pts)
    pts = np.where(choice == 1, hi, pts)
    pts = np.where(choice == 2, np.nextafter(hi, -np.inf), pts)
    special = np.array([np.nan, np.inf, -np.inf])
    pts = np.where(choice == 3, special[rng.integers(0, 3, (n, 3))], pts)
    return pts


def shapes(pts: np.ndarray):
    """The points as (n, 3), (a, b, 3) and one point at a time, (3,)."""
    yield pts
    yield pts[:3960].reshape(60, 66, 3)
    for p in pts[:40]:
        yield p


@pytest.mark.parametrize("seed", range(3))
def test_box_contains_matches_the_reduction(seed):
    box = Box(LO, HI, 1.0, (0, 0, 0))
    pts = probe_points(seed, LO, HI)
    for p in shapes(pts):
        expect = np.all((p >= LO) & (p <= HI), axis=-1)
        got = box.contains(p)
        assert np.shape(got) == np.shape(expect)
        assert np.array_equal(got, expect)
    inside = box.contains(pts)
    assert inside.any() and not inside.all()
    assert box.contains(LO) and box.contains(HI)   # closed faces


@pytest.mark.parametrize("seed", range(3))
def test_point_to_index_matches_the_reduction(seed):
    grid = VoxelGrid(LO, (16, 6, 8), (0.25, 0.25, 0.5), np.zeros((16, 6, 8)))
    counts = np.asarray(grid.counts)
    pts = probe_points(seed, grid.origin, grid.max_corner)
    with np.errstate(invalid="ignore"):   # NaN and inf cast to int64
        for p in shapes(pts):
            idx = np.floor((p - grid.origin) / grid.resolution).astype(np.int64)
            expect = np.all((idx >= 0) & (idx < counts), axis=-1)
            got_idx, got = grid.point_to_index(p)
            assert np.shape(got) == np.shape(expect)
            assert np.array_equal(got, expect)
            assert np.array_equal(got_idx, np.clip(idx, 0, counts - 1))
        inside = grid.point_to_index(pts)[1]
    assert inside.any() and not inside.all()
    # half-open: the min face is inside, the max face is not
    assert grid.point_to_index(grid.origin)[1]
    assert not grid.point_to_index(grid.max_corner)[1]


@pytest.mark.parametrize("seed", range(3))
def test_locate_matches_the_reduction(seed):
    fld = VoxelDensityField(LO, (0.5, 0.25, 1.0), np.zeros((9, 7, 5)))
    n = np.asarray(fld.shape)
    pts = probe_points(seed, fld.origin, fld.max_corner)
    with np.errstate(invalid="ignore"):   # NaN and inf cast to int64
        for p in shapes(pts):
            rel = (p - fld.origin) / fld.resolution
            expect = np.all((rel >= 0.0) & (rel <= n - 1), axis=-1)
            got = fld.locate(p).inside
            assert np.shape(got) == np.shape(expect)
            assert np.array_equal(got, expect)
        inside = fld.locate(pts).inside
    assert inside.any() and not inside.all()
    # the hull is closed: both its faces are inside
    assert fld.locate(fld.origin).inside and fld.locate(fld.max_corner).inside
