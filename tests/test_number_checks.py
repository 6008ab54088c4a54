"""Every float a config, a camera, a primitive, a grid or an OGRD header
takes is checked by name: NaN and either infinity raise a ValueError that
names the field.  The fields are read from the classes' annotations, so a
float field added later is covered without editing the table."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from occrebench.field import Box, HalfSpace, Sphere, VoxelDensityField
from occrebench.geometry import CameraIntrinsics, FrustumSpec
from occrebench.gridio import HEADER, HeaderFieldError, grid_from_bytes
from occrebench.grids import VoxelGrid
from occrebench.losses import LossConfig
from occrebench.optim import TrainConfig
from occrebench.rendering import SamplingConfig

RGB = [0.5, 0.5, 0.5]

# A valid instance of each class, as keyword arguments (defaults fill the rest).
VALID = {
    TrainConfig: {},
    SamplingConfig: dict(num_samples=8, near=1.0, far=2.0),
    LossConfig: {},
    FrustumSpec: dict(near=1.0, far=2.0),
    CameraIntrinsics: dict(fx=10.0, fy=10.0, cx=3.0, cy=3.0, width=8, height=6),
    Box: dict(min_corner=[0.0, 0.0, 0.0], max_corner=[1.0, 1.0, 1.0], density=1.0,
              albedo=RGB),
    Sphere: dict(center=[0.0, 0.0, 0.0], radius=1.0, density=1.0, albedo=RGB),
    HalfSpace: dict(axis=1, offset=0.0, side=1, density=1.0, albedo=RGB),
    VoxelGrid: dict(origin=[0.0, 0.0, 0.0], counts=(2, 2, 2), resolution=1.0,
                    values=np.zeros((2, 2, 2), dtype=bool)),
    VoxelDensityField: dict(origin=[0.0, 0.0, 0.0], resolution=1.0,
                            theta=np.zeros((2, 2, 2))),
}

# Payloads, not settings: a grid's values are any array, and a NaN theta
# raises where evaluation reads its density.
PAYLOADS = {"values", "theta"}


def with_entry(value, bad):
    """``value`` with ``bad`` in place of it, or of its second entry."""
    if np.ndim(value) == 0:
        return bad
    out = np.array(value, dtype=np.float64)
    out.flat[1] = bad
    return out


def construct(cls, name, bad):
    kwargs = dict(VALID[cls])
    default = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs[name] = with_entry(kwargs.get(name, default[name]), bad)
    cls(**kwargs)


def header_with(index, bad):
    """A one-voxel OGRD file whose ``index``-th f64 header value (origin
    x, y, z, then resolution x, y, z) is ``bad``."""
    floats = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    floats[index] = bad
    grid_from_bytes(HEADER.pack(b"OGRD", 1, 0, 1, 1, 1, 1, *floats) + b"\x01")


CASES = [(f"{cls.__name__}.{f.name}", f.name, ValueError,
          lambda bad, cls=cls, name=f.name: construct(cls, name, bad))
         for cls in VALID for f in dataclasses.fields(cls)
         if f.type in ("float", "np.ndarray") and f.name not in PAYLOADS]
CASES += [(f"OGRD.{name}[{index % 3}]", name, HeaderFieldError,
           lambda bad, index=index: header_with(index, bad))
          for index, name in enumerate(["origin"] * 3 + ["resolution"] * 3)]


def test_the_table_holds_every_float_field():
    """The annotation filter found the fields it should (a renamed type
    would otherwise drop them silently)."""
    fields = {case[0] for case in CASES}
    assert {"TrainConfig.far", "TrainConfig.learning_rate", "TrainConfig.eps",
            "SamplingConfig.near", "LossConfig.lambda_p", "CameraIntrinsics.cx",
            "Box.min_corner", "Sphere.radius", "HalfSpace.offset", "VoxelGrid.resolution",
            "VoxelDensityField.origin", "OGRD.resolution[2]"} <= fields


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field, error, make", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_non_finite_number_names_its_field(field, error, make, bad):
    """At the parent, SamplingConfig and TrainConfig took an infinite far
    bound (training then failed in the loss, naming no field), and
    TrainConfig an infinite learning_rate, lr_decay_factor or eps."""
    with pytest.raises(error, match=field):
        make(bad)


SCALAR_CASES = [(f"{cls.__name__}.{f.name}", f.name,
                 lambda bad, cls=cls, name=f.name: construct(cls, name, bad))
                for cls in VALID for f in dataclasses.fields(cls) if f.type == "float"]


@pytest.mark.parametrize("bad", ["0.5", None, True], ids=["str", "None", "bool"])
@pytest.mark.parametrize("field, make", [case[1:] for case in SCALAR_CASES],
                         ids=[case[0] for case in SCALAR_CASES])
def test_non_number_names_its_field(field, make, bad):
    """A string, None or a bool in a scalar float field raises a ValueError
    that names the field.  A string or None used to raise numpy's bare
    TypeError, which names no field, and True passed as 1.0."""
    with pytest.raises(ValueError, match=field):
        make(bad)
