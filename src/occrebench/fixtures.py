"""Canonical synthetic fixtures used by the tests and the benchmark.

These are deliberately simple room-scale scenes with exact ground truth.
``standard_occluder()`` is the reference setup for occlusion studies: a
thick colored box hides its own interior and a slice of the back wall from
the target camera while two side cameras see around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import AnalyticScene, Box, HalfSpace, VoxelDensityField
from .geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose, rotation_y
from .grids import VoxelGrid
from .optim import EvalSetup, TrainConfig


def yawed_view(intr: CameraIntrinsics, fr: FrustumSpec, position,
               yaw_deg: float) -> CameraView:
    return CameraView(intr, Pose(rotation_y(np.deg2rad(yaw_deg)),
                                 np.asarray(position, dtype=np.float64)), fr)


@dataclass
class OccluderFixture:
    scene: AnalyticScene
    views: list
    base_field: VoxelDensityField
    eval_setup: EvalSetup
    train_config: TrainConfig


def standard_occluder(iterations: int = 350, seed: int = 0) -> OccluderFixture:
    """Thick red box in front of a blue wall over a gray ground plane.

    The target camera sits at the origin looking +z; two sources flank it
    and look slightly inward, so the box's flanks and parts of the region
    it hides from the target stay photometrically constrained.  The box
    interior and the wall slice behind it are invisible-but-occupied: the
    region the polarization mechanism is meant to help with.
    """
    scene = AnalyticScene((
        Box([-1.1, -0.9, 5.2], [1.1, 1.4, 7.4], density=60.0,
            albedo=[0.85, 0.15, 0.10]),
        Box([-4.5, -2.2, 8.6], [4.5, 1.4, 9.6], density=60.0,
            albedo=[0.10, 0.20, 0.80]),
        HalfSpace(axis=1, offset=1.4, side=1, density=60.0,
                  albedo=[0.45, 0.45, 0.45]),
    ), background=np.zeros(3))

    intr = CameraIntrinsics(fx=31.5, fy=31.5, cx=31.5, cy=23.5, width=64, height=48)
    fr = FrustumSpec(2.5, 12.0)
    views = [
        CameraView(intr, Pose.identity(), fr),
        yawed_view(intr, fr, [1.9, -0.35, -0.4], -14.0),
        yawed_view(intr, fr, [-1.9, -0.35, -0.4], 14.0),
    ]

    base_field = VoxelDensityField.uniform(
        origin=[-4.2, -2.1, 2.0], resolution=0.4, shape=(22, 10, 21), sigma0=0.05)

    grid = VoxelGrid.filled([-3.0, -1.6, 3.0], (20, 11, 21), 0.3, False,
                            dtype=bool, frame="camera")
    eval_setup = EvalSetup(grid=grid, grid_to_world=Pose.identity(),
                           view_index=0, num_samples=128)

    cfg = TrainConfig(iterations=iterations, seed=seed, near=fr.near, far=fr.far,
                      num_samples=48, lr_decay_start=int(iterations * 0.6))
    return OccluderFixture(scene=scene, views=views, base_field=base_field,
                           eval_setup=eval_setup, train_config=cfg)
