"""Visibility disagreement rates across fixture families: the voxel-size
march of ``visibility_mask`` against the quarter-step brute-force oracle of
``test_benchmark``, on the voxels both cover (the march's cover is that of
``test_benchmark.full_march``, its oracle).

Run as ``PYTHONPATH=src python tests/vis_probe.py``; ``test_vis_probe.py``
runs one trial of it on both rigs.
"""
import numpy as np

from occrebench.benchmark import visibility_mask
from occrebench.geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose
from occrebench.grids import VoxelGrid

from test_benchmark import BruteForceVisibility, full_march


RIGS = ((32, 24, 24.0), (48, 36, 36.0))


def run(kind, intr_wfx, trials=25, seed=7):
    """Print, and return, the disagreements, the voxels both cover and the
    grids with any disagreement, over ``trials`` random grids."""
    w, h, fx = intr_wfx
    intr = CameraIntrinsics(fx, fx, (w - 1) / 2, (h - 1) / 2, w, h)
    view = CameraView(intr, Pose.identity(), FrustumSpec(0.5, 100.0))
    t_vc = Pose.identity()
    rng = np.random.default_rng(seed)
    grid0 = VoxelGrid([-2.0, -2.0, 2.0], (16, 16, 16), 0.25, np.zeros((16,) * 3, bool))
    centers = grid0.centers()
    dis = both = bad_grids = 0
    for _ in range(trials):
        occ = np.zeros((16, 16, 16), bool)
        if kind == "blobs":
            for _ in range(3):
                c = rng.uniform([-1.5, -1.5, 2.5], [1.5, 1.5, 5.5])
                s = rng.uniform(0.3, 0.9, 3)
                occ |= np.all(np.abs(centers - c) <= s, axis=-1)
        elif kind.startswith("sparse"):
            n = int(kind[6:])
            flat = rng.choice(16 ** 3, size=n, replace=False)
            occ.reshape(-1)[flat] = True
        else:
            occ = rng.random((16, 16, 16)) < float(kind)
        grid = grid0.like(occ)
        mv = visibility_mask(grid, view, t_vc).values
        mv_o, cov_o = BruteForceVisibility.run(grid, view, t_vc, 0.25 / 4)
        b = full_march(grid, view, t_vc)[1] & cov_o
        d = int(((mv != mv_o) & b).sum())
        dis += d
        both += int(b.sum())
        bad_grids += d > 0
    print(f"{kind:10s} img={w}x{h} fx={fx}: {dis:5d}/{both} disagreements, "
          f"{bad_grids}/{trials} grids affected")
    return dis, both, bad_grids


if __name__ == "__main__":
    for rig in RIGS:
        for kind in ("sparse8", "sparse24", "sparse64", "blobs", "0.5"):
            run(kind, rig)
