"""The three benchmark workloads: inputs, one operation, and its checks.

Each workload is a closed loop driven by one client: ``op(state)`` runs one
operation to completion and the next starts only after it returns.
``setup(seed, workdir)`` builds every input from the seed alone.
``check(state, out)`` returns the list of problems with one operation's
output; an empty list means the output is correct.

* ``train_occluder`` - ``optim.train`` for ``TRAIN_ITERATIONS`` iterations
  on ``fixtures.standard_occluder``; one op is one iteration (call time
  divided by the iteration count).  Every training layer runs, no
  evaluation layer does.
* ``eval_kitti360`` - one full evaluation pass over the 2.1M-voxel
  ``sscbench-kitti360`` grid of a seeded street, ending with OGRD I/O of
  its four grids.  The voxel layers run, no training layer does.
* ``eval_occluder`` - one ``optim.evaluate_field`` on the occluder's 4,620
  voxel grid, where the dense opacity-map build dominates and per-call
  overhead in the voxel layers shows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from occrebench import benchmark, field, fixtures, gridio, optim, scenefile
from occrebench.field import VoxelDensityField, inverse_softplus
from occrebench.geometry import Pose
from occrebench.rendering import MODE_EVAL, SamplingConfig

REFERENCE_DIR = Path(__file__).with_name("reference")
DEFAULT_SEED = 0

# Training iterations per ``optim.train`` call.  The configuration is pinned
# here, not taken from the fixture or the ``TrainConfig`` defaults, so that
# changing either cannot silently change the benchmark's work.
TRAIN_ITERATIONS = 4
TRAIN_CONFIG = optim.TrainConfig(
    iterations=TRAIN_ITERATIONS, learning_rate=2e-4, lr_decay_factor=2.0,
    lr_decay_start=int(0.6 * TRAIN_ITERATIONS), beta1=0.9, beta2=0.999, eps=1e-8,
    patch_count=64, patch_size=8, seed=DEFAULT_SEED, lambda_r=1.0, lambda_p=1e-3,
    num_samples=48, near=2.5, far=12.0)
# Tolerance on trained parameters and losses against the reference.
TRAIN_TOL = 1e-12

# Density the evaluation fields give nodes inside / outside a primitive.
SIGMA_INSIDE = 60.0
SIGMA_OUTSIDE = 0.05

KITTI_SAMPLES = 64
KITTI_FIELD_RESOLUTION = 0.4
CAMERA_HEIGHT = 1.55


def reference(name: str):
    """Outputs of workload ``name`` at DEFAULT_SEED, recorded by
    ``record_reference.py``."""
    with open(REFERENCE_DIR / f"{name}.json") as f:
        return WORKLOADS[name].from_json(json.load(f))


def primitive_field(scene, lo, hi, resolution: float) -> VoxelDensityField:
    """Node lattice over [lo, hi] with sigma SIGMA_INSIDE at nodes inside any
    primitive and SIGMA_OUTSIDE elsewhere."""
    lo = np.asarray(lo, dtype=np.float64)
    shape = tuple(int(n) for n in np.round((np.asarray(hi) - lo) / resolution) + 1)
    axes = [lo[a] + resolution * np.arange(shape[a]) for a in range(3)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    inside = scene.density_at(nodes) > 0
    theta = np.where(inside, inverse_softplus(SIGMA_INSIDE),
                     inverse_softplus(SIGMA_OUTSIDE))
    return VoxelDensityField(lo, resolution, theta)


# ---------------------------------------------------------------------------
# train_occluder
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    fixture: fixtures.OccluderFixture
    cfg: optim.TrainConfig
    expected: dict | None = None


def train_setup(seed: int, workdir: str) -> TrainState:
    return TrainState(fixtures.standard_occluder(), replace(TRAIN_CONFIG, seed=seed))


def train_op(st: TrainState) -> dict:
    fix = st.fixture
    res = optim.train(fix.base_field.copy(), fix.scene, fix.views, st.cfg)
    return {"theta": res.field.theta, "loss_total": res.loss_total,
            "loss_recon": res.loss_recon, "loss_polar": res.loss_polar}


def train_check(st: TrainState, out: dict) -> list:
    problems = [f"{k} is not finite" for k, v in out.items() if not np.all(np.isfinite(v))]
    if st.expected is not None:
        for key, ref in st.expected.items():
            got = out[key]
            if got.shape != ref.shape:
                problems.append(f"{key} shape {got.shape} != reference {ref.shape}")
            elif np.max(np.abs(got - ref), initial=0.0) > TRAIN_TOL:
                problems.append(f"{key} differs from the reference by "
                                f"{np.max(np.abs(got - ref)):.3e} > {TRAIN_TOL}")
    return problems


def train_corruptions(st: TrainState, out: dict) -> list:
    theta = out["theta"].copy()
    theta.flat[theta.size // 2] += 1e-10
    return [("perturbed theta", {**out, "theta": theta})]


# ---------------------------------------------------------------------------
# Evaluation workloads (shared checks)
# ---------------------------------------------------------------------------

@dataclass
class EvalOutput:
    counts: dict
    grids: dict       # name -> VoxelGrid: pred, gt, frustum, visible
    readback: dict    # name -> VoxelGrid read back from its OGRD file


def eval_check(expected: dict | None, out: EvalOutput) -> list:
    problems = []
    c = out.counts
    mf = out.grids["frustum"].values
    mv = out.grids["visible"].values
    if np.any(mv & ~mf):
        problems.append("visibility mask is not a subset of the frustum mask")
    if c["frustum_tp"] + c["frustum_fp"] + c["frustum_fn"] + c["frustum_tn"] \
            != c["frustum_total"] or c["frustum_total"] != int(mf.sum()):
        problems.append("frustum counts do not sum to the frustum mask size")
    inv = c["invisible_empty_tp"] + c["invisible_empty_fp"] \
        + c["invisible_empty_fn"] + c["invisible_empty_tn"]
    if inv != c["invisible_total"] or c["invisible_total"] != int((mf & ~mv).sum()):
        problems.append("invisible counts do not sum to the invisible region size")
    for name, back in out.readback.items():
        g = out.grids[name]
        if not (back.same_geometry(g) and back.frame == g.frame
                and back.values.dtype == g.values.dtype
                and np.array_equal(back.values, g.values)):
            problems.append(f"OGRD grid {name!r} does not read back equal")
    if expected is not None and c != expected:
        problems.append(f"count table {c} != reference {expected}")
    return problems


def flipped_voxel(grids: dict, pred_grid):
    """The prediction with one in-frustum voxel flipped, and its metrics."""
    values = pred_grid.values.copy()
    i = np.flatnonzero(grids["frustum"].values)[0]
    values.flat[i] = ~values.flat[i]
    pred = pred_grid.like(values)
    return pred, benchmark.compute_metrics(pred, grids["gt"], grids["frustum"],
                                           grids["visible"])


# ---------------------------------------------------------------------------
# eval_kitti360
# ---------------------------------------------------------------------------

def street_spec(seed: int) -> dict:
    """A seeded street in the camera frame (x right, y down, z forward): a
    ground plane, buildings on both sides, cars on the road and tree crowns.
    Only positions, sizes and colors depend on the seed, so every seed has
    the same number of primitives."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ground = CAMERA_HEIGHT

    def color():
        return [round(float(c), 3) for c in rng.uniform(0.1, 0.9, 3)]

    def box(x0, x1, height, z0, z1):
        return {"shape": "box", "min": [x0, ground - height, z0],
                "max": [x1, ground, z1], "density": SIGMA_INSIDE, "albedo": color()}

    prims = [{"shape": "ground", "axis": "y", "offset": ground, "side": "above",
              "density": SIGMA_INSIDE, "albedo": [0.4, 0.4, 0.4]}]
    for side in (-1.0, 1.0):
        z = float(rng.uniform(3.0, 8.0))
        for _ in range(2):
            depth = float(rng.uniform(8.0, 16.0))
            inner = float(rng.uniform(8.0, 11.0))
            outer = inner + float(rng.uniform(5.0, 9.0))
            x0, x1 = sorted((side * inner, side * outer))
            prims.append(box(x0, x1, float(rng.uniform(4.0, 7.0)), z, z + depth))
            z += depth + float(rng.uniform(1.0, 4.0))
    for _ in range(2):
        x = float(rng.uniform(-5.5, 3.5))
        z = float(rng.uniform(6.0, 42.0))
        prims.append(box(x, x + 1.8, 1.5, z, z + 4.2))
    for _ in range(2):
        prims.append({"shape": "sphere",
                      "center": [float(rng.choice([-1.0, 1.0]) * rng.uniform(6.0, 7.5)),
                                 ground - 4.0, float(rng.uniform(5.0, 48.0))],
                      "radius": float(rng.uniform(1.2, 2.2)),
                      "density": SIGMA_INSIDE, "albedo": color()})
    # A quarter of the KITTI-360 image size (1408x376).
    camera = {"fx": 138.0, "fy": 138.0, "cx": 175.5, "cy": 46.5, "width": 352,
              "height": 94, "near": 3.0, "far": 80.0, "position": [0.0, 0.0, 0.0],
              "yaw_deg": 0.0}
    return {"cameras": [camera], "primitives": prims,
            "grid": {"preset": "sscbench-kitti360"}}


@dataclass
class KittiState:
    spec: scenefile.SceneSpec
    field: VoxelDensityField
    sampling: SamplingConfig
    t_vc: Pose
    workdir: str
    expected: dict | None = None


def kitti_setup(seed: int, workdir: str) -> KittiState:
    spec = scenefile.parse_scene_spec(yaml.safe_dump(street_spec(seed)))
    view = spec.views[0]
    corners = spec.grid_to_world.apply(np.stack([spec.grid.origin, spec.grid.max_corner]))
    fld = primitive_field(spec.scene, corners.min(axis=0), corners.max(axis=0),
                          KITTI_FIELD_RESOLUTION)
    sampling = SamplingConfig(KITTI_SAMPLES, view.frustum.near, view.frustum.far, MODE_EVAL)
    t_vc = view.pose.inverse().compose(spec.grid_to_world)
    return KittiState(spec, fld, sampling, t_vc, workdir)


def kitti_pass(st: KittiState) -> EvalOutput:
    spec, view = st.spec, st.spec.views[0]
    omap = benchmark.build_opacity_map(st.field, view, st.sampling)
    pred = benchmark.voxelize_occupancy(omap, spec.grid, st.t_vc)
    gt = field.ground_truth_occupancy(spec.scene, spec.grid, spec.grid_to_world)
    mf = benchmark.frustum_mask(spec.grid, st.t_vc, view.intrinsics)
    mv = benchmark.visibility_mask(gt, view, st.t_vc)
    report = benchmark.compute_metrics(pred, gt, mf, mv)
    grids = {"pred": pred, "gt": gt, "frustum": mf, "visible": mv}
    readback = {}
    for name, grid in grids.items():
        path = os.path.join(st.workdir, f"{name}.ogrd")
        gridio.write_voxel_grid(path, grid)
        readback[name] = gridio.read_voxel_grid(path)
    return EvalOutput(report.counts, grids, readback)


def kitti_check(st: KittiState, out: EvalOutput) -> list:
    return eval_check(st.expected, out)


def kitti_corruptions(st: KittiState, out: EvalOutput) -> list:
    pred, report = flipped_voxel(out.grids, out.grids["pred"])
    return [("flipped voxel",
             EvalOutput(report.counts, {**out.grids, "pred": pred}, out.readback))]


# ---------------------------------------------------------------------------
# eval_occluder
# ---------------------------------------------------------------------------

@dataclass
class OccluderState:
    fixture: fixtures.OccluderFixture
    field: VoxelDensityField
    masks: dict       # gt, frustum, visible: fixed by the scene and the grid
    expected: dict | None = None


def occluder_setup(seed: int, workdir: str) -> OccluderState:
    """The occluder scene and evaluation setup, with a field whose node
    lattice is the fixture's shifted by a seeded offset of up to half a node
    spacing per axis."""
    fix = fixtures.standard_occluder()
    base = fix.base_field
    rng = np.random.Generator(np.random.PCG64(seed))
    lo = base.origin + rng.uniform(-0.5, 0.5, 3) * base.resolution
    fld = primitive_field(fix.scene, lo, lo + base.max_corner - base.origin,
                          float(base.resolution[0]))
    setup, view = fix.eval_setup, fix.views[fix.eval_setup.view_index]
    t_vc = setup.t_vc(view)
    gt = field.ground_truth_occupancy(fix.scene, setup.grid, setup.grid_to_world)
    masks = {"gt": gt, "frustum": benchmark.frustum_mask(setup.grid, t_vc, view.intrinsics),
             "visible": benchmark.visibility_mask(gt, view, t_vc)}
    return OccluderState(fix, fld, masks)


def occluder_op(st: OccluderState):
    fix = st.fixture
    return optim.evaluate_field(st.field, fix.scene, fix.views, fix.eval_setup, TRAIN_CONFIG)


def occluder_check(st: OccluderState, report) -> list:
    return eval_check(st.expected, EvalOutput(report.counts, st.masks, {}))


def occluder_corruptions(st: OccluderState, report) -> list:
    fix = st.fixture
    setup, view = fix.eval_setup, fix.views[fix.eval_setup.view_index]
    sampling = SamplingConfig(setup.num_samples, TRAIN_CONFIG.near, TRAIN_CONFIG.far,
                              MODE_EVAL)
    omap = benchmark.build_opacity_map(st.field, view, sampling)
    pred = benchmark.voxelize_occupancy(omap, setup.grid, setup.t_vc(view))
    return [("flipped voxel", flipped_voxel(st.masks, pred)[1])]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """``summary(out)`` is what every operation of a run must reproduce: the
    recorded reference at DEFAULT_SEED (read back by ``from_json``), else
    the first operation's.  ``corruptions(state, out)`` gives (label,
    corrupted output) pairs the checks must reject.  One ``op`` call runs
    ``iterations`` operations."""

    setup: Callable
    op: Callable
    check: Callable
    summary: Callable
    from_json: Callable
    corruptions: Callable
    iterations: int = 1


WORKLOADS = {
    "train_occluder": Workload(
        train_setup, train_op, train_check,
        lambda out: {k: v.copy() for k, v in out.items()},
        lambda ref: {k: np.asarray(v, dtype=np.float64) for k, v in ref.items()},
        train_corruptions, TRAIN_ITERATIONS),
    "eval_kitti360": Workload(kitti_setup, kitti_pass, kitti_check,
                              lambda out: dict(out.counts), dict, kitti_corruptions),
    "eval_occluder": Workload(occluder_setup, occluder_op, occluder_check,
                              lambda report: dict(report.counts), dict,
                              occluder_corruptions),
}
