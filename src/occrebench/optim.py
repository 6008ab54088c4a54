"""Desk-scale unsupervised training of the voxel density field.

Each iteration renders a patch batch from one target view against the
current field, samples per-point colors from every other view, and
descends the weighted photometric + polarization loss with a from-scratch
Adam update.  Everything is driven by one seed: patch draws and per-point
jitter come from a per-iteration generator derived from (seed, iteration),
targets rotate round-robin, and gradient reduction uses a fixed ray order,
so a (config, seed) pair reproduces parameters bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .benchmark import (compute_metrics, frustum_mask, view_overlap_ratio,
                        visibility_mask, voxelize_field)
# not called here; bench/tracing.py wraps them
from .benchmark import build_opacity_map, voxelize_occupancy  # noqa: F401
from .field import (AnalyticScene, VoxelDensityField, ground_truth_occupancy,
                    render_reference_image)
from .geometry import Pose, pixel_directions
from .grids import VoxelGrid
from .losses import LossConfig, ray_terms, view_loss
from .losses import total_loss  # noqa: F401 - not called here; bench/tracing.py wraps it
from .rendering import (MODE_EVAL, MODE_TRAIN, SamplingConfig, SourceViewSampler,
                        opacity, sample_patch_rays, sample_points_batch)
from .rendering import composite  # noqa: F401 - not called here; bench/tracing.py wraps it

# Rays per block of the pass in ``train``: every per-sample array, dL/dsigma
# and the located points included, is O(RAY_BLOCK * num_samples), whatever
# the batch size.  Of 256 to 2048, 512 and 1024 ran the 4096-ray occluder
# batch fastest; the smaller holds less.
RAY_BLOCK = 512

# Voxels per axis of the coarse frustum grid the view-overlap gate samples.
PROBE_COUNTS = (12, 12, 12)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    learning_rate: float = 2e-4
    lr_decay_factor: float = 2.0
    lr_decay_start: int = 1200
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patch_count: int = 64
    patch_size: int = 8
    seed: int = 0
    lambda_r: float = 1.0
    lambda_p: float = 1e-3
    num_samples: int = 64
    near: float = 3.0
    far: float = 20.0

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        for name in ("learning_rate", "lr_decay_factor", "eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("beta1", "beta2"):  # Adam's bias correction divides by 1 - beta**t
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        if not (0.0 < self.near < self.far):
            raise ValueError("near and far must satisfy 0 < near < far")
        for name, least in (("patch_count", 1), ("patch_size", 1), ("num_samples", 2)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}")
        self.loss_config()   # rejects a negative or non-finite loss weight, by name

    def loss_config(self) -> LossConfig:
        return LossConfig(self.lambda_r, self.lambda_p)


class AdamOptimizer:
    """Adaptive-moment update with bias correction, canonical constants."""

    def __init__(self, shape, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.step_count = 0

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.step_count += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad ** 2
        m_hat = self.m / (1 - self.beta1 ** self.step_count)
        v_hat = self.v / (1 - self.beta2 ** self.step_count)
        theta -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainResult:
    field: VoxelDensityField
    loss_total: np.ndarray
    loss_recon: np.ndarray
    loss_polar: np.ndarray


def iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    """Deterministic per-iteration stream: reruns replay patch and jitter draws."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(iteration,))))


def frustum_probe_grid(view) -> VoxelGrid:
    """Coarse camera-frame grid spanning the view frustum's bounding box,
    used by the overlap gate."""
    intr = view.intrinsics
    corners_uv = np.array([[0.0, 0.0], [intr.width - 1.0, 0.0],
                           [0.0, intr.height - 1.0],
                           [intr.width - 1.0, intr.height - 1.0]])
    dirs = pixel_directions(intr, corners_uv)
    pts = np.concatenate([dirs * view.frustum.near, dirs * view.frustum.far])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    res = (hi - lo) / np.asarray(PROBE_COUNTS)
    return VoxelGrid.filled(lo, PROBE_COUNTS, res, False, dtype=bool, frame="camera")


def check_view_overlap(views) -> list[float]:
    """Overlap ratio of each view's frustum against the remaining views.

    Raises if any ratio is zero: with no shared coverage the photometric
    loss has no cross-view signal and training cannot converge.
    """
    if len(views) < 2:
        raise ValueError("training needs at least two views")
    ratios = []
    for i, target in enumerate(views):
        sources = [v for j, v in enumerate(views) if j != i]
        ratio = view_overlap_ratio(target, sources, frustum_probe_grid(target),
                                   grid_to_world=target.pose)
        ratios.append(ratio)
        if ratio == 0.0:
            raise ValueError(
                f"view {i} shares no frustum volume with any other view "
                f"(overlap ratio 0); widen the FOV or move the cameras")
    return ratios


def train(field: VoxelDensityField, scene: AnalyticScene, views,
          cfg: TrainConfig) -> TrainResult:
    """Fit the field to the scene's multi-view renders; mutates ``field``.

    Per iteration: round-robin target view, 64x8x8 patch rays by default,
    train-mode inverse-depth sampling, colors from all other views with
    per-view miss masks, loss gradients chained through softplus to the
    node parameters, one Adam step.  The three loss traces (total, L_r and
    L_p, each averaged over the source views) are read from what the loss
    measured, so L_p is reported even when lambda_p = 0.

    The batch runs in blocks of ``RAY_BLOCK`` rays.  Once per block: the
    sample points, drawn from the iteration's generator (consecutive block
    draws are the whole-batch draw), their lattice location (shared by the
    density gather and the gradient scatter), sigma, alpha and the
    view-independent loss factors (:func:`ray_terms`).  Once per source
    view per block: the colour lookup and :func:`view_loss`.  The gradient
    scatter (:meth:`VoxelDensityField.param_grad_from`) draws the blocks
    one at a time and adds each block's located points and dL/dsigma into
    its per-corner sums before the next block is made.  Per-ray L_r and
    L_p are kept, and the batch means and the scatter's sums are taken in
    the order a whole-batch pass takes them, so results do not depend on
    the block size.  Nothing per sample spans the batch: every per-sample
    array is O(block), the scatter's sums are 64 B a node, and none of an
    iteration's arrays outlive it.
    """
    check_view_overlap(views)
    images = [render_reference_image(scene, v) for v in views]
    samplers = [SourceViewSampler(img, v) for img, v in zip(images, views)]
    adam = AdamOptimizer(field.theta.shape, cfg.beta1, cfg.beta2, cfg.eps)
    loss_cfg = cfg.loss_config()
    scfg = SamplingConfig(cfg.num_samples, cfg.near, cfg.far, MODE_TRAIN)
    trace_total = np.zeros(cfg.iterations)
    trace_recon = np.zeros(cfg.iterations)
    trace_polar = np.zeros(cfg.iterations)

    for it in range(cfg.iterations):
        target_idx = it % len(views)
        sources = [s for j, s in enumerate(samplers) if j != target_idx]
        grad_theta, traces = _batch_gradient(
            field, views[target_idx], images[target_idx], sources,
            iteration_rng(cfg.seed, it), cfg, scfg, loss_cfg)
        trace_total[it], trace_recon[it], trace_polar[it] = traces
        lr = cfg.learning_rate
        if it >= cfg.lr_decay_start:
            lr /= cfg.lr_decay_factor
        adam.step(field.theta, grad_theta, lr)

    return TrainResult(field=field, loss_total=trace_total,
                       loss_recon=trace_recon, loss_polar=trace_polar)


def _batch_gradient(field, target, image, sources, rng, cfg, scfg, loss_cfg):
    """dL/dtheta for one iteration's ray batch on ``target``, and the
    source-view means of its loss total, L_r and L_p; see :func:`train`.
    The blocks are made one at a time as the scatter draws them, and each
    goes once it is scattered, so nothing per sample spans the batch."""
    batch = sample_patch_rays(target, rng, cfg.patch_count, cfg.patch_size)
    pix = batch.pixels.astype(np.int64)
    c_gt = image[pix[:, 1], pix[:, 0]]
    origins, dirs = target.world_rays(batch.pixels)
    nodes = field.node_density()

    n_rays, n_src = len(dirs), len(sources)
    recon = np.zeros((n_src, n_rays))
    polar = np.zeros((n_src, n_rays))
    blocks = [slice(start, start + RAY_BLOCK) for start in range(0, n_rays, RAY_BLOCK)]
    grad_theta = field.param_grad_from(
        _block_gradient(field, nodes, sources, origins[b], dirs[b], c_gt[b], rng, scfg,
                        loss_cfg, n_rays, recon[:, b], polar[:, b])
        for b in blocks)
    means = [sum(float(np.mean(row)) for row in per_ray) / n_src
             for per_ray in (loss_cfg.combine(recon, polar), recon, polar)]
    return grad_theta, means


def _block_gradient(field, nodes, sources, origins, dirs, c_gt, rng, scfg, loss_cfg,
                    n_rays, recon, polar):
    """One block of :func:`_batch_gradient`'s rays: samples, locates and
    scores them against every source view, writing the block's rows of the
    per-view L_r and L_p.  Returns the located points and their dL/dsigma
    (the source-view mean), the scatter's part; every other array here is
    the block's and goes on return."""
    pts, delta = sample_points_batch(origins, dirs, scfg, rng)[1:]
    located = field.locate(pts)
    sigma = field.density_from(located, nodes)
    rays = ray_terms(opacity(sigma, delta).T, sigma.T, delta.T)
    # time-major and flat: one (N * B, 3) pose transform per view
    pts = pts.transpose(1, 0, 2).reshape(-1, 3)
    grad_sigma = np.zeros(sigma.shape)
    grad_t = grad_sigma.T
    for v, sampler in enumerate(sources):
        colors, hit = sampler.sample_colors(pts)
        terms = view_loss(rays, colors.reshape(rays.alpha.shape + (3,)),
                          hit.reshape(rays.alpha.shape), c_gt)
        recon[v] = terms.recon
        polar[v] = terms.polar
        grad_t += loss_cfg.combine(terms.recon_wrt_sigma, terms.polar_wrt_sigma) / n_rays
    grad_sigma /= len(sources)
    return located, grad_sigma


# ---------------------------------------------------------------------------
# Evaluation and the polarization ablation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalSetup:
    """Everything needed to score a trained field on one view."""

    grid: VoxelGrid
    grid_to_world: Pose
    view_index: int = 0
    num_samples: int = 128

    def t_vc(self, view) -> Pose:
        return view.pose.inverse().compose(self.grid_to_world)


def evaluate_field(density_field, scene: AnalyticScene, views,
                   setup: EvalSetup, cfg: TrainConfig):
    """Full benchmark pass: opacity map, voxelize, masks, metrics.

    The prediction is ``voxelize_occupancy(build_opacity_map(...))`` bit for
    bit, but through ``benchmark.voxelize_field``, which computes only the
    opacity-map nodes the grid's voxels read (on the occluder's grid, about
    6% of them).  Unread nodes are never computed, so they are never
    validated: a NaN or negative density raises only where a read node
    samples it.
    """
    view = views[setup.view_index]
    t_vc = setup.t_vc(view)
    eval_cfg = SamplingConfig(setup.num_samples, cfg.near, cfg.far, MODE_EVAL)
    pred = voxelize_field(density_field, view, eval_cfg, setup.grid, t_vc)
    gt = ground_truth_occupancy(scene, setup.grid, setup.grid_to_world)
    mf = frustum_mask(setup.grid, t_vc, view.intrinsics)
    mv = visibility_mask(gt, view, t_vc)
    return compute_metrics(pred, gt, mf, mv)


@dataclass
class AblationRow:
    seed: int
    with_lp: object
    without_lp: object


@dataclass
class ExperimentResult:
    """Paired twin-run outcomes across seeds."""

    rows: list = dataclass_field(default_factory=list)

    def mean_metric(self, name: str, arm: str) -> float:
        vals = [getattr(getattr(r, arm), name) for r in self.rows]
        if any(v is None for v in vals):
            raise ValueError(f"metric {name} undefined in some runs")
        return float(np.mean(vals))

    def mean_delta(self, name: str) -> float:
        return self.mean_metric(name, "with_lp") - self.mean_metric(name, "without_lp")


def run_polarization_ablation(base_field: VoxelDensityField, scene: AnalyticScene,
                              views, setup: EvalSetup, cfg: TrainConfig,
                              seeds) -> ExperimentResult:
    """Twin runs per seed: identical init and RNG streams, lambda_p on/off.

    The polarization weight does not influence any random draw, so the two
    arms see byte-identical supervision; metric differences isolate the
    loss term.
    """
    result = ExperimentResult()
    for seed in seeds:
        arms = {}
        for name, lam in (("with_lp", cfg.lambda_p), ("without_lp", 0.0)):
            run_cfg = replace(cfg, seed=int(seed), lambda_p=lam)
            trained = train(base_field.copy(), scene, views, run_cfg)
            arms[name] = evaluate_field(trained.field, scene, views, setup, run_cfg)
        result.rows.append(AblationRow(seed=int(seed), with_lp=arms["with_lp"],
                                       without_lp=arms["without_lp"]))
    return result


def run_lambda_sweep(base_field: VoxelDensityField, scene: AnalyticScene,
                     views, setup: EvalSetup, cfg: TrainConfig,
                     lambda_values) -> list:
    """Train once per polarization weight; returns [(lambda_p, MetricsReport)]."""
    out = []
    for lam in lambda_values:
        run_cfg = replace(cfg, lambda_p=float(lam))
        trained = train(base_field.copy(), scene, views, run_cfg)
        out.append((float(lam), evaluate_field(trained.field, scene, views,
                                               setup, run_cfg)))
    return out
