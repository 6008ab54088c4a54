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

import pickle
from dataclasses import dataclass

import numpy as np

from .benchmark import _ReadPlan, compute_metrics, frustum_mask, visibility_mask
# not called here; bench/tracing.py wraps them
from .benchmark import build_opacity_map, voxelize_occupancy  # noqa: F401
from .field import (AnalyticScene, VoxelDensityField, ground_truth_occupancy,
                    render_reference_image)
from .geometry import FrustumSpec, Pose, Workspace, check_int, check_real, in_image, project
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

# Pixels per image axis, and depths per ray, that the view-overlap gate
# samples in each view's frustum.
OVERLAP_PROBE = 12


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
        for name, least in (("iterations", 0), ("lr_decay_start", 0), ("seed", 0),
                            ("patch_count", 1), ("patch_size", 1), ("num_samples", 2)):
            check_int(name, getattr(self, name), least)
        for name in ("learning_rate", "lr_decay_factor", "eps"):
            check_real(name, getattr(self, name), above=0)
        for name in ("beta1", "beta2"):  # Adam's bias correction divides by 1 - beta**t
            check_real(name, getattr(self, name))
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        FrustumSpec(self.near, self.far)   # the one depth range rule
        self.loss_config()   # rejects a negative or non-finite loss weight, by name

    def loss_config(self) -> LossConfig:
        return LossConfig(self.lambda_r, self.lambda_p)


class AdamOptimizer:
    """Adaptive-moment update with bias correction, canonical constants; a
    step works in place, in the allocating formula's order (``test_optim``)."""

    def __init__(self, shape, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self._m_hat, self._v_hat = np.empty(shape), np.empty(shape)
        self.step_count = 0

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.step_count += 1
        m, v, m_hat, v_hat = self.m, self.v, self._m_hat, self._v_hat
        m *= self.beta1             # m = beta1 m + (1 - beta1) g, v alike with g^2
        m += np.multiply(1 - self.beta1, grad, out=m_hat)
        v *= self.beta2
        v += np.multiply(1 - self.beta2, np.square(grad, out=v_hat), out=v_hat)
        np.divide(m, 1 - self.beta1 ** self.step_count, out=m_hat)
        np.sqrt(np.divide(v, 1 - self.beta2 ** self.step_count, out=v_hat), out=v_hat)
        m_hat *= lr                 # theta -= lr m_hat / (sqrt(v_hat) + eps)
        theta -= np.divide(m_hat, np.add(v_hat, self.eps, out=v_hat), out=m_hat)


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


def check_view_overlap(views) -> list[float]:
    """Share of each view's frustum that projects inside another view's image.

    Samples ``OVERLAP_PROBE`` depths, near to far, on the rays through an
    ``OVERLAP_PROBE``-square lattice of interior pixels, (i + 0.5)(w - 1) /
    ``OVERLAP_PROBE``, so that edge rounding cannot make a view miss itself.
    Raises if a ratio is zero: with no shared coverage the photometric loss
    has no cross-view signal and training cannot converge.
    """
    if len(views) < 2:
        raise ValueError("training needs at least two views")
    lattice = (np.arange(OVERLAP_PROBE) + 0.5) / OVERLAP_PROBE
    ratios = []
    for i, target in enumerate(views):
        intr, fr = target.intrinsics, target.frustum
        uv = np.meshgrid(lattice * (intr.width - 1), lattice * (intr.height - 1))
        origins, dirs = target.world_rays(np.stack(uv, axis=-1).reshape(-1, 2))
        depths = np.linspace(fr.near, fr.far, OVERLAP_PROBE)
        pts = (origins + depths[:, None, None] * dirs).reshape(-1, 3)
        seen = np.zeros(len(pts), dtype=bool)
        for j, source in enumerate(views):
            if j != i:
                cam = source.pose.inverse().apply(pts)
                seen |= in_image(source.intrinsics, *project(source.intrinsics, cam))
        ratios.append(float(np.mean(seen)))
        if ratios[-1] == 0.0:
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
    the block size.  Nothing per sample spans the batch: blocks take their
    arrays from one :class:`Workspace`, made here and gone on return, which
    holds 31 8 B arrays a sample of a block (5.8 MiB at ``RAY_BLOCK`` rays
    of 48 samples); a block allocates only its lattice index and the
    scatter's coefficients, 8 B a sample (``test_optim.py``).
    """
    check_view_overlap(views)
    images = [render_reference_image(scene, v) for v in views]
    ws = Workspace()
    samplers = [SourceViewSampler(img, v, ws) for img, v in zip(images, views)]
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
            iteration_rng(cfg.seed, it), cfg, scfg, loss_cfg, ws)
        trace_total[it], trace_recon[it], trace_polar[it] = traces
        lr = cfg.learning_rate
        if it >= cfg.lr_decay_start:
            lr /= cfg.lr_decay_factor
        adam.step(field.theta, grad_theta, lr)

    return TrainResult(field=field, loss_total=trace_total,
                       loss_recon=trace_recon, loss_polar=trace_polar)


def _batch_gradient(field, target, image, sources, rng, cfg, scfg, loss_cfg, ws):
    """dL/dtheta for one iteration's ray batch on ``target``, and the
    source-view means of its loss total, L_r and L_p; see :func:`train`.
    The scatter draws the blocks one at a time, each in a frame of ``ws``."""
    batch = sample_patch_rays(target, rng, cfg.patch_count, cfg.patch_size)
    pix = batch.pixels.astype(np.int64)
    c_gt = image[pix[:, 1], pix[:, 0]]
    origins, dirs = target.world_rays(batch.pixels)
    nodes = field.node_density()

    n_rays, n_src = len(dirs), len(sources)
    recon = np.zeros((n_src, n_rays))
    polar = np.zeros((n_src, n_rays))

    def parts():
        for start in range(0, n_rays, RAY_BLOCK):
            b = slice(start, start + RAY_BLOCK)
            with ws:
                yield _block_gradient(field, nodes, sources, origins[b], dirs[b], c_gt[b], rng,
                                      scfg, loss_cfg, n_rays, recon[:, b], polar[:, b], ws)

    grad_theta = field.param_grad_from(parts())
    means = [sum(float(np.mean(row)) for row in per_ray) / n_src
             for per_ray in (loss_cfg.combine(recon, polar), recon, polar)]
    return grad_theta, means


def _block_gradient(field, nodes, sources, origins, dirs, c_gt, rng, scfg, loss_cfg,
                    n_rays, recon, polar, ws):
    """One block of :func:`_batch_gradient`'s rays: samples, locates and
    scores them against every source view, writing the block's rows of the
    per-view L_r and L_p.  Returns the located points and their dL/dsigma
    (the source-view mean), the scatter's part.  Its arrays come from
    ``ws``; each stage gives its scratch back, and what the block keeps
    (points, delta, sigma, alpha, :func:`ray_terms`, the location and
    dL/dsigma, time-major (N, rays)) is 18 8 B arrays a sample.
    """
    shape = (scfg.num_samples, len(dirs))
    pts, delta, sigma, alpha = ws.take(shape + (3,)), *(ws.take(shape) for _ in range(3))
    with ws:                # t and delta ray-major, pts into a ray-major view
        t, delta_rm = ws.take(shape[::-1]), ws.take(shape[::-1])
        sample_points_batch(origins, dirs, scfg, rng, out=(t, pts.transpose(1, 0, 2), delta_rm))
        np.copyto(delta, delta_rm.T)
    located = field.locate(pts.transpose(1, 0, 2), ws)
    field.density_from(located, nodes, out=sigma.T)
    rays = ray_terms(opacity(sigma, delta, out=alpha), sigma, delta, ws)
    pts = pts.reshape(-1, 3)        # one (N * B, 3) pose transform per view
    grad_sigma = ws.take(shape[::-1])
    grad_sigma.fill(0.0)
    grad_t = grad_sigma.T
    for v, sampler in enumerate(sources):
        with ws:
            colors, hit = sampler.sample_colors(pts)
            terms = view_loss(rays, colors.reshape(shape + (3,)), hit.reshape(shape), c_gt, ws=ws)
            recon[v] = terms.recon
            polar[v] = terms.polar
            grads = terms.recon_wrt_sigma, terms.polar_wrt_sigma
            grad_t += np.divide(loss_cfg.combine(*grads, out=grads), n_rays, out=grads[0])
    grad_sigma /= len(sources)
    return located, grad_sigma


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalSetup:
    """Everything needed to score a trained field on one view."""

    grid: VoxelGrid
    grid_to_world: Pose
    view_index: int = 0
    num_samples: int = 128

    def __post_init__(self):
        for name, least in (("view_index", 0), ("num_samples", 2)):
            check_int(name, getattr(self, name), least)

    def t_vc(self, view) -> Pose:
        return view.pose.inverse().compose(self.grid_to_world)


def evaluate_field(density_field, scene: AnalyticScene, views,
                   setup: EvalSetup, cfg: TrainConfig):
    """Score a field on one view: its occupancy in the frustum, the masks
    and the metrics.

    The prediction is ``benchmark._ReadPlan.occupancy``: the field's
    opacity at the map nodes the frustum voxels read (about 6% on the
    occluder), interpolated at each frustum voxel, the only voxels counted,
    and False elsewhere.  A NaN or negative density raises only at a read node.

    Only that score depends on the field.  The rest is the last call's
    plan, keyed by content (an input changed in place, or equal but another
    object, counts as the same input):

    - ``t_vc`` and the ground truth, frustum and visibility grids, while
      the scene, the evaluated view, the grid's origin, counts, resolution
      and frame and ``grid_to_world`` pickle to the same bytes;
    - the read plan (``benchmark._ReadPlan``), while those do and
      ``setup.num_samples``, ``cfg.near`` and ``cfg.far`` are equal, so a
      change of the sampling config alone rebuilds only it;
    - within the read plan, its read nodes located in the last
      ``VoxelDensityField``'s lattice, while a field's origin, resolution
      and ``theta`` shape are that lattice's.

    Between calls the plan stays allocated, at the bytes the read plan
    states plus three boolean grids, and nothing of ``theta``
    (``test_voxelize_field.py``).
    """
    if setup.view_index >= len(views):
        raise ValueError(f"view_index {setup.view_index} is out of range "
                         f"for {len(views)} views")
    view = views[setup.view_index]
    eval_cfg = SamplingConfig(setup.num_samples, cfg.near, cfg.far, MODE_EVAL)
    (t_vc, gt, mf, mv), reads = _eval_plan(scene, view, setup, eval_cfg)
    pred = setup.grid.like(reads.occupancy(density_field))
    return compute_metrics(pred, gt, mf, mv)


# The last evaluation plan, (mask key, (t_vc, gt, frustum, visible),
# sampling config, read plan); see ``evaluate_field``.
_last_plan = None


def _eval_plan(scene: AnalyticScene, view, setup: EvalSetup, eval_cfg: SamplingConfig):
    """``(t_vc, gt, frustum, visible)`` of ``view`` on ``setup``, and the
    read plan of ``view`` and ``eval_cfg`` over its grid: the last call's
    where their inputs are, else built afresh.  The grids keep copies of
    the grid's origin and resolution, so that no array of the plan is the
    caller's."""
    global _last_plan
    grid = setup.grid
    key = pickle.dumps((scene, view, grid.origin, grid.counts, grid.resolution, grid.frame,
                        setup.grid_to_world))
    if _last_plan is None or _last_plan[0] != key:
        _last_plan = None   # the last plan's grids go before this one's are built
        grid = VoxelGrid(grid.origin.copy(), grid.counts, grid.resolution.copy(),
                         grid.values, grid.frame)
        t_vc = setup.t_vc(view)
        gt = ground_truth_occupancy(scene, grid, setup.grid_to_world)
        _last_plan = key, (t_vc, gt, frustum_mask(grid, t_vc, view.intrinsics),
                           visibility_mask(gt, view, t_vc)), None, None
    key, masks, sampling, reads = _last_plan
    if sampling != eval_cfg:
        reads = None
        _last_plan = key, masks, None, None   # the last read plan goes before this one is built
        reads = _ReadPlan(view, eval_cfg, masks[2], masks[0])
        _last_plan = key, masks, eval_cfg, reads
    return masks, reads
