"""The trainer's documented claims, pinned on a tiny configuration of the
standard occluder: a (config, seed) pair reproduces the parameters bit for
bit, the lambda_p on/off arms see identical random draws, the loss traces
are measured directly, the blocked loss pass gives what the whole-batch
pass gave bit for bit, and nothing per sample spans the batch; an
evaluation set-up that names no view or too few samples is rejected, and
so is a rig whose views share no frustum, before anything is rendered."""

from __future__ import annotations

import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from occrebench import optim
from occrebench.field import VoxelDensityField, render_reference_image
from occrebench.fixtures import standard_occluder
from occrebench.geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose
from occrebench.losses import total_loss
from occrebench.rendering import (MODE_TRAIN, SamplingConfig, SourceViewSampler, opacity,
                                  sample_patch_rays, sample_points_batch)

from conftest import yaw_pose


@pytest.fixture(scope="module")
def occluder():
    fix = standard_occluder()
    cfg = replace(fix.train_config, iterations=3, patch_count=2, patch_size=4,
                  num_samples=12, learning_rate=0.05)
    return fix, cfg


def train(fix, cfg):
    return optim.train(fix.base_field.copy(), fix.scene, fix.views, cfg)


def recording(monkeypatch, name):
    """Replace ``optim.<name>`` by a wrapper that records each call's
    arguments and result; returns the list of (args, kwargs, result).
    The record is a deep copy: the trainer reuses its arrays from block to
    block, so a stored reference would show every call as the last."""
    calls = []
    original = getattr(optim, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(copy.deepcopy((args, kwargs, out)))
        return out

    monkeypatch.setattr(optim, name, wrapper)
    return calls


def test_config_and_seed_reproduce_theta_bit_for_bit(occluder):
    fix, cfg = occluder
    a, b = train(fix, cfg), train(fix, cfg)
    assert not np.array_equal(a.field.theta, fix.base_field.theta)
    assert np.array_equal(a.field.theta, b.field.theta)
    for trace in ("loss_total", "loss_recon", "loss_polar"):
        assert np.array_equal(getattr(a, trace), getattr(b, trace))


@pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
def test_lambda_p_arms_see_identical_draws(occluder, monkeypatch, block):
    fix, cfg = occluder
    n_rays = cfg.patch_count * cfg.patch_size ** 2
    if block is not None:
        monkeypatch.setattr(optim, "RAY_BLOCK", block)
    blocks = -(-n_rays // optim.RAY_BLOCK)
    draws = {}
    for lam in (cfg.lambda_p, 0.0):
        with monkeypatch.context() as m:
            patches = recording(m, "sample_patch_rays")
            points = recording(m, "sample_points_batch")
            train(fix, replace(cfg, lambda_p=lam))
        draws[lam] = ([(p.corners, p.pixels) for _, _, p in patches],
                      [out for _, _, out in points])
    (patches_on, points_on), (patches_off, points_off) = draws.values()
    assert len(patches_on) == len(patches_off) == cfg.iterations
    assert len(points_on) == len(points_off) == cfg.iterations * blocks
    for on, off in zip(patches_on + points_on, patches_off + points_off):
        assert all(np.array_equal(x, y) for x, y in zip(on, off))


def direct_mean_polarization(alpha, colors, sigma, miss):
    """Batch-mean L_p written out from its definition: sum over adjacent
    pairs with no missed member of max(alpha) |dc| exp(-|dsigma|)."""
    valid = ~miss[:, :-1] & ~miss[:, 1:]
    weight = np.maximum(alpha[:, :-1], alpha[:, 1:])
    dcolor = np.abs(colors[:, 1:] - colors[:, :-1]).sum(axis=-1)
    decay = np.exp(-np.abs(sigma[:, 1:] - sigma[:, :-1]))
    return np.mean(np.sum(np.where(valid, weight * dcolor * decay, 0.0), axis=-1))


def test_lambda_p_zero_arm_reports_measured_polarization(occluder, monkeypatch):
    """``view_loss`` is the per-view entry point; its arrays are time-major,
    and the batch (32 rays) is one block, so there is one call per source
    view per iteration."""
    fix, cfg = occluder
    calls = recording(monkeypatch, "view_loss")
    result = train(fix, replace(cfg, lambda_p=0.0))
    per_source = [direct_mean_polarization(rays.alpha.T, np.moveaxis(colors, 0, 1),
                                           rays.sigma.T, ~hit.T)
                  for (rays, colors, hit, _), _, _ in calls]
    n_src = len(fix.views) - 1
    expected = np.mean(np.reshape(per_source, (cfg.iterations, n_src)), axis=1)
    assert np.all(result.loss_polar > 0.0)
    assert np.allclose(result.loss_polar, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(result.loss_total, result.loss_recon)


@pytest.mark.parametrize("name, value", [
    ("learning_rate", 0.0), ("lr_decay_factor", -1.0), ("eps", 0.0), ("eps", np.nan),
    ("beta1", 0.0), ("beta1", 1.0), ("beta1", 1.5), ("beta2", 1.0), ("beta2", -0.1),
    ("near", 30.0),
    ("lambda_p", np.nan), ("lambda_r", np.nan), ("lambda_p", np.inf), ("lambda_r", -1.0),
    ("patch_count", 0), ("patch_count", -3), ("patch_size", 0), ("num_samples", 1),
    ("iterations", 2.5), ("lr_decay_start", 1200.0), ("seed", 1.0), ("seed", -1),
    ("patch_count", 64.0), ("patch_size", True), ("num_samples", 48.5),
])
def test_train_config_names_the_rejected_field(name, value):
    """beta = 1 would divide by zero in Adam's bias correction (theta NaN
    after one step); beta > 1 makes the moment averages diverge.  A NaN
    loss weight turned theta NaN with no error; an empty or negative batch
    shape failed only after the reference images were rendered; a float
    count constructed."""
    with pytest.raises(ValueError, match=name):
        optim.TrainConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("view_index", -1), ("view_index", 0.0), ("view_index", True),
    ("num_samples", 1), ("num_samples", 2.5), ("num_samples", None),
])
def test_eval_setup_names_the_rejected_field(occluder, name, value):
    """A view index of -1 scored the last view with no error, and one or a
    fractional number of samples per ray constructed."""
    with pytest.raises(ValueError, match=name):
        replace(occluder[0].eval_setup, **{name: value})


def test_evaluate_field_rejects_a_view_index_past_the_views(occluder):
    """An index past the last view raised a bare IndexError."""
    fix, cfg = occluder
    setup = replace(fix.eval_setup, view_index=len(fix.views))
    with pytest.raises(ValueError, match="view_index"):
        optim.evaluate_field(fix.base_field, fix.scene, fix.views, setup, cfg)


def oracle_train(field, scene, views, cfg):
    """The trainer as it was before its loss ran in ray blocks, kept as the
    oracle: the whole batch at once, ``density_at`` -> ``sample_colors`` ->
    ``total_loss`` per source view -> ``accumulate_param_grad``.  Returns
    theta and the (total, L_r, L_p) traces."""
    images = [render_reference_image(scene, v) for v in views]
    samplers = [SourceViewSampler(img, v) for img, v in zip(images, views)]
    adam = optim.AdamOptimizer(field.theta.shape, cfg.beta1, cfg.beta2, cfg.eps)
    loss_cfg = cfg.loss_config()
    scfg = SamplingConfig(cfg.num_samples, cfg.near, cfg.far, MODE_TRAIN)
    traces = np.zeros((3, cfg.iterations))
    for it in range(cfg.iterations):
        rng = optim.iteration_rng(cfg.seed, it)
        target_idx = it % len(views)
        target = views[target_idx]
        batch = sample_patch_rays(target, rng, cfg.patch_count, cfg.patch_size)
        pix = batch.pixels.astype(np.int64)
        c_gt = images[target_idx][pix[:, 1], pix[:, 0]]
        origins, dirs = target.world_rays(batch.pixels)
        _, pts, delta = sample_points_batch(origins, dirs, scfg, rng)
        sigma = field.density_at(pts.reshape(-1, 3)).reshape(delta.shape)
        alpha = opacity(sigma, delta)

        grad_sigma = np.zeros_like(sigma)
        total_sum = recon_sum = polar_sum = 0.0
        sources = [s for j, s in enumerate(samplers) if j != target_idx]
        for sampler in sources:
            colors, hit = sampler.sample_colors(pts)
            terms = total_loss(alpha, colors, sigma, delta, c_gt, loss_cfg, miss=~hit)
            grad_sigma += terms.total_wrt_sigma
            total_sum += terms.total
            recon_sum += terms.recon
            polar_sum += terms.polar
        n_src = len(sources)
        grad_sigma /= n_src
        traces[:, it] = total_sum / n_src, recon_sum / n_src, polar_sum / n_src

        grad_theta = field.accumulate_param_grad(pts.reshape(-1, 3), grad_sigma.reshape(-1))
        lr = cfg.learning_rate
        if it >= cfg.lr_decay_start:
            lr /= cfg.lr_decay_factor
        adam.step(field.theta, grad_theta, lr)
    return field.theta, traces


@pytest.mark.parametrize("block, changes", [
    (None, {}),                              # one block
    (7, {}),                                 # 32 rays: four blocks of 7 and one of 4
    (1, {"num_samples": 48}),                # blocks of one ray
    (7, {"lambda_p": 0.0}),
    (5, {"patch_count": 3, "far": 30.0}),    # 48 rays, more of them missing
], ids=["one-block", "short-last-block", "one-ray-blocks", "lambda-p-zero", "misses"])
def test_blocked_training_matches_whole_batch_oracle(occluder, monkeypatch, block, changes):
    fix, cfg = occluder
    cfg = replace(cfg, **changes)
    n_rays = cfg.patch_count * cfg.patch_size ** 2
    if block is None:
        assert n_rays <= optim.RAY_BLOCK
    else:
        monkeypatch.setattr(optim, "RAY_BLOCK", block)
        assert n_rays > block
    hits = []
    sample_colors = SourceViewSampler.sample_colors

    def recorded(self, points):
        colors, hit = sample_colors(self, points)
        hits.append(hit.copy())     # the trainer reuses the array for the next lookup
        return colors, hit

    with monkeypatch.context() as m:
        m.setattr(SourceViewSampler, "sample_colors", recorded)
        result = train(fix, cfg)
    hit_frac = np.mean(np.concatenate([h.reshape(-1) for h in hits]))
    assert 0.0 < hit_frac < 1.0
    theta, traces = oracle_train(fix.base_field.copy(), fix.scene, fix.views, cfg)
    assert not np.array_equal(theta, fix.base_field.theta)
    assert np.array_equal(result.field.theta, theta)
    for got, expected in zip((result.loss_total, result.loss_recon, result.loss_polar), traces):
        assert np.array_equal(got, expected)


def test_training_memory_peak_grows_by_under_256_bytes_a_ray(monkeypatch):
    """From 2 to 4 blocks of rays, the peak of ``train`` may grow only by
    the per-ray arrays (rays, target colours and per-view losses, under
    256 B a ray), with no per-sample term: the scatter draws the blocks
    one at a time and drops each before the next is made.  Holding every
    block's dL/dsigma (8 B a sample) or located points (9 B a sample, 32 B
    more inside the lattice) until one whole-batch scatter exceeds the
    bound, as does holding the previous block while the next is made.
    The first ``train`` call in a process peaks higher, so one runs
    untraced first."""
    fix = standard_occluder()
    cfg = replace(fix.train_config, iterations=2, patch_size=8, num_samples=48)
    per_patch = cfg.patch_size ** 2
    scatter = VoxelDensityField.param_grad_from
    parts_drawn = []

    def recorded(self, parts):
        parts_drawn.append(0)

        def counted():
            for part in parts:
                parts_drawn[-1] += 1
                yield part
                del part            # before the next part is made
        return scatter(self, counted())

    def peak(n_rays):
        parts_drawn.clear()
        tracemalloc.start()
        try:
            train(fix, replace(cfg, patch_count=n_rays // per_patch))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = optim.RAY_BLOCK
    assert block % per_patch == 0
    train(fix, replace(cfg, patch_count=block // per_patch))
    monkeypatch.setattr(VoxelDensityField, "param_grad_from", recorded)
    peak4 = peak(4 * block)
    assert parts_drawn == [4] * cfg.iterations
    peak2 = peak(2 * block)
    assert parts_drawn == [2] * cfg.iterations
    assert peak4 - peak2 < 256 * 2 * block


def full_blocks_config(blocks: int, iterations: int = 2):
    """The fixture's training config at 48 samples a ray, with ``blocks``
    full ray blocks per iteration."""
    fix = standard_occluder()
    cfg = replace(fix.train_config, iterations=iterations, patch_size=8, num_samples=48,
                  patch_count=blocks * optim.RAY_BLOCK // 64)
    return fix, cfg


def test_a_block_allocates_one_8_byte_array_a_sample_at_most(monkeypatch):
    """The block pass takes its per-sample arrays from a workspace that the
    first block fills; from then on a block's traced peak rises above its
    start by at most the lattice index of its inside points (8 B a
    sample), with 64 KiB for per-ray arrays and numpy's cast buffers.
    Allocating the pass's arrays afresh in every block rose by about
    290 B a sample."""
    fix, cfg = full_blocks_config(2)
    block_gradient, rises = optim._block_gradient, []

    def measured(*args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        part = block_gradient(*args, **kwargs)
        rises.append(tracemalloc.get_traced_memory()[1] - start)
        return part

    train(fix, cfg)
    monkeypatch.setattr(optim, "_block_gradient", measured)
    tracemalloc.start()
    try:
        train(fix, cfg)
    finally:
        tracemalloc.stop()
    samples = optim.RAY_BLOCK * cfg.num_samples
    assert len(rises) == 2 * cfg.iterations
    assert rises[0] > 16 * samples                  # the first block fills the workspace
    assert max(rises[1:]) <= 8 * samples + 65536


def test_no_workspace_outlives_a_train_call():
    """What ``train`` leaves allocated is its result's loss traces: the
    field's theta is updated in place, and the workspace, several MiB at
    this size, goes with the call.  The untraced call before it has a
    quarter of the samples, so a workspace kept as module state would
    grow in the traced call and stay."""
    fix, cfg = full_blocks_config(1)
    field = fix.base_field.copy()
    train(fix, replace(cfg, num_samples=12))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = optim.train(field, fix.scene, fix.views, cfg)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.field is field
    assert kept <= field.theta.nbytes + 3 * result.loss_total.nbytes + 65536


def allocating_adam(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as the allocating formula, kept as the oracle of the in-place
    ``AdamOptimizer.step``: theta, m and v after the steps."""
    m = v = np.zeros_like(theta)
    for t, grad in enumerate(grads, 1):
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad ** 2
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta, m, v


def test_adam_step_in_place_is_the_allocating_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    shape = (6, 5, 4)
    grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=shape) for _ in range(5)]
    grads.append(np.zeros(shape))
    theta0 = rng.normal(size=shape)
    adam, theta = optim.AdamOptimizer(shape), theta0.copy()
    for grad in grads:
        adam.step(theta, grad, 0.05)
    expected = allocating_adam(theta0, grads, 0.05)
    for got, want in zip((theta, adam.m, adam.v), expected):
        assert np.array_equal(got, want)
    assert not np.array_equal(theta, theta0)


# ---------------------------------------------------------------------------
# The view-overlap gate
# ---------------------------------------------------------------------------

def forward_view(fx=36.0, yaw_deg=0.0):
    """A 48x36 view from the origin, turned by ``yaw_deg``, seeing 3-20 m."""
    return CameraView(CameraIntrinsics(fx, fx, 23.5, 17.5, 48, 36),
                      yaw_pose(yaw_deg, [0.0, 0.0, 0.0]), FrustumSpec(3.0, 20.0))


def turned_back(view):
    """``view`` turned half a turn about its own y axis."""
    flip = Pose(np.diag([-1.0, 1.0, -1.0]), np.zeros(3))
    return CameraView(view.intrinsics, view.pose.compose(flip), view.frustum)


def test_coincident_views_overlap_fully():
    v = forward_view()
    assert optim.check_view_overlap([v, v]) == [1.0, 1.0]


def test_opposite_views_are_rejected():
    v = forward_view()
    with pytest.raises(ValueError, match="view 0 shares no frustum volume"):
        optim.check_view_overlap([v, turned_back(v)])


def test_a_wider_source_sees_more_of_the_target():
    """Source yawed 30 degrees: a 103-degree field of view sees strictly more
    of the target's frustum than a 64-degree one (the failure mode of
    narrow rigs)."""
    target = forward_view()
    wide, narrow = (optim.check_view_overlap(
        [target, forward_view(23.5 / np.tan(np.deg2rad(fov) / 2), 30.0)])[0]
        for fov in (103.0, 64.0))
    assert 0.0 < narrow < wide


def test_a_single_view_is_rejected():
    with pytest.raises(ValueError, match="at least two views"):
        optim.check_view_overlap([forward_view()])


@pytest.mark.parametrize("rig, match", [
    (lambda views: views[:1], "at least two views"),
    (lambda views: [views[0], turned_back(views[0])], "shares no frustum volume"),
], ids=["one-view", "opposite-views"])
def test_train_rejects_the_rig_before_rendering(occluder, monkeypatch, rig, match):
    fix, cfg = occluder
    rendered = recording(monkeypatch, "render_reference_image")
    with pytest.raises(ValueError, match=match):
        optim.train(fix.base_field.copy(), fix.scene, rig(fix.views), cfg)
    assert rendered == []
