"""The trainer's documented claims, pinned on a tiny configuration of the
standard occluder: a (config, seed) pair reproduces the parameters bit for
bit, the lambda_p on/off arms see identical random draws, the loss traces
are measured directly, the blocked loss pass gives what the whole-batch
pass gave bit for bit, and its memory does not grow with per-view
temporaries."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from occrebench import optim
from occrebench.field import render_reference_image
from occrebench.fixtures import standard_occluder
from occrebench.losses import total_loss
from occrebench.rendering import (MODE_TRAIN, SamplingConfig, SourceViewSampler, opacity,
                                  sample_patch_rays, sample_points_batch)


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
    arguments and result; returns the list of (args, kwargs, result)."""
    calls = []
    original = getattr(optim, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, kwargs, out))
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


def test_lambda_p_arms_see_identical_draws(occluder, monkeypatch):
    fix, cfg = occluder
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
])
def test_train_config_names_the_rejected_field(name, value):
    """beta = 1 would divide by zero in Adam's bias correction (theta NaN
    after one step); beta > 1 makes the moment averages diverge.  A NaN
    loss weight turned theta NaN with no error; an empty or negative batch
    shape failed only after the reference images were rendered."""
    with pytest.raises(ValueError, match=name):
        optim.TrainConfig(**{name: value})


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
        hits.append(hit)
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


def test_training_memory_grows_only_by_the_per_sample_arrays():
    """From 2 to 4 blocks of rays, train's tracemalloc peak may grow by the
    per-sample arrays it holds: points (24 B a sample), sigma, alpha, delta
    and dL/dsigma (8 B each) and the located points (a 1 B inside flag;
    8 B of base index and 24 B of offsets if inside).  One per-view
    (R, N, 3) float64 temporary more would add 24 B a sample; the
    whole-batch pass grew by about 311 B a sample."""
    fix = standard_occluder()
    cfg = replace(fix.train_config, iterations=2, patch_size=8, num_samples=48)
    per_patch = cfg.patch_size ** 2

    def peak(n_rays):
        tracemalloc.start()
        try:
            train(fix, replace(cfg, patch_count=n_rays // per_patch))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = optim.RAY_BLOCK
    assert block % per_patch == 0
    growth = peak(4 * block) - peak(2 * block)
    held_per_sample = 24 + 4 * 8 + (1 + 8 + 24)
    assert growth < 2 * block * cfg.num_samples * held_per_sample
