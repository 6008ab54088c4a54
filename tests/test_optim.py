"""The trainer's documented claims, pinned on a tiny configuration of the
standard occluder: a (config, seed) pair reproduces the parameters bit for
bit, the lambda_p on/off arms see identical random draws, and the loss
traces are measured directly."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from occrebench import optim
from occrebench.fixtures import standard_occluder


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
    fix, cfg = occluder
    calls = recording(monkeypatch, "total_loss")
    result = train(fix, replace(cfg, lambda_p=0.0))
    per_source = [direct_mean_polarization(args[0], args[1], args[2], kwargs["miss"])
                  for args, kwargs, _ in calls]
    n_src = len(fix.views) - 1
    expected = np.mean(np.reshape(per_source, (cfg.iterations, n_src)), axis=1)
    assert np.all(result.loss_polar > 0.0)
    assert np.allclose(result.loss_polar, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(result.loss_total, result.loss_recon)


@pytest.mark.parametrize("name, value", [
    ("learning_rate", 0.0), ("lr_decay_factor", -1.0), ("eps", 0.0), ("eps", np.nan),
    ("beta1", 0.0), ("beta1", 1.0), ("beta1", 1.5), ("beta2", 1.0), ("beta2", -0.1),
    ("near", 30.0),
])
def test_train_config_names_the_rejected_field(name, value):
    """beta = 1 would divide by zero in Adam's bias correction (theta NaN
    after one step); beta > 1 makes the moment averages diverge."""
    with pytest.raises(ValueError, match=name):
        optim.TrainConfig(**{name: value})
