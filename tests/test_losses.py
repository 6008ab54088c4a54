"""Loss terms and their analytic gradients against finite differences.

Central differences use step 1e-6 on fixtures kept away from the two L1
kinks (|residual| and |dsigma| bounded below), so relative agreement at
1e-5 is meaningful.
"""

from __future__ import annotations

import numpy as np
import pytest

from occrebench.field import AnalyticScene, Box
from occrebench.geometry import CameraIntrinsics, pixel_directions
from occrebench.losses import (LossConfig, grad_chain_alpha_to_sigma,
                               grad_reconstruction_wrt_alpha,
                               occlusion_gradient_probe, polarization_loss_and_grad,
                               reconstruction_loss, total_loss)
from occrebench.rendering import SamplingConfig, composite, opacity, transmittance

from conftest import render_rays


def random_profile(rng, n=8, rays=1, smooth=True):
    """Random alpha/color/sigma/delta fixture away from L1 kinks."""
    delta = rng.uniform(0.1, 0.6, (rays, n))
    sigma = rng.uniform(0.2, 3.0, (rays, n))
    if smooth:
        # keep |dsigma| away from the polarization kink
        for i in range(1, n):
            too_close = np.abs(sigma[:, i] - sigma[:, i - 1]) < 5e-3
            sigma[too_close, i] += 0.01
    alpha = opacity(sigma, delta)
    colors = rng.uniform(0.0, 1.0, (rays, n, 3))
    c_gt = rng.uniform(0.0, 1.0, (rays, 3))
    return alpha, colors, sigma, delta, c_gt


def grad_reconstruction_wrt_alpha_quadratic(alpha: np.ndarray, colors: np.ndarray,
                                            c_hat: np.ndarray, c_gt: np.ndarray,
                                            miss: np.ndarray | None = None) -> np.ndarray:
    """Direct O(N^2) evaluation of dL_r/dalpha, term by term: the oracle for
    the O(N) suffix recursion in ``grad_reconstruction_wrt_alpha``."""
    a = np.asarray(alpha, dtype=np.float64)
    c = np.asarray(colors, dtype=np.float64)
    s = np.sign(np.asarray(c_hat, dtype=np.float64) - np.asarray(c_gt, dtype=np.float64))
    trans = transmittance(a)
    n = a.shape[-1]
    grad = np.zeros(a.shape)
    for i in range(n):
        acc = trans[..., i, None] * c[..., i, :]
        gap = np.ones(a.shape[:-1])
        for j in range(i + 1, n):
            acc = acc - trans[..., i, None] * (a[..., j] * gap)[..., None] * c[..., j, :]
            gap = gap * (1.0 - a[..., j])
        grad[..., i] = np.sum(s * acc, axis=-1)
    if miss is not None:
        grad = np.where(miss, 0.0, grad)
    return grad


def polarization_loss(alpha, signal, sigma, pair_valid=None):
    return polarization_loss_and_grad(alpha, signal, sigma, pair_valid)[0]


def grad_polarization_wrt_sigma(alpha, signal, sigma, pair_valid=None):
    return polarization_loss_and_grad(alpha, signal, sigma, pair_valid)[1]


def fd_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar function over a 1-D array."""
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


class TestReconstructionLoss:
    def test_zero_at_equal_colors(self):
        c = np.array([0.3, 0.5, 0.7])
        assert reconstruction_loss(c, c) == 0.0

    def test_channel_sum_convention(self):
        assert reconstruction_loss(np.ones(3), np.zeros(3)) == 3.0

    def test_random_pair_hand_arithmetic(self):
        a = np.array([0.1, 0.9, 0.4])
        b = np.array([0.7, 0.2, 0.4])
        assert np.isclose(reconstruction_loss(a, b), 0.6 + 0.7 + 0.0, atol=1e-15)


class TestGradReconstruction:
    def test_single_sample_gradient_is_signed_color(self):
        alpha = np.array([0.4])
        colors = np.array([[0.8, 0.2, 0.5]])
        c_gt = np.array([0.0, 1.0, 0.5])
        c_hat, _, _ = composite(alpha, colors)
        g = grad_reconstruction_wrt_alpha(alpha, colors, c_hat, c_gt)
        # T_1 = 1, no downstream terms: g = sign(c_hat - c_gt) . c_1
        s = np.sign(c_hat - c_gt)
        assert np.isclose(g[0], np.dot(s, colors[0]), atol=1e-15)

    def test_gradient_zero_behind_saturated_occluder(self):
        # alpha = 1.0 exactly (float saturation): all downstream T are 0.
        alpha = np.array([0.2, 1.0, 0.5, 0.7])
        colors = np.array([[0.9, 0.1, 0.2], [0.6, 0.3, 0.1],
                           [0.6, 0.3, 0.1], [0.6, 0.3, 0.1]])
        c_hat, trans, _ = composite(alpha, colors)
        assert trans[2] == 0.0 and trans[3] == 0.0
        g = grad_reconstruction_wrt_alpha(alpha, colors, c_hat, np.zeros(3))
        assert g[2] == 0.0 and g[3] == 0.0
        assert g[0] != 0.0

    def test_linear_and_quadratic_agree(self):
        rng = np.random.default_rng(3)
        alpha, colors, _, _, c_gt = random_profile(rng, n=16, rays=32)
        c_hat, _, _ = composite(alpha, colors)
        g1 = grad_reconstruction_wrt_alpha(alpha, colors, c_hat, c_gt)
        g2 = grad_reconstruction_wrt_alpha_quadratic(alpha, colors, c_hat, c_gt)
        assert np.max(np.abs(g1 - g2)) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            alpha, colors, _, _, c_gt = random_profile(rng)
            alpha, colors, c_gt = alpha[0], colors[0], c_gt[0]
            c_hat, _, _ = composite(alpha, colors)
            if np.any(np.abs(c_hat - c_gt) < 1e-3):
                continue  # stay away from the L1 kink
            g = grad_reconstruction_wrt_alpha(alpha, colors, c_hat, c_gt)

            def loss(a):
                ch, _, _ = composite(a, colors)
                return reconstruction_loss(ch, c_gt)

            fd = fd_grad(loss, alpha)
            rel = np.abs(fd - g) / np.maximum(np.abs(fd), 1e-9)
            assert np.max(rel) < 1e-5

    def test_miss_flag_zeroes_gradient(self):
        rng = np.random.default_rng(7)
        alpha, colors, _, _, c_gt = random_profile(rng)
        miss = np.zeros(alpha.shape, dtype=bool)
        miss[0, 3] = True
        colors = np.where(miss[..., None], 0.0, colors)
        c_hat, _, _ = composite(alpha, colors)
        g = grad_reconstruction_wrt_alpha(alpha, colors, c_hat, c_gt, miss=miss)
        assert g[0, 3] == 0.0


class TestChainRule:
    def test_zero_density_factor_is_delta(self):
        g = grad_chain_alpha_to_sigma(np.ones(3), np.zeros(3), np.array([0.2, 0.5, 1.0]))
        assert np.allclose(g, [0.2, 0.5, 1.0])

    def test_saturation_kills_gradient(self):
        g = grad_chain_alpha_to_sigma(np.ones(1), np.array([1000.0]), np.array([1.0]))
        assert g[0] == 0.0

    def test_full_chain_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            alpha, colors, sigma, delta, c_gt = random_profile(rng)
            alpha, colors, sigma, delta, c_gt = (
                alpha[0], colors[0], sigma[0], delta[0], c_gt[0])
            c_hat, _, _ = composite(alpha, colors)
            if np.any(np.abs(c_hat - c_gt) < 1e-3):
                continue
            g_alpha = grad_reconstruction_wrt_alpha(alpha, colors, c_hat, c_gt)
            g_sigma = grad_chain_alpha_to_sigma(g_alpha, sigma, delta)

            def loss(s):
                ch, _, _ = composite(opacity(s, delta), colors)
                return reconstruction_loss(ch, c_gt)

            fd = fd_grad(loss, sigma)
            rel = np.abs(fd - g_sigma) / np.maximum(np.abs(fd), 1e-9)
            assert np.max(rel) < 1e-5


class TestPolarizationLoss:
    def test_zero_when_colors_equal(self):
        alpha = np.array([0.3, 0.5, 0.2])
        colors = np.tile(np.array([0.4, 0.4, 0.4]), (3, 1))
        sigma = np.array([1.0, 2.0, 0.5])
        assert polarization_loss(alpha, colors, sigma) == 0.0

    def test_zero_when_all_alpha_zero(self):
        alpha = np.zeros(4)
        rng = np.random.default_rng(0)
        colors = rng.uniform(0, 1, (4, 3))
        sigma = rng.uniform(0, 2, 4)
        assert polarization_loss(alpha, colors, sigma) == 0.0

    def test_hand_two_sample_value(self):
        # sigma = delta = 1 on both: M = max(alpha) = 1 - 1/e; dsigma = 0;
        # channel-summed |dc| = 0.5 -> term = (1 - 1/e) * 0.5.
        sigma = np.array([1.0, 1.0])
        delta = np.array([1.0, 1.0])
        alpha = opacity(sigma, delta)
        colors = np.array([[0.2, 0.2, 0.1], [0.2, 0.2, 0.6]])
        got = polarization_loss(alpha, colors, sigma)
        assert np.isclose(got, (1 - np.exp(-1.0)) * 0.5, atol=1e-12)

    def test_nonnegative_and_decreasing_in_dsigma(self):
        alpha = np.array([0.5, 0.5])
        colors = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        prev = np.inf
        for ds in (0.0, 0.5, 1.0, 2.0):
            val = polarization_loss(alpha, colors, np.array([1.0, 1.0 + ds]))
            assert 0.0 <= val < prev or (val == prev == 0.0)
            prev = val

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            polarization_loss(np.array([0.5]), np.zeros((1, 3)), np.array([1.0]))

    def test_scalar_signal_channel(self):
        # pluggable per-point scalar channel (e.g. pseudo-depth)
        alpha = np.array([0.5, 0.5])
        sigma = np.array([1.0, 1.0])
        signal = np.array([2.0, 5.0])
        assert np.isclose(polarization_loss(alpha, signal, sigma), 0.5 * 3.0)


class TestGradPolarization:
    def test_zero_subgradient_at_equal_sigma(self):
        alpha = np.array([0.5, 0.5, 0.5])
        colors = np.random.default_rng(0).uniform(0, 1, (3, 3))
        sigma = np.array([1.0, 1.0, 1.0])
        g = grad_polarization_wrt_sigma(alpha, colors, sigma)
        assert np.all(g == 0.0)

    def test_sign_pushes_apart(self):
        # Perturb sigma_2 upward from the symmetric fixture: the loss must
        # fall, so the analytic gradient at sigma_2 is negative.
        sigma = np.array([1.0, 1.01])
        delta = np.array([1.0, 1.0])
        alpha = opacity(sigma, delta)
        colors = np.array([[0.2, 0.2, 0.1], [0.2, 0.2, 0.6]])
        g = grad_polarization_wrt_sigma(alpha, colors, sigma)
        assert g[1] < 0.0 and g[0] > 0.0
        l0 = polarization_loss(alpha, colors, sigma)
        l1 = polarization_loss(alpha, colors, sigma + np.array([0.0, 0.01]))
        assert l1 < l0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 10:
            alpha, colors, sigma, delta, _ = random_profile(rng)
            alpha, colors, sigma = alpha[0], colors[0], sigma[0]
            if np.min(np.abs(np.diff(sigma))) < 1e-3:
                continue
            g = grad_polarization_wrt_sigma(alpha, colors, sigma)

            # mask detached: alpha held fixed while sigma varies
            def loss(s):
                return polarization_loss(alpha, colors, s)

            fd = fd_grad(loss, sigma)
            rel = np.abs(fd - g) / np.maximum(np.abs(fd), 1e-9)
            assert np.max(rel) < 1e-5
            checked += 1


class TestTotalLoss:
    def test_lambda_p_zero_equals_mean_reconstruction(self):
        rng = np.random.default_rng(17)
        alpha, colors, sigma, delta, c_gt = random_profile(rng, rays=16)
        cfg = LossConfig(lambda_r=1.0, lambda_p=0.0)
        terms = total_loss(alpha, colors, sigma, delta, c_gt, cfg)
        c_hat, _, _ = composite(alpha, colors)
        assert np.isclose(terms.total, np.mean(reconstruction_loss(c_hat, c_gt)))
        assert np.all(terms.polar_wrt_sigma * 0.0 == 0.0)

    def test_lambda_r_zero_constant_colors_zero_loss(self):
        rng = np.random.default_rng(19)
        alpha, colors, sigma, delta, c_gt = random_profile(rng, rays=4)
        colors[:] = 0.25
        cfg = LossConfig(lambda_r=0.0, lambda_p=1e-3)
        assert total_loss(alpha, colors, sigma, delta, c_gt, cfg).total == 0.0

    def test_default_weights_combine_by_hand(self):
        rng = np.random.default_rng(23)
        alpha, colors, sigma, delta, c_gt = random_profile(rng, rays=8)
        cfg = LossConfig()  # lambda_r = 1, lambda_p = 1e-3
        terms = total_loss(alpha, colors, sigma, delta, c_gt, cfg)
        c_hat, _, _ = composite(alpha, colors)
        lr = reconstruction_loss(c_hat, c_gt)
        lp = polarization_loss(alpha, colors, sigma)
        assert np.isclose(terms.total, np.mean(1.0 * lr + 1e-3 * lp), atol=1e-15)

    def test_total_gradient_composes_terms(self):
        # total = (lambda_r * recon + lambda_p * polar) / n_rays, exactly.
        rng = np.random.default_rng(29)
        alpha, colors, sigma, delta, c_gt = random_profile(rng, rays=3)
        cfg = LossConfig()
        grads = total_loss(alpha, colors, sigma, delta, c_gt, cfg)
        expect = (cfg.lambda_r * grads.recon_wrt_sigma
                  + cfg.lambda_p * grads.polar_wrt_sigma) / 3
        assert np.array_equal(grads.total_wrt_sigma, expect)

    def test_total_gradient_matches_fd_with_detached_mask(self):
        """FD oracle for the full weighted loss.  The polarization mask is
        detached by design, so the oracle holds the mask's alpha fixed while
        sigma varies (reconstruction still sees alpha(sigma))."""
        rng = np.random.default_rng(29)
        alpha, colors, sigma, delta, c_gt = random_profile(rng, rays=3)
        cfg = LossConfig()
        grads = total_loss(alpha, colors, sigma, delta, c_gt, cfg)
        mask_alpha = alpha.copy()

        def detached_loss(sig_flat):
            sig = sig_flat.reshape(sigma.shape)
            a = opacity(sig, delta)
            c_hat, _, _ = composite(a, colors)
            lr = reconstruction_loss(c_hat, c_gt)
            lp = polarization_loss(mask_alpha, colors, sig)
            return np.mean(cfg.lambda_r * lr + cfg.lambda_p * lp)

        # skip fixtures where FD straddles an L1 kink
        c_hat, _, _ = composite(alpha, colors)
        if np.any(np.abs(c_hat - c_gt) < 1e-3):
            pytest.skip("fixture too close to the L1 kink")
        fd = fd_grad(detached_loss, sigma.reshape(-1)).reshape(sigma.shape)
        rel = np.abs(fd - grads.total_wrt_sigma) / np.maximum(np.abs(fd), 1e-7)
        assert np.max(rel) < 1e-4

    def test_miss_flagged_samples_contribute_nothing(self):
        rng = np.random.default_rng(31)
        alpha, colors, sigma, delta, c_gt = random_profile(rng, rays=2)
        miss = np.zeros(alpha.shape, dtype=bool)
        miss[:, 4] = True
        colors_m = np.where(miss[..., None], 0.0, colors)
        cfg = LossConfig()
        grads = total_loss(alpha, colors_m, sigma, delta, c_gt, cfg, miss=miss)
        assert np.all(grads.recon_wrt_alpha[:, 4] == 0.0)
        assert np.all(grads.recon_wrt_sigma[:, 4] == 0.0)
        # both pairs touching sample 4 are excluded from polarization
        g_free = grad_polarization_wrt_sigma(alpha, colors_m, sigma)
        assert not np.allclose(grads.polar_wrt_sigma[:, 4], g_free[:, 4])
        assert np.all(grads.polar_wrt_sigma[:, 4] == 0.0)

    def test_terms_are_unweighted_batch_means(self):
        rng = np.random.default_rng(37)
        alpha, colors, sigma, delta, c_gt = random_profile(rng, rays=5)
        c_hat, _, _ = composite(alpha, colors)
        for cfg in (LossConfig(), LossConfig(lambda_p=0.0), LossConfig(lambda_r=0.0)):
            terms = total_loss(alpha, colors, sigma, delta, c_gt, cfg)
            assert terms.recon == np.mean(reconstruction_loss(c_hat, c_gt))
            assert terms.polar == np.mean(polarization_loss(alpha, colors, sigma))
            assert terms.polar > 0.0

    def test_empty_batch_rejected(self):
        cfg = LossConfig()
        with pytest.raises(ValueError):
            total_loss(np.zeros((0, 4)), np.zeros((0, 4, 3)), np.zeros((0, 4)),
                       np.zeros((0, 4)), np.zeros((0, 3)), cfg)

    def test_negative_weights_rejected(self):
        """Negative, NaN and infinite weights are refused by name; NaN
        passed a `< 0` test and made every loss NaN."""
        for name, value in (("lambda_r", -1.0), ("lambda_p", -1e-3), ("lambda_r", np.nan),
                            ("lambda_p", np.nan), ("lambda_p", np.inf)):
            with pytest.raises(ValueError, match=name):
                LossConfig(**{name: value})


class TestOcclusionProbe:
    def scene_with_occluder(self, sigma_occ):
        return AnalyticScene((
            Box([-5, -5, 6.0], [5, 5, 6.5], sigma_occ, [0.8, 0.1, 0.1]),
            Box([-5, -5, 12.0], [5, 5, 12.5], 50.0, [0.1, 0.1, 0.8]),
        ))

    def axis_dirs(self):
        return pixel_directions(CameraIntrinsics(100, 100, 50, 25, 101, 51),
                                np.array([[50.0, 25.0]]))

    def probe(self, scene, cfg):
        """The probe's table for the optical-axis ray, shape (N, 2)."""
        table = occlusion_gradient_probe(scene, scene, np.zeros((1, 3)), self.axis_dirs(),
                                         cfg, c_gt=np.array([1.0, 1.0, 1.0]))
        assert table.shape == (1, cfg.num_samples, 2)
        return table[0]

    def test_saturated_occluder_exact_zero_downstream(self):
        scene = self.scene_with_occluder(2000.0)  # sigma*delta underflows exp
        cfg = SamplingConfig(128, 3.0, 20.0)
        table = self.probe(scene, cfg)
        behind = table[:, 0] > 6.6
        assert np.all(table[behind, 1] == 0.0)

    def test_no_occluder_gradients_positive(self):
        # Uniform thin medium filling the range: every sample has positive
        # transmittance and uncovered suffix, so every gradient is live.
        medium = Box([-50, -50, 2.0], [50, 50, 21.0], 0.05, [0.3, 0.5, 0.7])
        scene = AnalyticScene((medium,))
        cfg = SamplingConfig(64, 3.0, 20.0)
        table = self.probe(scene, cfg)
        assert np.all(table[:, 1] > 0.0)

    def test_low_transmittance_occluder_ratio_bound(self):
        """Downstream/upstream ratio of the opacity-side gradient.

        Occluder sigma is chosen for transmittance exactly 0.01 over its
        0.5 m thickness; the gradient mass surviving behind it is bounded
        by that transmittance (0.02 allows discretization slack).
        """
        sigma_occ = -np.log(0.01) / 0.5
        scene = self.scene_with_occluder(sigma_occ)
        cfg = SamplingConfig(256, 3.0, 20.0)
        prof = render_rays(scene, scene, self.axis_dirs(), cfg)
        g = np.abs(grad_reconstruction_wrt_alpha(prof.alpha, prof.colors,
                                                 prof.color, np.ones(3)))
        in_front = prof.t < 6.0
        behind = prof.t > 6.6
        assert np.max(g[behind]) / np.max(g[in_front]) <= 0.02
