"""Sampling, opacity, compositing, and source-view color lookup."""

from __future__ import annotations

import numpy as np
import pytest

from occrebench.field import AnalyticScene, Box
from occrebench.geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose, \
    ccs_to_tcs, pixel_directions
from occrebench.losses import ray_terms
from occrebench.rendering import (PatchBatch, SamplingConfig, SourceViewSampler,
                                  bilinear_sample, composite, interval_lengths,
                                  opacity, sample_color_from_view,
                                  sample_patch_rays, sample_points_batch,
                                  transmittance)

from conftest import closed_form_transmittance, render_rays, yaw_pose

# The optical axis of a camera: the ray through its principal point.
AXIS = pixel_directions(CameraIntrinsics(1, 1, 0, 0, 2, 2), np.array([[0.0, 0.0]]))


def axis_samples(cfg, rng=None):
    """(t, points, delta) along the optical axis: shapes (N,), (N, 3), (N,)."""
    t, pts, delta = sample_points_batch(np.zeros((1, 3)), AXIS, cfg, rng)
    return t[0], pts[0], delta[0]


class TestSampling:
    def cfg(self, n=8, mode="eval", near=1.0, far=2.0):
        return SamplingConfig(num_samples=n, near=near, far=far, mode=mode)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(1, 1.0, 2.0)
        with pytest.raises(ValueError):
            SamplingConfig(4, 2.0, 1.0)
        with pytest.raises(ValueError):
            SamplingConfig(4, 1.0, 2.0, mode="jazz")

    @pytest.mark.parametrize("n", [2.5, 8.0, True, None])
    def test_num_samples_must_be_an_int(self, n):
        """2.5 samples constructed, and sample_distances then drew 3."""
        with pytest.raises(ValueError, match="^num_samples must be an int >= 2"):
            SamplingConfig(n, 1.0, 2.0)

    def test_eval_first_sample_at_near(self):
        t, _, _ = axis_samples(self.cfg(n=16, near=3.0, far=20.0))
        assert t[0] == 3.0

    def test_eval_hand_value_n2(self):
        # s_1 = 1/2: 1/t = 0.5/1 + 0.5/2 = 0.75 -> t = 4/3.
        t, _, _ = axis_samples(self.cfg(n=2))
        assert np.allclose(t, [1.0, 4.0 / 3.0], atol=1e-15)

    def test_eval_inverse_depth_linear(self):
        t, _, _ = axis_samples(self.cfg(n=32, near=3.0, far=20.0))
        inv = 1.0 / t
        assert np.allclose(np.diff(inv, 2), 0.0, atol=1e-15)

    def test_interval_lengths_cover_exactly(self):
        t, _, d = axis_samples(self.cfg(n=16, near=3.0, far=20.0))
        assert np.all(d > 0)
        assert np.isclose(np.sum(d), 17.0, atol=1e-12)
        assert np.allclose(d[:-1], np.diff(t))

    def test_eval_tcs_depth_is_i_over_n(self, simple_intrinsics):
        """Substituting inverse-depth samples into the cube transform gives z = i/N."""
        fr = FrustumSpec(3.0, 20.0)
        cfg = SamplingConfig(64, fr.near, fr.far)
        dirs = pixel_directions(simple_intrinsics,
                                np.array([[0.0, 0.0], [50.0, 25.0], [87.0, 13.0]]))
        _, pts, _ = sample_points_batch(np.zeros_like(dirs), dirs, cfg)
        z = ccs_to_tcs(pts, simple_intrinsics, fr)[..., 2]
        assert np.max(np.abs(z - np.arange(64) / 64.0)) < 1e-12

    def test_train_mode_jitters_within_strata(self):
        cfg = self.cfg(n=64, mode="train", near=3.0, far=20.0)
        t1, _, d1 = axis_samples(cfg, np.random.default_rng(5))
        t2, _, _ = axis_samples(cfg, np.random.default_rng(5))
        assert np.array_equal(t1, t2)  # deterministic from the generator's state
        assert np.all(np.diff(t1) > 0) and np.all(d1 > 0)
        t_eval, _, _ = axis_samples(self.cfg(n=64, near=3.0, far=20.0))
        assert not np.array_equal(t1, t_eval)

    def test_train_mode_needs_a_generator(self):
        """Without ``rng``, train mode used to draw its jitter from a fixed
        seed of its own, the same for every call."""
        with pytest.raises(ValueError, match="rng"):
            axis_samples(self.cfg(n=8, mode="train"))


@pytest.mark.parametrize("block", [1, 7, 20], ids=["one-ray", "short-last-block", "one-block"])
def test_block_draws_equal_the_whole_batch_draw(simple_intrinsics, block):
    """Train-mode sampling over consecutive ray blocks from one generator
    gives what one whole-batch call gives from a twin generator, bit for
    bit: the trainer samples block by block on this."""
    cfg = SamplingConfig(16, 3.0, 20.0, mode="train")
    rng = np.random.default_rng(11)
    n_rays = 20
    dirs = pixel_directions(simple_intrinsics, rng.uniform(0, 50, (n_rays, 2)))
    origins = rng.normal(size=(n_rays, 3))
    whole = sample_points_batch(origins, dirs, cfg, np.random.default_rng(4))
    blocked_rng = np.random.default_rng(4)
    parts = [sample_points_batch(origins[s:s + block], dirs[s:s + block], cfg, blocked_rng)
             for s in range(0, n_rays, block)]
    for got, expected in zip(zip(*parts), whole):
        assert np.array_equal(np.concatenate(got), expected)


class TestOpacity:
    def test_zero_density_zero_opacity(self):
        assert opacity(0.0, 1.0) == 0.0
        assert np.all(opacity(np.zeros(5), np.full(5, 0.3)) == 0.0)

    def test_hand_value(self):
        assert np.isclose(opacity(1.0, 1.0), 1.0 - np.exp(-1.0), atol=1e-15)

    def test_saturation_stays_below_one(self):
        a = opacity(20.0, 1.0)
        assert a < 1.0 and abs(a - 1.0) < 1e-8

    def test_monotone_in_sigma_and_delta(self):
        sig = np.linspace(0.1, 5.0, 20)
        assert np.all(np.diff(opacity(sig, 0.7)) > 0)
        dlt = np.linspace(0.1, 5.0, 20)
        assert np.all(np.diff(opacity(0.7, dlt)) > 0)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            opacity(-0.1, 1.0)
        with pytest.raises(ValueError):
            opacity(1.0, 0.0)

    def test_nan_density_and_interval_rejected(self):
        """NaN < 0 is false, so a sign test alone lets NaN through as a NaN
        opacity."""
        with pytest.raises(ValueError, match="density"):
            opacity(np.array([0.5, np.nan]), 1.0)
        with pytest.raises(ValueError, match="interval"):
            opacity(0.5, np.array([1.0, np.nan]))


class TestComposite:
    def test_opaque_first_sample(self):
        a = np.array([1 - 1e-12])
        c = np.array([[0.2, 0.4, 0.6]])
        c_hat, trans, residual = composite(a, c)
        assert np.allclose(c_hat, c[0], atol=1e-9)
        assert trans[0] == 1.0 and residual < 1e-11

    def test_empty_ray_is_black(self):
        c_hat, trans, residual = composite(np.zeros(4), np.ones((4, 3)))
        assert np.all(c_hat == 0.0) and residual == 1.0
        assert np.all(trans == 1.0)

    def test_hand_two_sample_case(self):
        c_hat, trans, residual = composite(
            np.array([0.5, 0.5]), np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(c_hat, 0.5)
        assert np.allclose(trans, [1.0, 0.5])
        assert np.isclose(residual, 0.25)

    def test_energy_conservation(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 0.9, (50, 32))
        c = rng.uniform(0, 1, (50, 32, 3))
        _, trans, residual = composite(a, c)
        total = np.sum(a * trans, axis=-1) + residual
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_transmittance_consistency(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 0.99, (20, 16))
        _, trans, residual = composite(a, np.zeros((20, 16, 3)))
        assert np.max(np.abs(residual - np.prod(1 - a, axis=-1))) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            composite(np.zeros(3), np.zeros((4, 3)))

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            composite(np.array([1.0 + 1e-9]), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            composite(np.array([-0.1]), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="alphas"):
            composite(np.array([0.5, np.nan]), np.zeros((2, 3)))

    def test_saturated_alpha_composites_as_full_absorption(self):
        c_hat, trans, residual = composite(
            np.array([1.0, 0.5]), np.array([[0.3, 0.3, 0.3], [1.0, 1.0, 1.0]]))
        assert np.allclose(c_hat, [0.3, 0.3, 0.3])
        assert residual == 0.0


class TestRenderRay:
    def test_empty_scene(self):
        scene = AnalyticScene(())
        cfg = SamplingConfig(32, 3.0, 20.0)
        prof = render_rays(scene, scene, AXIS, cfg)
        assert np.all(prof.color == 0.0)
        assert prof.residual[0] == 1.0
        assert not prof.miss.any()

    def test_slab_transmittance_approaches_closed_form(self):
        scene = AnalyticScene((Box([-5, -5, 8], [5, 5, 8.5], 50.0, [1, 0, 0]),))
        exact = np.exp(-25.0)
        errs = []
        for n in (64, 256, 1024):
            cfg = SamplingConfig(n, 3.0, 20.0)
            prof = render_rays(scene, scene, AXIS, cfg)
            errs.append(abs(prof.residual[0] - exact))
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-2

    def test_constant_density_transmittance_within_1pct(self):
        scene = AnalyticScene((Box([-50, -50, 1], [50, 50, 30], 0.1, [1, 1, 1]),))
        cfg = SamplingConfig(256, 3.0, 20.0)
        prof = render_rays(scene, scene, AXIS, cfg)
        assert abs(prof.residual[0] - np.exp(-1.7)) < 0.01 * np.exp(-1.7)

    def test_profile_invariants(self, box_scene):
        cfg = SamplingConfig(64, 3.0, 20.0)
        prof = render_rays(box_scene, box_scene, AXIS, cfg)
        assert np.all(prof.alpha >= 0) and np.all(prof.alpha < 1)
        assert prof.trans[0, 0] == 1.0
        assert np.all(np.diff(prof.trans, axis=-1) <= 0)
        assert np.sum(prof.alpha * prof.trans) <= 1.0 + 1e-12

    def test_convergence_rate_halves_with_n(self, sphere_scene):
        """|T_N - T_exact| ~ O(1/N): mean error over a ray bundle halves
        (within factor 1.5) when N doubles.

        The bundle keeps rays passing well inside the sphere; grazing rays
        are pre-asymptotic at small N (a whole chord can fall between
        samples) and are the business of the max-error bound instead.
        """
        intr = CameraIntrinsics(60, 60, 19.5, 14.5, 40, 30)
        rng = np.random.default_rng(12)
        center = sphere_scene.primitives[0].center
        dirs = []
        while len(dirs) < 64:
            d = pixel_directions(intr, rng.uniform([5, 5], [34, 24]))
            impact = np.linalg.norm(np.cross(d, -center))
            if impact < 0.75 * sphere_scene.primitives[0].radius:
                dirs.append(d)
        dirs = np.stack(dirs)
        exact = np.array([closed_form_transmittance(sphere_scene, np.zeros(3), d, 3.0, 12.0)
                          for d in dirs])
        mean_err = {}
        for n in (32, 64, 128, 256):
            cfg = SamplingConfig(n, 3.0, 12.0)
            res = render_rays(sphere_scene, sphere_scene, dirs, cfg).residual
            mean_err[n] = np.mean(np.abs(res - exact))
            assert np.max(np.abs(res - exact)) < 0.01
        for n in (32, 64, 128):
            ratio = mean_err[2 * n] / mean_err[n]
            assert 0.5 / 1.5 <= ratio <= 0.5 * 1.5, (n, ratio)


class TestMagnitudeVariation:
    def test_equal_opacity_density_ratio_tracks_interval_ratio(self):
        """Two samples forced to the same opacity with interval lengths
        delta_B, delta_C = rho * delta_B need densities with
        sigma_B / sigma_C = rho exactly; fitted numerically here."""
        cfg = SamplingConfig(32, 3.0, 20.0)
        t, _, delta = axis_samples(cfg)
        i_near, i_far = 2, 29
        target = 0.55

        def fit_sigma(dlt):
            lo, hi = 0.0, 1e4
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if opacity(mid, dlt) < target:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        sig_b = fit_sigma(delta[i_near])
        sig_c = fit_sigma(delta[i_far])
        assert abs(opacity(sig_b, delta[i_near]) - opacity(sig_c, delta[i_far])) < 1e-6
        rho = delta[i_far] / delta[i_near]
        assert abs(sig_b / sig_c - rho) / rho < 0.10
        for a in (opacity(sig_b, delta[i_near]), opacity(sig_c, delta[i_far])):
            assert 0.0 < a < 1.0


def four_product_bilinear(image, u, v):
    """The bilinear lookup before it worked in place, kept as the oracle."""
    h, w = image.shape[:2]
    u = np.clip(np.asarray(u, dtype=np.float64), 0, w - 1)
    v = np.clip(np.asarray(v, dtype=np.float64), 0, h - 1)
    u0 = np.clip(np.floor(u).astype(np.int64), 0, w - 2)
    v0 = np.clip(np.floor(v).astype(np.int64), 0, h - 2)
    fu, fv = u - u0, v - v0
    gu, gv = 1 - fu, 1 - fv
    return (gu[..., None] * gv[..., None] * image[v0, u0]
            + fu[..., None] * gv[..., None] * image[v0, u0 + 1]
            + gu[..., None] * fv[..., None] * image[v0 + 1, u0]
            + fu[..., None] * fv[..., None] * image[v0 + 1, u0 + 1])


class TestColorSampling:
    def gradient_image(self, h=32, w=48):
        img = np.zeros((h, w, 3))
        img[..., 0] = np.arange(w)[None, :] / (w - 1)
        img[..., 1] = np.arange(h)[:, None] / (h - 1)
        return img

    def test_identity_pose_axis_point(self):
        intr = CameraIntrinsics(10.0, 10.0, 23.5, 15.5, 48, 32)
        img = self.gradient_image()
        colors, hit = sample_color_from_view(img, intr, np.array([0.0, 0.0, 5.0]),
                                             Pose.identity())
        assert hit
        assert np.allclose(colors, bilinear_sample(img, 23.5, 15.5))

    def test_point_behind_source_misses(self):
        intr = CameraIntrinsics(10.0, 10.0, 23.5, 15.5, 48, 32)
        colors, hit = sample_color_from_view(self.gradient_image(), intr,
                                             np.array([0.0, 0.0, -5.0]), Pose.identity())
        assert not hit and np.all(colors == 0.0)

    def test_bilinear_hand_average(self):
        # (10.5, 20.5) averages the four surrounding pixels of the gradient.
        img = self.gradient_image()
        got = bilinear_sample(img, 10.5, 20.5)
        expected = (img[20, 10] + img[20, 11] + img[21, 10] + img[21, 11]) / 4
        assert np.allclose(got, expected, atol=1e-15)

    @pytest.mark.parametrize("shape", [(), (1,), (7, 5)], ids=["scalar", "one-point", "2-d"])
    def test_bilinear_matches_the_four_product_formula(self, shape):
        """Bit for bit the formula the in-place lookup replaced, with
        coordinates off the image and NaN among them, in the input shape."""
        rng = np.random.default_rng(13)
        img = rng.uniform(0.0, 1.0, (9, 12, 3))
        u = rng.uniform(-2.0, 14.0, shape)
        v = rng.uniform(-2.0, 11.0, shape)
        if u.size > 1:
            u.flat[0], v.flat[1] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            got = bilinear_sample(img, u, v)
            expected = four_product_bilinear(img, u, v)
        assert got.shape == shape + (3,)
        assert np.array_equal(got, expected, equal_nan=True)

    def test_out_of_bounds_projection_misses(self):
        intr = CameraIntrinsics(10.0, 10.0, 23.5, 15.5, 48, 32)
        pts = np.array([[100.0, 0.0, 1.0], [0.0, 0.0, 5.0]])
        colors, hit = sample_color_from_view(self.gradient_image(), intr, pts,
                                             Pose.identity())
        assert not hit[0] and hit[1]
        assert np.all(colors[0] == 0.0)

    def test_source_sampler_round_trip(self, box_scene):
        """A world point on the box's visible face samples the box color."""
        from occrebench.field import render_reference_image
        intr = CameraIntrinsics(60.0, 60.0, 31.5, 23.5, 64, 48)
        view = CameraView(intr, yaw_pose(-15.0, [2.0, 0.0, 0.0]), FrustumSpec(1.0, 50.0))
        img = render_reference_image(box_scene, view)
        sampler = SourceViewSampler(img, view)
        colors, hit = sampler.sample_colors(np.array([[0.0, 0.0, 6.0 + 1e-6]]))
        assert hit[0]
        assert np.allclose(colors[0], [1.0, 0.0, 0.0], atol=1e-9)


class TestPatchSampling:
    def view(self, w=64, h=48):
        return CameraView(CameraIntrinsics(60.0, 60.0, (w - 1) / 2, (h - 1) / 2, w, h),
                          Pose.identity(), FrustumSpec(1.0, 50.0))

    def test_deterministic_for_fixed_seed(self):
        b1 = sample_patch_rays(self.view(), np.random.default_rng(42))
        b2 = sample_patch_rays(self.view(), np.random.default_rng(42))
        assert np.array_equal(b1.pixels, b2.pixels)
        assert np.array_equal(b1.corners, b2.corners)

    def test_default_batch_is_4096_rays(self):
        batch = sample_patch_rays(self.view(), np.random.default_rng(0))
        assert len(batch.pixels) == 4096
        assert isinstance(batch, PatchBatch)

    def test_patches_always_inside_image(self):
        rng = np.random.default_rng(1)
        view = self.view(w=16, h=12)
        for _ in range(100):
            batch = sample_patch_rays(view, rng, patch_count=100, patch_size=8)
            assert batch.corners[:, 0].min() >= 0
            assert batch.corners[:, 0].max() <= 16 - 8
            assert batch.corners[:, 1].max() <= 12 - 8
            assert batch.pixels.min() >= 0
            assert batch.pixels[:, 0].max() <= 15 and batch.pixels[:, 1].max() <= 11

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            sample_patch_rays(self.view(w=4, h=4), np.random.default_rng(0))


def test_transmittance_is_exclusive_product():
    a = np.array([0.5, 0.5, 0.5])
    assert np.allclose(transmittance(1.0 - a), [1.0, 0.5, 0.25])


@pytest.mark.parametrize("seed", range(3))
def test_composite_transmittance_is_the_loss_kernel(seed):
    """``composite`` (last sample axis) and ``ray_terms`` (leading axis)
    share one transmittance kernel, bit for bit, also where alphas are
    exactly 0 and exactly 1."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (17, 24))
    a[rng.uniform(size=a.shape) < 0.2] = 0.0
    a[rng.uniform(size=a.shape) < 0.05] = 1.0
    a[0] = 0.0
    a[1, 5] = 1.0
    trans = composite(a, np.zeros(a.shape + (3,)))[1]
    shared = ray_terms(a.T, np.ones(a.shape).T, np.ones(a.shape).T).trans.T
    assert np.array_equal(trans, shared)
    assert np.all(trans[1, 6:] == 0.0) and np.all(trans[0] == 1.0)


def test_interval_lengths_last_closes_to_far():
    t = np.array([1.0, 2.0, 3.0])
    assert np.allclose(interval_lengths(t, 10.0), [1.0, 1.0, 7.0])
