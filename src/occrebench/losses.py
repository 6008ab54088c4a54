"""Photometric and polarization losses with hand-derived gradients.

Reconstruction: L_r = sum_ch |c_hat - c_gt| (channel-summed L1).  Its
gradient with respect to a sample opacity follows from differentiating the
compositing sum c_hat = sum_j alpha_j T_j c_j:

    dL_r/dalpha_i = s . T_i (c_i - G_i),
    G_i = sum_{j>i} alpha_j prod_{i<k<j} (1 - alpha_k) c_j,

where s = sign(c_hat - c_gt) per channel (the true L1 subgradient; at a
zero residual the subgradient 0 is used).  G obeys the backward recursion
G_i = alpha_{i+1} c_{i+1} + (1 - alpha_{i+1}) G_{i+1}, giving a stable O(N)
evaluation; the tests check it against the direct O(N^2) sum.  Both factor
through T_i, so the gradient vanishes exactly where the transmittance has
collapsed to zero - the occlusion blind spot this package quantifies.

Chain to raw density: dalpha/dsigma = delta * exp(-sigma * delta).

Polarization: L_p = sum_i M_i |dc_i| exp(-|dsigma_i|) over adjacent sample
pairs, with M_i = max(alpha_i, alpha_{i+1}) a detached weight.  Gradients
flow only through the exponential; the loss falls as adjacent densities
polarize wherever adjacent sampled colors disagree.  One pass over the
pairs yields both L_p and its gradient.

Once per ray and once per view.  The trainer evaluates the loss of each
source view over blocks of rays, in time-major layout (sample axis
first).  What no view changes - the transmittance T_i, the compositing
weights alpha_i T_i, exp(-sigma delta), M_i, exp(-|dsigma_i|) and
sign(dsigma_i) - is computed once per ray by ``ray_terms``.
``view_loss`` does only the per-view work: compositing, the pairs' colour
steps and the suffix recursion, which runs on (N, 3, rays) arrays so each
step touches one contiguous slice.  Memory beyond the caller's
per-sample arrays is O(block).  Every per-ray sum is taken in the order a
whole-batch, ray-major pass takes it, so results do not depend on the
block size.

``total_loss`` is ``ray_terms`` and ``view_loss`` on one whole ray-major
batch.  It returns the weighted batch loss together with the batch means
of L_r and L_p it is made of, so a caller reads every term from the one
forward pass instead of recomputing or back-solving it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rendering import SamplingConfig, opacity, sample_points_batch
from .rendering import composite  # noqa: F401 - not called here; bench/tracing.py wraps it


@dataclass(frozen=True)
class LossConfig:
    """Loss weights; defaults follow the reference training configuration."""

    lambda_r: float = 1.0
    lambda_p: float = 1e-3

    def __post_init__(self):
        for name in ("lambda_r", "lambda_p"):
            if not 0 <= getattr(self, name) < np.inf:   # NaN fails too
                raise ValueError(f"{name} must be finite and nonnegative")

    def combine(self, recon, polar):
        """lambda_r * recon + lambda_p * polar, for losses or their gradients."""
        return self.lambda_r * recon + self.lambda_p * polar


@dataclass
class LossTerms:
    """One ray batch's loss terms and their gradients, separated by term.

    ``total`` is the batch mean of lambda_r L_r + lambda_p L_p; ``recon``
    and ``polar`` are the unweighted batch means of L_r and L_p, measured
    whatever the weights.  ``total_wrt_sigma`` is the gradient of ``total``
    (lambda factors and the 1/R mean included); the per-term arrays are raw
    per-ray gradients.  Entries at miss-flagged samples are zero.
    """

    total: float
    recon: float
    polar: float
    recon_wrt_alpha: np.ndarray
    recon_wrt_sigma: np.ndarray
    polar_wrt_sigma: np.ndarray
    total_wrt_sigma: np.ndarray


@dataclass
class RayTerms:
    """The factors of a block of rays' loss that no source view changes.

    Built once per ray by :func:`ray_terms` and shared by every source
    view's :func:`view_loss`.  Arrays are time-major, sample axis first:
    (N, ...) per sample and (N-1, ...) per adjacent pair.
    """

    alpha: np.ndarray
    sigma: np.ndarray
    delta: np.ndarray
    one_minus_alpha: np.ndarray
    trans: np.ndarray          # T_i = prod_{j<i} (1 - alpha_j)
    weights: np.ndarray        # alpha_i T_i, the compositing weights
    survival: np.ndarray       # exp(-sigma delta); dalpha/dsigma = delta * survival
    pair_weight: np.ndarray    # M_i = max(alpha_i, alpha_{i+1})
    decay: np.ndarray          # exp(-|dsigma_i|)
    pull_sign: np.ndarray      # sign(dsigma_i)


@dataclass
class ViewLoss:
    """One source view's loss over a block of rays: per-ray L_r and L_p
    (...), and their raw per-ray gradients, time-major (N, ...) and zero at
    miss-flagged samples."""

    recon: np.ndarray
    polar: np.ndarray
    recon_wrt_alpha: np.ndarray
    recon_wrt_sigma: np.ndarray
    polar_wrt_sigma: np.ndarray


def reconstruction_loss(c_hat: np.ndarray, c_gt: np.ndarray) -> np.ndarray:
    """Channel-summed L1 photometric loss; shapes (..., 3) -> (...)."""
    return np.sum(np.abs(np.asarray(c_hat, dtype=np.float64)
                         - np.asarray(c_gt, dtype=np.float64)), axis=-1)


def _transmittance(one_minus_alpha: np.ndarray) -> np.ndarray:
    """Exclusive cumulative product along the leading sample axis: T_0 = 1."""
    trans = np.empty(one_minus_alpha.shape)
    trans[0] = 1.0
    np.cumprod(one_minus_alpha[:-1], axis=0, out=trans[1:])
    return trans


def _pair_factors(alpha: np.ndarray, sigma: np.ndarray):
    """Time-major max(alpha_i, alpha_{i+1}), exp(-|dsigma_i|), sign(dsigma_i)."""
    dsigma = np.diff(sigma, axis=0)
    return np.maximum(alpha[:-1], alpha[1:]), np.exp(-np.abs(dsigma)), np.sign(dsigma)


def ray_terms(alpha: np.ndarray, sigma: np.ndarray, delta: np.ndarray) -> RayTerms:
    """The view-independent loss factors of time-major (N, ...) samples."""
    a = np.ascontiguousarray(alpha, dtype=np.float64)
    if not (np.all(a >= 0) and np.all(a <= 1)):
        raise ValueError("alphas must lie in [0, 1]")
    if len(a) < 2:
        raise ValueError("polarization needs at least two samples per ray")
    sig = np.ascontiguousarray(sigma, dtype=np.float64)
    dlt = np.ascontiguousarray(delta, dtype=np.float64)
    one_minus_alpha = 1.0 - a
    trans = _transmittance(one_minus_alpha)
    return RayTerms(a, sig, dlt, one_minus_alpha, trans, a * trans,
                    np.exp(-sig * dlt), *_pair_factors(a, sig))


def _recon_wrt_alpha(alpha, one_minus_alpha, trans, planes, sign, hit):
    """dL_r/dalpha = sign . T_i (c_i - G_i), (N, ...), by the suffix
    recursion on time-major arrays; ``planes`` (C, N, ...) are the colour
    channels."""
    suffix = np.empty(alpha.shape[:1] + planes.shape[:1] + alpha.shape[1:])   # G_i, (N, C, ...)
    suffix[-1] = 0.0
    for i in range(len(alpha) - 2, -1, -1):
        g = suffix[i]
        np.multiply(one_minus_alpha[i + 1], suffix[i + 1], out=g)
        g += alpha[i + 1] * planes[:, i + 1]
    grad = None
    for c, plane in enumerate(planes):
        g = suffix[:, c]
        np.subtract(plane, g, out=g)
        g *= sign[..., c]
        grad = g if grad is None else grad + g   # the channel sum's left fold
    grad *= trans
    if hit is not None:
        np.copyto(grad, 0.0, where=~hit)
    return grad


def grad_reconstruction_wrt_alpha(alpha: np.ndarray, colors: np.ndarray,
                                  c_hat: np.ndarray, c_gt: np.ndarray,
                                  miss: np.ndarray | None = None) -> np.ndarray:
    """O(N) suffix-accumulated dL_r/dalpha for (..., N) batches."""
    a = np.moveaxis(np.asarray(alpha, dtype=np.float64), -1, 0)
    one_minus_alpha = 1.0 - a
    sign = np.sign(np.asarray(c_hat, dtype=np.float64) - np.asarray(c_gt, dtype=np.float64))
    hit = None if miss is None else ~np.moveaxis(np.asarray(miss), -1, 0)
    planes = np.moveaxis(np.asarray(colors, dtype=np.float64), (-1, -2), (0, 1))
    grad = _recon_wrt_alpha(a, one_minus_alpha, _transmittance(one_minus_alpha),
                            planes, sign, hit)
    return np.moveaxis(grad, 0, -1)


def grad_chain_alpha_to_sigma(grad_alpha: np.ndarray, sigma: np.ndarray,
                              delta: np.ndarray) -> np.ndarray:
    """Chain through alpha = 1 - exp(-sigma*delta): multiply by delta*exp(-sigma*delta)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    return np.asarray(grad_alpha, dtype=np.float64) * delta * np.exp(-sigma * delta)


def _abs_steps(planes: np.ndarray) -> np.ndarray:
    """Channel-summed |s_{i+1} - s_i|, (N-1, ...), of channel planes
    (C, N, ...), summed in the left fold ``np.sum(axis=-1)`` takes."""
    total = None
    for plane in planes:
        step = plane[1:] - plane[:-1]
        np.abs(step, out=step)
        if total is None:
            total = step
        else:
            total += step
    return total


def _polarization(pair_weight, decay, pull_sign, dsignal, pair_valid):
    """Time-major L_p (...) and dL_p/dsigma (N, ...) from the pair factors
    and the pairs' channel-summed signal steps."""
    terms = pair_weight * dsignal * decay
    if pair_valid is not None:
        np.copyto(terms, 0.0, where=~pair_valid)
    pull = terms * pull_sign
    grad = np.zeros((len(terms) + 1,) + terms.shape[1:])
    grad[:-1] += pull
    grad[1:] -= pull
    # Summed along contiguous rows, so each ray's sum takes the same order
    # whatever the layout and the number of rays.
    return np.sum(np.ascontiguousarray(np.moveaxis(terms, 0, -1)), axis=-1), grad


def polarization_loss_and_grad(alpha: np.ndarray, signal: np.ndarray,
                               sigma: np.ndarray,
                               pair_valid: np.ndarray | None = None):
    """L_p over adjacent sample pairs, (..., N) -> (...), and dL_p/dsigma,
    (..., N), from one pass over the pairs.

    ``signal`` is (..., N, C) (RGB by default) or (..., N) for a scalar
    channel such as a pseudo-depth map.  ``pair_valid`` excludes pairs with
    a miss-flagged member.  The gradient holds the pair mask detached: pair
    i contributes +/- M_i |dc_i| exp(-|dsigma_i|) sign(dsigma_i) to its two
    endpoints, signed so that growing |dsigma| lowers the loss; at
    dsigma = 0 the subgradient 0 is returned.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape[-1] < 2:
        raise ValueError("polarization needs at least two samples per ray")
    s = np.asarray(signal, dtype=np.float64)
    if s.ndim == a.ndim:          # scalar signal channel
        s = s[..., None]
    sig = np.moveaxis(np.asarray(sigma, dtype=np.float64), -1, 0)
    valid = None if pair_valid is None else np.moveaxis(np.asarray(pair_valid), -1, 0)
    loss, grad = _polarization(*_pair_factors(np.moveaxis(a, -1, 0), sig),
                               _abs_steps(np.moveaxis(s, (-1, -2), (0, 1))), valid)
    return loss, np.moveaxis(grad, 0, -1)


def view_loss(rays: RayTerms, colors: np.ndarray, hit: np.ndarray,
              c_gt: np.ndarray) -> ViewLoss:
    """One source view's loss terms over a block of rays.

    ``colors`` (N, ..., 3) and ``hit`` (N, ...) are the view's time-major
    sampled colors (zero at misses) and hit mask, ``c_gt`` (..., 3) the
    target colors.  Only the view-dependent work runs here: compositing
    with the shared weights, the suffix recursion and the colour
    differences of the pairs.  Its memory is O(the block).
    """
    planes = np.moveaxis(colors, -1, 0)
    # Accumulated in sample order, as the whole-batch (rays, N, 3) sum is;
    # np.sum over (N, 1) would switch to pairwise order for a one-ray block.
    c_hat = np.stack([np.add.accumulate(rays.weights * plane, axis=0)[-1]
                      for plane in planes], axis=-1)
    recon = reconstruction_loss(c_hat, c_gt)
    polar, polar_wrt_sigma = _polarization(rays.pair_weight, rays.decay, rays.pull_sign,
                                           _abs_steps(planes), hit[:-1] & hit[1:])
    sign = np.sign(c_hat - np.asarray(c_gt, dtype=np.float64))
    recon_wrt_alpha = _recon_wrt_alpha(rays.alpha, rays.one_minus_alpha, rays.trans,
                                       planes, sign, hit)
    return ViewLoss(recon, polar, recon_wrt_alpha,
                    recon_wrt_alpha * rays.delta * rays.survival, polar_wrt_sigma)


def total_loss(alpha: np.ndarray, colors: np.ndarray, sigma: np.ndarray,
               delta: np.ndarray, c_gt: np.ndarray, cfg: LossConfig,
               miss: np.ndarray | None = None) -> LossTerms:
    """Mean weighted loss over a ray batch, its terms and its gradients.

    ``alpha``/``sigma``/``delta`` are (R, N), ``colors`` (R, N, 3) with
    miss-flagged entries zero, ``c_gt`` (R, 3).  Returns :class:`LossTerms`:
    the scalar mean(lambda_r L_r + lambda_p L_p), the batch means of L_r
    and L_p it is made of, and the gradients, whose ``total_wrt_sigma`` is
    the exact gradient of that scalar.  The polarization signal is the
    sampled colors.  This is :func:`ray_terms` and :func:`view_loss` on the
    whole batch as one block, laid out ray-major.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    n_rays = int(np.prod(alpha.shape[:-1]))
    if n_rays == 0:
        raise ValueError("empty ray batch")
    hit = np.ones(alpha.shape, dtype=bool) if miss is None else ~np.asarray(miss)
    rays = ray_terms(np.moveaxis(alpha, -1, 0), np.moveaxis(np.asarray(sigma), -1, 0),
                     np.moveaxis(np.asarray(delta), -1, 0))
    view = view_loss(rays, np.moveaxis(np.asarray(colors, dtype=np.float64), -2, 0),
                     np.moveaxis(hit, -1, 0), c_gt)
    return LossTerms(
        total=float(np.mean(cfg.combine(view.recon, view.polar))),
        recon=float(np.mean(view.recon)), polar=float(np.mean(view.polar)),
        recon_wrt_alpha=np.moveaxis(view.recon_wrt_alpha, 0, -1),
        recon_wrt_sigma=np.moveaxis(view.recon_wrt_sigma, 0, -1),
        polar_wrt_sigma=np.moveaxis(view.polar_wrt_sigma, 0, -1),
        total_wrt_sigma=np.moveaxis(
            cfg.combine(view.recon_wrt_sigma, view.polar_wrt_sigma) / n_rays, 0, -1))


def occlusion_gradient_probe(density_field, color_source, origins: np.ndarray,
                             dirs: np.ndarray, cfg: SamplingConfig,
                             c_gt: np.ndarray) -> np.ndarray:
    """Table of (sample distance, |dL_r/dsigma|) per sample of each ray.

    Renders the rays ``origins``/``dirs`` (R, 3) with the batched forward
    model, takes the reconstruction gradient against ``c_gt`` ((R, 3) or
    one color for all rays) from :func:`total_loss`, and returns an
    (R, N, 2) table of its magnitude per depth - the direct measurement of
    how supervision dies behind occluders.  Samples the color source misses
    get zero gradient.
    """
    t, pts, delta = sample_points_batch(origins, dirs, cfg)
    sigma = np.asarray(density_field.density_at(pts), dtype=np.float64)
    colors, hit = color_source.sample_colors(pts)
    terms = total_loss(opacity(sigma, delta), colors, sigma, delta, c_gt,
                       LossConfig(lambda_p=0.0), miss=~hit)
    return np.stack([t, np.abs(terms.recon_wrt_sigma)], axis=-1)
