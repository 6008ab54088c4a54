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

``total_loss`` returns the weighted batch loss together with the batch
means of L_r and L_p it is made of, so a caller reads every term from the
one forward pass instead of recomputing or back-solving it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rendering import SamplingConfig, composite, opacity, sample_points_batch, \
    transmittance


@dataclass(frozen=True)
class LossConfig:
    """Loss weights; defaults follow the reference training configuration."""

    lambda_r: float = 1.0
    lambda_p: float = 1e-3

    def __post_init__(self):
        if self.lambda_r < 0 or self.lambda_p < 0:
            raise ValueError("loss weights must be nonnegative")


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


def reconstruction_loss(c_hat: np.ndarray, c_gt: np.ndarray) -> np.ndarray:
    """Channel-summed L1 photometric loss; shapes (..., 3) -> (...)."""
    return np.sum(np.abs(np.asarray(c_hat, dtype=np.float64)
                         - np.asarray(c_gt, dtype=np.float64)), axis=-1)


def grad_reconstruction_wrt_alpha(alpha: np.ndarray, colors: np.ndarray,
                                  c_hat: np.ndarray, c_gt: np.ndarray,
                                  miss: np.ndarray | None = None) -> np.ndarray:
    """O(N) suffix-accumulated dL_r/dalpha for (..., N) batches."""
    a = np.asarray(alpha, dtype=np.float64)
    c = np.asarray(colors, dtype=np.float64)
    s = np.sign(np.asarray(c_hat, dtype=np.float64) - np.asarray(c_gt, dtype=np.float64))
    trans = transmittance(a)
    n = a.shape[-1]
    suffix = np.zeros(c.shape)
    for i in range(n - 2, -1, -1):
        suffix[..., i, :] = (a[..., i + 1, None] * c[..., i + 1, :]
                             + (1.0 - a[..., i + 1, None]) * suffix[..., i + 1, :])
    grad = np.sum(s[..., None, :] * (c - suffix), axis=-1) * trans
    if miss is not None:
        grad = np.where(miss, 0.0, grad)
    return grad


def grad_chain_alpha_to_sigma(grad_alpha: np.ndarray, sigma: np.ndarray,
                              delta: np.ndarray) -> np.ndarray:
    """Chain through alpha = 1 - exp(-sigma*delta): multiply by delta*exp(-sigma*delta)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    return np.asarray(grad_alpha, dtype=np.float64) * delta * np.exp(-sigma * delta)


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
    sig = np.asarray(sigma, dtype=np.float64)
    s = np.asarray(signal, dtype=np.float64)
    if s.ndim == a.ndim:          # scalar signal channel
        s = s[..., None]
    mask = np.maximum(a[..., :-1], a[..., 1:])
    dcolor = np.sum(np.abs(np.diff(s, axis=-2)), axis=-1)
    dsigma = np.diff(sig, axis=-1)
    terms = mask * dcolor * np.exp(-np.abs(dsigma))
    if pair_valid is not None:
        terms = np.where(pair_valid, terms, 0.0)
    pull = terms * np.sign(dsigma)
    grad = np.zeros(sig.shape)
    grad[..., :-1] += pull
    grad[..., 1:] -= pull
    return np.sum(terms, axis=-1), grad


def total_loss(alpha: np.ndarray, colors: np.ndarray, sigma: np.ndarray,
               delta: np.ndarray, c_gt: np.ndarray, cfg: LossConfig,
               miss: np.ndarray | None = None) -> LossTerms:
    """Mean weighted loss over a ray batch, its terms and its gradients.

    ``alpha``/``sigma``/``delta`` are (R, N), ``colors`` (R, N, 3) with
    miss-flagged entries zero, ``c_gt`` (R, 3).  Returns :class:`LossTerms`:
    the scalar mean(lambda_r L_r + lambda_p L_p), the batch means of L_r
    and L_p it is made of, and the gradients, whose ``total_wrt_sigma`` is
    the exact gradient of that scalar.  The polarization signal is the
    sampled colors.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    n_rays = int(np.prod(alpha.shape[:-1]))
    if n_rays == 0:
        raise ValueError("empty ray batch")
    c_hat, _, _ = composite(alpha, colors)
    loss_r = reconstruction_loss(c_hat, c_gt)
    pair_valid = None if miss is None else (~miss[..., :-1] & ~miss[..., 1:])
    loss_p, g_sigma_p = polarization_loss_and_grad(alpha, colors, sigma, pair_valid)

    g_alpha = grad_reconstruction_wrt_alpha(alpha, colors, c_hat, c_gt, miss)
    g_sigma_r = grad_chain_alpha_to_sigma(g_alpha, sigma, delta)

    return LossTerms(
        total=float(np.mean(cfg.lambda_r * loss_r + cfg.lambda_p * loss_p)),
        recon=float(np.mean(loss_r)), polar=float(np.mean(loss_p)),
        recon_wrt_alpha=g_alpha, recon_wrt_sigma=g_sigma_r,
        polar_wrt_sigma=g_sigma_p,
        total_wrt_sigma=(cfg.lambda_r * g_sigma_r + cfg.lambda_p * g_sigma_p) / n_rays)


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
