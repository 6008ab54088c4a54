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
pairs, with M_i = max(alpha_i, alpha_{i+1}) a detached weight and c the
sampled colors.  Gradients flow only through the exponential; the loss
falls as adjacent densities polarize wherever adjacent sampled colors
disagree.  One pass over the pairs yields both L_p and its gradient.

Once per ray and once per view.  The trainer evaluates the loss of each
source view over blocks of rays, in time-major layout (sample axis
first).  What no view changes - the transmittance T_i, the compositing
weights alpha_i T_i, exp(-sigma delta), M_i, exp(-|dsigma_i|) and
sign(dsigma_i) - is computed once per ray by ``ray_terms``.
``view_loss`` does only the per-view work: compositing, the pairs' colour
steps and the suffix recursion, which runs on (N, 3, rays) arrays so each
step touches one contiguous slice.  Both take the block's arrays
only, in arrays from the trainer's workspace, so their memory is
O(block); the trainer scatters each block's dL/dsigma before it makes
the next, so nothing per sample spans the batch.  Every per-ray sum is
taken in the order a whole-batch, ray-major pass takes it, so results
do not depend on the block size.

``total_loss`` is ``ray_terms`` and ``view_loss`` on one whole ray-major
batch; its ``LossTerms`` hold the weighted batch loss, the batch means of
L_r and L_p and each term's per-ray gradients, so a caller reads every
term from one forward pass.  The transmittance kernel is
``rendering.transmittance``, shared with ``composite``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Workspace, check_real
from .rendering import SamplingConfig, opacity, sample_points_batch, transmittance
from .rendering import composite  # noqa: F401 - not called here; bench/tracing.py wraps it


@dataclass(frozen=True)
class LossConfig:
    """Loss weights; defaults follow the reference training configuration."""

    lambda_r: float = 1.0
    lambda_p: float = 1e-3

    def __post_init__(self):
        for name in ("lambda_r", "lambda_p"):
            check_real(name, getattr(self, name), least=0)

    def combine(self, recon, polar, out=(None, None)):
        """lambda_r * recon + lambda_p * polar, for losses or gradients; the
        products in ``out``'s two arrays (maybe the inputs), the sum in the first."""
        total = np.multiply(self.lambda_r, recon, out=out[0])
        total += np.multiply(self.lambda_p, polar, out=out[1])
        return total


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


def ray_terms(alpha: np.ndarray, sigma: np.ndarray, delta: np.ndarray,
              ws: Workspace | None = None) -> RayTerms:
    """The view-independent loss factors of time-major (N, ...) samples,
    in seven arrays taken from ``ws``."""
    a = np.ascontiguousarray(alpha, dtype=np.float64)
    # Written so that NaN fails too: a NaN extremum compares false.
    if not (a.min(initial=np.inf) >= 0 and a.max(initial=-np.inf) <= 1):
        raise ValueError("alphas must lie in [0, 1]")
    if len(a) < 2:
        raise ValueError("polarization needs at least two samples per ray")
    sig = np.ascontiguousarray(sigma, dtype=np.float64)
    dlt = np.ascontiguousarray(delta, dtype=np.float64)
    ws = Workspace() if ws is None else ws
    rays = RayTerms(a, sig, dlt, *(ws.take(a.shape) for _ in range(4)),
                    *(ws.take((len(a) - 1,) + a.shape[1:]) for _ in range(3)))
    np.subtract(1.0, a, out=rays.one_minus_alpha)
    np.multiply(a, transmittance(rays.one_minus_alpha, out=rays.trans), out=rays.weights)
    survival = np.negative(np.multiply(sig, dlt, out=rays.survival), out=rays.survival)
    np.exp(survival, out=survival)
    np.maximum(a[:-1], a[1:], out=rays.pair_weight)
    dsigma = np.subtract(sig[1:], sig[:-1], out=rays.decay)
    np.sign(dsigma, out=rays.pull_sign)
    np.exp(np.negative(np.abs(dsigma, out=dsigma), out=dsigma), out=dsigma)
    return rays


def _recon_wrt_alpha(alpha, one_minus_alpha, trans, planes, sign, hit, grad, ws):
    """dL_r/dalpha = sign . T_i (c_i - G_i), (N, ...), by the suffix
    recursion on time-major arrays, in ``grad``; ``planes`` (C, N, ...) are
    the colour channels.  C 8 B arrays a sample come from ``ws``."""
    with ws:
        suffix = ws.take(alpha.shape[:1] + planes.shape[:1] + alpha.shape[1:])   # G_i, (N, C, ...)
        step = ws.take(planes.shape[:1] + alpha.shape[1:])
        suffix[-1] = 0.0
        colors = np.moveaxis(planes, 0, 1)      # (N, C, ...)
        # alpha_{i+1} c_{i+1} for every i at once; the recursion adds
        # (1 - alpha_{i+1}) G_{i+1} to it, the same sum in the other order
        np.multiply(alpha[1:, None], colors[1:], out=suffix[:-1])
        for g, below, keep in zip(suffix[-2::-1], suffix[:0:-1], one_minus_alpha[:0:-1]):
            g += np.multiply(keep, below, out=step)
        np.subtract(colors, suffix, out=suffix)
        suffix *= np.moveaxis(sign, -1, 0)
        np.add.reduce(suffix, axis=1, out=grad)     # the channel sum's left fold
        grad *= trans
        if hit is not None:
            np.copyto(grad, 0.0, where=np.logical_not(hit, out=ws.take(hit.shape, bool)))
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
    grad = _recon_wrt_alpha(a, one_minus_alpha, transmittance(one_minus_alpha),
                            planes, sign, hit, np.empty(a.shape), Workspace())
    return np.moveaxis(grad, 0, -1)


def _polarization(rays: RayTerms, planes: np.ndarray, hit: np.ndarray, out, ws):
    """Time-major L_p (...), returned, and dL_p/dsigma (N, ...), in ``out``,
    from colour planes (C, N, ...), zero at pairs with a sample not
    ``hit``.  Pair i adds +/- M_i |dc_i| exp(-|dsigma_i|) to its two
    endpoints, signed so that growing |dsigma| lowers the loss (subgradient
    0 at dsigma = 0); |dc_i| sums the channels in the left fold
    ``np.sum(axis=-1)`` takes.  Two 8 B arrays a pair are taken from ``ws``."""
    terms, step = (ws.take((planes.shape[1] - 1,) + planes.shape[2:]) for _ in range(2))
    for c, plane in enumerate(planes):
        d = step if c else terms
        np.abs(np.subtract(plane[1:], plane[:-1], out=d), out=d)
        if c:
            terms += d
    terms *= rays.pair_weight
    terms *= rays.decay
    missed = np.logical_and(hit[:-1], hit[1:], out=ws.take(terms.shape, bool))
    np.copyto(terms, 0.0, where=np.logical_not(missed, out=missed))
    pull = np.multiply(terms, rays.pull_sign, out=step)
    out.fill(0.0)
    out[:-1] += pull
    out[1:] -= pull
    # Summed along contiguous rows (in the pull's array, read by now), so
    # each ray's sum takes the same order whatever the layout and the
    # number of rays.
    rows = step.reshape(terms.shape[1:] + terms.shape[:1])
    np.copyto(rows, np.moveaxis(terms, 0, -1))
    return np.sum(rows, axis=-1)


def view_loss(rays: RayTerms, colors: np.ndarray, hit: np.ndarray,
              c_gt: np.ndarray, ws: Workspace | None = None) -> ViewLoss:
    """One source view's loss terms over a block of rays.

    ``colors`` (N, ..., 3) and ``hit`` (N, ...) are the view's time-major
    sampled colors (zero at misses) and hit mask, ``c_gt`` (..., 3) the
    target colors.  Only the view-dependent work runs here: compositing
    with the shared weights, the suffix recursion and the colour
    differences of the pairs.  Its gradients and scratch (three and at
    most three 8 B arrays a sample) come from ``ws``.
    """
    ws = Workspace() if ws is None else ws
    planes = np.moveaxis(colors, -1, 0)
    terms = ViewLoss(None, None, *(ws.take(rays.alpha.shape) for _ in range(3)))
    with ws:
        # One reduce down the sample axis of a C-contiguous (N, 3, ...)
        # product adds whole sample rows in sample order, as the
        # whole-batch (rays, N, 3) sum does; a reduce over (N, rays) would
        # sum a one-ray block pairwise.
        weighted = ws.take(colors.shape[:1] + colors.shape[-1:] + colors.shape[1:-1])
        np.multiply(rays.weights[:, None], np.moveaxis(colors, -1, 1), out=weighted)
        c_hat = np.moveaxis(np.add.reduce(weighted, axis=0), 0, -1)
    terms.recon = reconstruction_loss(c_hat, c_gt)
    with ws:
        terms.polar = _polarization(rays, planes, hit, terms.polar_wrt_sigma, ws)
    sign = np.sign(c_hat - np.asarray(c_gt, dtype=np.float64))
    _recon_wrt_alpha(rays.alpha, rays.one_minus_alpha, rays.trans, planes, sign, hit,
                     terms.recon_wrt_alpha, ws)
    np.multiply(terms.recon_wrt_alpha, rays.delta, out=terms.recon_wrt_sigma)
    terms.recon_wrt_sigma *= rays.survival
    return terms


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
