"""The volume-rendering forward model.

Points are sampled uniformly in inverse depth between the near and far
bounds:

    t_i = 1 / ((1 - s_i)/near + s_i/far),   s_i = (i + r_i) / N

with i in {0, ..., N-1}.  In eval mode r_i = 0, so sample 0 sits exactly at
the near bound and the inverse distance is exactly linear in i; in train
mode each r_i is drawn independently from uniform(-0.5, 0.5) by the
generator the caller passes, which train mode requires.  Interval
lengths are delta_i = t_{i+1} - t_i with the final interval closing the gap
to the far bound, so the covered length is exactly far - near.

Per sample: opacity alpha = 1 - exp(-sigma * delta), transmittance
T_i = prod_{j<i} (1 - alpha_j), and the composited color is
sum_i alpha_i T_i c_i with no background term; the residual transmittance
prod_i (1 - alpha_i) is surfaced separately so energy conservation
(sum alpha*T + residual == 1) is checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (CameraIntrinsics, CameraView, FrustumSpec, Pose, Workspace, check_int,
                       in_image, project)

MODE_TRAIN = "train"
MODE_EVAL = "eval"


@dataclass(frozen=True)
class SamplingConfig:
    """Samples per ray, their depth bounds and the sampling mode.  Train
    mode draws its jitter from the generator the caller passes to
    :func:`sample_points_batch`."""

    num_samples: int
    near: float
    far: float
    mode: str = MODE_EVAL

    def __post_init__(self):
        check_int("num_samples", self.num_samples, 2)
        FrustumSpec(self.near, self.far)   # the one depth range rule
        if self.mode not in (MODE_TRAIN, MODE_EVAL):
            raise ValueError(f"unknown sampling mode {self.mode!r}")


def sample_distances(cfg: SamplingConfig, jitter: np.ndarray | None = None,
                     out=None) -> np.ndarray:
    """Distances t of shape (..., N); ``jitter`` supplies r (train mode).
    ``out`` may give arrays for t (maybe ``jitter``) and for s / far."""
    n = cfg.num_samples
    i = np.arange(n, dtype=np.float64)
    shape = np.broadcast_shapes(i.shape, np.shape(jitter))
    s, s_far = out or (np.empty(shape), np.empty(shape))
    np.divide(np.add(i, 0.0 if jitter is None else jitter, out=s), n, out=s)
    np.divide(s, cfg.far, out=s_far)
    np.divide(np.subtract(1.0, s, out=s), cfg.near, out=s)
    return np.divide(1.0, np.add(s, s_far, out=s), out=s)     # 1/((1 - s)/near + s/far)


def interval_lengths(t: np.ndarray, far: float, out: np.ndarray | None = None) -> np.ndarray:
    """delta_i = t_{i+1} - t_i, the last ending at ``far``; in ``out`` if given."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty(t.shape) if out is None else out
    np.subtract(t[..., 1:], t[..., :-1], out=out[..., :-1])
    np.subtract(far, t[..., -1:], out=out[..., -1:])
    return out


def sample_points_batch(origins: np.ndarray, dirs: np.ndarray,
                        cfg: SamplingConfig, rng=None, out=None):
    """Batched sampling: origins/dirs (R, 3) -> t (R, N), pts (R, N, 3), delta (R, N),
    written into ``out`` if given (t C-contiguous, the others any layout).

    Train mode needs ``rng``, a ``numpy.random.Generator``; its jitter is
    drawn in one call over the fixed ray order, so a given (generator
    state, batch) pair is exactly reproducible, and calls over consecutive
    blocks of the rays draw what one call over all of them draws.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    shape = (len(dirs), cfg.num_samples)
    t, pts, delta = out or (np.empty(shape), np.empty(shape + (3,)), np.empty(shape))
    if cfg.mode == MODE_EVAL:
        t[...] = sample_distances(cfg)
    elif rng is None:
        raise ValueError("train-mode sampling needs a generator: pass rng")
    else:
        rng.random(out=t)
        t -= 0.5                    # the bits rng.uniform(-0.5, 0.5) draws
        sample_distances(cfg, t, out=(t, delta))   # delta is free until the intervals
    for a in range(3):   # per column, as origins[:, None] + t[..., None] * dirs[:, None]
        col = pts[..., a].T     # sample-major: a sample-major pts is written row by row
        np.multiply(t.T, dirs[:, a], out=col)
        col += origins[:, a]
    return t, pts, interval_lengths(t, cfg.far, out=delta)


def opacity(sigma, delta, out: np.ndarray | None = None):
    """alpha = 1 - exp(-sigma * delta), in ``out`` if given; requires
    sigma >= 0 and delta > 0."""
    sigma = np.asarray(sigma, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    # Written so that NaN fails too: a NaN minimum compares false.
    if not sigma.min(initial=np.inf) >= 0:
        raise ValueError("density must be nonnegative and not NaN")
    if not delta.min(initial=np.inf) > 0:
        raise ValueError("interval lengths must be positive and not NaN")
    out = np.empty(np.broadcast_shapes(sigma.shape, delta.shape)) if out is None else out
    np.negative(np.multiply(sigma, delta, out=out), out=out)
    return np.negative(np.expm1(out, out=out), out=out)


def transmittance(one_minus_alpha: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """T_i = prod_{j<i} (1 - alpha_j) along the leading sample axis, from
    (N, ...) values of 1 - alpha: the exclusive cumulative product, T_0 = 1,
    in ``out`` if given."""
    trans = np.empty(one_minus_alpha.shape) if out is None else out
    trans[0] = 1.0
    np.cumprod(one_minus_alpha[:-1], axis=0, out=trans[1:])
    return trans


def composite(alphas: np.ndarray, colors: np.ndarray):
    """Alpha-composite colors along the last sample axis.

    Returns (composited color (..., 3), transmittance (..., N), residual
    transmittance (...,)).  No background term: an all-transparent ray
    composites to black and reports residual 1.
    """
    a = np.asarray(alphas, dtype=np.float64)
    c = np.asarray(colors, dtype=np.float64)
    if c.shape[:-1] != a.shape:
        raise ValueError(f"colors shape {c.shape} does not match alphas {a.shape}")
    # Opacities are < 1 mathematically; exactly 1.0 is accepted as the
    # float64 rounding of 1 - exp(-x) once exp underflows the mantissa,
    # and composites as full absorption (zero transmittance behind).  NaN
    # fails both comparisons, so it is rejected too.
    if not (np.all(a >= 0) and np.all(a <= 1)):
        raise ValueError("alphas must lie in [0, 1]")
    trans = np.moveaxis(transmittance(np.moveaxis(1.0 - a, -1, 0)), 0, -1)
    weights = a * trans
    c_hat = np.sum(weights[..., None] * c, axis=-2)
    residual = trans[..., -1] * (1.0 - a[..., -1])
    return c_hat, trans, residual


# ---------------------------------------------------------------------------
# Source-view color lookup
# ---------------------------------------------------------------------------

def bilinear_sample(image: np.ndarray, u: np.ndarray, v: np.ndarray,
                    out: np.ndarray | None = None, ws: Workspace | None = None) -> np.ndarray:
    """Bilinearly interpolate image (h, w, c) at pixel coords in [0, w-1] x [0, h-1].

    Returns (..., c) values stored channel by channel, in ``out``, (c,
    points) planes that may hold u and v, if given.  Each channel is
    gathered by flat pixel index from its own contiguous (h * w) plane (an
    image stored as planes is not copied); the right and lower taps are
    the same index shifted by 1 and by w, and the four tap weights are
    computed once for all channels.  This holds six 8 B arrays a point
    from ``ws``: u and v clipped, the tap index and three of the weights.
    """
    h, w = image.shape[:2]
    shape = np.shape(u)
    planes = np.moveaxis(image, -1, 0).reshape(image.shape[-1], h * w)
    n, ws = math.prod(shape), Workspace() if ws is None else ws
    out = (ws.take((len(planes), n)) if out is None else out).reshape(len(planes), n)
    with ws:
        fu, fv, tap = ws.take(n), ws.take(n), ws.take(n, np.int64)
        np.clip(np.reshape(u, -1), 0, w - 1, out=fu)
        np.clip(np.reshape(v, -1), 0, h - 1, out=fv)
        with ws:
            u0 = ws.take(n, np.int64)
            # u, v >= 0 (or NaN) after the clip, so truncation is the floor
            for x, cell, top in ((fu, u0, w - 2), (fv, tap, h - 2)):
                np.copyto(cell, x, casting="unsafe")
                np.clip(cell, 0, top, out=cell)
                x -= cell           # the offsets within the cell
            tap *= w                # the flat index of the upper-left tap
            tap += u0
        gv, w10, w11 = (ws.take(n) for _ in range(3))
        np.multiply(fu, np.subtract(1, fv, out=gv), out=w10)
        np.multiply(fu, fv, out=w11)
        gu = np.subtract(1, fu, out=fu)
        weights = (np.multiply(gv, gu, out=gv), w10,      # products commute exactly
                   np.multiply(fv, gu, out=fv), w11)
        tapped = fu                 # gu is spent
        for col, plane in zip(out, planes):
            # Every index is in range, so mode="clip" changes nothing; it only
            # spares take(out=) the copy it makes under the default "raise".
            plane.take(tap, out=col, mode="clip")
            col *= weights[0]
            for weight, shift in zip(weights[1:], (1, w, w + 1)):
                plane[shift:].take(tap, out=tapped, mode="clip")
                tapped *= weight
                col += tapped
    return np.moveaxis(out, 0, -1).reshape(shape + (len(planes),))


def sample_color_from_view(image: np.ndarray, intr: CameraIntrinsics,
                           points_cam: np.ndarray, cam_to_source: Pose,
                           ws: Workspace | None = None):
    """Colors for target-camera-frame points (..., 3) seen from a source view.

    Points are mapped by ``cam_to_source``, projected, and bilinearly
    sampled.  Points behind the source camera or projecting outside the
    image come back with hit=False and zero color; the caller decides how
    misses weigh into losses.  Every point is interpolated (a miss at a
    clamped position) and misses are zeroed in place, so no hit subset is
    gathered and scattered back.  The colours (channel planes, holding the
    transformed points until the lookup) and the hit mask are taken from
    ``ws``, and so is the scratch, six 8 B arrays a point.
    """
    ws = Workspace() if ws is None else ws
    shape, c = np.shape(points_cam)[:-1], image.shape[-1]
    planes, hit = ws.take((max(c, 3), math.prod(shape))), ws.take(shape, bool)
    with ws:
        cam = cam_to_source.apply(points_cam, out=planes[:3])
        u, v, z = project(intr, cam, out=(cam[..., 0], cam[..., 1]))   # in place of x and y
        hit[...] = in_image(intr, u, v, z)
        with np.errstate(invalid="ignore"):   # NaN (u, v) at z == 0 cast to int64
            colors = bilinear_sample(image, u, v, out=planes[:c], ws=ws)
        np.copyto(colors, 0.0, where=np.logical_not(hit, out=ws.take(shape, bool))[..., None])
    return colors, hit


class SourceViewSampler:
    """ColorSource over a rendered source image; accepts world-frame points.

    The view's pose is inverted once, here, not on every lookup, and the
    image is stored as channel planes; lookups take their arrays from ``ws``.
    """

    def __init__(self, image: np.ndarray, view: CameraView, ws: Workspace | None = None):
        self.image = np.moveaxis(np.ascontiguousarray(np.moveaxis(image, -1, 0)), 0, -1)
        self.view = view
        self.world_to_cam = view.pose.inverse()
        self.ws = ws

    def sample_colors(self, points_world: np.ndarray):
        return sample_color_from_view(self.image, self.view.intrinsics,
                                      points_world, self.world_to_cam, self.ws)


# ---------------------------------------------------------------------------
# Patch-based ray batches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchBatch:
    """Pixel coordinates of square training patches on one view."""

    corners: np.ndarray   # (K, 2) int, top-left (u, v) of each patch
    pixels: np.ndarray    # (K * s * s, 2) float, pixel centers


def sample_patch_rays(view: CameraView, rng, patch_count: int = 64,
                      patch_size: int = 8) -> PatchBatch:
    """Draw ``patch_count`` random square patches fully inside the image.

    With the defaults this yields 64 * 8 * 8 = 4096 pixels per batch.
    Corners are uniform over all valid placements; determinism follows the
    supplied generator.
    """
    intr = view.intrinsics
    if intr.width < patch_size or intr.height < patch_size:
        raise ValueError("image is smaller than the patch size")
    u0 = rng.integers(0, intr.width - patch_size + 1, size=patch_count)
    v0 = rng.integers(0, intr.height - patch_size + 1, size=patch_count)
    corners = np.stack([u0, v0], axis=-1)
    du, dv = np.meshgrid(np.arange(patch_size), np.arange(patch_size), indexing="xy")
    offsets = np.stack([du, dv], axis=-1).reshape(-1, 2)
    pixels = (corners[:, None, :] + offsets[None, :, :]).reshape(-1, 2).astype(np.float64)
    return PatchBatch(corners=corners, pixels=pixels)
