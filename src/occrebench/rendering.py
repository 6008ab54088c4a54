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

from dataclasses import dataclass

import numpy as np

from .geometry import (CameraIntrinsics, CameraView, FrustumSpec, Pose, check_int, in_image,
                       project)

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


def sample_distances(cfg: SamplingConfig, jitter: np.ndarray | None = None) -> np.ndarray:
    """Distances t of shape (..., N); ``jitter`` supplies r (train mode)."""
    n = cfg.num_samples
    i = np.arange(n, dtype=np.float64)
    s = (i + jitter) / n if jitter is not None else i / n
    inv_t = (1.0 - s) / cfg.near + s / cfg.far
    return 1.0 / inv_t


def interval_lengths(t: np.ndarray, far: float) -> np.ndarray:
    """delta_i = t_{i+1} - t_i, with the last interval ending at ``far``."""
    t = np.asarray(t, dtype=np.float64)
    return np.concatenate(
        [np.diff(t, axis=-1), far - t[..., -1:]], axis=-1)


def sample_points_batch(origins: np.ndarray, dirs: np.ndarray,
                        cfg: SamplingConfig, rng=None):
    """Batched sampling: origins/dirs (R, 3) -> t (R, N), pts (R, N, 3), delta (R, N).

    Train mode needs ``rng``, a ``numpy.random.Generator``; its jitter is
    drawn in one call over the fixed ray order, so a given (generator
    state, batch) pair is exactly reproducible, and calls over consecutive
    blocks of the rays draw what one call over all of them draws.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    shape = (len(dirs), cfg.num_samples)
    if cfg.mode == MODE_EVAL:
        t = np.broadcast_to(sample_distances(cfg), shape).copy()
    elif rng is None:
        raise ValueError("train-mode sampling needs a generator: pass rng")
    else:
        t = sample_distances(cfg, rng.uniform(-0.5, 0.5, size=shape))
    pts = np.empty(t.shape + (3,))
    for a in range(3):   # per column, as origins[:, None] + t[..., None] * dirs[:, None]
        np.multiply(t, dirs[:, a, None], out=pts[..., a])
        pts[..., a] += origins[:, a, None]
    return t, pts, interval_lengths(t, cfg.far)


def opacity(sigma, delta):
    """alpha = 1 - exp(-sigma * delta); requires sigma >= 0 and delta > 0."""
    sigma = np.asarray(sigma, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    # Written so that NaN fails too: NaN < 0 is false.
    if not np.all(sigma >= 0):
        raise ValueError("density must be nonnegative and not NaN")
    if not np.all(delta > 0):
        raise ValueError("interval lengths must be positive and not NaN")
    return -np.expm1(-sigma * delta)


def transmittance(one_minus_alpha: np.ndarray) -> np.ndarray:
    """T_i = prod_{j<i} (1 - alpha_j) along the leading sample axis, from
    (N, ...) values of 1 - alpha: the exclusive cumulative product, T_0 = 1."""
    trans = np.empty(one_minus_alpha.shape)
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

def bilinear_sample(image: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinearly interpolate image (h, w, c) at pixel coords in [0, w-1] x [0, h-1].

    Returns (..., c) values stored channel by channel.  Each channel is
    gathered by flat pixel index from its own contiguous (h * w) plane; the
    right and lower taps are the same index into the plane shifted by 1
    and by w, and the four tap weights are computed once for all channels.
    Beyond its inputs and output this holds at most six 8 B arrays a
    point: the tap index, the four weights and one gather buffer.
    """
    h, w = image.shape[:2]
    shape = np.shape(u)
    planes = np.moveaxis(image, -1, 0).reshape(image.shape[-1], h * w)
    u = np.array(u, dtype=np.float64).reshape(-1)
    v = np.array(v, dtype=np.float64).reshape(-1)
    np.clip(u, 0, w - 1, out=u)
    np.clip(v, 0, h - 1, out=v)
    # u, v >= 0 (or NaN) after the clip, so truncation is the floor
    u0 = u.astype(np.int64)
    np.clip(u0, 0, w - 2, out=u0)
    tap = v.astype(np.int64)
    np.clip(tap, 0, h - 2, out=tap)
    fu = np.subtract(u, u0, out=u)     # the offsets within the cell
    fv = np.subtract(v, tap, out=v)
    tap *= w                           # the flat index of the upper-left tap
    tap += u0
    del u, v, u0
    gv = 1 - fv
    w10, w11 = fu * gv, fu * fv
    gu = np.subtract(1, fu, out=fu)
    weights = (np.multiply(gv, gu, out=gv), w10,      # products commute exactly
               np.multiply(fv, gu, out=fv), w11)
    del fu, fv, gu, gv, w10, w11
    out = np.empty((len(planes), len(tap)))
    tapped = np.empty(len(tap))
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
                           points_cam: np.ndarray, cam_to_source: Pose):
    """Colors for target-camera-frame points (..., 3) seen from a source view.

    Points are mapped by ``cam_to_source``, projected, and bilinearly
    sampled.  Points behind the source camera or projecting outside the
    image come back with hit=False and zero color; the caller decides how
    misses weigh into losses.  Every point is interpolated (a miss at a
    clamped position) and misses are zeroed in place, so no hit subset is
    gathered and scattered back.  Work and memory are O(points): the
    trainer calls it once per source view per block of rays, on the
    block's points only.
    """
    u, v, z = project(intr, cam_to_source.apply(points_cam))
    hit = in_image(intr, u, v, z)
    del z                                 # and with it the transformed points
    with np.errstate(invalid="ignore"):   # NaN (u, v) at z == 0 cast to int64
        colors = bilinear_sample(image, u, v)
    np.copyto(colors, 0.0, where=~hit[..., None])
    return colors, hit


class SourceViewSampler:
    """ColorSource over a rendered source image; accepts world-frame points.

    The view's pose is inverted once, here, not on every lookup.
    """

    def __init__(self, image: np.ndarray, view: CameraView):
        self.image = image
        self.view = view
        self.world_to_cam = view.pose.inverse()

    def sample_colors(self, points_world: np.ndarray):
        return sample_color_from_view(self.image, self.view.intrinsics,
                                      points_world, self.world_to_cam)


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
