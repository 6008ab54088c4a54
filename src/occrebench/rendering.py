"""The volume-rendering forward model.

Points are sampled uniformly in inverse depth between the near and far
bounds:

    t_i = 1 / ((1 - s_i)/near + s_i/far),   s_i = (i + r_i) / N

with i in {0, ..., N-1}.  In eval mode r_i = 0, so sample 0 sits exactly at
the near bound and the inverse distance is exactly linear in i; in train
mode each r_i is drawn independently from uniform(-0.5, 0.5).  Interval
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

from .geometry import CameraIntrinsics, CameraView, Pose, in_image, project

MODE_TRAIN = "train"
MODE_EVAL = "eval"


@dataclass(frozen=True)
class SamplingConfig:
    num_samples: int
    near: float
    far: float
    mode: str = MODE_EVAL
    seed: int = 0

    def __post_init__(self):
        if self.num_samples < 2:
            raise ValueError("need at least 2 samples per ray")
        if not (0.0 < self.near < self.far):
            raise ValueError("requires 0 < near < far")
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


def _draw_jitter(cfg: SamplingConfig, shape: tuple, rng=None) -> np.ndarray | None:
    if cfg.mode == MODE_EVAL:
        return None
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
    return rng.uniform(-0.5, 0.5, size=shape)


def sample_points_batch(origins: np.ndarray, dirs: np.ndarray,
                        cfg: SamplingConfig, rng=None):
    """Batched sampling: origins/dirs (R, 3) -> t (R, N), pts (R, N, 3), delta (R, N).

    Train-mode jitter is drawn in one call over the fixed ray order, so a
    given (generator state, batch) pair is exactly reproducible.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    jitter = _draw_jitter(cfg, (len(dirs), cfg.num_samples), rng)
    t = sample_distances(cfg, jitter) if jitter is not None else \
        np.broadcast_to(sample_distances(cfg), (len(dirs), cfg.num_samples)).copy()
    pts = origins[:, None, :] + t[..., None] * dirs[:, None, :]
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


def transmittance(alphas: np.ndarray) -> np.ndarray:
    """Exclusive cumulative product of (1 - alpha): T_0 = 1."""
    a = np.asarray(alphas, dtype=np.float64)
    t = np.cumprod(1.0 - a, axis=-1)
    return np.concatenate([np.ones_like(t[..., :1]), t[..., :-1]], axis=-1)


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
    trans = transmittance(a)
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
    """
    h, w = image.shape[:2]
    planes = np.moveaxis(image, -1, 0).reshape(image.shape[-1], h * w)
    u = np.clip(np.asarray(u, dtype=np.float64), 0, w - 1)
    v = np.clip(np.asarray(v, dtype=np.float64), 0, h - 1)
    u0 = np.clip(np.floor(u).astype(np.int64), 0, w - 2)
    v0 = np.clip(np.floor(v).astype(np.int64), 0, h - 2)
    fu, fv = u - u0, v - v0
    gu, gv = 1 - fu, 1 - fv
    weights = (gu * gv, fu * gv, gu * fv, fu * fv)
    tap = v0 * w + u0
    out = np.empty((len(planes),) + u.shape)
    for c, plane in enumerate(planes):
        col = out[c, ...]
        np.multiply(weights[0], plane.take(tap), out=col)
        for weight, shift in zip(weights[1:], (1, w, w + 1)):
            col += weight * plane[shift:].take(tap)
    return np.moveaxis(out, 0, -1)


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
    pts = cam_to_source.apply(points_cam)
    u, v, z = project(intr, pts)
    hit = in_image(intr, u, v, z)
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

    @property
    def num_rays(self) -> int:
        return len(self.pixels)


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
