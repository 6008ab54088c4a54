"""Per-layer spans, work counts and stage memory peaks, taken from outside.

The package has no tracing of its own, so the benchmark replaces each
layer's public function where its caller looks it up (``optim`` imports
``build_opacity_map``, ``composite``, ``total_loss`` and the rest by name;
``losses`` imports ``composite``) and wraps the methods of
``VoxelDensityField``, ``SourceViewSampler`` and ``AdamOptimizer``.  The
originals are put back when the traced run ends, so untraced runs carry no
wrappers.

Work counts are computed at the same boundaries from array shapes and
masks, not measured inside the layers.  Computing them costs time of its
own, which is recorded under the span ``harness.counters`` so that no layer
is charged for it.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from occrebench import benchmark, field, gridio, losses, optim, scenefile
from occrebench.field import Box, VoxelDensityField
from occrebench.geometry import all_pixel_coords, pixel_directions
from occrebench.rendering import SourceViewSampler

OP_SPAN = "harness.op"
COUNTER_SPAN = "harness.counters"
SETUP = "setup"


# ---------------------------------------------------------------------------
# Computed work counts, one function per layer boundary
# ---------------------------------------------------------------------------

def _points(args, kwargs, result):
    return {"points": int(np.size(result))}


def _hull(args, kwargs, result):
    fld, pts = args[0], np.asarray(args[1]).reshape(-1, 3)
    inside = np.all((pts >= fld.origin) & (pts <= fld.max_corner), axis=-1)
    return {"points": len(pts), "inside": int(np.count_nonzero(inside))}


def _hits(args, kwargs, result):
    hit = result[1]
    return {"samples": int(hit.size), "hits": int(np.count_nonzero(hit))}


def _calls(args, kwargs, result):
    return {"calls": 1}


def _opacity_map(args, kwargs, result):
    return {"samples": int(result.values.size), "bytes": int(result.values.nbytes)}


def _voxels(args, kwargs, result):
    return {"voxels": args[1].num_voxels}


def _march(args, kwargs, result):
    """Samples the voxel-size march materializes, and those inside each
    ray's own march interval, from the same ray/grid geometry the march
    uses."""
    gt, view, t_vc = args[:3]
    step = kwargs.get("step", args[3] if len(args) > 3 else None)
    if step is None:
        step = float(np.min(gt.resolution))
    cam_to_voxel = t_vc.inverse()
    intr = view.intrinsics
    dirs = cam_to_voxel.rotate(pixel_directions(intr, all_pixel_coords(intr).reshape(-1, 2)))
    te, tx = Box(gt.origin, gt.max_corner, 0.0, (0, 0, 0)).ray_intervals(
        cam_to_voxel.translation, dirs)
    span = tx - np.maximum(view.frustum.near, te)
    steps = np.where(span >= 0, np.floor(np.maximum(span, 0.0) / step) + 1, 0)
    return {"march_samples": len(dirs) * int(steps.max(initial=0)),
            "valid_samples": int(steps.sum())}


def _grid_bytes(args, kwargs, result):
    grid = args[1]
    itemsize = 1 if grid.values.dtype == bool else 4
    return {"bytes": gridio.HEADER.size + grid.num_voxels * itemsize}


# (span name, counter, [(owner, attribute), ...]): every place a caller looks
# the layer up.
LAYERS = [
    ("optim.train", None, [(optim, "train")]),
    ("optim.evaluate_field", None, [(optim, "evaluate_field")]),
    ("optim.AdamOptimizer.step", None, [(optim.AdamOptimizer, "step")]),
    ("field.density_at", _points, [(VoxelDensityField, "density_at")]),
    ("field.accumulate_param_grad", _hull,
     [(VoxelDensityField, "accumulate_param_grad")]),
    ("field.render_reference_image", None, [(optim, "render_reference_image")]),
    ("field.ground_truth_occupancy", None,
     [(optim, "ground_truth_occupancy"), (field, "ground_truth_occupancy")]),
    ("rendering.sample_points_batch", None, [(optim, "sample_points_batch")]),
    ("rendering.sample_colors", _hits, [(SourceViewSampler, "sample_colors")]),
    ("rendering.composite", _calls, [(optim, "composite"), (losses, "composite")]),
    ("losses.total_loss", None, [(optim, "total_loss")]),
    ("losses.grad_reconstruction_wrt_alpha", None,
     [(losses, "grad_reconstruction_wrt_alpha")]),
    ("benchmark.build_opacity_map", _opacity_map,
     [(optim, "build_opacity_map"), (benchmark, "build_opacity_map")]),
    ("benchmark.voxelize_occupancy", _voxels,
     [(optim, "voxelize_occupancy"), (benchmark, "voxelize_occupancy")]),
    ("benchmark.grid_sample_opacity", None, [(benchmark, "grid_sample_opacity")]),
    ("benchmark.frustum_mask", _calls,
     [(optim, "frustum_mask"), (benchmark, "frustum_mask")]),
    ("benchmark.visibility_mask", _march,
     [(optim, "visibility_mask"), (benchmark, "visibility_mask")]),
    ("benchmark.compute_metrics", None,
     [(optim, "compute_metrics"), (benchmark, "compute_metrics")]),
    ("gridio.write_voxel_grid", _grid_bytes, [(gridio, "write_voxel_grid")]),
    ("gridio.read_voxel_grid", None, [(gridio, "read_voxel_grid")]),
    ("scenefile.parse_scene_spec", None, [(scenefile, "parse_scene_spec")]),
]

# Layers called while inputs are built; their self time is per set-up.
SETUP_LAYERS = ("scenefile.parse_scene_spec",)

# Work-count metrics: name -> (layer, count, count it is a share of, unit).
# Counts without a base are per operation.
COUNT_METRICS = {
    "field.density_at.points": ("field.density_at", "points", None, "count"),
    "field.accumulate_param_grad.inside_frac":
        ("field.accumulate_param_grad", "inside", "points", "ratio"),
    "rendering.sample_colors.hit_frac": ("rendering.sample_colors", "hits", "samples", "ratio"),
    "rendering.composite.calls": ("rendering.composite", "calls", None, "count"),
    "benchmark.build_opacity_map.samples":
        ("benchmark.build_opacity_map", "samples", None, "count"),
    "benchmark.build_opacity_map.bytes": ("benchmark.build_opacity_map", "bytes", None, "B"),
    "benchmark.voxelize_occupancy.voxels":
        ("benchmark.voxelize_occupancy", "voxels", None, "count"),
    "benchmark.visibility_mask.march_samples":
        ("benchmark.visibility_mask", "march_samples", None, "count"),
    "benchmark.visibility_mask.valid_frac":
        ("benchmark.visibility_mask", "valid_samples", "march_samples", "ratio"),
    "benchmark.frustum_mask.calls": ("benchmark.frustum_mask", "calls", None, "count"),
    "gridio.write_voxel_grid.bytes": ("gridio.write_voxel_grid", "bytes", None, "B"),
}

# Stages whose own tracemalloc peak is reported; they never nest.
MEMORY_STAGES = ("benchmark.build_opacity_map", "benchmark.visibility_mask")


@contextlib.contextmanager
def _replaced(make_wrapper, names=None):
    """Swap in ``make_wrapper(name, counter, original)`` at every lookup site
    of the selected layers, and restore the originals on exit."""
    saved = []
    try:
        for name, counter, sites in LAYERS:
            if names is not None and name not in names:
                continue
            for owner, attr in sites:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(name, counter, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def assert_unwrapped() -> None:
    """Raise if any layer still carries a benchmark wrapper."""
    for name, _, sites in LAYERS:
        for owner, attr in sites:
            if hasattr(vars(owner)[attr], "__wrapped__"):
                raise RuntimeError(f"{name} is still wrapped at {owner.__name__}.{attr}")


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans ``[name, start, end, parent index, op id]``.

    ``op`` is the id of the operation being traced, or ``SETUP`` while a
    workload's inputs are built.  Counts are kept only for operations.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = SETUP
        self._stack = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.op])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrapper(self, name, counter, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            if counter is not None and self.op != SETUP:
                self.begin(COUNTER_SPAN)
                try:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[name, key] += value
                finally:
                    self.end()
            return result
        return traced

    def installed(self):
        """Context in which every layer records spans into this tracer."""
        return _replaced(self._wrapper)

    def run_op(self, op_id: int, fn):
        """Call ``fn`` inside the root span of traced operation ``op_id``."""
        self.op = op_id
        self.begin(OP_SPAN)
        try:
            return fn()
        finally:
            self.end()
            self.op = SETUP

    def self_seconds(self, ops: bool = True) -> dict:
        """Total self time per span name over operation spans (``ops``) or
        set-up spans: each span's duration minus its direct children's."""
        children = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if (op != SETUP) == ops:
                totals[name] += (end - start) - children[i]
        return dict(totals)

    def op_seconds(self) -> list:
        """Wall time of each traced operation span."""
        return [end - start for name, start, end, parent, op in self.spans
                if name == OP_SPAN]

    def layer_metrics(self, per_op: float) -> dict:
        """Self time (ms) of every layer and harness span, and the work
        counts; ``per_op`` scales operation totals to one operation.  A
        layer that did not run reads 0."""
        ops_self = self.self_seconds(ops=True)
        setup_self = self.self_seconds(ops=False)
        out = {}
        for name in [layer for layer, _, _ in LAYERS] + [OP_SPAN, COUNTER_SPAN]:
            seconds = setup_self.get(name, 0.0) if name in SETUP_LAYERS \
                else ops_self.get(name, 0.0) * per_op
            out[f"{name}.self_ms"] = (seconds * 1e3, "ms")
        for name, (layer, key, base, unit) in COUNT_METRICS.items():
            count = self.counts[layer, key]
            if base is None:
                out[name] = (count * per_op, unit)
            else:
                out[name] = (count / self.counts[layer, base] if count else 0.0, unit)
        return out


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

class MemoryPass:
    """tracemalloc peak of one operation, plus the peak of each stage in
    ``MEMORY_STAGES`` above the memory held when the stage began."""

    def __init__(self):
        self.stage_mib = dict.fromkeys(MEMORY_STAGES, 0.0)
        self._peak = 0

    def _wrapper(self, name, counter, original):
        @functools.wraps(original)
        def measured(*args, **kwargs):
            held, peak = tracemalloc.get_traced_memory()
            self._peak = max(self._peak, peak)
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                self._peak = max(self._peak, peak)
                self.stage_mib[name] = max(self.stage_mib[name], (peak - held) / 2 ** 20)
        return measured

    def run_op(self, fn):
        """Call ``fn`` under tracemalloc; returns (result, op peak in MiB)."""
        tracemalloc.start()
        try:
            with _replaced(self._wrapper, MEMORY_STAGES):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                self._peak = 0
                result = fn()
                peak = max(self._peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return result, (peak - held) / 2 ** 20
