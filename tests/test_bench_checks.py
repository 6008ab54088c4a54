"""The benchmark's own reference checks, run at its default seed.

``bench/workloads.py`` is loaded by file path and only called, so the
bit-for-bit agreement with ``bench/reference/`` that refactors of the
trainer and the evaluation protocol rely on is checked here too, not only
in benchmark runs.  The street of the kitti workload, at a seed other than
the default, also checks the voxel stages that decide from bounds against
their all-at-once oracles on realistic data, and at the default seed the
evaluation plan's held bytes at full benchmark scale.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from occrebench import benchmark, field, optim

from test_center_blocks import ground_truth_all_at_once, voxelize_all_at_once
from test_voxelize_field import held_after_a_cold_call, plan_bound

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", ["train_occluder", "eval_occluder", "eval_kitti360"])
def test_default_seed_matches_reference(workloads, name, tmp_path):
    """Two operations, as a benchmark run makes: the second
    ``eval_occluder`` operation reuses the evaluation plan of the first."""
    wl = workloads.WORKLOADS[name]
    state = wl.setup(workloads.DEFAULT_SEED, str(tmp_path))
    state.expected = workloads.reference(name)
    for _ in range(2):
        assert wl.check(state, wl.op(state)) == []


def test_street_voxels_match_the_all_at_once_oracles(workloads, tmp_path, cell_table_builds):
    """The seed-1 street: the prediction through the opacity cell table and
    the ground truth through primitive culling, bit for bit."""
    st = workloads.kitti_setup(1, str(tmp_path))
    spec, view = st.spec, st.spec.views[0]
    omap = benchmark.build_opacity_map(st.field, view, st.sampling)
    pred = benchmark.voxelize_occupancy(omap, spec.grid, st.t_vc).values
    assert cell_table_builds == [omap.values.size]
    assert np.array_equal(pred, voxelize_all_at_once(omap, spec.grid, st.t_vc))
    gt = field.ground_truth_occupancy(spec.scene, spec.grid, spec.grid_to_world).values
    assert np.array_equal(gt, ground_truth_all_at_once(spec.scene, spec.grid,
                                                       spec.grid_to_world))
    assert pred.any() and gt.any() and not gt.all()


def test_street_evaluation_holds_the_plan_it_states(workloads, monkeypatch, tmp_path):
    """``optim.evaluate_field`` on the default-seed street, 2.1M voxels of
    which 1.6M are in the frustum: the reference count table, and between
    calls no more than the plan states (:func:`plan_bound`), so memory stays
    bounded at full benchmark scale.  A kept front grid (2 MiB) would show."""
    st = workloads.kitti_setup(workloads.DEFAULT_SEED, str(tmp_path))
    spec, view = st.spec, st.spec.views[0]
    setup = optim.EvalSetup(spec.grid, spec.grid_to_world, 0, workloads.KITTI_SAMPLES)
    cfg = optim.TrainConfig(near=view.frustum.near, far=view.frustum.far)
    args = st.field, spec.scene, spec.views, setup, cfg
    held = held_after_a_cold_call(monkeypatch, args)
    assert held <= plan_bound(spec.grid)
    assert optim.evaluate_field(*args).counts == workloads.reference("eval_kitti360")


@pytest.mark.parametrize("name, occupied", [("eval_occluder", 1_332),
                                            ("eval_kitti360", 307_023)])
def test_every_occupied_frustum_voxel_is_invisible(workloads, name, occupied, tmp_path):
    """The march never marks an occupied voxel visible, so the IE_* table's
    occupied voxels, its fp and tn, are all of gt & m_f."""
    wl = workloads.WORKLOADS[name]
    state = wl.setup(workloads.DEFAULT_SEED, str(tmp_path))
    out = wl.op(state)
    masks = state.masks if name == "eval_occluder" else out.grids
    assert np.count_nonzero(masks["gt"].values & masks["frustum"].values) == occupied
    assert out.counts["invisible_empty_fp"] + out.counts["invisible_empty_tn"] == occupied
