"""The benchmark's own reference checks, run at its default seed.

``bench/workloads.py`` is loaded by file path and only called, so the
bit-for-bit agreement with ``bench/reference/`` that refactors of the
trainer and the evaluation protocol rely on is checked here too, not only
in benchmark runs.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

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
    wl = workloads.WORKLOADS[name]
    state = wl.setup(workloads.DEFAULT_SEED, str(tmp_path))
    state.expected = workloads.reference(name)
    assert wl.check(state, wl.op(state)) == []
