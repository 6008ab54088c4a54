"""Module structure: import dependencies, the names the benchmark patches
and the declared console scripts."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_scenefile_does_not_import_the_trainer():
    """Parsing a scene spec needs geometry and primitives, not the trainer."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, occrebench.scenefile; "
            "sys.exit('occrebench.optim' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert result.returncode == 0


def test_benchmark_lookup_sites_exist():
    """Every (module or class, name) the benchmark wraps is defined on that
    owner itself, so a refactor that drops or moves one fails here rather
    than in a benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.assert_unwrapped()


def test_console_scripts_resolve():
    """Every ``[project.scripts]`` entry names a module that imports and a
    callable in it, so an installed command starts."""
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
