"""Module structure: import dependencies, the names the benchmark patches,
the declared console scripts, and that every public name in src is used."""

from __future__ import annotations

import ast
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


def referenced_names(path: Path) -> set:
    """Every name a Python file uses: loaded or stored names, attributes,
    imported names and string constants (``bench/tracing.py`` names the
    sites it wraps as strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_src_name_is_used():
    """Each public top-level function or class in ``src/occrebench`` is
    referenced somewhere in ``src/``, ``bench/`` or ``tests/``: a name with
    neither a caller nor a test is deleted, not kept."""
    used = set()
    for folder in ("src", "bench", "tests"):
        for path in (ROOT / folder).rglob("*.py"):
            used |= referenced_names(path)
    defined = []
    for path in sorted((ROOT / "src" / "occrebench").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append(f"{path.stem}.{node.name}")
    unused = [name for name in defined if name.rpartition(".")[2] not in used]
    assert not unused, f"public names with no reference: {unused}"
