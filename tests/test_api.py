"""The public surface: every exported name resolves and is used, every
module attribute the benchmark scripts use resolves, and every demo runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import listsched

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: the listsched modules that perfbench imports by name
PERFBENCH_MODULES = ("bench", "cli", "datagen", "model", "priority", "scheduler", "selection")
PERFBENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))


def test_all_names_resolve():
    missing = [name for name in listsched.__all__ if not hasattr(listsched, name)]
    assert missing == []


def ast_nodes(paths: list[Path]):
    """Every node of every file in ``paths``."""
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text(), str(path)))


def perfbench_module_attributes() -> set[tuple[str, str]]:
    """Every ``<module>.<attr>`` that ``perfbench/*.py`` reaches on a listsched module."""
    return {
        (node.value.id, node.attr)
        for node in ast_nodes(PERFBENCH_FILES)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in PERFBENCH_MODULES
    }


def test_perfbench_module_attributes_resolve():
    used = perfbench_module_attributes()
    assert ("selection", "open_window_insertion") in used  # the walk finds calls
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(used)
        if not hasattr(importlib.import_module(f"listsched.{module}"), attr)
    ]
    assert missing == []


def test_every_export_is_reached_outside_the_package_init():
    # a name that only __init__ re-exports is dead: each exported name must
    # be read, as a name or an attribute, by a listsched module or perfbench
    package = sorted((ROOT / "src" / "listsched").glob("*.py"))
    modules = [path for path in package if path.name != "__init__.py"]
    reached = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast_nodes(modules + PERFBENCH_FILES)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(set(listsched.__all__) - reached) == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
