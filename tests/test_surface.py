"""The public surface stays whole: every name a module lists in `__all__`
exists, and so does every name the demos import from slimadapt.  No
slimadapt module imports another's private (`_`-prefixed) names.  The
sources and demos are parsed, not run.  The three training steps share
one positional signature, which takes no hook.  Importing the CLI loads
no scipy: numpy is the only runtime dependency."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import slimadapt
from slimadapt import search, trainer

MODULES = sorted(f"slimadapt.{m.name}" for m in pkgutil.iter_modules(slimadapt.__path__))
SOURCES = sorted(Path(slimadapt.__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def demo_imports(path: Path):
    """(module, name) for each `from slimadapt... import name` in `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "slimadapt":
            for alias in node.names:
                yield node.module, alias.name


def private_imports(path: Path):
    """`module.name` for each `_`-prefixed name that `path` imports from
    another slimadapt module, relatively or by its full name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "slimadapt"):
            yield from (f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_"))


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(source):
    found = list(private_imports(source))
    assert not found, f"{source.name} imports private names: {found}"


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing objects: {missing}"


def test_demos_are_found():
    assert DEMOS and all(list(demo_imports(p)) for p in DEMOS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_every_name_a_demo_imports_exists(demo):
    missing = [f"{module}.{name}" for module, name in demo_imports(demo)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{demo.name} imports missing names: {missing}"


@pytest.mark.parametrize("name", ["train_step", "train_step_baseline", "train_step_inplaced"])
def test_training_steps_take_exactly_the_step_inputs(name):
    params = inspect.signature(getattr(trainer, name)).parameters
    assert list(params) == ["bank", "state", "xs", "ys", "xt", "cfg", "rng_model"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
               for p in params.values())


def test_both_searches_take_the_same_parameters():
    """A `SearchPlan` fully determines either search, so the random bands
    and the greedy ladder take the same inputs, in the same order."""
    random, greedy = (inspect.signature(getattr(search, name)).parameters
                      for name in ("random_bands", "inherited_greedy_search"))
    assert list(random.items()) == list(greedy.items())
    assert list(random) == ["bank", "plan", "target_x", "target_y", "head"]


def test_cli_import_loads_no_scipy():
    """scipy is a test-only oracle: a fresh interpreter that imports the
    CLI must not load any scipy module."""
    code = ("import sys, slimadapt.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(slimadapt.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.stdout.strip() == "[]", out.stdout
