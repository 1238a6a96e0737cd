"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bracketlab

MODULES = sorted(p for p in Path(bracketlab.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py is skipped: its imports are the package's re-exports.
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"imported but never used in {path.name}: {unused}"


def _names(node) -> set:
    """Every name, attribute and imported name referenced under ``node``."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_every_private_helper_is_used():
    # A top-level _function or _Class that no other statement of the package
    # names is left over from code that is gone.
    private, used = {}, set()
    for path in Path(bracketlab.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            names = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                private[stmt.name] = path.name
                names.discard(stmt.name)
            used |= names
    unused = sorted(f"{module}:{name}" for name, module in private.items() if name not in used)
    assert private and not unused, f"private helpers nothing uses: {unused}"


@pytest.mark.parametrize("path", MODULES + [Path(bracketlab.__file__)], ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # A dataclass decorator generates and compiles its methods in every process that imports it.
    tree = ast.parse(path.read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported


def test_a_fresh_interpreter_imports_no_dataclasses():
    src = str(Path(bracketlab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bracketlab, bracketlab.corpus, bracketlab.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_the_corpus_is_read_without_importlib_resources():
    # The bundled corpus is a plain directory beside the module.  -S keeps
    # site-packages, and any .pth file there that imports it, out.
    env = dict(os.environ, PYTHONPATH=str(Path(bracketlab.__file__).parent.parent))
    code = "import sys, bracketlab.corpus; print('importlib.resources' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
