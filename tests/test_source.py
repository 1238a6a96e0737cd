"""Checks on the package source itself."""

import ast
import importlib
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
    # names is left over from code that is gone.  A __dunder__ function is a
    # hook the interpreter calls, such as a module's __getattr__.
    private, used = {}, set()
    for path in Path(bracketlab.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            names = _names(stmt)
            helper = isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_")
            if helper and not (stmt.name.startswith("__") and stmt.name.endswith("__")):
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


# The names the parent package re-exported, by defining module.
EXPORTS = {
    "biquandle": [
        "AxiomFailure", "Biquandle", "Coloring", "Report", "counting_invariant", "enumerate_colorings",
        "verify_biquandle",
    ],
    "bracket": ["Bracket", "bracket_from_json", "bracket_invariant", "crossing_color_pair", "verify_bracket"],
    "cocycle": [
        "Cocycle", "FreeAbelianTarget", "UnitQuotientTarget", "canonical_cocycle", "cocycle_from_json",
        "cocycle_invariant", "cocycle_value", "verify_cocycle", "z_invariant", "z_invariant_multiset",
    ],
    "diagram": ["CrossingRecord", "DiagramError", "OrientedDiagram", "parse_diagram"],
    "graded": ["GradedComplex", "HomologyTable", "cohomology", "invariant_factors"],
    "homology": ["bh_multiset", "check_colorings", "khovanov_classical"],
    "rings": [
        "Coset", "PolyQuotientRing", "Ring", "RingError", "UnitSubgroup", "ZModRing", "ring_make",
        "subgroup_generate",
    ],
}


def test_the_package_reads_each_name_from_its_module(monkeypatch):
    names = sorted(name for names in EXPORTS.values() for name in names)
    assert len(names) == 41 and sorted(bracketlab.__all__) == names and set(names) <= set(dir(bracketlab))
    for module, module_names in EXPORTS.items():
        module = importlib.import_module(f"bracketlab.{module}")
        for name in module_names:
            assert getattr(bracketlab, name) is getattr(module, name), name
    # No copy is kept: a function swapped in its module, as the bench tracer
    # swaps them, is what the package returns.
    from bracketlab import homology

    monkeypatch.setattr(homology, "khovanov_classical", lambda D: None)
    assert bracketlab.khovanov_classical is homology.khovanov_classical
    with pytest.raises(AttributeError, match="no_such_name"):
        bracketlab.no_such_name


def test_a_process_that_computes_no_homology_compiles_neither_graded_nor_tangle():
    # The package, the corpus, the CLI and the names bench/workloads.py
    # imports leave both modules out until the first Khovanov computation.
    src = str(Path(bracketlab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, bracketlab, bracketlab.corpus, bracketlab.cli\n"
        "from bracketlab import (Biquandle, bracket_from_json, bracket_invariant, cocycle_from_json,\n"
        "    cocycle_invariant, counting_invariant, khovanov_classical, parse_diagram, z_invariant_multiset)\n"
        "homology = {'bracketlab.graded', 'bracketlab.tangle'}\n"
        "print(sorted(homology & set(sys.modules)))\n"
        "khovanov_classical(parse_diagram(bracketlab.corpus.load_corpus_json('trefoil.json')))\n"
        "print(sorted(homology & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "['bracketlab.graded', 'bracketlab.tangle']"]


def test_the_corpus_is_read_without_importlib_resources():
    # The bundled corpus is a plain directory beside the module.  -S keeps
    # site-packages, and any .pth file there that imports it, out.
    env = dict(os.environ, PYTHONPATH=str(Path(bracketlab.__file__).parent.parent))
    code = "import sys, bracketlab.corpus; print('importlib.resources' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
