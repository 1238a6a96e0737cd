"""Byte-identical CLI output on the bundled corpus.

Each case runs one ``bracketlab`` command in-process and compares its JSON
output with the file under ``tests/golden/``; ``check-all`` is also run in
fresh interpreters under three hash seeds.  To rewrite the files after an
intended change of output, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import bracketlab
from bracketlab.cli import main
from conftest import BRACKET_NAMES, DIAGRAM_NAMES, corpus_file

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [("khovanov", None, d) for d in DIAGRAM_NAMES]
CASES += [(command, b, None) for command in ("verify-bracket", "canonical-cocycle") for b in BRACKET_NAMES]
CASES += [
    (command, bracket, diagram)
    for command in ("bracket-invariant", "bracket-value", "z-invariant", "bh", "check-theorem", "check-euler")
    for bracket in ("bracket_z9", "bracket_gf8")
    for diagram in ("trefoil", "hopf")
]
CASES += [("bh", "bracket_z9", "trefoil_r2"), ("check-all", None, None)]


def _case_name(case) -> str:
    return "_".join(part for part in case if part)


def _run(case) -> str:
    command, bracket, diagram = case
    files = [corpus_file(f"{name}.json") for name in (bracket, diagram) if name]
    result = CliRunner().invoke(main, [command, *files])
    assert result.exit_code == 0, result.output
    return result.output


@pytest.mark.parametrize("case", CASES, ids=_case_name)
def test_cli_output_is_unchanged(case):
    expected = (GOLDEN / f"{_case_name(case)}.json").read_text()
    assert _run(case) == expected


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_check_all_is_independent_of_hash_seed(seed):
    src = str(Path(bracketlab.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-m", "bracketlab.cli", "check-all"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "check-all.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{_case_name(case)}.json").write_text(_run(case))
