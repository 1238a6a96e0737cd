"""Byte-identical CLI output on the bundled corpus.

Each case runs one ``bracketlab`` command in-process, requires its exit
code (1 for the negative controls, 0 otherwise) and compares its output
with the file under ``tests/golden/``; ``check-all`` is also run in fresh
interpreters under three hash seeds.  To rewrite the files after an
intended change of output, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

import bracketlab
from bracketlab.cli import main
from conftest import BRACKET_NAMES, DIAGRAM_NAMES, PINNED_WORDS, braid_closure, corpus_file

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [("khovanov", d) for d in DIAGRAM_NAMES]
CASES += [(command, b) for command in ("verify-bracket", "canonical-cocycle") for b in BRACKET_NAMES]
CASES += [
    (command, bracket, diagram)
    for command in ("bracket-invariant", "bracket-value", "z-invariant", "bh", "check-theorem", "check-euler")
    for bracket in ("bracket_z9", "bracket_gf8")
    for diagram in ("trefoil", "hopf")
]
CASES += [("bh", "bracket_z9", "trefoil_r2"), ("check-all",), ("check-all", "--pretty")]
CASES += [("verify-biquandle", b) for b in ("biquandle_flip", "biquandle_3el", "biquandle_3el_broken")]
CASES += [("verify-cocycle", "cocycle_ab"), ("verify-cocycle", "cocycle_ab_broken")]
CASES += [("verify-bracket", "bracket_gf8_broken")]
CASES += [
    ("colorings", biquandle, diagram)
    for biquandle in ("biquandle_flip", "biquandle_3el")
    for diagram in ("trefoil", "hopf", "unknot", "trefoil_r1")
]

# The negative controls fail verification, so their commands exit 1.
EXIT_1 = {
    ("verify-biquandle", "biquandle_3el_broken"),
    ("verify-cocycle", "cocycle_ab_broken"),
    ("verify-bracket", "bracket_gf8_broken"),
}


def _case_name(case) -> str:
    return "_".join(part.lstrip("-") for part in case)


def _golden(case) -> Path:
    suffix = ".txt" if "--pretty" in case else ".json"
    return GOLDEN / f"{_case_name(case)}{suffix}"


def _run(case) -> str:
    command, *rest = case
    args = [a if a.startswith("--") else corpus_file(f"{a}.json") for a in rest]
    result = CliRunner().invoke(main, [command, *args])
    assert result.exit_code == (1 if case in EXIT_1 else 0), result.output
    return result.output


@pytest.mark.parametrize("case", CASES, ids=_case_name)
def test_cli_output_is_unchanged(case):
    assert _run(case) == _golden(case).read_text()


def _run_closure_24(tmp: Path, command: str = "khovanov", *corpus_names: str) -> str:
    """The output of ``bracketlab command [corpus files] closure`` on the pinned 24-crossing closure."""
    word = PINNED_WORDS[1]
    assert len(word) == 24
    diagram = tmp / "closure_24.json"
    diagram.write_text(json.dumps(braid_closure(word, 4)))
    result = CliRunner().invoke(main, [command, *(corpus_file(f"{n}.json") for n in corpus_names), str(diagram)])
    assert result.exit_code == 0, result.output
    return result.output


def test_khovanov_of_a_24_crossing_closure_is_unchanged(tmp_path):
    assert _run_closure_24(tmp_path) == (GOLDEN / "khovanov_braid_closure_24.json").read_text()


@pytest.mark.parametrize("bracket", ["bracket_gf8", "bracket_z9"])
def test_bracket_value_of_a_24_crossing_closure_is_unchanged(bracket, tmp_path):
    # The bracket scan at 24 crossings: many matchings, and more than one column.
    golden = GOLDEN / f"bracket-value_{bracket}_braid_closure_24.json"
    assert _run_closure_24(tmp_path, "bracket-value", bracket) == golden.read_text()


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
        _golden(case).write_text(_run(case))
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "khovanov_braid_closure_24.json").write_text(_run_closure_24(Path(tmp)))
        for bracket in ("bracket_gf8", "bracket_z9"):
            output = _run_closure_24(Path(tmp), "bracket-value", bracket)
            (GOLDEN / f"bracket-value_{bracket}_braid_closure_24.json").write_text(output)
