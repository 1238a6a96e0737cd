"""Byte-identical CLI output on the bundled corpus.

Each case runs one ``bracketlab`` command in-process and compares its JSON
output with the file under ``tests/golden/``.  To rewrite the files after an
intended change of output, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{_case_name(case)}.json").write_text(_run(case))
