import json
import random
import re
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from bracketlab import cli
from bracketlab.cli import main
from bracketlab.diagram import DiagramError
from conftest import braid_closure, corpus_file, random_braid_word


@pytest.fixture()
def runner():
    return CliRunner()


def _malformed(tmp_path, name, base, keys, value):
    """A copy of corpus file ``base`` with the field at path ``keys`` set to ``value``."""
    data = json.loads(Path(corpus_file(f"{base}.json")).read_text())
    if keys:
        *parents, last = keys
        field = data
        for key in parents:
            field = field[key]
        field[last] = value
    else:
        data = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _assert_input_error(result, kind):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"bad {kind}" in result.output and "Traceback" not in result.output


KINK = {"sign": 1, "under_in": 1, "over_in": 2, "under_out": 2, "over_out": 1}

MALFORMED_DIAGRAMS = {
    "free_circles_float": {"crossings": [], "free_circles": 2.7},
    "free_circles_negative": {"crossings": [], "free_circles": -1},
    "free_circles_bool": {"crossings": [], "free_circles": True},
    "free_circles_string": {"crossings": [], "free_circles": "2"},
    "free_circles_null": {"crossings": [], "free_circles": None},
    "sign_bool": {"crossings": [{**KINK, "sign": True}]},
    "sign_zero": {"crossings": [{**KINK, "sign": 0}]},
    "sign_float": {"crossings": [{**KINK, "sign": 1.0}]},
    "sign_string": {"crossings": [{**KINK, "sign": "1"}]},
    "label_bool": {"crossings": [{**KINK, "under_in": True, "over_out": True}]},
    "label_zero": {"crossings": [{**KINK, "under_in": 0, "over_out": 0}]},
    "label_float": {"crossings": [{**KINK, "under_in": 1.0, "over_out": 1.0}]},
    "label_dangling": {"crossings": [{**KINK, "over_in": 3}]},
    "label_reused": {"crossings": [{**KINK, "over_in": 1, "over_out": 2}]},
    "missing_field": {"crossings": [{"sign": 1}]},
    "crossing_not_object": {"crossings": [1]},
    "not_planar": {"crossings": [{**KINK, "under_out": 1, "over_out": 2}]},
    "crossings_not_list": {"crossings": 5},
    "top_level_list": [],
    "too_many_free_circles": {"crossings": [], "free_circles": 257},
    "json_string": json.dumps({"crossings": [KINK]}),
}


@pytest.mark.parametrize("name", MALFORMED_DIAGRAMS)
def test_malformed_diagram_exits_2(runner, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_DIAGRAMS[name]))
    _assert_input_error(runner.invoke(main, ["khovanov", str(path)]), "diagram")


# (corpus bracket, path to one field, malformed value); () replaces the whole file.
MALFORMED_BRACKETS = {
    "n_float": ("bracket_z9", ("ring", "n"), 9.7),
    "n_string": ("bracket_z9", ("ring", "n"), "9"),
    "n_bool": ("bracket_z9", ("ring", "n"), True),
    "n_null": ("bracket_z9", ("ring", "n"), None),
    "n_one": ("bracket_z9", ("ring", "n"), 1),
    "ring_not_object": ("bracket_z9", ("ring",), 9),
    "ring_kind_unknown": ("bracket_z9", ("ring", "kind"), "field"),
    "entry_bool": ("bracket_z9", ("A", 0, 0), True),
    "entry_float": ("bracket_z9", ("A", 0, 1), 1.0),
    "entry_string": ("bracket_z9", ("B", 0, 1), "4"),
    "A_not_square": ("bracket_z9", ("A", 1), [1]),
    "B_not_list": ("bracket_z9", ("B",), 4),
    "base_n_float": ("bracket_gf8", ("ring", "base_n"), 2.5),
    "base_n_bool": ("bracket_gf8", ("ring", "base_n"), True),
    "modulus_float": ("bracket_gf8", ("ring", "modulus", 3), 1.9),
    "modulus_bool": ("bracket_gf8", ("ring", "modulus", 3), True),
    "modulus_string": ("bracket_gf8", ("ring", "modulus"), "1101"),
    "modulus_not_list": ("bracket_gf8", ("ring", "modulus"), 11),
    "coefficient_bool": ("bracket_gf8", ("A", 0, 0, 0), True),
    "coefficient_float": ("bracket_gf8", ("A", 0, 0, 0), 1.0),
    "element_bool": ("bracket_gf8", ("A", 0, 0), True),
    "biquandle_entry_bool": ("bracket_z9", ("biquandle", "under", 1, 0), True),
    "biquandle_entry_float": ("bracket_z9", ("biquandle", "under", 0, 0), 2.0),
    "biquandle_empty": (
        "bracket_z9", (), {"ring": {"kind": "zmod", "n": 5}, "biquandle": {"under": [], "over": []}, "A": [], "B": []}
    ),
}


@pytest.mark.parametrize("name", MALFORMED_BRACKETS)
def test_malformed_bracket_exits_2(runner, tmp_path, name):
    path = _malformed(tmp_path, name, *MALFORMED_BRACKETS[name])
    _assert_input_error(runner.invoke(main, ["bracket-invariant", path, corpus_file("trefoil.json")]), "bracket")
    _assert_input_error(runner.invoke(main, ["verify-bracket", path]), "bracket")


def test_oversized_quotient_ring_exits_2(runner, tmp_path):
    # GF(2^16): 65,536 elements, past the bound, refused before any is listed.
    modulus = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1]
    path = _malformed(tmp_path, "gf65536", "bracket_gf8", ("ring", "modulus"), modulus)
    result = runner.invoke(main, ["verify-bracket", path])
    _assert_input_error(result, "bracket")
    assert "65536 elements is too large" in result.output


# (path to one field of biquandle_flip, malformed value); () replaces the whole file.
MALFORMED_BIQUANDLES = {
    "entry_zero": (("under", 0, 0), 0),
    "entry_too_big": (("under", 0, 0), 3),
    "entry_bool": (("over", 1, 0), True),
    "entry_float": (("over", 0, 1), 2.0),
    "entry_string": (("under", 1, 1), "1"),
    "entry_null": (("under", 1, 1), None),
    "entry_list": (("under", 0, 0), [1]),
    "row_short": (("under", 1), [1]),
    "rows_missing": (("under",), [[2, 2]]),
    "under_empty": (("under",), []),
    "over_not_list": (("over",), 2),
    "top_level_list": ((), [1]),
    "empty": ((), {"under": [], "over": []}),
}


@pytest.mark.parametrize("name", MALFORMED_BIQUANDLES)
def test_malformed_biquandle_exits_2(runner, tmp_path, name):
    path = _malformed(tmp_path, name, "biquandle_flip", *MALFORMED_BIQUANDLES[name])
    _assert_input_error(runner.invoke(main, ["verify-biquandle", path]), "biquandle")
    _assert_input_error(runner.invoke(main, ["colorings", path, corpus_file("trefoil.json")]), "biquandle")


# (path to one field of cocycle_ab, malformed value)
MALFORMED_COCYCLES = {
    "word_int": (("phi", 0, 1), 1),
    "word_null": (("phi", 0, 1), None),
    "word_list": (("phi", 0, 1), ["a"]),
    "word_unknown_symbol": (("phi", 0, 1), "c"),
    "word_bad_exponent": (("phi", 0, 1), "a^x"),
    "phi_not_square": (("phi", 1), ["1"]),
    "phi_not_list": (("phi",), 3),
    "symbols_not_list": (("target", "symbols"), 5),
    "symbols_string": (("target", "symbols"), "ab"),
    "symbols_repeated": (("target", "symbols"), ["a", "b", "a"]),
    "symbol_not_string": (("target", "symbols"), ["a", "b", 1]),
    "symbol_not_a_name": (("target", "symbols"), ["a", "b", "a b"]),
    "target_kind_unknown": (("target", "kind"), "free_group"),
    "target_null": (("target",), None),
    "biquandle_entry_bool": (("biquandle", "under", 0, 0), True),
    "quotient_modulus_float": (("target",), {"kind": "unit_quotient", "ring": {"kind": "zmod", "n": 9.5}, "G": [1]}),
    "quotient_generator_bool": (("target",), {"kind": "unit_quotient", "ring": {"kind": "zmod", "n": 9}, "G": [True]}),
    "quotient_generator_not_unit": (("target",), {"kind": "unit_quotient", "ring": {"kind": "zmod", "n": 9}, "G": [3]}),
    "quotient_value_not_unit": ((), {
        "biquandle": {"under": [[2, 2], [1, 1]], "over": [[2, 2], [1, 1]]},
        "target": {"kind": "unit_quotient", "ring": {"kind": "zmod", "n": 9}, "G": [1]},
        "phi": [[1, 3], [3, 1]],
    }),
}


@pytest.mark.parametrize("name", MALFORMED_COCYCLES)
def test_malformed_cocycle_exits_2(runner, tmp_path, name):
    path = _malformed(tmp_path, name, "cocycle_ab", *MALFORMED_COCYCLES[name])
    _assert_input_error(runner.invoke(main, ["verify-cocycle", path]), "cocycle")


def _assert_corpus_error(result):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "corpus error" in result.output and "Traceback" not in result.output


def test_check_all_rejects_a_malformed_cocycle(runner, tmp_path):
    # Listed as a negative control, a file that is not a cocycle at all must
    # not pass as one that fails verification.
    _malformed(tmp_path, "word_int", "cocycle_ab", *MALFORMED_COCYCLES["word_int"])
    manifest = tmp_path / "manifest.json"
    entry = {"name": "word_int", "file": "word_int.json", "expected_verification": "fail"}
    manifest.write_text(json.dumps({"cocycles": [entry]}))
    _assert_corpus_error(runner.invoke(main, ["check-all", "--manifest", str(manifest)]))


def test_readers_reject_structures_that_fail_their_axioms(runner):
    trefoil = corpus_file("trefoil.json")
    result = runner.invoke(main, ["bracket-invariant", corpus_file("bracket_gf8_broken.json"), trefoil])
    _assert_input_error(result, "bracket")
    assert "not a bracket" in result.output
    result = runner.invoke(main, ["colorings", corpus_file("biquandle_3el_broken.json"), trefoil])
    _assert_input_error(result, "biquandle")
    assert "not a biquandle" in result.output


def test_check_all_rejects_a_bracket_on_a_non_biquandle(runner, tmp_path):
    # Listed as a negative control, a bracket on tables that are not a
    # biquandle must not pass as a bracket that fails its own axioms.
    not_a_biquandle = {"under": [[1, 1], [1, 2]], "over": [[1, 1], [2, 2]]}
    _malformed(tmp_path, "on_broken", "bracket_gf8", ("biquandle",), not_a_biquandle)
    manifest = tmp_path / "manifest.json"
    entry = {"name": "on_broken", "file": "on_broken.json", "expected_verification": "fail"}
    manifest.write_text(json.dumps({"brackets": [entry]}))
    result = runner.invoke(main, ["check-all", "--manifest", str(manifest)])
    _assert_corpus_error(result)
    assert "not a biquandle" in result.output


def _on_broken_tables(tmp_path) -> dict:
    """A bracket and a cocycle file whose own tables pass, on tables that are not a biquandle."""
    tables = json.loads(Path(corpus_file("biquandle_3el_broken.json")).read_text())
    structures = {
        "bracket": {"ring": {"kind": "zmod", "n": 5}, "biquandle": tables, "A": [[1] * 3] * 3, "B": [[3] * 3] * 3},
        "cocycle": {"biquandle": tables, "target": {"kind": "free_abelian", "symbols": ["a"]}, "phi": [["1"] * 3] * 3},
    }
    paths = {}
    for kind, data in structures.items():
        paths[kind] = tmp_path / f"{kind}_on_broken.json"
        paths[kind].write_text(json.dumps(data))
    return paths


def test_verify_commands_refuse_a_non_biquandle(runner, tmp_path):
    for kind, path in _on_broken_tables(tmp_path).items():
        result = runner.invoke(main, [f"verify-{kind}", str(path)])
        _assert_input_error(result, kind)
        assert f"bad {kind} {path}: not a biquandle: " in result.output


def test_check_all_rejects_a_cocycle_on_a_non_biquandle(runner, tmp_path):
    _on_broken_tables(tmp_path)
    manifest = tmp_path / "manifest.json"
    entry = {"name": "on_broken", "file": "cocycle_on_broken.json", "expected_verification": "fail"}
    manifest.write_text(json.dumps({"cocycles": [entry]}))
    result = runner.invoke(main, ["check-all", "--manifest", str(manifest)])
    _assert_corpus_error(result)
    assert "corpus error: not a biquandle: " in result.output


def test_check_all_pretty_lists_a_failing_row(runner, tmp_path):
    # A negative control listed as passing fails its row: exit 1, and --pretty names it with its first failing axiom.
    (tmp_path / "bracket_gf8_broken.json").write_text(Path(corpus_file("bracket_gf8_broken.json")).read_text())
    entry = {"name": "gf8_broken", "file": "bracket_gf8_broken.json", "expected_verification": "pass"}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"brackets": [entry]}))
    result = runner.invoke(main, ["check-all", "--manifest", str(manifest), "--pretty"])
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert lines[0] == "FAIL: 0/1 checks"
    assert lines[1].split() == ["check", "status", "detail"]
    assert lines[3].split() == ["verify-bracket:gf8_broken", "FAIL", "i"]


def test_a_refused_diagram_in_the_body_exits_2(runner, monkeypatch):
    # A DiagramError from any step of a command, not only its first, is an input error.
    def refuse(*args):
        raise DiagramError("the diagram is refused")

    monkeypatch.setattr(cli, "bracket_values", refuse)
    result = runner.invoke(main, ["bracket-value", corpus_file("bracket_z9.json"), corpus_file("trefoil.json")])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.output == "error: the diagram is refused\n"


def test_readers_are_looked_up_when_the_command_runs(runner, monkeypatch):
    # A reader patched in the cli namespace after import is the one the command reads with.
    def refuse(data):
        raise DiagramError("patched reader")

    monkeypatch.setattr(cli, "parse_diagram", refuse)
    trefoil = corpus_file("trefoil.json")
    result = runner.invoke(main, ["khovanov", trefoil])
    assert result.exit_code == 2 and result.output == f"error: bad diagram {trefoil}: patched reader\n"


FLIP = {"name": "flip", "file": "biquandle_flip.json"}
BROKEN = {"name": "broken", "file": "biquandle_3el_broken.json", "expected_verification": "fail"}
UNKNOT = {"name": "unknot", "file": "unknot.json"}
MANIFEST = {"diagrams": [UNKNOT], "biquandles": [FLIP, BROKEN]}

MALFORMED_MANIFESTS = {
    "top_level_list": [],
    "top_level_null": None,
    "unknown_section": {"diagram": [UNKNOT]},
    "section_not_list": {"diagrams": UNKNOT},
    "entry_not_object": {"diagrams": ["unknot.json"]},
    "entry_without_file": {"diagrams": [{"name": "unknot"}]},
    "unknown_key": {"diagrams": [{**UNKNOT, "equivalent": "unknot"}]},
    "verification_on_diagram": {"diagrams": [{**UNKNOT, "expected_verification": "fail"}]},
    "verification_typo": {"biquandles": [{**BROKEN, "expected_verification": "fial"}]},
    "duplicate_name": {"biquandles": [FLIP, {**BROKEN, "name": "flip"}]},
    "equivalent_to_unlisted": {"diagrams": [{**UNKNOT, "equivalent_to": "trefoil"}]},
}


def _manifest(tmp_path, data):
    """``data`` as a manifest beside copies of the corpus files ``MANIFEST`` lists."""
    for entry in (FLIP, BROKEN, UNKNOT):
        (tmp_path / entry["file"]).write_text(Path(corpus_file(entry["file"])).read_text())
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_wellformed_manifest_passes(runner, tmp_path):
    result = runner.invoke(main, ["check-all", "--manifest", _manifest(tmp_path, MANIFEST)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["total"] == 2


@pytest.mark.parametrize("name", MALFORMED_MANIFESTS)
def test_malformed_manifest_exits_2(runner, tmp_path, name):
    path = _manifest(tmp_path, MALFORMED_MANIFESTS[name])
    _assert_corpus_error(runner.invoke(main, ["check-all", "--manifest", path]))


# Files that are not JSON text: the JSON reader raises UnicodeDecodeError and RecursionError on them.
UNREADABLE_FILES = {"not_utf8": b"\xff\xfe{}", "nested_too_deep": b"[" * 100_000}


@pytest.mark.parametrize("name", UNREADABLE_FILES)
def test_unreadable_manifest_exits_2(runner, tmp_path, name):
    path = tmp_path / "manifest.json"
    path.write_bytes(UNREADABLE_FILES[name])
    _assert_corpus_error(runner.invoke(main, ["check-all", "--manifest", str(path)]))
    (tmp_path / "listed.json").write_bytes(UNREADABLE_FILES[name])
    path.write_text(json.dumps({"diagrams": [{"name": "listed", "file": "listed.json"}]}))
    _assert_corpus_error(runner.invoke(main, ["check-all", "--manifest", str(path)]))


def test_too_many_torsion_factors_exit_2(runner, tmp_path):
    # The trefoil has one Z/2; each free circle doubles it.  16 circles make
    # 65,536 factors, the most allowed, and 17 are refused before the work.
    path = _malformed(tmp_path, "trefoil_16", "trefoil", ("free_circles",), 16)
    assert runner.invoke(main, ["khovanov", path]).exit_code == 0
    path = _malformed(tmp_path, "trefoil_17", "trefoil", ("free_circles",), 17)
    for command in (["khovanov", path], ["bh", corpus_file("bracket_z9.json"), path]):
        result = runner.invoke(main, command)
        assert result.exit_code == 2, result.output
        assert "17 free circles would make 131072 torsion factors" in result.output
        assert "Traceback" not in result.output


def test_too_many_colorings_exit_2(runner, tmp_path):
    # The trefoil has 2 flip colorings; each free circle doubles them.  13
    # circles make 16,384, the most allowed, and 14 are refused while they
    # are enumerated, by every command that lists colorings and by check-all.
    z9 = corpus_file("bracket_z9.json")
    path = _malformed(tmp_path, "trefoil_13", "trefoil", ("free_circles",), 13)
    result = runner.invoke(main, ["bracket-invariant", z9, path])
    assert result.exit_code == 0, result.output
    assert sum(e["multiplicity"] for e in json.loads(result.output)["multiset"]) == 16384
    path = _malformed(tmp_path, "trefoil_14", "trefoil", ("free_circles",), 14)
    commands = ("bracket-value", "bracket-invariant", "z-invariant", "bh", "check-theorem", "check-euler")
    for command in [["colorings", corpus_file("biquandle_flip.json"), path]] + [[c, z9, path] for c in commands]:
        result = runner.invoke(main, command)
        assert result.exit_code == 2, (command, result.output)
        assert "more than 16384 colorings" in result.output and "Traceback" not in result.output
    (tmp_path / "bracket_z9.json").write_text(Path(z9).read_text())
    manifest = tmp_path / "manifest.json"
    entries = {"diagrams": [{"name": "trefoil_14", "file": "trefoil_14.json"}], "brackets": [{"name": "z9", "file": "bracket_z9.json"}]}
    manifest.write_text(json.dumps(entries))
    result = runner.invoke(main, ["check-all", "--manifest", str(manifest)])
    _assert_corpus_error(result)
    assert "more than 16384 colorings" in result.output


def test_colorings_of_a_thousand_kinks(runner, tmp_path):
    # Two free choices per kink, 2,000 levels, twice Python's default recursion limit; one coloring.
    kinks = [
        {**KINK, "under_in": 2 * t + 1, "over_in": 2 * t + 2, "under_out": 2 * t + 2, "over_out": 2 * t + 1}
        for t in range(1000)
    ]
    diagram, biquandle = tmp_path / "kinks.json", tmp_path / "one.json"
    diagram.write_text(json.dumps({"crossings": kinks}))
    biquandle.write_text(json.dumps({"under": [[1]], "over": [[1]]}))
    result = runner.invoke(main, ["colorings", str(biquandle), str(diagram)])
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    assert out["count"] == 1 and out["colorings"] == [{str(arc): 1 for arc in range(1, 2001)}]


def test_an_integer_past_the_digit_limit_is_a_read_error(runner, tmp_path):
    # json refuses an integer of more than 4,300 digits with a plain ValueError.
    path = tmp_path / "huge.json"
    path.write_text('{"crossings": [], "free_circles": 1' + "0" * 5000 + "}")
    for command in (["khovanov", path], ["verify-biquandle", path], ["bh", corpus_file("bracket_z9.json"), path]):
        result = runner.invoke(main, [str(arg) for arg in command])
        assert result.exit_code == 2, (command, result.output)
        assert "error: cannot read" in result.output and "Traceback" not in result.output


TRIVIAL_2 = {"under": [[1, 1], [2, 2]], "over": [[1, 1], [2, 2]]}


def test_a_scalar_group_past_the_element_limit_exits_2(runner, tmp_path):
    # Over Z/2053, G = <q_{2,1}^{-1} q_{1,1}> = <4> has 1,026 elements, past rings.MAX_ELEMENTS.
    bracket = tmp_path / "bracket_z2053.json"
    ring = {"kind": "zmod", "n": 2053}
    bracket.write_text(json.dumps({"ring": ring, "biquandle": TRIVIAL_2, "A": [[1, 1], [1, 1]], "B": [[2, 2], [1027, 2]]}))
    for command in (["bh", bracket, corpus_file("hopf.json")], ["verify-bracket", bracket], ["canonical-cocycle", bracket]):
        result = runner.invoke(main, [str(arg) for arg in command])
        _assert_input_error(result, "bracket")
        assert "the unit subgroup has more than 1024 elements" in result.output
    cocycle = tmp_path / "cocycle_z2053.json"
    target = {"kind": "unit_quotient", "ring": ring, "G": [4]}
    cocycle.write_text(json.dumps({"biquandle": TRIVIAL_2, "target": target, "phi": [[1, 1], [1, 1]]}))
    _assert_input_error(runner.invoke(main, ["verify-cocycle", str(cocycle)]), "cocycle")
    # A large ring whose G is small keeps working: here G = {1}.
    small = tmp_path / "bracket_z1000003.json"
    ring = {"kind": "zmod", "n": 1000003}
    small.write_text(json.dumps({"ring": ring, "biquandle": TRIVIAL_2, "A": [[1, 1], [1, 1]], "B": [[2, 2], [2, 2]]}))
    result = runner.invoke(main, ["bh", str(small), corpus_file("hopf.json")])
    assert result.exit_code == 0, result.output
    assert [e["multiplicity"] for e in json.loads(result.output)["multiset"]] == [4]


def test_kink_fixture_is_well_formed(runner, tmp_path):
    path = tmp_path / "kink.json"
    path.write_text(json.dumps({"crossings": [KINK]}))
    assert runner.invoke(main, ["khovanov", str(path)]).exit_code == 0


class TestVerifyCommands:
    def test_verify_biquandle_pass(self, runner):
        result = runner.invoke(main, ["verify-biquandle", corpus_file("biquandle_3el.json")])
        assert result.exit_code == 0
        assert json.loads(result.output)["ok"] is True

    def test_verify_biquandle_fail(self, runner):
        result = runner.invoke(
            main, ["verify-biquandle", corpus_file("biquandle_3el_broken.json")]
        )
        assert result.exit_code == 1
        out = json.loads(result.output)
        assert out["ok"] is False and out["failures"]

    def test_verify_bracket_reports_delta_w(self, runner):
        result = runner.invoke(main, ["verify-bracket", corpus_file("bracket_gf8.json")])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["delta"] == [1, 1, 1] and out["w"] == [1, 0, 1]

    def test_verify_bracket_literal_flag(self, runner):
        result = runner.invoke(
            main,
            ["verify-bracket", corpus_file("bracket_gf8.json"), "--literal-axioms"],
        )
        assert result.exit_code in (0, 1)

    def test_verify_bracket_non_unit_corner(self, runner, tmp_path):
        for table in ("A", "B"):
            data = json.loads(Path(corpus_file("bracket_z9.json")).read_text())
            data[table][0][0] = 3  # not a unit of Z/9
            path = tmp_path / f"{table}.json"
            path.write_text(json.dumps(data))
            result = runner.invoke(main, ["verify-bracket", str(path)])
            assert result.exit_code == 1, result.output
            out = json.loads(result.output)
            assert out["failures"][0]["axiom"] == "unit"
            assert "delta" not in out

    def test_verify_cocycle(self, runner):
        ok = runner.invoke(main, ["verify-cocycle", corpus_file("cocycle_ab.json")])
        bad = runner.invoke(main, ["verify-cocycle", corpus_file("cocycle_ab_broken.json")])
        assert ok.exit_code == 0
        assert bad.exit_code == 1

    def test_input_errors_exit_2(self, runner, tmp_path):
        missing = runner.invoke(main, ["verify-biquandle", str(tmp_path / "nope.json")])
        assert missing.exit_code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert runner.invoke(main, ["verify-biquandle", str(bad)]).exit_code == 2
        not_a_diagram = tmp_path / "d.json"
        not_a_diagram.write_text('{"crossings": [{"sign": 1}]}')
        assert runner.invoke(main, ["khovanov", str(not_a_diagram)]).exit_code == 2
        trefoil, z9 = corpus_file("trefoil.json"), corpus_file("bracket_z9.json")
        for name, content in UNREADABLE_FILES.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(content)
            for command in (["khovanov", path], ["verify-biquandle", path], ["bh", path, trefoil], ["bh", z9, path]):
                result = runner.invoke(main, [str(arg) for arg in command])
                assert result.exit_code == 2, (command, result.output)
                assert "error: cannot read" in result.output and "Traceback" not in result.output


class TestInvariantCommands:
    def test_colorings(self, runner):
        result = runner.invoke(
            main,
            ["colorings", corpus_file("biquandle_3el.json"), corpus_file("trefoil.json")],
        )
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["count"] == 9 and len(out["colorings"]) == 9

    def test_bracket_invariant(self, runner):
        result = runner.invoke(
            main,
            [
                "bracket-invariant",
                corpus_file("bracket_gf8.json"),
                corpus_file("trefoil.json"),
            ],
        )
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["multiset"] == [{"value": [0, 1, 0], "multiplicity": 2}]

    def test_bracket_value_lists_colorings(self, runner):
        result = runner.invoke(
            main,
            ["bracket-value", corpus_file("bracket_gf8.json"), corpus_file("unknot.json")],
        )
        out = json.loads(result.output)
        assert len(out["values"]) == 2
        assert all(v["value"] == out["delta"] for v in out["values"])

    def test_canonical_cocycle(self, runner):
        result = runner.invoke(main, ["canonical-cocycle", corpus_file("bracket_z9.json")])
        out = json.loads(result.output)
        assert out["order_G"] == 3 and out["G"] == [1, 4, 7]

    def test_z_invariant(self, runner):
        result = runner.invoke(
            main,
            ["z-invariant", corpus_file("bracket_gf8.json"), corpus_file("unknot.json")],
        )
        out = json.loads(result.output)
        assert out["multiset"] == [{"coset": [1, 0, 0], "multiplicity": 2}]

    def test_khovanov_pretty(self, runner):
        result = runner.invoke(main, ["khovanov", corpus_file("trefoil.json"), "--pretty"])
        assert result.exit_code == 0
        assert "torsion" in result.output

    def test_bracket_invariant_30_crossing_closure(self, runner, tmp_path):
        path = tmp_path / "closure.json"
        path.write_text(json.dumps(braid_closure(random_braid_word(random.Random(30), 4, 30), 4)))
        colorings = runner.invoke(main, ["colorings", corpus_file("biquandle_flip.json"), str(path)])
        for bracket in ("bracket_z9.json", "bracket_gf8.json"):
            result = runner.invoke(main, ["bracket-invariant", corpus_file(bracket), str(path)])
            assert result.exit_code == 0, result.output
            multiset = json.loads(result.output)["multiset"]
            assert sum(m["multiplicity"] for m in multiset) == json.loads(colorings.output)["count"]

    def test_bh(self, runner):
        result = runner.invoke(
            main, ["bh", corpus_file("bracket_const_z5.json"), corpus_file("unknot.json")]
        )
        out = json.loads(result.output)
        assert len(out["multiset"]) == 1
        assert out["multiset"][0]["multiplicity"] == 2


class TestCheckCommands:
    def test_check_theorem(self, runner):
        result = runner.invoke(
            main,
            ["check-theorem", corpus_file("bracket_z9.json"), corpus_file("trefoil.json")],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["ok"] is True

    def test_check_theorem_computes_shared_values_once(self, runner, monkeypatch):
        import bracketlab

        # check-theorem and bh each fold one Khovanov table, built by one
        # tangle scan; z-invariant builds none.
        from bracketlab import homology

        calls = {"khovanov_classical": 0}
        for name in calls:
            original = getattr(homology, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in vars(bracketlab).values():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        for command, bracket, diagram, checked, khovanov in (
            ("check-theorem", "bracket_z9.json", "trefoil_r2.json", 2, 1),
            ("check-theorem", "bracket_gf8.json", "hopf.json", 4, 1),
            ("bh", "bracket_z9.json", "trefoil_r2.json", 2, 1),
            ("z-invariant", "bracket_z9.json", "trefoil_r2.json", 2, 0),
        ):
            calls.update(dict.fromkeys(calls, 0))
            result = runner.invoke(main, [command, corpus_file(bracket), corpus_file(diagram)])
            assert result.exit_code == 0, command
            out = json.loads(result.output)
            colorings = out["checked"] if command == "check-theorem" else sum(e["multiplicity"] for e in out["multiset"])
            assert colorings == checked, command
            assert calls == {"khovanov_classical": khovanov}, command

    def test_check_euler(self, runner):
        result = runner.invoke(
            main,
            ["check-euler", corpus_file("bracket_gf8.json"), corpus_file("hopf.json")],
        )
        assert result.exit_code == 0

    def test_check_all_default_manifest(self, runner):
        result = runner.invoke(main, ["check-all"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["ok"] is True and out["total"] > 0 and not out["failed"]


class TestEmptyDiagram:
    """``{"crossings": []}``: no crossings and no free circles."""

    ONE = {"bracket_gf8": [1, 0, 0], "bracket_const_z5": 1, "bracket_const_z7": 1, "bracket_phi": [1, 0, 0, 0], "bracket_z9": 1}

    @pytest.fixture()
    def empty(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"crossings": []}))
        return str(path)

    def run(self, runner, *args):
        result = runner.invoke(main, [*args])
        assert result.exit_code == 0, result.output
        return json.loads(result.output)

    def test_khovanov_is_one_z_at_the_origin(self, runner, empty):
        assert self.run(runner, "khovanov", empty) == {"entries": [{"i": 0, "degree": 0, "rank": 1, "torsion": []}]}

    def test_one_empty_coloring(self, runner, empty):
        assert self.run(runner, "colorings", corpus_file("biquandle_3el.json"), empty) == {"count": 1, "colorings": [{}]}

    def test_bracket_value_is_the_rings_one(self, runner, empty):
        for bracket, one in self.ONE.items():
            out = self.run(runner, "bracket-value", corpus_file(f"{bracket}.json"), empty)
            assert out["values"] == [{"coloring": {}, "value": one}], bracket

    def test_z_invariant_is_the_coset_of_one(self, runner, empty):
        out = self.run(runner, "z-invariant", corpus_file("bracket_z9.json"), empty)
        assert out["multiset"] == [{"coset": 1, "multiplicity": 1}]

    def test_theorem_and_euler_identity_hold(self, runner, empty):
        for bracket in self.ONE:
            for command in ("check-theorem", "check-euler"):
                out = self.run(runner, command, corpus_file(f"{bracket}.json"), empty)
                assert out["ok"] is True and out["checked"] == 1, (command, bracket)
        report = self.run(runner, "check-euler", corpus_file("bracket_z9.json"), empty)["reports"][0]
        assert report["euler_evaluated"] == report["gdim_times_bracket"] == 3


def test_readme_synopsis_matches_the_cli():
    # The `bracketlab ...` lines of the README's sh blocks show every command
    # and, apart from --pretty, every option, and nothing else.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    shown = {}
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            words = line.split("#")[0].split()
            if words[:1] == ["bracketlab"]:
                flags = {w.strip("[]") for w in words[2:] if w.strip("[]").startswith("--")}
                shown.setdefault(words[1], set()).update(flags)
    assert set(shown) == set(main.commands)
    for name, flags in shown.items():
        params = main.commands[name].params
        options = {opt for param in params if isinstance(param, click.Option) for opt in param.opts}
        assert flags <= options, name
        assert options - {"--pretty", "--help"} <= flags, name
