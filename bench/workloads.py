"""The benchmark's three workloads: inputs, the timed computation, and checks.

Each workload's ``setup(seed)`` builds its inputs once (that is what
``setup_s`` times, together with importing bracketlab) and returns a list
of ``Item``s.  An item's ``build`` makes fresh inputs from JSON text for
every timed repetition, so nothing memoised in one repetition can make a
later one look free; ``compute`` is the timed call into bracketlab;
``check`` compares its output with answers computed apart from the program
and returns a list of problems (empty when correct).
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List

from bracketlab import (
    Biquandle,
    bracket_from_json,
    bracket_invariant,
    cocycle_from_json,
    cocycle_invariant,
    counting_invariant,
    khovanov_classical,
    parse_diagram,
    z_invariant_multiset,
)
from bracketlab.corpus import check_all, corpus_path, load_manifest, report_to_json

import braids
import oracles

HERE = Path(__file__).resolve().parent


@dataclass
class Item:
    name: str
    build: Callable[[], Any]
    compute: Callable[[Any, Any], Any]  # (inputs, tracer) -> output
    check: Callable[[Any], List[str]]


def relabelled(diagram: dict, rng: random.Random) -> str:
    """The same diagram as JSON text with seeded edge labels, in the same order.

    Edge labels are arbitrary positive integers in the format.  Keeping
    their order keeps bracketlab's circle and basis order, so a seed
    changes the input text but not the amount of work.
    """
    labels = sorted({c[k] for c in diagram["crossings"] for k in ("under_in", "over_in", "under_out", "over_out")})
    rename = dict(zip(labels, sorted(rng.sample(range(1, 4 * len(labels) + 1), len(labels)))))
    crossings = [{k: (v if k == "sign" else rename[v]) for k, v in c.items()} for c in diagram["crossings"]]
    return json.dumps({"crossings": crossings, "free_circles": diagram["free_circles"]})


def _same_table(got: dict, want: dict, what: str) -> List[str]:
    return [] if got == want else [f"{what}: got {sorted(got.items())}, want {sorted(want.items())}"]


# ---------------------------------------------------------------------------
# khovanov: classical Khovanov homology of small braid closures

TORUS_N = (3, 4, 5, 6)
# Seeded 3-strand words are short next to T(2,6) and its mirror, which take
# most of the round, so the workload's size hardly moves with the seed.
KH_SEEDED_WORDS = 3
KH_SEEDED_LENGTH = 4


def seeded_word(rng: random.Random) -> List[int]:
    """A 3-strand word that uses both generators, so its closure is not split."""
    while True:
        word = braids.random_word(rng, 3, KH_SEEDED_LENGTH)
        if {abs(x) for x in word} == {1, 2}:
            return word


def _khovanov_items(name: str, word: List[int], strands: int, rng, expected=None) -> List[Item]:
    """Khovanov homology of a closed braid, and of its mirror image as the next item.

    The mirror's check compares with the word's table from the same round.
    """
    mirrored = braids.mirror(word)
    last = {}

    def item(label, w, check_more):
        text = relabelled(braids.closure(w, strands), rng)
        oracle = {}

        def build():
            return parse_diagram(json.loads(text))

        def compute(diagram, tracer):
            return khovanov_classical(diagram).as_dict()

        def check(table):
            if not oracle:
                oracle["euler"] = oracles.kauffman_euler(w, strands)
            problems = []
            if oracles.euler_of_table(table) != oracle["euler"]:
                problems.append(f"{label}: Euler characteristic != Kauffman state sum")
            return problems + check_more(table)

        return Item(label, build, compute, check)

    def check_word(table):
        last["table"] = table
        return [] if expected is None else _same_table(table, expected, f"{name} closed form")

    def check_mirror(table):
        if "table" not in last:
            return [f"{name}: no table for the word to compare the mirror with"]
        return _same_table(table, oracles.mirror_table(last["table"]), f"{name} mirror duality")

    return [item(name, word, check_word), item(f"mirror {name}", mirrored, check_mirror)]


def khovanov_setup(seed: int) -> List[Item]:
    rng = random.Random(seed)
    items = []
    for n in TORUS_N:
        items += _khovanov_items(f"T(2,{n})", [1] * n, 2, rng, oracles.torus_2_khovanov(n))
    for k in range(KH_SEEDED_WORDS):
        word = seeded_word(rng)
        items += _khovanov_items(f"w{k}:{' '.join(map(str, word))}", word, 3, rng)
    for item in items:
        item.build()
    return items


def khovanov_self_test() -> List[str]:
    """The braid generator must give the bundled trefoil's Khovanov table for sigma_1^3."""
    from bracketlab.corpus import load_corpus_json

    want = khovanov_classical(parse_diagram(load_corpus_json("trefoil.json"))).as_dict()
    got = khovanov_classical(parse_diagram(braids.closure([1, 1, 1], 2))).as_dict()
    return [] if got == want else ["closure of sigma_1^3 is not the bundled trefoil"]


# ---------------------------------------------------------------------------
# invariant_sums: counting, bracket, cocycle and Z multisets on 10-12 crossings

BRACKET_FILES = {
    "gf8": "bracket_gf8.json",
    "phi": "bracket_phi.json",
    "z9": "bracket_z9.json",
    "const": "bracket_const_z5.json",
}
BIQUANDLE_FILES = {"flip": "biquandle_flip.json", "threeel": "biquandle_3el.json"}
COCYCLE_FILE = "cocycle_ab.json"
# Each base word is a 10-crossing 3-strand knot with exactly 5 negative
# letters, so the state count, coloring count and number of inversions per
# state are the same for every seed.  The move fixes the partner's size:
# conjugation keeps 10 crossings, stabilisation gives 11, an inserted
# sigma_i sigma_i^-1 gives 12.  The poly-quotient brackets run only where
# the round stays short enough to repeat.
BASE_LENGTH = 10
BASE_NEGATIVE = 5
PAIRS = (
    ("conjugate", ("gf8", "phi", "z9", "const")),
    ("stabilise", ("gf8", "z9", "const")),
    ("cancel", ("z9", "const")),
)


def base_word(rng: random.Random) -> List[int]:
    while True:
        signs = [-1] * BASE_NEGATIVE + [1] * (BASE_LENGTH - BASE_NEGATIVE)
        rng.shuffle(signs)
        word = [s * rng.randint(1, 2) for s in signs]
        if braids.components(word, 3) == 1:
            return word


def partner(move: str, word: List[int], strands: int, rng: random.Random):
    if move == "conjugate":
        return braids.conjugate(word, rng.randint(1, len(word) - 1)), strands
    if move == "stabilise":
        return braids.stabilise(word, strands, 1)
    return braids.insert_cancelling(word, rng.randint(0, len(word)), rng.randint(1, strands - 1)), strands


def _read_corpus_text(filename: str) -> str:
    return corpus_path(filename).read_text()


def invariant_sums_setup(seed: int) -> List[Item]:
    rng = random.Random(seed)
    texts = {name: _read_corpus_text(f) for name, f in {**BRACKET_FILES, **BIQUANDLE_FILES}.items()}
    texts["ab"] = _read_corpus_text(COCYCLE_FILE)
    tables = {name: json.loads(texts[name]) for name in BIQUANDLE_FILES}
    items: List[Item] = []
    for move, bracket_names in PAIRS:
        word = base_word(rng)
        other, other_strands = partner(move, word, 3, rng)
        sides = [(word, 3), (other, other_strands)]
        diagram_texts = [relabelled(braids.closure(w, m), rng) for w, m in sides]
        label = f"{move}[{' '.join(map(str, word))}]"
        invariants = [("counting", "flip"), ("counting", "threeel"), ("cocycle", "ab")]
        invariants += [(kind, b) for b in bracket_names for kind in ("bracket", "z")]
        for kind, obj in invariants:
            items.append(_invariant_item(f"{kind}:{obj}:{label}", kind, obj, texts, diagram_texts, sides, tables))
    for item in items:
        item.build()
    return items


def _invariant_item(name, kind, obj, texts, diagram_texts, sides, tables) -> Item:
    biquandle = obj if kind == "counting" else "flip"
    under, over = tables[biquandle]["under"], tables[biquandle]["over"]
    smallest = name.startswith("counting:flip:conjugate")

    def build():
        data = json.loads(texts[obj])
        if kind == "counting":
            structure = Biquandle.from_json(data)
        elif kind == "cocycle":
            structure = cocycle_from_json(data)
        else:
            structure = bracket_from_json(data)
        return structure, [parse_diagram(json.loads(t)) for t in diagram_texts]

    def compute(inputs, tracer):
        structure, diagrams = inputs
        if kind == "counting":
            return [counting_invariant(structure, D) for D in diagrams]
        if kind == "cocycle":
            return [cocycle_invariant(structure, D) for D in diagrams]
        if kind == "bracket":
            return [bracket_invariant(structure, D) for D in diagrams]
        return [z_invariant_multiset(structure, D) for D in diagrams]

    oracle = {}

    def check(values):
        if not oracle:
            oracle["count"] = [oracles.braid_colorings(w, m, under, over) for w, m in sides]
            if smallest:
                oracle["brute"] = oracles.brute_force_colorings(json.loads(diagram_texts[0]), under, over)
        problems = []
        if values[0] != values[1]:
            problems.append(f"{name}: differs across the Markov pair")
        totals = values if kind == "counting" else [oracles.multiplicity_total(v) for v in values]
        if totals != oracle["count"]:
            problems.append(f"{name}: coloring counts {totals}, closed-braid count {oracle['count']}")
        if smallest and values[0] != oracle["brute"]:
            problems.append(f"{name}: {values[0]} colorings, brute force {oracle['brute']}")
        return problems

    return Item(name, build, compute, check)


# ---------------------------------------------------------------------------
# check_all: corpus.check_all on manifests kept beside this file

MANIFESTS = ("controls", "z9", "z9_hopf")


def expected_check_count(manifest: dict) -> int:
    """How many checks check_all must report, counted from the manifest alone."""
    corpus = lambda f: json.loads(_read_corpus_text(f))
    passing = lambda section: [e for e in manifest[section] if e.get("expected_verification", "pass") == "pass"]
    diagrams = {e["name"]: corpus(e["file"]) for e in manifest["diagrams"]}
    pairs = sum(1 for e in manifest["diagrams"] if e.get("equivalent_to"))
    verify = sum(len(manifest[s]) for s in ("biquandles", "brackets", "cocycles"))
    brackets = [corpus(e["file"]) for e in passing("brackets")]
    colorings = sum(
        oracles.brute_force_colorings(D, b["biquandle"]["under"], b["biquandle"]["over"])
        for b in brackets for D in diagrams.values()
    )
    return verify + len(passing("biquandles")) * pairs + 3 * len(brackets) * pairs + len(brackets) + 3 * colorings


def _check_all_item(name: str) -> Item:
    path = HERE / "manifests" / f"{name}.json"
    base = str(corpus_path(""))
    manifest_json = json.loads(path.read_text())
    controls = [
        f"verify-{section[:-1]}:{e['name']}"
        for section in ("biquandles", "brackets", "cocycles")
        for e in manifest_json[section]
        if e.get("expected_verification") == "fail"
    ]

    def build():
        return load_manifest(str(path))

    def compute(manifest, tracer):
        report = report_to_json(check_all(manifest, base))
        with tracer.span("cli.json") if tracer else nullcontext():
            text = json.dumps(report, indent=2, default=str)
        if tracer:
            tracer.count("cli.json_bytes", len(text.encode()))
        return report

    oracle = {}

    def check(report):
        if not oracle:
            oracle["total"] = expected_check_count(manifest_json)
        problems = []
        if not report["ok"]:
            problems.append(f"{name}: failed checks {[c['check'] for c in report['failed']]}")
        if report["total"] != oracle["total"]:
            problems.append(f"{name}: {report['total']} checks, expected {oracle['total']}")
        passed = {c["check"] for c in report["checks"] if c["ok"]}
        problems += [f"{name}: broken control {c} missing or failed" for c in controls if c not in passed]
        return problems

    return Item(f"check_all:{name}", build, compute, check)


def check_all_setup(seed: int) -> List[Item]:
    """The corpus is fixed, so the seed selects nothing here."""
    items = [_check_all_item(name) for name in MANIFESTS]
    for item in items:
        item.build()
    return items


WORKLOADS = {
    "khovanov": khovanov_setup,
    "invariant_sums": invariant_sums_setup,
    "check_all": check_all_setup,
}
