"""Bundled example data and the end-to-end check-all driver.

The corpus ships the worked examples as JSON files together with
Reidemeister-equivalent diagram pairs and negative verification controls.
``check_all`` is the single entry point that re-runs every structural
guarantee over the whole corpus: axiom verification, invariance of all four
invariants across equivalent pairs, and the theorem / Euler-identity checks
on every bracket x diagram x coloring combination.  It computes each value
once: Khovanov homology and the direct cube's word maps per diagram and,
through ``homology.check_colorings``, the bracket value, Z_beta coset and
direct-cube Bh table per coloring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, List, Optional

from .biquandle import Biquandle, Report, counting_invariant, enumerate_colorings, multiset, verify_biquandle
from .bracket import Bracket, decode_bracket, verify_bracket
from .cocycle import canonical_cocycle, cocycle_from_json, verify_cocycle
from .diagram import OrientedDiagram, parse_diagram
from .homology import check_colorings, cube_words, khovanov_classical


@dataclass
class ManifestEntry:
    name: str
    file: str
    expected_verification: str = "pass"  # biquandles/brackets/cocycles
    equivalent_to: Optional[str] = None  # diagrams


# The keys each manifest section's entries may have.
_KEYS = {
    "diagrams": {"name", "file", "equivalent_to"},
    "biquandles": {"name", "file", "expected_verification"},
    "brackets": {"name", "file", "expected_verification"},
    "cocycles": {"name", "file", "expected_verification"},
}


@dataclass
class CorpusManifest:
    diagrams: List[ManifestEntry] = field(default_factory=list)
    biquandles: List[ManifestEntry] = field(default_factory=list)
    brackets: List[ManifestEntry] = field(default_factory=list)
    cocycles: List[ManifestEntry] = field(default_factory=list)

    @classmethod
    def from_json(cls, data) -> "CorpusManifest":
        """The manifest in ``data``; ``ValueError`` unless every section, key and value is known.

        Names are unique within a section, ``expected_verification`` is
        "pass" or "fail", and ``equivalent_to`` names a diagram.
        """
        if not isinstance(data, dict):
            raise ValueError("a manifest must be a JSON object")
        unknown = sorted(set(data) - set(_KEYS))
        if unknown:
            raise ValueError(f"unknown manifest sections {unknown}")
        sections = {}
        for section, keys in _KEYS.items():
            entries = data.get(section, [])
            if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
                raise ValueError(f"{section} must be a list of objects")
            names = set()
            for e in entries:
                if not {"name", "file"} <= set(e) <= keys:
                    raise ValueError(f"{section} entry {e} must have name and file, and only keys {sorted(keys)}")
                if e.get("expected_verification", "pass") not in ("pass", "fail"):
                    raise ValueError(f"{section} entry {e['name']!r}: expected_verification must be pass or fail")
                if e["name"] in names:
                    raise ValueError(f"{section}: two entries named {e['name']!r}")
                names.add(e["name"])
            sections[section] = [ManifestEntry(**e) for e in entries]
        diagrams = {e.name for e in sections["diagrams"]}
        for e in sections["diagrams"]:
            if e.equivalent_to is not None and e.equivalent_to not in diagrams:
                raise ValueError(f"diagram {e.name!r} is equivalent_to {e.equivalent_to!r}, which is not listed")
        return cls(**sections)


def corpus_path(filename: str):
    return resources.files("bracketlab").joinpath("corpus", filename)


def load_corpus_json(filename: str) -> dict:
    with corpus_path(filename).open() as f:
        return json.load(f)


def default_manifest() -> CorpusManifest:
    return CorpusManifest.from_json(load_corpus_json("manifest.json"))


def load_manifest(path: Optional[str] = None) -> CorpusManifest:
    if path is None:
        return default_manifest()
    with open(path) as f:
        return CorpusManifest.from_json(json.load(f))


def _read(entry: ManifestEntry, base: Optional[str]) -> dict:
    if base is None:
        return load_corpus_json(entry.file)
    with open(f"{base}/{entry.file}") as f:
        return json.load(f)


def check_all(manifest: CorpusManifest, base: Optional[str] = None) -> List[Report]:
    """Run the full corpus validation; every row must have ok=True."""
    results: List[Report] = []
    diagrams: Dict[str, OrientedDiagram] = {}
    biquandles: Dict[str, Biquandle] = {}
    brackets: Dict[str, Bracket] = {}

    def row(name: str, ok: bool, detail: str):
        results.append(Report(name, ok, [], {"detail": detail}))

    for entry in manifest.diagrams:
        diagrams[entry.name] = parse_diagram(_read(entry, base))

    for entry in manifest.biquandles:
        data = _read(entry, base)
        report = verify_biquandle(data["under"], data["over"])
        expected = entry.expected_verification == "pass"
        row(f"verify-biquandle:{entry.name}", report.ok == expected, "" if report.ok else report.failures[0].axiom)
        if report.ok and expected:
            biquandles[entry.name] = Biquandle(data["under"], data["over"], check=False)

    for entry in manifest.brackets:
        X, ring, A, B = decode_bracket(_read(entry, base))
        report = verify_bracket(X, ring, A, B)
        expected = entry.expected_verification == "pass"
        row(f"verify-bracket:{entry.name}", report.ok == expected, "" if report.ok else report.failures[0].axiom)
        if report.ok and expected:
            brackets[entry.name] = Bracket(X, ring, A, B, check=False)

    for entry in manifest.cocycles:
        cocycle = cocycle_from_json(_read(entry, base), check=False)
        expected = entry.expected_verification == "pass"
        row(f"verify-cocycle:{entry.name}", verify_cocycle(cocycle).ok == expected, "")

    pairs = [
        (e.name, e.equivalent_to) for e in manifest.diagrams if e.equivalent_to is not None
    ]

    # Invariance of the counting invariant across equivalent pairs.
    for bq_name, X in biquandles.items():
        for a, b in pairs:
            same = counting_invariant(X, diagrams[a]) == counting_invariant(X, diagrams[b])
            row(f"counting-invariance:{bq_name}:{a}~{b}", same, "")

    # One pass over every diagram x bracket x coloring.  Khovanov homology and
    # the cube's word maps are built once per diagram.  The pass keeps, per
    # (bracket, diagram), the bracket, Z_beta and Bh multisets and each
    # coloring's theorem, Euler and chi(C) = chi(H(C)) outcomes.
    invariants, outcomes = {}, {}
    for name, D in diagrams.items() if brackets else ():
        classical, words = khovanov_classical(D), cube_words(D)
        for br_name, beta in brackets.items():
            colorings = enumerate_colorings(beta.biquandle, D)
            checks = check_colorings(beta, D, colorings, classical, words)
            invariants[br_name, name] = (
                multiset(c.value for c in checks),
                multiset(c.z for c in checks),
                multiset(c.bh for c in checks),
            )
            outcomes[br_name, name] = [(c.theorem.ok, c.euler.ok, c.euler_complex) for c in checks]

    # Invariance of the bracket, Z_beta, and Bh multisets across pairs.
    for br_name in brackets:
        for a, b in pairs:
            for kind, ms_a, ms_b in zip(("bracket", "z", "bh"), invariants[br_name, a], invariants[br_name, b]):
                row(f"{kind}-invariance:{br_name}:{a}~{b}", ms_a == ms_b, "")

    # Canonical cocycle of every bracket verifies.
    for br_name, beta in brackets.items():
        phi = canonical_cocycle(beta)
        row(f"canonical-cocycle:{br_name}", verify_cocycle(phi).ok, "")

    # Theorem and Euler identity on every bracket x diagram x coloring, and
    # chi(C) = chi(H(C)) on the built complex.
    for br_name in brackets:
        for name in diagrams:
            for idx, oks in enumerate(outcomes[br_name, name]):
                for kind, ok in zip(("theorem", "euler", "euler-complex"), oks):
                    row(f"{kind}:{br_name}:{name}:{idx}", ok, "")
    return results


def report_to_json(results: List[Report]) -> dict:
    rows = [{"check": r.name, **r.to_json()} for r in results]
    return {
        "ok": all(r.ok for r in results),
        "total": len(results),
        "failed": [row for row in rows if not row["ok"]],
        "checks": rows,
    }
