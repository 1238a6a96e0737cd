"""Bundled example data and the end-to-end check-all driver.

The corpus ships the worked examples as JSON files together with
Reidemeister-equivalent diagram pairs and negative verification controls.
``check_all`` is the single entry point that re-runs every structural
guarantee over the whole corpus: axiom verification, invariance of all four
invariants across equivalent pairs, and the theorem / Euler-identity checks
on every bracket x diagram x coloring combination.  It computes each value
once: the colorings per (biquandle tables, diagram), the Khovanov complex,
its homology and chi(C) = chi(H(C)) per diagram and, through
``homology.check_colorings``, the bracket value, Z_beta coset and cube unit
u(f) per coloring.  No check builds the 2^n cube of smoothings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

from .biquandle import Biquandle, Coloring, Report, enumerate_colorings, multiset, read_biquandle
from .bracket import Bracket, read_bracket
from .cocycle import canonical_cocycle, read_cocycle, verify_cocycle
from .diagram import OrientedDiagram, parse_diagram
from .graded import cohomology
from .homology import check_colorings
from .tangle import khovanov_complex, tensor_free_circles


class ManifestEntry(NamedTuple):
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


class CorpusManifest:
    def __init__(
        self,
        diagrams: Sequence[ManifestEntry] = (),
        biquandles: Sequence[ManifestEntry] = (),
        brackets: Sequence[ManifestEntry] = (),
        cocycles: Sequence[ManifestEntry] = (),
    ):
        self.diagrams = list(diagrams)
        self.biquandles = list(biquandles)
        self.brackets = list(brackets)
        self.cocycles = list(cocycles)

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


# The bundled corpus: the JSON files and their manifest.
CORPUS = Path(__file__).with_name("corpus")


def read_json(path) -> dict:
    with open(path) as f:
        return json.load(f)


def corpus_path(filename: str) -> Path:
    return CORPUS / filename


def load_corpus_json(filename: str) -> dict:
    return read_json(CORPUS / filename)


def load_manifest(path=CORPUS / "manifest.json") -> CorpusManifest:
    """The manifest in ``path``, the bundled corpus's by default."""
    return CorpusManifest.from_json(read_json(path))


def check_all(manifest: CorpusManifest, base: Optional[str] = None) -> List[Report]:
    """Run the full corpus validation; every row must have ok=True.

    Manifest files are relative to ``base``, the bundled corpus by default.
    """
    results: List[Report] = []
    diagrams: Dict[str, OrientedDiagram] = {}
    biquandles: Dict[str, Biquandle] = {}
    brackets: Dict[str, Bracket] = {}

    def row(name: str, ok: bool, detail: str):
        results.append(Report(name, ok, [], {"detail": detail}))

    for entry in manifest.diagrams:
        diagrams[entry.name] = parse_diagram(read_json(f"{base or CORPUS}/{entry.file}"))

    # Each structure is read, and its axioms verified, by its reader, which
    # refuses a bracket or cocycle whose tables are not a biquandle.
    for label, entries, read, passed in (
        ("biquandle", manifest.biquandles, read_biquandle, biquandles),
        ("bracket", manifest.brackets, read_bracket, brackets),
        ("cocycle", manifest.cocycles, read_cocycle, {}),
    ):
        for entry in entries:
            report, structure = read(read_json(f"{base or CORPUS}/{entry.file}"))
            expected = entry.expected_verification == "pass"
            row(f"verify-{label}:{entry.name}", report.ok == expected, "" if report.ok else report.failures[0].axiom)
            if report.ok and expected:
                passed[entry.name] = structure

    pairs = [
        (e.name, e.equivalent_to) for e in manifest.diagrams if e.equivalent_to is not None
    ]

    # The colorings of each diagram, enumerated once per pair of operation
    # tables and shared by every biquandle and bracket on those tables.
    coloring_lists: Dict[tuple, List[Coloring]] = {}

    def colorings(X: Biquandle, name: str) -> List[Coloring]:
        key = X.under_table, X.over_table, name
        if key not in coloring_lists:
            coloring_lists[key] = enumerate_colorings(X, diagrams[name])
        return coloring_lists[key]

    # Invariance of the counting invariant across equivalent pairs.
    for bq_name, X in biquandles.items():
        for a, b in pairs:
            same = len(colorings(X, a)) == len(colorings(X, b))
            row(f"counting-invariance:{bq_name}:{a}~{b}", same, "")

    # One pass over every diagram x bracket x coloring.  The Khovanov complex,
    # its homology and chi(C) = chi(H(C)) are computed once per diagram.  C is
    # the complex of the crossings: free circles multiply both sides by
    # (q + q^-1)^k, which is not a zero divisor, and join the homology at the
    # table.  The pass keeps, per (bracket, diagram), the bracket, Z_beta and
    # Bh multisets and each coloring's theorem, Euler and chi(C) = chi(H(C))
    # outcomes.
    invariants, outcomes = {}, {}
    for name, D in diagrams.items() if brackets else ():
        complex_ = khovanov_complex(D)
        crossings_only = cohomology(complex_)
        same_chi = complex_.euler_characteristic() == crossings_only.euler_characteristic()
        classical = tensor_free_circles(crossings_only, D.free_circles)
        for br_name, beta in brackets.items():
            checks = check_colorings(beta, D, colorings(beta.biquandle, name), classical)
            invariants[br_name, name] = (
                multiset(c.value for c in checks),
                multiset(c.z for c in checks),
                multiset(c.bh for c in checks),
            )
            outcomes[br_name, name] = [(c.theorem, c.euler, same_chi) for c in checks]

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
    # chi(C) = chi(H(C)) on the diagram's Khovanov complex, one row each.
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
