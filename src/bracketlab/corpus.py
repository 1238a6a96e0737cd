"""Bundled example data and the end-to-end check-all driver.

The corpus ships the worked examples as JSON files together with
Reidemeister-equivalent diagram pairs and negative verification controls.
``check_all`` is the single entry point that re-runs every structural
guarantee over the whole corpus: axiom verification, invariance of all four
invariants across equivalent pairs, and the theorem / Euler-identity checks
on every bracket x diagram x coloring combination.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, List, Optional

from .biquandle import Biquandle, counting_invariant, enumerate_colorings, verify_biquandle
from .bracket import Bracket, bracket_invariant, decode_bracket, verify_bracket
from .cocycle import (
    canonical_cocycle,
    cocycle_from_json,
    verify_cocycle,
    z_invariant_multiset,
)
from .diagram import OrientedDiagram, parse_diagram
from .graded import cohomology
from .homology import (
    bh_multiset,
    build_complex,
    check_euler_identity,
    check_theorem,
)


@dataclass
class ManifestEntry:
    name: str
    file: str
    expected_verification: str = "pass"  # biquandles/brackets/cocycles
    equivalent_to: Optional[str] = None  # diagrams


@dataclass
class CorpusManifest:
    diagrams: List[ManifestEntry] = field(default_factory=list)
    biquandles: List[ManifestEntry] = field(default_factory=list)
    brackets: List[ManifestEntry] = field(default_factory=list)
    cocycles: List[ManifestEntry] = field(default_factory=list)

    @classmethod
    def from_json(cls, data: dict) -> "CorpusManifest":
        def entries(key):
            return [
                ManifestEntry(
                    name=e["name"],
                    file=e["file"],
                    expected_verification=e.get("expected_verification", "pass"),
                    equivalent_to=e.get("equivalent_to"),
                )
                for e in data.get(key, [])
            ]

        return cls(
            diagrams=entries("diagrams"),
            biquandles=entries("biquandles"),
            brackets=entries("brackets"),
            cocycles=entries("cocycles"),
        )


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


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def to_json(self):
        return {"check": self.name, "ok": self.ok, "detail": self.detail}


def check_all(manifest: CorpusManifest, base: Optional[str] = None) -> List[CheckResult]:
    """Run the full corpus validation; every CheckResult must have ok=True."""
    results: List[CheckResult] = []
    diagrams: Dict[str, OrientedDiagram] = {}
    biquandles: Dict[str, Biquandle] = {}
    brackets: Dict[str, Bracket] = {}

    for entry in manifest.diagrams:
        diagrams[entry.name] = parse_diagram(_read(entry, base))

    for entry in manifest.biquandles:
        data = _read(entry, base)
        report = verify_biquandle(data["under"], data["over"])
        expected = entry.expected_verification == "pass"
        results.append(
            CheckResult(
                f"verify-biquandle:{entry.name}",
                report.ok == expected,
                "" if report.ok else report.failures[0].axiom,
            )
        )
        if report.ok and expected:
            biquandles[entry.name] = Biquandle(data["under"], data["over"], check=False)

    for entry in manifest.brackets:
        X, ring, A, B = decode_bracket(_read(entry, base))
        report = verify_bracket(X, ring, A, B)
        expected = entry.expected_verification == "pass"
        results.append(
            CheckResult(
                f"verify-bracket:{entry.name}",
                report.ok == expected,
                "" if report.ok else report.failures[0].axiom,
            )
        )
        if report.ok and expected:
            brackets[entry.name] = Bracket(X, ring, A, B, check=False)

    for entry in manifest.cocycles:
        data = _read(entry, base)
        expected = entry.expected_verification == "pass"
        try:
            cocycle = cocycle_from_json(data, check=False)
            report = verify_cocycle(cocycle)
            ok = report.ok
        except ValueError:
            ok = False
        results.append(CheckResult(f"verify-cocycle:{entry.name}", ok == expected))

    pairs = [
        (e.name, e.equivalent_to) for e in manifest.diagrams if e.equivalent_to is not None
    ]

    # Invariance of the counting invariant across equivalent pairs.
    for bq_name, X in biquandles.items():
        for a, b in pairs:
            same = counting_invariant(X, diagrams[a]) == counting_invariant(X, diagrams[b])
            results.append(CheckResult(f"counting-invariance:{bq_name}:{a}~{b}", same))

    # Invariance of the bracket, Z_beta, and Bh multisets across pairs.
    for br_name, beta in brackets.items():
        for a, b in pairs:
            Da, Db = diagrams[a], diagrams[b]
            same = bracket_invariant(beta, Da) == bracket_invariant(beta, Db)
            results.append(CheckResult(f"bracket-invariance:{br_name}:{a}~{b}", same))
            same = z_invariant_multiset(beta, Da) == z_invariant_multiset(beta, Db)
            results.append(CheckResult(f"z-invariance:{br_name}:{a}~{b}", same))
            same = bh_multiset(beta, Da) == bh_multiset(beta, Db)
            results.append(CheckResult(f"bh-invariance:{br_name}:{a}~{b}", same))

    # Canonical cocycle of every bracket verifies.
    for br_name, beta in brackets.items():
        _, phi = canonical_cocycle(beta)
        results.append(CheckResult(f"canonical-cocycle:{br_name}", verify_cocycle(phi).ok))

    # Theorem and Euler identity on every bracket x diagram x coloring.
    for br_name, beta in brackets.items():
        for name, D in diagrams.items():
            for idx, f in enumerate(enumerate_colorings(beta.biquandle, D)):
                results.append(
                    CheckResult(f"theorem:{br_name}:{name}:{idx}", check_theorem(beta, f).ok)
                )
                results.append(
                    CheckResult(f"euler:{br_name}:{name}:{idx}", check_euler_identity(beta, f).ok)
                )
                # chi(C) = chi(H(C)) on the built complex.
                c = build_complex(beta, f)
                chi_c = c.euler_characteristic()
                chi_h = cohomology(c).euler_characteristic()
                results.append(
                    CheckResult(f"euler-complex:{br_name}:{name}:{idx}", chi_c == chi_h)
                )
    return results


def report_to_json(results: List[CheckResult]) -> dict:
    return {
        "ok": all(r.ok for r in results),
        "total": len(results),
        "failed": [r.to_json() for r in results if not r.ok],
        "checks": [r.to_json() for r in results],
    }
