import json

from bracketlab.corpus import (
    CorpusManifest,
    check_all,
    load_corpus_json,
    load_manifest,
    report_to_json,
)


class TestManifest:
    def test_default_manifest_shape(self):
        m = load_manifest()
        assert {e.name for e in m.diagrams} >= {"unknot", "trefoil", "hopf", "figure_eight"}
        equivalents = {e.name: e.equivalent_to for e in m.diagrams if e.equivalent_to}
        assert equivalents["trefoil_r1"] == "trefoil"
        assert equivalents["hopf_r2"] == "hopf"

    def test_negative_controls_marked(self):
        m = load_manifest()
        expected_fail = {
            e.name
            for section in (m.biquandles, m.brackets, m.cocycles)
            for e in section
            if e.expected_verification == "fail"
        }
        assert expected_fail == {"threeel_broken", "gf8_broken", "ab_broken"}

    def test_all_files_parse(self):
        m = load_manifest()
        for section in (m.diagrams, m.biquandles, m.brackets, m.cocycles):
            for entry in section:
                assert load_corpus_json(entry.file)

    def test_empty_manifest(self):
        empty = CorpusManifest.from_json(
            {"diagrams": [], "biquandles": [], "brackets": [], "cocycles": []}
        )
        results = check_all(empty)
        report = report_to_json(results)
        assert report == {"ok": True, "total": 0, "failed": [], "checks": []}

    def test_report_serializes(self):
        results = check_all(
            CorpusManifest.from_json(
                {
                    "diagrams": [{"name": "unknot", "file": "unknot.json"}],
                    "biquandles": [
                        {
                            "name": "flip",
                            "file": "biquandle_flip.json",
                            "expected_verification": "pass",
                        }
                    ],
                    "brackets": [],
                    "cocycles": [],
                }
            )
        )
        report = report_to_json(results)
        assert report["ok"] is True
        json.dumps(report)  # fully JSON-serializable


def test_negative_control_rows_name_their_first_failing_axiom():
    details = {r.name: r.details["detail"] for r in check_all(load_manifest()) if r.name.startswith("verify-")}
    broken = {name: detail for name, detail in details.items() if name.endswith("_broken")}
    assert broken == {
        "verify-biquandle:threeel_broken": "i",
        "verify-bracket:gf8_broken": "i",
        "verify-cocycle:ab_broken": "i",
    }
    assert all(detail == "" for name, detail in details.items() if name not in broken)


def test_check_all_builds_each_complex_once(monkeypatch):
    # One Khovanov complex per diagram, by the tangle scan, shared by the 5
    # brackets and reduced once; no check builds a cube of smoothings.
    from bracketlab import corpus

    calls = []
    original = corpus.khovanov_complex

    def counted(D):
        calls.append(D)
        return original(D)

    monkeypatch.setattr(corpus, "khovanov_complex", counted)
    report = report_to_json(check_all(load_manifest()))
    assert report["ok"] and report["total"] == 478
    assert len(calls) == len({id(D) for D in calls}) == 10


def test_check_all_enumerates_colorings_once_per_tables_and_diagram(monkeypatch):
    # The counting rows and every bracket on the same operation tables share
    # one coloring list per diagram: 19 distinct (tables, diagram) pairs on
    # the default manifest, where recounting per row and per bracket made 74.
    import bracketlab
    from bracketlab import biquandle

    calls = []
    original = biquandle.enumerate_colorings

    def counted(X, D):
        calls.append((X.under_table, X.over_table, D))
        return original(X, D)

    for module in vars(bracketlab).values():
        if getattr(module, "enumerate_colorings", None) is original:
            monkeypatch.setattr(module, "enumerate_colorings", counted)
    assert report_to_json(check_all(load_manifest()))["ok"]
    assert len(calls) == 19
    assert len({(under, over, id(D)) for under, over, D in calls}) == 19


def test_canonical_cocycle_row_fails_on_a_bad_cocycle(monkeypatch):
    # check_all is the one place that verifies the canonical cocycle.
    from bracketlab import corpus
    from bracketlab.cocycle import Cocycle
    from bracketlab.rings import Coset

    original = corpus.canonical_cocycle

    def moved_off_identity(beta):
        good = original(beta)
        off = next(c for c in (Coset(beta.G, u) for u in beta.ring.units()) if c != good.target.identity)
        phi = [list(row) for row in good.phi]
        phi[0][0] = off  # breaks phi(x, x) = 1
        return Cocycle(beta.biquandle, good.target, phi)

    monkeypatch.setattr(corpus, "canonical_cocycle", moved_off_identity)
    manifest = CorpusManifest.from_json({
        "diagrams": [{"name": "unknot", "file": "unknot.json"}],
        "brackets": [{"name": name, "file": f"{name}.json"} for name in ("bracket_z9", "bracket_gf8")],
    })
    rows = {r.name: r.ok for r in check_all(manifest)}
    assert rows["canonical-cocycle:bracket_z9"] is False
    assert rows["canonical-cocycle:bracket_gf8"] is False
    assert all(ok for name, ok in rows.items() if not name.startswith("canonical-cocycle:"))


def test_check_all_folds_khovanov_once_per_coset(monkeypatch):
    # Each check_colorings call folds its Khovanov table once per Z_beta
    # coset: 54 distinct (call, coset) pairs on the default manifest, where
    # one fold per coloring made 120.
    from bracketlab import homology

    calls = []
    original = homology.fold_khovanov

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(homology, "fold_khovanov", counted)
    assert report_to_json(check_all(load_manifest()))["ok"]
    assert len(calls) == 54
