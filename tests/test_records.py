"""The semantics of the package's record classes, which are plain classes and named tuples."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from bracketlab.biquandle import AxiomFailure
from bracketlab.corpus import CorpusManifest, ManifestEntry
from bracketlab.diagram import CrossingRecord
from bracketlab.graded import HomologyTable
from bracketlab.rings import Coset, PolyQuotientRing, UnitSubgroup, ZModRing, subgroup_generate

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_homology_table_compares_hashes_and_orders_by_entries_alone():
    low, high = (((0, 1), 1, ()),), (((0, 3), 1, (2,)),)
    plain, over_z5 = HomologyTable(None, low), HomologyTable(ZModRing(5), low)
    assert plain == over_z5 and hash(plain) == hash(over_z5)
    assert not plain < over_z5 and plain <= over_z5 and plain >= over_z5
    top = HomologyTable(ZModRing(7), high)
    assert plain != top and over_z5 < top and top > plain and top >= over_z5 and plain <= top
    assert sorted([top, over_z5]) == [plain, top]
    assert plain != low


def test_unit_subgroup_equals_by_ring_and_elements():
    z9 = ZModRing(9)
    g = subgroup_generate(z9, [7])
    same = UnitSubgroup(ZModRing(9), frozenset({1, 4, 7}))
    assert g == same and hash(g) == hash(same)
    assert g != UnitSubgroup(z9, frozenset({1, 8}))
    trivial = UnitSubgroup(ZModRing(5), frozenset({1}))
    assert trivial != UnitSubgroup(ZModRing(7), frozenset({1}))
    assert trivial != frozenset({1})


def test_rings_equal_and_hash_by_their_descriptor():
    # A trailing zero coefficient does not change the modulus t^3 + t + 1.
    gf8, padded = PolyQuotientRing(2, [1, 1, 0, 1]), PolyQuotientRing(2, [1, 1, 0, 1, 0])
    assert gf8 == padded and hash(gf8) == hash(padded)
    assert gf8 != PolyQuotientRing(2, [1, 0, 1, 1]) and gf8 != PolyQuotientRing(3, [1, 1, 0, 1])
    assert ZModRing(5) == ZModRing(5) and hash(ZModRing(5)) == hash(ZModRing(5)) and ZModRing(5) != ZModRing(7)
    assert ZModRing(2) != PolyQuotientRing(2, [0, 1]) and PolyQuotientRing(2, [0, 1]) != ZModRing(2)
    assert ZModRing(2) != {"kind": "zmod", "n": 2}


def test_coset_equality_hash_and_order():
    z9 = ZModRing(9)
    g = subgroup_generate(z9, [7])  # {1, 4, 7}
    also_g = subgroup_generate(z9, [4])
    assert g is not also_g
    a, b, c = Coset(g, 4), Coset(also_g, 7), Coset(g, 2)
    assert a.representative == 4 and a.canonical == 1 and c.canonical == 2
    # Equal when the subgroups' elements and the canonical forms match.
    assert a == b and hash(a) == hash(b) == hash(1)
    assert a != c
    minus_one = Coset(UnitSubgroup(z9, frozenset({1, 8})), 1)
    assert minus_one.canonical == a.canonical and minus_one != a
    # Ordered by the canonical form.
    assert a < c and not c < a
    assert sorted([c, b, a]) == [a, a, c]
    assert a.mul(c) == Coset(g, 8) and c.inv() == Coset(g, 5)


def test_record_keywords_and_defaults():
    crossing = CrossingRecord(sign=-1, under_in=1, over_in=2, under_out=3, over_out=4)
    assert crossing == CrossingRecord(-1, 1, 2, 3, 4) and crossing.over_out == 4
    assert crossing.to_json() == {"sign": -1, "under_in": 1, "over_in": 2, "under_out": 3, "over_out": 4}
    failure = AxiomFailure(axiom="iii.1", witness=(1, 2, 3))
    assert failure.detail == "" and failure == AxiomFailure("iii.1", (1, 2, 3), "")
    assert failure.to_json() == {"axiom": "iii.1", "witness": [1, 2, 3], "detail": ""}
    entry = ManifestEntry(name="trefoil", file="trefoil.json")
    assert entry.expected_verification == "pass" and entry.equivalent_to is None
    assert ManifestEntry(**{"name": "r1", "file": "r1.json", "equivalent_to": "trefoil"}).equivalent_to == "trefoil"
    for record in (crossing, failure, entry):
        with pytest.raises(AttributeError):
            record.name = "changed"
    manifest = CorpusManifest(diagrams=[entry])
    assert manifest.diagrams == [entry] and manifest.biquandles == manifest.brackets == manifest.cocycles == []


def test_tracer_patch_points_are_in_the_class_dict():
    # bench/tracer.py wraps these through the class __dict__: a property, or a plain function.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.METHODS
    for layer, classes in tracer.METHODS.items():
        module = importlib.import_module(f"bracketlab.{layer}")
        for cls_name, attrs in classes.items():
            cls = getattr(module, cls_name)
            for attr in attrs:
                raw = cls.__dict__[attr]
                assert isinstance(raw, property) or inspect.isfunction(raw), (cls_name, attr)
    assert isinstance(Coset.__dict__["canonical"], property)
