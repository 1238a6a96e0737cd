import random

import pytest

from bracketlab.biquandle import (
    Biquandle,
    counting_invariant,
    enumerate_colorings,
    read_biquandle,
    verify_biquandle,
)
from bracketlab.corpus import load_corpus_json
from bracketlab.diagram import DiagramError, parse_diagram
from conftest import braid_closure, brute_force_colorings, kink_chain, random_braid_word

# Dihedral quandle R_3: x under y = 2y - x (mod 3), x over y = x.
R3_UNDER = [[1, 3, 2], [3, 2, 1], [2, 1, 3]]
R3_OVER = [[1, 1, 1], [2, 2, 2], [3, 3, 3]]


class TestVerify:
    def test_flip_passes(self, flip):
        report = verify_biquandle(flip)
        assert report.ok

    def test_threeel_passes(self, threeel):
        report = verify_biquandle(threeel)
        assert report.ok

    def test_dihedral_quandle_passes(self):
        assert verify_biquandle(Biquandle(R3_UNDER, R3_OVER)).ok

    def test_broken_tables_fail_with_witness(self):
        report, X = read_biquandle(load_corpus_json("biquandle_3el_broken.json"))
        assert not report.ok and X is None
        diag = [f for f in report.failures if f.axiom == "i"]
        assert diag and diag[0].witness == (1,)

    def test_noninvertible_column_fails(self):
        under = [[1, 1], [1, 2]]  # column 1 is not a permutation
        report = verify_biquandle(Biquandle(under, [[1, 1], [2, 2]]))
        assert not report.ok
        assert any(f.axiom.startswith("ii") for f in report.failures)

    def test_exchange_law_violation_detected(self):
        # Constant under, identity over: satisfies (i) only on the diagonal
        # and breaks the exchange laws.
        under = [[2, 2, 2], [3, 3, 3], [1, 1, 1]]
        over = [[1, 1, 1], [2, 2, 2], [3, 3, 3]]
        report = verify_biquandle(Biquandle(under, over))
        assert not report.ok

    def test_axiom_iii3_failure_has_its_witness(self):
        under, over = [[1, 1], [1, 1]], [[1, 1], [1, 2]]
        X = Biquandle(under, over)
        report = verify_biquandle(X)
        assert {f.axiom for f in report.failures} == {"i", "ii", "iii.3"}
        (failure,) = [f for f in report.failures if f.axiom == "iii.3"]
        x, y, z = failure.witness
        assert X.over(X.over(x, y), X.over(z, y)) != X.over(X.over(x, z), X.under(y, z))

    def test_reader_verifies(self):
        tables = {"under": [[1, 1], [1, 2]], "over": [[1, 1], [2, 2]]}
        with pytest.raises(ValueError, match="not a biquandle"):
            Biquandle.from_json(tables)
        assert Biquandle(tables["under"], tables["over"]).n == 2  # the constructor checks shape only


class TestColorings:
    def test_unknot_is_free(self, threeel, diagrams):
        assert counting_invariant(threeel, diagrams["unknot"]) == 3

    def test_threeel_detects_trefoil(self, threeel, diagrams):
        assert counting_invariant(threeel, diagrams["trefoil"]) == 9
        assert counting_invariant(threeel, diagrams["figure_eight"]) == 3

    def test_fox_three_coloring(self, diagrams):
        r3 = Biquandle(R3_UNDER, R3_OVER)
        assert counting_invariant(r3, diagrams["trefoil"]) == 9
        assert counting_invariant(r3, diagrams["figure_eight"]) == 3

    def test_flip_colorings_alternate(self, flip, diagrams):
        cols = enumerate_colorings(flip, diagrams["trefoil"])
        assert len(cols) == 2
        for f in cols:
            colors = dict(f.arc_colors)
            for c in f.diagram.crossings:
                assert colors[c.under_out] != colors[c.under_in]
                assert colors[c.over_out] != colors[c.over_in]

    def test_colorings_satisfy_crossing_relations(self, threeel, diagrams):
        for f in enumerate_colorings(threeel, diagrams["trefoil"]):
            colors = dict(f.arc_colors)
            for c in f.diagram.crossings:
                assert colors[c.under_out] == threeel.under(colors[c.under_in], colors[c.over_in])
                assert colors[c.over_out] == threeel.over(colors[c.over_in], colors[c.under_in])

    def test_hopf_components_color_independently_under_quandle(self, diagrams):
        r3 = Biquandle(R3_UNDER, R3_OVER)
        assert counting_invariant(r3, diagrams["hopf"]) == 3

    def test_json_roundtrip(self, threeel):
        again = Biquandle.from_json(threeel.to_json())
        assert again.under_table == threeel.under_table
        assert again.over_table == threeel.over_table

    def test_enumeration_stops_past_the_limit(self, flip, monkeypatch):
        # k free circles have 2^k flip colorings: 8 are listed, 16 refused.
        from bracketlab import biquandle

        assert biquandle.MAX_COLORINGS == 1 << 14
        monkeypatch.setattr(biquandle, "MAX_COLORINGS", 8)
        assert len(enumerate_colorings(flip, parse_diagram({"crossings": [], "free_circles": 3}))) == 8
        with pytest.raises(DiagramError, match="more than 8 colorings"):
            enumerate_colorings(flip, parse_diagram({"crossings": [], "free_circles": 4}))

    def test_long_kink_chain_colors_like_the_unknot(self, flip, threeel, diagrams):
        # About one free choice per kink: more levels than Python's recursion limit.
        for signs in ((1,), (1, -1)):
            D = parse_diagram(kink_chain(1500, signs))
            for X in (flip, threeel):
                assert counting_invariant(X, D) == counting_invariant(X, diagrams["unknot"]), (X.n, signs)


@pytest.mark.parametrize("name", ["flip", "threeel", "r3"])
def test_colorings_equal_brute_force(flip, threeel, diagrams, name):
    # The corpus has free circles and R1 kinks, which braid closures lack.
    X = {"flip": flip, "threeel": threeel, "r3": Biquandle(R3_UNDER, R3_OVER)}[name]
    for D in diagrams.values():
        assert enumerate_colorings(X, D) == brute_force_colorings(X, D)
    rng = random.Random(5)
    checked = 0
    while checked < 12:
        strands = rng.randint(2, 4)
        D = parse_diagram(braid_closure(random_braid_word(rng, strands, rng.randint(1, 6)), strands))
        if X.n ** len(D.arcs()) > 20_000:
            continue
        assert enumerate_colorings(X, D) == brute_force_colorings(X, D)
        checked += 1
