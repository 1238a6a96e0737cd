import pytest

from bracketlab.biquandle import enumerate_colorings
from bracketlab.bracket import (
    Bracket,
    bracket_from_json,
    bracket_invariant,
    bracket_value,
    crossing_color_pair,
    verify_bracket,
)
from bracketlab.corpus import load_corpus_json
from bracketlab.rings import ZModRing


class TestVerify:
    def test_gf8_passes(self, brackets):
        beta = brackets["bracket_gf8"]
        report = verify_bracket(beta.biquandle, beta.ring, beta.A, beta.B)
        assert report.ok

    def test_gf8_delta_and_w(self, brackets):
        beta = brackets["bracket_gf8"]
        assert beta.ring.element_str(beta.delta) == "1 + t + t^2"
        assert beta.ring.element_str(beta.w) == "1 + t^2"

    def test_broken_control_fails(self):
        data = load_corpus_json("bracket_gf8_broken.json")
        beta = bracket_from_json(data, check=False)
        report = verify_bracket(beta.biquandle, beta.ring, beta.A, beta.B)
        assert not report.ok
        assert report.failures[0].witness  # concrete witness triple

    def test_literal_axiom_flag(self, brackets):
        # The published fourth equation of axiom (iii) has asymmetric
        # subscripts; the corrected form passes, and the literal form is
        # exposed behind a flag for comparison.
        beta = brackets["bracket_gf8"]
        corrected = verify_bracket(beta.biquandle, beta.ring, beta.A, beta.B, literal=False)
        literal = verify_bracket(beta.biquandle, beta.ring, beta.A, beta.B, literal=True)
        assert corrected.ok
        assert isinstance(literal.ok, bool)  # runs to completion either way

    def test_constructor_rejects_non_bracket(self):
        data = load_corpus_json("bracket_gf8_broken.json")
        with pytest.raises(ValueError):
            bracket_from_json(data, check=True)

    def test_unchecked_non_unit_corner_rejected(self):
        for table in ("A", "B"):
            data = load_corpus_json("bracket_z9.json")
            data[table][0][0] = 3  # not a unit of Z/9
            with pytest.raises(ValueError, match=rf"{table}\[0\]\[0\] = 3 is not a unit"):
                bracket_from_json(data, check=False)

    def test_nonunit_entry_rejected(self, flip):
        ring = ZModRing(4)
        with pytest.raises(ValueError):
            Bracket(flip, ring, [[1, 1], [1, 1]], [[2, 2], [2, 2]])


class TestStateSum:
    def test_gf8_trefoil_values(self, brackets, diagrams):
        beta = brackets["bracket_gf8"]
        t = (0, 1, 0)
        multiset = bracket_invariant(beta, diagrams["trefoil"])
        assert multiset == [(t, 2)]

    def test_unknot_value_is_delta(self, brackets, diagrams):
        beta = brackets["bracket_gf8"]
        for f in enumerate_colorings(beta.biquandle, diagrams["unknot"]):
            assert bracket_value(beta, f) == beta.delta

    def test_constant_bracket_values_coloring_independent(self, brackets, diagrams):
        beta = brackets["bracket_const_z5"]
        for name in ("trefoil", "figure_eight", "hopf"):
            values = {
                bracket_value(beta, f)
                for f in enumerate_colorings(beta.biquandle, diagrams[name])
            }
            assert len(values) == 1

    def test_invariance_across_pairs(self, brackets, diagrams):
        from conftest import EQUIVALENT_PAIRS

        for bname, beta in brackets.items():
            for a, b in EQUIVALENT_PAIRS:
                assert bracket_invariant(beta, diagrams[a]) == bracket_invariant(
                    beta, diagrams[b]
                ), (bname, a, b)


class TestColorPair:
    def test_positive_pair_slots(self, diagrams):
        c = diagrams["trefoil"].crossings[0]
        colors = {e: e * 10 for e in diagrams["trefoil"].arcs()}
        x, y = crossing_color_pair(c, colors)
        assert x == colors[c.under_in]
        assert y == colors[c.over_out]

    def test_negative_pair_slots(self, diagrams):
        D = diagrams["figure_eight"]
        c = next(c for c in D.crossings if c.sign == -1)
        colors = {e: e * 10 for e in D.arcs()}
        x, y = crossing_color_pair(c, colors)
        assert x == colors[c.under_out]
        assert y == colors[c.over_in]


class TestJson:
    def test_roundtrip(self, brackets):
        beta = brackets["bracket_z9"]
        again = bracket_from_json(beta.to_json())
        assert again.A == beta.A and again.B == beta.B
        assert again.ring == beta.ring
