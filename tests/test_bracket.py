import random

import pytest

from bracketlab.biquandle import Biquandle, enumerate_colorings
from bracketlab.bracket import (
    Bracket,
    bracket_from_json,
    bracket_invariant,
    bracket_values,
    crossing_color_pair,
    read_bracket,
    verify_bracket,
)
from bracketlab.corpus import load_corpus_json
from bracketlab.diagram import OrientedDiagram, _smoothings, parse_diagram
from bracketlab.rings import ZModRing, ring_make
from conftest import (
    DIAGRAM_NAMES,
    braid_closure,
    kink_chain,
    random_braid_word,
    reference_smoothings,
    reference_verify_bracket,
    smoothing_states,
)


def unverified(data: dict) -> tuple:
    """The ``Bracket`` arguments (biquandle, ring, A, B) of bracket JSON, read without checking any axiom."""
    ring = ring_make(data["ring"])
    A, B = ([[ring.element_from_json(v) for v in row] for row in data[table]] for table in "AB")
    return Biquandle(data["biquandle"]["under"], data["biquandle"]["over"]), ring, A, B


def walk_bracket_values(beta, D, colorings, states=None) -> list:
    """The bracket state sum by walking all 2^n smoothing states.

    Independent cross-check of the transfer scan in ``bracket_values``: each
    state's circles come from ``resolve_state``, and each crossing's
    coefficients from ``beta.A``, ``beta.B`` and ``ring.try_invert``, not
    from ``beta.tables`` or ``beta.coefficient``.  ``states`` may hold
    ``smoothing_states(D)`` already resolved, to share them across brackets.
    """
    ring = beta.ring
    coefficients = []
    for f in colorings:
        colors = dict(f.arc_colors)
        per_crossing = []
        for c in D.crossings:
            x, y = crossing_color_pair(c, colors)
            a, b = beta.A[x - 1][y - 1], beta.B[x - 1][y - 1]
            per_crossing.append((a, b) if c.sign == 1 else (ring.try_invert(b), ring.try_invert(a)))
        coefficients.append(per_crossing)
    totals = [ring.zero] * len(colorings)
    for state in smoothing_states(D) if states is None else states:
        loop = ring.power(beta.delta, state.num_circles)
        for k, per_crossing in enumerate(coefficients):
            term = loop
            for pair, bit in zip(per_crossing, state.resolution):
                term = ring.mul(term, pair[bit])
            totals[k] = ring.add(totals[k], term)
    norm = ring.power(beta.w, D.n_minus - D.n_plus)
    return [ring.mul(norm, total) for total in totals]


def random_unit_tables(rng: random.Random, X: Biquandle, ring) -> tuple:
    """Tables A and B of units of ``ring`` drawn at random, which need satisfy no bracket axiom."""
    units = sorted(ring.units())
    return tuple([[rng.choice(units) for _ in range(X.n)] for _ in range(X.n)] for _ in "AB")


SCAN_BRACKETS = ("bracket_z9", "bracket_gf8", "bracket_phi", "bracket_const_z5")


def seeded_closures():
    """Seeded closed braids on 2-4 strands, one of each size from 1 to 12 crossings.

    The 3-, 6-, 9- and 12-crossing words are stabilised 3-strand words, so
    their last crossing is a kink; the 4-crossing word on 4 strands uses only
    sigma_1 and sigma_2 and leaves a free circle.
    """
    rng = random.Random(2020)
    closures = []
    for k in range(12):
        crossings, strands = 1 + k, 2 + (k + 2) % 3
        stabilise = k % 3 == 2
        generators = 3 if k == 3 else strands
        word = random_braid_word(rng, generators, crossings - stabilise)
        if stabilise:
            word, strands = word + [rng.choice((1, -1)) * strands], strands + 1
        closures.append((word, strands))
    return closures


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
        report, beta = read_bracket(data)
        assert not report.ok and beta is None
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

    def test_failures_match_the_written_out_equations(self, brackets, flip, threeel):
        # Every bundled bracket, then random unit tables on the bundled
        # biquandles or on random operation tables, in both forms of equation
        # 4: any units or some non-units; constant tables with one entry
        # changed; and tables with A_{x,y} B_{x,y}^{-1} in {r, r^{-1}} and one
        # A_{x,x}, which pass axioms (i) and (ii) and reach (iii) with unequal
        # coefficients.
        cases = [(beta.biquandle, beta.ring, beta.A, beta.B) for beta in brackets.values()]
        rings = [ring_make({"kind": "zmod", "n": n}) for n in (5, 9)]
        rings.append(ring_make({"kind": "poly_quotient", "base_n": 2, "modulus": [1, 1, 0, 1]}))
        rng = random.Random(3)
        for _ in range(150):
            X, R = rng.choice((flip, threeel, None)), rng.choice(rings)
            if X is None:  # tables that need not be a biquandle, with over depending on both arguments
                n = rng.randint(2, 3)
                X = Biquandle(*([[rng.randint(1, n) for _ in range(n)] for _ in range(n)] for _ in "uo"))
            units = sorted(R.units())
            pool = units if rng.random() < 0.8 else list(R.elements())
            A, B = ([[rng.choice(pool) for _ in range(X.n)] for _ in range(X.n)] for _ in "AB")
            kind = rng.random()
            if kind < 0.3:
                A, B = ([[rng.choice(units)] * X.n for _ in range(X.n)] for _ in "AB")
                A[rng.randrange(X.n)][rng.randrange(X.n)] = rng.choice(units)
            elif kind < 0.7:
                r, diagonal = rng.choice(units), rng.choice(units)
                A = [[diagonal if x == y else rng.choice(units) for y in range(X.n)] for x in range(X.n)]
                B = [[R.mul(v, R.try_invert(r) if x == y or rng.random() < 0.5 else r) for y, v in enumerate(row)]
                     for x, row in enumerate(A)]
            cases.append((X, R, A, B))
        kinds = set()
        for X, R, A, B in cases:
            for literal in (False, True):
                got = verify_bracket(X, R, A, B, literal=literal).to_json()["failures"]
                assert got == reference_verify_bracket(X, R, A, B, literal), (X.n, R, A, B, literal)
                kinds |= {f["axiom"] for f in got}
        assert kinds == {"unit", "i", "ii", "iii.1", "iii.2", "iii.3", "iii.4", "iii.5"}

    def test_reader_rejects_non_bracket(self):
        data = load_corpus_json("bracket_gf8_broken.json")
        with pytest.raises(ValueError, match="not a bracket"):
            bracket_from_json(data)

    def test_reader_verifies_the_biquandle_first(self):
        data = load_corpus_json("bracket_gf8_broken.json")
        data["biquandle"] = {"under": [[1, 1], [1, 2]], "over": [[1, 1], [2, 2]]}
        with pytest.raises(ValueError, match="not a biquandle"):
            bracket_from_json(data)

    def test_constructor_takes_unit_tables_that_fail_the_axioms(self):
        X, ring, A, B = unverified(load_corpus_json("bracket_gf8_broken.json"))
        assert not verify_bracket(X, ring, A, B).ok
        beta = Bracket(X, ring, A, B)
        assert beta.A == tuple(map(tuple, A)) and beta.B == tuple(map(tuple, B))

    def test_unchecked_non_unit_corner_rejected(self):
        for table in ("A", "B"):
            data = load_corpus_json("bracket_z9.json")
            data[table][0][0] = 3  # not a unit of Z/9
            with pytest.raises(ValueError, match=rf"{table}\[0\]\[0\] = 3 is not a unit"):
                Bracket(*unverified(data))

    def test_unchecked_non_unit_entry_rejected(self):
        # q_{x,y} and G need every entry of A and B to be a unit.
        for table, i, j in (("A", 1, 0), ("B", 0, 1)):
            data = load_corpus_json("bracket_z9.json")
            data[table][i][j] = 3  # not a unit of Z/9
            with pytest.raises(ValueError, match=rf"{table}\[{i}\]\[{j}\] = 3 is not a unit"):
                Bracket(*unverified(data))

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
        D = diagrams["unknot"]
        assert bracket_values(beta, D, enumerate_colorings(beta.biquandle, D)) == [beta.delta] * 2

    def test_constant_bracket_values_coloring_independent(self, brackets, diagrams):
        beta = brackets["bracket_const_z5"]
        for name in ("trefoil", "figure_eight", "hopf"):
            D = diagrams[name]
            values = set(bracket_values(beta, D, enumerate_colorings(beta.biquandle, D)))
            assert len(values) == 1

    def test_invariance_across_pairs(self, brackets, diagrams):
        from conftest import EQUIVALENT_PAIRS

        for bname, beta in brackets.items():
            for a, b in EQUIVALENT_PAIRS:
                assert bracket_invariant(beta, diagrams[a]) == bracket_invariant(
                    beta, diagrams[b]
                ), (bname, a, b)


class TestTransferScan:
    def test_bundled_diagrams_match_walk(self, brackets, diagrams):
        for bname, beta in brackets.items():
            for name in DIAGRAM_NAMES:
                D = diagrams[name]
                colorings = enumerate_colorings(beta.biquandle, D)
                walk = walk_bracket_values(beta, D, colorings)
                assert bracket_values(beta, D, colorings) == walk, (bname, name)

    def test_seeded_closures_match_walk(self, brackets):
        closures = seeded_closures()
        assert max(len(word) for word, _ in closures) == 12
        assert any(braid_closure(word, m)["free_circles"] for word, m in closures)
        for word, strands in closures:
            D = parse_diagram(braid_closure(word, strands))
            states = list(smoothing_states(D))
            for bname in SCAN_BRACKETS:
                beta = brackets[bname]
                # The scan's columns are per coefficient signature, so colorings
                # share one only when their coefficients agree at every crossing
                # (the column tests cover that); the walk costs 2^n per
                # coloring, so two colorings per diagram keep it short.
                colorings = enumerate_colorings(beta.biquandle, D)[:2]
                walk = walk_bracket_values(beta, D, colorings, states)
                assert bracket_values(beta, D, colorings) == walk, (bname, word, strands)

    def test_colorings_with_different_signatures_match_walk(self, brackets, diagrams):
        # z9 on the Hopf link: its four colorings do not all share their
        # coefficients, so the scan carries more than one column.
        beta, D = brackets["bracket_z9"], diagrams["hopf"]
        colorings = enumerate_colorings(beta.biquandle, D)
        signatures = {
            tuple(beta.coefficient(c, bit, dict(f.arc_colors)) for c in D.crossings for bit in (0, 1))
            for f in colorings
        }
        assert len(signatures) > 1
        assert bracket_values(beta, D, colorings) == walk_bracket_values(beta, D, colorings)

    def test_free_circles_match_walk(self, brackets, diagrams):
        D = OrientedDiagram(diagrams["trefoil"].crossings, 6)
        states = list(smoothing_states(D))
        for bname in SCAN_BRACKETS:
            beta = brackets[bname]
            colorings = enumerate_colorings(beta.biquandle, D)
            assert len(colorings) >= 2 ** 6
            walk = walk_bracket_values(beta, D, colorings, states)
            assert bracket_values(beta, D, colorings) == walk, bname

    def test_unit_tables_that_fail_the_axioms_match_walk(self, threeel, diagrams):
        # The scan is a state sum and uses no axiom: random unit tables on
        # the 3-element biquandle, none of them a bracket, give the walk's values.
        rng = random.Random(23)
        rings = [ring_make({"kind": "zmod", "n": n}) for n in (7, 9)]
        rings.append(ring_make({"kind": "poly_quotient", "base_n": 2, "modulus": [1, 1, 0, 1]}))
        for ring in rings:
            for _ in range(3):
                A, B = random_unit_tables(rng, threeel, ring)
                assert not verify_bracket(threeel, ring, A, B).ok
                beta = Bracket(threeel, ring, A, B)
                for name in ("trefoil", "figure_eight", "hopf", "trefoil_r2"):
                    D = diagrams[name]
                    colorings = enumerate_colorings(threeel, D)
                    walk = walk_bracket_values(beta, D, colorings)
                    assert bracket_values(beta, D, colorings) == walk, (ring, A, B, name)

    def test_free_circles_cost_only_the_power_of_delta(self, brackets, diagrams, monkeypatch):
        # 10 free circles make 2^10 times the colorings, all of one signature:
        # the scan's products stay the same but for delta^10, by squaring.
        beta = brackets["bracket_z9"]
        mul, calls = ZModRing.mul, []

        def counted(self, a, b):
            calls.append(1)
            return mul(self, a, b)

        monkeypatch.setattr(ZModRing, "mul", counted)
        counts = []
        for k in (0, 10):
            D = OrientedDiagram(diagrams["trefoil"].crossings, k)
            colorings = enumerate_colorings(beta.biquandle, D)
            calls.clear()
            bracket_values(beta, D, colorings)
            counts.append(len(calls))
        assert counts[1] - counts[0] <= 2 * (10).bit_length(), counts

    def test_smoothing_map_matches_reference(self, diagrams):
        # Every (crossing, matching) the scan meets, in scan order and in PD
        # order; on trefoil + Hopf with interleaved labels, listed alternately,
        # PD order keeps both components open at once.
        fields = ("under_in", "over_in", "under_out", "over_out")

        def relabel(crossings, label):
            return [c._replace(**{k: label(getattr(c, k)) for k in fields}) for c in crossings]

        trefoil = relabel(diagrams["trefoil"].crossings, lambda e: 2 * e - 1)
        hopf = relabel(diagrams["hopf"].crossings, lambda e: 2 * e)
        union = OrientedDiagram([trefoil[0], hopf[0], trefoil[1], hopf[1], trefoil[2]])
        cases = [diagrams[name] for name in DIAGRAM_NAMES] + [union]
        cases += [parse_diagram(braid_closure(word, m)) for word, m in seeded_closures()]
        cases += [parse_diagram(kink_chain(n, signs)) for n in (1, 2, 5) for signs in ((1,), (-1,), (1, -1))]
        met = 0
        for D in cases:
            for order in (D.scan_order, range(len(D.crossings))):
                matchings = {()}
                for index in order:
                    crossing = D.crossings[index]
                    smooth, reference = _smoothings(crossing), reference_smoothings(crossing)
                    after = set()
                    for matching in matchings:
                        got = smooth(matching)
                        assert got == [reference[bit](matching) for bit in (0, 1)], (D.to_json(), crossing, matching)
                        after.update(smoothed for smoothed, _ in got)
                        met += 1
                    matchings = after
                assert matchings == {()}
        assert met > 400, met

    def test_crossing_order_does_not_matter(self, brackets, diagrams):
        def by_coloring(beta, D):
            colorings = enumerate_colorings(beta.biquandle, D)
            return dict(zip((f.arc_colors for f in colorings), bracket_values(beta, D, colorings)))

        rng = random.Random(7)
        cases = [diagrams[name] for name in DIAGRAM_NAMES]
        cases += [parse_diagram(braid_closure(word, m)) for word, m in seeded_closures()]
        for D in cases:
            crossings = list(D.crossings)
            rng.shuffle(crossings)
            shuffled = OrientedDiagram(crossings, D.free_circles)
            for bname in SCAN_BRACKETS:
                beta = brackets[bname]
                assert by_coloring(beta, shuffled) == by_coloring(beta, D), (bname, D.to_json())


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


class TestTables:
    def test_tables_are_the_coefficients_and_their_inverses(self, brackets, flip, threeel):
        cases = list(brackets.values())
        rng = random.Random(29)
        for n in (5, 9, 13):
            for X in (flip, threeel):
                cases.append(Bracket(X, ZModRing(n), *random_unit_tables(rng, X, ZModRing(n))))
        for beta in cases:
            ring = beta.ring

            def inverse(table):
                return tuple(tuple(ring.try_invert(v) for v in row) for row in table)

            assert beta.tables == {1: (beta.A, beta.B), -1: (inverse(beta.B), inverse(beta.A))}


class TestJson:
    def test_roundtrip(self, brackets):
        beta = brackets["bracket_z9"]
        again = bracket_from_json(beta.to_json())
        assert again.A == beta.A and again.B == beta.B
        assert again.ring == beta.ring
