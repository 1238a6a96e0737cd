import json

import pytest

from bracketlab.biquandle import enumerate_colorings
from bracketlab.cocycle import (
    FreeAbelianTarget,
    canonical_cocycle,
    cocycle_from_json,
    cocycle_invariant,
    cocycle_value,
    read_cocycle,
    verify_cocycle,
    z_invariant,
    z_invariant_multiset,
)
from bracketlab.corpus import load_corpus_json
from bracketlab.rings import Coset

from conftest import basepoint_group


class TestTargets:
    def test_free_abelian_words(self):
        t = FreeAbelianTarget(("a", "b"))
        assert t.parse("1") == (0, 0)
        assert t.parse("a*b^-1") == (1, -1)
        assert t.element_str(t.mul(t.parse("a"), t.parse("b"))) == "a*b"
        assert t.inv((2, -1)) == (-2, 1)
        with pytest.raises(ValueError):
            t.parse("c")


class TestVerify:
    def test_ab_cocycle_valid(self, cocycle_ab):
        assert verify_cocycle(cocycle_ab).ok

    def test_broken_control_fails_on_diagonal(self):
        data = load_corpus_json("cocycle_ab_broken.json")
        report, cocycle = read_cocycle(data)
        assert not report.ok and cocycle is None
        assert report.failures[0].axiom == "i"
        assert report.failures[0].witness == (1,)

    def test_reader_rejects_non_cocycle(self):
        with pytest.raises(ValueError, match="not a 2-cocycle"):
            cocycle_from_json(load_corpus_json("cocycle_ab_broken.json"))

    def test_constant_identity_cocycle_valid(self, threeel):
        from bracketlab.cocycle import Cocycle

        target = FreeAbelianTarget(("a",))
        phi = [[target.identity] * 3 for _ in range(3)]
        assert verify_cocycle(Cocycle(threeel, target, phi)).ok


class TestJson:
    @pytest.mark.parametrize("name", ["bracket_z9", "bracket_gf8", "bracket_phi", "bracket_const_z5"])
    def test_canonical_cocycle_reads_back(self, brackets, diagrams, name):
        # The unit-quotient file that `canonical-cocycle` prints in its `cocycle` field.
        beta = brackets[name]
        report, phi = read_cocycle(json.loads(json.dumps(canonical_cocycle(beta).to_json())))
        assert report.ok
        for dname, D in diagrams.items():
            for f in enumerate_colorings(beta.biquandle, D):
                assert cocycle_value(phi, f) == z_invariant(beta, f), (name, dname)

    def test_free_abelian_cocycle_reads_back(self, cocycle_ab):
        data = json.loads(json.dumps(cocycle_ab.to_json()))
        report, again = read_cocycle(data)
        assert report.ok and again.phi == cocycle_ab.phi
        assert again.to_json() == data


class TestInvariant:
    def test_hopf_multiset(self, cocycle_ab, diagrams):
        t = cocycle_ab.target
        multiset = cocycle_invariant(cocycle_ab, diagrams["hopf"])
        assert multiset == [(t.parse("1"), 2), (t.parse("a*b"), 2)]

    def test_trefoil_trivial(self, cocycle_ab, diagrams):
        t = cocycle_ab.target
        assert cocycle_invariant(cocycle_ab, diagrams["trefoil"]) == [(t.parse("1"), 2)]

    def test_invariance_across_pairs(self, cocycle_ab, diagrams):
        from conftest import EQUIVALENT_PAIRS

        for a, b in EQUIVALENT_PAIRS:
            assert cocycle_invariant(cocycle_ab, diagrams[a]) == cocycle_invariant(
                cocycle_ab, diagrams[b]
            )


class TestCanonicalCocycle:
    def test_gf8_group_trivial(self, brackets):
        beta = brackets["bracket_gf8"]
        assert beta.G.elements == frozenset({beta.ring.one})
        assert beta.q11 == (0, 1, 0)  # q_{x,y} = t for every pair

    def test_gf8_phi_is_a_ratio(self, brackets):
        beta = brackets["bracket_gf8"]
        ring = beta.ring
        phi = canonical_cocycle(beta)
        a00_inv = ring.try_invert(beta.a(1, 1))
        for x in (1, 2):
            for y in (1, 2):
                assert phi.value(x, y).canonical == ring.mul(beta.a(x, y), a00_inv)

    def test_z9_group_nontrivial(self, brackets):
        beta = brackets["bracket_z9"]
        assert beta.G.elements == frozenset({1, 4, 7})

    def test_constant_bracket_phi_trivial(self, brackets):
        for name in ("bracket_const_z5", "bracket_const_z7"):
            beta = brackets[name]
            phi = canonical_cocycle(beta)
            identity = phi.target.identity
            assert all(v == identity for row in phi.phi for v in row)

    def test_x0_independence(self, brackets, witness):
        # G and phi_beta taken at any basepoint x0 are the bracket's own,
        # including on the witness, whose q_{x0,x0} moves with x0.
        for name, beta in {**brackets, "witness": witness}.items():
            ring, elements = beta.ring, beta.biquandle.elements()
            phi = canonical_cocycle(beta)
            for x0 in elements:
                G, _ = basepoint_group(beta, x0)
                assert G == beta.G, (name, x0)
                a_inv = ring.try_invert(beta.a(x0, x0))
                for x in elements:
                    for y in elements:
                        assert phi.value(x, y) == Coset(G, ring.mul(beta.a(x, y), a_inv)), (name, x0, x, y)


class TestZInvariant:
    def test_crossingless_diagram_gives_identity(self, brackets, diagrams):
        beta = brackets["bracket_gf8"]
        for f in enumerate_colorings(beta.biquandle, diagrams["unknot"]):
            assert z_invariant(beta, f).canonical == beta.ring.one

    def test_matches_phi_product(self, brackets, diagrams):
        # Two equivalent formulas: crossing-sign product of A/B ratios
        # versus the product of phi_beta values.  The multisets agree as
        # lists, so the cocycle target orders cosets as Z_beta does.
        for name, beta in brackets.items():
            phi = canonical_cocycle(beta)
            for dname in ("trefoil", "figure_eight", "hopf"):
                for f in enumerate_colorings(beta.biquandle, diagrams[dname]):
                    assert z_invariant(beta, f) == cocycle_value(phi, f), (name, dname)
                D = diagrams[dname]
                assert cocycle_invariant(phi, D) == z_invariant_multiset(beta, D), (name, dname)

    def test_invariance_across_pairs(self, brackets, diagrams):
        from conftest import EQUIVALENT_PAIRS

        for name, beta in brackets.items():
            for a, b in EQUIVALENT_PAIRS:
                assert z_invariant_multiset(beta, diagrams[a]) == z_invariant_multiset(
                    beta, diagrams[b]
                ), (name, a, b)
