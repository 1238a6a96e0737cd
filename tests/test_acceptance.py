"""Acceptance suite: one test class per acceptance criterion."""

import itertools
import time

import pytest

from bracketlab.biquandle import enumerate_colorings, counting_invariant, read_biquandle, verify_biquandle
from bracketlab.bracket import (
    bracket_invariant,
    bracket_values,
    crossing_color_pair,
    read_bracket,
    verify_bracket,
)
from bracketlab.cocycle import (
    canonical_cocycle,
    cocycle_invariant,
    read_cocycle,
    verify_cocycle,
    z_invariant,
    z_invariant_multiset,
)
from bracketlab.corpus import load_corpus_json
from bracketlab.graded import cohomology, evaluate_formal_sum
from bracketlab.homology import (
    bh_multiset,
    check_colorings,
    khovanov_classical,
)
from bracketlab.rings import Coset

from conftest import (
    EQUIVALENT_PAIRS,
    WITNESS_DIAGRAMS,
    basepoint_group,
    basepoint_z,
    cube_edge_sign,
    grading_subgroup,
    kauffman_state_sum,
    reference_cube_complex,
)


class TestCriterion1BundledStructures:
    """The bundled structures verify; negative controls fail with witnesses."""

    def test_positive_structures(self, flip, threeel, brackets, cocycle_ab):
        assert verify_biquandle(flip).ok
        assert verify_biquandle(threeel).ok
        gf8 = brackets["bracket_gf8"]
        assert verify_bracket(gf8.biquandle, gf8.ring, gf8.A, gf8.B).ok
        assert verify_cocycle(cocycle_ab).ok

    def test_negative_controls_fail_with_witness(self):
        for read, name in (
            (read_biquandle, "biquandle_3el_broken"),
            (read_bracket, "bracket_gf8_broken"),
            (read_cocycle, "cocycle_ab_broken"),
        ):
            report, structure = read(load_corpus_json(f"{name}.json"))
            assert not report.ok and report.failures[0].witness and structure is None


class TestCriterion2CocycleInvariant:
    """Hopf gives {1, 1, ab, ab}; the trefoil is trivial for this cocycle."""

    def test_hopf_multiset(self, cocycle_ab, diagrams):
        parse = cocycle_ab.target.parse
        assert cocycle_invariant(cocycle_ab, diagrams["hopf"]) == [
            (parse("1"), 2),
            (parse("a*b"), 2),
        ]

    def test_trefoil_trivial(self, cocycle_ab, diagrams):
        parse = cocycle_ab.target.parse
        assert cocycle_invariant(cocycle_ab, diagrams["trefoil"]) == [(parse("1"), 2)]


class TestCriterion3BracketStateSum:
    """Every GF(8) trefoil bracket value equals the expanded 8-term formula."""

    def test_eight_term_formula(self, brackets, diagrams):
        beta = brackets["bracket_gf8"]
        ring = beta.ring
        D = diagrams["trefoil"]
        # delta exponents by smoothing weight on this diagram: 2, 1, 2, 3.
        delta_power = {0: 2, 1: 1, 2: 2, 3: 3}
        colorings = enumerate_colorings(beta.biquandle, D)
        for f, value in zip(colorings, bracket_values(beta, D, colorings)):
            colors = dict(f.arc_colors)
            pairs = [crossing_color_pair(c, colors) for c in D.crossings]
            total = ring.zero
            for bits in itertools.product((0, 1), repeat=3):
                term = ring.power(beta.delta, delta_power[sum(bits)])
                for (x, y), bit in zip(pairs, bits):
                    term = ring.mul(term, beta.a(x, y) if bit == 0 else beta.b(x, y))
                total = ring.add(total, term)
            expected = ring.mul(ring.power(beta.w, -3), total)
            assert value == expected


class TestCriterion4ReidemeisterInvariance:
    """All four invariants agree across every equivalent pair in the corpus."""

    def test_counting_invariant(self, flip, threeel, diagrams):
        for X in (flip, threeel):
            for a, b in EQUIVALENT_PAIRS:
                assert counting_invariant(X, diagrams[a]) == counting_invariant(
                    X, diagrams[b]
                ), (a, b)

    def test_bracket_invariant(self, brackets, diagrams):
        for name, beta in brackets.items():
            for a, b in EQUIVALENT_PAIRS:
                assert bracket_invariant(beta, diagrams[a]) == bracket_invariant(
                    beta, diagrams[b]
                ), (name, a, b)

    def test_z_multiset(self, brackets, diagrams):
        for name, beta in brackets.items():
            for a, b in EQUIVALENT_PAIRS:
                assert z_invariant_multiset(beta, diagrams[a]) == z_invariant_multiset(
                    beta, diagrams[b]
                ), (name, a, b)

    def test_bh_multiset(self, brackets, diagrams):
        for name, beta in brackets.items():
            for a, b in EQUIVALENT_PAIRS:
                assert bh_multiset(beta, diagrams[a]) == bh_multiset(beta, diagrams[b]), (name, a, b)


class TestCriterion5ClassicalKhovanov:
    """Unknot and trefoil tables, and the independent Jones oracle."""

    def test_unknot(self, diagrams):
        assert khovanov_classical(diagrams["unknot"]).as_dict() == {
            (0, -1): (1, ()),
            (0, 1): (1, ()),
        }

    def test_trefoil_table(self, diagrams):
        assert khovanov_classical(diagrams["trefoil"]).as_dict() == {
            (0, 1): (1, ()),
            (0, 3): (1, ()),
            (2, 5): (1, ()),
            (3, 7): (0, (2,)),
            (3, 9): (1, ()),
        }

    def test_euler_matches_kauffman_oracle(self, diagrams):
        chi = khovanov_classical(diagrams["trefoil"]).euler_characteristic()
        assert chi == kauffman_state_sum(diagrams["trefoil"])


class TestCriterion6Theorem:
    """The theorem check passes corpus-wide, with trivial and nontrivial G."""

    def test_g_triviality_coverage(self, brackets):
        assert len(brackets["bracket_gf8"].G) == 1
        assert len(brackets["bracket_z9"].G) == 3

    def test_theorem_corpus_wide(self, brackets, diagrams):
        for bname, beta in brackets.items():
            for dname, D in diagrams.items():
                if len(D.crossings) > 4:
                    continue  # larger diagrams covered by check-all
                colorings = enumerate_colorings(beta.biquandle, D)
                for check in check_colorings(beta, D, colorings, khovanov_classical(D)):
                    assert check.theorem, (bname, dname, check.bh.to_json(), check.predicted.to_json())


class TestCriterion7EulerIdentity:
    """chi(Bh) evaluates to gdim(S) * beta(f); with G trivial this is beta(f)."""

    def test_euler_corpus_wide(self, brackets, diagrams):
        for bname, beta in brackets.items():
            for dname, D in diagrams.items():
                if len(D.crossings) > 4:
                    continue
                colorings = enumerate_colorings(beta.biquandle, D)
                for check in check_colorings(beta, D, colorings, khovanov_classical(D)):
                    assert check.euler, (bname, dname)

    def test_gf8_recovers_bracket_value(self, brackets, diagrams):
        beta = brackets["bracket_gf8"]
        D = diagrams["trefoil"]
        colorings = enumerate_colorings(beta.biquandle, D)
        for f, value in zip(colorings, bracket_values(beta, D, colorings)):
            cube = reference_cube_complex(beta, dict(f.arc_colors), D)
            chi = evaluate_formal_sum(cohomology(cube).euler_characteristic(), beta.ring)
            assert chi == value


class TestCriterion8CanonicalCocycle:
    """phi_beta verifies, is x0-independent, trivial for constant brackets,
    and reproduces phi for the A = B = phi bracket."""

    def test_phi_beta_always_verifies(self, brackets):
        for name, beta in brackets.items():
            phi = canonical_cocycle(beta)
            assert verify_cocycle(phi).ok, name

    def test_x0_independence(self, brackets, witness, diagrams):
        # No basepoint matters, because A_{x,x} A_{y,y}^{-1} lies in G.  The
        # witness's q moves with the basepoint, yet G, phi_beta and Z_beta
        # taken at x0 = 2 are the ones the bracket reads off at element 1.
        for name, beta in {**brackets, "witness": witness}.items():
            ring, X = beta.ring, beta.biquandle
            for x, y in itertools.product(X.elements(), repeat=2):
                assert ring.mul(beta.a(x, x), ring.try_invert(beta.a(y, y))) in beta.G, (name, x, y)
        ring = witness.ring
        G, q = basepoint_group(witness, 2)
        assert (witness.q11, q) == (10, 4) and G == witness.G
        a22_inv = ring.try_invert(witness.a(2, 2))
        phi = canonical_cocycle(witness)
        for x, y in itertools.product(witness.biquandle.elements(), repeat=2):
            assert phi.value(x, y) == Coset(G, ring.mul(witness.a(x, y), a22_inv)), (x, y)
        for dname in WITNESS_DIAGRAMS:
            for f in enumerate_colorings(witness.biquandle, diagrams[dname]):
                assert z_invariant(witness, f) == basepoint_z(witness, f, G, 2), dname

    def test_constant_brackets_trivial(self, brackets):
        for name in ("bracket_const_z5", "bracket_const_z7"):
            beta = brackets[name]
            phi = canonical_cocycle(beta)
            assert all(v == phi.target.identity for row in phi.phi for v in row)

    def test_phi_bracket_reproduces_phi(self, brackets, cocycle_ab):
        # A = B = phi over F_2[u]/(u^4 + 1), under the identification
        # a, b -> u of the free abelian target into the unit group.
        beta = brackets["bracket_phi"]
        ring = beta.ring
        u = ring.element_from_json([0, 1])
        phi_beta = canonical_cocycle(beta)
        assert beta.G.elements == frozenset({ring.one})
        for x in (1, 2):
            for y in (1, 2):
                ea, eb = cocycle_ab.value(x, y)  # exponents of a and b
                image = ring.power(u, ea + eb)
                assert phi_beta.value(x, y).canonical == image


class TestCriterion9StructuralSuites:
    """d compose d = 0, degree preservation, anti-commuting faces,
    H-membership, and chi(C) = chi(H(C)) on the direct cube, which only the
    tests build (``reference_cube_complex``)."""

    def _complexes(self, brackets, diagrams):
        for beta in brackets.values():
            for dname in ("unknot_r1_pos", "trefoil", "hopf", "figure_eight"):
                for f in enumerate_colorings(beta.biquandle, diagrams[dname]):
                    yield beta, reference_cube_complex(beta, dict(f.arc_colors), f.diagram)

    def test_complex_validity(self, brackets, diagrams):
        for _, c in self._complexes(brackets, diagrams):
            c.validate()  # d compose d = 0 and degree preservation

    def test_h_membership(self, brackets, diagrams):
        for beta, c in self._complexes(brackets, diagrams):
            H = grading_subgroup(beta)
            for degs in c.degrees.values():
                assert all(d in H for d in degs)

    def test_euler_chain_vs_homology(self, brackets, diagrams):
        for _, c in self._complexes(brackets, diagrams):
            assert c.euler_characteristic() == cohomology(c).euler_characteristic()

    def test_anticommuting_faces(self, diagrams):
        # On every square face of the cube, the two paths from its bottom
        # state to its top state have edge signs of opposite product.
        for name in ("trefoil", "figure_eight", "trefoil_r2"):
            D = diagrams[name]
            for bits in itertools.product((0, 1), repeat=len(D.crossings)):
                zeros = [i for i, b in enumerate(bits) if b == 0]
                for i, j in itertools.combinations(zeros, 2):
                    mid_i = tuple(1 if k == i else b for k, b in enumerate(bits))
                    mid_j = tuple(1 if k == j else b for k, b in enumerate(bits))
                    path_i = cube_edge_sign(bits, i) * cube_edge_sign(mid_i, j)
                    assert path_i == -cube_edge_sign(bits, j) * cube_edge_sign(mid_j, i), (name, bits, i, j)
