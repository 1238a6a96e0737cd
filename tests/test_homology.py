import json
import random
from math import comb
from pathlib import Path

import pytest

from bracketlab.biquandle import Biquandle, enumerate_colorings, multiset
from bracketlab.bracket import Bracket, bracket_values, verify_bracket
from bracketlab.cocycle import z_invariant, z_invariant_multiset
from bracketlab.diagram import OrientedDiagram, parse_diagram
from bracketlab.graded import cohomology, evaluate_formal_sum
from bracketlab.homology import (
    bh_multiset,
    check_colorings,
    fold_khovanov,
    khovanov_classical,
)
from bracketlab.rings import Coset, ZModRing
from conftest import (
    DIAGRAM_NAMES,
    KAUFFMAN,
    PINNED_WORDS,
    WITNESS_DIAGRAMS,
    basepoint_group,
    basepoint_z,
    braid_closure,
    cube_bh,
    cube_khovanov,
    grading_subgroup,
    kauffman_state_sum,
    kink_chain,
    random_braid_word,
    reference_cube_complex,
)


def torus_khovanov(n: int) -> dict:
    """Khovanov homology of the positive torus link T(2, n), n >= 2, in closed form.

    Khovanov, "A categorification of the Jones polynomial" (arXiv
    math/9908171), section 6.2: Z at (0, n-2) and (0, n); Z at
    (2k, n+4k-2) for 2 <= 2k <= n; Z at (2k+1, n+4k+2) and Z/2 at
    (2k+1, n+4k) for 3 <= 2k+1 <= n; for even n, one more Z at (n, 3n).
    """
    table = {(0, n - 2): (1, ()), (0, n): (1, ())}
    for k in range(1, n // 2 + 1):
        table[(2 * k, n + 4 * k - 2)] = (1, ())
    for k in range(1, (n - 1) // 2 + 1):
        table[(2 * k + 1, n + 4 * k + 2)] = (1, ())
        table[(2 * k + 1, n + 4 * k)] = (0, (2,))
    if n % 2 == 0:
        table[(n, 3 * n)] = (1, ())
    return table


def mirror_khovanov(table: dict) -> dict:
    """The table of the mirror image: free rank at (-i, -j), torsion at (1-i, -j)."""
    mirrored = {}
    for (i, j), (rank, torsion) in table.items():
        if rank:
            mirrored[(-i, -j)] = (rank, mirrored.get((-i, -j), (0, ()))[1])
        if torsion:
            mirrored[(1 - i, -j)] = (mirrored.get((1 - i, -j), (0, ()))[0], torsion)
    return mirrored

# Published integer Khovanov homology tables, (i, j) -> (rank, torsion).
KH_UNKNOT = {(0, -1): (1, ()), (0, 1): (1, ())}
KH_TREFOIL = {
    (0, 1): (1, ()),
    (0, 3): (1, ()),
    (2, 5): (1, ()),
    (3, 7): (0, (2,)),
    (3, 9): (1, ()),
}
KH_FIGURE_EIGHT = {
    (-2, -5): (1, ()),
    (-1, -3): (0, (2,)),
    (-1, -1): (1, ()),
    (0, -1): (1, ()),
    (0, 1): (1, ()),
    (1, 1): (1, ()),
    (2, 3): (0, (2,)),
    (2, 5): (1, ()),
}
KH_HOPF = {(0, 0): (1, ()), (0, 2): (1, ()), (2, 4): (1, ()), (2, 6): (1, ())}


CLOSURES = Path(__file__).resolve().parent / "golden" / "khovanov_4_strand_closures.json"


class TestClassicalKhovanov:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("unknot", KH_UNKNOT),
            ("trefoil", KH_TREFOIL),
            ("figure_eight", KH_FIGURE_EIGHT),
            ("hopf", KH_HOPF),
        ],
    )
    def test_published_tables(self, diagrams, name, expected):
        assert khovanov_classical(diagrams[name]).as_dict() == expected

    def test_reidemeister_invariance(self, diagrams):
        from conftest import EQUIVALENT_PAIRS

        for a, b in EQUIVALENT_PAIRS:
            assert khovanov_classical(diagrams[a]).as_dict() == khovanov_classical(
                diagrams[b]
            ).as_dict()

    def test_scan_equals_cube_on_corpus(self, diagrams):
        for name in DIAGRAM_NAMES:
            assert khovanov_classical(diagrams[name]) == cube_khovanov(diagrams[name]), name

    def test_scan_equals_cube_on_seeded_closures(self):
        # This seed's sweep includes the 3-strand word [-2, 1, -2, -1, -2],
        # whose homology changes if the saddles lose their signs.
        rng = random.Random(4)
        for k in range(40):
            strands, crossings = 2 + k % 3, 1 + k % 8
            word = random_braid_word(rng, strands, crossings)
            D = parse_diagram(braid_closure(word, strands))
            assert khovanov_classical(D) == cube_khovanov(D), (word, strands)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_torus_closed_form_and_mirror(self, n):
        table = khovanov_classical(parse_diagram(braid_closure([1] * n, 2))).as_dict()
        assert table == torus_khovanov(n)
        mirror = khovanov_classical(parse_diagram(braid_closure([-1] * n, 2))).as_dict()
        assert mirror == mirror_khovanov(table)

    def test_pinned_4_strand_closures_and_mirrors(self):
        # Too large for the cube: the tables were written by this module's
        # __main__ before the scan's dot sets became bitmasks.
        cases = json.loads(CLOSURES.read_text())
        assert [case["word"] for case in cases] == PINNED_WORDS
        for case in cases:
            word, strands = case["word"], case["strands"]
            table = khovanov_classical(parse_diagram(braid_closure(word, strands)))
            assert table.to_json() == case["khovanov"], word
            mirror = khovanov_classical(parse_diagram(braid_closure([-x for x in word], strands)))
            assert mirror.as_dict() == mirror_khovanov(table.as_dict()), word

    def test_free_circles_equal_kinked_circles(self):
        # A free circle is an unknot: a disjoint R1 kink has the same
        # homology, and the scan crosses it instead of tensoring at the table.
        rng = random.Random(6)
        for k in range(12):
            strands = 3 + k % 2
            word = random_braid_word(rng, strands, 4 + k)
            data = braid_closure(word, strands)
            free = data["free_circles"]
            top = max(max(c.values()) for c in data["crossings"])
            for extra in range(3):
                kinks = [
                    {"sign": 1 - 2 * (t % 2), "under_in": top + 2 * t + 2, "over_in": top + 2 * t + 1,
                     "under_out": top + 2 * t + 1, "over_out": top + 2 * t + 2}
                    for t in range(free + extra)
                ]
                tensored = khovanov_classical(parse_diagram({**data, "free_circles": free + extra}))
                kinked = khovanov_classical(parse_diagram({"crossings": data["crossings"] + kinks, "free_circles": 0}))
                assert tensored == kinked, (word, strands, extra)

    def test_scan_equals_cube_on_split_diagrams(self, diagrams):
        # The trefoil's crossings come first, after which no edge is open and
        # every matching is empty; the hopf's labels interleave with its own.
        def relabelled(name, label):
            return [{k: v if k == "sign" else label(v) for k, v in c.to_json().items()} for c in diagrams[name].crossings]

        trefoil, hopf = relabelled("trefoil", lambda e: 2 * e + 1), relabelled("hopf", lambda e: 2 * e)
        for crossings in (trefoil + hopf, hopf + trefoil, kink_chain(6, (1, 1, -1))["crossings"]):
            D = parse_diagram({"crossings": crossings, "free_circles": 0})
            table = khovanov_classical(D)
            assert table == cube_khovanov(D), crossings
            assert table.euler_characteristic() == kauffman_state_sum(D), crossings

    def test_free_circles_equal_cube(self):
        rng = random.Random(7)
        for k in range(6):
            word = random_braid_word(rng, 3, 2 + k % 4)
            for extra in range(1, 3):
                data = braid_closure(word, 3)
                D = parse_diagram({**data, "free_circles": data["free_circles"] + extra})
                assert khovanov_classical(D) == cube_khovanov(D), (word, extra)

    def test_forty_free_circles_are_binomial(self):
        table = khovanov_classical(parse_diagram({"crossings": [], "free_circles": 40}))
        assert table.as_dict() == {(0, 40 - 2 * e): (comb(40, e), ()) for e in range(41)}

    def test_euler_equals_kauffman_oracle(self, diagrams):
        for name in ("unknot", "trefoil", "figure_eight", "hopf", "trefoil_r2"):
            chi = khovanov_classical(diagrams[name]).euler_characteristic()
            assert chi == kauffman_state_sum(diagrams[name]), name


def all_checks(beta: Bracket, D: OrientedDiagram) -> list:
    """``check_colorings`` over every coloring of ``D`` at once."""
    return check_colorings(beta, D, enumerate_colorings(beta.biquandle, D), khovanov_classical(D))


def random_unit_tables(rng: random.Random, X: Biquandle, ring, count: int) -> list:
    """``count`` brackets of random unit tables on ``X`` that fail ``verify_bracket``."""
    units = sorted(ring.units())
    tables = []
    while len(tables) < count:
        A = [[rng.choice(units) for _ in range(X.n)] for _ in range(X.n)]
        B = [[rng.choice(units) for _ in range(X.n)] for _ in range(X.n)]
        if not verify_bracket(X, ring, A, B).ok:
            tables.append(Bracket(X, ring, A, B))
    return tables


def seeded_closures(seed: int, count: int, sizes, strands) -> list:
    """``count`` seeded closed braids; the k-th has ``sizes[k % len(sizes)]`` crossings on ``strands[k % len(strands)]`` strands."""
    rng = random.Random(seed)
    closures = []
    for k in range(count):
        m = strands[k % len(strands)]
        closures.append(parse_diagram(braid_closure(random_braid_word(rng, m, sizes[k % len(sizes)]), m)))
    return closures


class TestBracketCohomology:
    def test_unknot_bh_degrees(self, brackets, diagrams):
        # Unknot complex is M in index 0: ranks at degrees q^{+-1} * G.
        beta = brackets["bracket_z9"]
        ring, G, q = beta.ring, beta.G, beta.q11
        D = diagrams["unknot"]
        colorings = enumerate_colorings(beta.biquandle, D)
        expected = {}
        for e in (1, -1):
            for g in G.sorted_elements():
                d = ring.mul(ring.power(q, e), g)
                expected[(0, d)] = (expected.get((0, d), (0, ()))[0] + 1, ())
        for f, check in zip(colorings, check_colorings(beta, D, colorings, khovanov_classical(D))):
            assert cube_bh(beta, f).as_dict() == expected
            assert check.bh.as_dict() == check.predicted.as_dict() == expected
        assert [(table.as_dict(), m) for table, m in bh_multiset(beta, D)] == [(expected, len(colorings))]

    def test_bh_multiset_invariance(self, brackets, diagrams):
        from conftest import EQUIVALENT_PAIRS

        for name, beta in brackets.items():
            for a, b in EQUIVALENT_PAIRS:
                assert bh_multiset(beta, diagrams[a]) == bh_multiset(beta, diagrams[b]), (name, a, b)

    def test_bh_multiset_folds_once_per_coset(self, brackets, diagrams, monkeypatch):
        # Bh(f) depends on f only through Z_beta(f): the trefoil with 10 free
        # circles has 2,048 z9 colorings in one coset, and one fold.
        from bracketlab import homology

        beta = brackets["bracket_z9"]
        D = parse_diagram({**diagrams["trefoil"].to_json(), "free_circles": 10})
        cosets = z_invariant_multiset(beta, D)
        calls = []
        original = homology.fold_khovanov
        monkeypatch.setattr(homology, "fold_khovanov", lambda *args: calls.append(args) or original(*args))
        tables = bh_multiset(beta, D)
        assert len(calls) == len(cosets) == 1
        assert sum(m for _, m in tables) == 2048

    def test_check_colorings_evaluates_chi_once_per_coset(self, brackets, diagrams, monkeypatch):
        # chi(Bh(f)) depends on f only through Z_beta(f): the trefoil with 10
        # free circles has 2,048 z9 colorings in one coset, and one evaluation.
        from bracketlab import graded

        beta = brackets["bracket_z9"]
        D = parse_diagram({**diagrams["trefoil"].to_json(), "free_circles": 10})
        calls = []
        original = graded.evaluate_formal_sum
        monkeypatch.setattr(graded, "evaluate_formal_sum", lambda *args: calls.append(args) or original(*args))
        checks = all_checks(beta, D)
        assert len(checks) == 2048 and len(calls) == 1
        assert all(check.theorem and check.euler for check in checks)

    def test_bh_multiset_equals_per_coloring_folds(self, brackets, witness, flip, diagrams):
        # One fold per coset gives the multiset of one fold per coloring, on
        # the corpus and on seeded closures with free circles added.  On the
        # Hopf link, the Z/5 bracket's two cosets fold to one table.
        z5 = Bracket(flip, ZModRing(5), [[1, 1], [4, 1]], [[2, 2], [3, 2]])
        assert verify_bracket(flip, z5.ring, z5.A, z5.B).ok
        closures = seeded_closures(21, 6, range(1, 6), (2, 3))
        cases = [diagrams[d] for d in DIAGRAM_NAMES] + [
            parse_diagram({**D.to_json(), "free_circles": D.free_circles + 1 + k % 3}) for k, D in enumerate(closures)
        ]
        several = merged = 0
        for beta in (*brackets.values(), witness, z5):
            for D in cases:
                classical = khovanov_classical(D)
                colorings = enumerate_colorings(beta.biquandle, D)
                expected = multiset(fold_khovanov(classical, beta.G, beta.q11, z_invariant(beta, f)) for f in colorings)
                assert bh_multiset(beta, D) == expected, (beta.A, beta.B, D.to_json())
                several += len(expected) > 1
                merged += len(expected) < len(z_invariant_multiset(beta, D))
        assert several and merged  # tables differ between cosets, and cosets share tables

    def test_fold_equals_cube_on_seeded_closures(self, brackets):
        # check_colorings folds Khovanov homology at Z_beta(f); the direct
        # cube is built apart from it, for every coloring.
        shifted = 0
        for D in seeded_closures(8, 10, range(1, 7), (2, 3)):
            classical = khovanov_classical(D)
            for name in ("bracket_z9", "bracket_gf8"):
                beta = brackets[name]
                colorings = enumerate_colorings(beta.biquandle, D)
                for f, check in zip(colorings, check_colorings(beta, D, colorings, classical)):
                    shifted += check.z != Coset(beta.G, beta.ring.one)
                    assert check.predicted == cube_bh(beta, f), (D.to_json(), name)
        assert shifted  # some Z_beta(f) is not G, so the sweep sees the shift

    @pytest.mark.parametrize("name", ["bracket_z9", "bracket_gf8", "bracket_phi", "bracket_const_z5", "kauffman"])
    def test_cube_equals_reference_builder(self, brackets, diagrams, name):
        # The Bh table check_colorings reports, Khovanov homology folded at
        # the cube unit u(f), is the reference cube's cohomology, on the
        # corpus and on seeded closures of up to 8 crossings; and u(f) is
        # Z_beta(f)'s representative.
        beta = KAUFFMAN if name == "kauffman" else brackets[name]
        cases = [diagrams[d] for d in DIAGRAM_NAMES] + seeded_closures(11, 12, range(1, 9), (2, 3, 4))
        assert max(len(D.crossings) for D in cases) == 8
        checked = 0
        for D in cases:
            colorings = enumerate_colorings(beta.biquandle, D)[:3]
            for f, check in zip(colorings, check_colorings(beta, D, colorings, khovanov_classical(D))):
                assert check.bh == cube_bh(beta, f), (name, D.to_json())
                assert check.theorem and check.euler, (name, D.to_json())
                checked += 1
        assert checked >= len(cases)

    def test_cube_equals_fold_without_bracket_axioms(self, flip, witness, diagrams):
        # Bh(f) is Khovanov homology folded at u(f), and u(f) is Z_beta(f)'s
        # representative, for any unit tables: random ones that fail the
        # bracket axioms as well as the Z/13 witness, whose q moves with the
        # basepoint.
        rng = random.Random(16)
        tables = random_unit_tables(rng, flip, ZModRing(9), 2) + random_unit_tables(rng, flip, ZModRing(7), 2)
        assert all(len(beta.G) > 1 for beta in tables)
        cases = [diagrams[d] for d in DIAGRAM_NAMES] + seeded_closures(17, 5, range(2, 7), (2, 3))
        for beta in (*tables, witness):
            for D in cases:
                colorings = enumerate_colorings(beta.biquandle, D)[:2]
                for f, check in zip(colorings, check_colorings(beta, D, colorings, khovanov_classical(D))):
                    assert check.bh == cube_bh(beta, f), (beta.A, beta.B, D.to_json())
                    assert check.theorem and check.euler, (beta.A, beta.B, D.to_json())

    def test_complex_is_valid(self, brackets, diagrams):
        # d compose d = 0 and degree preservation on every reference cube.
        for name, beta in brackets.items():
            for dname in ("trefoil", "figure_eight", "hopf"):
                D = diagrams[dname]
                for f in enumerate_colorings(beta.biquandle, D):
                    reference_cube_complex(beta, dict(f.arc_colors), D).validate()

    def test_degrees_lie_in_grading_subgroup(self, brackets, diagrams):
        for name, beta in brackets.items():
            H = grading_subgroup(beta)
            for dname in ("trefoil", "figure_eight"):
                D = diagrams[dname]
                for f in enumerate_colorings(beta.biquandle, D):
                    c = reference_cube_complex(beta, dict(f.arc_colors), D)
                    for degs in c.degrees.values():
                        assert all(d in H for d in degs), (name, dname)

    def test_chain_and_homology_euler_agree(self, brackets, diagrams):
        for name, beta in brackets.items():
            for dname in ("trefoil", "hopf"):
                D = diagrams[dname]
                for f in enumerate_colorings(beta.biquandle, D):
                    c = reference_cube_complex(beta, dict(f.arc_colors), D)
                    assert c.euler_characteristic() == cohomology(c).euler_characteristic()


class TestTheoremChecks:
    def test_theorem_gf8_trefoil(self, brackets, diagrams):
        checks = all_checks(brackets["bracket_gf8"], diagrams["trefoil"])
        assert checks
        for check in checks:
            assert check.theorem, (check.bh.to_json(), check.predicted.to_json())

    def test_theorem_nontrivial_g(self, brackets, diagrams):
        beta = brackets["bracket_z9"]
        for dname in ("trefoil", "figure_eight", "hopf"):
            assert all(check.theorem for check in all_checks(beta, diagrams[dname])), dname

    def test_theorem_x0_choices(self, witness, diagrams):
        # The witness's q moves with the basepoint: Khovanov homology folded
        # with the constants of x0 = 2 is the Bh read off at element 1.
        G, q = basepoint_group(witness, 2)
        assert q != witness.q11
        for dname in WITNESS_DIAGRAMS:
            D = diagrams[dname]
            classical = khovanov_classical(D)
            colorings = enumerate_colorings(witness.biquandle, D)
            for f, check in zip(colorings, check_colorings(witness, D, colorings, classical)):
                z = basepoint_z(witness, f, G, 2)
                assert fold_khovanov(classical, G, q, z) == check.predicted, dname
                assert check.theorem and check.euler, dname

    def test_euler_identity_gf8_recovers_bracket(self, brackets, diagrams):
        # G trivial: evaluated Euler characteristic equals beta(f) exactly.
        beta = brackets["bracket_gf8"]
        D = diagrams["trefoil"]
        colorings = enumerate_colorings(beta.biquandle, D)
        checks = check_colorings(beta, D, colorings, khovanov_classical(D))
        for f, value, check in zip(colorings, bracket_values(beta, D, colorings), checks):
            chi = evaluate_formal_sum(cube_bh(beta, f).euler_characteristic(), beta.ring)
            assert chi == value == check.value == check.chi == check.expected
            assert check.euler

    def test_euler_identity_nontrivial_g(self, brackets, diagrams):
        beta = brackets["bracket_z9"]
        for dname in ("trefoil", "hopf"):
            assert all(check.euler for check in all_checks(beta, diagrams[dname])), dname

    def test_checks_read_the_direct_cube(self, brackets, diagrams, monkeypatch):
        # Moving every degree of the direct cube by a unit outside G moves
        # its unit u(f) by that unit, which must fail both checks.
        from bracketlab import homology

        beta = brackets["bracket_gf8"]
        ring = beta.ring
        off = next(u for u in ring.units() if u not in beta.G.elements)
        original = homology._cube_unit
        monkeypatch.setattr(homology, "_cube_unit", lambda *args: ring.mul(original(*args), off))
        checks = all_checks(beta, diagrams["trefoil"])
        assert checks
        for check in checks:
            assert not check.theorem
            assert not check.euler

    def test_z_shift_consistency(self, brackets, diagrams, monkeypatch):
        # The predicted table is shifted by Z_beta(f); a wrong shift must be
        # detected.  With gf8, |G| < |R^x|, so a coset other than Z_beta(f)
        # exists and moves the prediction off Bh(f).
        from bracketlab import homology

        beta = brackets["bracket_gf8"]
        ring, G, q = beta.ring, beta.G, beta.q11
        D = diagrams["trefoil"]
        colorings = enumerate_colorings(beta.biquandle, D)
        zs = {z_invariant(beta, f) for f in colorings}
        assert all(z.canonical in ring.units() for z in zs)
        classical = khovanov_classical(D)
        cubes = [cube_bh(beta, f) for f in colorings]
        for f, bh in zip(colorings, cubes):
            assert fold_khovanov(classical, G, q, z_invariant(beta, f)) == bh
        wrong = [c for c in (Coset(G, u) for u in ring.units()) if c not in zs]
        assert wrong and len(G) < len(ring.units())
        for c in wrong:
            assert fold_khovanov(classical, G, q, c) not in cubes
            monkeypatch.setattr(homology, "z_invariant", lambda beta, f, c=c: c)
            assert not any(check.theorem for check in check_colorings(beta, D, colorings, classical))


class TestChecksAtScale:
    def test_seeded_closures_of_16_to_40_crossings(self, brackets):
        # The theorem and Euler checks build no cube, so they run at the
        # scans' size: 20 seeded closures, 3-strand words of 16-40 crossings
        # and 4-strand words of 16-28 (the tangle scan's time grows with the
        # homology, and some 4-strand 40-crossing closures take a minute).
        # Every bundled bracket has a nonzero sum of G, without which the
        # Euler identity reads 0 = 0; the Z/13 witness's G = {1, 3, 9} sums to 0.
        for name, beta in brackets.items():
            ring = beta.ring
            g_sum = ring.zero
            for g in beta.G.elements:
                g_sum = ring.add(g_sum, g)
            assert g_sum != ring.zero, name
        rng = random.Random(1)
        checked = 0
        for k in range(20):
            strands = 3 + k % 2
            crossings = 16 + (k * 24) // 19 if strands == 3 else 16 + (k * 12) // 19
            word = random_braid_word(rng, strands, crossings)
            D = parse_diagram(braid_closure(word, strands))
            classical = khovanov_classical(D)
            for name, beta in brackets.items():
                colorings = enumerate_colorings(beta.biquandle, D)
                for check in check_colorings(beta, D, colorings, classical):
                    assert check.theorem and check.euler, (name, word, strands)
                    checked += 1
        assert checked == 570


if __name__ == "__main__":
    # Rewrite the pinned closures' tables: PYTHONPATH=src python tests/test_homology.py
    cases = [
        {"strands": 4, "word": word, "khovanov": khovanov_classical(parse_diagram(braid_closure(word, 4))).to_json()}
        for word in PINNED_WORDS
    ]
    CLOSURES.write_text("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")
