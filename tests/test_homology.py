import itertools
import random

import pytest

from bracketlab.biquandle import Biquandle, enumerate_colorings
from bracketlab.bracket import Bracket, crossing_color_pair
from bracketlab.cocycle import z_invariant
from bracketlab.diagram import OrientedDiagram, parse_diagram, resolve_state
from bracketlab.graded import GradedComplex, HomologyTable, cohomology, evaluate_formal_sum
from bracketlab.homology import (
    _coefficient_signature,
    bh_invariant,
    bh_multiset,
    build_complex,
    check_euler_identity,
    check_theorem,
    fold_khovanov,
    khovanov_classical,
    theorem_report,
)
from bracketlab.rings import Coset, ZModRing
from conftest import (
    DIAGRAM_NAMES,
    WITNESS_DIAGRAMS,
    basepoint_group,
    basepoint_z,
    braid_closure,
    grading_subgroup,
    kauffman_state_sum,
    random_braid_word,
)


# The Kauffman bracket over Z/257 on the one-element biquandle: A = 3 and
# B = 86 = 3^{-1}.  Its G is {1} and its q = -A^{-2} = 57 has order 128.
KAUFFMAN = Bracket(Biquandle([[1]], [[1]]), ZModRing(257), [[3]], [[86]])


def cube_khovanov(D: OrientedDiagram) -> HomologyTable:
    """Classical Khovanov homology from the whole 2^n cube of smoothings.

    Bh of the Kauffman bracket is Khovanov homology with each q-degree j
    written as q^j; the degrees are read back as j.  Independent
    cross-check of the tangle scan in ``khovanov_classical``.
    """
    ring, q = KAUFFMAN.ring, KAUFFMAN.q11
    assert KAUFFMAN.G.elements == {ring.one} and q == 57
    # j = n_+ - 2 n_- + (1-bits) + (#1 - #t), and a state has at most 2n + free circles.
    n, circles = len(D.crossings), 2 * len(D.crossings) + D.free_circles
    js = range(D.n_plus - 2 * D.n_minus - circles, D.n_plus - 2 * D.n_minus + n + circles + 1)
    exponent = {ring.power(q, j): j for j in js}
    assert len(exponent) == len(js), "q^j does not tell the diagram's q-degrees apart"
    (f,) = enumerate_colorings(KAUFFMAN.biquandle, D)
    table = cohomology(build_complex(KAUFFMAN, f))
    return HomologyTable.from_dict(
        None, {(i, exponent[h]): (rank, tors) for (i, h), rank, tors in table.entries}
    )


def reference_cube_complex(beta: Bracket, colors: dict, D: OrientedDiagram) -> GradedComplex:
    """The direct cube C_beta built word by word, keyed by (state bits, g, letter tuple).

    The reference for ``homology.build_complex``: every basis element gets
    its own index entry and degree, and every edge term is looked up by
    its key.  Words are tuples over the state's circles in
    ``itertools.product`` order; the Frobenius maps are written out here.
    Each state is resolved by ``resolve_state``; an edge carries each
    circle with the same edge labels in both states, and the circles left
    over are the ones it merges or splits.
    """

    def frobenius(letters):
        # Merge: 1x1 -> 1, 1xt = tx1 -> t, txt -> 0; split: 1 -> 1xt + tx1, t -> txt.
        if len(letters) == 2:
            a, b = letters
            return [] if a and b else [(a | b,)]
        return [(0, 1), (1, 0)] if letters[0] == 0 else [(1, 1)]

    ring, q = beta.ring, beta.q11
    scalars = beta.G.sorted_elements()
    global_shift = ring.power(beta.w, D.n_minus - D.n_plus)
    if D.n_minus % 2:
        global_shift = ring.neg(global_shift)
    states = {bits: resolve_state(D, bits) for bits in itertools.product((0, 1), repeat=len(D.crossings))}
    basis, index, degrees = {}, {}, {}
    for bits, state in states.items():
        col = sum(bits) - D.n_minus
        shift = global_shift
        for crossing, bit in zip(D.crossings, bits):
            shift = ring.mul(shift, beta.coefficient(crossing, bit, colors))
        if sum(bits) % 2:
            shift = ring.neg(shift)
        for g in scalars:
            base = ring.mul(shift, g)
            for word in itertools.product((0, 1), repeat=state.num_circles):
                key = (bits, g, word)
                basis.setdefault(col, []).append(key)
                index[key] = len(basis[col]) - 1
                e = len(word) - 2 * sum(word)
                degrees.setdefault(col, []).append(ring.mul(base, ring.power(q, e)))
    differentials = {col: [{} for _ in basis[col + 1]] for col in basis if col + 1 in basis}
    for from_bits, a in states.items():
        for pos in (pos for pos, bit in enumerate(from_bits) if bit == 0):
            to_bits = from_bits[:pos] + (1,) + from_bits[pos + 1 :]
            b = states[to_bits]
            carried = [(i, b.circles.index(c)) for i, c in enumerate(a.circles) if c in b.circles]
            sources = [i for i, c in enumerate(a.circles) if c not in b.circles]
            targets = [j for j, c in enumerate(b.circles) if c not in a.circles]
            sign = (-1) ** sum(from_bits[:pos])
            matrix = differentials[sum(from_bits) - D.n_minus]
            x, y = crossing_color_pair(D.crossings[pos], colors)
            step = ring.mul(q, ring.try_invert(beta.q(x, y)))
            out = [0] * b.num_circles
            for g in scalars:
                g2 = ring.mul(g, step)
                for word in itertools.product((0, 1), repeat=a.num_circles):
                    src = index[(from_bits, g, word)]
                    for i, j in carried:
                        out[j] = word[i]
                    for letters in frobenius(tuple(word[i] for i in sources)):
                        for j, letter in zip(targets, letters):
                            out[j] = letter
                        row = matrix[index[(to_bits, g2, tuple(out))]]
                        row[src] = row.get(src, 0) + sign
    return GradedComplex(ring=ring, degrees=degrees, differentials=differentials)


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

    def test_euler_equals_kauffman_oracle(self, diagrams):
        for name in ("unknot", "trefoil", "figure_eight", "hopf", "trefoil_r2"):
            chi = khovanov_classical(diagrams[name]).euler_characteristic()
            assert chi == kauffman_state_sum(diagrams[name]), name


class TestBracketCohomology:
    def test_unknot_bh_degrees(self, brackets, diagrams):
        # Unknot complex is M in index 0: ranks at degrees q^{+-1} * G.
        beta = brackets["bracket_z9"]
        ring, G, q = beta.ring, beta.G, beta.q11
        f = enumerate_colorings(beta.biquandle, diagrams["unknot"])[0]
        table = cohomology(build_complex(beta, f))
        expected = {}
        for e in (1, -1):
            for g in G.sorted_elements():
                d = ring.mul(ring.power(q, e), g)
                expected[(0, d)] = (expected.get((0, d), (0, ()))[0] + 1, ())
        assert table.as_dict() == expected

    def test_bh_multiset_invariance(self, brackets, diagrams):
        from conftest import EQUIVALENT_PAIRS

        for name, beta in brackets.items():
            for a, b in EQUIVALENT_PAIRS:
                assert bh_multiset(beta, diagrams[a]) == bh_multiset(beta, diagrams[b]), (name, a, b)

    def test_fold_equals_cube_on_seeded_closures(self, brackets):
        # bh_invariant folds Khovanov homology; the direct cube is built
        # apart from it, for every coloring.
        rng = random.Random(8)
        shifted = 0
        for k in range(10):
            strands, crossings = 2 + k % 2, 1 + k % 6
            word = random_braid_word(rng, strands, crossings)
            D = parse_diagram(braid_closure(word, strands))
            for name in ("bracket_z9", "bracket_gf8"):
                beta = brackets[name]
                for f in enumerate_colorings(beta.biquandle, D):
                    shifted += z_invariant(beta, f) != Coset(beta.G, beta.ring.one)
                    cube = cohomology(build_complex(beta, f))
                    assert bh_invariant(beta, f) == cube, (word, strands, name)
        assert shifted  # some Z_beta(f) is not G, so the sweep sees the shift

    @pytest.mark.parametrize("name", ["bracket_z9", "bracket_gf8", "bracket_phi", "bracket_const_z5", "kauffman"])
    def test_cube_equals_reference_builder(self, brackets, diagrams, name):
        # Same columns, degrees and rows, each row's entries inserted in the
        # same order, so the cohomology's pivots are the same too.
        beta = KAUFFMAN if name == "kauffman" else brackets[name]
        rng = random.Random(11)
        cases = [diagrams[d] for d in DIAGRAM_NAMES]
        for k in range(12):
            strands, crossings = 2 + k % 3, 1 + k % 6
            cases.append(parse_diagram(braid_closure(random_braid_word(rng, strands, crossings), strands)))
        built = 0
        for D in cases:
            for f in enumerate_colorings(beta.biquandle, D):
                c = build_complex(beta, f)
                ref = reference_cube_complex(beta, dict(f.arc_colors), D)
                assert list(c.degrees.items()) == list(ref.degrees.items())
                assert list(c.differentials) == list(ref.differentials)
                for col, rows in ref.differentials.items():
                    assert [list(row.items()) for row in c.differentials[col]] == [list(row.items()) for row in rows]
                built += 1
        assert built >= len(cases)

    def test_equal_signatures_build_equal_complexes(self, brackets, diagrams, witness):
        # check_colorings builds one complex per coefficient signature, so
        # the signature must fix everything the builder reads of a coloring.
        rng = random.Random(14)
        cases = [diagrams[d] for d in DIAGRAM_NAMES]
        for k in range(10):
            cases.append(parse_diagram(braid_closure(random_braid_word(rng, 3, 2 + k % 5), 3)))
        shared = split = 0
        for beta in (*brackets.values(), witness):
            for D in cases:
                groups = {}
                for f in enumerate_colorings(beta.biquandle, D):
                    groups.setdefault(_coefficient_signature(beta, D, dict(f.arc_colors)), []).append(f)
                split += len(groups) > 1
                for group in groups.values():
                    first = build_complex(beta, group[0])
                    for f in group[1:]:
                        c = build_complex(beta, f)
                        assert (c.degrees, c.differentials) == (first.degrees, first.differentials)
                        shared += 1
        assert shared and split  # some colorings share a complex, and some diagrams need several

    def test_complex_is_valid(self, brackets, diagrams):
        # d compose d = 0 and degree preservation on every built complex.
        for name, beta in brackets.items():
            for dname in ("trefoil", "figure_eight", "hopf"):
                for f in enumerate_colorings(beta.biquandle, diagrams[dname]):
                    build_complex(beta, f).validate()

    def test_degrees_lie_in_grading_subgroup(self, brackets, diagrams):
        for name, beta in brackets.items():
            H = grading_subgroup(beta)
            for dname in ("trefoil", "figure_eight"):
                for f in enumerate_colorings(beta.biquandle, diagrams[dname]):
                    c = build_complex(beta, f)
                    for degs in c.degrees.values():
                        assert all(d in H for d in degs), (name, dname)

    def test_chain_and_homology_euler_agree(self, brackets, diagrams):
        for name, beta in brackets.items():
            for dname in ("trefoil", "hopf"):
                for f in enumerate_colorings(beta.biquandle, diagrams[dname]):
                    c = build_complex(beta, f)
                    assert c.euler_characteristic() == cohomology(c).euler_characteristic()


class TestTheoremChecks:
    def test_theorem_gf8_trefoil(self, brackets, diagrams):
        beta = brackets["bracket_gf8"]
        for f in enumerate_colorings(beta.biquandle, diagrams["trefoil"]):
            report = check_theorem(beta, f)
            assert report.ok, report.details

    def test_theorem_nontrivial_g(self, brackets, diagrams):
        beta = brackets["bracket_z9"]
        for dname in ("trefoil", "figure_eight", "hopf"):
            for f in enumerate_colorings(beta.biquandle, diagrams[dname]):
                assert check_theorem(beta, f).ok

    def test_theorem_x0_choices(self, witness, diagrams):
        # The witness's q moves with the basepoint: Khovanov homology folded
        # with the constants of x0 = 2 is the Bh read off at element 1.
        G, q = basepoint_group(witness, 2)
        assert q != witness.q11
        for dname in WITNESS_DIAGRAMS:
            classical = khovanov_classical(diagrams[dname])
            for f in enumerate_colorings(witness.biquandle, diagrams[dname]):
                z = basepoint_z(witness, f, G, 2)
                assert fold_khovanov(classical, G, q, z) == bh_invariant(witness, f), dname
                assert check_theorem(witness, f).ok and check_euler_identity(witness, f).ok, dname

    def test_euler_identity_gf8_recovers_bracket(self, brackets, diagrams):
        # G trivial: evaluated Euler characteristic equals beta(f) exactly.
        from bracketlab.bracket import bracket_value

        beta = brackets["bracket_gf8"]
        for f in enumerate_colorings(beta.biquandle, diagrams["trefoil"]):
            table = cohomology(build_complex(beta, f))
            chi = evaluate_formal_sum(table.euler_characteristic(), beta.ring)
            assert chi == bracket_value(beta, f)
            assert check_euler_identity(beta, f).ok

    def test_euler_identity_nontrivial_g(self, brackets, diagrams):
        beta = brackets["bracket_z9"]
        for dname in ("trefoil", "hopf"):
            for f in enumerate_colorings(beta.biquandle, diagrams[dname]):
                assert check_euler_identity(beta, f).ok

    def test_library_checks_compute_shared_values_once(self, brackets, diagrams, monkeypatch):
        # One build of the cube's word maps per call of check_theorem or
        # check_euler_identity.
        from bracketlab import homology

        calls = {"cube_words": 0}
        for name in calls:
            original = getattr(homology, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(homology, name, counted)
        beta = brackets["bracket_z9"]
        f = enumerate_colorings(beta.biquandle, diagrams["trefoil_r2"])[0]
        for check in (check_theorem, check_euler_identity):
            calls.update(cube_words=0)
            assert check(beta, f).ok
            assert calls == {"cube_words": 1}, check.__name__

    def test_checks_read_the_direct_cube(self, brackets, diagrams, monkeypatch):
        # Moving every degree of the direct cube by a unit outside G must
        # fail both checks; checks that took Bh from the fold would pass.
        from bracketlab import homology

        beta = brackets["bracket_gf8"]
        ring = beta.ring
        off = next(u for u in ring.units() if u not in beta.G.elements)
        original = homology._build_cube_complex

        def moved(*args):
            c = original(*args)
            c.degrees = {i: [ring.mul(d, off) for d in degs] for i, degs in c.degrees.items()}
            return c

        monkeypatch.setattr(homology, "_build_cube_complex", moved)
        for f in enumerate_colorings(beta.biquandle, diagrams["trefoil"]):
            assert not check_theorem(beta, f).ok
            assert not check_euler_identity(beta, f).ok

    def test_z_shift_consistency(self, brackets, diagrams):
        # The predicted table is shifted by Z_beta(f); a wrong shift must be
        # detected.  With gf8, |G| < |R^x|, so a coset other than Z_beta(f)
        # exists and moves the prediction off Bh(f).
        beta = brackets["bracket_gf8"]
        ring, G, q = beta.ring, beta.G, beta.q11
        f = enumerate_colorings(beta.biquandle, diagrams["trefoil"])[0]
        z = z_invariant(beta, f)
        assert z.canonical in ring.units()
        bh = cohomology(build_complex(beta, f))
        classical = khovanov_classical(f.diagram)
        assert fold_khovanov(classical, G, q, z) == bh
        wrong = [c for c in (Coset(G, u) for u in ring.units()) if c != z]
        assert wrong and len(G) < len(ring.units())
        for c in wrong:
            assert fold_khovanov(classical, G, q, c) != bh
            assert not theorem_report(bh, fold_khovanov(classical, G, q, c), G, c).ok
