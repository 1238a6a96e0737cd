"""Structure theorems of Khovanov homology as oracles for the tables the 2^n cube cannot reach.

The Euler characteristic sees ranks only.  Shumakovitch's F_2 divisibility
(``reduced_f2``) sees even torsion, and Lee's split (``lee_split``) sees
where the ranks sit, and gives Rasmussen's s.  The tables that the other
test modules compute pass both through ``assert_khovanov_theorems``.
"""

import random

from bracketlab.diagram import parse_diagram
from bracketlab.graded import HomologyTable
from bracketlab.homology import khovanov_classical
from conftest import braid_closure, f2_dimensions, lee_split, link_components, random_braid_word, reduced_f2


def table_of(word, strands) -> HomologyTable:
    return khovanov_classical(parse_diagram(braid_closure(word, strands)))


def test_f2_dimensions_and_reduced_table_of_the_trefoil(diagrams):
    # Kh(trefoil; F_2) is Z/2 at (3, 7) read twice, at (3, 7) and at (2, 7),
    # beside the five free generators: three copies of q + q^-1.
    table = khovanov_classical(diagrams["trefoil"])
    assert f2_dimensions(table) == {(0, 1): 1, (0, 3): 1, (2, 5): 1, (2, 7): 1, (3, 7): 1, (3, 9): 1}
    assert reduced_f2(table) == {(0, 2): 1, (2, 6): 1, (3, 8): 1}
    assert reduced_f2(khovanov_classical(diagrams["figure_eight"])) == {
        (-2, -4): 1, (-1, -2): 1, (0, 0): 1, (1, 2): 1, (2, 4): 1
    }
    dropped = HomologyTable.from_dict(None, {**table.as_dict(), (3, 7): (0, ())})
    assert reduced_f2(dropped) is None


def test_lee_split_reads_rasmussen_s(diagrams):
    assert lee_split(khovanov_classical(diagrams["unknot"])) == 0
    assert lee_split(khovanov_classical(diagrams["trefoil"])) == 2
    assert lee_split(khovanov_classical(diagrams["figure_eight"])) == 0
    assert lee_split(table_of([-1, -1, -1], 2)) == -2
    assert lee_split(table_of([1] * 5, 2)) == 4
    # Without its (3, 9) generator the trefoil's (2, 5) has no partner.
    broken = HomologyTable.from_dict(None, {**khovanov_classical(diagrams["trefoil"]).as_dict(), (3, 9): (0, ())})
    assert lee_split(broken) is None


def torsion_mutants(table: HomologyTable):
    """``table`` with one even torsion factor dropped, moved to i + 1 or moved to j + 2, each way once."""
    entries = table.as_dict()
    for (i, j), (rank, torsion) in entries.items():
        for k, factor in enumerate(torsion):
            if factor % 2:
                continue  # odd torsion vanishes over F_2
            for target in (None, (i + 1, j), (i, j + 2)):
                mutant = {**entries, (i, j): (rank, torsion[:k] + torsion[k + 1 :])}
                if target:
                    r, t = mutant.get(target, (0, ()))
                    mutant[target] = (r, tuple(sorted(t + (factor,))))
                yield HomologyTable.from_dict(None, mutant)


def test_torsion_mutants_escape_the_euler_characteristic_and_not_f2():
    # Every mutant keeps the ranks, so the Euler characteristic cannot see
    # it; each changes the F_2 table by an odd total at some degree, or by
    # -q^j + q^{j+2} at two, which q + q^-1 does not divide.
    rng = random.Random(33)
    mutants = 0
    for k in range(60):
        strands = 3 + k % 2
        word = random_braid_word(rng, strands, 8 + k % 13)
        table = table_of(word, strands)
        assert reduced_f2(table) is not None, word
        for mutant in torsion_mutants(table):
            assert mutant.euler_characteristic() == table.euler_characteristic(), word
            assert reduced_f2(mutant) is None, (word, mutant.to_json())
            mutants += 1
    assert mutants == 645


def test_positive_braid_knots_have_s_of_c_minus_n_plus_one():
    # Rasmussen: a positive braid knot of c crossings on n strands has
    # s = c - n + 1, and its mirror -s.
    rng = random.Random(5)
    knots = 0
    while knots < 60:
        strands = rng.choice((3, 4))
        word = [rng.randint(1, strands - 1) for _ in range(rng.randint(6, 18))]
        if link_components(parse_diagram(braid_closure(word, strands))) != 1:
            continue
        s = len(word) - strands + 1
        assert lee_split(table_of(word, strands)) == s, word
        assert lee_split(table_of([-x for x in word], strands)) == -s, word
        knots += 1
