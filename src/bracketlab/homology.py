"""Bracket cohomology Bh, by the folding theorem.

By the paper's structure theorem Bh(f) is classical Khovanov homology (the
tangle scan in ``tangle``) folded into R^x and shifted by Z_beta(f), so it
depends on the diagram and on the Z_beta coset of f alone.  ``bh_multiset``
folds the diagram's Khovanov table once per coset.

Bh(f) is defined as the cohomology of a cube of smoothings.  A basis element
is a state, a scalar g in G and a tensor word of the rank-2 Frobenius algebra
on the state's circles; its degree is the global shift (-1)^{n_-}
w^{n_- - n_+} times the state's signed skein coefficients times g times
q^(#1 - #t), and the edge at a crossing colored (x, y) takes g to
g * q * q_{x,y}^{-1}.  At every crossing the bit-1 factor -B (or -A^{-1})
times that step is the bit-0 factor A (or B^{-1}) times q.  So relabelling
each basis element's g by the inverse steps of its 1-bits turns the cube into
|G| copies of the Khovanov cube, and multiplies every degree q^j by one unit

    u(f) = (-1)^{n_-} w^{n_- - n_+} (product of the bit-0 coefficients) q^{2 n_- - n_+},

whatever the bracket's tables.  Bh(f) is therefore the Khovanov table folded
at u(f), and the theorem says that u(f) lies in Z_beta(f).
``check_colorings`` checks the stronger identity u(f) = Z_beta(f)'s
representative per coloring in O(n), without building the 2^n cube; the
tests build that cube as their reference.  For the Euler identity it keeps
both sides, chi(Bh(f)) evaluated in R and (sum of G) * beta(f); chi(Bh(f))
depends on the coset alone, so it is evaluated once per coset.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from typing import TYPE_CHECKING, List, NamedTuple

from .biquandle import Coloring
from .bracket import Bracket, bracket_values
from .cocycle import z_invariant, z_invariant_multiset
from .diagram import OrientedDiagram
from .rings import Coset, UnitSubgroup

if TYPE_CHECKING:
    from .graded import HomologyTable


def khovanov_classical(D: OrientedDiagram) -> HomologyTable:
    """Classical integer-graded Khovanov homology of the diagram, by the tangle scan."""
    # Imported here, so that a process computing no homology never compiles them.
    from .graded import cohomology
    from .tangle import khovanov_complex, tensor_free_circles

    return tensor_free_circles(cohomology(khovanov_complex(D)), D.free_circles)


def fold_khovanov(classical: HomologyTable, G: UnitSubgroup, q, z: Coset) -> HomologyTable:
    """Classical Khovanov homology folded into R^x: the prediction of Bh(f).

    The classical table's q-exponents are mapped through j -> q^j, shifted by
    the coset Z_beta(f), and expanded over G (one copy per group element).
    """
    ring = G.ring

    def spread(j):
        base = ring.mul(ring.power(q, j), z.representative)
        return [(ring.mul(base, g), 1) for g in G.sorted_elements()]

    return classical.regraded(ring, spread)


def bh_multiset(beta: Bracket, D: OrientedDiagram) -> List[tuple]:
    """Multiset of Bh tables over all colorings, as sorted pairs.

    The Khovanov table of ``D`` is folded once per Z_beta coset, and equal
    tables add up their multiplicities.
    """
    classical = khovanov_classical(D)
    tables: Counter = Counter()
    for z, m in z_invariant_multiset(beta, D):
        tables[fold_khovanov(classical, beta.G, beta.q11, z)] += m
    return sorted(tables.items())


def _cube_unit(beta: Bracket, shift, f: Coloring):
    """u(f): the unit by which the direct cube multiplies every Khovanov degree q^j.

    Read off the bracket as the cube's degrees read it: ``shift``, the
    coloring-independent (-1)^{n_-} w^{n_- - n_+} q^{2 n_- - n_+}, times the
    bit-0 entries of ``beta.signature(f)``.  See the module docstring.
    """
    return reduce(beta.ring.mul, beta.signature(f)[::2], shift)


class ColoringCheck(NamedTuple):
    """One coloring's values, with what its theorem and Euler checks compare."""

    value: object  # the bracket value beta(f)
    z: Coset  # Z_beta(f), a coset of G
    bh: HomologyTable  # Bh(f): the Khovanov table folded at u(f)
    predicted: HomologyTable  # the Khovanov table folded at Z_beta(f)
    theorem: bool  # u(f) is Z_beta(f)'s representative
    chi: object  # chi(Bh(f)) evaluated in R
    expected: object  # (sum of G) * beta(f)

    @property
    def euler(self) -> bool:
        """The Euler identity: chi(Bh(f)) evaluated in R is (sum of G) * beta(f)."""
        return self.chi == self.expected


def check_colorings(
    beta: Bracket, D: OrientedDiagram, colorings: List[Coloring], classical: HomologyTable
) -> List[ColoringCheck]:
    """Each coloring's folding theorem and Euler identity, in O(n) per coloring.

    ``classical`` is ``khovanov_classical(D)``, built once per diagram by the
    caller.  The bracket values come from one scan, and the Khovanov table is
    folded, and its Euler characteristic evaluated, once per coset.  The
    theorem compares u(f), read off the bracket coefficients as the cube
    reads them, with Z_beta(f), read off as ``cocycle.z_invariant``
    normalises them by A_{1,1} and B_{1,1}; the Euler identity compares the
    tangle scan with the bracket scan.
    """
    # Imported here, so that a process computing no homology never compiles it.
    from .graded import evaluate_formal_sum

    G, q, ring = beta.G, beta.q11, beta.ring
    g_sum = reduce(ring.add, G.elements, ring.zero)
    shift = ring.mul(ring.power(beta.w, D.n_minus - D.n_plus), ring.power(q, 2 * D.n_minus - D.n_plus))
    if D.n_minus % 2:
        shift = ring.neg(shift)

    @cache
    def fold(z: Coset) -> tuple:
        table = fold_khovanov(classical, G, q, z)
        return table, evaluate_formal_sum(table.euler_characteristic(), ring)

    checks = []
    for f, value in zip(colorings, bracket_values(beta, D, colorings)):
        u, z = _cube_unit(beta, shift, f), z_invariant(beta, f)
        bh, chi = fold(Coset(G, u))
        checks.append(ColoringCheck(value, z, bh, fold(z)[0], u == z.representative, chi, ring.mul(g_sum, value)))
    return checks
