"""Bracket cohomology Bh, by the folding theorem and from the cube of smoothings.

``bh_invariant`` and ``bh_multiset`` compute Bh(f) by the paper's structure
theorem: classical Khovanov homology (the tangle scan in ``tangle``) folded
into R^x and shifted by Z_beta(f).  The direct cube is the independent side
of the checks, built only by ``build_complex`` and ``check_colorings``.

Each smoothing state becomes a tensor power of the rank-2 Frobenius algebra
M = S[t]/(t^2) (one factor per circle), graded and shifted by the state's
signed skein coefficient.  Cube edges carry multiplication/comultiplication
maps scaled by the group element q*q_{x,y}^{-1}, with alternating signs
making the faces anti-commute.  Expanding over the scalar group G reduces
everything to sparse integer matrices; cohomology is computed in ``graded``.

Basis bookkeeping: a tensor word is a tuple over the state's circles (listed
in their deterministic order) with letter 0 for the generator "1" (degree q)
and letter 1 for "t" (degree q^{-1}).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Tuple

from .biquandle import Coloring, Report, enumerate_colorings, multiset
from .bracket import Bracket, bracket_values, crossing_color_pair
from .cocycle import z_invariant
from .diagram import OrientedDiagram, StateCube, smoothing_states, state_cube
from .graded import (
    FiniteUnitsGrading,
    FormalSum,
    GradedComplex,
    HomologyTable,
    InfiniteCyclicGrading,
    cohomology,
    evaluate_formal_sum,
    merge_invariant_factors,
)
from .rings import Coset, UnitSubgroup
from .tangle import khovanov_complex


def _frobenius(letters: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Letters on an edge's target circles, from the letters on its sources.

    Merge m: 1x1 -> 1, 1xt = tx1 -> t, txt -> 0; split Delta: 1 -> 1xt + tx1,
    t -> txt.  Letter 0 is "1" and letter 1 is "t".
    """
    if len(letters) == 2:
        a, b = letters
        return [] if a and b else [(a | b,)]
    return [(0, 1), (1, 0)] if letters[0] == 0 else [(1, 1)]


def _build_cube_complex(beta: Bracket, colors: dict, D: OrientedDiagram, cube: StateCube) -> GradedComplex:
    """The expanded integer complex C_beta on ``cube = state_cube(D)`` for one coloring.

    ``colors`` maps arcs to biquandle elements; q is ``beta.q11`` and g runs
    over ``beta.G``.  A basis element (state, g, word) has degree global
    shift * signed state coefficient * g * q^(#1 - #t); an edge at crossing
    (x, y) takes g to g * q * q_{x,y}^{-1}.
    """
    ring, q = beta.ring, beta.q11
    scalars = beta.G.sorted_elements()
    global_shift = ring.power(beta.w, D.n_minus - D.n_plus)
    if D.n_minus % 2:
        global_shift = ring.neg(global_shift)
    q_power = {}  # #1 - #t -> q^(#1 - #t)

    # Expanded basis per column: (state bits, scalar, word), ordered by state,
    # then scalar, then word, for deterministic output.
    basis: Dict[int, List[tuple]] = {}
    index: Dict[tuple, int] = {}
    degrees: Dict[int, list] = {}
    for bits, state in cube.states.items():
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
                if e not in q_power:
                    q_power[e] = ring.power(q, e)
                degrees.setdefault(col, []).append(ring.mul(base, q_power[e]))

    differentials: Dict[int, List[Dict[int, int]]] = {
        col: [{} for _ in basis[col + 1]] for col in basis if col + 1 in basis
    }

    for edge in cube.edges:
        from_bits = edge.from_state.resolution
        to_bits = edge.to_state.resolution
        matrix = differentials.get(sum(from_bits) - D.n_minus)
        if matrix is None:
            continue
        x, y = crossing_color_pair(D.crossings[edge.changed_crossing], colors)
        step = ring.mul(q, ring.try_invert(beta.q(x, y)))
        out = [0] * edge.to_state.num_circles
        for g in scalars:
            g2 = ring.mul(g, step)
            for word in itertools.product((0, 1), repeat=edge.from_state.num_circles):
                src = index[(from_bits, g, word)]
                for i, j in edge.carried:
                    out[j] = word[i]
                for letters in _frobenius(tuple(word[i] for i in edge.sources)):
                    for j, letter in zip(edge.targets, letters):
                        out[j] = letter
                    row = matrix[index[(to_bits, g2, tuple(out))]]
                    row[src] = row.get(src, 0) + edge.sign

    return GradedComplex(grading=FiniteUnitsGrading(ring), degrees=degrees, differentials=differentials)


def build_complex(beta: Bracket, f: Coloring) -> GradedComplex:
    """The shifted bracket-cohomology complex C_beta(f) on expanded bases."""
    D = f.diagram
    return _build_cube_complex(beta, dict(f.arc_colors), D, state_cube(D))


def khovanov_classical(D: OrientedDiagram) -> HomologyTable:
    """Classical integer-graded Khovanov homology of the diagram, by the tangle scan."""
    return cohomology(khovanov_complex(D))


def kauffman_state_sum(D: OrientedDiagram) -> FormalSum:
    """Unnormalized Jones polynomial by direct state-sum enumeration.

    chi = (-1)^{n_-} q^{n_+ - 2 n_-} sum_s (-q)^{|s|} (q + q^{-1})^{circles(s)},
    computed on exponents without any homological machinery.
    """
    grading = InfiniteCyclicGrading()
    total: Dict[int, int] = {}
    shift = D.n_plus - 2 * D.n_minus
    for state in smoothing_states(D):
        w = state.weight
        sign = -1 if (w + D.n_minus) % 2 else 1
        # (q + q^{-1})^c expanded by binomial enumeration.
        for letters in itertools.product((1, -1), repeat=state.num_circles):
            e = shift + w + sum(letters)
            total[e] = total.get(e, 0) + sign
    return FormalSum(grading, total)


def fold_khovanov(classical: HomologyTable, G: UnitSubgroup, q, z: Coset) -> HomologyTable:
    """Classical Khovanov homology folded into R^x: the prediction of Bh(f).

    The classical table's q-exponents are mapped through j -> q^j, shifted by
    the coset Z_beta(f), and expanded over G (one copy per group element).
    """
    ring = G.ring
    predicted: Dict[tuple, list] = {}
    for (i, j), rank, tors in classical.entries:
        base = ring.mul(ring.power(q, j), z.representative)
        for g in G.sorted_elements():
            h = ring.mul(base, g)
            bucket = predicted.setdefault((i, h), [0, []])
            bucket[0] += rank
            if tors:
                bucket[1].append(list(tors))
    return HomologyTable.from_dict(
        FiniteUnitsGrading(ring),
        {key: (rank, merge_invariant_factors(tlists)) for key, (rank, tlists) in predicted.items()},
    )


def bh_invariant(beta: Bracket, f: Coloring) -> HomologyTable:
    """Bh(f): Khovanov homology of the diagram folded by ``fold_khovanov``."""
    return fold_khovanov(khovanov_classical(f.diagram), beta.G, beta.q11, z_invariant(beta, f))


def bh_multiset(beta: Bracket, D: OrientedDiagram) -> List[tuple]:
    """Multiset of Bh tables over all colorings, as sorted pairs.

    One Khovanov table of ``D`` is folded by each coloring's Z_beta coset.
    """
    classical = khovanov_classical(D)
    zs = (z_invariant(beta, f) for f in enumerate_colorings(beta.biquandle, D))
    tables = (fold_khovanov(classical, beta.G, beta.q11, z) for z in zs)
    return multiset(tables, lambda table: table.entries)


def theorem_report(bh: HomologyTable, classical: HomologyTable, G: UnitSubgroup, q, z: Coset) -> Report:
    """Bh(f) against classical Khovanov homology folded by ``fold_khovanov``."""
    predicted = fold_khovanov(classical, G, q, z)
    details = {
        "bh": bh.to_json(),
        "predicted_from_classical": predicted.to_json(),
        "z_shift": z.to_json(),
        "G": G.to_json(),
    }
    return Report("", predicted == bh, [], details)


def euler_report(bh: HomologyTable, G: UnitSubgroup, value) -> Report:
    """chi(Bh(f)) evaluated in R against (sum of G) * beta(f)."""
    ring = G.ring
    lhs = evaluate_formal_sum(bh.euler_characteristic(), ring)
    g_sum = ring.zero
    for g in G.elements:
        g_sum = ring.add(g_sum, g)
    rhs = ring.mul(g_sum, value)
    details = {"euler_evaluated": ring.element_to_json(lhs), "gdim_times_bracket": ring.element_to_json(rhs)}
    return Report("", lhs == rhs, [], details)


class ColoringCheck(NamedTuple):
    """One coloring's values, its Bh table from the direct cube, and the checks on them."""

    value: object  # the bracket value beta(f)
    z: Coset
    bh: HomologyTable
    theorem: Report
    euler: Report
    euler_complex: bool  # chi(C) = chi(H(C)) on the built complex


def check_colorings(
    beta: Bracket, D: OrientedDiagram, colorings: List[Coloring], classical: HomologyTable
) -> List[ColoringCheck]:
    """Each coloring's direct Bh cube against its bracket value and the folded Khovanov table.

    ``classical`` is ``khovanov_classical(D)``.  The state cube of ``D`` is
    built once and the bracket values come from one scan; each complex
    lives only for its own coloring's checks.
    """
    G, q = beta.G, beta.q11
    cube = state_cube(D)
    checks = []
    for f, value in zip(colorings, bracket_values(beta, D, colorings)):
        z = z_invariant(beta, f)
        c = _build_cube_complex(beta, dict(f.arc_colors), D, cube)
        bh = cohomology(c)
        checks.append(ColoringCheck(
            value, z, bh,
            theorem_report(bh, classical, G, q, z),
            euler_report(bh, G, value),
            c.euler_characteristic() == bh.euler_characteristic(),
        ))
    return checks


def _check_one(beta: Bracket, f: Coloring) -> ColoringCheck:
    return check_colorings(beta, f.diagram, [f], khovanov_classical(f.diagram))[0]


def check_theorem(beta: Bracket, f: Coloring) -> Report:
    """Verify Bh(f) from the direct cube equals classical Khovanov folded into R^x and shifted."""
    return _check_one(beta, f).theorem


def check_euler_identity(beta: Bracket, f: Coloring) -> Report:
    """Verify chi(Bh(f)) from the direct cube evaluates in R to (sum of G) * beta(f)."""
    return _check_one(beta, f).euler
