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

Basis bookkeeping: a tensor word on a state of k circles (listed in their
deterministic order) is an int below 2^k, with circle 0 as the high bit; bit
0 is the generator "1" (degree q) and bit 1 is "t" (degree q^{-1}), so words
count up in ``itertools.product`` order.  A column lists its states in bit
order, each as |G| blocks of 2^k words (G sorted), so (state, g, word) sits
at |G| * (state offset) + (position of g) * 2^k + word, where the state's
offset counts the words of the column's earlier states.  The offsets and
each edge's (source word, target word) pairs depend only on the diagram:
``cube_words`` builds them from one walk of the resolved states, and a
coloring adds only degrees and g-moves.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .biquandle import Coloring, Report, enumerate_colorings, multiset
from .bracket import Bracket, bracket_values, crossing_color_pair
from .cocycle import z_invariant
from .diagram import OrientedDiagram, smoothing_states
from .graded import GradedComplex, HomologyTable, cohomology, evaluate_formal_sum, merge_invariant_factors
from .rings import Coset, UnitSubgroup
from .tangle import khovanov_complex


class _CubeWords(NamedTuple):
    """The direct cube's bookkeeping that depends only on the diagram.

    ``states`` holds (column, number of circles k) per state in bit order;
    ``size`` maps each column to its number of words, in the order the
    columns first occur.  ``edges`` holds, per cube edge, (changed crossing,
    sign, column, source offset, source k, target offset, target k, pairs),
    where an offset counts the words of the column's earlier states and
    ``pairs`` lists the (source word, target word) terms of the edge's merge
    or split map.  ``t_letters[k]`` is the number of t letters of each word
    on k circles.
    """

    states: List[Tuple[int, int]]
    size: Dict[int, int]
    edges: List[tuple]
    t_letters: List[Tuple[int, ...]]


def cube_words(D: OrientedDiagram) -> _CubeWords:
    """The direct cube's word maps and state offsets, from one walk of the smoothing states.

    State a, its bits read as a number with the first crossing the high bit,
    has an edge to a | bit for each of its 0-bits.  A circle with the same
    edge labels in both states is carried; the others are merged two into
    one or split one into two.  The edge's sign is (-1)^(1-bits before the
    changed one), which makes the faces anti-commute.
    """
    n = len(D.crossings)
    position, offsets, states, size = [], [], [], {}
    for state in smoothing_states(D):
        col, k = state.weight - D.n_minus, state.num_circles
        offsets.append(size.get(col, 0))
        size[col] = offsets[-1] + (1 << k)
        states.append((col, k))
        position.append({circle: j for j, circle in enumerate(state.circles)})
    edges = []
    for a, (col, k1) in enumerate(states):
        for pos in range(n):
            b = a | 1 << (n - 1 - pos)
            if b == a:
                continue
            k2 = states[b][1]
            moved = [position[b].get(circle) for circle in position[a]]  # None for a changed circle
            # kept[s]: the carried letters of source word s, at their target bits.
            kept = [0]
            for j in reversed(moved):
                bit = 0 if j is None else 1 << (k2 - 1 - j)
                kept += [word + bit for word in kept]
            src = [1 << (k1 - 1 - i) for i, j in enumerate(moved) if j is None]
            dst = [1 << (k2 - 1 - j) for j in range(k2) if j not in moved]
            if len(src) == 2:  # m: 1x1 -> 1, 1xt = tx1 -> t, txt -> 0
                (m1, m2), (t,) = src, dst
                pairs = [(s, word + (t if s & (m1 | m2) else 0)) for s, word in enumerate(kept) if not (s & m1 and s & m2)]
            else:  # Delta: 1 -> 1xt + tx1, t -> txt
                (m,), (t1, t2) = src, dst
                pairs = []
                for s, word in enumerate(kept):
                    pairs += [(s, word + t1 + t2)] if s & m else [(s, word + t2), (s, word + t1)]
            sign = -1 if bin(a >> (n - pos)).count("1") % 2 else 1
            edges.append((pos, sign, col, offsets[a], k1, offsets[b], k2, pairs))
    most = max(k for _, k in states)
    t_letters = [tuple(bin(word).count("1") for word in range(1 << k)) for k in range(most + 1)]
    return _CubeWords(states, size, edges, t_letters)


def _build_cube_complex(beta: Bracket, colors: dict, D: OrientedDiagram, words: _CubeWords) -> GradedComplex:
    """The expanded integer complex C_beta on ``words = cube_words(D)`` for one coloring.

    ``colors`` maps arcs to biquandle elements; q is ``beta.q11`` and g runs
    over ``beta.G``.  A basis element (state, g, word) has degree global
    shift * signed state coefficient * g * q^(#1 - #t); an edge at crossing
    (x, y) takes g to g * q * q_{x,y}^{-1}.  Its index in its column is
    |G| * (state offset) + (position of g) * 2^k + word.
    """
    ring, q = beta.ring, beta.q11
    scalars = beta.G.sorted_elements()
    global_shift = ring.power(beta.w, D.n_minus - D.n_plus)
    if D.n_minus % 2:
        global_shift = ring.neg(global_shift)
    # Signed state coefficients in bit order, the first crossing the high bit.
    shifts = [global_shift]
    for crossing in D.crossings:
        coefficients = beta.coefficient(crossing, 0, colors), ring.neg(beta.coefficient(crossing, 1, colors))
        shifts = [ring.mul(shift, c) for shift in shifts for c in coefficients]
    most = len(words.t_letters) - 1
    q_power = {e: ring.power(q, e) for e in range(-most, most + 1)}  # #1 - #t -> q^(#1 - #t)
    degrees: Dict[int, list] = {col: [] for col in words.size}
    for (col, k), shift in zip(words.states, shifts):
        for g in scalars:
            base = ring.mul(shift, g)
            by_t = [ring.mul(base, q_power[k - 2 * t]) for t in range(k + 1)]
            degrees[col].extend(map(by_t.__getitem__, words.t_letters[k]))

    position = {g: i for i, g in enumerate(scalars)}
    moves = []  # per crossing, the position of g * q * q_{x,y}^{-1} for each g
    for crossing in D.crossings:
        x, y = crossing_color_pair(crossing, colors)
        step = ring.mul(q, ring.try_invert(beta.q(x, y)))
        moves.append([position[ring.mul(g, step)] for g in scalars])
    n = len(scalars)
    differentials: Dict[int, List[Dict[int, int]]] = {
        col: [{} for _ in range(n * words.size[col + 1])] for col in words.size if col + 1 in words.size
    }
    for crossing, sign, col, src_offset, k1, dst_offset, k2, pairs in words.edges:
        matrix = differentials[col]
        for i, j in enumerate(moves[crossing]):
            src, dst = n * src_offset + (i << k1), n * dst_offset + (j << k2)
            for s, t in pairs:
                matrix[dst + t][src + s] = sign

    return GradedComplex(ring=ring, degrees=degrees, differentials=differentials)


def build_complex(beta: Bracket, f: Coloring) -> GradedComplex:
    """The shifted bracket-cohomology complex C_beta(f) on expanded bases."""
    D = f.diagram
    return _build_cube_complex(beta, dict(f.arc_colors), D, cube_words(D))


def khovanov_classical(D: OrientedDiagram) -> HomologyTable:
    """Classical integer-graded Khovanov homology of the diagram, by the tangle scan."""
    return cohomology(khovanov_complex(D))


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
        ring, {key: (rank, merge_invariant_factors(tlists)) for key, (rank, tlists) in predicted.items()}
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
    return multiset(tables)


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
    beta: Bracket, D: OrientedDiagram, colorings: List[Coloring], classical: HomologyTable, words: _CubeWords
) -> List[ColoringCheck]:
    """Each coloring's direct Bh cube against its bracket value and the folded Khovanov table.

    ``classical`` is ``khovanov_classical(D)`` and ``words`` is
    ``cube_words(D)``, both built once per diagram by the caller.  The
    bracket values come from one scan; each complex lives only for its own
    coloring's checks.
    """
    G, q = beta.G, beta.q11
    checks = []
    for f, value in zip(colorings, bracket_values(beta, D, colorings)):
        z = z_invariant(beta, f)
        c = _build_cube_complex(beta, dict(f.arc_colors), D, words)
        bh = cohomology(c)
        checks.append(ColoringCheck(
            value, z, bh,
            theorem_report(bh, classical, G, q, z),
            euler_report(bh, G, value),
            c.euler_characteristic() == bh.euler_characteristic(),
        ))
    return checks


def _check_one(beta: Bracket, f: Coloring) -> ColoringCheck:
    D = f.diagram
    return check_colorings(beta, D, [f], khovanov_classical(D), cube_words(D))[0]


def check_theorem(beta: Bracket, f: Coloring) -> Report:
    """Verify Bh(f) from the direct cube equals classical Khovanov folded into R^x and shifted."""
    return _check_one(beta, f).theorem


def check_euler_identity(beta: Bracket, f: Coloring) -> Report:
    """Verify chi(Bh(f)) from the direct cube evaluates in R to (sum of G) * beta(f)."""
    return _check_one(beta, f).euler
