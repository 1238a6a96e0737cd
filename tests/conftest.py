"""Shared fixtures (corpus objects loaded once per session), closed-braid and grid diagram generators, and test oracles.

The oracles include the whole 2^n cube of smoothings, which the package
never builds: its states (``resolve_state``), the Kauffman state sum, the
bracket state walk (``walk_bracket_values``), and the direct
bracket-cohomology complex (``reference_cube_complex``); the colorings by
brute force; and the per-bit smoothing maps of the scans
(``reference_smoothings``).
"""

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import pytest

from bracketlab.biquandle import Biquandle, Coloring, enumerate_colorings
from bracketlab.bracket import Bracket, bracket_from_json, crossing_color_pair
from bracketlab.cocycle import cocycle_from_json
from bracketlab.corpus import corpus_path, load_corpus_json
from bracketlab.diagram import CrossingRecord, OrientedDiagram, _pairings, parse_diagram
from bracketlab.graded import GradedComplex, HomologyTable, cohomology
from bracketlab.rings import Coset, UnitSubgroup, ZModRing, subgroup_generate

DIAGRAM_NAMES = [
    "unknot",
    "unknot_r1_pos",
    "unknot_r1_neg",
    "unknot_r2",
    "trefoil",
    "trefoil_r1",
    "trefoil_r2",
    "figure_eight",
    "hopf",
    "hopf_r2",
]

EQUIVALENT_PAIRS = [
    ("unknot_r1_pos", "unknot"),
    ("unknot_r1_neg", "unknot"),
    ("unknot_r2", "unknot"),
    ("trefoil_r1", "trefoil"),
    ("trefoil_r2", "trefoil"),
    ("hopf_r2", "hopf"),
]

# The diagrams the basepoint witness is checked on: 10 colorings in all.
WITNESS_DIAGRAMS = ["trefoil", "hopf", "figure_eight", "trefoil_r2"]

BRACKET_NAMES = ["bracket_gf8", "bracket_const_z5", "bracket_const_z7", "bracket_phi", "bracket_z9"]

# Six 4-strand braid words of 20-28 crossings, from random_braid_word with
# random.Random(17), whose closures' Khovanov tables are pinned in
# golden/khovanov_4_strand_closures.json.  CI writes the closure of the
# 24-crossing one with bench/braids.py and compares its `bracketlab
# khovanov` output with golden/khovanov_braid_closure_24.json, and its
# `bracketlab bracket-value` output for bracket_gf8 and bracket_z9 with
# golden/bracket-value_<bracket>_braid_closure_24.json.
PINNED_WORDS = [
    [-2, -2, 3, -1, 1, -3, -2, -3, -1, 1, 1, 2, 3, 2, -1, -3, 3, -3, -1, -2, 3, -1, -2, 2, 1, 1, -1, -1],
    [3, 2, -2, -1, -1, -2, 1, -1, -3, -2, 3, 2, -1, -1, 2, -3, -1, 2, 3, 1, 3, -2, -1, 2],
    [-3, 3, 2, 2, 3, 1, -2, -2, -2, 3, -1, 3, -2, -1, -1, 2, -2, 2, 1, -2],
    [-2, 1, 2, 2, -3, -3, 3, 1, -2, -2, 3, 1, 1, -3, -3, -3, 2, 2, -3, 2, 3, 2],
    [2, 3, -1, 1, -1, -2, -2, 1, -2, -2, 2, 3, -1, 1, -3, -2, -1, -2, 2, 1, 2, -2, -3, -3, -2, 2],
    [1, -3, 1, -1, -3, 2, 3, -3, -3, 1, 2, -1, -2, -2, 2, -1, 2, 2, 2, -1, 2, 2],
]


@pytest.fixture(scope="session")
def diagrams():
    return {name: parse_diagram(load_corpus_json(f"{name}.json")) for name in DIAGRAM_NAMES}


@pytest.fixture(scope="session")
def flip():
    return Biquandle.from_json(load_corpus_json("biquandle_flip.json"))


@pytest.fixture(scope="session")
def threeel():
    return Biquandle.from_json(load_corpus_json("biquandle_3el.json"))


@pytest.fixture(scope="session")
def brackets():
    return {name: bracket_from_json(load_corpus_json(f"{name}.json")) for name in BRACKET_NAMES}


@pytest.fixture(scope="session")
def cocycle_ab():
    return cocycle_from_json(load_corpus_json("cocycle_ab.json"))


@pytest.fixture(scope="session")
def witness():
    """A bracket whose q_{x,x} moves with x: Z/13 on the trivial 2-element biquandle.

    q_{1,1} = 10, q_{2,2} = 4 and G = {1, 3, 9}.  On the bundled flip
    biquandle, axiom (iii.1) at x = y = z forces A_{1,1} = A_{2,2}, so no
    bundled bracket tells the basepoints apart.  Kept out of the corpus
    manifest, whose check-all output is pinned byte for byte.
    """
    return bracket_from_json({
        "ring": {"kind": "zmod", "n": 13},
        "biquandle": {"under": [[1, 1], [2, 2]], "over": [[1, 1], [2, 2]]},
        "A": [[1, 1], [1, 3]],
        "B": [[3, 3], [9, 1]],
    })


def basepoint_group(beta, x0: int):
    """G = <q_{x,y}^{-1} q> and q = q_{x0,x0}, taken at basepoint ``x0``."""
    ring = beta.ring
    q = beta.q(x0, x0)
    elements = beta.biquandle.elements()
    return subgroup_generate(ring, [ring.mul(ring.try_invert(beta.q(x, y)), q) for x in elements for y in elements]), q


def basepoint_z(beta, f, G: UnitSubgroup, x0: int) -> Coset:
    """Z_beta(f) from A_{x0,x0} and B_{x0,x0}, as a coset of ``G``."""
    ring = beta.ring
    colors = dict(f.arc_colors)
    acc = ring.one
    for crossing in f.diagram.crossings:
        x, y = crossing_color_pair(crossing, colors)
        if crossing.sign == 1:
            ratio = ring.mul(beta.a(x, y), ring.try_invert(beta.a(x0, x0)))
        else:
            ratio = ring.mul(ring.try_invert(beta.b(x, y)), beta.b(x0, x0))
        acc = ring.mul(acc, ratio)
    return Coset(G, acc)


def grading_subgroup(beta) -> UnitSubgroup:
    """H = <A_{x,y}, -B_{x,y}>: the subgroup containing all complex degrees."""
    ring = beta.ring
    gens = []
    for x in beta.biquandle.elements():
        for y in beta.biquandle.elements():
            gens.append(beta.a(x, y))
            gens.append(ring.neg(beta.b(x, y)))
    return subgroup_generate(ring, sorted(set(gens)))


@dataclass(frozen=True)
class SmoothingState:
    resolution: Tuple[int, ...]
    circles: Tuple[Tuple[int, ...], ...]  # each circle = sorted edge labels

    @property
    def weight(self) -> int:
        return sum(self.resolution)

    @property
    def num_circles(self) -> int:
        return len(self.circles)


def resolve_state(D: OrientedDiagram, bits: Sequence[int]) -> SmoothingState:
    """Resolve every crossing per ``bits`` and group edges into circles, by union-find."""
    bits = tuple(int(b) for b in bits)
    assert len(bits) == len(D.crossings)
    parent: Dict[int, int] = {e: e for e in D.arcs()}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for crossing, bit in zip(D.crossings, bits):
        for a, b in _pairings(crossing, bit):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: Dict[int, List[int]] = {}
    for e in D.arcs():
        groups.setdefault(find(e), []).append(e)
    circles = tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0]))
    return SmoothingState(resolution=bits, circles=circles)


def smoothing_states(D: OrientedDiagram) -> Iterator[SmoothingState]:
    """Every smoothing state of ``D`` in bit order, each resolved once."""
    for bits in itertools.product((0, 1), repeat=len(D.crossings)):
        yield resolve_state(D, bits)


def reference_smoothings(crossing: CrossingRecord):
    """Per bit, a map from a matching to the matching after ``crossing`` and the loops it closes.

    The oracle for ``diagram._smoothings``, which returns both bits from one
    map: each call here rewires the partner map of the whole matching and
    sorts every pair again.  Keys and loop names are as there.
    """
    labels = set(OrientedDiagram._edge_labels(crossing))

    def smoothing(bit: int):
        ends = [e for arc in _pairings(crossing, bit) for e in arc]
        keys = [-e if e in ends[:i] else e for i, e in enumerate(ends)]
        joins = tuple(zip(keys[::2], keys[1::2]))

        def smooth(matching: Tuple[Tuple[int, int], ...]):
            partner: Dict[int, int] = {}
            for a, b in matching:
                partner[a], partner[b] = b, a
            for label in labels:
                if label not in partner:
                    partner[label], partner[-label] = -label, label
            loops = []
            for a, b in joins:
                if partner[a] == b:
                    del partner[a], partner[b]
                    loops.append(abs(a))
                else:
                    pa, pb = partner.pop(a), partner.pop(b)
                    partner[pa], partner[pb] = pb, pa
            return tuple(sorted((abs(a), abs(b)) for a, b in partner.items() if abs(a) < abs(b))), loops

        return smooth

    return smoothing(0), smoothing(1)


def kauffman_state_sum(D: OrientedDiagram) -> dict:
    """Unnormalized Jones polynomial by direct state-sum enumeration.

    chi = (-1)^{n_-} q^{n_+ - 2 n_-} sum_s (-q)^{|s|} (q + q^{-1})^{circles(s)},
    computed on exponents without any homological machinery, as
    {exponent: coefficient} without zero terms.
    """
    total = {}
    shift = D.n_plus - 2 * D.n_minus
    for state in smoothing_states(D):
        w = state.weight
        sign = -1 if (w + D.n_minus) % 2 else 1
        # (q + q^{-1})^c expanded by binomial enumeration.
        for letters in itertools.product((1, -1), repeat=state.num_circles):
            e = shift + w + sum(letters)
            total[e] = total.get(e, 0) + sign
    return {e: c for e, c in total.items() if c}


def brute_force_colorings(X: Biquandle, D) -> list:
    """The colorings of ``D`` found by trying all |X|^arcs assignments in lexicographic order.

    An assignment is kept when every crossing has under_out = under_in
    (under) over_in and over_out = over_in (over) under_in, the rule that
    ``enumerate_colorings`` states.
    """
    arcs = D.arcs()
    found = []
    for values in itertools.product(X.elements(), repeat=len(arcs)):
        colors = dict(zip(arcs, values))
        if all(
            colors[c.under_out] == X.under(colors[c.under_in], colors[c.over_in])
            and colors[c.over_out] == X.over(colors[c.over_in], colors[c.under_in])
            for c in D.crossings
        ):
            found.append(Coloring(D, tuple(sorted(colors.items()))))
    return found


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


def cube_edge_sign(bits: Tuple[int, ...], pos: int) -> int:
    """The sign of the cube edge that changes bit ``pos`` of state ``bits`` from 0 to 1.

    (-1)^(1-bits before the changed one), which makes the faces anti-commute.
    """
    return -1 if sum(bits[:pos]) % 2 else 1


def reference_cube_complex(beta: Bracket, colors: dict, D: OrientedDiagram) -> GradedComplex:
    """The direct cube C_beta, whose cohomology is Bh(f) by definition, built word by word.

    ``colors`` maps arcs to biquandle elements; q is ``beta.q11`` and g runs
    over ``beta.G``.  A basis element (state bits, g, word) has degree
    (-1)^{n_-} w^{n_- - n_+} * (signed state coefficient) * g * q^(#1 - #t),
    and the edge at a crossing colored (x, y) takes g to g * q * q_{x,y}^{-1}.
    Words are tuples over the state's circles in ``itertools.product`` order,
    with 0 for the generator 1 and 1 for t; the Frobenius maps are written
    out here.  Each state is resolved by ``resolve_state``; an edge carries
    each circle with the same edge labels in both states, and the circles
    left over are the ones it merges or splits.
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
    states = {state.resolution: state for state in smoothing_states(D)}
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
            sign = cube_edge_sign(from_bits, pos)
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
    return GradedComplex(degrees, differentials)


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
    table = cohomology(reference_cube_complex(KAUFFMAN, dict(f.arc_colors), D))
    return HomologyTable.from_dict(
        None, {(i, exponent[h]): (rank, tors) for (i, h), rank, tors in table.entries}
    )


def cube_bh(beta: Bracket, f) -> HomologyTable:
    """Bh(f) by definition: the cohomology of the direct cube of smoothings."""
    return cohomology(reference_cube_complex(beta, dict(f.arc_colors), f.diagram))


def corpus_file(name: str) -> str:
    return str(corpus_path(name))


def braid_closure(word, strands: int) -> dict:
    """Diagram JSON of the closed braid of ``word`` on ``strands`` strands.

    Letter ``i`` is sigma_i, a positive crossing of the strands at positions
    i and i+1 (running downward, the left one passes under to the right);
    ``-i`` is its inverse.  Edges 1..strands are the tops of the strands,
    and a position no letter touches is a free circle.
    """
    at = list(range(1, strands + 1))  # the edge now leaving each position
    crossings = []
    for letter in word:
        left, right = abs(letter) - 1, abs(letter)
        new_left, new_right = 2 * len(crossings) + strands + 1, 2 * len(crossings) + strands + 2
        if letter > 0:
            ends = dict(under_in=at[left], over_in=at[right], under_out=new_right, over_out=new_left)
        else:
            ends = dict(under_in=at[right], over_in=at[left], under_out=new_left, over_out=new_right)
        crossings.append({"sign": 1 if letter > 0 else -1, **ends})
        at[left], at[right] = new_left, new_right
    # The bottom of each position is its top: rename its last edge.
    close = {at[p]: p + 1 for p in range(strands)}
    for c in crossings:
        c["under_out"] = close.get(c["under_out"], c["under_out"])
        c["over_out"] = close.get(c["over_out"], c["over_out"])
    return {"crossings": crossings, "free_circles": sum(at[p] == p + 1 for p in range(strands))}


def grid_diagram(X: Sequence[int], O: Sequence[int]) -> dict:
    """Diagram JSON of the grid diagram with an X at row ``X[c]`` and an O at row ``O[c]`` of column c.

    ``X`` and ``O`` are permutations of 0..n-1 that differ in every column.
    Each column runs from its O to its X and passes over every row it
    crosses; each row runs from its X to its O.  With column c at x = c
    and row r at y = r, a crossing is positive when the cross product of
    the over and under directions is.  Edges are numbered along each
    component, the components in order of their least column, and a
    component with no crossings is a free circle.
    """
    n = len(X)
    x_col, o_col = {X[c]: c for c in range(n)}, {O[c]: c for c in range(n)}
    between = lambda v, a, b: min(a, b) < v < max(a, b)
    crossings, free_circles, label, seen = {}, 0, 0, set()
    for start in range(n):
        if start in seen:
            continue
        passes = []  # (crossing (column, row), over, direction) in the order the component meets them
        c = start
        while c not in seen:
            seen.add(c)
            step = 1 if X[c] > O[c] else -1
            passes += [((c, r), True, (0, step)) for r in range(O[c] + step, X[c], step) if between(c, x_col[r], o_col[r])]
            r = X[c]
            step = 1 if o_col[r] > c else -1
            passes += [((d, r), False, (step, 0)) for d in range(c + step, o_col[r], step) if between(r, O[d], X[d])]
            c = o_col[r]
        free_circles += not passes
        for j, (key, over, direction) in enumerate(passes):
            strand = "over" if over else "under"
            ends = crossings.setdefault(key, {})
            ends[f"{strand}_in"], ends[f"{strand}_out"] = label + (j - 1) % len(passes) + 1, label + j + 1
            ends[strand] = direction
        label += len(passes)
    records = []
    for key in sorted(crossings):
        ends = crossings[key]
        (ox, oy), (ux, uy) = ends.pop("over"), ends.pop("under")
        records.append({"sign": 1 if ox * uy - oy * ux > 0 else -1, **ends})
    return {"crossings": records, "free_circles": free_circles}


def kink_chain(n: int, signs=(1,)) -> dict:
    """Diagram JSON of one circle with ``n`` Reidemeister I kinks in a row, an unknot.

    Kink i has its loop on edge 2i + 1 and leaves by edge 2i + 2; its sign
    is ``signs[i % len(signs)]``.
    """
    crossings = [
        {"sign": signs[i % len(signs)], "under_in": 2 * i if i else 2 * n, "over_in": 2 * i + 1,
         "under_out": 2 * i + 1, "over_out": 2 * i + 2}
        for i in range(n)
    ]
    return {"crossings": crossings, "free_circles": 0}


def reference_verify_bracket(X: Biquandle, R, A, B, literal: bool = False) -> list:
    """The failures ``verify_bracket`` must report, as JSON, each equation written out in full.

    Every side of axiom (iii) is a product of three coefficients taken in
    the order the paper prints them; see ``verify_bracket`` for the literal
    form of equation 4.
    """
    a = lambda x, y: A[x - 1][y - 1]
    b = lambda x, y: B[x - 1][y - 1]
    inv = lambda v: R.try_invert(v)
    un, ov, els = X.under, X.over, list(X.elements())
    failures = [
        {"axiom": "unit", "witness": [name, x, y], "detail": f"{c(x, y)!r} is not a unit"}
        for name, c in (("A", a), ("B", b)) for x in els for y in els if inv(c(x, y)) is None
    ]
    if failures:
        return failures
    ws = [R.neg(R.mul(R.mul(a(x, x), a(x, x)), inv(b(x, x)))) for x in els]
    failures += [
        {"axiom": "i", "witness": [x], "detail": f"w mismatch: {ws[x - 1]!r} vs {ws[0]!r}"}
        for x in els if ws[x - 1] != ws[0]
    ]
    pairs = [(x, y) for x in els for y in els]
    deltas = [R.sub(R.neg(R.mul(a(x, y), inv(b(x, y)))), R.mul(inv(a(x, y)), b(x, y))) for x, y in pairs]
    failures += [
        {"axiom": "ii", "witness": [x, y], "detail": f"delta mismatch: {d!r} vs {deltas[0]!r}"}
        for (x, y), d in zip(pairs, deltas) if d != deltas[0]
    ]
    if failures:
        return failures
    delta = deltas[0]

    def p3(u, v, t):
        return R.mul(R.mul(u, v), t)

    for x, y, z in itertools.product(els, repeat=3):
        xy, zy, xz, yz, yx, zx = un(x, y), ov(z, y), un(x, z), un(y, z), ov(y, x), ov(z, x)
        lhs4 = p3(a(x, y), a(y, z), b(un(x, x), zy) if literal else b(xy, zy))
        mid = b(yx, ov(z, z)) if literal else b(yx, zx)
        sums = [
            [p3(a(x, z), mid, a(xz, yz)), p3(a(x, z), a(yx, zx), b(xz, yz)),
             R.mul(delta, p3(a(x, z), b(yx, zx), b(xz, yz))), p3(b(x, z), b(yx, zx), b(xz, yz))],
            [p3(b(x, y), a(y, z), a(xy, zy)), p3(a(x, y), b(y, z), a(xy, zy)),
             R.mul(delta, p3(b(x, y), b(y, z), a(xy, zy))), p3(b(x, y), b(y, z), b(xy, zy))],
        ]
        rhs4, rhs5 = (R.add(R.add(s[0], s[1]), R.add(s[2], s[3])) for s in sums)
        for axiom, lhs, rhs in (
            ("iii.1", p3(a(x, y), a(y, z), a(xy, zy)), p3(a(x, z), a(yx, zx), a(xz, yz))),
            ("iii.2", p3(a(x, y), b(y, z), b(xy, zy)), p3(b(x, z), b(yx, zx), a(xz, yz))),
            ("iii.3", p3(b(x, y), a(y, z), b(xy, zy)), p3(b(x, z), a(yx, zx), b(xz, yz))),
            ("iii.4", lhs4, rhs4),
            ("iii.5", p3(b(x, z), a(yx, zx), a(xz, yz)), rhs5),
        ):
            if lhs != rhs:
                detail = f"{R.element_str(lhs)} != {R.element_str(rhs)}"
                failures.append({"axiom": axiom, "witness": [x, y, z], "detail": detail})
    return failures


def open_edges(D: OrientedDiagram, order) -> int:
    """The most edges with exactly one end at a taken crossing, taking crossings in ``order``."""
    ends: Dict[int, int] = {}
    widest = 0
    for index in order:
        c = D.crossings[index]
        for label in (c.under_in, c.over_in, c.under_out, c.over_out):
            ends[label] = ends.get(label, 0) + 1
        widest = max(widest, sum(1 for n in ends.values() if n == 1))
    return widest


def greedy_frontier_order(D: OrientedDiagram) -> List[int]:
    """``frontier_order`` by its definition, in O(n^2): the oracle for its heap.

    Each step takes the crossing left that shares the most edge labels with
    those taken, the lowest index on a tie; PD order wins if it is narrower.
    """
    labels = [{c.under_in, c.over_in, c.under_out, c.over_out} for c in D.crossings]
    left = list(range(len(D.crossings)))
    taken: set = set()
    order = []
    while left:
        best = max(left, key=lambda i: len(labels[i] & taken))
        left.remove(best)
        order.append(best)
        taken |= labels[best]
    pd_order = list(range(len(D.crossings)))
    return pd_order if open_edges(D, pd_order) < open_edges(D, order) else order


def random_braid_word(rng: random.Random, strands: int, length: int) -> list:
    """``length`` letters, each generator and sign equally likely."""
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]


def braid_move_pairs(rng: random.Random, word: list, strands: int) -> list:
    """``(move, left, right)`` triples: closed braids, as (word, strands), that one move relates.

    Conjugation rotates ``word``; stabilisation adds sigma_m^{+-1} on one
    more strand (Reidemeister I); insertion puts sigma_i sigma_i^{-1} in
    (Reidemeister II); the braid relation compares w sigma_i sigma_{i+1}
    sigma_i with w sigma_{i+1} sigma_i sigma_{i+1}, both signs
    (Reidemeister III).  ``strands`` is at least 3.
    """
    k, pos = rng.randrange(len(word) + 1), rng.randrange(len(word) + 1)
    g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
    i, sign = rng.randint(1, strands - 2), rng.choice((1, -1))
    left, right = [sign * i, sign * (i + 1)], [sign * (i + 1), sign * i]
    return [
        ("conjugation", (word, strands), (word[k:] + word[:k], strands)),
        ("stabilisation", (word, strands), (word + [rng.choice((1, -1)) * strands], strands + 1)),
        ("insertion", (word, strands), (word[:pos] + [g, -g] + word[pos:], strands)),
        ("braid relation", (word + left + left[:1], strands), (word + right + right[:1], strands)),
    ]
