"""Biquandle brackets: axiom verification, state sums, multiset invariant.

A bracket assigns skein coefficients A[x][y], B[x][y] (units of a finite
commutative ring) to each pair of biquandle elements.  The loop value delta
and writhe unit w are derived from the axioms and cached.

At a crossing the coefficient subscript pair (x, y) is read off the two
strands on the *left* side of the crossing when both strands point downward:

* positive crossing: (under_in color, over_out color);
* negative crossing: (under_out color, over_in color).

This is the convention that reproduces the expected trefoil monomials
A_{x,y} A_{y,z} A_{z,x}, makes kinks contribute diagonal coefficients
A_{x,x}/B_{x,x}, and yields the published Hopf-link cocycle values.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from .biquandle import AxiomFailure, Biquandle, Coloring, Report, enumerate_colorings, multiset, read_biquandle
from .diagram import CrossingRecord, OrientedDiagram, _smoothings
from .rings import Ring, ring_make, subgroup_generate


def crossing_color_pair(crossing: CrossingRecord, colors: dict) -> Tuple[int, int]:
    """The (x, y) subscript pair at a colored crossing (see module docstring)."""
    if crossing.sign == 1:
        return colors[crossing.under_in], colors[crossing.over_out]
    return colors[crossing.under_out], colors[crossing.over_in]


def _check_shape(n: int, A, B):
    if len(A) != n or len(B) != n or any(len(row) != n for row in (*A, *B)):
        raise ValueError(f"A and B must be {n}x{n}")


class Bracket:
    """Unit tables (A, B), not checked against the axioms, with cached delta, w, q = q_{1,1} and G.

    ``tables[sign]`` holds the (bit 0, bit 1) coefficient tables of a
    crossing of that sign: (A, B) for +1 and (B^{-1}, A^{-1}) for -1, from
    the inverses found when A and B are checked to be units.

    G = <q_{x,y}^{-1} q> is the scalar group.  Element 1 serves as the
    basepoint of q, the canonical cocycle and Z_beta; for a bracket any other
    element gives the same G, cocycle, Z_beta cosets and Bh tables, because
    A_{x,x} A_{y,y}^{-1} = q_{x,x} q_{y,y}^{-1} lies in G by axiom (i).
    """

    def __init__(self, biquandle: Biquandle, ring: Ring, A, B):
        self.biquandle = biquandle
        self.ring = ring
        self.A = tuple(tuple(row) for row in A)
        self.B = tuple(tuple(row) for row in B)
        _check_shape(biquandle.n, self.A, self.B)
        A_inv, B_inv = (tuple(tuple(map(ring.try_invert, row)) for row in table) for table in (self.A, self.B))
        for name, table, inverse in (("A", self.A, A_inv), ("B", self.B, B_inv)):
            for i, row in enumerate(inverse):
                for j, v in enumerate(row):
                    if v is None:
                        raise ValueError(f"{name}[{i}][{j}] = {ring.element_str(table[i][j])} is not a unit")
        self.tables = {1: (self.A, self.B), -1: (B_inv, A_inv)}
        a11, b11 = self.A[0][0], self.B[0][0]
        a11_inv, b11_inv = A_inv[0][0], B_inv[0][0]
        self.delta = ring.sub(ring.neg(ring.mul(a11, b11_inv)), ring.mul(a11_inv, b11))
        self.w = ring.neg(ring.mul(ring.mul(a11, a11), b11_inv))
        self.q11 = self.q(1, 1)
        elements = biquandle.elements()
        gens = {ring.mul(ring.try_invert(self.q(x, y)), self.q11) for x in elements for y in elements}
        self.G = subgroup_generate(ring, sorted(gens))

    def a(self, x: int, y: int):
        return self.A[x - 1][y - 1]

    def b(self, x: int, y: int):
        return self.B[x - 1][y - 1]

    def q(self, x: int, y: int):
        """q_{x,y} = -A_{x,y}^{-1} B_{x,y}."""
        return self.ring.neg(self.ring.mul(self.tables[-1][1][x - 1][y - 1], self.b(x, y)))

    def coefficient(self, crossing: CrossingRecord, bit: int, colors: dict):
        """Skein coefficient of one crossing in one smoothing state.

        Positive crossings contribute A (bit 0) or B (bit 1); negative ones
        contribute B^{-1} (bit 0) or A^{-1} (bit 1).
        """
        x, y = crossing_color_pair(crossing, colors)
        return self.tables[crossing.sign][bit][x - 1][y - 1]

    def to_json(self):
        ring = self.ring
        return {
            "ring": ring.to_json(),
            "biquandle": self.biquandle.to_json(),
            "A": [[ring.element_to_json(v) for v in row] for row in self.A],
            "B": [[ring.element_to_json(v) for v in row] for row in self.B],
        }


def verify_bracket(X: Biquandle, R: Ring, A, B, literal: bool = False) -> Report:
    """Check the bracket axioms over all pairs/triples, reporting witnesses.

    Equation 4 of axiom (iii) as printed contains the subscripts
    B_{x under x, z over y} and B_{y over x, z over z}; these break the
    symmetry of the other equations and are checked here in the corrected
    form B_{x under y, z over y} / B_{y over x, z over x}.  Pass
    ``literal=True`` to check the published form instead.
    """
    n = X.n
    failures: List[AxiomFailure] = []
    A = tuple(tuple(row) for row in A)
    B = tuple(tuple(row) for row in B)

    Ai = [[R.try_invert(v) for v in row] for row in A]
    Bi = [[R.try_invert(v) for v in row] for row in B]
    for name, table, inverses in (("A", A, Ai), ("B", B, Bi)):
        for i in range(n):
            for j in range(n):
                if inverses[i][j] is None:
                    failures.append(
                        AxiomFailure("unit", (name, i + 1, j + 1), f"{table[i][j]!r} is not a unit")
                    )
    if failures:
        return Report.of_failures(failures)
    mul, add, neg = R.mul, R.add, R.neg

    # (i): w = -A_{x,x}^2 B_{x,x}^{-1} independent of x.
    w = None
    for x in range(n):
        wx = neg(mul(mul(A[x][x], A[x][x]), Bi[x][x]))
        if w is None:
            w = wx
        elif wx != w:
            failures.append(AxiomFailure("i", (x + 1,), f"w mismatch: {wx!r} vs {w!r}"))

    # (ii): delta = -A_{x,y} B_{x,y}^{-1} - A_{x,y}^{-1} B_{x,y} independent of (x,y).
    delta = None
    for x in range(n):
        for y in range(n):
            d = R.sub(neg(mul(A[x][y], Bi[x][y])), mul(Ai[x][y], B[x][y]))
            if delta is None:
                delta = d
            elif d != delta:
                failures.append(AxiomFailure("ii", (x + 1, y + 1), f"delta mismatch: {d!r} vs {delta!r}"))
    if failures:
        return Report.of_failures(failures)

    # (iii), over 0-based elements: un[x][y] is x under y, ov[x][y] is x over y.
    un = [[v - 1 for v in row] for row in X.under_table]
    ov = [[v - 1 for v in row] for row in X.over_table]
    for x, y, z in itertools.product(range(n), repeat=3):
        xy, zy = un[x][y], ov[z][y]
        xz, yz = un[x][z], un[y][z]
        yx, zx = ov[y][x], ov[z][x]
        # Each side of each equation is a product of three coefficients; the
        # first two are indexed (x,y), (y,z) on the left and (x,z), (yx,zx)
        # on the right, and their products are shared by the five equations.
        l_aa, l_ab = mul(A[x][y], A[y][z]), mul(A[x][y], B[y][z])
        l_ba, l_bb = mul(B[x][y], A[y][z]), mul(B[x][y], B[y][z])
        r_aa, r_ab = mul(A[x][z], A[yx][zx]), mul(A[x][z], B[yx][zx])
        r_ba, r_bb = mul(B[x][z], A[yx][zx]), mul(B[x][z], B[yx][zx])
        a_l, b_l = A[xy][zy], B[xy][zy]
        a_r, b_r = A[xz][yz], B[xz][yz]
        # The printed equation 4 has B_{x under x, z over y} on the left and
        # B_{y over x, z over z} in its first right-hand term; the corrected
        # form restores the x,y,z symmetry of the other equations.
        if literal:
            lhs4 = mul(l_aa, B[un[x][x]][zy])
            term1 = mul(mul(A[x][z], B[yx][ov[z][z]]), a_r)
        else:
            lhs4 = mul(l_aa, b_l)
            term1 = mul(r_ab, a_r)
        rhs4 = add(add(term1, mul(r_aa, b_r)), add(mul(delta, mul(r_ab, b_r)), mul(r_bb, b_r)))
        rhs5 = add(add(mul(l_ba, a_l), mul(l_ab, a_l)), add(mul(delta, mul(l_bb, a_l)), mul(l_bb, b_l)))
        for axiom, lhs, rhs in (
            ("iii.1", mul(l_aa, a_l), mul(r_aa, a_r)),
            ("iii.2", mul(l_ab, b_l), mul(r_bb, a_r)),
            ("iii.3", mul(l_ba, b_l), mul(r_ba, b_r)),
            ("iii.4", lhs4, rhs4),
            ("iii.5", mul(r_ba, a_r), rhs5),
        ):
            if lhs != rhs:
                failures.append(
                    AxiomFailure(axiom, (x + 1, y + 1, z + 1), f"{R.element_str(lhs)} != {R.element_str(rhs)}")
                )
    return Report.of_failures(failures)


def bracket_values(beta: Bracket, D: OrientedDiagram, colorings: List[Coloring]) -> list:
    """The skein state sum w^{n_- - n_+} * sum_s delta^{circles(s)} prod coeff.

    One value per coloring of ``D``, in their order, by a crossing-by-crossing
    scan.  The sum depends on a coloring only through its signature, its
    (bit 0, bit 1) coefficients at each crossing from ``beta.tables``, so the
    scan carries one column per distinct signature.  Crossings are taken in
    ``D.scan_order``; the smoothed crossings taken so far join the open edges
    in pairs (a matching, carried on by each crossing's ``_smoothings`` map,
    one call for both bits) and close some loops.  States that leave the same
    matching close the same loops from then on, so each matching carries one
    partial sum per column, multiplied at each crossing by its coefficient
    and by delta once per closed loop.  Free circles come last.
    """
    ring = beta.ring
    crossings = [D.crossings[index] for index in D.scan_order]
    tables = [beta.tables[crossing.sign] for crossing in crossings]
    columns: dict = {}  # signature -> its column
    column_of = []
    for f in colorings:
        colors = dict(f.arc_colors)
        signature = []
        for crossing, (zero, one) in zip(crossings, tables):
            x, y = crossing_color_pair(crossing, colors)
            signature += zero[x - 1][y - 1], one[x - 1][y - 1]
        column_of.append(columns.setdefault(tuple(signature), len(columns)))
    # Each of a crossing's two arcs closes at most one loop.
    delta_powers = [ring.one, beta.delta, ring.mul(beta.delta, beta.delta)]
    sums = {(): [ring.one] * len(columns)}
    for position, crossing in enumerate(crossings):
        smooth = _smoothings(crossing)
        # factors[bit][loops][k]: column k's coefficient times delta^loops.
        factors = [[[ring.mul(c[2 * position + bit], d) for c in columns] for d in delta_powers] for bit in (0, 1)]
        after = {}
        for matching, partial in sums.items():
            for bit, (smoothed, loops) in enumerate(smooth(matching)):
                terms = [ring.mul(s, f) for s, f in zip(partial, factors[bit][len(loops)])]
                row = after.get(smoothed)
                after[smoothed] = terms if row is None else [ring.add(r, t) for r, t in zip(row, terms)]
        sums = after
    norm = ring.mul(ring.power(beta.w, D.n_minus - D.n_plus), ring.power(beta.delta, D.free_circles))
    values = [ring.mul(norm, total) for total in sums[()]]
    return [values[k] for k in column_of]


def bracket_invariant(beta: Bracket, D: OrientedDiagram) -> List[tuple]:
    """Multiset of bracket values, as sorted (element, multiplicity) pairs."""
    return multiset(bracket_values(beta, D, enumerate_colorings(beta.biquandle, D)))


def read_bracket(data: dict, literal: bool = False) -> Tuple[Report, Optional[Bracket]]:
    """The ``verify_bracket`` report of bracket JSON, and its bracket if it passes.

    ``ValueError`` on bad shape or ring elements, or unless the biquandle satisfies its axioms.
    """
    ring = ring_make(data["ring"])
    report, X = read_biquandle(data["biquandle"])
    report.require("biquandle")
    A = [[ring.element_from_json(v) for v in row] for row in data["A"]]
    B = [[ring.element_from_json(v) for v in row] for row in data["B"]]
    _check_shape(X.n, A, B)
    report = verify_bracket(X, ring, A, B, literal)
    return report, Bracket(X, ring, A, B) if report.ok else None


def bracket_from_json(data: dict) -> Bracket:
    """The bracket of JSON data; ``ValueError`` unless its biquandle, then it, satisfy their axioms."""
    report, beta = read_bracket(data)
    report.require("bracket")
    return beta
