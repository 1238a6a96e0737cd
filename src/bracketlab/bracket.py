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
from typing import List, Tuple

from .biquandle import AxiomFailure, Biquandle, Coloring, Report, enumerate_colorings, multiset, verify_biquandle
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
        for name, table in (("A", self.A), ("B", self.B)):
            for i, row in enumerate(table):
                for j, v in enumerate(row):
                    if ring.try_invert(v) is None:
                        raise ValueError(f"{name}[{i}][{j}] = {ring.element_str(v)} is not a unit")
        a11, b11 = self.A[0][0], self.B[0][0]
        b11_inv = ring.try_invert(b11)
        a11_inv = ring.try_invert(a11)
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
        return self.ring.neg(self.ring.mul(self.ring.try_invert(self.a(x, y)), self.b(x, y)))

    def coefficient(self, crossing: CrossingRecord, bit: int, colors: dict):
        """Skein coefficient of one crossing in one smoothing state.

        Positive crossings contribute A (bit 0) or B (bit 1); negative ones
        contribute B^{-1} (bit 0) or A^{-1} (bit 1).
        """
        x, y = crossing_color_pair(crossing, colors)
        ring = self.ring
        if crossing.sign == 1:
            return self.a(x, y) if bit == 0 else self.b(x, y)
        base = self.b(x, y) if bit == 0 else self.a(x, y)
        return ring.try_invert(base)

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

    inv = {}
    for name, table in (("A", A), ("B", B)):
        for i in range(n):
            for j in range(n):
                v = table[i][j]
                b = R.try_invert(v)
                if b is None:
                    failures.append(
                        AxiomFailure("unit", (name, i + 1, j + 1), f"{v!r} is not a unit")
                    )
                inv[(name, i + 1, j + 1)] = b
    if failures:
        return Report.of_failures(failures)

    a = lambda x, y: A[x - 1][y - 1]
    b = lambda x, y: B[x - 1][y - 1]
    ai = lambda x, y: inv[("A", x, y)]
    bi = lambda x, y: inv[("B", x, y)]
    un, ov = X.under, X.over

    # (i): w = -A_{x,x}^2 B_{x,x}^{-1} independent of x.
    w = None
    for x in X.elements():
        wx = R.neg(R.mul(R.mul(a(x, x), a(x, x)), bi(x, x)))
        if w is None:
            w = wx
        elif wx != w:
            failures.append(AxiomFailure("i", (x,), f"w mismatch: {wx!r} vs {w!r}"))

    # (ii): delta = -A_{x,y} B_{x,y}^{-1} - A_{x,y}^{-1} B_{x,y} independent of (x,y).
    delta = None
    for x in X.elements():
        for y in X.elements():
            d = R.sub(R.neg(R.mul(a(x, y), bi(x, y))), R.mul(ai(x, y), b(x, y)))
            if delta is None:
                delta = d
            elif d != delta:
                failures.append(AxiomFailure("ii", (x, y), f"delta mismatch: {d!r} vs {delta!r}"))
    if failures:
        return Report.of_failures(failures)

    def prod3(u, v, t):
        return R.mul(R.mul(u, v), t)

    for x, y, z in itertools.product(X.elements(), repeat=3):
        xy, zy = un(x, y), ov(z, y)
        xz, yz = un(x, z), un(y, z)
        yx, zx = ov(y, x), ov(z, x)
        eqs = [
            ("iii.1", prod3(a(x, y), a(y, z), a(xy, zy)), prod3(a(x, z), a(yx, zx), a(xz, yz))),
            ("iii.2", prod3(a(x, y), b(y, z), b(xy, zy)), prod3(b(x, z), b(yx, zx), a(xz, yz))),
            ("iii.3", prod3(b(x, y), a(y, z), b(xy, zy)), prod3(b(x, z), a(yx, zx), b(xz, yz))),
        ]
        # The printed equation 4 has B_{x under x, z over y} on the left and
        # B_{y over x, z over z} in its first right-hand term; the corrected
        # form restores the x,y,z symmetry of the other equations.
        if literal:
            lhs4 = prod3(a(x, y), a(y, z), b(un(x, x), zy))
            term1_mid = b(yx, ov(z, z))
        else:
            lhs4 = prod3(a(x, y), a(y, z), b(xy, zy))
            term1_mid = b(yx, zx)
        rhs4 = R.add(
            R.add(prod3(a(x, z), term1_mid, a(xz, yz)), prod3(a(x, z), a(yx, zx), b(xz, yz))),
            R.add(
                R.mul(delta, prod3(a(x, z), b(yx, zx), b(xz, yz))),
                prod3(b(x, z), b(yx, zx), b(xz, yz)),
            ),
        )
        eqs.append(("iii.4", lhs4, rhs4))
        lhs5 = prod3(b(x, z), a(yx, zx), a(xz, yz))
        rhs5 = R.add(
            R.add(prod3(b(x, y), a(y, z), a(xy, zy)), prod3(a(x, y), b(y, z), a(xy, zy))),
            R.add(
                R.mul(delta, prod3(b(x, y), b(y, z), a(xy, zy))),
                prod3(b(x, y), b(y, z), b(xy, zy)),
            ),
        )
        eqs.append(("iii.5", lhs5, rhs5))
        for axiom, lhs, rhs in eqs:
            if lhs != rhs:
                failures.append(
                    AxiomFailure(
                        axiom,
                        (x, y, z),
                        f"{R.element_str(lhs)} != {R.element_str(rhs)}",
                    )
                )
    return Report.of_failures(failures)


def bracket_values(beta: Bracket, D: OrientedDiagram, colorings: List[Coloring]) -> list:
    """The skein state sum w^{n_- - n_+} * sum_s delta^{circles(s)} prod coeff.

    One value per coloring of ``D``, by a crossing-by-crossing scan.
    Crossings are taken in ``D.scan_order``; the smoothed crossings taken
    so far join the open edges in pairs (a matching, carried on by each
    crossing's ``_smoothings`` maps) and close some loops.  States that leave
    the same matching close the same loops from then on, so each matching
    carries one partial sum per coloring, multiplied at each crossing by its
    coefficient and by delta once per closed loop.  Free circles come last.
    """
    ring = beta.ring
    colors = [dict(f.arc_colors) for f in colorings]
    # Each of a crossing's two arcs closes at most one loop.
    delta_powers = [ring.one, beta.delta, ring.mul(beta.delta, beta.delta)]
    sums = {(): [ring.one] * len(colors)}
    for index in D.scan_order:
        crossing = D.crossings[index]
        smoothings = _smoothings(crossing)
        coefficients = [[beta.coefficient(crossing, bit, c) for c in colors] for bit in (0, 1)]
        # factors[bit][loops][k]: coloring k's coefficient times delta^loops.
        factors = [[[ring.mul(a, d) for a in row] for d in delta_powers] for row in coefficients]
        after = {}
        for matching, partial in sums.items():
            for bit in (0, 1):
                smoothed, loops = smoothings[bit](matching)
                row = after.setdefault(smoothed, [ring.zero] * len(colors))
                for k, (s, f) in enumerate(zip(partial, factors[bit][len(loops)])):
                    row[k] = ring.add(row[k], ring.mul(s, f))
        sums = after
    norm = ring.mul(ring.power(beta.w, D.n_minus - D.n_plus), ring.power(beta.delta, D.free_circles))
    return [ring.mul(norm, total) for total in sums[()]]


def bracket_invariant(beta: Bracket, D: OrientedDiagram) -> List[tuple]:
    """Multiset of bracket values, as sorted (element, multiplicity) pairs."""
    return multiset(bracket_values(beta, D, enumerate_colorings(beta.biquandle, D)))


def decode_bracket(data: dict) -> Tuple[Biquandle, Ring, list, list]:
    """The (biquandle, ring, A, B) of bracket JSON, checked for shape and range, not against any axioms."""
    ring = ring_make(data["ring"])
    X = Biquandle(data["biquandle"]["under"], data["biquandle"]["over"])
    A = [[ring.element_from_json(v) for v in row] for row in data["A"]]
    B = [[ring.element_from_json(v) for v in row] for row in data["B"]]
    _check_shape(X.n, A, B)
    return X, ring, A, B


def bracket_from_json(data: dict) -> Bracket:
    """The bracket of JSON data; ``ValueError`` unless its biquandle, then it, satisfy their axioms."""
    X, ring, A, B = decode_bracket(data)
    verify_biquandle(X.under_table, X.over_table).require("biquandle")
    verify_bracket(X, ring, A, B).require("bracket")
    return Bracket(X, ring, A, B)
