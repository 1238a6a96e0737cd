"""Biquandle 2-cocycles and their invariants, including the canonical
2-cocycle derived from a bracket.

Cocycles take values in a multiplicative abelian group: either a free
abelian group on named symbols (elements are exponent vectors) or a
quotient R^x / G of the unit group of a finite ring (elements are cosets).
"""

from __future__ import annotations

import itertools
import re
from typing import List, Optional, Tuple

from .biquandle import AxiomFailure, Biquandle, Coloring, Report, enumerate_colorings, multiset, read_biquandle
from .bracket import Bracket, crossing_color_pair
from .diagram import OrientedDiagram
from .rings import Coset, RingError, UnitSubgroup, ring_make, subgroup_generate


class FreeAbelianTarget:
    """Free abelian group on named symbols; elements are exponent tuples.

    The symbols are a list of distinct names, each a word symbol: a letter or
    ``_`` followed by letters, digits or ``_``.
    """

    kind = "free_abelian"

    def __init__(self, symbols):
        if not isinstance(symbols, (list, tuple)) or not all(
            isinstance(s, str) and self._symbol.fullmatch(s) for s in symbols
        ) or len(set(symbols)) < len(symbols):
            raise ValueError(f"symbols {symbols!r} are not a list of distinct names")
        self.symbols = tuple(symbols)
        self.identity = (0,) * len(self.symbols)

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    _symbol = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
    _token = re.compile(rf"({_symbol.pattern})(?:\^(-?\d+))?")

    def parse(self, word: str):
        """Parse a multiplicative word like ``"1"``, ``"a"``, or ``"a*b^-1"``."""
        if not isinstance(word, str):
            raise ValueError(f"bad word {word!r}: not a string")
        word = word.strip()
        exps = [0] * len(self.symbols)
        if word in ("1", ""):
            return tuple(exps)
        for part in re.split(r"[\s*]+", word):
            m = self._token.fullmatch(part)
            if not m or m.group(1) not in self.symbols:
                raise ValueError(f"bad word {word!r} over symbols {self.symbols}")
            idx = self.symbols.index(m.group(1))
            exps[idx] += int(m.group(2) or 1)
        return tuple(exps)

    def element_str(self, a) -> str:
        parts = []
        for sym, e in zip(self.symbols, a):
            if e == 0:
                continue
            parts.append(sym if e == 1 else f"{sym}^{e}")
        return "*".join(parts) if parts else "1"

    def element_to_json(self, a):
        return self.element_str(a)

    def to_json(self):
        return {"kind": self.kind, "symbols": list(self.symbols)}


class UnitQuotientTarget:
    """The quotient group R^x / G for a unit subgroup G; elements are cosets."""

    kind = "unit_quotient"

    def __init__(self, subgroup: UnitSubgroup):
        self.subgroup = subgroup
        self.ring = subgroup.ring
        self.identity = Coset(subgroup, self.ring.one)

    def mul(self, a: Coset, b: Coset) -> Coset:
        return a.mul(b)

    def inv(self, a: Coset) -> Coset:
        return a.inv()

    def element_str(self, a: Coset) -> str:
        return self.ring.element_str(a.canonical) + "*G"

    def element_to_json(self, a: Coset):
        return a.to_json()

    def to_json(self):
        return {"kind": self.kind, "G": self.subgroup.to_json(), "ring": self.ring.to_json()}


class Cocycle:
    """A presentation matrix phi on a biquandle, checked for shape, not against the 2-cocycle conditions."""

    def __init__(self, biquandle: Biquandle, target, phi):
        self.biquandle = biquandle
        self.target = target
        self.phi = tuple(tuple(row) for row in phi)
        n = biquandle.n
        if len(self.phi) != n or any(len(row) != n for row in self.phi):
            raise ValueError(f"phi must be {n}x{n}")

    def value(self, x: int, y: int):
        return self.phi[x - 1][y - 1]

    def to_json(self):
        return {
            "biquandle": self.biquandle.to_json(),
            "target": self.target.to_json(),
            "phi": [[self.target.element_to_json(v) for v in row] for row in self.phi],
        }


def verify_cocycle(c: Cocycle) -> Report:
    """Check phi(x,x) = 1 and the hexagon relation over all triples."""
    X, T = c.biquandle, c.target
    failures: List[AxiomFailure] = []
    for x in X.elements():
        if c.value(x, x) != T.identity:
            failures.append(AxiomFailure("i", (x,), f"phi({x},{x}) = {T.element_str(c.value(x, x))}"))
    un, ov = X.under, X.over
    for x, y, z in itertools.product(X.elements(), repeat=3):
        lhs = T.mul(T.mul(c.value(x, y), c.value(y, z)), c.value(un(x, y), ov(z, y)))
        rhs = T.mul(T.mul(c.value(x, z), c.value(ov(y, x), ov(z, x))), c.value(un(x, z), un(y, z)))
        if lhs != rhs:
            failures.append(
                AxiomFailure("ii", (x, y, z), f"{T.element_str(lhs)} != {T.element_str(rhs)}")
            )
    return Report.of_failures(failures)


def cocycle_value(c: Cocycle, f: Coloring):
    """prod_tau phi(x_tau, y_tau)^{sign(tau)} for a single coloring."""
    colors = dict(f.arc_colors)
    T = c.target
    result = T.identity
    for crossing in f.diagram.crossings:
        phi = c.value(*crossing_color_pair(crossing, colors))
        result = T.mul(result, phi if crossing.sign == 1 else T.inv(phi))
    return result


def cocycle_invariant(c: Cocycle, D: OrientedDiagram) -> List[tuple]:
    """Multiset of cocycle values, as sorted (element, multiplicity) pairs."""
    return multiset(cocycle_value(c, f) for f in enumerate_colorings(c.biquandle, D))


def canonical_cocycle(beta: Bracket) -> Cocycle:
    """The canonical 2-cocycle phi_beta(x,y) = A_{x,y} A_{1,1}^{-1} G over R^x / G.

    ``G`` is ``beta.G``.  This is a 2-cocycle by construction; ``check_all``
    verifies it.
    """
    ring, G = beta.ring, beta.G
    a11_inv = ring.try_invert(beta.a(1, 1))
    phi = [
        [Coset(G, ring.mul(beta.a(x, y), a11_inv)) for y in beta.biquandle.elements()]
        for x in beta.biquandle.elements()
    ]
    return Cocycle(beta.biquandle, UnitQuotientTarget(G), phi)


def z_invariant(beta: Bracket, f: Coloring) -> Coset:
    """Z_beta(f) as a coset of ``beta.G`` in R^x.

    Computed from the positive/negative crossing products
    (prod A_{x,y} A_{1,1}^{-1}) (prod B_{x,y}^{-1} B_{1,1}), whose factors
    are the crossings' bit-0 coefficients; the formal gdim(S) factor is
    exactly the G-blur absorbed by the coset.
    """
    ring = beta.ring
    colors = dict(f.arc_colors)
    normalisers = {1: beta.tables[-1][1][0][0], -1: beta.b(1, 1)}  # A_{1,1}^{-1} and B_{1,1}
    acc = ring.one
    for crossing in f.diagram.crossings:
        acc = ring.mul(acc, ring.mul(beta.coefficient(crossing, 0, colors), normalisers[crossing.sign]))
    return Coset(beta.G, acc)


def z_invariant_multiset(beta: Bracket, D: OrientedDiagram) -> List[tuple]:
    """Multiset of Z_beta values, as sorted (coset, multiplicity) pairs."""
    zs = (z_invariant(beta, f) for f in enumerate_colorings(beta.biquandle, D))
    return multiset(zs)


def read_cocycle(data: dict) -> Tuple[Report, Optional[Cocycle]]:
    """The ``verify_cocycle`` report of cocycle JSON, and its cocycle if it passes.

    ``ValueError`` on bad shape, words or units, or unless the biquandle satisfies its axioms.
    """
    report, X = read_biquandle(data["biquandle"])
    report.require("biquandle")
    tgt = data["target"]
    if tgt["kind"] == "free_abelian":
        target = FreeAbelianTarget(tgt["symbols"])
        phi = [[target.parse(w) for w in row] for row in data["phi"]]
    elif tgt["kind"] == "unit_quotient":
        ring = ring_make(tgt["ring"])
        gens = [ring.element_from_json(g) for g in tgt["G"]]
        G = subgroup_generate(ring, gens)
        target = UnitQuotientTarget(G)
        values = [[ring.element_from_json(w) for w in row] for row in data["phi"]]
        for v in (v for row in values for v in row):
            if not ring.is_unit(v):
                raise RingError(f"phi value {ring.element_str(v)} is not a unit")
        phi = [[Coset(G, v) for v in row] for row in values]
    else:
        raise ValueError(f"unknown cocycle target kind {tgt['kind']!r}")
    cocycle = Cocycle(X, target, phi)
    report = verify_cocycle(cocycle)
    return report, cocycle if report.ok else None


def cocycle_from_json(data: dict) -> Cocycle:
    """The cocycle of JSON data; ``ValueError`` unless its biquandle, then it, satisfy their axioms."""
    report, cocycle = read_cocycle(data)
    report.require("2-cocycle")
    return cocycle
