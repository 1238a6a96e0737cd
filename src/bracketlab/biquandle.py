"""Finite biquandles from operation tables, and diagram colorings.

Elements are the integers 1..n, matching the usual operation-table
convention: ``under[x-1][y-1]`` is x under y, ``over[x-1][y-1]`` is x over y.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List

from .diagram import OrientedDiagram, _is_int


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str
    witness: tuple
    detail: str = ""

    def to_json(self):
        return {"axiom": self.axiom, "witness": list(self.witness), "detail": self.detail}


@dataclass
class Report:
    """The outcome of one check.

    ``failures`` are the failing axiom instances of a verification, with
    their witnesses; ``details`` holds the rest of the JSON form, such as the
    values a structure check compared.  ``name`` labels a check-all row and
    is empty elsewhere.
    """

    name: str
    ok: bool
    failures: List[AxiomFailure]
    details: dict

    @classmethod
    def of_failures(cls, failures: List[AxiomFailure]) -> "Report":
        """A verification's report: it passes when no axiom instance failed."""
        return cls("", not failures, failures, {"failures": [f.to_json() for f in failures]})

    def to_json(self):
        return {"ok": self.ok, **self.details}


def multiset(values: Iterable) -> List[tuple]:
    """(value, multiplicity) pairs, sorted by value."""
    return sorted(Counter(values).items())


class Biquandle:
    """A verified biquandle on {1..n} given by two operation tables."""

    def __init__(self, under, over, check: bool = True):
        self.n = len(under)
        self.under_table = tuple(tuple(row) for row in under)
        self.over_table = tuple(tuple(row) for row in over)
        _check_shape(self.under_table, self.over_table, self.n)
        if check:
            report = verify_biquandle(under, over)
            if not report.ok:
                raise ValueError(f"not a biquandle: {report.to_json()['failures'][:3]}")

    def under(self, x: int, y: int) -> int:
        """x passing under y."""
        return self.under_table[x - 1][y - 1]

    def over(self, x: int, y: int) -> int:
        """x passing over y."""
        return self.over_table[x - 1][y - 1]

    def elements(self) -> range:
        return range(1, self.n + 1)

    def to_json(self):
        return {
            "n": self.n,
            "under": [list(r) for r in self.under_table],
            "over": [list(r) for r in self.over_table],
        }

    @classmethod
    def from_json(cls, data: dict, check: bool = True) -> "Biquandle":
        return cls(data["under"], data["over"], check=check)

    def __eq__(self, other):
        return (
            isinstance(other, Biquandle)
            and self.under_table == other.under_table
            and self.over_table == other.over_table
        )

    def __hash__(self):
        return hash((self.under_table, self.over_table))


def _check_shape(under, over, n):
    if n == 0:
        raise ValueError("a biquandle needs at least one element")
    for name, table in (("under", under), ("over", over)):
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"{name} table is not {n}x{n}")
        for row in table:
            for v in row:
                if not (_is_int(v) and 1 <= v <= n):
                    raise ValueError(f"{name} table entry {v!r} out of range 1..{n}")


def verify_biquandle(under, over) -> Report:
    """Check the biquandle axioms, reporting every failing instance.

    Invertibility is checked as: each column of each table is a permutation,
    and (x, y) -> (y over x, x under y) is a bijection on pairs.
    """
    n = len(under)
    _check_shape(tuple(map(tuple, under)), tuple(map(tuple, over)), n)
    un = lambda x, y: under[x - 1][y - 1]
    ov = lambda x, y: over[x - 1][y - 1]
    failures = []
    rng = range(1, n + 1)

    for x in rng:
        if un(x, x) != ov(x, x):
            failures.append(AxiomFailure("i", (x,), f"{un(x,x)} != {ov(x,x)}"))

    for y in rng:
        for name, op in (("under", un), ("over", ov)):
            col = [op(x, y) for x in rng]
            if sorted(col) != list(rng):
                failures.append(
                    AxiomFailure("ii", (y,), f"column {y} of {name} table is not a permutation")
                )
    s_images = {(ov(y, x), un(x, y)) for x in rng for y in rng}
    if len(s_images) != n * n:
        failures.append(AxiomFailure("ii", (), "S(x,y) = (y over x, x under y) is not a bijection"))

    for x in rng:
        for y in rng:
            for z in rng:
                if un(un(x, y), un(z, y)) != un(un(x, z), ov(y, z)):
                    failures.append(AxiomFailure("iii.1", (x, y, z)))
                if ov(un(x, y), un(z, y)) != un(ov(x, z), ov(y, z)):
                    failures.append(AxiomFailure("iii.2", (x, y, z)))
                if ov(ov(x, y), ov(z, y)) != ov(ov(x, z), un(y, z)):
                    failures.append(AxiomFailure("iii.3", (x, y, z)))
    return Report.of_failures(failures)


@dataclass(frozen=True)
class Coloring:
    """An assignment of biquandle elements to the arcs of a diagram."""

    diagram: OrientedDiagram
    arc_colors: tuple  # sorted tuple of (arc, color)

    def to_json(self):
        return {str(arc): color for arc, color in self.arc_colors}


def enumerate_colorings(X: Biquandle, D: OrientedDiagram) -> List[Coloring]:
    """All valid X-colorings, by backtracking with eager constraint propagation.

    At every crossing: under_out = under_in (under) over_in and
    over_out = over_in (over) under_in.  Deterministic output order.
    """
    arcs = D.arcs()
    results: List[Coloring] = []
    colors: Dict[int, int] = {}
    under, over = X.under_table, X.over_table
    # Each edge enters exactly one crossing; a free circle's arc enters none.
    entering = {arc: c for c in D.crossings for arc in (c.under_in, c.over_in)}

    # Propagation rules: once both inputs of a crossing are known, the outputs
    # are forced.
    def propagate(pending: List[int]) -> bool:
        while pending:
            c = entering.get(pending.pop())
            if c is not None and c.under_in in colors and c.over_in in colors:
                x, y = colors[c.under_in], colors[c.over_in]
                for out_arc, val in ((c.under_out, under[x - 1][y - 1]), (c.over_out, over[y - 1][x - 1])):
                    if out_arc in colors:
                        if colors[out_arc] != val:
                            return False
                    else:
                        colors[out_arc] = val
                        pending.append(out_arc)
        return True

    def backtrack(idx: int):
        while idx < len(arcs) and arcs[idx] in colors:
            idx += 1
        if idx == len(arcs):
            results.append(Coloring(D, tuple(sorted(colors.items()))))
            return
        arc = arcs[idx]
        for value in X.elements():
            snapshot = dict(colors)
            colors[arc] = value
            if propagate([arc]):
                backtrack(idx + 1)
            colors.clear()
            colors.update(snapshot)

    backtrack(0)
    return results


def counting_invariant(X: Biquandle, D: OrientedDiagram) -> int:
    """The biquandle counting invariant: the number of valid X-colorings."""
    return len(enumerate_colorings(X, D))
