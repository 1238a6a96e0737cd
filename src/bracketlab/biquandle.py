"""Finite biquandles from operation tables, and diagram colorings.

Elements are the integers 1..n, matching the usual operation-table
convention: ``under[x-1][y-1]`` is x under y, ``over[x-1][y-1]`` is x over y.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .diagram import DiagramError, OrientedDiagram, _is_int

# The most colorings ``enumerate_colorings`` may list.
MAX_COLORINGS = 1 << 14


class AxiomFailure(NamedTuple):
    axiom: str
    witness: tuple
    detail: str = ""

    def to_json(self):
        return {"axiom": self.axiom, "witness": list(self.witness), "detail": self.detail}


class Report:
    """The outcome of one check.

    ``failures`` are the failing axiom instances of a verification, with
    their witnesses; ``details`` holds the rest of the JSON form, such as the
    values a structure check compared.  ``name`` labels a check-all row and
    is empty elsewhere.
    """

    def __init__(self, name: str, ok: bool, failures: List[AxiomFailure], details: dict):
        self.name = name
        self.ok = ok
        self.failures = failures
        self.details = details

    @classmethod
    def of_failures(cls, failures: List[AxiomFailure]) -> "Report":
        """A verification's report: it passes when no axiom instance failed."""
        return cls("", not failures, failures, {"failures": [f.to_json() for f in failures]})

    def to_json(self):
        return {"ok": self.ok, **self.details}

    def require(self, structure: str):
        """Raise ``ValueError("not a <structure>: <the first three failures>")`` unless ok."""
        if not self.ok:
            raise ValueError(f"not a {structure}: {self.details['failures'][:3]}")


def multiset(values: Iterable) -> List[tuple]:
    """(value, multiplicity) pairs, sorted by value."""
    return sorted(Counter(values).items())


class Biquandle:
    """Two operation tables on {1..n}, checked for shape and range; ``from_json`` also checks the axioms."""

    def __init__(self, under, over):
        n = self.n = len(under)
        self.under_table = tuple(tuple(row) for row in under)
        self.over_table = tuple(tuple(row) for row in over)
        if n == 0:
            raise ValueError("a biquandle needs at least one element")
        for name, table in (("under", self.under_table), ("over", self.over_table)):
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError(f"{name} table is not {n}x{n}")
            for row in table:
                for v in row:
                    if not (_is_int(v) and 1 <= v <= n):
                        raise ValueError(f"{name} table entry {v!r} out of range 1..{n}")

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
    def from_json(cls, data: dict) -> "Biquandle":
        """The biquandle of JSON tables; ``ValueError`` unless they satisfy the biquandle axioms."""
        report, X = read_biquandle(data)
        report.require("biquandle")
        return X


def verify_biquandle(X: Biquandle) -> Report:
    """Check the biquandle axioms, reporting every failing instance.

    Invertibility is checked as: each column of each table is a permutation,
    and (x, y) -> (y over x, x under y) is a bijection on pairs.
    """
    n, un, ov = X.n, X.under, X.over
    failures = []
    rng = X.elements()

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


def read_biquandle(data: dict) -> Tuple[Report, Optional[Biquandle]]:
    """The axiom report of JSON tables, and their biquandle if it passes; ``ValueError`` on bad shape or range."""
    X = Biquandle(data["under"], data["over"])
    report = verify_biquandle(X)
    return report, X if report.ok else None


class Coloring(NamedTuple):
    """An assignment of biquandle elements to the arcs of a diagram."""

    diagram: OrientedDiagram
    arc_colors: tuple  # sorted tuple of (arc, color)

    def to_json(self):
        return {str(arc): color for arc, color in self.arc_colors}


def enumerate_colorings(X: Biquandle, D: OrientedDiagram) -> List[Coloring]:
    """All valid X-colorings, by backtracking over a propagation plan.

    At every crossing: under_out = under_in (under) over_in and
    over_out = over_in (over) under_in.  The plan, built once, makes each arc
    not yet known a free choice; for each crossing whose inputs then become
    known it records one step per output: assign it, or compare with it.
    Which arcs a choice forces depends only on which are known, so one list
    of values serves every branch; each choice tries the elements in order,
    counted per level in ``tried``, so the backtrack is a loop, not a recursion.
    A diagram with more than ``MAX_COLORINGS`` colorings is refused.
    """
    arcs = D.arcs()
    slot = {arc: i for i, arc in enumerate(arcs)}
    # Each edge enters exactly one crossing; a free circle's arc enters none.
    entering = {arc: c for c in D.crossings for arc in (c.under_in, c.over_in)}
    known = set()
    plan = []  # (choice slot, steps) per free choice
    for arc in arcs:
        if arc in known:
            continue
        known.add(arc)
        steps, pending = [], [arc]
        while pending:
            c = entering.get(pending.pop())
            if c is None or c.under_in not in known or c.over_in not in known:
                continue
            del entering[c.under_in], entering[c.over_in]  # each crossing's steps are recorded once
            x, y = slot[c.under_in], slot[c.over_in]
            for out, table, a, b in ((c.under_out, X.under_table, x, y), (c.over_out, X.over_table, y, x)):
                steps.append((slot[out], table, a, b, out not in known))
                if out not in known:
                    known.add(out)
                    pending.append(out)
        plan.append((slot[arc], steps))
    results, values, tried, level = [], [0] * len(arcs), [0] * len(plan), 0
    while level >= 0:
        if level == len(plan):
            if len(results) == MAX_COLORINGS:
                raise DiagramError(f"the diagram has more than {MAX_COLORINGS} colorings")
            # Through a list, so the kept tuple is allocated once at its final size.
            results.append(Coloring(D, tuple(list(zip(arcs, values)))))
            level -= 1
        elif tried[level] == X.n:
            tried[level] = 0
            level -= 1
        else:
            choice, steps = plan[level]
            tried[level] += 1
            values[choice] = tried[level]
            for out, table, a, b, assign in steps:
                v = table[values[a] - 1][values[b] - 1]
                if assign:
                    values[out] = v
                elif values[out] != v:
                    break
            else:
                level += 1
    return results


def counting_invariant(X: Biquandle, D: OrientedDiagram) -> int:
    """The biquandle counting invariant: the number of valid X-colorings."""
    return len(enumerate_colorings(X, D))
