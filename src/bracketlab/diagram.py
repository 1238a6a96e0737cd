"""Oriented link diagrams as PD-style combinatorial data.

A diagram is a list of crossings, each naming its four incident edges by
label, plus a count of crossing-free circles.  Every edge label must occur
exactly once as an output and once as an input across all crossings.

Conventions (crossings rotated so both strands point downward):

* positive crossing: under-strand enters NW, over-strand enters NE;
  over-strand exits SW, under-strand exits SE;
* negative crossing: mirror image (over enters NW, under enters NE).

Smoothings pair the four edge ends either "vertically" (under_in-over_out
and over_in-under_out) or "horizontally" (under_in-over_in and
under_out-over_out).  Bit 0 selects the vertical smoothing at a positive
crossing and the horizontal one at a negative crossing, so that bit 0 always
carries the A-type skein coefficient and bit 1 the B-type one.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Sequence, Tuple


class DiagramError(ValueError):
    """Raised for malformed PD data, or a diagram whose homology is too large to write."""


# The most free circles a diagram may have: each multiplies the colorings by |X| and doubles the Khovanov table.
MAX_FREE_CIRCLES = 256


class CrossingRecord(NamedTuple):
    sign: int
    under_in: int
    over_in: int
    under_out: int
    over_out: int

    def to_json(self):
        return self._asdict()


def _is_int(v) -> bool:
    """An integer in JSON's sense: ``True`` and ``2.0`` do not count."""
    return isinstance(v, int) and not isinstance(v, bool)


class OrientedDiagram:
    """A closed oriented link diagram."""

    def __init__(self, crossings: Sequence[CrossingRecord], free_circles: int = 0):
        if not _is_int(free_circles) or not 0 <= free_circles <= MAX_FREE_CIRCLES:
            raise DiagramError(f"free_circles must be an integer from 0 to {MAX_FREE_CIRCLES}, got {free_circles!r}")
        self.crossings = tuple(crossings)
        self.free_circles = free_circles
        # The incidence map, from one walk over the crossings: edge label -> corner it enters by, and leaves by.
        self._enters, self._leaves, self.n_minus = self._validate()
        self.edges = sorted(self._enters)
        top = self.edges[-1] if self.edges else 0
        self.free_circle_arcs = tuple(range(top + 1, top + 1 + self.free_circles))
        self.n_plus = len(self.crossings) - self.n_minus
        self.scan_order = frontier_order(self)  # the crossing order of the bracket and tangle scans

    @staticmethod
    def _edge_labels(c: CrossingRecord):
        return (c.under_in, c.over_in, c.under_out, c.over_out)

    def _validate(self) -> Tuple[Dict[int, int], Dict[int, int], int]:
        """Check the crossings in one walk: the incidence map and the number of negative crossings.

        Corner 4i + k is corner k of crossing i, clockwise from NW (NW, NE,
        SE, SW as in the module docstring): the two inputs, then the two
        outputs.  Each edge label must enter by one corner and leave by one.
        """
        enters: Dict[int, int] = {}
        leaves: Dict[int, int] = {}
        n_minus = 0
        for idx, c in enumerate(self.crossings):
            if not _is_int(c.sign) or c.sign not in (1, -1):
                raise DiagramError(f"crossing {idx}: bad sign {c.sign!r}")
            flip = c.sign == -1  # a negative crossing has its strands the other way round at each side
            n_minus += flip
            for k, label in enumerate(self._edge_labels(c)):
                if not _is_int(label) or label < 1:
                    raise DiagramError(f"crossing {idx}: bad edge label {label!r}")
                bucket = enters if k < 2 else leaves
                if label in bucket:
                    raise DiagramError(f"edge {label} used twice as {'input' if k < 2 else 'output'}")
                bucket[label] = 4 * idx + (k ^ flip)
        if enters.keys() != leaves.keys():
            raise DiagramError(f"dangling edge labels: {sorted(enters.keys() ^ leaves.keys())}")
        self._check_planar(enters, leaves)
        return enters, leaves, n_minus

    def _check_planar(self, enters: Dict[int, int], leaves: Dict[int, int]):
        """Raise unless the crossings and edges lie in the plane as drawn.

        ``enters`` and ``leaves`` are the incidence map.  A face is walked by
        following an edge to its far corner and turning to the next corner
        clockwise.  By Euler's formula, a graph of n crossings and 2n edges
        in k pieces is plane exactly when it has n + 2k faces.
        """
        n = len(self.crossings)
        piece = list(range(n))

        def find(i):
            while piece[i] != i:
                i = piece[i]
            return i

        far = [0] * (4 * n)
        for label, a in enters.items():
            b = leaves[label]
            far[a], far[b] = b, a
            piece[find(a // 4)] = find(b // 4)
        faces, seen = 0, [False] * (4 * n)
        for corner in range(4 * n):
            faces += not seen[corner]
            while not seen[corner]:
                seen[corner] = True
                corner = far[corner] - far[corner] % 4 + (far[corner] + 1) % 4
        if faces != n + 2 * sum(1 for i in range(n) if piece[i] == i):
            raise DiagramError("the crossings do not lie in the plane: this is not a link diagram")

    def arcs(self) -> List[int]:
        """All colorable arcs: crossing edges plus one arc per free circle."""
        return self.edges + list(self.free_circle_arcs)

    def to_json(self):
        return {
            "crossings": [c.to_json() for c in self.crossings],
            "free_circles": self.free_circles,
        }


def parse_diagram(data) -> OrientedDiagram:
    """Parse decoded diagram JSON."""
    if not isinstance(data, dict):
        raise DiagramError("a diagram must be a JSON object")
    crossings = []
    for c in data.get("crossings", []):
        try:
            crossings.append(
                CrossingRecord(
                    sign=c["sign"],
                    under_in=c["under_in"],
                    over_in=c["over_in"],
                    under_out=c["under_out"],
                    over_out=c["over_out"],
                )
            )
        except KeyError as exc:
            raise DiagramError(f"crossing record missing field {exc}") from None
    return OrientedDiagram(crossings, data.get("free_circles", 0))


def _pairings(crossing: CrossingRecord, bit: int) -> List[Tuple[int, int]]:
    """The two edge pairs produced by resolving one crossing.

    Vertical keeps the strands side by side ( )( ), horizontal joins top to
    top and bottom to bottom.  See the module docstring for the bit.
    """
    vertical = bit == 0 if crossing.sign == 1 else bit == 1
    if vertical:
        return [(crossing.under_in, crossing.over_out), (crossing.over_in, crossing.under_out)]
    return [(crossing.under_in, crossing.over_in), (crossing.under_out, crossing.over_out)]


def frontier_order(D: OrientedDiagram) -> List[int]:
    """Crossing indices in an order that keeps few edges open.

    Greedy: the next crossing is the one sharing the most edge labels with
    the crossings already taken; ties go to PD order.  PD order itself is
    returned when it leaves fewer edges open at its widest.  A heap keyed by
    (-labels shared, index) finds each next crossing: a crossing's count only
    grows, so its entries from before it grew come out after it is taken.
    """
    enters, leaves = D._enters, D._leaves
    # The crossing at the far end of each of a crossing's four edge ends; a kink's loop ends where it starts.
    far = [
        (leaves[c.under_in] // 4, leaves[c.over_in] // 4, enters[c.under_out] // 4, enters[c.over_out] // 4)
        for c in D.crossings
    ]
    width = pd_widest = 0
    for i, ends in enumerate(far):  # in PD order an edge opens at its first end and closes at its second
        for j in ends:
            if j != i:
                width += 1 if j > i else -1
        pd_widest = max(pd_widest, width)
    shared = [0] * len(far)
    taken = [False] * len(far)
    heap = [(0, i) for i in range(len(far))]  # sorted, so a heap
    order = []
    width = widest = 0
    while heap:
        i = heappop(heap)[1]
        if taken[i]:
            continue
        taken[i] = True
        order.append(i)
        for j in far[i]:
            if j == i:
                continue
            if taken[j]:
                width -= 1
            else:
                width += 1
                shared[j] += 1
                heappush(heap, (-shared[j], j))
        widest = max(widest, width)
    return list(range(len(far))) if pd_widest < widest else order


def _smoothings(crossing: CrossingRecord):
    """A map from a matching to ``[(matching, loops) for bit 0, (matching, loops) for bit 1]``.

    An end is keyed by its edge label.  An edge whose far end is not yet
    taken (a new edge, or the second end of a kink) has that far end keyed
    by the negated label, and the edge itself joins the two keys.  Each
    closed loop is named by the label of one edge on it.  The crossing's
    labels and each bit's joins are found once, when the map is built; the
    map splits a matching once into the pairs that touch those labels and
    the pairs it keeps, and each bit rewires the touched pairs alone.
    """
    labels = set(OrientedDiagram._edge_labels(crossing))
    joins = []
    for bit in (0, 1):
        (a, b), (c, d) = _pairings(crossing, bit)  # a label met again is the far end of a kink
        joins.append(((a, -b if b == a else b), (-c if c in (a, b) else c, -d if d in (a, b, c) else d)))

    def smooth(matching: Tuple[Tuple[int, int], ...]):
        kept, touched = [], {}
        for pair in matching:
            a, b = pair
            if a in labels or b in labels:
                touched[a], touched[b] = b, a
            else:
                kept.append(pair)
        for label in labels:
            if label not in touched:
                touched[label], touched[-label] = -label, label
        smoothed = []
        for bit_joins in joins:
            partner, loops = touched.copy(), []
            for a, b in bit_joins:
                if partner[a] == b:
                    del partner[a], partner[b]
                    loops.append(abs(a))
                else:
                    pa, pb = partner.pop(a), partner.pop(b)
                    partner[pa], partner[pb] = pb, pa
            pairs = kept.copy()
            for a, b in partner.items():
                a, b = abs(a), abs(b)
                if a < b:
                    pairs.append((a, b))
            pairs.sort()
            smoothed.append((tuple(pairs), loops))
        return smoothed

    return smooth
