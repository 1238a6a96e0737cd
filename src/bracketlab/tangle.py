"""Classical Khovanov homology by Bar-Natan's tangle scan.

Bar-Natan, "Fast Khovanov homology computations" (arXiv math/0606318).
Crossings are added one at a time in ``frontier_order``.  After each one the
complex is that of the tangle of the crossings taken so far: an object is a
matching of the open edges (as ``diagram._smooth`` builds it) with a
homological weight and a q-shift, and an entry of the differential is a
dotted cobordism between two matchings.

Cobordisms obey the relations of Khovanov's theory over Z (h = t = 0): a
sphere is 0 and a dotted sphere 1, two dots on one component are 0, a handle
is twice a dot, and a neck is cut into its two ways of dotting one side.
With these, every cobordism from a matching M to a matching N is an integer
combination of surfaces made of one disk per cycle of M and N together,
each disk with at most one dot.  A morphism is therefore a dict
``{dot mask: coefficient}`` over the cycles listed by ``_cycles(M, N)``.

A closed loop is delooped into a q^{+1} and a q^{-1} copy of the rest, and
every entry that is +-identity between equal matchings is cancelled by
Gaussian elimination, so the complex stays near the size of the tangle's
homology instead of 2^n.  After the last crossing every matching is empty
and every entry an integer; ``homology.khovanov_classical`` takes the
cohomology of what is left.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .diagram import CrossingRecord, OrientedDiagram, _pairings, _smooth, frontier_order
from .graded import GradedComplex

Matching = Tuple[Tuple[int, int], ...]
Morphism = Dict[int, int]


def _cycles(bottom: Matching, top: Matching) -> List[Tuple[int, ...]]:
    """The cycles of two matchings of the same ends, each listed from its least end."""
    down: Dict[int, int] = {}
    up: Dict[int, int] = {}
    for a, b in bottom:
        down[a], down[b] = b, a
    for a, b in top:
        up[a], up[b] = b, a
    cycles = []
    seen = set()
    for start, _ in bottom:  # pairs are sorted, so each cycle starts at its least end
        if start in seen:
            continue
        cycle = []
        end = start
        while not cycle or end != start:
            cycle += (end, down[end])
            end = up[down[end]]
        seen.update(cycle)
        cycles.append(tuple(cycle))
    return cycles


class _Surface:
    """A surface glued from disks, and how it reduces to dotted disks.

    Ends are edge labels.  ``arcs`` join ends along the surface's boundary,
    so the surface is connected where they connect.  ``disks`` names one end
    on each disk the surface is glued from, ``seams`` one end on each
    interval along which two disk sides are glued, and ``cycles`` one end on
    each cycle of the result's boundary; mask bit i is cycle i.
    """

    def __init__(self, arcs, disks, seams, cycles):
        parent: Dict[int, int] = {}

        def find(a):
            parent.setdefault(a, a)
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in arcs:
            parent[find(a)] = find(b)
        component: Dict[int, int] = {}
        self.disk = [component.setdefault(find(e), len(component)) for e in disks]
        euler = [0] * len(component)
        for k in self.disk:
            euler[k] += 1
        for e in seams:
            euler[component[find(e)]] -= 1
        own: List[List[int]] = [[] for _ in component]
        for i, e in enumerate(cycles):
            own[component[find(e)]].append(1 << i)
        # Per component: genus (from chi = 2 - 2 genus - boundary cycles; a
        # link diagram is planar, so every surface is orientable), the mask
        # of all its boundary cycles, and each cycle's bit.
        self.components = [((2 - len(bits) - chi) // 2, sum(bits), bits) for chi, bits in zip(euler, own)]

    def reduce(self, dotted) -> Morphism:
        """The surface with a dot on each disk in ``dotted``, as dotted disks.

        A component of genus g with d dots is 2^g times itself with g + d
        dots.  With two or more it is 0; with one, every boundary cycle gets
        a dot; with none, it is the sum over its boundary cycles of dotting
        all but that one (and a closed one is 0).
        """
        dots = [genus for genus, _, _ in self.components]
        for i in dotted:
            dots[self.disk[i]] += 1
        coefficient, mask, choices = 1, 0, []
        for d, (genus, full, bits) in zip(dots, self.components):
            if d > 1 or not (d or bits):
                return {}
            coefficient <<= genus
            if d:
                mask |= full
            else:
                choices.append([full ^ bit for bit in bits])
        result = {mask: coefficient}
        for options in choices:
            result = {m | o: c for m, c in result.items() for o in options}
        return result


def _dotted(mask: int, count: int, first: int = 0) -> List[int]:
    """Disks ``first``, ``first + 1``, ... whose bit is set in ``mask``, of ``count``."""
    return [first + i for i in range(count) if mask >> i & 1]


def _add(total: Morphism, morphism: Morphism, scale: int):
    """Add ``scale`` times ``morphism`` into ``total``, dropping zero terms."""
    for mask, c in morphism.items():
        v = total.get(mask, 0) + scale * c
        if v:
            total[mask] = v
        else:
            total.pop(mask, None)


class _Complex:
    """A complex over one tangle: objects by id, and sparse entries both ways."""

    def __init__(self):
        self.objects: Dict[int, Tuple[Matching, int, int]] = {}  # id -> (matching, weight, q)
        self.out: Dict[int, Dict[int, Morphism]] = {}
        self.into: Dict[int, Dict[int, Morphism]] = {}
        self.added = 0

    def add(self, matching: Matching, weight: int, q: int) -> int:
        i = self.added
        self.added += 1
        self.objects[i] = (matching, weight, q)
        self.out[i], self.into[i] = {}, {}
        return i

    def put(self, src: int, tgt: int, morphism: Morphism):
        if morphism:
            self.out[src][tgt] = self.into[tgt][src] = morphism
        else:
            self.out[src].pop(tgt, None)
            self.into[tgt].pop(src, None)

    def eliminate(self, compose):
        """Cancel +-identity entries until none is left (Gaussian elimination).

        Cancelling an isomorphism phi: b1 -> b2 removes both objects and
        adds -gamma phi^{-1} delta to the entry x -> y for every delta:
        x -> b2 and gamma: b1 -> y; the result is homotopy equivalent.
        """
        cancelled = True
        while cancelled:
            cancelled = False
            for b1 in list(self.objects):
                if b1 not in self.objects:
                    continue
                matching, _, q = self.objects[b1]
                for b2, phi in self.out[b1].items():
                    matching2, _, q2 = self.objects[b2]
                    if (matching2, q2) == (matching, q) and phi in ({0: 1}, {0: -1}):
                        self._cancel(b1, b2, phi[0], compose)
                        cancelled = True
                        break

    def _cancel(self, b1: int, b2: int, unit: int, compose):
        middle = self.objects[b1][0]
        sources = [(x, delta) for x, delta in self.into[b2].items() if x != b1]
        targets = [(y, gamma) for y, gamma in self.out[b1].items() if y != b2]
        for b in (b1, b2):
            for y in self.out.pop(b):
                self.into[y].pop(b, None)
            for x in self.into.pop(b):
                self.out[x].pop(b, None)
            del self.objects[b]
        for x, delta in sources:
            for y, gamma in targets:
                total = dict(self.out[x].get(y, {}))
                _add(total, compose(self.objects[x][0], middle, self.objects[y][0], delta, gamma), -unit)
                self.put(x, y, total)


def khovanov_complex(D: OrientedDiagram) -> GradedComplex:
    """The Khovanov complex of ``D`` up to homotopy, by the tangle scan.

    Its homology is classical Khovanov homology; every cache lives for this
    call only.
    """
    cycles: Dict[Tuple[Matching, Matching], List[Tuple[int, ...]]] = {}
    compositions: Dict[Tuple[Matching, Matching, Matching], _Surface] = {}

    def cycles_of(bottom: Matching, top: Matching):
        if (bottom, top) not in cycles:
            cycles[bottom, top] = _cycles(bottom, top)
        return cycles[bottom, top]

    def compose(first: Matching, middle: Matching, last: Matching, delta: Morphism, gamma: Morphism) -> Morphism:
        """gamma after delta: two dotted-disk surfaces glued along ``middle``."""
        key = (first, middle, last)
        lower, upper = cycles_of(first, middle), cycles_of(middle, last)
        if key not in compositions:
            compositions[key] = _Surface(
                first + middle + last,
                [c[0] for c in lower + upper],
                [a for a, _ in middle],
                [c[0] for c in cycles_of(first, last)],
            )
        surface, shift = compositions[key], len(lower)
        total: Morphism = {}
        for m1, c1 in delta.items():
            for m2, c2 in gamma.items():
                _add(total, surface.reduce(_dotted(m1, shift) + _dotted(m2, len(upper), shift)), c1 * c2)
        return total

    complex_ = _Complex()
    for e in range(1 << D.free_circles):
        complex_.add((), 0, D.free_circles - 2 * bin(e).count("1"))
    for index in frontier_order(D):
        complex_ = _add_crossing(complex_, D.crossings[index], cycles_of)
        complex_.eliminate(compose)
    return _integer_complex(complex_, D)


def _add_crossing(old: _Complex, crossing: CrossingRecord, cycles_of) -> _Complex:
    """The old complex tensored with the crossing's two smoothings, delooped.

    Each old object splits by bit; bit 1 adds 1 to weight and q.  Old
    entries carry the identity on the smoothing, and each object's saddle
    from bit 0 to bit 1 carries the sign (-1)^weight.  A copy of an object
    with loops has bit j of its copy number set when loop j is in its
    q^{-1} copy, which enters by a dotted cup and leaves by a plain cap
    (the q^{+1} copy: plain cup, dotted cap).
    """
    new = _Complex()
    copies = {}
    for i, (matching, weight, q) in old.objects.items():
        for bit in (0, 1):
            smoothed, loops = _smooth(matching, crossing, bit)
            ids = [
                new.add(smoothed, weight + bit, q + bit + len(loops) - 2 * bin(e).count("1"))
                for e in range(1 << len(loops))
            ]
            copies[i, bit] = (smoothed, loops, ids)
    ends = [e for pair in _pairings(crossing, 0) for e in pair]
    surfaces: Dict[tuple, _Surface] = {}

    def extend(src: int, tgt: int, bits: Tuple[int, int], morphism: Morphism):
        (m_a, _, _), (m_b, _, _) = old.objects[src], old.objects[tgt]
        (n_a, loops_a, ids_a), (n_b, loops_b, ids_b) = copies[src, bits[0]], copies[tgt, bits[1]]
        key = (m_a, m_b, bits)
        n_old = len(cycles_of(m_a, m_b))
        if key not in surfaces:
            pairs = [_pairings(crossing, bit) for bit in bits]
            pieces = [pair[0] for pair in pairs[0]] if bits[0] == bits[1] else [ends[0]]
            open_before = {e for pair in m_a for e in pair}
            surfaces[key] = _Surface(
                m_a + m_b + tuple(pairs[0]) + tuple(pairs[1]),
                [c[0] for c in cycles_of(m_a, m_b)] + pieces + loops_a + loops_b,
                [e for e in set(ends) if e in open_before or ends.count(e) == 2],
                [c[0] for c in cycles_of(n_a, n_b)],
            )
        surface = surfaces[key]
        first_cup = n_old + (1 if bits[0] != bits[1] else 2)
        first_cap = first_cup + len(loops_a)
        plus = (1 << len(loops_b)) - 1
        for e_a, a in enumerate(ids_a):
            for e_b, b in enumerate(ids_b):
                dotted = _dotted(e_a, len(loops_a), first_cup) + _dotted(plus ^ e_b, len(loops_b), first_cap)
                total: Morphism = {}
                for mask, c in morphism.items():
                    _add(total, surface.reduce(_dotted(mask, n_old) + dotted), c)
                new.put(a, b, total)

    for src, targets in old.out.items():
        for tgt, morphism in targets.items():
            for bit in (0, 1):
                extend(src, tgt, (bit, bit), morphism)
    for i, (_, weight, _) in old.objects.items():
        extend(i, i, (0, 1), {0: -1 if weight % 2 else 1})
    return new


def _integer_complex(complex_: _Complex, D: OrientedDiagram) -> GradedComplex:
    """The scan's last complex, all of whose matchings are empty, over Z."""
    shift = D.n_plus - 2 * D.n_minus
    position: Dict[int, int] = {}
    degrees: Dict[int, list] = {}
    for i, (_, weight, q) in complex_.objects.items():
        column = degrees.setdefault(weight - D.n_minus, [])
        position[i] = len(column)
        column.append(q + shift)
    differentials = {i: [{} for _ in degrees[i + 1]] for i in degrees if i + 1 in degrees}
    for src, targets in complex_.out.items():
        for tgt, morphism in targets.items():
            differentials[complex_.objects[src][1] - D.n_minus][position[tgt]][position[src]] = morphism[0]
    return GradedComplex(ring=None, degrees=degrees, differentials=differentials)
