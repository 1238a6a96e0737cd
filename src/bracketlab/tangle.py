"""Classical Khovanov homology by Bar-Natan's tangle scan.

Bar-Natan, "Fast Khovanov homology computations" (arXiv math/0606318).
Crossings are added one at a time in ``D.scan_order``.  After each one the
complex is that of the tangle of the crossings taken so far: an object is a
matching of the open edges (as the map of ``diagram._smoothings`` builds it,
one call giving both smoothings) with a homological weight and a q-shift,
and an entry of the differential is a dotted cobordism between two matchings.

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

The scan covers the crossings alone.  Each free circle (a component without
crossings) would double every object of it, so the circles are put in at
the table instead: ``tensor_free_circles`` tensors the homology with one
copy of V = Z{q, q^-1} per circle.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Tuple

from .diagram import CrossingRecord, DiagramError, OrientedDiagram, _pairings, _smoothings
from .graded import GradedComplex, HomologyTable

Matching = Tuple[Tuple[int, int], ...]
Morphism = Dict[int, int]

# The most torsion factors ``tensor_free_circles`` may write.
MAX_TORSION_FACTORS = 1 << 16


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
    each cycle of the result's boundary.  A set of dotted disks is a mask
    with bit i for disk i, as a morphism's mask has bit i for cycle i.

    Each arc links its ends' roots in a plain dict, where an end that is not a
    key is a root.  Each component keeps the mask of its disks, and ``reduce``
    keeps its result per dot mask.  A surface lives for one crossing of the
    scan, or for one call of ``khovanov_complex``, and its memo with it.
    """

    def __init__(self, arcs, disks, seams, cycles):
        parent: Dict[int, int] = {}
        for a, b in arcs:
            while a in parent:
                a = parent[a]
            while b in parent:
                b = parent[b]
            if a != b:
                parent[a] = b
        masks: Dict[int, int] = {}  # root -> the mask of its component's disks, in order of first disk
        for i, e in enumerate(disks):
            while e in parent:
                e = parent[e]
            masks[e] = masks.get(e, 0) | 1 << i
        euler = {root: mask.bit_count() for root, mask in masks.items()}
        for e in seams:
            while e in parent:
                e = parent[e]
            euler[e] -= 1
        own: Dict[int, List[int]] = {root: [] for root in masks}
        for i, e in enumerate(cycles):
            while e in parent:
                e = parent[e]
            own[e].append(1 << i)
        # Per component: genus (from chi = 2 - 2 genus - boundary cycles; a
        # link diagram is planar, so every surface is orientable), the mask
        # of its disks, the mask of all its boundary cycles, and each cycle's bit.
        self.components = [
            ((2 - len(own[root]) - euler[root]) // 2, disks_of, sum(own[root]), own[root])
            for root, disks_of in masks.items()
        ]
        self.reduced: Dict[int, Morphism] = {}

    def reduce(self, dotted: int) -> Morphism:
        """The surface with a dot on each disk in the mask ``dotted``, as dotted disks.

        A component of genus g with d dots is 2^g times itself with g + d
        dots.  With two or more it is 0; with one, every boundary cycle gets
        a dot; with none, it is the sum over its boundary cycles of dotting
        all but that one (and a closed one is 0).  Each mask is reduced once;
        callers read the result and do not change it.
        """
        if dotted in self.reduced:
            return self.reduced[dotted]
        coefficient, mask, choices = 1, 0, []
        result: Morphism = {}
        for genus, disks, full, bits in self.components:
            d = genus + (dotted & disks).bit_count()
            if d > 1 or not (d or bits):
                break
            coefficient <<= genus
            if d:
                mask |= full
            else:
                choices.append([full ^ bit for bit in bits])
        else:
            result = {mask: coefficient}
            for options in choices:
                result = {m | o: c for m, c in result.items() for o in options}
        self.reduced[dotted] = result
        return result


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
    """The Khovanov complex of ``D``'s crossings up to homotopy, by the tangle scan.

    Its homology, tensored with ``D.free_circles`` copies of V by
    ``tensor_free_circles``, is classical Khovanov homology; every cache
    lives for this call only.
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
                _add(total, surface.reduce(m1 | m2 << shift), c1 * c2)
        return total

    complex_ = _Complex()
    complex_.add((), 0, 0)
    for index in D.scan_order:
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

    The crossing's own parts are found once per call: per bit pair its arcs
    and disks (two strips, or one saddle), and the seams, as every object
    matches the same open ends.  Each distinct matching is smoothed once, for
    both bits; each surface is built once, with the positions of its cups and caps.
    """
    new = _Complex()
    copies = {}
    smooth = _smoothings(crossing)
    matchings = dict.fromkeys(matching for matching, _, _ in old.objects.values())
    smoothed = {m: smooth(m) for m in matchings}
    for i, (matching, weight, q) in old.objects.items():
        for bit, (after, loops) in enumerate(smoothed[matching]):
            ids = [
                new.add(after, weight + bit, q + bit + len(loops) - 2 * e.bit_count())
                for e in range(1 << len(loops))
            ]
            copies[i, bit] = (after, loops, ids)
    pairs = [tuple(_pairings(crossing, bit)) for bit in (0, 1)]
    ends = [e for pair in pairs[0] for e in pair]
    open_before = {e for pair in next(iter(matchings)) for e in pair}
    seams = [e for e in set(ends) if e in open_before or ends.count(e) == 2]
    pieces = {(bit, bit): (pairs[bit] * 2, [a for a, _ in pairs[bit]]) for bit in (0, 1)}
    pieces[0, 1] = (pairs[0] + pairs[1], [ends[0]])
    surfaces: Dict[tuple, Tuple[_Surface, int, int, int]] = {}

    def extend(src: int, tgt: int, bits: Tuple[int, int], morphism: Morphism):
        m_a, m_b = old.objects[src][0], old.objects[tgt][0]
        (n_a, loops_a, ids_a), (n_b, loops_b, ids_b) = copies[src, bits[0]], copies[tgt, bits[1]]
        key = (m_a, m_b, bits)
        if key not in surfaces:
            lower = [c[0] for c in cycles_of(m_a, m_b)]
            arcs, disks = pieces[bits]
            first_cup = len(lower) + len(disks)
            surface = _Surface(m_a + m_b + arcs, lower + disks + loops_a + loops_b, seams, [c[0] for c in cycles_of(n_a, n_b)])
            surfaces[key] = surface, first_cup, first_cup + len(loops_a), (1 << len(loops_b)) - 1
        surface, first_cup, first_cap, plus = surfaces[key]
        for e_a, a in enumerate(ids_a):
            for e_b, b in enumerate(ids_b):
                dotted = e_a << first_cup | (plus ^ e_b) << first_cap
                total: Morphism = {}
                for mask, c in morphism.items():
                    _add(total, surface.reduce(mask | dotted), c)
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
    return GradedComplex(degrees, differentials)


def tensor_free_circles(table: HomologyTable, k: int) -> HomologyTable:
    """``table`` tensored with V^{(x)k}, V = Z{q, q^-1}: the homology with k more free circles.

    Exact over Z because V is free: the entry at (i, j) with rank r and
    torsion T adds, for e = 0..k, rank C(k, e) r and C(k, e) copies of T at
    (i, j + k - 2e), so 2^k times the torsion factors of ``table``, which
    past ``MAX_TORSION_FACTORS`` are refused before any is written.  With
    k = 0 that is ``table`` itself.
    """
    factors = sum(len(torsion) for _, _, torsion in table.entries) << k
    if factors > MAX_TORSION_FACTORS:
        raise DiagramError(f"{k} free circles would make {factors} torsion factors (at most {MAX_TORSION_FACTORS})")
    if k == 0:
        return table
    return table.regraded(None, lambda j: [(j + k - 2 * e, comb(k, e)) for e in range(k + 1)])
