"""The cobordism relations behind the tangle scan: Khovanov's theory over Z, h = t = 0.

A ``_Surface`` is glued from disks; gluing two disks along an interval (a
seam) lowers the Euler characteristic by one, and gluing along a circle
leaves it alone.  Every end below is label 1 unless a test needs two
components, so the surfaces are built from their counts alone.  A set of
dotted disks is a mask with bit i for disk i.
"""

import random
from typing import Dict, List

from bracketlab import tangle
from bracketlab.diagram import parse_diagram
from bracketlab.graded import cohomology
from bracketlab.tangle import _cycles, _Surface, khovanov_complex
from conftest import DIAGRAM_NAMES, braid_closure, random_braid_word


def surface(disks: int, seams: int, cycles: int) -> _Surface:
    """One connected surface with the given numbers of disks, seams and boundary cycles."""
    return _Surface([(1, 1)], [1] * disks, [1] * seams, [1] * cycles)


def test_sphere_is_one_only_with_one_dot():
    sphere = surface(disks=2, seams=0, cycles=0)
    assert sphere.reduce(0) == {}
    assert sphere.reduce(0b01) == {0: 1}
    assert sphere.reduce(0b11) == {}


def test_torus_is_two():
    torus = surface(disks=2, seams=2, cycles=0)
    assert torus.reduce(0) == {0: 2}
    assert torus.reduce(0b10) == {}


def test_handle_is_twice_a_dot():
    # A disk with a handle: chi = 2 - 3 = -1 with one boundary cycle.
    handled = surface(disks=2, seams=3, cycles=1)
    assert handled.reduce(0) == {1: 2}
    assert handled.reduce(0b01) == {}


def test_neck_cutting():
    # An annulus is the two disks with a dot on one or the other.
    annulus = surface(disks=2, seams=2, cycles=2)
    assert annulus.reduce(0) == {0b01: 1, 0b10: 1}
    assert annulus.reduce(0b10) == {0b11: 1}
    assert annulus.reduce(0b11) == {}


def test_components_reduce_apart():
    two_disks = _Surface([], [1, 2], [], [1, 2])
    assert two_disks.reduce(0) == {0: 1}
    assert two_disks.reduce(0b10) == {0b10: 1}
    assert two_disks.reduce(0b11) == {0b11: 1}


def test_cycles_of_two_matchings():
    assert _cycles(((1, 2), (3, 4)), ((1, 2), (3, 4))) == [(1, 2), (3, 4)]
    assert _cycles(((1, 2), (3, 4)), ((1, 4), (2, 3))) == [(1, 2, 3, 4)]
    assert _cycles(((1, 4), (2, 3)), ((1, 2), (3, 4))) == [(1, 4, 3, 2)]


class ReferenceSurface:
    """``_Surface`` reduced disk by disk: its dots are a list of disk indices, counted one at a time."""

    def __init__(self, arcs, disks, seams, cycles):
        parent: Dict[int, int] = {}

        def find(a):
            parent.setdefault(a, a)
            while parent[a] != a:
                a = parent[a]
            return a

        for a, b in arcs:
            parent[find(a)] = find(b)
        component: Dict[int, int] = {}
        self.disk = [component.setdefault(find(e), len(component)) for e in disks]
        euler = [self.disk.count(k) for k in range(len(component))]
        for e in seams:
            euler[component[find(e)]] -= 1
        own: List[List[int]] = [[] for _ in component]
        for i, e in enumerate(cycles):
            own[component[find(e)]].append(1 << i)
        self.components = [((2 - len(bits) - chi) // 2, bits) for chi, bits in zip(euler, own)]

    def reduce(self, dotted: List[int]) -> dict:
        dots = [genus for genus, _ in self.components]
        for i in dotted:
            dots[self.disk[i]] += 1
        result = {0: 1}
        for d, (genus, bits) in zip(dots, self.components):
            if d > 1 or not (d or bits):
                return {}
            full = sum(bits)
            options = [full] if d else [full ^ bit for bit in bits]
            result = {m | o: c << genus for m, c in result.items() for o in options}
        return result


def test_reduce_agrees_with_the_reference_on_every_mask_of_scanned_surfaces(monkeypatch):
    # Every surface the scan builds on a few closures, with every dot mask
    # over its disks; each mask is asked twice, so the second answer comes
    # from the surface's memo.
    built = []

    class Recorded(_Surface):
        def __init__(self, *args):
            super().__init__(*args)
            built.append((self, args))

    monkeypatch.setattr(tangle, "_Surface", Recorded)
    rng = random.Random(2)
    for k in range(6):
        strands = 3 + k % 2
        word = random_braid_word(rng, strands, 5 + k)
        khovanov_complex(parse_diagram(braid_closure(word, strands)))
    masks = 0
    for surface, args in built:
        reference = ReferenceSurface(*args)
        disks = len(args[1])
        for mask in range(1 << disks):
            expected = reference.reduce([i for i in range(disks) if mask >> i & 1])
            assert surface.reduce(mask) == expected, (args, mask)
            assert surface.reduce(mask) == expected, (args, mask)
            masks += 1
    assert len(built) > 100 and masks > 1000


def test_each_crossing_smooths_each_matching_once(monkeypatch):
    # The objects of T(2,6) share two matchings, so smoothing per object would
    # repeat calls; one call gives both bits.
    calls = []
    smoothings = tangle._smoothings

    def counted(crossing):
        smooth = smoothings(crossing)

        def counted_smooth(matching):
            calls.append((crossing, matching))
            return smooth(matching)

        return counted_smooth

    monkeypatch.setattr(tangle, "_smoothings", counted)
    D = parse_diagram(braid_closure([1] * 6, 2))
    khovanov_complex(D)
    assert len(calls) == len(set(calls))
    for crossing in D.crossings:
        assert any(c == crossing for c, _ in calls), crossing


def test_no_free_circles_returns_the_table_itself(diagrams):
    # V tensored zero times is Z: the table is returned, and it is what the k = 0 regrade gives.
    for name in DIAGRAM_NAMES:
        table = cohomology(khovanov_complex(diagrams[name]))
        assert tangle.tensor_free_circles(table, 0) is table
        regraded = table.regraded(None, lambda j: [(j, 1)])
        assert regraded.entries == table.entries and regraded.to_json() == table.to_json()
