"""The cobordism relations behind the tangle scan: Khovanov's theory over Z, h = t = 0.

A ``_Surface`` is glued from disks; gluing two disks along an interval (a
seam) lowers the Euler characteristic by one, and gluing along a circle
leaves it alone.  Every end below is label 1 unless a test needs two
components, so the surfaces are built from their counts alone.
"""

from bracketlab.tangle import _cycles, _Surface


def surface(disks: int, seams: int, cycles: int) -> _Surface:
    """One connected surface with the given numbers of disks, seams and boundary cycles."""
    return _Surface([(1, 1)], [1] * disks, [1] * seams, [1] * cycles)


def test_sphere_is_one_only_with_one_dot():
    sphere = surface(disks=2, seams=0, cycles=0)
    assert sphere.reduce([]) == {}
    assert sphere.reduce([0]) == {0: 1}
    assert sphere.reduce([0, 1]) == {}


def test_torus_is_two():
    torus = surface(disks=2, seams=2, cycles=0)
    assert torus.reduce([]) == {0: 2}
    assert torus.reduce([1]) == {}


def test_handle_is_twice_a_dot():
    # A disk with a handle: chi = 2 - 3 = -1 with one boundary cycle.
    handled = surface(disks=2, seams=3, cycles=1)
    assert handled.reduce([]) == {1: 2}
    assert handled.reduce([0]) == {}


def test_neck_cutting():
    # An annulus is the two disks with a dot on one or the other.
    annulus = surface(disks=2, seams=2, cycles=2)
    assert annulus.reduce([]) == {0b01: 1, 0b10: 1}
    assert annulus.reduce([1]) == {0b11: 1}
    assert annulus.reduce([0, 1]) == {}


def test_components_reduce_apart():
    two_disks = _Surface([], [1, 2], [], [1, 2])
    assert two_disks.reduce([]) == {0: 1}
    assert two_disks.reduce([1]) == {0b10: 1}
    assert two_disks.reduce([0, 1]) == {0b11: 1}


def test_cycles_of_two_matchings():
    assert _cycles(((1, 2), (3, 4)), ((1, 2), (3, 4))) == [(1, 2), (3, 4)]
    assert _cycles(((1, 2), (3, 4)), ((1, 4), (2, 3))) == [(1, 2, 3, 4)]
    assert _cycles(((1, 4), (2, 3)), ((1, 2), (3, 4))) == [(1, 4, 3, 2)]
