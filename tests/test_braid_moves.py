"""Every invariant is unchanged by the moves that relate closed braids of one link."""

import random

import pytest

from bracketlab.biquandle import counting_invariant
from bracketlab.bracket import bracket_invariant
from bracketlab.cocycle import z_invariant_multiset
from bracketlab.diagram import parse_diagram
from bracketlab.homology import bh_multiset, khovanov_classical
from conftest import braid_closure, braid_move_pairs, random_braid_word


def _sweep():
    """(move, left, right) for 10 seeded 3-strand words of 2-6 letters, four moves each."""
    rng = random.Random(7)
    for _ in range(10):
        yield from braid_move_pairs(rng, random_braid_word(rng, 3, rng.randint(2, 6)), 3)


def _invariants(side, biquandles, brackets) -> dict:
    D = parse_diagram(braid_closure(*side))
    values = {f"counting:{name}": counting_invariant(X, D) for name, X in biquandles.items()}
    for name, beta in brackets.items():
        values[f"bracket:{name}"] = bracket_invariant(beta, D)
        values[f"z:{name}"] = z_invariant_multiset(beta, D)
        values[f"bh:{name}"] = bh_multiset(beta, D)
    values["khovanov"] = khovanov_classical(D)
    return values


def test_braid_moves_keep_every_invariant(flip, brackets):
    chosen = {name: brackets[name] for name in ("bracket_z9", "bracket_gf8")}
    for move, left, right in _sweep():
        a, b = _invariants(left, {"flip": flip}, chosen), _invariants(right, {"flip": flip}, chosen)
        for key in a:
            assert a[key] == b[key], (move, left, right, key)


@pytest.mark.xfail(
    strict=True,
    reason="enumerate_colorings colors a negative crossing by the positive crossing's rule, "
    "not its inverse; only involutive biquandles such as flip get invariant counts",
)
def test_braid_moves_keep_the_3el_counting_invariant(threeel):
    for move, left, right in _sweep():
        a, b = (counting_invariant(threeel, parse_diagram(braid_closure(*side))) for side in (left, right))
        assert a == b, (move, left, right)
