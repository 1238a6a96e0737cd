"""Grid diagrams, which are not braid closures, against the oracles that walk all 2^n states."""

import random

from bracketlab.biquandle import enumerate_colorings
from bracketlab.bracket import bracket_values
from bracketlab.diagram import parse_diagram
from bracketlab.homology import check_colorings, khovanov_classical
from conftest import (
    BRACKET_NAMES,
    braid_closure,
    brute_force_colorings,
    cube_bh,
    cube_khovanov,
    grid_diagram,
    kauffman_state_sum,
    smoothing_states,
    walk_bracket_values,
)


def seeded_grids() -> list:
    """60 seeded grid diagrams of size 3-7, each size at least once, with at most 10 crossings."""
    rng = random.Random(28)
    grids = []
    while len(grids) < 60 or {len(X) for X, _ in grids} != set(range(3, 8)):
        n = rng.randint(3, 7)
        X, O = rng.sample(range(n), n), rng.sample(range(n), n)
        if all(x != o for x, o in zip(X, O)) and len(grid_diagram(X, O)["crossings"]) <= 10:
            grids.append((X, O))
    return grids


def test_the_pinned_grid_is_the_closure_of_sigma1_inverse_cubed():
    # Columns pass over rows, and each column runs from its O to its X: this
    # grid is then the left-handed trefoil, which fixes the sign rule.
    grid = parse_diagram(grid_diagram([(c + 2) % 5 for c in range(5)], list(range(5))))
    closure = parse_diagram(braid_closure([-1, -1, -1], 2))
    assert khovanov_classical(grid).as_dict() == khovanov_classical(closure).as_dict()


def test_grids_match_the_state_oracles(flip, threeel, brackets):
    grids = [parse_diagram(grid_diagram(X, O)) for X, O in seeded_grids()]
    assert any(D.free_circles for D in grids) and max(len(D.crossings) for D in grids) >= 6
    for D in grids:
        assert khovanov_classical(D).euler_characteristic() == kauffman_state_sum(D), D.to_json()
        for X in (flip, threeel):
            if X.n ** len(D.arcs()) <= 20_000:
                assert enumerate_colorings(X, D) == brute_force_colorings(X, D), D.to_json()
        states = list(smoothing_states(D))
        for name in BRACKET_NAMES:
            beta = brackets[name]
            colorings = enumerate_colorings(beta.biquandle, D)[:2]
            assert bracket_values(beta, D, colorings) == walk_bracket_values(beta, D, colorings, states), (name, D.to_json())


def test_grids_match_the_direct_cube(brackets):
    # The tangle scan, and Bh(f) as the scan's table folded at each coloring's
    # cube unit, against the cohomology of the 2^n cube of smoothings.
    for X, O in seeded_grids():
        D = parse_diagram(grid_diagram(X, O))
        classical = khovanov_classical(D)
        assert classical == cube_khovanov(D), D.to_json()
        for name in ("bracket_z9", "bracket_gf8"):
            beta = brackets[name]
            colorings = enumerate_colorings(beta.biquandle, D)[:2]
            for f, check in zip(colorings, check_colorings(beta, D, colorings, classical)):
                assert check.bh == cube_bh(beta, f), (name, D.to_json())
