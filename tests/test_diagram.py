import itertools
import random
import time
from typing import Dict, List, Tuple

import pytest

from bracketlab.diagram import (
    CrossingRecord,
    DiagramError,
    OrientedDiagram,
    _smoothings,
    frontier_order,
    parse_diagram,
)
from conftest import (
    DIAGRAM_NAMES,
    braid_closure,
    cube_edge_sign,
    greedy_frontier_order,
    kink_chain,
    open_edges,
    random_braid_word,
    resolve_state,
    smoothing_states,
)


def trace_circles(D: OrientedDiagram, bits) -> int:
    """Circle count by explicitly walking edge-end pairings.

    Independent cross-check of the union-find in ``resolve_state``.  The
    walk distinguishes the two ends of each edge (its output slot and input
    slot), so edges looping back to the same crossing are handled correctly.
    """
    # Slots are (crossing index, role). A smoothing mates the four slots of a
    # crossing in two pairs.
    slot_in: Dict[int, tuple] = {}
    slot_out: Dict[int, tuple] = {}
    mate: Dict[tuple, tuple] = {}
    edge_at: Dict[tuple, int] = {}
    for idx, (crossing, bit) in enumerate(zip(D.crossings, bits)):
        slot_in[crossing.under_in] = (idx, "under_in")
        slot_in[crossing.over_in] = (idx, "over_in")
        slot_out[crossing.under_out] = (idx, "under_out")
        slot_out[crossing.over_out] = (idx, "over_out")
        for role in ("under_in", "over_in", "under_out", "over_out"):
            edge_at[(idx, role)] = getattr(crossing, role)
        vertical = bit == 0 if crossing.sign == 1 else bit == 1
        if vertical:
            pairs = [("under_in", "over_out"), ("over_in", "under_out")]
        else:
            pairs = [("under_in", "over_in"), ("under_out", "over_out")]
        for a, b in pairs:
            mate[(idx, a)] = (idx, b)
            mate[(idx, b)] = (idx, a)

    visited = set()
    count = 0
    for start in D.edges:
        if start in visited:
            continue
        count += 1
        # State: (edge, going_forward); forward = from output slot to input slot.
        edge, forward = start, True
        while True:
            visited.add(edge)
            slot = slot_in[edge] if forward else slot_out[edge]
            nxt_slot = mate[slot]
            edge = edge_at[nxt_slot]
            # Arriving at an output slot means we stand at the new edge's tail
            # and walk it forward; an input slot means we walk it backward.
            forward = nxt_slot[1].endswith("_out")
            if edge == start and forward:
                break
    return count + D.free_circles


def components(D: OrientedDiagram) -> List[Tuple[int, ...]]:
    """Link components as cyclic edge sequences (plus free circles)."""
    succ = {}
    for c in D.crossings:
        succ[c.under_in] = c.under_out
        succ[c.over_in] = c.over_out
    comps = []
    seen = set()
    for start in D.edges:
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = succ[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = succ[cur]
        comps.append(tuple(cycle))
    comps.extend((arc,) for arc in D.free_circle_arcs)
    return comps


def linking_number(D: OrientedDiagram, comp_a: int, comp_b: int) -> int:
    """Half the signed count of crossings between two components."""
    comps = components(D)
    in_a, in_b = set(comps[comp_a]), set(comps[comp_b])
    total = 0
    for c in D.crossings:
        if (c.under_in in in_a and c.over_in in in_b) or (c.under_in in in_b and c.over_in in in_a):
            total += c.sign
    assert total % 2 == 0, "odd inter-component crossing sum"
    return total // 2


class TestParsing:
    def test_trefoil_basics(self, diagrams):
        t = diagrams["trefoil"]
        assert len(t.crossings) == 3
        assert t.n_plus - t.n_minus == 3  # writhe
        assert t.n_plus == 3 and t.n_minus == 0
        assert len(components(t)) == 1
        assert t.arcs() == [1, 2, 3, 4, 5, 6]

    def test_unknot_free_circle(self, diagrams):
        u = diagrams["unknot"]
        assert not u.crossings
        assert u.arcs() == [1]
        assert len(components(u)) == 1

    def test_hopf_linking_number(self, diagrams):
        h = diagrams["hopf"]
        assert len(components(h)) == 2
        assert linking_number(h, 0, 1) == 1

    def test_missing_field(self):
        with pytest.raises(DiagramError):
            parse_diagram({"crossings": [{"sign": 1, "under_in": 1}]})

    def test_bad_sign(self):
        with pytest.raises(DiagramError):
            OrientedDiagram([CrossingRecord(2, 1, 2, 1, 2)])

    def test_dangling_edge(self):
        with pytest.raises(DiagramError):
            OrientedDiagram([CrossingRecord(1, 1, 2, 3, 4)])

    def test_virtual_link_rejected(self):
        # Two circles crossing twice, the first under the second both times,
        # with both crossings negative: no drawing in the plane has this.
        with pytest.raises(DiagramError, match="plane"):
            OrientedDiagram([CrossingRecord(-1, 1, 2, 3, 4), CrossingRecord(-1, 3, 4, 1, 2)])

    def test_duplicate_input_slot(self):
        with pytest.raises(DiagramError):
            OrientedDiagram(
                [
                    CrossingRecord(1, 1, 1, 2, 3),
                    CrossingRecord(1, 2, 3, 1, 1),
                ]
            )


class TestSmoothings:
    def test_trefoil_circle_counts(self, diagrams):
        t = diagrams["trefoil"]
        by_weight = {0: 2, 1: 1, 2: 2, 3: 3}
        for bits in itertools.product((0, 1), repeat=3):
            state = resolve_state(t, bits)
            assert state.num_circles == by_weight[sum(bits)]

    def test_free_circles_count(self, diagrams):
        state = resolve_state(diagrams["unknot"], ())
        assert state.num_circles == 1

    def test_cube_edges_change_circles_by_one(self, diagrams):
        # Every cube edge merges two circles into one or splits one into two.
        for name in ("trefoil", "figure_eight", "hopf_r2", "trefoil_r2"):
            D = diagrams[name]
            for bits in itertools.product((0, 1), repeat=len(D.crossings)):
                k1 = resolve_state(D, bits).num_circles
                for pos in (pos for pos, bit in enumerate(bits) if bit == 0):
                    k2 = resolve_state(D, bits[:pos] + (1,) + bits[pos + 1 :]).num_circles
                    assert abs(k2 - k1) == 1, (name, bits, pos)

    def test_faces_anticommute(self, diagrams):
        for name in ("trefoil", "figure_eight"):
            D = diagrams[name]
            for bits in itertools.product((0, 1), repeat=len(D.crossings)):
                zeros = [i for i, b in enumerate(bits) if b == 0]
                for i, j in itertools.combinations(zeros, 2):
                    mid_i = tuple(b if k != i else 1 for k, b in enumerate(bits))
                    mid_j = tuple(b if k != j else 1 for k, b in enumerate(bits))
                    path_a = cube_edge_sign(bits, i) * cube_edge_sign(mid_i, j)
                    path_b = cube_edge_sign(bits, j) * cube_edge_sign(mid_j, i)
                    assert path_a == -path_b

    def test_circle_counts_match_trace_oracle(self, diagrams):
        for name in DIAGRAM_NAMES:
            D = diagrams[name]
            for bits in itertools.product((0, 1), repeat=len(D.crossings)):
                assert resolve_state(D, bits).num_circles == trace_circles(D, bits), (name, bits)

    def test_edge_correspondence_matches_circle_edge_sets(self, diagrams):
        # The reference cube carries each circle with the same edges in both
        # states and merges or splits the rest: the circles left over on
        # either side cover the same edges.
        for name in DIAGRAM_NAMES:
            D = diagrams[name]
            for bits in itertools.product((0, 1), repeat=len(D.crossings)):
                src = resolve_state(D, bits).circles
                for pos in (pos for pos, bit in enumerate(bits) if bit == 0):
                    dst = resolve_state(D, bits[:pos] + (1,) + bits[pos + 1 :]).circles
                    left = [set(c) for c in src if c not in dst]
                    right = [set(c) for c in dst if c not in src]
                    assert sorted(map(len, (left, right))) == [1, 2], (name, bits, pos)
                    assert set().union(*left) == set().union(*right), (name, bits, pos)


class TestTransferScan:
    def test_each_state_is_one_path(self, diagrams):
        # Smoothing crossings one at a time in frontier order from the empty
        # matching, every bit vector ends at the empty matching, and the
        # loops closed along it are the state's circles.
        rng = random.Random(5)
        cases = [diagrams[name] for name in DIAGRAM_NAMES]
        cases += [parse_diagram(braid_closure(random_braid_word(rng, m, 8), m)) for m in (2, 3, 4, 4)]
        for D in cases:
            order = frontier_order(D)
            assert sorted(order) == list(range(len(D.crossings)))
            paths = {(): ((), 0)}  # bits in scan order -> (matching, loops closed)
            for index in order:
                smooth = _smoothings(D.crossings[index])
                paths = {
                    bits + (bit,): (smoothed, closed + len(loops))
                    for bits, (matching, closed) in paths.items()
                    for bit, (smoothed, loops) in enumerate(smooth(matching))
                }
            assert {matching for matching, _ in paths.values()} == {()}
            by_state = {tuple(bits[order.index(i)] for i in range(len(order))): loops for bits, (_, loops) in paths.items()}
            assert by_state == {s.resolution: s.num_circles - D.free_circles for s in smoothing_states(D)}


class TestFrontierOrder:
    def test_never_wider_than_pd_order(self):
        # With this seed the greedy order alone is wider than PD order on two closures.
        rng = random.Random(40)
        for _ in range(300):
            strands = rng.randint(2, 6)
            word = random_braid_word(rng, strands, rng.randint(1, 40))
            D = parse_diagram(braid_closure(word, strands))
            order = frontier_order(D)
            assert sorted(order) == list(range(len(D.crossings)))
            assert open_edges(D, order) <= open_edges(D, range(len(D.crossings))), (word, strands)

    def test_equals_the_quadratic_greedy(self, diagrams):
        # The heap finds the crossing the quadratic scan's definition picks,
        # ties to the lowest index, and the same choice of PD order.
        cases = [diagrams[name] for name in DIAGRAM_NAMES]
        rng = random.Random(40)
        for _ in range(300):
            strands = rng.randint(2, 6)
            cases.append(parse_diagram(braid_closure(random_braid_word(rng, strands, rng.randint(1, 40)), strands)))
        cases += [parse_diagram(kink_chain(n, (1, -1))) for n in (1, 2, 7)]
        for D in cases:
            assert frontier_order(D) == greedy_frontier_order(D), D.to_json()

    def test_thousands_of_kinks_parse_fast(self):
        # 4,000 disjoint one-crossing kinks: the quadratic scan took about 2 s.
        kinks = [
            {"sign": 1, "under_in": 2 * t + 1, "over_in": 2 * t + 2, "under_out": 2 * t + 2, "over_out": 2 * t + 1}
            for t in range(4000)
        ]
        start = time.perf_counter()
        D = parse_diagram({"crossings": kinks})
        assert time.perf_counter() - start < 0.25
        assert D.scan_order == list(range(4000))
