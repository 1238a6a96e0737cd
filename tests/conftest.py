"""Shared fixtures (corpus objects loaded once per session), a seeded closed-braid generator and test oracles."""

import itertools
import random

import pytest

from bracketlab.biquandle import Biquandle
from bracketlab.bracket import bracket_from_json, crossing_color_pair
from bracketlab.cocycle import cocycle_from_json
from bracketlab.corpus import corpus_path, load_corpus_json
from bracketlab.diagram import OrientedDiagram, parse_diagram, smoothing_states
from bracketlab.homology import cube_words
from bracketlab.rings import Coset, UnitSubgroup, subgroup_generate

DIAGRAM_NAMES = [
    "unknot",
    "unknot_r1_pos",
    "unknot_r1_neg",
    "unknot_r2",
    "trefoil",
    "trefoil_r1",
    "trefoil_r2",
    "figure_eight",
    "hopf",
    "hopf_r2",
]

EQUIVALENT_PAIRS = [
    ("unknot_r1_pos", "unknot"),
    ("unknot_r1_neg", "unknot"),
    ("unknot_r2", "unknot"),
    ("trefoil_r1", "trefoil"),
    ("trefoil_r2", "trefoil"),
    ("hopf_r2", "hopf"),
]

# The diagrams the basepoint witness is checked on: 10 colorings in all.
WITNESS_DIAGRAMS = ["trefoil", "hopf", "figure_eight", "trefoil_r2"]

BRACKET_NAMES = ["bracket_gf8", "bracket_const_z5", "bracket_const_z7", "bracket_phi", "bracket_z9"]


@pytest.fixture(scope="session")
def diagrams():
    return {name: parse_diagram(load_corpus_json(f"{name}.json")) for name in DIAGRAM_NAMES}


@pytest.fixture(scope="session")
def flip():
    return Biquandle.from_json(load_corpus_json("biquandle_flip.json"))


@pytest.fixture(scope="session")
def threeel():
    return Biquandle.from_json(load_corpus_json("biquandle_3el.json"))


@pytest.fixture(scope="session")
def brackets():
    return {name: bracket_from_json(load_corpus_json(f"{name}.json")) for name in BRACKET_NAMES}


@pytest.fixture(scope="session")
def cocycle_ab():
    return cocycle_from_json(load_corpus_json("cocycle_ab.json"))


@pytest.fixture(scope="session")
def witness():
    """A bracket whose q_{x,x} moves with x: Z/13 on the trivial 2-element biquandle.

    q_{1,1} = 10, q_{2,2} = 4 and G = {1, 3, 9}.  On the bundled flip
    biquandle, axiom (iii.1) at x = y = z forces A_{1,1} = A_{2,2}, so no
    bundled bracket tells the basepoints apart.  Kept out of the corpus
    manifest, whose check-all output is pinned byte for byte.
    """
    return bracket_from_json({
        "ring": {"kind": "zmod", "n": 13},
        "biquandle": {"under": [[1, 1], [2, 2]], "over": [[1, 1], [2, 2]]},
        "A": [[1, 1], [1, 3]],
        "B": [[3, 3], [9, 1]],
    })


def basepoint_group(beta, x0: int):
    """G = <q_{x,y}^{-1} q> and q = q_{x0,x0}, taken at basepoint ``x0``."""
    ring = beta.ring
    q = beta.q(x0, x0)
    elements = beta.biquandle.elements()
    return subgroup_generate(ring, [ring.mul(ring.try_invert(beta.q(x, y)), q) for x in elements for y in elements]), q


def basepoint_z(beta, f, G: UnitSubgroup, x0: int) -> Coset:
    """Z_beta(f) from A_{x0,x0} and B_{x0,x0}, as a coset of ``G``."""
    ring = beta.ring
    colors = dict(f.arc_colors)
    acc = ring.one
    for crossing in f.diagram.crossings:
        x, y = crossing_color_pair(crossing, colors)
        if crossing.sign == 1:
            ratio = ring.mul(beta.a(x, y), ring.try_invert(beta.a(x0, x0)))
        else:
            ratio = ring.mul(ring.try_invert(beta.b(x, y)), beta.b(x0, x0))
        acc = ring.mul(acc, ratio)
    return Coset(G, acc)


def grading_subgroup(beta) -> UnitSubgroup:
    """H = <A_{x,y}, -B_{x,y}>: the subgroup containing all complex degrees."""
    ring = beta.ring
    gens = []
    for x in beta.biquandle.elements():
        for y in beta.biquandle.elements():
            gens.append(beta.a(x, y))
            gens.append(ring.neg(beta.b(x, y)))
    return subgroup_generate(ring, sorted(set(gens)))


def kauffman_state_sum(D: OrientedDiagram) -> dict:
    """Unnormalized Jones polynomial by direct state-sum enumeration.

    chi = (-1)^{n_-} q^{n_+ - 2 n_-} sum_s (-q)^{|s|} (q + q^{-1})^{circles(s)},
    computed on exponents without any homological machinery, as
    {exponent: coefficient} without zero terms.
    """
    total = {}
    shift = D.n_plus - 2 * D.n_minus
    for state in smoothing_states(D):
        w = state.weight
        sign = -1 if (w + D.n_minus) % 2 else 1
        # (q + q^{-1})^c expanded by binomial enumeration.
        for letters in itertools.product((1, -1), repeat=state.num_circles):
            e = shift + w + sum(letters)
            total[e] = total.get(e, 0) + sign
    return {e: c for e, c in total.items() if c}


def keyed_cube_edges(D: OrientedDiagram) -> dict:
    """``cube_words(D).edges`` keyed by (source state bits, changed crossing).

    The edges come in that order: source states in bit order, each with its
    0-bits in crossing order.
    """
    n = len(D.crossings)
    keys = [(bits, pos) for bits in itertools.product((0, 1), repeat=n) for pos in range(n) if not bits[pos]]
    edges = cube_words(D).edges
    assert [(pos, sum(bits) - D.n_minus) for bits, pos in keys] == [(edge[0], edge[2]) for edge in edges]
    return dict(zip(keys, edges))


def corpus_file(name: str) -> str:
    return str(corpus_path(name))


def braid_closure(word, strands: int) -> dict:
    """Diagram JSON of the closed braid of ``word`` on ``strands`` strands.

    Letter ``i`` is sigma_i, a positive crossing of the strands at positions
    i and i+1 (running downward, the left one passes under to the right);
    ``-i`` is its inverse.  Edges 1..strands are the tops of the strands,
    and a position no letter touches is a free circle.
    """
    at = list(range(1, strands + 1))  # the edge now leaving each position
    crossings = []
    for letter in word:
        left, right = abs(letter) - 1, abs(letter)
        new_left, new_right = 2 * len(crossings) + strands + 1, 2 * len(crossings) + strands + 2
        if letter > 0:
            ends = dict(under_in=at[left], over_in=at[right], under_out=new_right, over_out=new_left)
        else:
            ends = dict(under_in=at[right], over_in=at[left], under_out=new_left, over_out=new_right)
        crossings.append({"sign": 1 if letter > 0 else -1, **ends})
        at[left], at[right] = new_left, new_right
    # The bottom of each position is its top: rename its last edge.
    close = {at[p]: p + 1 for p in range(strands)}
    for c in crossings:
        c["under_out"] = close.get(c["under_out"], c["under_out"])
        c["over_out"] = close.get(c["over_out"], c["over_out"])
    return {"crossings": crossings, "free_circles": sum(at[p] == p + 1 for p in range(strands))}


def random_braid_word(rng: random.Random, strands: int, length: int) -> list:
    """``length`` letters, each generator and sign equally likely."""
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]


def braid_move_pairs(rng: random.Random, word: list, strands: int) -> list:
    """``(move, left, right)`` triples: closed braids, as (word, strands), that one move relates.

    Conjugation rotates ``word``; stabilisation adds sigma_m^{+-1} on one
    more strand (Reidemeister I); insertion puts sigma_i sigma_i^{-1} in
    (Reidemeister II); the braid relation compares w sigma_i sigma_{i+1}
    sigma_i with w sigma_{i+1} sigma_i sigma_{i+1}, both signs
    (Reidemeister III).  ``strands`` is at least 3.
    """
    k, pos = rng.randrange(len(word) + 1), rng.randrange(len(word) + 1)
    g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
    i, sign = rng.randint(1, strands - 2), rng.choice((1, -1))
    left, right = [sign * i, sign * (i + 1)], [sign * (i + 1), sign * i]
    return [
        ("conjugation", (word, strands), (word[k:] + word[:k], strands)),
        ("stabilisation", (word, strands), (word + [rng.choice((1, -1)) * strands], strands + 1)),
        ("insertion", (word, strands), (word[:pos] + [g, -g] + word[pos:], strands)),
        ("braid relation", (word + left + left[:1], strands), (word + right + right[:1], strands)),
    ]
