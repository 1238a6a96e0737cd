"""Answers computed apart from bracketlab, for checking its outputs.

Nothing here imports bracketlab.  The state sums and coloring counts work
on braid words or on raw diagram JSON with their own circle counting.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Dict, List, Sequence, Tuple


def _state_circles(word: Sequence[int], strands: int, bits: Sequence[int]) -> int:
    """Circles of one smoothing of a closed braid, by union-find on strand pieces.

    Piece (t, p) is position p between letters t-1 and t; the closure joins
    the last level to the first.  Bit 0 is the oriented smoothing at a
    positive letter and the unoriented (cap/cup) one at a negative letter.
    """
    levels = len(word) + 1
    parent = list(range(levels * strands))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for t, (letter, bit) in enumerate(zip(word, bits)):
        i = abs(letter) - 1
        top, bottom = t * strands, (t + 1) * strands
        for p in range(strands):
            if p != i and p != i + 1:
                union(top + p, bottom + p)
        if (bit == 0) == (letter > 0):
            union(top + i, bottom + i)
            union(top + i + 1, bottom + i + 1)
        else:
            union(top + i, top + i + 1)
            union(bottom + i, bottom + i + 1)
    last = (levels - 1) * strands
    for p in range(strands):
        union(last + p, p)
    return len({find(a) for a in range(len(parent))})


def kauffman_euler(word: Sequence[int], strands: int) -> Dict[int, int]:
    """The unnormalised Jones polynomial as {q-exponent: coefficient}.

    (-1)^{n-} q^{n+ - 2 n-} sum_s (-q)^{|s|} (q + q^-1)^{circles(s)}, which
    the graded Euler characteristic of Khovanov homology must equal.
    """
    n_minus = sum(1 for letter in word if letter < 0)
    shift = len(word) - n_minus - 2 * n_minus
    total: Dict[int, int] = {}
    for bits in itertools.product((0, 1), repeat=len(word)):
        k = _state_circles(word, strands, bits)
        weight = sum(bits)
        sign = -1 if (weight + n_minus) % 2 else 1
        for ups in range(k + 1):
            e = shift + weight + ups - (k - ups)
            total[e] = total.get(e, 0) + sign * comb(k, ups)
    return {e: c for e, c in total.items() if c}


def euler_of_table(table: Dict[Tuple[int, int], Tuple[int, tuple]]) -> Dict[int, int]:
    """Graded Euler characteristic sum (-1)^i rank q^j of a homology table."""
    total: Dict[int, int] = {}
    for (i, j), (rank, _) in table.items():
        total[j] = total.get(j, 0) + (rank if i % 2 == 0 else -rank)
    return {e: c for e, c in total.items() if c}


def torus_2_khovanov(n: int) -> Dict[Tuple[int, int], Tuple[int, tuple]]:
    """Integer Khovanov homology of the positive torus link T(2, n), n >= 2.

    Khovanov, "A categorification of the Jones polynomial" (math/9908171),
    section 6.2: Z at (0, n-2) and (0, n); for 2j < n, Z at (2j, n+4j-2);
    for 2j+1 <= n, Z at (2j+1, n+4j+2) and Z/2 at (2j+1, n+4j); for n even
    a further Z at (n, 3n).
    """
    table: Dict[Tuple[int, int], list] = {}

    def put(i, j, rank=0, torsion=()):
        entry = table.setdefault((i, j), [0, ()])
        entry[0] += rank
        entry[1] += torsion

    put(0, n - 2, 1)
    put(0, n, 1)
    for j in range(1, n):
        if 2 * j <= n:
            put(2 * j, n + 4 * j - 2, 1)
        if 2 * j + 1 <= n:
            put(2 * j + 1, n + 4 * j + 2, 1)
            put(2 * j + 1, n + 4 * j, 0, (2,))
    if n % 2 == 0:
        put(n, 3 * n, 1)
    return {k: (v[0], tuple(v[1])) for k, v in table.items()}


def mirror_table(table: Dict[Tuple[int, int], Tuple[int, tuple]]) -> Dict[Tuple[int, int], Tuple[int, tuple]]:
    """Khovanov homology of the mirror image, by the universal coefficient theorem.

    Free rank moves from (i, j) to (-i, -j); torsion moves to (1-i, -j).
    """
    out: Dict[Tuple[int, int], list] = {}
    for (i, j), (rank, torsion) in table.items():
        if rank:
            out.setdefault((-i, -j), [0, ()])[0] += rank
        if torsion:
            out.setdefault((1 - i, -j), [0, ()])[1] += tuple(torsion)
    return {k: (v[0], tuple(sorted(v[1]))) for k, v in out.items()}


def braid_colorings(word: Sequence[int], strands: int, under, over) -> int:
    """Colorings of a closed braid: top colorings the braid maps to themselves.

    ``under``/``over`` are the 1-indexed operation tables.  At sigma_i the
    strand at position i is the under-strand; at sigma_i^-1 it is the over-strand.
    """
    n = len(under)
    count = 0
    for top in itertools.product(range(1, n + 1), repeat=strands):
        cur = list(top)
        for letter in word:
            i = abs(letter) - 1
            left, right = cur[i], cur[i + 1]
            if letter > 0:  # under = left, over = right
                cur[i], cur[i + 1] = over[right - 1][left - 1], under[left - 1][right - 1]
            else:  # under = right, over = left
                cur[i], cur[i + 1] = under[right - 1][left - 1], over[left - 1][right - 1]
        count += cur == list(top)
    return count


def brute_force_colorings(diagram: dict, under, over) -> int:
    """Colorings of diagram JSON by trying every assignment of colors to arcs."""
    crossings = diagram["crossings"]
    arcs = sorted({c[k] for c in crossings for k in ("under_in", "over_in", "under_out", "over_out")})
    pos = {a: k for k, a in enumerate(arcs)}
    rel = [(pos[c["under_in"]], pos[c["over_in"]], pos[c["under_out"]], pos[c["over_out"]])
           for c in crossings]
    n = len(under)
    count = 0
    for colors in itertools.product(range(n), repeat=len(arcs)):
        for ui, oi, uo, oo in rel:
            x, y = colors[ui], colors[oi]
            if colors[uo] != under[x][y] - 1 or colors[oo] != over[y][x] - 1:
                break
        else:
            count += 1
    return count * n ** diagram.get("free_circles", 0)


def multiplicity_total(multiset: List[tuple]) -> int:
    return sum(m for _, m in multiset)
