"""Braid words, their closures as PD diagram JSON, and Markov moves.

A braid word on ``m`` strands is a sequence of nonzero integers: ``i`` is
the generator sigma_i (strand at position i crosses strand i+1 as a
positive crossing) and ``-i`` its inverse.  Strands run downward; in the
bracketlab convention a positive crossing has its under-strand entering
NW and leaving SE, so for sigma_i the strand at position i is the
under-strand and for sigma_i^-1 it is the over-strand.

Everything here is the benchmark's own code: the program under test only
ever sees the diagram JSON that ``closure`` returns.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple


def closure(word: Sequence[int], strands: int) -> dict:
    """The closed braid of ``word`` as bracketlab diagram JSON.

    Edge labels 1..strands are the top of each strand; the closure joins
    the bottom of position p to its top.  A position no letter touches
    closes up into a crossing-free circle.
    """
    if strands < 1:
        raise ValueError("a braid has at least one strand")
    for letter in word:
        if letter == 0 or abs(letter) >= strands:
            raise ValueError(f"letter {letter} is not a generator on {strands} strands")
    current = list(range(1, strands + 1))  # edge label now at each position
    next_label = strands + 1
    crossings = []
    for letter in word:
        i = abs(letter) - 1
        left_in, right_in = current[i], current[i + 1]
        left_out, right_out = next_label, next_label + 1
        next_label += 2
        if letter > 0:  # under goes left -> right, over right -> left
            crossings.append({"sign": 1, "under_in": left_in, "over_in": right_in,
                              "under_out": right_out, "over_out": left_out})
        else:  # over goes left -> right, under right -> left
            crossings.append({"sign": -1, "under_in": right_in, "over_in": left_in,
                              "under_out": left_out, "over_out": right_out})
        current[i], current[i + 1] = left_out, right_out
    # Close up: the last label at position p is the top edge p.
    rename = {current[p]: p + 1 for p in range(strands) if current[p] != p + 1}
    for c in crossings:
        for key in ("under_out", "over_out"):
            c[key] = rename.get(c[key], c[key])
    free = sum(1 for p in range(strands) if current[p] == p + 1)
    return {"crossings": crossings, "free_circles": free}


def mirror(word: Sequence[int]) -> List[int]:
    """The mirror image: every crossing changes sign."""
    return [-letter for letter in word]


def random_word(rng: random.Random, strands: int, length: int) -> List[int]:
    """A word of ``length`` letters, each generator and sign equally likely."""
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]


def conjugate(word: Sequence[int], k: int) -> List[int]:
    """Cyclic rotation: conjugation by the first ``k`` letters."""
    k %= max(len(word), 1)
    return list(word[k:]) + list(word[:k])


def stabilise(word: Sequence[int], strands: int, sign: int) -> Tuple[List[int], int]:
    """Markov stabilisation w -> w sigma_m^{+-1} on one more strand (an R1 move)."""
    return list(word) + [sign * strands], strands + 1


def insert_cancelling(word: Sequence[int], pos: int, generator: int) -> List[int]:
    """Insert sigma_i sigma_i^-1 at ``pos`` (an R2 move)."""
    return list(word[:pos]) + [generator, -generator] + list(word[pos:])


def components(word: Sequence[int], strands: int) -> int:
    """Number of link components: cycles of the braid's permutation."""
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, count = set(), 0
    for start in range(strands):
        if start in seen:
            continue
        count += 1
        p = start
        while p not in seen:
            seen.add(p)
            p = perm[p]
    return count
