"""Graded free modules, cochain complexes, and integer cohomology.

Degrees are plain values that order and compare as themselves: units of a
finite ring (ints for Z/n, coefficient tuples for quotient rings) for Bh,
or integer q-exponents for Khovanov homology.  Differentials are sparse
integer matrices on expanded Z-bases; cohomology is computed degreewise
from invariant factors found by sparse elimination over Z with
arbitrary-precision integers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .rings import Ring


# ---------------------------------------------------------------------------
# Invariant factors of sparse integer matrices


def invariant_factors(rows: List[Dict[int, int]]) -> Tuple[int, List[int]]:
    """Rank and torsion invariant factors of an integer matrix given by sparse rows.

    Each row maps column positions to entries.  Unimodular row and column
    operations bring the matrix to a diagonal.  Pivots are entries of least
    absolute value, those with the shortest row and column first (limiting
    fill-in); one scan orders every unit pivot available, and a larger
    least entry is pivoted on alone, since it may leave smaller remainders.
    Only the diagonal is needed: its entries above 1 give the torsion, which
    ``merge_invariant_factors`` turns into the chain d1 | d2 | ...
    """
    live: Dict[int, Dict[int, int]] = {}
    rows_of: Dict[int, set] = {}  # column -> rows with a nonzero entry there
    for r, row in enumerate(rows):
        entries = {c: v for c, v in row.items() if v}
        if entries:
            live[r] = entries
            for c in entries:
                rows_of.setdefault(c, set()).add(r)

    def put(r: int, c: int, v: int):
        if v:
            live[r][c] = v
            rows_of[c].add(r)
        else:
            live[r].pop(c, None)
            rows_of[c].discard(r)

    diagonal = []

    def eliminate(r: int, c: int):
        pivot_row = live[r]
        p = pivot_row[c]
        # Row operations: reduce column c outside the pivot row.
        for r2 in sorted(rows_of[c] - {r}):
            k = live[r2][c] // p
            for j, v in pivot_row.items():
                put(r2, j, live[r2].get(j, 0) - k * v)
            if not live[r2]:
                del live[r2]
        if rows_of[c] != {r}:
            return  # a remainder smaller than |p| is left in column c
        # Column operations: with column c clear elsewhere, they only touch
        # the pivot row, reducing its other entries modulo p.
        for j in [j for j in pivot_row if j != c]:
            put(r, j, pivot_row[j] % p)
        if len(pivot_row) == 1:
            diagonal.append(abs(p))
            del live[r], rows_of[c]

    while live:
        order = sorted(
            (abs(v), len(row) + len(rows_of[c]), r, c)
            for r, row in live.items()
            for c, v in row.items()
        )
        least = order[0][0]
        for size, _, r, c in order if least == 1 else order[:1]:
            if size == least and abs(live.get(r, {}).get(c, 0)) == least:
                eliminate(r, c)
    return len(diagonal), merge_invariant_factors([diagonal])


def merge_invariant_factors(lists: List[List[int]]) -> List[int]:
    """Invariant factors of a direct sum given the factors of each summand.

    Buckets prime powers per prime, pairing the largest powers together so
    the result is again a divisibility chain d1 | d2 | ...
    """
    by_prime: Dict[int, List[int]] = {}
    for factors in lists:
        for d in factors:
            n = d
            p = 2
            while n > 1:
                if n % p == 0:
                    e = 0
                    while n % p == 0:
                        n //= p
                        e += 1
                    by_prime.setdefault(p, []).append(e)
                p += 1 if p == 2 else 2
    if not by_prime:
        return []
    for exps in by_prime.values():
        exps.sort(reverse=True)
    depth = max(len(v) for v in by_prime.values())
    chain = []
    for k in range(depth):
        d = 1
        for p, exps in by_prime.items():
            if k < len(exps):
                d *= p ** exps[k]
        chain.append(d)
    chain.reverse()
    return chain


# ---------------------------------------------------------------------------
# Euler characteristics: {degree: coefficient} dicts


def _euler(terms) -> dict:
    """{degree: sum of (-1)^i n} over (i, degree, n) triples, without zero terms."""
    chi: Dict[object, int] = {}
    for i, d, n in terms:
        chi[d] = chi.get(d, 0) + (-n if i % 2 else n)
    return {d: c for d, c in chi.items() if c}


def evaluate_formal_sum(chi: dict, ring: Ring):
    """Collapse a formal sum {unit: coefficient} of ring units to a single ring element."""
    total = ring.zero
    for d, c in chi.items():
        total = ring.add(total, ring.int_mul(c, d))
    return total


# ---------------------------------------------------------------------------
# Complexes and cohomology


@dataclass
class GradedComplex:
    """A cochain complex of graded free Z-modules on expanded bases.

    ``degrees[i]`` lists the degree of each basis element of C^i (already
    including any global grading shift).  ``differentials[i]`` is d^i: C^i ->
    C^{i+1} as sparse rows, one ``{column: nonzero entry}`` dict per basis
    element of C^{i+1}; a missing index means d^i = 0.
    Indices are the shifted (cohomological) indices.  ``ring`` is the ring
    whose units the degrees are, or ``None`` when the degrees are integer
    q-exponents.
    """

    ring: Optional[Ring]
    degrees: Dict[int, list]
    differentials: Dict[int, List[Dict[int, int]]]

    def indices(self) -> List[int]:
        return sorted(self.degrees)

    def validate(self):
        """Check degree preservation and d(i+1) o d(i) = 0; raise on failure."""
        for i, d in self.differentials.items():
            src = self.degrees[i]
            tgt = self.degrees.get(i + 1, [])
            if len(d) != len(tgt):
                raise ValueError(f"differential d^{i} has {len(d)} rows for {len(tgt)} basis elements")
            for r, row in enumerate(d):
                for c, v in row.items():
                    if v and tgt[r] != src[c]:
                        raise ValueError(
                            f"differential d^{i} not degree-preserving at entry ({r},{c})"
                        )
            for r, row in enumerate(self.differentials.get(i + 1, [])):
                acc: Dict[int, int] = {}
                for k, a in row.items():
                    for c, b in d[k].items():
                        acc[c] = acc.get(c, 0) + a * b
                nonzero = [c for c, v in acc.items() if v]
                if nonzero:
                    raise ValueError(f"d o d != 0 at index {i}, entry ({r},{min(nonzero)})")

    def euler_characteristic(self) -> dict:
        """{degree: sum over i of (-1)^i dim C^i in that degree}, without zero terms."""
        return _euler((i, d, 1) for i, degs in self.degrees.items() for d in degs)


@dataclass(frozen=True, order=True)
class HomologyTable:
    """Per-(index, degree) cohomology: free rank plus torsion invariant factors.

    ``ring`` is the ring whose units the degrees are, printed by its
    ``element_str``, or ``None`` when the degrees are integer q-exponents,
    printed as ints.  Tables compare and order by their entries alone.
    """

    ring: Optional[Ring] = field(compare=False)
    entries: tuple  # sorted tuple of ((i, degree), rank, torsion-tuple)

    @classmethod
    def from_dict(cls, ring: Optional[Ring], data: dict) -> "HomologyTable":
        items = [
            ((i, d), rank, tuple(tors))
            for (i, d), (rank, tors) in data.items()
            if rank or tors
        ]
        return cls(ring, tuple(sorted(items)))

    def as_dict(self) -> dict:
        return {key: (rank, tors) for key, rank, tors in self.entries}

    def euler_characteristic(self) -> dict:
        """{degree: sum over i of (-1)^i rank at (i, degree)}, without zero terms."""
        return _euler((i, d, rank) for (i, d), rank, _ in self.entries)

    def to_json(self):
        return {
            "entries": [
                {
                    "i": i,
                    "degree": d if self.ring is None else self.ring.element_str(d),
                    "rank": rank,
                    "torsion": list(tors),
                }
                for (i, d), rank, tors in self.entries
            ]
        }


def cohomology(c: GradedComplex) -> HomologyTable:
    """Cohomology of a degree-preserving complex, blockwise by degree.

    The complex is validated first.  Since every d^i preserves degree, its
    degree-h block is the row selection of the degree-h basis elements of
    C^{i+1}; its invariant factors give the image rank and torsion at
    (i+1, h) and the kernel corank at (i, h).  Torsion equals the
    nontrivial invariant factors of the incoming block because integer
    kernels are pure sublattices (direct summands).
    """
    c.validate()
    image: Dict[tuple, Tuple[int, List[int]]] = {}
    for i, d in c.differentials.items():
        blocks: Dict[object, list] = {}
        for h, row in zip(c.degrees[i + 1], d):
            blocks.setdefault(h, []).append(row)
        for h, block in blocks.items():
            image[(i + 1, h)] = invariant_factors(block)
    entries = {}
    for i in c.indices():
        for h, size in Counter(c.degrees[i]).items():
            rank_in, torsion = image.get((i, h), (0, []))
            rank_out, _ = image.get((i + 1, h), (0, []))
            free_rank = size - rank_out - rank_in
            if free_rank or torsion:
                entries[(i, h)] = (free_rank, tuple(torsion))
    return HomologyTable.from_dict(c.ring, entries)
