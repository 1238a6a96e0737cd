import random

import pytest

from bracketlab.graded import (
    GradedComplex,
    HomologyTable,
    cohomology,
    evaluate_formal_sum,
    invariant_factors,
    merge_invariant_factors,
)
from bracketlab.rings import ZModRing


def dense_invariant_factors(m):
    """Reference: the nonzero Smith invariant factors d1 | d2 | ... of a dense matrix.

    Plain dense Smith normal form without transforms: move a least nonzero
    entry of the trailing block to (t, t), reduce its column and row, and
    repeat until both are clear and the pivot divides the trailing block.
    """
    S = [list(row) for row in m]
    rows, cols = len(S), len(S[0]) if S else 0
    diagonal = []
    for t in range(min(rows, cols)):
        while True:
            nonzero = [(abs(S[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if S[i][j]]
            if not nonzero:
                return diagonal
            _, i, j = min(nonzero)
            S[t], S[i] = S[i], S[t]
            for row in S:
                row[t], row[j] = row[j], row[t]
            p = S[t][t]
            for i in range(t + 1, rows):
                q = S[i][t] // p
                S[i] = [a - q * b for a, b in zip(S[i], S[t])]
            for j in range(t + 1, cols):
                q = S[t][j] // p
                for row in S:
                    row[j] -= q * row[t]
            if any(S[i][t] for i in range(t + 1, rows)) or any(S[t][t + 1:]):
                continue  # a remainder smaller than |p| is the next pivot
            offender = next(
                (i for i in range(t + 1, rows) for j in range(t + 1, cols) if S[i][j] % p), None
            )
            if offender is None:
                break
            S[t] = [a + b for a, b in zip(S[t], S[offender])]
        diagonal.append(abs(S[t][t]))
    return diagonal


def sparse(m):
    return [{c: v for c, v in enumerate(row) if v} for row in m]


def random_matrix(rng):
    """A small integer matrix, often with torsion, zero rows and zero columns."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    if rng.random() < 0.5:
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3, 4, -6)) for _ in range(cols)] for _ in range(rows)]
    else:
        # L * diag * R with torsion on the diagonal.
        inner = rng.randint(1, 5)
        diag = [rng.choice((0, 1, 2, 3, 4, 6, 9, 12)) for _ in range(inner)]
        L = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(rows)]
        R = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(inner)]
        m = [
            [sum(L[i][k] * diag[k] * R[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)
        ]
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        zero_col = rng.randrange(cols)
        for row in m:
            row[zero_col] = 0
    return m


class TestSNF:
    def test_diagonalization(self):
        m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        assert dense_invariant_factors(m) == [2, 2, 156]
        assert invariant_factors(sparse(m)) == (3, [2, 2, 156])

    def test_rank(self):
        assert invariant_factors(sparse([[1, 2], [2, 4]]))[0] == 1
        assert invariant_factors(sparse([[0, 0], [0, 0]])) == (0, [])
        assert invariant_factors(sparse([[1, 0], [0, 3]])) == (2, [3])
        assert invariant_factors([]) == (0, [])

    def test_divisibility_chain(self):
        assert dense_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
        assert invariant_factors(sparse([[2, 0], [0, 3]])) == (2, [6])

    def test_matches_dense_oracle(self):
        with_torsion = zero_rows = zero_cols = 0
        for seed in range(200):
            m = random_matrix(random.Random(seed))
            expected = dense_invariant_factors(m)
            rows = sparse(m) if seed % 2 else [dict(enumerate(row)) for row in m]
            got = invariant_factors(rows)
            assert got == (len(expected), [d for d in expected if d > 1]), (seed, m)
            with_torsion += bool(got[1])
            zero_rows += any(not any(row) for row in m)
            zero_cols += any(not any(col) for col in zip(*m))
        assert with_torsion >= 50 and zero_rows >= 50 and zero_cols >= 50

    def test_merge_invariant_factors(self):
        assert merge_invariant_factors([[2], [2]]) == [2, 2]
        assert merge_invariant_factors([[2], [4]]) == [2, 4]
        assert merge_invariant_factors([[6], [4]]) == [2, 12]
        assert merge_invariant_factors([]) == []


class TestFormalSum:
    def test_evaluate_in_ring(self):
        ring = ZModRing(7)
        assert evaluate_formal_sum({3: 2, 5: 1}, ring) == (2 * 3 + 5) % 7


class TestCohomology:
    def test_two_term_complex_with_torsion(self):
        # 0 -> Z --(2)--> Z -> 0 concentrated in one degree.
        c = GradedComplex(
            ring=None,
            degrees={0: [0], 1: [0]},
            differentials={0: [{0: 2}]},
        )
        table = cohomology(c)
        assert table.as_dict() == {(1, 0): (0, (2,))}

    def test_identity_map_is_acyclic(self):
        c = GradedComplex(ring=None, degrees={0: [0], 1: [0]}, differentials={0: [{0: 1}]})
        assert cohomology(c).entries == ()

    def test_degree_violation_detected(self):
        c = GradedComplex(ring=None, degrees={0: [0], 1: [5]}, differentials={0: [{0: 1}]})
        with pytest.raises(ValueError, match="not degree-preserving"):
            c.validate()
        with pytest.raises(ValueError, match="not degree-preserving"):
            cohomology(c)

    def test_row_count_mismatch_detected(self):
        c = GradedComplex(ring=None, degrees={0: [0], 1: [0, 0]}, differentials={0: [{0: 1}]})
        with pytest.raises(ValueError, match="rows"):
            cohomology(c)

    def test_non_complex_detected(self):
        c = GradedComplex(
            ring=None,
            degrees={0: [0], 1: [0], 2: [0]},
            differentials={0: [{0: 1}], 1: [{0: 1}]},
        )
        with pytest.raises(ValueError, match="d o d"):
            c.validate()
        with pytest.raises(ValueError, match="d o d"):
            cohomology(c)

    def test_euler_characteristic(self):
        c = GradedComplex(
            ring=None,
            degrees={0: [1, 1], 1: [1]},
            differentials={0: [{}]},
        )
        assert c.euler_characteristic() == cohomology(c).euler_characteristic() == {1: 1}
        # The identity map: both terms cancel, and no zero term is kept.
        c = GradedComplex(ring=None, degrees={0: [0], 1: [0]}, differentials={0: [{0: 1}]})
        assert c.euler_characteristic() == cohomology(c).euler_characteristic() == {}


class TestHomologyTable:
    def test_sorted_and_sparse(self):
        table = HomologyTable.from_dict(None, {(1, 3): (1, ()), (0, 1): (2, ()), (2, 5): (0, ())})
        assert [key for key, _, _ in table.entries] == [(0, 1), (1, 3)]

    def test_json_degree_rendering(self):
        table = HomologyTable.from_dict(ZModRing(5), {(0, 3): (1, (2,))})
        assert table.to_json()["entries"] == [
            {"i": 0, "degree": "3", "rank": 1, "torsion": [2]}
        ]
        # Integer q-exponents print as ints.
        table = HomologyTable.from_dict(None, {(0, 3): (1, (2,))})
        assert table.to_json()["entries"] == [
            {"i": 0, "degree": 3, "rank": 1, "torsion": [2]}
        ]
