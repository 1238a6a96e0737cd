import itertools
import random

import pytest

from bracketlab.rings import (
    MAX_ELEMENTS,
    Coset,
    PolyQuotientRing,
    RingError,
    UnitSubgroup,
    ZModRing,
    ring_make,
    subgroup_generate,
)


def schoolbook(r: PolyQuotientRing, a: tuple, b: tuple) -> tuple:
    """a*b in (Z/n)[t]/(p): the coefficient convolution, then long division by p."""
    n, p, d = r.base.n, r.modulus, r.degree
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    lead_inv = pow(p[-1], -1, n)
    for top in range(2 * d - 2, d - 1, -1):
        factor = prod[top] * lead_inv % n
        for j, c in enumerate(p):
            prod[top - d + j] -= factor * c
    return tuple(c % n for c in prod[:d])


def coefficient_tuples(r: PolyQuotientRing) -> list:
    return list(itertools.product(range(r.base.n), repeat=r.degree))


def quotient_cosets(group: UnitSubgroup) -> list:
    """Partition R^x into cosets of ``group``, minimal representatives first."""
    ring = group.ring
    seen = set()
    cosets = []
    for u in sorted(ring.units()):
        if u in seen:
            continue
        coset = Coset(group, u)
        for g in group.elements:
            seen.add(ring.mul(u, g))
        cosets.append(coset)
    return cosets


class TestZMod:
    def test_arithmetic(self):
        r = ZModRing(7)
        assert r.add(5, 4) == 2
        assert r.mul(3, 5) == 1
        assert r.neg(2) == 5
        assert r.sub(1, 3) == 5
        assert r.power(3, 6) == 1
        assert r.power(3, -1) == 5

    def test_units_and_inverse(self):
        r = ZModRing(12)
        assert sorted(r.units()) == [1, 5, 7, 11]
        assert r.try_invert(6) is None
        assert r.try_invert(5) == 5

    def test_serialization(self):
        r = ZModRing(5)
        assert r.element_from_json(7) == 2
        assert r.element_to_json(3) == 3
        assert ring_make(r.to_json()) == r

    def test_bad_modulus(self):
        with pytest.raises(RingError):
            ZModRing(1)


class TestPolyQuotient:
    def test_gf8_arithmetic(self):
        # GF(8) = F_2[t]/(1 + t + t^3): t^3 = 1 + t.
        r = PolyQuotientRing(2, [1, 1, 0, 1])
        t = (0, 1, 0)
        assert r.mul(r.mul(t, t), t) == (1, 1, 0)
        assert r.power(t, 7) == r.one
        assert len(r.elements()) == 8
        assert len(r.units()) == 7

    def test_reduction_from_json(self):
        r = PolyQuotientRing(2, [1, 1, 0, 1])
        assert r.element_from_json([0, 0, 0, 1]) == (1, 1, 0)
        assert r.element_from_json(1) == r.one

    def test_element_str(self):
        r = PolyQuotientRing(2, [1, 1, 0, 1])
        assert r.element_str((1, 1, 1)) == "1 + t + t^2"
        assert r.element_str(r.zero) == "0"

    def test_nonfield_quotient(self):
        # (Z/4)[u]/(u^2 - 1) has zero divisors but still a unit group.
        r = PolyQuotientRing(4, [3, 0, 1])
        u = (0, 1)
        assert r.mul(u, u) == r.one
        assert r.is_unit(u)

    def test_bad_modulus(self):
        with pytest.raises(RingError):
            PolyQuotientRing(4, [1, 2])  # leading coefficient not a unit
        with pytest.raises(RingError):
            PolyQuotientRing(4, [3])  # degree 0

    def test_ring_make_unknown(self):
        with pytest.raises(RingError):
            ring_make({"kind": "matrix"})

    @pytest.mark.parametrize("modulus", [[3, 0, 1], [1, 1, 0, 1]])
    @pytest.mark.parametrize("base_n", [2, 4])
    def test_inverse_table_matches_full_scan(self, base_n, modulus):
        r = PolyQuotientRing(base_n, modulus)
        for a in coefficient_tuples(r):
            inverses = [b for b in coefficient_tuples(r) if schoolbook(r, a, b) == r.one]
            assert r.try_invert(a) == (inverses[0] if inverses else None)

    @pytest.mark.parametrize(
        "base_n, modulus",
        [(2, [1, 1, 0, 1]), (2, [1, 0, 0, 0, 1]), (4, [3, 0, 1])],
        ids=["gf8", "phi", "z4_u2_minus_1"],
    )
    def test_product_table_matches_schoolbook(self, base_n, modulus):
        r = PolyQuotientRing(base_n, modulus)
        for a in coefficient_tuples(r):
            for b in coefficient_tuples(r):
                assert r.mul(a, b) == schoolbook(r, a, b), (a, b)

    def test_ring_size_is_bounded(self):
        # GF(2^16) would need a 65,536^2 product table; 2^11 is past the bound.
        for modulus in ([1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1], [1, 0, 1] + [0] * 8 + [1]):
            with pytest.raises(RingError, match="too large"):
                PolyQuotientRing(2, modulus)

    def test_largest_ring_is_accepted(self):
        # GF(2^10) = F_2[t]/(t^10 + t^3 + 1): every nonzero element is a unit.
        r = PolyQuotientRing(2, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])
        assert len(r.elements()) == MAX_ELEMENTS
        assert len(r.units()) == MAX_ELEMENTS - 1
        rng = random.Random(3)
        elements = coefficient_tuples(r)
        for _ in range(2000):
            a, b = rng.choice(elements), rng.choice(elements)
            assert r.mul(a, b) == schoolbook(r, a, b), (a, b)


@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "zmod", "n": 9.7},
        {"kind": "zmod", "n": "9"},
        {"kind": "zmod", "n": True},
        {"kind": "poly_quotient", "base_n": 2.5, "modulus": [1, 1, 0, 1]},
        {"kind": "poly_quotient", "base_n": 2, "modulus": [1, 1, 0, 1.9]},
        {"kind": "poly_quotient", "base_n": 2, "modulus": [1, True, 0, 1]},
        {"kind": "poly_quotient", "base_n": 2, "modulus": "1101"},
        "zmod",
    ],
)
def test_ring_make_rejects_non_integers(desc):
    with pytest.raises(RingError):
        ring_make(desc)


@pytest.mark.parametrize("ring", [ZModRing(9), PolyQuotientRing(2, [1, 1, 0, 1])], ids=repr)
@pytest.mark.parametrize("data", [True, False, 1.0, "1", [1, True, 0]])
def test_element_from_json_rejects_non_integers(ring, data):
    with pytest.raises(RingError):
        ring.element_from_json(data)



@pytest.mark.parametrize("ring", [ZModRing(9), PolyQuotientRing(2, [1, 1, 0, 1])], ids=repr)
def test_int_mul_is_repeated_addition(ring):
    for a in ring.elements():
        total = ring.zero
        for c in range(31):
            assert ring.int_mul(c, a) == total, (c, a)
            assert ring.int_mul(-c, a) == ring.neg(total), (-c, a)
            total = ring.add(total, a)


@pytest.mark.parametrize(
    "ring, a, product",
    [(ZModRing(9), 4, 4 * 2**20 % 9), (PolyQuotientRing(2, [1, 1, 0, 1]), (1, 1, 0), (0, 0, 0))],
    ids=repr,
)
def test_int_mul_adds_by_doubling(ring, a, product, monkeypatch):
    # 2^20 * a in at most 2 * 21 additions, not 2^20 of them.
    calls = []
    add = ring.add
    monkeypatch.setattr(ring, "add", lambda x, y: calls.append(1) or add(x, y))
    assert ring.int_mul(2**20, a) == product
    assert len(calls) <= 42


@pytest.mark.parametrize("ring, a", [(ZModRing(12), 6), (PolyQuotientRing(2, [1, 0, 1]), (1, 1))], ids=repr)
def test_negative_power_of_a_non_unit_is_refused(ring, a):
    assert ring.try_invert(a) is None
    with pytest.raises(RingError, match="negative power of non-unit"):
        ring.power(a, -2)


class TestSubgroups:
    def test_generate_closure(self):
        r = ZModRing(9)
        g = subgroup_generate(r, [7])
        assert g.elements == frozenset({1, 4, 7})
        # closed under inverse
        assert all(r.try_invert(a) in g.elements for a in g.elements)

    def test_nonunit_generator_rejected(self):
        with pytest.raises(RingError):
            subgroup_generate(ZModRing(9), [3])

    def test_generate_stops_past_max_elements(self):
        # 12289 = 12 * 1024 + 1 is prime and 11 generates its units, so 11^12 has order 1024.
        assert len(subgroup_generate(ZModRing(12289), [pow(11, 12, 12289)])) == MAX_ELEMENTS
        # 4 has order 1026 modulo the prime 2053.
        with pytest.raises(RingError, match="more than 1024 elements"):
            subgroup_generate(ZModRing(2053), [4])

    def test_cosets(self):
        r = ZModRing(9)
        g = subgroup_generate(r, [7])
        cs = quotient_cosets(g)
        assert len(cs) == 2  # |units| / |G| = 6 / 3
        assert Coset(g, 4) == Coset(g, 7)
        assert Coset(g, 4) != Coset(g, 2)
        assert Coset(g, 4).canonical == 1
        assert Coset(g, 2).mul(Coset(g, 2)).canonical == Coset(g, 4).canonical

    @pytest.mark.parametrize("bname", ["bracket_z9", "bracket_gf8"])
    def test_every_representative_gives_one_coset(self, brackets, bname):
        G = brackets[bname].G
        ring = G.ring
        cosets = quotient_cosets(G)
        assert len(cosets) * len(G) == len(ring.units())
        for coset in cosets:
            for g in G.elements:
                other = Coset(G, ring.mul(coset.representative, g))
                assert other == coset and hash(other) == hash(coset)
                assert other.canonical == coset.canonical
                assert [other == c for c in cosets].count(True) == 1
