"""Exact arithmetic in finite commutative rings with unity.

Two kinds of rings are supported: Z/nZ, and a single polynomial quotient
(Z/nZ)[t]/(p(t)) with unit leading coefficient.  Elements are plain Python
values (an int for Z/nZ, a coefficient tuple for quotients) so they hash,
compare, and serialize without wrapper objects; the ring object owns all
arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable

from .diagram import _is_int


class RingError(ValueError):
    """Raised for malformed ring descriptors or out-of-ring elements."""


# The most elements a quotient ring may have: its product table holds the
# square of this many entries.
MAX_ELEMENTS = 1024


class Ring:
    """Common interface for the two concrete ring kinds."""

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def elements(self) -> list:
        raise NotImplementedError

    def try_invert(self, a):
        raise NotImplementedError

    def power(self, a, k: int):
        """a**k for any integer k; negative k requires a to be a unit."""
        if k < 0:
            inv = self.try_invert(a)
            if inv is None:
                raise RingError(f"negative power of non-unit {a!r}")
            a, k = inv, -k
        result = self.one
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def int_mul(self, c: int, a):
        """c*a with c an ordinary integer."""
        if c < 0:
            return self.neg(self.int_mul(-c, a))
        result = self.zero
        for _ in range(c):
            result = self.add(result, a)
        return result

    def is_unit(self, a) -> bool:
        return self.try_invert(a) is not None

    def units(self) -> list:
        return [a for a in self.elements() if self.is_unit(a)]

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, data):
        raise NotImplementedError

    def element_str(self, a) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class ZModRing(Ring):
    """The ring Z/nZ with canonical representatives 0..n-1."""

    def __init__(self, n: int):
        if not _is_int(n) or n < 2:
            raise RingError(f"modulus must be an integer >= 2, got {n!r}")
        self.n = n
        self.zero = 0
        self.one = 1 % n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def elements(self):
        return list(range(self.n))

    def try_invert(self, a):
        if gcd(a, self.n) != 1:
            return None
        return pow(a, -1, self.n)

    def element_to_json(self, a):
        return a

    def element_from_json(self, data):
        if not _is_int(data):
            raise RingError(f"expected integer element, got {data!r}")
        return data % self.n

    def element_str(self, a):
        return str(a)

    def to_json(self):
        return {"kind": "zmod", "n": self.n}

    def __repr__(self):
        return f"ZModRing({self.n})"

    def __eq__(self, other):
        return isinstance(other, ZModRing) and other.n == self.n

    def __hash__(self):
        return hash(("zmod", self.n))


class PolyQuotientRing(Ring):
    """(Z/nZ)[t]/(p(t)) as coefficient tuples of length deg(p).

    Coefficients are stored constant term first.  The leading coefficient of
    the modulus must be a unit of Z/nZ so that reduction terminates.
    """

    def __init__(self, base_n: int, modulus: Iterable[int]):
        self.base = ZModRing(base_n)
        mod = list(modulus)
        if not all(_is_int(c) for c in mod):
            raise RingError(f"modulus coefficients must be integers, got {modulus!r}")
        mod = [c % base_n for c in mod]
        while mod and mod[-1] == 0:
            mod.pop()
        if len(mod) < 2:
            raise RingError("modulus polynomial must have degree >= 1")
        lead_inv = self.base.try_invert(mod[-1])
        if lead_inv is None:
            raise RingError("leading coefficient of modulus must be a unit")
        self.modulus = tuple(mod)
        self.degree = len(mod) - 1
        size = base_n ** self.degree
        if size > MAX_ELEMENTS:
            raise RingError(f"a quotient ring of {size} elements is too large (at most {MAX_ELEMENTS})")
        self._lead_inv = lead_inv
        elements = [tuple(c) for c in itertools.product(range(base_n), repeat=self.degree)]
        self.zero, self.one = elements[0], elements[base_n ** (self.degree - 1)]
        # The product table, built once: mul and try_invert are then lookups.
        # Rows hold the shared element tuples, indexed by position in
        # elements().  Row a is filled up to the diagonal and copied into
        # column a (a*b = b*a), walking b in elements() order: the next b
        # adds t^k for each digit k that changes (n-1 -> 0 is +1 mod n), so
        # a*b moves by the sum of those a*t^k.
        code = {a: i for i, a in enumerate(elements)}
        changed = [sum(x != y for x, y in zip(b, c)) for b, c in zip(elements, elements[1:])] + [0]
        table = [[None] * size for _ in range(size)]
        for i, a in enumerate(elements):
            steps = [self.zero]
            for k in reversed(range(self.degree)):
                steps.append(self.add(steps[-1], self._product(a, elements[base_n ** (self.degree - 1 - k)])))
            row, p = table[i], self.zero
            for j in range(i + 1):
                row[j] = table[j][i] = elements[code[p]]
                p = tuple([(x + y) % base_n for x, y in zip(p, steps[changed[j]])])
        self._elements, self._code, self._table = elements, code, table
        self._inverses = {a: elements[row.index(self.one)] for a, row in zip(elements, table) if self.one in row}

    def _reduce(self, coeffs: list) -> tuple:
        n = self.base.n
        coeffs = [c % n for c in coeffs]
        for i in range(len(coeffs) - 1, self.degree - 1, -1):
            if coeffs[i] == 0:
                continue
            factor = (coeffs[i] * self._lead_inv) % n
            shift = i - self.degree
            for j, m in enumerate(self.modulus):
                coeffs[shift + j] = (coeffs[shift + j] - factor * m) % n
        coeffs = coeffs[: self.degree]
        coeffs += [0] * (self.degree - len(coeffs))
        return tuple(coeffs)

    def add(self, a, b):
        n = self.base.n
        return tuple((x + y) % n for x, y in zip(a, b))

    def _product(self, a, b) -> tuple:
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return self._reduce(prod)

    def mul(self, a, b):
        return self._table[self._code[a]][self._code[b]]

    def neg(self, a):
        n = self.base.n
        return tuple((-x) % n for x in a)

    def elements(self):
        return list(self._elements)

    def try_invert(self, a):
        return self._inverses.get(a)

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, data):
        if _is_int(data):
            data = [data]
        if not isinstance(data, list) or not all(_is_int(c) for c in data):
            raise RingError(f"expected coefficient list, got {data!r}")
        return self._reduce(list(data))

    def element_str(self, a):
        terms = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return " + ".join(terms) if terms else "0"

    def to_json(self):
        return {"kind": "poly_quotient", "base_n": self.base.n, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"PolyQuotientRing({self.base.n}, {list(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, PolyQuotientRing)
            and other.base.n == self.base.n
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("poly_quotient", self.base.n, self.modulus))


def ring_make(desc: dict) -> Ring:
    """Build a ring from a JSON-style descriptor.

    ``{"kind": "zmod", "n": 5}`` or
    ``{"kind": "poly_quotient", "base_n": 2, "modulus": [1, 1, 0, 1]}``
    (coefficient list, constant term first).
    """
    if not isinstance(desc, dict):
        raise RingError(f"ring descriptor must be an object, got {desc!r}")
    kind = desc.get("kind")
    if kind == "zmod":
        return ZModRing(desc["n"])
    if kind == "poly_quotient":
        return PolyQuotientRing(desc["base_n"], desc["modulus"])
    raise RingError(f"unknown ring kind {kind!r}")


@dataclass(frozen=True)
class UnitSubgroup:
    """A multiplicative subgroup of R^x, closed under product and inverse."""

    ring: Ring
    elements: frozenset

    def __contains__(self, a):
        return a in self.elements

    def __len__(self):
        return len(self.elements)

    def sorted_elements(self) -> list:
        return sorted(self.elements)

    def to_json(self):
        return [self.ring.element_to_json(g) for g in self.sorted_elements()]


def subgroup_generate(ring: Ring, gens: Iterable) -> UnitSubgroup:
    """Smallest subgroup of R^x containing ``gens`` (closure iteration)."""
    gens = list(gens)
    for g in gens:
        if not ring.is_unit(g):
            raise RingError(f"generator {g!r} is not a unit")
    elems = {ring.one}
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = ring.mul(a, g)
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    # A finite multiplicatively closed set of units contains all inverses.
    return UnitSubgroup(ring=ring, elements=frozenset(elems))


@dataclass(frozen=True)
class Coset:
    """A coset aG of a unit subgroup, identified by its minimal representative."""

    subgroup: UnitSubgroup
    representative: object = field(compare=False)
    _canonical: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ring = self.subgroup.ring
        products = (ring.mul(self.representative, g) for g in self.subgroup.elements)
        object.__setattr__(self, "_canonical", min(products))

    @property
    def canonical(self):
        return self._canonical

    def __eq__(self, other):
        return (
            isinstance(other, Coset)
            and self.subgroup.elements == other.subgroup.elements
            and self._canonical == other._canonical
        )

    def __hash__(self):
        return hash(self._canonical)

    def __lt__(self, other: "Coset") -> bool:
        return self._canonical < other._canonical

    def mul(self, other: "Coset") -> "Coset":
        ring = self.subgroup.ring
        return Coset(self.subgroup, ring.mul(self.representative, other.representative))

    def inv(self) -> "Coset":
        ring = self.subgroup.ring
        return Coset(self.subgroup, ring.try_invert(self.representative))

    def to_json(self):
        return self.subgroup.ring.element_to_json(self.canonical)
