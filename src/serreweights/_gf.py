"""Exact arithmetic in F_{p^r} with a reproducible modulus convention.

An element c_0 + c_1 x + ... + c_{r-1} x^{r-1}, taken modulo the field's
defining polynomial, is stored packed: a ``bytes`` object of r little-endian
slots, slot i holding c_i in [0, p).  The zero element is all zero bytes, so
``any(a)`` is False exactly for zero.  The polynomial is pinned
deterministically: among monic degree-r polynomials, ordered by the base-p
value sum_i c_i p^i of the non-leading coefficients, it is the first one
that is irreducible and whose residue class of x generates the
multiplicative group.  Discrete logs elsewhere in the package are always
taken with respect to that class of x, so two runs (or two machines) agree
on every reported exponent.

Each slot is w bytes wide, w the least width with
256^w > max(r(p-1)^2, 2p-1); the field derives it from p and r.  Read as
integers, two elements are their polynomials evaluated at 256^w, so one
native integer product is the polynomial product with every coefficient in
its own slot (Kronecker substitution).  No slot ever carries into the
next: a coefficient of the product is at most r(p-1)^2 (reached by the
square of (p-1)(1 + x + ... + x^{r-1})), a folding step adds at most
(r-1)(p-1)^2 to a reduced slot, which stays within r(p-1)^2, and a sum or
difference a + (p - b) of reduced slots is at most 2p-1.  ``mul`` is that
product, a per-slot reduction mod p (``bytes.translate`` with a 256-entry
table when w = 1, a loop over the slots otherwise), and folding of the
slots at x^r and above by x^r = t(x), the packed negated modulus tail,
until none are left.  ``add`` and ``sub`` are one integer addition plus
the same reduction; ``scale`` by an integer in [0, p) is one
integer product, at most (p-1)^2 per slot, plus the same reduction; and
``inv`` is the power a^(p^r - 2), since a^(p^r - 1) = 1 for a nonzero a.
Degree 1 is plain integer arithmetic mod p in a single slot.

The modulus search walks the candidates in the pinned order.  Two exact
sieves on the coefficients, O(log p) each, drop candidates that cannot
qualify (see ``_find_modulus``); each survivor costs a few powers of x
through the same packed product.

There are no log or Zech tables.  The residue pairing works in F_p(a),
the field of one unramified value, so its fields are small (F_2 to F_9 on
the benchmark workloads), but the degree cap admits 2^24 elements, where a
log/antilog pair of about 36 bytes an entry would take over 1 GB; the
packed arithmetic needs O(r) bytes a field.

The degree is capped at ``_MAX_DEGREE``, a resource limit rather than a
validity condition: a field factors p^r - 1 once, by trial division that
stops at a prime cofactor, for its modulus search and order checks, which
is meant for the small fields the residue pairing needs, not for
cryptographic sizes.  A larger degree raises ``ResourceLimitExceeded``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .errors import InvalidInput, ResourceLimitExceeded
from .tame_chars import is_prime

Element = bytes

_MAX_DEGREE = 24


def prime_factors(n: int) -> Tuple[int, ...]:
    """Distinct prime factors of n >= 1, ascending.

    Trial division that stops once the cofactor left is prime: the cofactor
    is tested by ``is_prime`` at the start and after each factor is divided
    out.  A prime cofactor at or above the bound where that test is exact
    raises ResourceLimitExceeded, which names it a factor of p^r - 1, the
    one number factored here.
    """
    factors, d, name = [], 2, "the factor {} of p^r - 1"
    prime = is_prime(n, name)
    while not prime and d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
            prime = is_prime(n, name)
        d += 1
    if n > 1:
        factors.append(n)
    return tuple(factors)


def _slot_width(p: int, r: int) -> int:
    """Least w with 256^w > max(r(p-1)^2, 2p-1), the largest slot value."""
    return -(-max(r * (p - 1) ** 2, 2 * p - 1).bit_length() // 8)


class FiniteField:
    """Calculator for F_{p^r}: construct once, then combine packed elements."""

    def __init__(self, p: int, r: int):
        if r < 1:
            raise InvalidInput(f"extension degree must be >= 1, got {r}")
        if r > _MAX_DEGREE:
            raise ResourceLimitExceeded(
                f"extension degree {r} exceeds the supported cap {_MAX_DEGREE}"
            )
        self.p = p
        self.r = r
        self.order = p**r
        self.width = _slot_width(p, r)
        self._size = r * self.width  # bytes per element
        self._wide = (2 * r - 1) * self.width  # bytes per unreduced product
        if self.width == 1:
            self._table = bytes(i % p for i in range(256))
            self._reduce = self._reduce_bytes
        else:
            self._reduce = self._reduce_slots
        self._p_slots = self._pack([p] * r)  # p in every slot, for sub
        self.zero: Element = bytes(self._size)
        self.one: Element = self.scalar(1)
        self._unit_primes = prime_factors(self.order - 1)  # the one factorization
        self.modulus = self._find_modulus()
        self._tail = self._pack([(-c) % p for c in self.modulus])
        self.gen: Element = self._x(self.modulus)

    # -- packing -----------------------------------------------------------

    def _pack(self, coeffs) -> int:
        """The packed integer sum_i c_i 256^{w i} of coefficients in [0, 256^w)."""
        shift = 8 * self.width
        return sum(c << (shift * i) for i, c in enumerate(coeffs))

    def _reduce_bytes(self, n: int, length: int) -> bytes:
        return n.to_bytes(length, "little").translate(self._table)

    def _reduce_slots(self, n: int, length: int) -> bytes:
        p, shift = self.p, 8 * self.width
        mask = (1 << shift) - 1
        out = at = 0
        while n:
            out |= (n & mask) % p << at
            n >>= shift
            at += shift
        return out.to_bytes(length, "little")

    def _mulmod(self, n: int, tail: int) -> Element:
        """Reduce the packed product n by the modulus with packed tail t."""
        size, wide, reduce = self._size, self._wide, self._reduce
        s = reduce(n, wide)
        high = int.from_bytes(s[size:], "little")
        while high:
            s = reduce(int.from_bytes(s[:size], "little") + high * tail, wide)
            high = int.from_bytes(s[size:], "little")
        return s[:size]

    def _powmod(self, a: Element, n: int, tail: int) -> Element:
        """a^n for n >= 0, modulo the polynomial with packed tail t."""
        if n == 0:
            return self.one
        base = int.from_bytes(a, "little")
        acc = a
        for bit in bin(n)[3:]:
            x = int.from_bytes(acc, "little")
            acc = self._mulmod(x * x, tail)
            if bit == "1":
                acc = self._mulmod(int.from_bytes(acc, "little") * base, tail)
        return acc

    def _x(self, modulus) -> Element:
        """The residue class of x modulo x^r + sum c_i x^i."""
        if self.r == 1:
            return self.scalar(-modulus[0])
        return (1 << (8 * self.width)).to_bytes(self._size, "little")

    # -- modulus search ----------------------------------------------------

    def _find_modulus(self) -> Tuple[int, ...]:
        """Non-leading coefficients (c_0, ..., c_{r-1}) of the pinned polynomial.

        A candidate m qualifies when x has multiplicative order exactly
        p^r - 1 modulo m.  For irreducible m that says x generates the
        multiplicative group; for reducible m it never holds, because
        F_p[x]/(m) then has a nonzero non-unit and so fewer than p^r - 1
        units.  The first qualifying candidate is therefore the first
        irreducible one whose x is primitive.

        Candidates are taken in the pinned order, and two sieves of O(log p)
        each drop some before any power of x is taken.  Both are exact, so
        the first qualifying candidate is the same with or without them:
        - the norm (-1)^r c_0 of x must generate F_p^*, since for a primitive
          x it is x^((p^r - 1)/(p - 1)), of order p - 1 (this also drops
          c_0 = 0, where x is not a unit);
        - for r > 1, 1 must not be a root: 1 + c_0 + ... + c_{r-1} = 0 (mod p)
          means x - 1 divides m, so m is reducible.
        There is no scan of all of F_p for roots, which would cost O(p) per
        candidate at large p.
        """
        p, r = self.p, self.r
        unit_order = self.order - 1
        cofactors = [unit_order // ell for ell in self._unit_primes]
        # p - 1 divides p^r - 1: its primes are among the field's
        norm_cofactors = [(p - 1) // q for q in self._unit_primes if (p - 1) % q == 0]
        sign = (-1) ** r
        for code in range(p**r):
            candidate = tuple(code // p**i % p for i in range(r))
            norm = sign * candidate[0] % p
            if not norm or any(pow(norm, n, p) == 1 for n in norm_cofactors):
                continue
            if r > 1 and (1 + sum(candidate)) % p == 0:
                continue
            tail = self._pack([(-c) % p for c in candidate])
            x = self._x(candidate)
            if self._powmod(x, unit_order, tail) == self.one and all(
                self._powmod(x, n, tail) != self.one for n in cofactors
            ):
                return candidate
        raise AssertionError("primitive polynomials exist in every degree")

    # -- arithmetic --------------------------------------------------------

    def element(self, coeffs) -> Element:
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.r:
            raise InvalidInput(f"too many coefficients for degree {self.r}")
        return self._pack(cs).to_bytes(self._size, "little")

    def coefficients(self, a: Element) -> Tuple[int, ...]:
        """The coefficients (c_0, ..., c_{r-1}) of a packed element."""
        w = self.width
        return tuple(
            int.from_bytes(a[i : i + w], "little") for i in range(0, self._size, w)
        )

    def scalar(self, c: int) -> Element:
        return (c % self.p).to_bytes(self._size, "little")

    def add(self, a: Element, b: Element) -> Element:
        n = int.from_bytes(a, "little") + int.from_bytes(b, "little")
        return self._reduce(n, self._size)

    def sub(self, a: Element, b: Element) -> Element:
        n = int.from_bytes(a, "little") + self._p_slots - int.from_bytes(b, "little")
        return self._reduce(n, self._size)

    def scale(self, c: int, a: Element) -> Element:
        """c a for an integer c: one slot-wise integer product, not a full mul."""
        return self._reduce(c % self.p * int.from_bytes(a, "little"), self._size)

    def mul(self, a: Element, b: Element) -> Element:
        n = int.from_bytes(a, "little") * int.from_bytes(b, "little")
        if self.r == 1:
            return (n % self.p).to_bytes(self.width, "little")
        return self._mulmod(n, self._tail)

    def pow(self, a: Element, n: int) -> Element:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.r == 1:
            c = pow(int.from_bytes(a, "little"), n, self.p)
            return c.to_bytes(self.width, "little")
        return self._powmod(a, n, self._tail)

    def inv(self, a: Element) -> Element:
        if not any(a):
            raise ZeroDivisionError("inverting 0 in a finite field")
        return self.pow(a, self.order - 2)

    def element_order(self, a: Element) -> int:
        if a == self.zero:
            raise InvalidInput("0 has no multiplicative order")
        n = self.order - 1
        for ell in self._unit_primes:
            while n % ell == 0 and self.pow(a, n // ell) == self.one:
                n //= ell
        return n


@lru_cache(maxsize=None)
def field(p: int, r: int) -> FiniteField:
    """The cached F_{p^r} for the pinned modulus convention."""
    return FiniteField(p, r)
