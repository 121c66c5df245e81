"""Reference F_{p^r}: coefficient tuples and schoolbook products.

This is the from-definition implementation that ``serreweights._gf`` packs
and speeds up.  Elements are coefficient tuples (c_0, ..., c_{r-1}) over
the prime field, representing c_0 + c_1 x + ... modulo the defining
polynomial, which follows the same pinned convention: among monic degree-r
polynomials, ordered by the base-p value sum_i c_i p^i of the non-leading
coefficients, the first one that is irreducible and whose residue class of
x generates the multiplicative group.  Products are double loops over the
tuples, inverses are a^(q-2), and the modulus search uses its own
polynomial helpers, so it shares no arithmetic with the package.  There is
no degree cap; the tests keep to degrees the package accepts.
"""

from __future__ import annotations

from typing import Tuple

from serreweights.errors import InvalidInput

Element = Tuple[int, ...]


def prime_factors(n: int) -> Tuple[int, ...]:
    """Distinct prime factors of n >= 1 by trial division, ascending."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return tuple(factors)


class FiniteField:
    """Calculator for F_{p^r}: construct once, then combine tuple elements."""

    def __init__(self, p: int, r: int):
        if r < 1:
            raise InvalidInput(f"extension degree must be >= 1, got {r}")
        self.p = p
        self.r = r
        self.order = p**r
        self.zero: Element = (0,) * r
        self.one: Element = (1,) + (0,) * (r - 1)
        self.modulus = self._find_modulus()
        # x^{r+i} mod the defining polynomial, for folding products down.
        self._fold = self._reduction_table()
        self.gen: Element = (0, 1) + (0,) * (r - 2) if r > 1 else (
            (-self.modulus[0]) % p,
        )

    # -- modulus search ----------------------------------------------------

    def _find_modulus(self) -> Tuple[int, ...]:
        """Non-leading coefficients (c_0, ..., c_{r-1}) of the pinned polynomial."""
        p, r = self.p, self.r
        unit_order = self.order - 1
        order_primes = prime_factors(unit_order) if unit_order > 1 else ()
        for code in range(p**r):
            coeffs = []
            n = code
            for _ in range(r):
                n, c = divmod(n, p)
                coeffs.append(c)
            candidate = tuple(coeffs)
            if candidate[0] == 0:
                continue  # x would not be a unit
            if not _is_irreducible(p, candidate):
                continue
            if _x_order_is_maximal(p, candidate, unit_order, order_primes):
                return candidate
        raise AssertionError("primitive polynomials exist in every degree")

    def _reduction_table(self) -> Tuple[Element, ...]:
        p, r = self.p, self.r
        table = []
        current = tuple((-c) % p for c in self.modulus)  # x^r
        for _ in range(r - 1):
            table.append(current)
            shifted = (0,) + current[:-1]
            overflow = current[-1]
            current = tuple(
                (ci - overflow * mi) % p for ci, mi in zip(shifted, self.modulus)
            )
        return tuple(table)

    # -- arithmetic --------------------------------------------------------

    def element(self, coeffs) -> Element:
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.r:
            raise InvalidInput(f"too many coefficients for degree {self.r}")
        return tuple(cs + [0] * (self.r - len(cs)))

    def scalar(self, c: int) -> Element:
        return (c % self.p,) + (0,) * (self.r - 1)

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a: Element, b: Element) -> Element:
        p, r = self.p, self.r
        if r == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = conv[:r]
        for i in range(r, 2 * r - 1):
            c = conv[i] % p
            if c:
                fold = self._fold[i - r]
                for j in range(r):
                    out[j] += c * fold[j]
        return tuple(c % p for c in out)

    def pow(self, a: Element, n: int) -> Element:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a: Element) -> Element:
        if a == self.zero:
            raise ZeroDivisionError("inverting 0 in a finite field")
        return self.pow(a, self.order - 2)

    def frobenius(self, a: Element, times: int = 1) -> Element:
        for _ in range(times % self.r):
            a = self.pow(a, self.p)
        return a

    def subfield_generator(self, s: int) -> Element:
        """A fixed generator of the F_{p^s} inside this field (s | r)."""
        if self.r % s:
            raise InvalidInput(f"{s} does not divide the field degree {self.r}")
        return self.pow(self.gen, (self.order - 1) // (self.p**s - 1))

    def element_order(self, a: Element) -> int:
        if a == self.zero:
            raise InvalidInput("0 has no multiplicative order")
        n = self.order - 1
        for ell in prime_factors(n):
            while n % ell == 0 and self.pow(a, n // ell) == self.one:
                n //= ell
        return n


# -- polynomial helpers for the modulus search ------------------------------


def _poly_mulmod(p: int, a, b, modulus) -> Tuple[int, ...]:
    r = len(modulus)
    conv = [0] * (2 * r - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] = (conv[i + j] + x * y) % p
    for i in range(2 * r - 2, r - 1, -1):
        c = conv[i]
        if c:
            conv[i] = 0
            for j in range(r):
                conv[i - r + j] = (conv[i - r + j] - c * modulus[j]) % p
    return tuple(conv[:r])


def _poly_powmod(p: int, a, n: int, modulus) -> Tuple[int, ...]:
    r = len(modulus)
    result = (1,) + (0,) * (r - 1)
    base = tuple(a)
    while n:
        if n & 1:
            result = _poly_mulmod(p, result, base, modulus)
        base = _poly_mulmod(p, base, base, modulus)
        n >>= 1
    return result


def _poly_gcd_is_one(p: int, a, b) -> bool:
    """gcd over F_p of a (arbitrary) and b (the monic modulus, passed as list)."""
    x = [c % p for c in a]
    y = [c % p for c in b]
    while any(y):
        while x and x[-1] == 0:
            x.pop()
        while y and y[-1] == 0:
            y.pop()
        if not y:
            break
        if len(x) < len(y):
            x, y = y, x
            continue
        lead = x[-1] * pow(y[-1], p - 2, p) % p
        shift = len(x) - len(y)
        for i, c in enumerate(y):
            x[i + shift] = (x[i + shift] - lead * c) % p
        while x and x[-1] == 0:
            x.pop()
        if len(x) < len(y):
            x, y = y, x
    return len(x) == 1


def _is_irreducible(p: int, coeffs: Tuple[int, ...]) -> bool:
    """Irreducibility of x^r + sum c_i x^i over F_p."""
    r = len(coeffs)
    if r == 1:
        return True
    x = (0, 1) + (0,) * (r - 2)
    if _poly_powmod(p, x, p**r, coeffs) != x:
        return False
    for ell in prime_factors(r):
        power = _poly_powmod(p, x, p ** (r // ell), coeffs)
        diff = list(power)
        diff[1] = (diff[1] - 1) % p
        full = list(coeffs) + [1]
        if not _poly_gcd_is_one(p, diff, full):
            return False
    return True


def _x_order_is_maximal(
    p: int, coeffs: Tuple[int, ...], unit_order: int, order_primes
) -> bool:
    r = len(coeffs)
    if unit_order == 1:
        return True
    x = (0, 1) + (0,) * (r - 2) if r > 1 else ((-coeffs[0]) % p,)
    one = (1,) + (0,) * (r - 1)
    return all(
        _poly_powmod(p, x, unit_order // ell, coeffs) != one for ell in order_primes
    )
