"""Tame characters of a local Galois group in terms of digit signatures.

Setting: a p-adic base field with residue degree f and ramification index e.
Embeddings of the residue field into an algebraic closure are labelled so
that the (i+1)-st embedding raised to the p-th power is the i-th; the
fundamental tame characters follow the same labelling.  A character's
restriction to inertia is then a product of fundamental characters, and the
exponent tuple is only well defined modulo the relation that shifting one
exponent down by p trades against the next one up by 1.

The canonical representative used everywhere here is the "digit signature":
the unique exponent tuple with every entry in [1, p], excluding the all-p
tuple.  Equivalently, the class n modulo p^f - 1 is represented in the
half-open window [R, p*R) with R = (p^f - 1)/(p - 1), and the base-p digits
of that representative (with digit set [1, p]) are read off into the tuple.

Unramified parts are recorded as a discrete log with respect to a fixed
generator convention: the multiplicative group of the field with p^r
elements is generated by the residue class of the variable modulo the
lexicographically least primitive polynomial of degree r (see the finite
field module).  Characters of different unramified degrees are compared by
scaling discrete logs to a common degree, mapping the degree-r generator to
the power (p^L - 1)/(p^r - 1) of the degree-L generator.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import (
    InternalInvariantViolation,
    InvalidInput,
    InvariantError,
    ResourceLimitExceeded,
)

# ---------------------------------------------------------------------------
# Field parameters
# ---------------------------------------------------------------------------


# The first 13 primes.  A strong probable prime to every one of them is
# prime below _SPRP_EXACT_BELOW (Sorenson and Webster 2015).
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int, name: str = "p = {}") -> bool:
    """Primality by the strong probable-prime test to ``_SPRP_BASES``.

    Exact below ``_SPRP_EXACT_BELOW``.  At or above it a number that fails
    a base is still composite, but one that passes every base raises
    ResourceLimitExceeded, naming n as ``name.format(n)``: the test decides
    nothing there.
    """
    if n < 2:
        return False
    for b in _SPRP_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for b in _SPRP_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _SPRP_EXACT_BELOW:
        raise ResourceLimitExceeded(
            f"{name.format(n)} passes the strong probable-prime test, which decides "
            f"primality only below {_SPRP_EXACT_BELOW}"
        )
    return True


class _FieldParamsFields(NamedTuple):
    p: int
    e: int
    f: int


class FieldParams(_FieldParamsFields):
    """Residue characteristic p, ramification index e, residue degree f."""

    __slots__ = ()

    def __new__(cls, p: int, e: int, f: int) -> FieldParams:
        if not is_prime(p):
            raise InvalidInput(f"p = {p} is not prime")
        if e < 1 or f < 1:
            raise InvalidInput(f"need e >= 1 and f >= 1, got e={e}, f={f}")
        return tuple.__new__(cls, (p, e, f))

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def tame_order(self) -> int:
        """Order of the tame inertia quotient acting on the residue field."""
        return self.p**self.f - 1

    @property
    def repunit(self) -> int:
        """(p^f - 1)/(p - 1): the all-ones digit value, lower window edge."""
        return (self.p**self.f - 1) // (self.p - 1)

    @property
    def window_top(self) -> int:
        """e p (p^f - 1)/(p - 1): W' and the interior jump numerators lie below."""
        return self.e * self.p * self.repunit


# ---------------------------------------------------------------------------
# Digit signatures
# ---------------------------------------------------------------------------


class TameSignature(NamedTuple):
    """Canonical inertial exponent tuple: every entry in [1, p], not all p."""

    a: Tuple[int, ...]


def validate_signature(params: FieldParams, sig: TameSignature) -> None:
    _check_digits(params.p, params.f, sig.a)


def _check_digits(p: int, f: int, a: Tuple[int, ...]) -> None:
    if len(a) != f:
        raise InvariantError(f"signature length {len(a)} != f = {f}")
    if any(not (1 <= ai <= p) for ai in a):
        raise InvariantError(f"signature entries must lie in [1, p]: {a}")
    if all(ai == p for ai in a):
        raise InvariantError("the all-p signature is excluded")


def exponent_class(params: FieldParams, exps: Tuple[int, ...]) -> int:
    """Class modulo p^f - 1 of the character with the given exponent tuple.

    The i-th fundamental character equals the 0-th raised to p^((f-i) mod f),
    so the tuple (c_0, ..., c_{f-1}) contributes sum_i c_i * p^((f-i) mod f).
    """
    p, f = params.p, params.f
    if len(exps) != f:
        raise InvalidInput(f"exponent tuple length {len(exps)} != f = {f}")
    total = 0
    for c in exps:  # Horner: c_0 p^(f-1) + ... + c_{f-1}
        total = total * p + c
    return total * p % (p**f - 1)  # times p, with p^f = 1: c_0 moves to p^0


def signature_class(params: FieldParams, sig: TameSignature) -> int:
    """Class modulo p^f - 1 of a digit signature (its 0-th twisted sum),
    kept on the signature's record."""
    return _derived(params, sig).cls


def _signature_from_class(params: FieldParams, n_class: int) -> TameSignature:
    """Greedy digit extraction: window representative, digits in [1, p].

    The representative's offset above the repunit R is in [0, p^f - 2]; its
    base-p digits are the signature minus 1.  Cached by plain values.
    """
    offset = (n_class - params.repunit) % params.tame_order
    return _signature_at_offset(params.p, params.f, offset)


@lru_cache(maxsize=256)
def _signature_at_offset(p: int, f: int, rem: int) -> TameSignature:
    return TameSignature(tuple(d + 1 for d in _slot_digits(p, f, rem)))


def _slot_digits(p: int, f: int, rem: int) -> List[int]:
    """The f base-p digits of rem in [0, p^f), digit j in slot (f - j) mod f."""
    a = [0] * f
    for j in range(f):
        rem, a[(f - j) % f] = divmod(rem, p)
    if rem:
        raise AssertionError(f"{rem} has more than f = {f} base-{p} digits")
    return a


def canonical_signature(params: FieldParams, exps: Tuple[int, ...]) -> TameSignature:
    """Digit signature of the character with inertial exponent tuple ``exps``.

    Entries of ``exps`` may be arbitrary integers; only their class modulo
    p^f - 1 matters.
    """
    return _signature_from_class(params, exponent_class(params, tuple(exps)))


def n_values(params: FieldParams, sig: TameSignature) -> Tuple[int, ...]:
    """Twisted digit sums n_i = sum_{j=1..f} a_{i+j} p^{f-j}, indices mod f.

    These lie in the window [R, p*R) with R the repunit, and p * n_i is
    congruent to n_{i+1} modulo p^f - 1.
    """
    return _derived(params, sig).n


def niveau(params: FieldParams, sig: TameSignature) -> Tuple[int, int]:
    """Rotation period f' of the signature and the quotient f'' = f/f'."""
    return _derived(params, sig).niveau


class _Derived:
    """What the signature determines, computed once per (p, e, f, signature).

    ``cls`` is the signature's class n_0 mod (p^f - 1) (``signature_class``).
    ``index_of`` maps n_i mod (p^f - 1) to i for i in [0, f').  A record
    exists only once ``_derived`` has checked that those f' residues are
    distinct and each is taken by exactly f'' of the n_i, so its readers
    trust both facts.  ``w_prime`` is the index set W' (``_w_prime``): None
    until the first call that reads it, which builds it and stores it here.
    ``reduced`` is the class's reduced exponent tuple: its f base-p digits
    (``_slot_digits``), which ``weight_lattice.reduced_exponents`` and the
    shift profile read instead of deriving them again at every point.
    ``alphas`` is the sorted tuple of alpha labels (m, k) over W'
    (``serre_basis.basis_labels``), kept the same way as W'.
    """

    __slots__ = ("n", "cls", "reduced", "niveau", "index_of", "w_prime", "alphas")

    def __init__(self, n, cls, reduced, niveau, index_of) -> None:
        self.n: Tuple[int, ...] = n
        self.cls: int = cls
        self.reduced: Tuple[int, ...] = reduced
        self.niveau: Tuple[int, int] = niveau
        self.index_of: Dict[int, int] = index_of
        self.w_prime: Optional[Tuple[int, ...]] = None
        self.alphas: Optional[tuple] = None


# The bound of the ``_derived`` memo.  ``verify`` reads each signature
# record of its grid in three phases: the character suite, the pair walk
# and the twist and oracle jobs.  The benchmark verify grid (p <= 5,
# e <= 3, f <= 3) has sum (p^f - 1) = 597 (FieldParams, signature) keys,
# so 640 keeps every record across the phases and across calls; at 128
# each phase rebuilt the records the one before had evicted (~1 690
# misses per call).  Each record is O(f) ints plus its W' and alphas once
# read: the 597 records that call leaves take 719 KB (tracemalloc), the
# 128 kept at a bound of 128 took 87 KB.
_DERIVED_MEMO = 640


@lru_cache(maxsize=_DERIVED_MEMO)
def _derived(params: FieldParams, sig: TameSignature) -> _Derived:
    """The record of a valid signature; a miss validates it first, and
    checks the record's facts before it is kept.

    The cache is keyed by the two records, tuples that hash in C.  It holds
    ``_DERIVED_MEMO`` records, each of O(f) ints (n-values, class, reduced
    exponents, niveau, index table), plus e*f' ints for one whose W' was
    asked for and e*f alpha labels for one whose basis was.  A record is
    built and checked once while it stays in the memo, so its readers (the
    character suite, the routes, the shift profile) neither rebuild nor
    re-check it.
    """
    p, f, a = params.p, params.f, sig.a
    _check_digits(p, f, a)
    q1 = p**f - 1
    n = tuple(_twisted_sums(p, f, a))
    f_prime = next(d for d in range(1, f + 1) if f % d == 0 and a[d:] + a[:d] == a)
    f_dprime = f // f_prime
    index_of = {n[i] % q1: i for i in range(f_prime)}
    if len(index_of) != f_prime:
        raise InternalInvariantViolation(
            f"n_0..n_{f_prime - 1} of {a} are not distinct mod {q1}"
        )
    if any(count != f_dprime for count in Counter(ni % q1 for ni in n).values()):
        raise InternalInvariantViolation(
            f"the residues of the n_i of {a} are not each taken f'' = {f_dprime} times"
        )
    cls = n[0] % q1
    return _Derived(
        n, cls, tuple(_slot_digits(p, f, cls)), (f_prime, f_dprime), index_of
    )


def _twisted_sums(p: int, f: int, a) -> List[int]:
    """n_i = sum_{j=1..f} a_{i+j} p^{f-j}, indices mod f, for any integers a:
    n_0 by Horner, then n_{i+1} = p n_i - a_{i+1} (p^f - 1), O(f) in all."""
    n = 0
    for c in a[1:] + a[:1]:  # a_1 p^(f-1) + ... + a_{f-1} p + a_0
        n = n * p + c
    sums, q1 = [n], p**f - 1
    for c in a[1:]:
        sums.append(p * sums[-1] - c * q1)
    return sums


def _w_prime(params: FieldParams, sig: TameSignature) -> Tuple[int, ...]:
    """W', ascending: the m in (0, e*p*R) with p not dividing m and m
    congruent to some n_i modulo p^f - 1, kept on the signature's record
    from the first read.  Each residue is walked upward in steps of p^f - 1
    from its least positive member, so the work is the number of terms."""
    derived = _derived(params, sig)
    if derived.w_prime is None:
        p, q1, top = params.p, params.tame_order, params.window_top
        derived.w_prime = tuple(sorted(
            m for residue in derived.index_of
            for m in range(residue or q1, top, q1) if m % p
        ))
    return derived.w_prime


# ---------------------------------------------------------------------------
# Unramified parts and full character data
# ---------------------------------------------------------------------------


class UnramifiedPart(NamedTuple):
    """Value on Frobenius as a discrete log in the degree-r generator."""

    order_field_degree: int = 1
    dlog: int = 0

    def order(self, p: int) -> int:
        """Multiplicative order of the recorded Frobenius value."""
        n = p**self.order_field_degree - 1
        return n // gcd(n, self.dlog % n) if self.dlog % n else 1

    def is_trivial(self, p: int) -> bool:
        return self.dlog % (p**self.order_field_degree - 1) == 0


def _validate_unram(params: FieldParams, unram: UnramifiedPart) -> None:
    """Check 1 <= r and 0 <= dlog <= p^r - 2.  Since p >= 2^k with
    k = bitlen(p) - 1, a dlog of fewer than k r bits is below p^r - 1, so
    p^r, a number of r log2(p) bits, is built only for a longer dlog."""
    p, (r, d) = params.p, unram
    if r < 1:
        raise InvariantError(f"unramified-part field degree must be >= 1, got {r}")
    if d < 0 or (d.bit_length() >= (p.bit_length() - 1) * r and d >= p**r - 1):
        raise InvariantError(f"dlog must lie in [0, p^r - 2], got {d} for degree {r}")


def _scaled_dlog(p: int, unram: UnramifiedPart, degree: int) -> int:
    """Discrete log of the same checked value in the degree-L generator, for
    r | L: dlog (p^L - 1)/(p^r - 1) mod p^L - 1.  At r = L the multiplier is
    1, and a dlog of 0 stays 0; neither builds p^L."""
    r, d = unram
    if r == degree or d == 0:
        return d  # in [0, p^r - 2], so already reduced
    big = p**degree - 1
    return d * (big // (p**r - 1)) % big


def _normalize_unram(p: int, degree: int, dlog: int) -> UnramifiedPart:
    """Shrink a degree-L discrete log to the least field containing the value.

    That field's degree is the multiplicative order of p modulo the value's
    order, which divides L because the value lies in F_{p^L}; so only the
    divisors of L are tried, in ascending order, each by one modular power.
    L itself needs no test, and a divisor d needs none when d bitlen(p) is
    below the order's bit length: then 0 < p^d - 1 < order.
    """
    big = p**degree - 1
    dlog %= big
    if dlog == 0:
        return UnramifiedPart(1, 0)
    order = big // gcd(big, dlog)
    width, bits = order.bit_length(), p.bit_length()
    small = [d for d in range(1, isqrt(degree) + 1) if degree % d == 0]
    proper = small + [degree // d for d in reversed(small[1:]) if d * d != degree]
    r = next(
        (d for d in proper if d * bits >= width and pow(p, d, order) == 1), degree
    )
    if r == degree:
        return UnramifiedPart(degree, dlog)
    return UnramifiedPart(r, dlog // (big // (p**r - 1)))


class CharacterData(NamedTuple):
    """A tame character: digit signature, unramified part, and declarations.

    ``declared_trivial`` is fully determined by the data and is recomputed.
    ``declared_cyclotomic`` cannot be inferred, because the unramified part
    of the mod-p cyclotomic character depends on the base field; it is
    caller-supplied and only validated against the inertial signature.  For
    p = 2 the cyclotomic character is the trivial character, so there both
    flags are forced to agree.

    Records come from ``character`` and ``char_quotient``, which check each
    one once as it is built; the helpers that receive them trust them.  A
    record built by hand should go through ``validate_character`` first.
    """

    signature: TameSignature
    unram: UnramifiedPart = UnramifiedPart()
    declared_trivial: bool = False
    declared_cyclotomic: bool = False


# The bound of the ``_character`` memo.  The verify grid runs the points of
# one chi2 class together, so chi2 recurs for each r and chi1 for each r of
# its class.  Over ``verify --p-max 5 --e-max 3 --f-max 3 --with-oracle
# --max-instances 10000``, 64 entries catch 11 927 of 14 462 builds (32
# catch 11 344, 128 only 12 256).  One call builds thousands of distinct
# characters, so none of its records is left for the next call.
_CHARACTER_MEMO = 64
# The bound of the ``_char_quotient`` memo.  ``l_v_ah`` asks for the
# quotient that the verify grid built for the same point a few calls
# before; a larger memo finds almost nothing more.
_QUOTIENT_MEMO = 32


def character(
    params: FieldParams,
    exps: Tuple[int, ...],
    unram: UnramifiedPart = UnramifiedPart(),
    cyclotomic: Optional[bool] = None,
) -> CharacterData:
    """Build validated character data from an inertial exponent tuple."""
    return _character(params, tuple(exps), unram, cyclotomic)


@lru_cache(maxsize=_CHARACTER_MEMO)
def _character(
    params: FieldParams,
    exps: Tuple[int, ...],
    unram: UnramifiedPart,
    cyclotomic: Optional[bool],
) -> CharacterData:
    """``character`` keyed by its four records; a raise is not cached."""
    sig = canonical_signature(params, exps)
    return _finish_character(params, sig, unram, cyclotomic)


def _finish_character(
    params: FieldParams,
    sig: TameSignature,
    unram: UnramifiedPart,
    cyclotomic: Optional[bool],
) -> CharacterData:
    """Derive the flags and check the record: the one place a character is
    validated, so helpers that receive it trust it.  Each part is checked
    once: the signature by its record's miss, before the unramified part;
    the trivial flag holds by construction."""
    unramified = signature_class(params, sig) == 0
    _validate_unram(params, unram)
    trivial = unramified and unram.dlog == 0  # d < p^r - 1
    if cyclotomic:
        if sig != cyclotomic_inertia_signature(params):
            raise InvariantError(
                f"cyclotomic declaration inconsistent with signature {sig.a}"
            )
        # Mod 2 the cyclotomic signature is the trivial one, so only the
        # unramified part can make a cyclotomic declaration nontrivial.
        if params.p == 2 and not trivial:
            raise InvariantError("mod-2 cyclotomic declarations need trivial unram")
    # Cyclotomic is declared, except mod 2 where it is the trivial character.
    return CharacterData(
        sig, unram, trivial, bool(cyclotomic) or (params.p == 2 and trivial)
    )


def validate_character(params: FieldParams, chi: CharacterData) -> None:
    """Check a character record against (p, e, f) and its flag rules: it
    must be the record ``_finish_character`` builds from its data and its
    cyclotomic declaration."""
    rebuilt = _finish_character(
        params, chi.signature, chi.unram, chi.declared_cyclotomic
    )
    if chi.declared_trivial != rebuilt.declared_trivial:
        raise InvariantError("trivial flag inconsistent with character data")
    if chi != rebuilt:  # only a mod-2 trivial record gains the declaration
        raise InvariantError("mod-2 trivial characters are cyclotomic")


def is_unramified(params: FieldParams, chi: CharacterData) -> bool:
    """Whether the character restricts trivially to inertia."""
    return signature_class(params, chi.signature) == 0


def cyclotomic_inertia_signature(params: FieldParams) -> TameSignature:
    """Digit signature of the mod-p cyclotomic character: class of (e, ..., e)."""
    return canonical_signature(params, (params.e,) * params.f)


def char_quotient(
    params: FieldParams,
    chi1: CharacterData,
    chi2: CharacterData,
    declare_cyclotomic: Optional[bool] = None,
) -> CharacterData:
    """The character chi1 * chi2^{-1} with recomputed flags.

    The trivial flag of the quotient is derived from its data.  Whether the
    quotient equals the cyclotomic character cannot be inferred, so it is
    taken from ``declare_cyclotomic`` and validated against the signature.
    """
    return _char_quotient(params, chi1, chi2, declare_cyclotomic)


@lru_cache(maxsize=_QUOTIENT_MEMO)
def _char_quotient(
    params: FieldParams,
    chi1: CharacterData,
    chi2: CharacterData,
    declare_cyclotomic: Optional[bool],
) -> CharacterData:
    """``char_quotient`` with every argument positional, so that a keyword
    call and a positional one share a key; a raise is not cached."""
    n1 = signature_class(params, chi1.signature)
    n2 = signature_class(params, chi2.signature)
    sig = _signature_from_class(params, n1 - n2)
    degree = lcm(chi1.unram.order_field_degree, chi2.unram.order_field_degree)
    dlog = _scaled_dlog(params.p, chi1.unram, degree) - _scaled_dlog(
        params.p, chi2.unram, degree
    )
    unram = _normalize_unram(params.p, degree, dlog)
    return _finish_character(params, sig, unram, declare_cyclotomic)
