"""Residue-pairing re-derivation of the label subset, over truncated series.

This module rebuilds the label subset of a profile by a route that shares
nothing with the digit combinatorics.  Each basis label names an
Artin-Hasse unit with coefficients in the tensor ring (residue field of the
auxiliary extension) tensor F_q, and the label is kept exactly when some
spanning monomial a has nonzero residue-trace pairing Tr res(a dg/g)
against that unit g.  No unit series is built: a unit enters only through
its logarithmic derivative dg/g, which is written down in closed form, and
``residue_trace_pairing`` takes that dlog directly.

The tensor ring is realized componentwise: an element is a tuple of F_q
values indexed by the embeddings of the auxiliary residue field, so ring
operations are componentwise.  The p-th power map of the residue field
acts on these coordinates as an index shift, which agrees with the
componentwise p-th power only on tuples coming from the residue field
itself.  For that reason a unit is never exponentiated from an arbitrary
tuple: the tuple is decomposed over a basis of residue-field ("coherent")
tuples by linear algebra, the unit is the product of one Artin-Hasse factor
per basis tuple raised to its coordinate, and its dlog is the same
combination of the factors' dlogs.

The coherent basis is the powers of the conjugates x_i of one generator,
so its component matrix (x_i^t) is a Vandermonde matrix, inverted by
Lagrange interpolation.  The dlog v E'(v)/E(v) of the mod-p Artin-Hasse
series E is found once per prime by plain series division over F_p, with
coefficients delta_k.  Substituting v -> lam v is a ring map that commutes
with v d/dv, so the dlog of a factor E(lam v) has coefficients
delta_k lam^k, componentwise, and u d/du = m' v d/dv at v = u^{m'}.  A
tuple with coherent coordinates beta therefore has a unit whose dlog, at
u^{k m'} and component i, is (m' delta_k mod p) P(x_i^k) with
P(X) = sum_t beta_t X^t: the same sum as the beta-combination of the
factors' dlogs, sum_t beta_t (x_i^t)^k, taken in a different order.  P is
evaluated by Horner's rule at the points x_i^k, read from one table of
conjugate powers per field, and the F_p factor is applied once per
coefficient.  ``dlog_truncated`` divides an explicit series for its dlog;
the tests use it to check the closed form against the definition.

The mod-p Artin-Hasse coefficients come from two routes that must agree:
the exponential recurrence in exact fractions, and the product over n of
(1 - x^n)^{-mu(n)/n}, whose binomial coefficients mod p are products of
digit binomials by Lucas's theorem.  The series length is capped at
``_MAX_TRUNCATION``, a resource limit checked before any field or series
is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, FrozenSet, List, Optional, Tuple

from ._gf import Element, FiniteField, field
from .errors import (
    IntegralityViolation,
    InternalInvariantViolation,
    InvalidInput,
    NonUnitConstantTerm,
    ResourceLimitExceeded,
    RouteMismatch,
    TruncationInsufficient,
)
from .serre_basis import (
    BasisLabel,
    _check_profile_chi,
    i_m_index,
    validate_e_m,
    w_prime,
)
from .tame_chars import CharacterData, FieldParams, niveau
from .weight_lattice import WeightProfile

# ---------------------------------------------------------------------------
# Artin-Hasse coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def artin_hasse_rational(p: int, trunc: int) -> Tuple[Fraction, ...]:
    """Exact coefficients c_0..c_D of exp(sum_n x^{p^n}/p^n).

    Solved from E' = S'E where S is the inner sum: S' has coefficient 1 at
    every degree p^n - 1 and 0 elsewhere, so (k+1) c_{k+1} is the sum of
    c_{k+1-p^n} over p^n <= k+1.  Every denominator must be prime to p.
    """
    if trunc < 0:
        raise InvalidInput(f"truncation degree must be >= 0, got {trunc}")
    jumps = []
    power = 1
    while power <= trunc:
        jumps.append(power)
        power *= p
    coeffs: List[Fraction] = [Fraction(1)]
    for k in range(1, trunc + 1):
        total = sum((coeffs[k - j] for j in jumps if j <= k), Fraction(0))
        coeffs.append(total / k)
    for k, c in enumerate(coeffs):
        if c.denominator % p == 0:
            raise IntegralityViolation(
                f"coefficient {k} has denominator {c.denominator} divisible by {p}"
            )
    return tuple(coeffs)


def _moebius(n: int) -> int:
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def _artin_hasse_moebius(p: int, trunc: int) -> Tuple[int, ...]:
    """Mod-p coefficients via prod_{(n,p)=1} (1 - x^n)^{-mu(n)/n}.

    binomial(e, k) mod p for the p-adic exponent e = -mu(n)/n is, by
    Lucas's theorem, the product of binomial(e_j, k_j) mod p over the
    base-p digits of e and k.  The theorem holds for p-adic e because
    binomial(e, k) mod p depends only on e mod p^L once p^L > k, so the
    digits of e mod p^L with p^L > trunc serve every k <= trunc.  For each
    digit e_j the factors binomial(e_j, b), b up to the largest digit k_j
    that occurs, come from one row by binomial(a, b) = binomial(a, b - 1)
    (a - b + 1) / b, with the inverses of 1..min(p - 1, trunc) found once.
    """
    digits = 1
    while p**digits <= trunc:
        digits += 1
    modulus = p**digits
    inverse = [0, 1]
    for b in range(2, min(p - 1, trunc) + 1):
        inverse.append(-(p // b) * inverse[p % b] % p)
    result = [0] * (trunc + 1)
    result[0] = 1
    for n in range(1, trunc + 1):
        if n % p == 0:
            continue
        mu = _moebius(n)
        if mu == 0:
            continue
        exponent = -mu * pow(n, -1, modulus) % modulus
        top = trunc // n
        rows = []  # rows[j][b] = binomial(e_j, b) mod p for every digit b of k <= top
        place = 1
        while place <= top:
            a = exponent // place % p
            row = [1]
            for b in range(1, min(p - 1, top // place) + 1):
                row.append(row[-1] * (a - b + 1) * inverse[b] % p)
            rows.append(row)
            place *= p
        terms = []  # (degree, coefficient) of (1 - x^n)^exponent, ascending
        for k in range(top + 1):
            c = (-1) ** k % p
            rest, j = k, 0
            while rest and c:
                c = c * rows[j][rest % p] % p
                rest //= p
                j += 1
            if c:
                terms.append((n * k, c))
        merged = [0] * (trunc + 1)
        for i, a in enumerate(result):
            if a:
                for j, c in terms:
                    if i + j > trunc:
                        break
                    merged[i + j] = (merged[i + j] + a * c) % p
        result = merged
    return tuple(result)


@lru_cache(maxsize=None)
def artin_hasse_mod_p(p: int, trunc: int) -> Tuple[int, ...]:
    """Mod-p Artin-Hasse coefficients, computed twice and cross-checked."""
    rational = artin_hasse_rational(p, trunc)
    reduced = tuple(
        c.numerator % p * pow(c.denominator, -1, p) % p for c in rational
    )
    moebius = _artin_hasse_moebius(p, trunc)
    if reduced != moebius:
        raise RouteMismatch(
            f"exponential and Moebius-product routes disagree at p={p}, D={trunc}"
        )
    return reduced


def _bucket(trunc: int) -> int:
    """The least power of two (at least 64) that covers degree trunc."""
    return max(64, 1 << (trunc - 1).bit_length())


@lru_cache(maxsize=None)
def _ah_dlog_mod_p(p: int, trunc: int) -> Tuple[int, ...]:
    """Coefficients delta_0..delta_D of v E'(v)/E(v), E the mod-p Artin-Hasse
    series, by plain series division over F_p (E has constant term 1)."""
    ah = artin_hasse_mod_p(p, trunc)
    support = [k for k in range(1, trunc + 1) if ah[k]]
    delta: List[int] = []
    for d in range(trunc + 1):
        acc = d * ah[d]
        for k in support:
            if k > d:
                break
            acc -= ah[k] * delta[d - k]
        delta.append(acc % p)
    return tuple(delta)


def _ah_dlog_prefix(p: int, trunc: int) -> Tuple[int, ...]:
    """delta_0..delta_trunc, served from the same cache buckets."""
    return _ah_dlog_mod_p(p, _bucket(trunc))[: trunc + 1]


# ---------------------------------------------------------------------------
# The tensor ring and its series
# ---------------------------------------------------------------------------

TensorScalar = Tuple[Element, ...]


class TensorAlgebra:
    """Componentwise F_q^n with the sum trace."""

    def __init__(self, fq: FiniteField, n: int):
        if n < 1:
            raise InvalidInput(f"component count must be >= 1, got {n}")
        self.fq = fq
        self.n = n
        self.zero: TensorScalar = (fq.zero,) * n
        self.one: TensorScalar = (fq.one,) * n

    def add(self, a: TensorScalar, b: TensorScalar) -> TensorScalar:
        return tuple(self.fq.add(x, y) for x, y in zip(a, b))

    def sub(self, a: TensorScalar, b: TensorScalar) -> TensorScalar:
        return tuple(self.fq.sub(x, y) for x, y in zip(a, b))

    def mul(self, a: TensorScalar, b: TensorScalar) -> TensorScalar:
        return tuple(self.fq.mul(x, y) for x, y in zip(a, b))

    def scale(self, c: Element, a: TensorScalar) -> TensorScalar:
        return tuple(self.fq.mul(c, x) for x in a)

    def is_zero(self, a: TensorScalar) -> bool:
        return all(x == self.fq.zero for x in a)

    def invert(self, a: TensorScalar) -> TensorScalar:
        if any(x == self.fq.zero for x in a):
            raise NonUnitConstantTerm("tensor scalar has a zero component")
        return tuple(self.fq.inv(x) for x in a)

    def trace(self, a: TensorScalar) -> Element:
        total = self.fq.zero
        for x in a:
            total = self.fq.add(total, x)
        return total


@dataclass
class LaurentElement:
    """Finitely many known coefficients; degrees above ``trunc`` are unknown.

    ``trunc`` = None means the element is exact (a Laurent polynomial).
    Stored coefficients are nonzero; absent degrees at or below the
    truncation bound are genuinely zero.
    """

    coeffs: Dict[int, TensorScalar] = dataclass_field(default_factory=dict)
    trunc: Optional[int] = None


def monomial(alg: TensorAlgebra, degree: int, coeff: TensorScalar) -> LaurentElement:
    if alg.is_zero(coeff):
        return LaurentElement({}, None)
    return LaurentElement({degree: coeff}, None)


def dlog_truncated(
    alg: TensorAlgebra, series: LaurentElement, trunc: Optional[int] = None
) -> LaurentElement:
    """u (d series/du) / series, coefficients known up to the truncation.

    The input must be a power series (no negative degrees) with invertible
    constant term; the quotient is computed by plain series division.
    """
    bound = series.trunc if series.trunc is not None else trunc
    if bound is None:
        raise InvalidInput("dlog of an exact series needs an explicit truncation")
    if any(d < 0 for d in series.coeffs):
        raise InvalidInput("dlog is only taken of power series units")
    constant = series.coeffs.get(0, alg.zero)
    inverse = alg.invert(constant)  # raises NonUnitConstantTerm
    p = alg.fq.p
    denom = [series.coeffs.get(d, alg.zero) for d in range(bound + 1)]
    support = [k for k in range(1, bound + 1) if not alg.is_zero(denom[k])]
    numer = [
        alg.scale(alg.fq.scalar(d % p), series.coeffs.get(d, alg.zero))
        for d in range(bound + 1)
    ]
    quotient: List[TensorScalar] = []
    zero = alg.zero
    for d in range(bound + 1):
        acc = numer[d]
        for k in support:
            if k > d:
                break
            q = quotient[d - k]
            if q != zero:
                acc = alg.sub(acc, alg.mul(denom[k], q))
        quotient.append(alg.mul(inverse, acc))
    out = {d: c for d, c in enumerate(quotient) if not alg.is_zero(c)}
    return LaurentElement(out, bound)


# ---------------------------------------------------------------------------
# Artin-Hasse units, given by their dlogs
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _coherent_data(
    p: int, r: int, n: int
) -> Tuple[Tuple[Element, ...], Tuple[Tuple[Element, ...], ...]]:
    """The conjugates x_i of the embedded degree-n residue field's generator,
    and the inverse of the coherent basis matrix (for decomposing arbitrary
    tuples).

    x_i is the conjugate g^(p^((n - i) mod n)) of the subfield generator g,
    found by repeated p-th powers.  Component i of coherent basis tuple t
    is x_i^t, so the component matrix (x_i^t)_{i,t} is a Vandermonde matrix
    in the n distinct x_i.
    """
    fq = field(p, r)
    xs = [fq.zero] * n
    x = fq.subfield_generator(n)
    for j in range(n):
        xs[-j % n] = x
        x = fq.pow(x, p)
    return tuple(xs), _vandermonde_inverse(fq, tuple(xs))


def _vandermonde_inverse(
    fq: FiniteField, xs: Tuple[Element, ...]
) -> Tuple[Tuple[Element, ...], ...]:
    """The inverse of (x_i^t)_{i,t}, by Lagrange interpolation in O(n^2).

    Entry (t, i) is the X^t coefficient of L_i = prod_{j != i} (X - x_j)
    divided by its value at x_i: L_i(x_k) = [i = k] says exactly that these
    coefficients invert the matrix.  prod_j (X - x_j) is built once and
    divided synthetically by each X - x_i.
    """
    n = len(xs)
    poly = [fq.one]  # prod_j (X - x_j), coefficients ascending
    for x in xs:
        grown = [fq.zero] + poly
        for k, c in enumerate(poly):
            grown[k] = fq.sub(grown[k], fq.mul(x, c))
        poly = grown
    columns = []
    for x in xs:
        quotient = [fq.zero] * n
        acc = fq.zero
        for k in range(n, 0, -1):  # q_{k-1} = P_k + x q_k
            acc = fq.add(poly[k], fq.mul(x, acc))
            quotient[k - 1] = acc
        value = fq.zero
        for c in reversed(quotient):
            value = fq.add(fq.mul(value, x), c)
        if value == fq.zero:
            raise InternalInvariantViolation("coherent basis matrix is singular")
        scale = fq.inv(value)
        columns.append([fq.mul(scale, c) for c in quotient])
    return tuple(tuple(column[t] for column in columns) for t in range(n))


def decompose_coherent(alg: TensorAlgebra, lam: TensorScalar) -> Tuple[Element, ...]:
    """Coefficients of lam over the coherent basis, by the cached inverse;
    zero components of lam cost nothing."""
    _, inverse = _coherent_data(alg.fq.p, alg.fq.r, alg.n)
    fq = alg.fq
    support = [(i, x) for i, x in enumerate(lam) if x != fq.zero]
    out = []
    for row in inverse:
        total = fq.zero
        for i, x in support:
            total = fq.add(total, fq.mul(row[i], x))
        out.append(total)
    return tuple(out)


# Per (p, r, n): the componentwise powers (x_0^k, ..., x_{n-1}^k) of the
# conjugates, for each degree k that a unit's dlog has needed so far.
_CONJUGATE_POWERS: Dict[Tuple[int, int, int], Dict[int, Tuple[Element, ...]]] = {}


def _conjugate_powers(fq: FiniteField, n: int, k: int) -> Tuple[Element, ...]:
    """(x_i^k)_i, one ``pow`` per conjugate, kept in the field's table."""
    key = (fq.p, fq.r, n)
    table = _CONJUGATE_POWERS.setdefault(key, {})
    row = table.get(k)
    if row is None:
        xs, _ = _coherent_data(*key)
        row = table[k] = tuple(fq.pow(x, k) for x in xs)
    return row


def epsilon_unit(
    alg: TensorAlgebra, lam: TensorScalar, m_prime: int, trunc: int
) -> LaurentElement:
    """The dlog of the Artin-Hasse unit of an arbitrary tuple at exponent m'.

    The tuple is decomposed as lam = sum_t beta_t b_t over the coherent
    basis tuples b_t = (x_i^t)_i, and the unit combines the honest factors
    E(b_t u^{m'}) with the exterior scalars beta_t, so its dlog is
    sum_t beta_t dlog E(b_t u^{m'}).  With v = u^{m'}, u d/du = m' v d/dv
    and dlog E(b_t v) has delta_k (x_i^t)^k at v^k, so the unit's dlog at
    u^{k m'}, component i, is (m' delta_k mod p) P(x_i^k) with
    P(X) = sum_t beta_t X^t.  P is evaluated by Horner's rule, once per
    distinct point x_i^k, and the F_p factor is applied once per
    coefficient.
    """
    if m_prime < 1:
        raise InvalidInput(f"the u-exponent must be >= 1, got {m_prime}")
    fq = alg.fq
    top, *lower = reversed(decompose_coherent(alg, lam))  # beta_{n-1}, ..., beta_0
    v_trunc = trunc // m_prime
    values: Dict[Element, Element] = {}  # P at each point met so far
    coeffs: Dict[int, TensorScalar] = {}
    for k, delta in enumerate(_ah_dlog_prefix(fq.p, v_trunc)):
        c = m_prime * delta % fq.p
        if not c:
            continue
        row = []
        for x in _conjugate_powers(fq, alg.n, k):
            y = values.get(x)
            if y is None:
                y = top
                for beta in lower:
                    y = fq.add(fq.mul(y, x), beta)
                values[x] = y
            row.append(y)
        if c != 1:
            row = [fq.scale(c, y) for y in row]
        if any(y != fq.zero for y in row):
            coeffs[k * m_prime] = tuple(row)
    return LaurentElement(coeffs, (v_trunc + 1) * m_prime - 1)


# ---------------------------------------------------------------------------
# Eigenvector tuples and the pairing
# ---------------------------------------------------------------------------


def lambda_tuple(
    alg: TensorAlgebra, f_count: int, t: int, a_val: Element, inverse: bool = False
) -> TensorScalar:
    """The eigenvector tuple supported on embeddings over residue index t.

    Component t + c*f carries a^{-c} (a^{+c} for the inverse variant); the
    index-shift Frobenius to the f-th power then scales it by a (by a^{-1}).
    """
    if alg.n % f_count:
        raise InvalidInput("component count must be a multiple of f")
    if not 0 <= t < f_count:
        raise InvalidInput(f"residue index {t} out of [0, {f_count})")
    fq = alg.fq
    components = [fq.zero] * alg.n
    value = fq.one
    step = fq.pow(a_val, 1 if inverse else -1)
    for c in range(alg.n // f_count):
        components[t + c * f_count] = value
        value = fq.mul(value, step)
    return tuple(components)


def residue_trace_pairing(
    alg: TensorAlgebra, a: LaurentElement, g: LaurentElement
) -> Element:
    """Tr of the u^{-1} coefficient of a g, as an F_q element.

    g is the dlog u (db/du)/b of a unit b: ``epsilon_unit`` for an
    Artin-Hasse unit, the constant 1 for u itself.  Every stored
    coefficient of one factor needs the matching coefficient of the other
    to be known; otherwise the residue is not determined at the available
    truncation.
    """
    for d in a.coeffs:
        if g.trunc is not None and -d > g.trunc:
            raise TruncationInsufficient(
                f"dlog needed at degree {-d}, known only up to {g.trunc}"
            )
    for d in g.coeffs:
        if a.trunc is not None and -d > a.trunc:
            raise TruncationInsufficient(
                f"left factor needed at degree {-d}, known only up to {a.trunc}"
            )
    total = alg.zero
    for d, c in a.coeffs.items():
        other = g.coeffs.get(-d)
        if other is not None:
            total = alg.add(total, alg.mul(c, other))
    return alg.trace(total)


# ---------------------------------------------------------------------------
# The full re-derivation
# ---------------------------------------------------------------------------


def required_degree(params: FieldParams, chi: CharacterData) -> int:
    """Least coefficient-field degree: the eigenvector components and the
    unramified value must both embed."""
    return lcm(params.f * chi.unram.order(params.p), chi.unram.order_field_degree)


# The longest series the oracle builds, a resource limit rather than a
# validity condition.  ``default_truncation`` is about 2 e p, so without it
# an oracle query at a large prime would allocate series of billions of
# terms.  Both Artin-Hasse routes run to the cache bucket of the
# truncation, the cap itself here, and the exponential route in exact
# fractions grows about as the cube: at the cap a cold instance takes a few
# seconds (p = 2: ~5 s), and the next bucket would take ten times that.
_MAX_TRUNCATION = 2048


def default_truncation(params: FieldParams, profile: WeightProfile, e_m: int) -> int:
    q1 = params.tame_order
    xi_top = max(xi * e_m // q1 for xi in profile.xi)
    m_top = -(-params.e * params.p * e_m // (params.p - 1))
    return 2 * max(xi_top, m_top, 1)


def rederive_jvah(
    params: FieldParams,
    profile: WeightProfile,
    chi: CharacterData,
    e_m: Optional[int] = None,
    fq_degree: Optional[int] = None,
    trunc: Optional[int] = None,
) -> FrozenSet[BasisLabel]:
    """Label subset by explicit residue pairings; must match j_v_ah.

    For each basis label the dlog of its unit at exponent m' is written
    down; for each (i, d) a spanning monomial at degree d e_M - xi'_i; the
    label survives iff some pairing is nonzero.  Everything happens in
    truncated series over the componentwise tensor ring.
    """
    if trunc is not None and trunc < 0:
        raise InvalidInput(f"truncation degree must be >= 0, got {trunc}")
    if e_m is None:
        e_m = params.tame_order
    validate_e_m(params, chi, e_m)
    _check_profile_chi(params, profile, chi)
    if trunc is None:
        trunc = default_truncation(params, profile, e_m)
    if trunc > _MAX_TRUNCATION:
        raise ResourceLimitExceeded(
            f"truncation degree {trunc} exceeds the supported cap {_MAX_TRUNCATION}"
        )
    p, f = params.p, params.f
    q1 = params.tame_order
    scale = q1 // e_m
    order = chi.unram.order(p)
    degree_needed = required_degree(params, chi)
    if fq_degree is None:
        fq_degree = degree_needed
    elif fq_degree % degree_needed:
        raise InvalidInput(
            f"coefficient field degree {fq_degree} is not a multiple of {degree_needed}"
        )
    fq = field(p, fq_degree)
    r_mu = chi.unram.order_field_degree
    a_val = fq.pow(fq.gen, (fq.order - 1) // (p**r_mu - 1) * chi.unram.dlog)
    if fq.element_order(a_val) != order:
        raise InternalInvariantViolation("embedded unramified value has wrong order")
    n_components = f * order
    alg = TensorAlgebra(fq, n_components)
    xi_scaled = tuple(xi * e_m // q1 for xi in profile.xi)
    f_prime, f_dprime = niveau(params, chi.signature)
    spanning = []
    for i in range(f):
        lam_inv = lambda_tuple(alg, f, i, a_val, inverse=True)
        for d in profile.intervals[i]:
            spanning.append(monomial(alg, d * e_m - xi_scaled[i], lam_inv))
    if chi.declared_trivial:
        if xi_scaled[0] % e_m:
            raise InternalInvariantViolation(
                "trivial quotient but xi'_0 is not a multiple of e_M"
            )
        spanning.append(monomial(alg, 0, lambda_tuple(alg, f, 0, a_val, inverse=True)))
    labels = set()
    for m in w_prime(params, chi):
        m_prime = m // scale
        im = i_m_index(params, chi, m)
        for k in range(f_dprime):
            t_alpha = (im + k * f_prime) % f
            g = epsilon_unit(alg, lambda_tuple(alg, f, t_alpha, a_val), m_prime, trunc)
            if any(residue_trace_pairing(alg, a, g) != fq.zero for a in spanning):
                labels.add(BasisLabel.alpha(m, k))
    return frozenset(labels)
