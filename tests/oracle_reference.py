"""The oracle's series from their definitions, kept as test oracles.

The package writes the dlog of an Artin-Hasse unit in closed form: at
u^{p^j m'} it is (m' mod p) times the tuple rotated j places, and zero at
every other degree.  It computes no Artin-Hasse coefficient, no
decomposition over the coherent basis and no conjugate power.  The
definitions that the closed form is checked against live here:

- ``artin_hasse_rational`` is the exponential recurrence in exact
  fractions, and ``artin_hasse_mod_p`` reduces it mod p and cross-checks it
  against the product over n of (1 - x^n)^{-mu(n)/n}
  (``artin_hasse_moebius``), each binomial(e, k) mod p a product of k
  factors modulo p^(trunc + 2);
- ``epsilon_series`` is the honest unit series sum_k c_k lam^k u^{k m'},
  and ``series_mul`` multiplies two truncated series, so a pairing can be
  taken against ``dlog_truncated`` of an explicit unit;
- the basis tuples are Frobenius images of the powers of the subfield
  generator, each exponent m' gets its own compressed series E(lam v) from
  ``epsilon_series`` divided by ``dlog_truncated`` over the tensor ring,
  and a unit's dlog is the beta-scaled sum of those series, with the
  coordinates beta from the Gauss-Jordan inverse of the component matrix;
- ``rederive_jvah_lcm`` makes the pairings of ``rederive_jvah`` over the
  field of degree lcm(n, r), in which both the n tensor components and the
  unramified value of degree r embed, instead of over F_p(a) itself.

Of the package they use only the finite fields, the tensor ring,
``dlog_truncated`` and, in ``rederive_jvah_lcm``, the oracle's units,
tuples and pairing.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, List, Optional, Tuple

from serreweights import BasisLabel, i_m_index, niveau, w_prime
from serreweights._gf import field
from serreweights.errors import InternalInvariantViolation, InvalidInput
from serreweights.series_oracle import (
    LaurentElement,
    TensorAlgebra,
    dlog_truncated,
    epsilon_unit,
    lambda_tuple,
    monomial,
    residue_trace_pairing,
)


class RouteMismatch(InternalInvariantViolation):
    """Two independent computation routes disagree."""


class IntegralityViolation(InternalInvariantViolation):
    """A coefficient expected to be p-integral has p in its denominator."""


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


@lru_cache(maxsize=None)
def artin_hasse_mod_p(p: int, trunc: int) -> Tuple[int, ...]:
    """Mod-p Artin-Hasse coefficients, computed twice and cross-checked."""
    reduced = tuple(
        c.numerator % p * pow(c.denominator, -1, p) % p
        for c in artin_hasse_rational(p, trunc)
    )
    if reduced != artin_hasse_moebius(p, trunc):
        raise RouteMismatch(
            f"exponential and Moebius-product routes disagree at p={p}, D={trunc}"
        )
    return reduced


def epsilon_series(
    alg: TensorAlgebra, lam, m_prime: int, trunc: int
) -> LaurentElement:
    """The honest series sum_k c_k lam^k u^{k m'} (componentwise powers).

    This is a legitimate unit of the series ring for any tuple, but it only
    represents the Artin-Hasse image of a residue-field element when lam is
    coherent.
    """
    if m_prime < 1:
        raise InvalidInput(f"the u-exponent must be >= 1, got {m_prime}")
    ah = artin_hasse_mod_p(alg.fq.p, trunc // m_prime)
    out = {}
    power = alg.one
    for k, ck in enumerate(ah):
        if k:
            power = alg.mul(power, lam)
        if ck:
            c = alg.scale(alg.fq.scalar(ck), power)
            if not alg.is_zero(c):
                out[k * m_prime] = c
    return LaurentElement(out, trunc)


def _min_degree(series: LaurentElement) -> int:
    return min(series.coeffs) if series.coeffs else 0


def _known_up_to(a: LaurentElement, b: LaurentElement) -> Optional[int]:
    bounds = []
    if a.trunc is not None:
        bounds.append(a.trunc + _min_degree(b))
    if b.trunc is not None:
        bounds.append(b.trunc + _min_degree(a))
    return min(bounds) if bounds else None


def series_mul(alg: TensorAlgebra, a: LaurentElement, b: LaurentElement) -> LaurentElement:
    """The product of two series, known up to the degree both factors fix."""
    trunc = _known_up_to(a, b)
    out: Dict[int, Tuple[bytes, ...]] = {}
    for da, ca in a.coeffs.items():
        for db, cb in b.coeffs.items():
            d = da + db
            if trunc is not None and d > trunc:
                continue
            c = alg.mul(ca, cb)
            prev = out.get(d)
            c = alg.add(prev, c) if prev is not None else c
            if alg.is_zero(c):
                out.pop(d, None)
            else:
                out[d] = c
    return LaurentElement(out, trunc)


def coherent_basis(fq, n: int) -> Tuple[Tuple[bytes, ...], ...]:
    """Tuple t has component i equal to Frob^((n - i) mod n)(g^t)."""
    gen = fq.pow(fq.gen, (fq.order - 1) // (fq.p**n - 1))
    basis = []
    g_power = fq.one
    for _ in range(n):
        basis.append(tuple(fq.pow(g_power, fq.p ** ((n - i) % n)) for i in range(n)))
        g_power = fq.mul(g_power, gen)
    return tuple(basis)


def component_matrix(basis) -> List[List[bytes]]:
    """Row i, column t: component i of basis tuple t."""
    n = len(basis)
    return [[basis[t][i] for t in range(n)] for i in range(n)]


def matrix_inverse(fq, matrix) -> Tuple[Tuple[bytes, ...], ...]:
    """Gauss-Jordan elimination on the matrix augmented by the identity."""
    n = len(matrix)
    work = [list(row) + [fq.one if i == j else fq.zero for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(
            (row for row in range(col, n) if work[row][col] != fq.zero), None
        )
        if pivot is None:
            raise InternalInvariantViolation("coherent basis matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = fq.inv(work[col][col])
        work[col] = [fq.mul(inv, x) for x in work[col]]
        for row in range(n):
            if row != col and work[row][col] != fq.zero:
                factor = work[row][col]
                work[row] = [
                    fq.sub(x, fq.mul(factor, y))
                    for x, y in zip(work[row], work[col])
                ]
    return tuple(tuple(row[n:]) for row in work)


DlogCache = Dict[Tuple[int, int, int, int], Tuple[int, Tuple[LaurentElement, ...]]]


def dlog_basis(
    alg: TensorAlgebra, m_prime: int, trunc: int, cache: DlogCache
) -> Tuple[LaurentElement, ...]:
    """dlog of the Artin-Hasse factor of each coherent basis tuple at m'.

    Computed in the compressed variable v = u^{m'}, then re-expanded; kept
    in ``cache`` per (field, n, m') and rebuilt when a larger truncation is
    requested, as the package does.
    """
    key = (alg.fq.p, alg.fq.r, alg.n, m_prime)
    cached = cache.get(key)
    if cached is not None and cached[0] >= trunc:
        return cached[1]
    v_trunc = trunc // m_prime
    scale = alg.fq.scalar(m_prime % alg.fq.p)
    u_trunc = (v_trunc + 1) * m_prime - 1
    dlogs = []
    for tuple_t in coherent_basis(alg.fq, alg.n):
        compressed = epsilon_series(alg, tuple_t, 1, v_trunc)
        g = dlog_truncated(alg, compressed)
        expanded = {
            d * m_prime: alg.scale(scale, c) for d, c in g.coeffs.items()
        }
        dlogs.append(LaurentElement(expanded, u_trunc))
    result = tuple(dlogs)
    cache[key] = (trunc, result)
    return result


@lru_cache(maxsize=None)
def coherent_inverse(p: int, r: int, n: int) -> Tuple[Tuple[bytes, ...], ...]:
    """The Gauss-Jordan inverse of the coherent basis matrix of F_{p^r}."""
    fq = field(p, r)
    return matrix_inverse(fq, component_matrix(coherent_basis(fq, n)))


def series_add(alg: TensorAlgebra, a: LaurentElement, b: LaurentElement) -> LaurentElement:
    trunc = None
    for t in (a.trunc, b.trunc):
        if t is not None:
            trunc = t if trunc is None else min(trunc, t)
    out: Dict[int, Tuple[bytes, ...]] = {}
    for d in set(a.coeffs) | set(b.coeffs):
        if trunc is not None and d > trunc:
            continue
        c = alg.add(a.coeffs.get(d, alg.zero), b.coeffs.get(d, alg.zero))
        if not alg.is_zero(c):
            out[d] = c
    return LaurentElement(out, trunc)


def series_scale(alg: TensorAlgebra, c, a: LaurentElement) -> LaurentElement:
    out = {}
    for d, x in a.coeffs.items():
        y = alg.mul(c, x)
        if not alg.is_zero(y):
            out[d] = y
    return LaurentElement(out, a.trunc)


def epsilon_unit_dlog(
    alg: TensorAlgebra, lam, m_prime: int, trunc: int, cache: DlogCache
) -> LaurentElement:
    """The dlog of the Artin-Hasse unit of lam at m', as a series sum.

    lam is decomposed over the coherent basis by the Gauss-Jordan inverse,
    and the basis dlogs from ``dlog_basis`` are combined by the scalars.
    """
    fq = alg.fq
    inverse = coherent_inverse(fq.p, fq.r, alg.n)
    u_trunc = (trunc // m_prime + 1) * m_prime - 1
    total = LaurentElement({}, u_trunc)
    for row, part in zip(inverse, dlog_basis(alg, m_prime, trunc, cache)):
        beta = fq.zero
        for a, x in zip(row, lam):
            beta = fq.add(beta, fq.mul(a, x))
        if beta != fq.zero:
            total = series_add(alg, total, series_scale(alg, (beta,) * alg.n, part))
    return total


def moebius(n: int) -> int:
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


def padic_binomial_mod_p(p: int, exponent: int, k: int, precision: int) -> int:
    """binomial(e, k) mod p for a p-adic integer e given mod p^precision."""
    if k == 0:
        return 1
    numerator = 1
    modulus = p**precision
    for i in range(k):
        numerator = numerator * (exponent - i) % modulus
    v = 0
    unit = 1
    for i in range(1, k + 1):
        m = i
        while m % p == 0:
            m //= p
            v += 1
        unit = unit * m % modulus
    if numerator % p**v:
        raise IntegralityViolation(f"binomial({exponent}, {k}) is not p-integral")
    return (numerator // p**v) * pow(unit, -1, p) % p


def artin_hasse_moebius(p: int, trunc: int) -> Tuple[int, ...]:
    """Mod-p coefficients via prod_{(n,p)=1} (1 - x^n)^{-mu(n)/n}, each
    binomial coefficient from k factors."""
    precision = trunc + 2  # covers v_p(k!) + 1 for every k <= trunc
    modulus = p**precision
    result = [0] * (trunc + 1)
    result[0] = 1
    for n in range(1, trunc + 1):
        if n % p == 0:
            continue
        mu = moebius(n)
        if mu == 0:
            continue
        exponent = -mu * pow(n, -1, modulus) % modulus
        factor = [0] * (trunc + 1)
        for k in range(trunc // n + 1):
            c = padic_binomial_mod_p(p, exponent, k, precision)
            factor[n * k] = c * (-1) ** k % p
        merged = [0] * (trunc + 1)
        for i, a in enumerate(result):
            if a:
                for j in range(0, trunc + 1 - i, n):
                    if factor[j]:
                        merged[i + j] = (merged[i + j] + a * factor[j]) % p
        result = merged
    return tuple(result)


def lcm_degree(params, chi) -> int:
    """lcm(f * order of a, r): the least degree in which the n tensor
    components and the unramified value of degree r both embed."""
    return lcm(params.f * chi.unram.order(params.p), chi.unram.order_field_degree)


def rederive_jvah_lcm(params, profile, chi):
    """``rederive_jvah``'s pairings over F_{p^L}, L = ``lcm_degree``, at
    e_M = p^f - 1.

    a is the generator of F_{p^L} raised to (p^L - 1)/(p^r - 1) times the
    part's dlog, a value of the same order as F_p(a)'s.  The monomials,
    units, truncation and label rule are ``rederive_jvah``'s; the profile
    is taken as already checked.
    """
    p, f = params.p, params.f
    q1 = params.tame_order
    order = chi.unram.order(p)
    fq = field(p, lcm_degree(params, chi))
    r = chi.unram.order_field_degree
    a_val = fq.pow(fq.gen, (fq.order - 1) // (p**r - 1) * chi.unram.dlog)
    if fq.element_order(a_val) != order:
        raise InternalInvariantViolation("embedded unramified value has wrong order")
    alg = TensorAlgebra(fq, f * order)
    spanning = [
        monomial(alg, d * q1 - profile.xi[i], lambda_tuple(alg, f, i, a_val, True))
        for i in range(f)
        for d in profile.intervals[i]
    ]
    if chi.declared_trivial:
        spanning.append(monomial(alg, 0, lambda_tuple(alg, f, 0, a_val, True)))
    trunc = max([0] + [-d for a in spanning for d in a.coeffs])
    f_prime, f_dprime = niveau(params, chi.signature)
    labels = set()
    for m in w_prime(params, chi):
        im = i_m_index(params, chi, m)
        for k in range(f_dprime):
            lam = lambda_tuple(alg, f, (im + k * f_prime) % f, a_val)
            g = epsilon_unit(alg, lam, m, trunc)
            if any(residue_trace_pairing(alg, a, g) != fq.zero for a in spanning):
                labels.add(BasisLabel.alpha(m, k))
    return frozenset(labels)
