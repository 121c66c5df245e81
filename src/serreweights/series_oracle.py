"""Residue-pairing re-derivation of the label subset, over truncated series.

This module rebuilds the label subset of a profile by a route that shares
nothing with the digit combinatorics.  Each basis label names an
Artin-Hasse unit with coefficients in the tensor ring (residue field of the
auxiliary extension) tensor F_q, and the label is kept exactly when some
spanning monomial a has nonzero residue-trace pairing Tr res(a dg/g)
against that unit g.  No unit series is built: a unit enters only through
its logarithmic derivative dg/g, which has a closed form, and
``residue_trace_pairing`` takes that dlog directly.

The tensor ring is realized componentwise: an element is a tuple of F_q
values indexed by the n embeddings of the auxiliary residue field, ordered
so that the conjugates x_i of one generator satisfy x_i^p = x_{i-1 mod n}.
The dlog of the unit of a tuple lam at exponent m' follows in three steps.

1. The Artin-Hasse exponential is E(v) = exp(sum_{j >= 0} v^{p^j} / p^j),
   so log E = sum_j v^{p^j} / p^j and v E'(v)/E(v) = sum_j v^{p^j}: the
   dlog of E is 1 at the powers of p and 0 at every other degree.
2. For a residue-field tuple b, v -> b v is a ring map that commutes with
   v d/dv, so E(b v) has dlog sum_j b^{p^j} v^{p^j}, and at v = u^{m'},
   where u d/du = m' v d/dv, the dlog of E(b u^{m'}) is
   m' sum_j b^{p^j} u^{p^j m'}.  Componentwise b^{p^j} is b rotated j
   places, because component i of b is a polynomial in x_i and
   x_i^{p^j} = x_{i-j}.
3. An arbitrary tuple is not a residue-field tuple, and its componentwise
   p-th power is not a rotation.  It is a combination lam = sum_t beta_t b_t
   of the residue-field tuples b_t = (x_i^t)_i (a Vandermonde system in the
   distinct x_i), with beta_t in F_q, and its unit is the product of the
   factors E(b_t u^{m'}) raised to the exterior scalars beta_t.  Its dlog
   is sum_t beta_t dlog E(b_t u^{m'}); at u^{p^j m'}, component i, that is
   m' sum_t beta_t x_{i-j}^t = m' lam_{i-j}.  The decomposition and the
   recombination cancel.

So the unit's dlog is (m' mod p) times lam rotated j places at each degree
p^j m', and zero elsewhere.  In the variable v it is known up to
trunc // m', so in u up to the last degree before the next multiple of m'.
A unit costs O(n log_p T) for truncation T.  ``rederive_jvah`` takes T to
be the largest -degree among its spanning monomials, the deepest
coefficient a residue reads, so every pairing it makes is exact and its
labels do not depend on T.  ``dlog_truncated`` divides
an explicit series for its dlog; the tests use it, with the Artin-Hasse
coefficients and the honest unit series of ``tests/oracle_reference.py``,
to check the closed form against the definition.

The x_i need only exist: every value computed is an integer combination of
powers of a, chi's value on Frobenius, so F_q is F_p(a).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ._gf import Element, FiniteField, field
from .errors import (
    InternalInvariantViolation,
    InvalidInput,
    NonUnitConstantTerm,
    ResourceLimitExceeded,
    TruncationInsufficient,
)
from .serre_basis import (
    BasisLabel,
    _route_e_m,
    i_m_index,
    w_prime,
)
from .tame_chars import CharacterData, FieldParams, niveau
from .weight_lattice import WeightProfile

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
        """Sum of the components, skipping the zeros (most of a product's)."""
        zero = total = self.fq.zero
        for x in a:
            if x != zero:
                total = self.fq.add(total, x)
        return total


class LaurentElement:
    """Finitely many known coefficients; degrees above ``trunc`` are unknown.

    ``trunc`` = None means the element is exact (a Laurent polynomial).
    Stored coefficients are nonzero; absent degrees at or below the
    truncation bound are genuinely zero.  Equal when both fields are.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(
        self, coeffs: Optional[Dict[int, TensorScalar]] = None, trunc: Optional[int] = None
    ) -> None:
        self.coeffs = {} if coeffs is None else coeffs
        self.trunc = trunc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return (self.coeffs, self.trunc) == (other.coeffs, other.trunc)

    def __repr__(self) -> str:
        return f"LaurentElement(coeffs={self.coeffs!r}, trunc={self.trunc!r})"


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


def epsilon_unit(
    alg: TensorAlgebra, lam: TensorScalar, m_prime: int, trunc: int
) -> LaurentElement:
    """The dlog of the Artin-Hasse unit of an arbitrary tuple at exponent m'.

    At u^{p^j m'} with p^j <= trunc // m', component i is
    (m' mod p) lam_{(i - j) mod n}; every other degree is zero (see the
    module docstring).
    """
    if m_prime < 1:
        raise InvalidInput(f"the u-exponent must be >= 1, got {m_prime}")
    fq = alg.fq
    v_trunc = trunc // m_prime
    c = m_prime % fq.p
    coeffs: Dict[int, TensorScalar] = {}
    if c and not alg.is_zero(lam):
        if c != 1:
            lam = tuple(fq.scale(c, x) for x in lam)
        power = 1
        while power <= v_trunc:
            coeffs[power * m_prime] = lam
            lam = lam[-1:] + lam[:-1]  # component i now reads component i - 1
            power *= fq.p
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


# Bound on n = f * (order of a); time and memory are linear in n: n = 65 535
# at p = 2, e = f = 1 takes about 1 s and 40 MB (2-core host, Python 3.11).
_MAX_COMPONENTS = 1 << 16


def rederive_jvah(
    params: FieldParams,
    profile: WeightProfile,
    chi: CharacterData,
    e_m: Optional[int] = None,
) -> FrozenSet[BasisLabel]:
    """Label subset by explicit residue pairings; must match j_v_ah.

    For each (i, d) a spanning monomial at degree d e_M - xi'_i; for each
    basis label the dlog of its unit at exponent m', known up to the
    largest -degree of a spanning monomial, so every pairing is exact; the
    label survives iff some pairing is nonzero.  The coefficients lie in
    F_p(a), of degree ``order_field_degree``, with a the generator raised to
    the part's dlog, as the record defines it.
    """
    e_m = _route_e_m(params, chi, e_m, profile)
    p, f = params.p, params.f
    q1 = params.tame_order
    scale = q1 // e_m
    order = chi.unram.order(p)
    n_components = f * order
    if n_components > _MAX_COMPONENTS:
        raise ResourceLimitExceeded(
            f"the residue pairing needs n = f * order = {f} * {order} = "
            f"{n_components} components, above the bound n <= {_MAX_COMPONENTS}"
        )
    fq = field(p, chi.unram.order_field_degree)
    a_val = fq.pow(fq.gen, chi.unram.dlog)
    if fq.element_order(a_val) != order:
        raise InternalInvariantViolation("unramified value has the wrong order")
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
    trunc = max([0] + [-d for a in spanning for d in a.coeffs])
    # Every residue index occurs as some t_alpha, so build each tuple once.
    eigen = [lambda_tuple(alg, f, t, a_val) for t in range(f)]
    labels = set()
    for m in w_prime(params, chi):
        m_prime = m // scale
        im = i_m_index(params, chi, m)
        for k in range(f_dprime):
            t_alpha = (im + k * f_prime) % f
            g = epsilon_unit(alg, eigen[t_alpha], m_prime, trunc)
            if any(residue_trace_pairing(alg, a, g) != fq.zero for a in spanning):
                labels.add(BasisLabel.alpha(m, k))
    return frozenset(labels)
