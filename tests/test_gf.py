"""Packed F_{p^r} arithmetic against the tuple-schoolbook reference."""

import random
from math import gcd

import pytest

import gf_reference
import serreweights._gf
from serreweights import InternalInvariantViolation, InvalidInput, ResourceLimitExceeded
from serreweights._gf import _MAX_DEGREE, FiniteField, field, prime_factors

# r = 1, one-byte slots up to degree 24, two-byte slots (p = 5, 7, 11,
# 13, 17) and three-byte slots (p = 257).  A product coefficient can reach
# 252 in (7, 7), the most one byte holds here, and 256 in (5, 16), the
# least that needs two.
GRID = [
    (2, 1), (13, 1), (101, 1), (2, 4), (2, 18), (2, 24), (3, 8), (3, 12),
    (5, 6), (5, 16), (7, 7), (7, 8), (11, 4), (13, 2), (17, 3), (257, 2),
]

# Non-leading coefficients (c_0, ..., c_{r-1}) of the pinned moduli; the
# discrete logs reported elsewhere are taken with respect to x modulo these.
PINNED = {
    (2, 18): (1, 1, 1, 0, 0, 1) + (0,) * 12,
    (2, 24): (1, 1, 0, 1, 1) + (0,) * 19,
    (3, 8): (2, 0, 0, 1, 0, 0, 0, 0),
    (3, 12): (2, 2, 2, 1, 2) + (0,) * 7,
}


@pytest.fixture(scope="module", params=GRID, ids=lambda pr: f"p{pr[0]}r{pr[1]}")
def pair(request):
    p, r = request.param
    return field(p, r), gf_reference.FiniteField(p, r)


def _samples(fq, count, nonzero=False):
    rng = random.Random(fq.p * 1000 + fq.r)
    out = []
    while len(out) < count:
        cs = [rng.randrange(fq.p) for _ in range(fq.r)]
        if nonzero and not any(cs):
            continue
        out.append(cs)
    return out


def test_modulus_and_generator_match_reference(pair):
    fq, ref = pair
    assert fq.modulus == ref.modulus
    assert fq.coefficients(fq.gen) == ref.gen
    assert fq.coefficients(fq.zero) == ref.zero
    assert fq.coefficients(fq.one) == ref.one


@pytest.mark.parametrize("pr", sorted(PINNED))
def test_pinned_moduli_are_frozen(pr):
    assert field(*pr).modulus == PINNED[pr]


# At p = 11 and 13 the norm sieve keeps 4 of the p constant terms c_0, those
# with (-1)^r c_0 a generator of F_p^*, and the sign matters for odd r.
@pytest.mark.parametrize(
    "p, r_max", [(2, 12), (3, 8), (5, 5), (7, 4), (11, 3), (13, 3), (257, 2)]
)
def test_modulus_search_matches_reference(p, r_max):
    for r in range(1, r_max + 1):
        assert FiniteField(p, r).modulus == gf_reference.FiniteField(p, r).modulus


def test_ring_operations_match_reference(pair):
    fq, ref = pair
    # top = (p-1)(1 + x + ... + x^{r-1}): top * top fills the middle slot of
    # the product with r(p-1)^2 and top - 0 fills every slot with 2p-1
    # before reduction, the largest values the slot width has to hold.
    top = [fq.p - 1] * fq.r
    samples = _samples(fq, 40) + [top, top, [0] * fq.r]
    co = fq.coefficients
    for a, b in zip(samples, samples[1:] + samples[:1]):
        x, y = fq.element(a), fq.element(b)
        u, v = ref.element(a), ref.element(b)
        assert co(x) == u
        assert co(fq.mul(x, y)) == ref.mul(u, v)
        assert co(fq.add(x, y)) == ref.add(u, v)
        assert co(fq.sub(x, y)) == ref.sub(u, v)
        for c in (0, 1, fq.p - 1, fq.p + 2):
            assert co(fq.scale(c, x)) == ref.mul(ref.element([c]), u)


def test_inverse_matches_reference(pair):
    fq, ref = pair
    for a in _samples(fq, 20, nonzero=True) + [[1], [fq.p - 1]]:
        x = fq.element(a)
        assert fq.coefficients(fq.inv(x)) == ref.inv(ref.element(a))
        assert fq.mul(x, fq.inv(x)) == fq.one
    with pytest.raises(ZeroDivisionError):
        fq.inv(fq.zero)


def test_powers_and_orders_match_reference(pair):
    fq, ref = pair
    rng = random.Random(fq.order)
    co = fq.coefficients
    for a in _samples(fq, 6, nonzero=True):
        x, u = fq.element(a), ref.element(a)
        n = rng.randrange(fq.order)
        assert co(fq.pow(x, n)) == ref.pow(u, n)
        assert co(fq.pow(x, -n)) == ref.pow(u, -n)
        assert co(fq.pow(x, 0)) == ref.one
        for times in (1, 2, fq.r + 1):
            assert co(fq.pow(x, fq.p**times)) == ref.frobenius(u, times)
        assert fq.element_order(x) == ref.element_order(u)
    assert fq.element_order(fq.gen) == fq.order - 1


def test_subfield_generators_match_reference(pair):
    fq, ref = pair
    for s in range(1, fq.r + 1):
        if fq.r % s == 0:
            g = fq.pow(fq.gen, (fq.order - 1) // (fq.p**s - 1))
            assert fq.coefficients(g) == ref.subfield_generator(s)
            assert fq.element_order(g) == fq.p**s - 1


def test_zero_is_the_only_falsy_element(pair):
    fq, _ = pair
    assert not any(fq.zero)
    assert all(any(fq.element(a)) for a in _samples(fq, 20, nonzero=True))


@pytest.mark.parametrize(
    "p, r, width", [(2, 1, 1), (3, 1, 1), (2, 24, 1), (3, 12, 1), (5, 6, 1),
                    (7, 6, 1), (7, 7, 1), (5, 16, 2), (7, 8, 2), (101, 1, 2), (101, 2, 2),
                    (257, 2, 3), (1000003, 1, 5)],
)
def test_slot_width_is_the_least_that_cannot_carry(p, r, width):
    # The largest slot value is r(p-1)^2 (a product) or 2p-1 (a difference),
    # both reached, so no narrower slot is safe.
    fq = field(p, r)
    assert fq.width == width
    largest = max(r * (p - 1) ** 2, 2 * p - 1)
    assert 256**width > largest >= 256 ** (width - 1)
    assert len(fq.one) == r * width


def test_degree_cap_is_a_resource_limit():
    with pytest.raises(ResourceLimitExceeded):
        FiniteField(2, _MAX_DEGREE + 1)
    for family in (InvalidInput, InternalInvariantViolation):
        assert not issubclass(ResourceLimitExceeded, family)
    with pytest.raises(InvalidInput):
        FiniteField(2, 0)
    with pytest.raises(InvalidInput):
        field(3, 2).element([1, 2, 0])


@pytest.mark.parametrize("p, r", [(2, 1), (3, 4), (5, 3), (101, 1), (1000003, 1)])
def test_each_field_factors_its_unit_order_once(monkeypatch, p, r):
    """p^r - 1 is factored when the field is built, and p - 1 is not
    factored on its own; ``element_order`` factors nothing."""
    calls = []

    def counted(n):
        calls.append(n)
        return prime_factors(n)

    monkeypatch.setattr(serreweights._gf, "prime_factors", counted)
    fq = FiniteField(p, r)
    assert calls == [p**r - 1]
    x = fq.pow(fq.gen, 2)
    assert fq.element_order(fq.gen) == p**r - 1
    assert fq.element_order(x) == (p**r - 1) // gcd(p**r - 1, 2)
    assert calls == [p**r - 1]


def test_prime_factors_matches_trial_division():
    """Stopping at a prime cofactor finds what full trial division finds."""
    rng = random.Random(1)
    numbers = list(range(1, 5001)) + [rng.randrange(1, 10**12) for _ in range(16)]
    for n in numbers:
        assert prime_factors(n) == gf_reference.prime_factors(n), n


def test_prime_factors_stops_at_a_prime_cofactor():
    """A safe prime's p - 1 = 2q is factored by one division and a
    primality test of q, not by trial division up to sqrt(q)."""
    p = 10_000_000_000_004_447
    assert prime_factors(p - 1) == (2, (p - 1) // 2)
    assert prime_factors(2**61 - 1) == (2**61 - 1,)


def test_prime_factors_of_an_undecided_cofactor_hits_the_limit():
    """A cofactor at or above the bound where the primality test is exact,
    and passing every base, is a resource limit (trial division used to
    run on without end there)."""
    mersenne = 2**89 - 1  # prime, above 3.3 * 10^24
    for n in (mersenne, 6 * mersenne):
        with pytest.raises(ResourceLimitExceeded):
            prime_factors(n)
