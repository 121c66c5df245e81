"""Signatures, exponent classes, and tame character arithmetic."""

import random

import pytest
from hypothesis import given, strategies as st

from serreweights import (
    FieldParams,
    InvalidInput,
    InvariantError,
    UnramifiedPart,
    canonical_signature,
    char_quotient,
    character,
    cyclotomic_inertia_signature,
    exponent_class,
    is_unramified,
    n_values,
    niveau,
    signature_class,
    validate_signature,
)
from serreweights import ResourceLimitExceeded, tame_chars
from serreweights.tame_chars import TameSignature, is_prime

import oracles
import scan_reference


P3F2 = FieldParams(3, 1, 2)
P3F1 = FieldParams(3, 1, 1)
P2F1 = FieldParams(2, 1, 1)


def test_is_prime_matches_trial_division():
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if scan_reference.is_prime_trial(n)
    ]


# Strong pseudoprimes: the least to base 2, to bases 2-3, 2-5 and 2-7, and
# one strong to every base 2-23, each with its factorization.
STRONG_PSEUDOPRIMES = [
    (2047, (23, 89), 1),
    (1373653, (829, 1657), 2),
    (25326001, (2251, 11251), 3),
    (3215031751, (151, 751, 28351), 4),
    (3825123056546413051, (149491, 747451, 34233211), 9),
]


def _strong_probable_prime(n, b):
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(b, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@pytest.mark.parametrize("n, factors, strong_bases", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n, factors, strong_bases):
    product = 1
    for q in factors:
        assert scan_reference.is_prime_trial(q)
        product *= q
    assert product == n
    # the first strong_bases prime bases are fooled, so only a later one
    # can reject n
    assert all(
        _strong_probable_prime(n, b) for b in tame_chars._SPRP_BASES[:strong_bases]
    )
    assert not is_prime(n)
    with pytest.raises(InvalidInput, match="not prime"):
        FieldParams(n, 1, 1)


def test_is_prime_is_undecided_at_the_sorenson_webster_bound():
    bound = tame_chars._SPRP_EXACT_BELOW
    mersenne = 2**89 - 1  # prime, and above the bound
    assert mersenne >= bound
    with pytest.raises(ResourceLimitExceeded, match="strong probable-prime"):
        is_prime(mersenne)
    with pytest.raises(ResourceLimitExceeded):
        FieldParams(mersenne, 1, 1)
    # composites above the bound are still rejected
    assert not is_prime(2**89 + 1)  # divisible by 3
    assert not is_prime(mersenne * 3_215_031_751)
    # below the bound the answer stands: 10^18 + 3 is prime, 10^18 + 1 is not
    assert is_prime(10**18 + 3)
    assert not is_prime(10**18 + 1)


def test_field_params_validation():
    with pytest.raises(InvalidInput):
        FieldParams(4, 1, 1)
    with pytest.raises(InvalidInput):
        FieldParams(3, 0, 1)
    with pytest.raises(InvalidInput):
        FieldParams(3, 1, 0)
    params = FieldParams(3, 2, 2)
    assert params.q == 9
    assert params.tame_order == 8
    assert params.repunit == 4


def test_canonical_signature_examples():
    assert canonical_signature(P3F2, (2, 1)).a == (2, 1)
    assert canonical_signature(P3F2, (0, 0)).a == (2, 2)
    assert canonical_signature(P3F2, (3, 0)).a == (2, 3)


def test_n_values_examples():
    assert n_values(P3F2, canonical_signature(P3F2, (1, 2))) == (7, 5)
    assert n_values(P3F2, canonical_signature(P3F2, (2, 2))) == (8, 8)
    assert n_values(P3F1, canonical_signature(P3F1, (1,))) == (1,)


def test_niveau_examples():
    assert niveau(P3F2, canonical_signature(P3F2, (1, 2))) == (2, 1)
    assert niveau(P3F2, canonical_signature(P3F2, (2, 2))) == (1, 2)
    p3f4 = FieldParams(3, 1, 4)
    assert niveau(p3f4, canonical_signature(p3f4, (1, 2, 1, 2))) == (2, 2)


def test_cyclotomic_inertia_signature_examples():
    assert cyclotomic_inertia_signature(P3F2).a == (1, 1)
    assert cyclotomic_inertia_signature(FieldParams(3, 2, 1)).a == (2,)
    assert cyclotomic_inertia_signature(P2F1).a == (1,)


def test_validate_signature_errors():
    with pytest.raises(InvariantError):
        validate_signature(P3F2, TameSignature((0, 1)))
    with pytest.raises(InvariantError):
        validate_signature(P3F2, TameSignature((3, 3)))
    with pytest.raises(InvariantError):
        validate_signature(P3F2, TameSignature((1,)))
    with pytest.raises(InvariantError):
        validate_signature(P3F2, TameSignature((1, 4)))


def test_a_hand_built_invalid_signature_is_rejected_on_a_cache_miss():
    """The record cache is keyed by plain values, so an invalid digit tuple
    is a miss; the miss validates it, and a miss that raises caches nothing,
    so a second call raises again."""
    for a in ((0, 1), (3, 3), (1,), (1, 4)):
        for _ in range(2):
            with pytest.raises(InvariantError):
                n_values(P3F2, TameSignature(a))


def test_exponent_class_length_mismatch():
    with pytest.raises(InvalidInput):
        exponent_class(P3F2, (1, 2, 3))


def test_unramified_part_validation():
    with pytest.raises(InvariantError):
        character(P3F1, (1,), unram=UnramifiedPart(1, 5))
    with pytest.raises(InvariantError):
        character(P3F1, (1,), unram=UnramifiedPart(0, 0))
    mu = UnramifiedPart(2, 2)
    assert mu.order(3) == 4
    assert not mu.is_trivial(3)
    assert UnramifiedPart(1, 0).is_trivial(3)
    assert UnramifiedPart(1, 0).order(3) == 1


def test_cyclotomic_declaration_consistency():
    # sig (1,1) is the inertial cyclotomic signature at p=3, e=1, f=2
    character(P3F2, (1, 1), cyclotomic=True)
    with pytest.raises(
        InvariantError,
        match=r"^cyclotomic declaration inconsistent with signature \(1, 2\)$",
    ):
        character(P3F2, (1, 2), cyclotomic=True)


def test_p2_flag_forcing():
    chi = character(P2F1, (0,))
    assert chi.declared_trivial
    assert chi.declared_cyclotomic
    with pytest.raises(
        InvariantError, match=r"^mod-2 cyclotomic declarations need trivial unram$"
    ):
        character(P2F1, (0,), unram=UnramifiedPart(2, 1), cyclotomic=True)


def test_character_memo_raises_on_every_call():
    """The memo caches no raise: a malformed unramified part fails again,
    with the same message, and leaves nothing in the memo."""
    messages = []
    for _ in range(2):
        size = tame_chars._character.cache_info().currsize
        with pytest.raises(InvariantError) as caught:
            character(P3F1, (1,), unram=UnramifiedPart(0, 0))
        messages.append(str(caught.value))
        assert tame_chars._character.cache_info().currsize == size
    assert messages[0] == messages[1]


def test_character_memo_keys_a_list_as_its_tuple():
    """Exponents given as a list share the key of the same tuple."""
    before = tame_chars._character.cache_info()
    assert character(P3F2, [5, 0]) is character(P3F2, (5, 0))
    after = tame_chars._character.cache_info()
    assert after.hits >= before.hits + 1


def test_char_quotient_by_keyword_hits_the_positional_key():
    chi1, chi2 = character(P3F2, (5, 0)), character(P3F2, (1, 0))
    first = char_quotient(P3F2, chi1, chi2, None)
    hits = tame_chars._char_quotient.cache_info().hits
    assert char_quotient(P3F2, chi1, chi2, declare_cyclotomic=None) is first
    assert tame_chars._char_quotient.cache_info().hits == hits + 1


def test_is_unramified():
    assert is_unramified(P3F2, character(P3F2, (0, 0)))
    assert not is_unramified(P3F2, character(P3F2, (1, 0)))


def test_char_quotient_examples():
    quot = char_quotient(P3F2, character(P3F2, (2, 1)), character(P3F2, (0, 0)))
    assert quot.signature.a == (2, 1)
    assert quot.unram.is_trivial(3)
    chi = character(P3F2, (1, 2))
    same = char_quotient(P3F2, chi, chi)
    assert same.declared_trivial
    assert same.signature.a == (2, 2)
    quot3 = char_quotient(P3F2, character(P3F2, (0, 1)), character(P3F2, (1, 0)))
    assert quot3.signature.a == (1, 3)


def test_char_quotient_by_trivial_is_identity():
    chi = character(P3F2, (2, 1), unram=UnramifiedPart(2, 3))
    quot = char_quotient(P3F2, chi, character(P3F2, (0, 0)))
    assert quot.signature.a == chi.signature.a
    assert quot.unram == chi.unram


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_canonical_signature_matches_search(p, f):
    params = FieldParams(p, 1, f)
    for cls in range(params.tame_order):
        exps = (cls,) + (0,) * (f - 1)
        sig = canonical_signature(params, exps)
        assert sig.a == oracles.canonical_signature_search(p, f, exps)
        assert signature_class(params, sig) == cls % params.tame_order


@pytest.mark.parametrize("p,f", [(2, 3), (3, 2), (5, 2)])
def test_n_values_match_direct_evaluation(p, f):
    params = FieldParams(p, 1, f)
    for a in oracles.signature_space(p, f):
        sig = canonical_signature(params, a)
        got = n_values(params, sig)
        want = tuple(oracles.n_value(p, f, sig.a, i) for i in range(f))
        assert got == want
        assert all(params.repunit <= n < p * params.repunit for n in got)


@pytest.mark.parametrize("p,f", [(p, f) for p in (2, 3, 5) for f in (1, 2, 3, 4)])
def test_twisted_sums_match_direct_evaluation_on_signatures(p, f):
    for a in oracles.signature_space(p, f):
        want = [oracles.n_value(p, f, a, i) for i in range(f)]
        assert tame_chars._twisted_sums(p, f, a) == want


def test_twisted_sums_match_direct_evaluation_on_any_integers():
    """The recurrence n_{i+1} = p n_i - a_{i+1} (p^f - 1) needs no digit
    range: negative entries, as in s - t, and f = 64 give the plain sum."""
    rng = random.Random(5)
    cases = [
        (p, f, tuple(rng.randint(-40, 40) for _ in range(f)))
        for p in (2, 3, 5, 7, 13)
        for f in (1, 2, 3, 5, 8)
        for _ in range(20)
    ]
    cases += [(2, 64, tuple(rng.randint(1, 2) for _ in range(64))) for _ in range(5)]
    cases += [(3, 64, tuple(rng.randint(-5, 5) for _ in range(64)))]
    for p, f, a in cases:
        want = [oracles.n_value(p, f, a, i) for i in range(f)]
        assert tame_chars._twisted_sums(p, f, a) == want
        assert tame_chars._twisted_sums(p, f, list(a)) == want


def test_n_values_distinct_at_full_niveau():
    params = FieldParams(3, 1, 3)
    for a in oracles.signature_space(3, 3):
        sig = TameSignature(a)
        f_prime, _ = niveau(params, sig)
        if f_prime == 3:
            assert len(set(n_values(params, sig))) == 3


@given(
    st.integers(min_value=0, max_value=1),
    st.lists(st.integers(min_value=-20, max_value=40), min_size=1, max_size=3),
)
def test_canonical_signature_round_trip(pick, exps):
    p = (3, 5)[pick]
    params = FieldParams(p, 1, len(exps))
    sig = canonical_signature(params, tuple(exps))
    assert all(1 <= x <= p for x in sig.a)
    assert any(x < p for x in sig.a)
    assert signature_class(params, sig) == exponent_class(params, tuple(exps))
    again = canonical_signature(params, sig.a)
    assert again.a == sig.a


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=4),
    st.integers(min_value=1, max_value=3),
)
def test_canonical_signature_rotation_equivariance(exps, k):
    f = len(exps)
    params = FieldParams(3, 1, f)
    k %= f
    rotated = tuple(exps[k:] + exps[:k])
    assert (
        canonical_signature(params, rotated).a
        == scan_reference.rotate(canonical_signature(params, tuple(exps)), k).a
    )


@given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=23))
def test_exponent_class_is_additive(c1, c2):
    params = FieldParams(5, 1, 2)
    combined = exponent_class(params, (c1 + c2, 0))
    split = (
        exponent_class(params, (c1, 0)) + exponent_class(params, (c2, 0))
    ) % params.tame_order
    assert combined == split
