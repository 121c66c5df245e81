"""Weights, twisting, shift sets, and the (t, s, I, xi) profile."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from serreweights import (
    ChiMismatch,
    FieldParams,
    InvalidInput,
    InvariantError,
    NoValidShift,
    SerreWeight,
    UnramifiedPart,
    char_quotient,
    character,
    exponent_class,
    minimal_shift_set,
    n_values,
    reduced_exponents,
    shift_vector,
    signature_class,
    ts_profile,
    twist_normalize,
    validate_weight,
    weight_from_r,
)

from serreweights import weight_lattice

import oracles
from scan_reference import candidate_set


P3F2 = FieldParams(3, 1, 2)
P3F1E1 = FieldParams(3, 1, 1)
P3F1E2 = FieldParams(3, 2, 1)


def test_validate_weight_errors():
    with pytest.raises(InvariantError):
        validate_weight(P3F2, SerreWeight((1,), (0,)))
    with pytest.raises(InvariantError):
        validate_weight(P3F2, SerreWeight((1, 1), (3, 0)))
    with pytest.raises(InvariantError):
        validate_weight(P3F2, SerreWeight((4, 1), (0, 0)))
    # theta = p-1 everywhere is excluded
    with pytest.raises(InvariantError):
        validate_weight(P3F2, SerreWeight((2, 2), (2, 2)))
    validate_weight(P3F2, SerreWeight((2, 1), (1, 1)))


def test_weight_from_r():
    w = weight_from_r(P3F2, (2, 1))
    assert w.eta == (1, 0)
    assert w.theta == (0, 0)
    with pytest.raises(InvalidInput):
        weight_from_r(P3F2, (0, 1))
    with pytest.raises(InvalidInput):
        weight_from_r(P3F2, (4, 1))


def test_twist_normalize_examples():
    chi = character(P3F2, (1, 1))
    weight, _, chi2p = twist_normalize(P3F2, SerreWeight((2, 1), (1, 1)), chi, chi)
    assert weight.eta == (1, 0)
    assert weight.theta == (0, 0)
    assert chi2p.signature.a == (2, 2)

    chi0 = character(P3F1E1, (0,))
    weight1, chi1p, _ = twist_normalize(
        P3F1E1, SerreWeight((2,), (1,)), chi0, chi0
    )
    assert weight1.eta == (1,)
    assert weight1.theta == (0,)
    assert chi1p.signature.a == (1,)


def test_twist_normalize_is_idempotent_on_theta_zero():
    chi1 = character(P3F2, (3, 1))
    chi2 = character(P3F2, (0, 2))
    w = weight_from_r(P3F2, (2, 3))
    out = twist_normalize(P3F2, w, chi1, chi2)
    assert out == twist_normalize(P3F2, out[0], out[1], out[2])


def test_reduced_exponents_digit_identity():
    for cls in range(8):
        m = reduced_exponents(P3F2, character(P3F2, (cls, 0)))
        assert all(0 <= x <= 2 for x in m)
        assert exponent_class(P3F2, m) == cls
    assert reduced_exponents(P3F2, character(P3F2, (0, 0))) == (0, 0)


def test_shift_vector():
    assert shift_vector(P3F2, 0) == (-1, 3)
    assert shift_vector(P3F2, 1) == (3, -1)
    assert shift_vector(P3F1E1, 0) == (2,)
    with pytest.raises(InvalidInput):
        shift_vector(P3F2, 2)


def test_shift_vector_preserves_class():
    for i in range(2):
        assert exponent_class(P3F2, shift_vector(P3F2, i)) == 0


def test_candidate_set_examples():
    assert candidate_set(P3F1E2, (2,), (1,)) == ((1,), (3,))
    assert candidate_set(P3F2, (2, 1), (0, 0)) == ((0, 0),)
    assert candidate_set(P3F1E1, (3,), (1,)) == ((3,),)


def test_candidate_set_rejects_bad_input():
    with pytest.raises(InvalidInput):
        candidate_set(P3F2, (2, 1), (3, 0))
    with pytest.raises(InvalidInput):
        candidate_set(P3F2, (2, 1), (2, 2))
    with pytest.raises(InvalidInput):
        candidate_set(P3F2, (0, 1), (1, 0))


def test_minimal_shift_set_examples():
    assert minimal_shift_set(P3F1E2, (2,), (1,)) == frozenset()
    assert minimal_shift_set(P3F2, (2, 1), (0, 0)) == frozenset()
    assert minimal_shift_set(P3F1E1, (3,), (1,)) == frozenset({0})


def test_minimal_shift_set_no_valid_shift():
    with pytest.raises(NoValidShift):
        minimal_shift_set(P3F1E1, (2,), (1,))


FIXTURE_F1 = dict(t=(1,), s=(2,), intervals=((1,),), xi=(5,), j_min=frozenset())
FIXTURE_F2 = dict(
    t=(0, 0), s=(2, 1), intervals=((0,), (0,)), xi=(21, 15), j_min=frozenset()
)
FIXTURE_F3 = dict(t=(3,), s=(0,), intervals=((),), xi=(-3,), j_min=frozenset({0}))


def test_ts_profile_fixture_f1():
    prof = ts_profile(
        P3F1E2, (2,), character(P3F1E2, (2,)), character(P3F1E2, (1,))
    )
    for key, want in FIXTURE_F1.items():
        assert getattr(prof, key) == want
    assert prof.interval_total() == 1


def test_ts_profile_fixture_f2():
    prof = ts_profile(
        P3F2, (2, 1), character(P3F2, (5, 0)), character(P3F2, (0, 0))
    )
    for key, want in FIXTURE_F2.items():
        assert getattr(prof, key) == want
    assert prof.interval_total() == 2


def test_ts_profile_fixture_f3():
    prof = ts_profile(
        P3F1E1, (3,), character(P3F1E1, (2,)), character(P3F1E1, (1,))
    )
    for key, want in FIXTURE_F3.items():
        assert getattr(prof, key) == want
    assert prof.interval_total() == 0


def test_ts_profile_memo_is_keyed_by_the_signatures():
    """chi1's unramified part does not enter the key: a chi1 that differs
    only there is served the cached profile, and another signature misses."""
    memo = weight_lattice._ts_profile
    memo.cache_clear()
    chi2 = character(P3F1E1, (1,))
    profile = ts_profile(P3F1E1, (3,), character(P3F1E1, (2,)), chi2)
    twin = character(P3F1E1, (2,), unram=UnramifiedPart(2, 2))
    assert ts_profile(P3F1E1, (3,), twin, chi2) is profile
    assert (memo.cache_info().hits, memo.cache_info().misses) == (1, 1)
    other = ts_profile(P3F1E1, (3,), character(P3F1E1, (1,)), character(P3F1E1, (0,)))
    assert other != profile
    assert (memo.cache_info().hits, memo.cache_info().misses) == (1, 2)


def test_ts_profile_chi_mismatch():
    with pytest.raises(ChiMismatch):
        ts_profile(P3F1E1, (2,), character(P3F1E1, (1,)), character(P3F1E1, (0,)))


@pytest.mark.parametrize("r, chi1_exps, chi2_exps, error", [
    ((2,), (1,), (1,), NoValidShift),  # m = (1,) and m + v_0 miss [0,0] u [2,2]
    ((2,), (1,), (0,), ChiMismatch),
], ids=["no-shift", "chi-mismatch"])
def test_ts_profile_memo_raises_on_every_call(r, chi1_exps, chi2_exps, error):
    """The memo caches no raise: the same call raises again, same message."""
    chi1, chi2 = character(P3F1E1, chi1_exps), character(P3F1E1, chi2_exps)
    messages = []
    for _ in range(2):
        size = weight_lattice._ts_profile.cache_info().currsize
        with pytest.raises(error) as caught:
            ts_profile(P3F1E1, r, chi1, chi2)
        messages.append(str(caught.value))
        assert weight_lattice._ts_profile.cache_info().currsize == size
    assert messages[0] == messages[1]


def _grid_instances(p, e, f):
    """Consistent (r, chi1, chi2) triples: chi1's class is forced by the
    profile, so derive it from any valid shift of chi2's reduced exponents."""
    params = FieldParams(p, e, f)
    q1 = params.tame_order
    for cls in range(q1):
        chi2 = character(params, (cls,) + (0,) * (f - 1))
        m = reduced_exponents(params, chi2)
        for r in product(range(1, p + 1), repeat=f):
            subsets = oracles.valid_shift_subsets(p, e, f, r, m)
            if not subsets:
                continue
            t = list(m)
            for i in sorted(subsets[0]):
                v = oracles.shift_vec(p, f, i)
                t = [a + b for a, b in zip(t, v)]
            s = [ri + e - 1 - ti for ri, ti in zip(r, t)]
            diff = [si - ti for si, ti in zip(s, t)]
            chi1_cls = (cls + oracles.exponent_class(p, f, diff)) % q1
            chi1 = character(params, (chi1_cls,) + (0,) * (f - 1))
            yield params, r, chi1, chi2, m


@pytest.mark.parametrize("p,e,f", [(2, 1, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1)])
def test_ts_profile_identities_on_grid(p, e, f):
    for params, r, chi1, chi2, m in _grid_instances(p, e, f):
        prof = ts_profile(params, r, chi1, chi2)
        q1 = params.tame_order
        # reflection s_i + t_i = r_i + e - 1 and membership
        for i in range(f):
            assert prof.s[i] + prof.t[i] == r[i] + e - 1
            assert prof.t[i] in oracles.allowed_pool(e, r[i])
            assert prof.s[i] in oracles.allowed_pool(e, r[i])
            assert set(prof.intervals[i]) == oracles.interval_set(
                r[i], prof.t[i], prof.s[i]
            )
        # the minimal shift set is least by containment
        subsets = oracles.valid_shift_subsets(p, e, f, r, m)
        assert prof.j_min in subsets
        assert all(prof.j_min <= other for other in subsets)
        # xi re-derivation and congruence with the quotient class
        assert prof.xi == oracles.xi_direct(p, f, prof.t, prof.s)
        quot = char_quotient(params, chi1, chi2)
        nvals = n_values(params, quot.signature)
        for i in range(f):
            assert (prof.xi[i] - nvals[i]) % q1 == 0


def test_e1_profiles_are_two_valued():
    for params, r, chi1, chi2, _ in _grid_instances(3, 1, 2):
        prof = ts_profile(params, r, chi1, chi2)
        for i in range(2):
            assert prof.t[i] in (0, r[i])
            assert prof.intervals[i] in ((), (0,), (prof.t[i],))


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_twist_class_arithmetic(c1, c2):
    chi1 = character(P3F2, (c1, 0))
    chi2 = character(P3F2, (c2, 0))
    weight = SerreWeight((2, 1), (1, 0))
    _, n1, n2 = twist_normalize(P3F2, weight, chi1, chi2)
    twist_cls = exponent_class(P3F2, (1, 0))
    q1 = P3F2.tame_order
    assert signature_class(P3F2, n1.signature) == (
        signature_class(P3F2, chi1.signature) - twist_cls
    ) % q1
    assert signature_class(P3F2, n2.signature) == (
        signature_class(P3F2, chi2.signature) - twist_cls
    ) % q1
