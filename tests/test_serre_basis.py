"""Basis labels, the window set W', and the label subset J_V^AH."""

from itertools import permutations, product

import pytest

from serreweights import (
    BasisLabel,
    FieldParams,
    InternalInvariantViolation,
    InvalidEM,
    InvalidInput,
    NoMatchingIndex,
    NoValidShift,
    UnramifiedPart,
    basis_labels,
    char_quotient,
    character,
    h1_dimension,
    i_m_index,
    j_v_ah,
    j_v_ah_bruteforce,
    l_v_ah,
    n_values,
    niveau,
    reduced_exponents,
    ts_profile,
    validate_e_m,
    w_prime,
    weight_from_r,
)

import oracles
import serreweights.io_cli as io_cli
from serreweights import serre_basis
from serreweights.tame_chars import _Derived


P3F2 = FieldParams(3, 1, 2)
P3F1E1 = FieldParams(3, 1, 1)
P3F1E2 = FieldParams(3, 2, 1)
P2F1 = FieldParams(2, 1, 1)


def test_basis_label_interface():
    a = BasisLabel.alpha(5, 0)
    assert a.is_alpha and a.m == 5 and a.k == 0
    assert str(a) == "alpha(5,0)"
    u = BasisLabel.unramified()
    t = BasisLabel.tres_ramifiee()
    assert not u.is_alpha and not t.is_alpha
    assert str(u) == "unramified"
    assert str(t) == "tres_ramifiee"
    assert sorted([t, u, a], key=BasisLabel.sort_key) == [a, u, t]


def test_w_prime_examples():
    assert w_prime(P3F2, character(P3F2, (1, 2))) == (5, 7)
    assert w_prime(P3F1E2, character(P3F1E2, (1,))) == (1, 5)
    assert w_prime(P3F1E1, character(P3F1E1, (0,))) == (2,)


@pytest.mark.parametrize("p,e,f", [(2, 2, 2), (3, 1, 2), (3, 2, 1), (5, 1, 1)])
def test_w_prime_matches_direct_enumeration(p, e, f):
    params = FieldParams(p, e, f)
    for a in oracles.signature_space(p, f):
        chi = character(params, a)
        got = w_prime(params, chi)
        assert list(got) == oracles.w_prime_direct(p, e, f, chi.signature.a)
        f_prime, _ = niveau(params, chi.signature)
        assert len(got) == e * f_prime


def test_basis_labels_examples():
    triv = basis_labels(P3F1E1, character(P3F1E1, (0,)))
    assert [str(l) for l in triv] == ["alpha(2,0)", "unramified"]
    cyc = basis_labels(P3F1E1, character(P3F1E1, (1,), cyclotomic=True))
    assert [str(l) for l in cyc] == ["alpha(1,0)", "tres_ramifiee"]
    generic = basis_labels(P3F2, character(P3F2, (1, 2)))
    assert [str(l) for l in generic] == ["alpha(5,0)", "alpha(7,0)"]


@pytest.mark.parametrize("p,e,f", [(2, 2, 2), (3, 1, 2), (3, 2, 1)])
def test_basis_labels_length_is_h1(p, e, f):
    params = FieldParams(p, e, f)
    for a in oracles.signature_space(p, f):
        chi = character(params, a)
        assert len(basis_labels(params, chi)) == h1_dimension(params, chi)


def test_i_m_index_examples():
    chi = character(P3F2, (1, 2))
    assert n_values(P3F2, chi.signature) == (7, 5)
    assert i_m_index(P3F2, chi, 7) == 0
    assert i_m_index(P3F2, chi, 5) == 1
    assert i_m_index(P3F1E2, character(P3F1E2, (1,)), 5) == 0
    with pytest.raises(NoMatchingIndex):
        i_m_index(P3F1E1, character(P3F1E1, (1,)), 2)


def test_validate_e_m():
    chi = character(P3F2, (2, 1))
    with pytest.raises(InvalidEM):
        validate_e_m(P3F2, chi, 3)
    # n = (5, 7): 8/4 = 2 divides neither
    with pytest.raises(InvalidEM):
        validate_e_m(P3F2, chi, 4)
    validate_e_m(P3F2, chi, 8)
    triv = character(P3F2, (0, 0))
    for e_m in (1, 2, 4, 8):
        validate_e_m(P3F2, triv, e_m)


def _quotient_and_profile(params, r, chi1, chi2):
    prof = ts_profile(params, r, chi1, chi2)
    return char_quotient(params, chi1, chi2), prof


def test_j_v_ah_fixture_f1():
    quot, prof = _quotient_and_profile(
        P3F1E2, (2,), character(P3F1E2, (2,)), character(P3F1E2, (1,))
    )
    assert j_v_ah(P3F1E2, prof, quot, 2) == frozenset({BasisLabel.alpha(1, 0)})
    assert j_v_ah(P3F1E2, prof, quot) == frozenset({BasisLabel.alpha(1, 0)})


def test_j_v_ah_fixture_f2():
    quot, prof = _quotient_and_profile(
        P3F2, (2, 1), character(P3F2, (5, 0)), character(P3F2, (0, 0))
    )
    want = frozenset({BasisLabel.alpha(5, 0), BasisLabel.alpha(7, 0)})
    assert j_v_ah(P3F2, prof, quot, 8) == want


def test_j_v_ah_fixture_f3_empty_intervals():
    quot, prof = _quotient_and_profile(
        P3F1E1, (3,), character(P3F1E1, (2,)), character(P3F1E1, (1,))
    )
    assert prof.intervals == ((),)
    assert j_v_ah(P3F1E1, prof, quot, 2) == frozenset()


def test_j_v_ah_rejects_wrong_quotient():
    _, prof = _quotient_and_profile(
        P3F1E2, (2,), character(P3F1E2, (2,)), character(P3F1E2, (1,))
    )
    with pytest.raises(InvalidInput):
        j_v_ah(P3F1E2, prof, character(P3F1E2, (0,)), 2)


def _valid_e_ms(params, quot):
    q1 = params.tame_order
    nvals = n_values(params, quot.signature)
    return [
        d
        for d in range(1, q1 + 1)
        if q1 % d == 0 and all(n % (q1 // d) == 0 for n in nvals)
    ]


def _instances(p, e, f):
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
            yield params, r, chi1, chi2


@pytest.mark.parametrize("p,e,f", [(2, 1, 2), (2, 2, 1), (3, 1, 2), (3, 2, 1)])
def test_j_v_ah_agrees_with_bruteforce_and_witness_search(p, e, f):
    for params, r, chi1, chi2 in _instances(p, e, f):
        quot, prof = _quotient_and_profile(params, r, chi1, chi2)
        for e_m in _valid_e_ms(params, quot):
            got = j_v_ah(params, prof, quot, e_m)
            assert got == j_v_ah_bruteforce(params, prof, quot, e_m)
            want = oracles.jvah_witness_search(
                p, e, f, quot.signature.a, prof.xi, prof.intervals, e_m
            )
            assert {(l.m, l.k) for l in got} == want
            assert len(got) <= prof.interval_total()
            assert got <= set(basis_labels(params, quot))


def test_j_v_ah_independent_of_e_m():
    params = P3F2
    chi = character(params, (0, 0))
    prof = ts_profile(params, (2, 2), chi, chi)
    quot = char_quotient(params, chi, chi)
    results = {
        e_m: j_v_ah(params, prof, quot, e_m) for e_m in _valid_e_ms(params, quot)
    }
    assert len(results) == 4
    assert len(set(results.values())) == 1


def test_l_v_ah_worked_example():
    res = l_v_ah(
        P3F1E2, weight_from_r(P3F1E2, (2,)),
        character(P3F1E2, (2,)), character(P3F1E2, (1,)),
    )
    assert [str(l) for l in res.labels] == ["alpha(1,0)"]
    assert not res.exceptional
    assert res.dimension == 1
    assert res.e_m == 2
    assert res.extra_degree_index is None and res.extra_degree is None


def test_l_v_ah_nontrivial_unramified_parts():
    mu = UnramifiedPart(2, 1)
    res = l_v_ah(
        P3F2, weight_from_r(P3F2, (2, 1)),
        character(P3F2, (5, 0), unram=mu), character(P3F2, (0, 0), unram=mu),
    )
    assert [str(l) for l in res.labels] == ["alpha(5,0)", "alpha(7,0)"]
    assert not res.exceptional


def test_l_v_ah_trivial_quotient_adds_unramified_class():
    chi = character(P3F1E1, (0,))
    res = l_v_ah(P3F1E1, weight_from_r(P3F1E1, (2,)), chi, chi)
    assert [str(l) for l in res.labels] == ["alpha(2,0)", "unramified"]
    assert res.dimension == 2
    assert res.extra_degree_index == 0
    assert res.extra_degree == 3


def test_l_v_ah_exceptional_case():
    res = l_v_ah(
        P3F1E1, weight_from_r(P3F1E1, (3,)),
        character(P3F1E1, (1,), cyclotomic=True), character(P3F1E1, (0,)),
        chi_cyclotomic=True,
    )
    assert res.exceptional
    assert [str(l) for l in res.labels] == ["alpha(1,0)", "tres_ramifiee"]
    assert res.dimension == 2


def test_l_v_ah_exceptional_needs_declaration():
    # same instance as the exceptional case but without the declaration:
    # the generic route keeps alpha(1,0) yet never adds tres_ramifiee
    res = l_v_ah(
        P3F1E1, weight_from_r(P3F1E1, (3,)),
        character(P3F1E1, (1,)), character(P3F1E1, (0,)),
    )
    assert not res.exceptional
    assert [str(l) for l in res.labels] == ["alpha(1,0)"]
    assert res.dimension == 1


def test_l_v_ah_p2_trivial_is_exceptional_at_r_p():
    chi = character(P2F1, (0,))
    res = l_v_ah(P2F1, weight_from_r(P2F1, (2,)), chi, chi)
    assert res.exceptional
    assert res.dimension == h1_dimension(P2F1, char_quotient(P2F1, chi, chi))
    assert [str(l) for l in res.labels] == [
        "alpha(1,0)", "unramified", "tres_ramifiee",
    ]


def test_l_v_ah_propagates_no_valid_shift():
    with pytest.raises(NoValidShift):
        l_v_ah(
            P3F1E1, weight_from_r(P3F1E1, (2,)),
            character(P3F1E1, (0,)), character(P3F1E1, (1,)),
        )


def test_l_v_ah_validates_e_m():
    with pytest.raises(InvalidEM):
        l_v_ah(
            P3F1E2, weight_from_r(P3F1E2, (2,)),
            character(P3F1E2, (2,)), character(P3F1E2, (1,)), e_m=1,
        )


@pytest.mark.parametrize("p,e,f", [(2, 2, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1), (5, 1, 1)])
def test_l_v_ah_result_invariants(p, e, f):
    """Labels in sort_key order; outside the exceptional case (the whole
    basis) no tres ramifiee class, and the unramified class, last, exactly
    for a trivial quotient."""
    trivial = 0
    for params, r, chi1, chi2 in _instances(p, e, f):
        res = l_v_ah(params, weight_from_r(params, r), chi1, chi2)
        assert res.dimension == len(res.labels)
        assert list(res.labels) == sorted(res.labels, key=BasisLabel.sort_key)
        quot = char_quotient(params, chi1, chi2)
        if not res.exceptional:
            assert BasisLabel.tres_ramifiee() not in res.labels
            has_unram = BasisLabel.unramified() in res.labels
            assert has_unram == quot.declared_trivial
            if has_unram:
                assert res.labels[-1] == BasisLabel.unramified()
                trivial += 1
    assert trivial  # every cell listed has a trivial quotient


def test_routes_raise_where_i_m_index_would_on_colliding_n_values(monkeypatch):
    """Both routes read the record's index table directly; on a record whose
    n_0..n_{f'-1} collide, each raises the error that ``i_m_index`` raises,
    at a point where candidates reach the table."""
    params, _, _, chi, profile = io_cli._grid_instance((3, 1, 2, 0, (1, 2)))
    assert j_v_ah(params, profile, chi) == {
        BasisLabel.alpha(5, 0), BasisLabel.alpha(7, 0)
    }
    real = serre_basis._derived

    def colliding(params, sig):
        d = real(params, sig)
        return _Derived(d.n, d.niveau, d.index_of, False, d.counts, d.w_prime)

    monkeypatch.setattr(serre_basis, "_derived", colliding)
    message = "n_0..n_1 are not distinct mod 8"
    with pytest.raises(InternalInvariantViolation, match=message):
        i_m_index(params, chi, 5)
    for route in (j_v_ah, j_v_ah_bruteforce):
        with pytest.raises(InternalInvariantViolation, match=message):
            route(params, profile, chi)


@pytest.mark.parametrize("p,f", [(p, f) for p in (2, 3, 5) for f in (1, 2, 3)])
def test_validate_e_m_raises_exactly_off_the_valid_e_ms(p, f):
    """Every e_M that does not divide p^f - 1, and every divisor whose
    cofactor misses some n_i, raises InvalidEM; the rest pass, e_M = p^f - 1
    (cofactor 1, checked without reading the n_i) among them."""
    params = FieldParams(p, 1, f)
    q1 = params.tame_order
    for a in oracles.signature_space(p, f):
        chi = character(params, a)
        nvals = [oracles.n_value(p, f, a, i) for i in range(f)]
        for e_m in range(-1, q1 + 3):
            valid = (
                e_m >= 1 and q1 % e_m == 0 and all(n % (q1 // e_m) == 0 for n in nvals)
            )
            if valid:
                validate_e_m(params, chi, e_m)
            else:
                with pytest.raises(InvalidEM):
                    validate_e_m(params, chi, e_m)


def test_record_kept_alphas_do_not_carry_declarations():
    """basis_labels keeps a signature's alphas on its cached record; the
    special classes come from each character's declarations, whichever
    character of the signature asked first."""
    params = FieldParams(3, 2, 2)  # (p - 1) | e: the cyclotomic class is 0
    plain = character(params, (0, 0), unram=UnramifiedPart(1, 1))
    trivial = character(params, (0, 0))
    cyclotomic = character(params, (0, 0), unram=UnramifiedPart(1, 1), cyclotomic=True)
    both = character(params, (0, 0), cyclotomic=True)
    assert len({chi.signature for chi in (plain, trivial, cyclotomic, both)}) == 1
    alphas = tuple(
        BasisLabel.alpha(m, k)
        for m in oracles.w_prime_direct(3, 2, 2, plain.signature.a)
        for k in range(niveau(params, plain.signature)[1])
    )
    expected = {
        plain: alphas,
        trivial: alphas + (BasisLabel.unramified(),),
        cyclotomic: alphas + (BasisLabel.tres_ramifiee(),),
        both: alphas + (BasisLabel.unramified(), BasisLabel.tres_ramifiee()),
    }
    for order in permutations(expected):
        serre_basis._derived.cache_clear()
        for chi in order + order:
            assert basis_labels(params, chi) == expected[chi]
