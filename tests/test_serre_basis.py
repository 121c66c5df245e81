"""Basis labels, the window set W', and the label subset J_V^AH."""

import re
from itertools import islice, permutations, product

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
    jump_profile,
    l_v_ah,
    n_values,
    niveau,
    reduced_exponents,
    rederive_jvah,
    signature_class,
    ts_profile,
    validate_e_m,
    w_prime,
    weight_from_r,
)

import oracles
import serreweights.io_cli as io_cli
from serreweights import serre_basis, tame_chars


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


# The last four cells have a larger W', more powers p^j below xi_i and
# e_M with proper divisors.  Every second instance of (5, 2, 2) and
# (3, 2, 3) is taken, and every 251st of (5, 3, 3), where q1 = 124 admits
# e_M = 62, 31, 4, 2 and 1 beside the default; the sample must reach each.
_WITNESS_STRIDE = {(5, 2, 2): 2, (3, 2, 3): 2, (5, 3, 3): 251}
_WITNESS_E_MS = {(5, 3, 3): {124, 62, 31, 4, 2, 1}}


@pytest.mark.parametrize("p,e,f", [
    (2, 1, 2), (2, 2, 1), (3, 1, 2), (3, 2, 1), (5, 4, 1), (5, 2, 2), (3, 2, 3),
    (5, 3, 3),
])
def test_j_v_ah_agrees_with_bruteforce_and_witness_search(p, e, f):
    """Both routes equal the literal witness search over exact rationals at
    every valid e_M; the brute force indexes its witness values by value."""
    stride = _WITNESS_STRIDE.get((p, e, f), 1)
    seen = set()
    for params, r, chi1, chi2 in islice(_instances(p, e, f), 0, None, stride):
        quot, prof = _quotient_and_profile(params, r, chi1, chi2)
        for e_m in _valid_e_ms(params, quot):
            seen.add(e_m)
            got = j_v_ah(params, prof, quot, e_m)
            assert got == j_v_ah_bruteforce(params, prof, quot, e_m)
            want = oracles.jvah_witness_search(
                p, e, f, quot.signature.a, prof.xi, prof.intervals, e_m
            )
            assert {(l.m, l.k) for l in got} == want
            assert len(got) <= prof.interval_total()
            assert got <= set(basis_labels(params, quot))
    assert _WITNESS_E_MS.get((p, e, f), set()) <= seen


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


@pytest.fixture
def bent_sums(monkeypatch):
    """Install a bent ``tame_chars._twisted_sums`` on an empty record cache;
    the cache is emptied again at teardown, so no record built through the
    bend outlives the test."""
    def install(bend):
        real = tame_chars._twisted_sums
        monkeypatch.setattr(
            tame_chars, "_twisted_sums", lambda p, f, a: bend(real(p, f, a))
        )
        tame_chars._derived.cache_clear()

    yield install
    tame_chars._derived.cache_clear()


@pytest.mark.parametrize("r, bend, message", [
    # a = (1, 2): f' = 2, and n_1 made equal to n_0.
    ((1, 2), lambda n: [n[0]] * len(n), r"n_0\.\.n_1 of \(1, 2\) are not distinct mod 8"),
    # a = (1, 1): f' = 1, f'' = 2, and n_1 moved off n_0's residue.
    ((1, 1), lambda n: n[:-1] + [n[-1] + 1], r"not each taken f'' = 2 times"),
], ids=["colliding", "uneven"])
def test_a_record_whose_n_values_break_the_index_facts_is_never_built(
    capsys, bent_sums, r, bend, message
):
    """``_derived`` checks, when it builds a record, that n_0..n_{f'-1} are
    distinct mod p^f - 1 and that each residue is taken by f'' of the n_i.
    With the n-values bent so that one fact fails, the record raises, on
    every call since a raise is not cached, and so does every reader of it:
    ``i_m_index``, both routes, ``jump_profile`` and ``dims``."""
    params, _, _, chi, profile = io_cli._grid_instance((3, 1, 2, 0, r))
    assert chi.signature.a == r
    bent_sums(bend)
    for _ in range(2):
        with pytest.raises(InternalInvariantViolation, match=message):
            tame_chars._derived(params, chi.signature)
    assert tame_chars._derived.cache_info().currsize == 0
    with pytest.raises(InternalInvariantViolation, match=message):
        i_m_index(params, chi, 4)
    for route in (j_v_ah, j_v_ah_bruteforce):
        with pytest.raises(InternalInvariantViolation, match=message):
            route(params, profile, chi)
    with pytest.raises(InternalInvariantViolation, match=message):
        jump_profile(params, chi)
    argv = ["dims", "--p", "3", "--e", "1", "--f", "2", "--chi-exps", "%d,%d" % r]
    assert io_cli.run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: ") and re.search(message, err)


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


def _one_instance_per_quotient(p, f):
    """(params, chi, profile) at the first grid point of the (p, 1, f) cell
    for each quotient signature that the cell reaches."""
    cell = (p, 1, f)
    found = {}
    for index in range(io_cli._cell_size(cell)):
        try:
            params, _, _, chi, profile = io_cli._grid_instance(
                io_cli._cell_spec(cell, index)
            )
        except NoValidShift:
            continue
        found.setdefault(chi.signature, (params, chi, profile))
    return list(found.values())


@pytest.mark.parametrize("p,f", [(p, f) for p in (2, 3, 5) for f in (1, 2, 3)])
def test_routes_raise_invalid_em_exactly_where_validate_e_m_does(p, f):
    """The routes' entry check, ``_route_e_m``, runs ``validate_e_m`` for
    every e_M but p^f - 1, where the cofactor 1 makes it vacuous: each route
    raises InvalidEM exactly where ``validate_e_m`` does.  The class test
    of s - t still runs at the default e_M: a profile whose s - t is not
    chi's class raises InvalidInput at e_M = None and at e_M = p^f - 1."""
    routes = (j_v_ah, j_v_ah_bruteforce, rederive_jvah)
    for params, chi, profile in _one_instance_per_quotient(p, f):
        q1 = params.tame_order
        for e_m in range(-1, q1 + 3):
            try:
                validate_e_m(params, chi, e_m)
            except InvalidEM:
                for route in routes:
                    with pytest.raises(InvalidEM):
                        route(params, profile, chi, e_m)
            else:
                for route in routes:
                    route(params, profile, chi, e_m)
        if q1 == 1:
            continue  # one class: no profile can miss it
        wrong = character(params, (signature_class(params, chi.signature) + 1,) + (0,) * (f - 1))
        for e_m in (None, q1):
            for route in routes:
                with pytest.raises(InvalidInput, match="disagree on the quotient class"):
                    route(params, profile, wrong, e_m)


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
