"""Cohomology dimensions, jump profiles, and window counts."""

from fractions import Fraction

import pytest

from serreweights import (
    FieldParams,
    InvalidInput,
    canonical_signature,
    character,
    graded_dimension,
    h1_dimension,
    jump_profile,
    niveau,
    window_cardinality,
)

import oracles


P3F2 = FieldParams(3, 1, 2)
P3F1 = FieldParams(3, 1, 1)
P2F1 = FieldParams(2, 1, 1)


def test_h1_dimension_examples():
    assert h1_dimension(P3F2, character(P3F2, (2, 1))) == 2
    assert h1_dimension(P3F1, character(P3F1, (1,), cyclotomic=True)) == 2
    assert h1_dimension(P2F1, character(P2F1, (0,))) == 3


def test_graded_dimension_examples():
    chi = character(P3F2, (1, 2))
    assert graded_dimension(P3F2, chi, Fraction(15, 8)) == 1
    assert graded_dimension(P3F2, chi, Fraction(1, 2)) == 0
    assert graded_dimension(P3F1, character(P3F1, (0,)), Fraction(0)) == 1


def test_jump_profile_examples():
    cyc = jump_profile(P3F1, character(P3F1, (1,), cyclotomic=True))
    assert cyc.entries == ((Fraction(3, 2), 1), (Fraction(5, 2), 1))
    assert cyc.total == 2
    triv = jump_profile(P3F1, character(P3F1, (0,)))
    assert triv.entries == ((Fraction(0), 1), (Fraction(2), 1))
    assert triv.total == 2
    generic = jump_profile(P3F2, character(P3F2, (1, 2)))
    assert generic.entries == ((Fraction(13, 8), 1), (Fraction(15, 8), 1))
    assert generic.total == 2


def test_window_cardinality_examples():
    assert window_cardinality(P3F2, character(P3F2, (1, 2)), 0) == 2
    p3e2 = FieldParams(3, 2, 1)
    chi = character(p3e2, (1,))
    assert window_cardinality(p3e2, chi, 0) == 1
    assert window_cardinality(p3e2, chi, 1) == 1
    assert window_cardinality(P2F1, character(P2F1, (1,)), 0) == 1


def test_window_cardinality_rejects_bad_index():
    chi = character(P3F1, (1,))
    with pytest.raises(InvalidInput):
        window_cardinality(P3F1, chi, -1)
    with pytest.raises(InvalidInput):
        window_cardinality(P3F1, chi, 1)


def _flag_variants(params, sig):
    """The trivial/cyclotomic flag combinations reachable for sig."""
    chi = character(params, sig)
    yield chi
    if params.p > 2 and sig == cyclotomic_sig(params):
        yield character(params, sig, cyclotomic=True)


def cyclotomic_sig(params):
    from serreweights import cyclotomic_inertia_signature

    return cyclotomic_inertia_signature(params).a


@pytest.mark.parametrize(
    "p,e,f",
    [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 1, 2),
     (3, 2, 1), (3, 2, 2), (5, 1, 2), (5, 2, 1), (5, 1, 1), (2, 1, 3),
     (3, 1, 3), (5, 1, 3)],
)
def test_jump_profile_matches_direct_enumeration(p, e, f):
    """Every character of p <= 5, f <= 3: the Fractions that ``jump_profile``
    builds from its integer levels equal the direct scan's."""
    params = FieldParams(p, e, f)
    for a in oracles.signature_space(p, f):
        sig = canonical_signature(params, a).a
        for chi in _flag_variants(params, sig):
            profile = jump_profile(params, chi)
            want = oracles.jump_entries_direct(
                p, e, f, sig, chi.declared_trivial, chi.declared_cyclotomic
            )
            assert list(profile.entries) == want
            assert profile.total == h1_dimension(params, chi)
            for j in range(e):
                assert window_cardinality(params, chi, j) == f
                assert len(oracles.window_members(p, e, f, sig, j)) == f


@pytest.mark.parametrize("p,e,f", [(3, 1, 2), (3, 2, 2), (2, 1, 3), (5, 1, 2)])
def test_interior_jump_dimensions_equal_f_over_niveau(p, e, f):
    params = FieldParams(p, e, f)
    top = 1 + Fraction(e * p, p - 1)
    for a in oracles.signature_space(p, f):
        chi = character(params, a)
        f_prime, f_dprime = niveau(params, chi.signature)
        for s, d in jump_profile(params, chi).entries:
            if 0 < s < top:
                assert d == f_dprime


def test_graded_dimension_vanishes_at_p_divisible_positions():
    params = FieldParams(3, 2, 2)
    chi = character(params, (1, 2))
    q1 = params.tame_order
    for m in range(1, params.e * params.p * params.repunit):
        if m % params.p == 0:
            assert graded_dimension(params, chi, 1 + Fraction(m, q1)) == 0
