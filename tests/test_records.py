"""Records are checked once, where they are built.

``character`` and ``char_quotient`` validate each character as it is built,
and the helpers that receive one trust it.  These tests stand in for the
per-helper re-validation: every record the package builds, over every
signature class of the small cells, satisfies the public validator.
"""

import random
from itertools import product

import pytest

from serreweights import (
    CharacterData,
    FieldParams,
    InvariantError,
    NoValidShift,
    SerreWeight,
    UnramifiedPart,
    char_quotient,
    character,
    cyclotomic_inertia_signature,
    exponent_class,
    ts_profile,
    twist_normalize,
    validate_character,
)

CELLS = [(p, e, f) for p in (2, 3, 5) for e in (1, 2) for f in (1, 2, 3)]

# Unramified parts mixed into the quotients: the trivial one everywhere,
# plus values of degree 1 and 2 where they exist.
UNRAMS = {
    2: (UnramifiedPart(1, 0), UnramifiedPart(2, 1)),
    3: (UnramifiedPart(1, 0), UnramifiedPart(1, 1), UnramifiedPart(2, 2)),
    5: (UnramifiedPart(1, 0),),
}


def _cell_id(cell):
    return "p{}e{}f{}".format(*cell)


def _characters(params, unrams):
    """One character per (signature class, unramified part)."""
    zeros = (0,) * (params.f - 1)
    return [
        character(params, (cls,) + zeros, unram=unram)
        for cls in range(params.tame_order)
        for unram in unrams
    ]


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_character_outputs_pass_validate_character(cell):
    params = FieldParams(*cell)
    cyc = cyclotomic_inertia_signature(params)
    for chi in _characters(params, UNRAMS[params.p]):
        validate_character(params, chi)
        allowed = chi.signature == cyc and (params.p != 2 or chi.unram.is_trivial(2))
        if allowed:
            declared = character(
                params, chi.signature.a, unram=chi.unram, cyclotomic=True
            )
            assert declared.declared_cyclotomic
            validate_character(params, declared)
        else:
            with pytest.raises(InvariantError):
                character(params, chi.signature.a, unram=chi.unram, cyclotomic=True)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_char_quotient_outputs_pass_validate_character(cell):
    params = FieldParams(*cell)
    chars = _characters(params, UNRAMS[params.p])
    for chi1, chi2 in product(chars, repeat=2):
        validate_character(params, char_quotient(params, chi1, chi2))


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_twist_normalize_outputs_pass_validate_character(cell):
    params = FieldParams(*cell)
    p, f = params.p, params.f
    chars = _characters(params, UNRAMS[p])
    rng = random.Random(_cell_id(cell))
    thetas = [t for t in product(range(p), repeat=f) if any(x < p - 1 for x in t)]
    for _ in range(200):
        theta = rng.choice(thetas)
        eta = tuple(t + rng.randrange(p) for t in theta)
        normalized, c1, c2 = twist_normalize(
            params, SerreWeight(eta, theta), rng.choice(chars), rng.choice(chars)
        )
        assert normalized.theta == (0,) * f
        validate_character(params, c1)
        validate_character(params, c2)


@pytest.mark.parametrize(
    "cell", [c for c in CELLS if c[0] <= 3 and c[2] <= 2], ids=_cell_id
)
def test_twist_normalize_keeps_the_records_at_theta_zero(cell):
    """At theta = 0 the characters come back as the same objects, each equal
    to the record the twist would rebuild, cyclotomic and mod-2 declarations
    included."""
    params = FieldParams(*cell)
    p, f = params.p, params.f
    zeros = (0,) * (f - 1)
    chars = _characters(params, UNRAMS[p])
    cyc = cyclotomic_inertia_signature(params)
    chars += [
        character(params, chi.signature.a, unram=chi.unram, cyclotomic=True)
        for chi in chars
        if chi.signature == cyc and (p != 2 or chi.unram.is_trivial(2))
    ]
    assert any(chi.declared_cyclotomic for chi in chars)
    weight = SerreWeight((p - 1,) * f, (0,) * f)
    for chi1, chi2 in zip(chars, reversed(chars)):
        normalized, c1, c2 = twist_normalize(params, weight, chi1, chi2)
        assert normalized == weight
        assert c1 is chi1 and c2 is chi2
        for chi in (c1, c2):
            cls = exponent_class(params, chi.signature.a)
            rebuilt = character(
                params, (cls,) + zeros, unram=chi.unram,
                cyclotomic=True if chi.declared_cyclotomic else None,
            )
            assert rebuilt == chi


@pytest.mark.parametrize("cell", [c for c in CELLS if c[2] <= 2], ids=_cell_id)
def test_ts_profile_matches_by_inertial_class_only(cell):
    """The profile check compares classes; unramified parts never enter."""
    params = FieldParams(*cell)
    p, e, f = params.p, params.e, params.f
    zeros = (0,) * (f - 1)
    for r in product(range(1, p + 1), repeat=f):
        chi1_class_plus = exponent_class(params, tuple(ri + e - 1 for ri in r))
        for chi2_class in range(params.tame_order):
            chi1_exps = (chi1_class_plus - chi2_class,) + zeros
            chi2 = character(params, (chi2_class,) + zeros)
            try:
                expected = ts_profile(params, r, character(params, chi1_exps), chi2)
            except NoValidShift:
                continue
            for u1, u2 in product(UNRAMS[p], repeat=2):
                c1 = character(params, chi1_exps, unram=u1)
                c2 = character(params, (chi2_class,) + zeros, unram=u2)
                assert ts_profile(params, r, c1, c2) == expected


def test_hand_built_records_get_the_builder_messages():
    """``validate_character`` words a bad flag as ``character`` does."""
    p3f2 = FieldParams(3, 1, 2)
    sig = character(p3f2, (1, 2)).signature
    with pytest.raises(
        InvariantError,
        match=r"^cyclotomic declaration inconsistent with signature \(1, 2\)$",
    ):
        validate_character(p3f2, CharacterData(sig, declared_cyclotomic=True))
    p2f1 = FieldParams(2, 1, 1)
    sig = character(p2f1, (0,)).signature
    with pytest.raises(
        InvariantError, match=r"^mod-2 cyclotomic declarations need trivial unram$"
    ):
        validate_character(
            p2f1, CharacterData(sig, UnramifiedPart(2, 1), False, True)
        )
