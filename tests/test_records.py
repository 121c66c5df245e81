"""Records are checked once, where they are built.

``character`` and ``char_quotient`` validate each character as it is built,
and the helpers that receive one trust it.  These tests stand in for the
per-helper re-validation: every record the package builds, over every
signature class of the small cells, satisfies the public validator.  The
last tests pin what a record is: a NamedTuple, with the repr of its fields,
equal to the plain tuple of them.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from serreweights import (
    BasisLabel,
    CharacterData,
    FieldParams,
    InvalidInput,
    InvariantError,
    JumpProfile,
    LVResult,
    NoValidShift,
    Problem,
    SerreWeight,
    TameSignature,
    UnramifiedPart,
    WeightProfile,
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


def test_validate_character_rejects_a_wrong_trivial_flag_both_ways():
    p3f2 = FieldParams(3, 1, 2)
    message = r"^trivial flag inconsistent with character data$"
    nontrivial = character(p3f2, (1, 2))
    with pytest.raises(InvariantError, match=message):
        validate_character(p3f2, nontrivial._replace(declared_trivial=True))
    trivial = character(p3f2, (0, 0))
    assert trivial.declared_trivial
    with pytest.raises(InvariantError, match=message):
        validate_character(p3f2, trivial._replace(declared_trivial=False))
    unram = character(p3f2, (0, 0), unram=UnramifiedPart(1, 1))
    with pytest.raises(InvariantError, match=message):
        validate_character(p3f2, unram._replace(declared_trivial=True))


def test_validate_character_rejects_a_mod_2_trivial_record_not_cyclotomic():
    for params in (FieldParams(2, 1, 1), FieldParams(2, 2, 3)):
        trivial = character(params, (0,) * params.f)
        assert trivial.declared_trivial and trivial.declared_cyclotomic
        validate_character(params, trivial)
        with pytest.raises(
            InvariantError, match=r"^mod-2 trivial characters are cyclotomic$"
        ):
            validate_character(params, trivial._replace(declared_cyclotomic=False))


# ---------------------------------------------------------------------------
# The records are NamedTuples
# ---------------------------------------------------------------------------

SIG = TameSignature((1, 2))
UNRAM = UnramifiedPart(2, 1)
CHI = CharacterData(SIG, UNRAM)
CHI_REPR = (
    "CharacterData(signature=TameSignature(a=(1, 2)), "
    "unram=UnramifiedPart(order_field_degree=2, dlog=1), "
    "declared_trivial=False, declared_cyclotomic=False)"
)
WEIGHT = SerreWeight((1, 1), (0, 0))


RECORD_REPRS = [
    (FieldParams(3, 2, 1), "FieldParams(p=3, e=2, f=1)"),
    (SIG, "TameSignature(a=(1, 2))"),
    (UNRAM, "UnramifiedPart(order_field_degree=2, dlog=1)"),
    (UnramifiedPart(), "UnramifiedPart(order_field_degree=1, dlog=0)"),
    (CHI, CHI_REPR),
    (WEIGHT, "SerreWeight(eta=(1, 1), theta=(0, 0))"),
    (
        WeightProfile((2,), (1,), (2,), ((1, 2),), (7,), frozenset({0})),
        "WeightProfile(r=(2,), t=(1,), s=(2,), intervals=((1, 2),), xi=(7,), "
        "j_min=frozenset({0}))",
    ),
    (BasisLabel.alpha(5, 0), "BasisLabel(kind='alpha', m=5, k=0)"),
    (BasisLabel.unramified(), "BasisLabel(kind='unramified', m=None, k=None)"),
    (
        LVResult((BasisLabel.alpha(5, 0),), False, 1, 8),
        "LVResult(labels=(BasisLabel(kind='alpha', m=5, k=0),), exceptional=False, "
        "dimension=1, e_m=8, extra_degree_index=None, extra_degree=None)",
    ),
    (
        JumpProfile(((Fraction(0), 1), (Fraction(3, 2), 1)), 2),
        "JumpProfile(entries=((Fraction(0, 1), 1), (Fraction(3, 2), 1)), total=2)",
    ),
    (
        Problem(FieldParams(3, 1, 2), WEIGHT, CHI, CHI, e_m=8),
        "Problem(params=FieldParams(p=3, e=1, f=2), "
        "weight=SerreWeight(eta=(1, 1), theta=(0, 0)), "
        f"chi1={CHI_REPR}, chi2={CHI_REPR}, e_m=8, chi_cyclotomic=None)",
    ),
]


@pytest.mark.parametrize(
    "record, text", RECORD_REPRS, ids=[type(r).__name__ for r, _ in RECORD_REPRS]
)
def test_record_repr_names_every_field(record, text):
    assert repr(record) == text


def test_a_record_is_the_tuple_of_its_fields():
    label = BasisLabel.alpha(5, 0)
    assert label == ("alpha", 5, 0) and hash(label) == hash(("alpha", 5, 0))
    assert label == BasisLabel("alpha", 5, 0) and type(label) is BasisLabel
    assert str(label) == "alpha(5,0)" and label.is_alpha
    assert BasisLabel.tres_ramifiee() == ("tres_ramifiee", None, None)
    params = FieldParams(3, 2, 1)
    assert params == (3, 2, 1) and hash(params) == hash((3, 2, 1))
    p, e, f = params
    assert (p, e, f) == (3, 2, 1) and params.tame_order == 2
    fields = (SIG, UNRAM, False, False)
    assert CHI == fields and hash(CHI) == hash(fields)
    assert UnramifiedPart() == (1, 0)
    assert BasisLabel.alpha(5, 1) < BasisLabel.alpha(7, 0)


def test_replace_skips_the_constructor_checks():
    assert FieldParams(3, 2, 1)._replace(p=4) == (4, 2, 1)
    with pytest.raises(InvalidInput, match="p = 4 is not prime"):
        FieldParams(4, 2, 1)
    jumps = JumpProfile(((Fraction(0), 1),), 1)
    assert jumps._replace(total=5).total == 5


@pytest.mark.parametrize(
    "entries, total, message",
    [
        (((Fraction(2), 1), (Fraction(1), 1)), 2, "sorted by level"),
        (((Fraction(1), 0),), 0, "positive dimension"),
        (((Fraction(1), 1),), 2, "sum of jump dimensions"),
    ],
)
def test_jump_profile_checks_its_entries(entries, total, message):
    with pytest.raises(InvariantError, match=message):
        JumpProfile(entries, total)
    with pytest.raises(InvariantError, match=message):
        JumpProfile(entries=entries, total=total)
