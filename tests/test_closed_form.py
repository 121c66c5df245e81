"""The closed-form hot path against the scan versions it replaced.

Every signature of every cell with p <= 7, e <= 3, f <= 3, and p <= 3 at
f = 4, goes through the progression enumeration (``jump_profile``,
``window_cardinality``, ``w_prime``), the cached record (``i_m_index``,
``graded_dimension``) and the mask test of ``minimal_shift_set``; each
answer, error included, must equal the scan oracle's in
``tests/scan_reference.py``.  The shift search must also equal the
per-mask scan, on every (r, m) of p <= 5, e <= 3, f <= 3 and of p = 2 at
f = 4, and on random (r, m) at 5 <= f <= 12.  So must the least field of an
unramified value, over every degree L <= 12 at p <= 7.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

import scan_reference as scan
from serreweights import (
    FieldParams,
    InvalidInput,
    MinimalityAmbiguous,
    NoValidShift,
    SerreWeightsError,
    TameSignature,
    UnramifiedPart,
    character,
    cyclotomic_inertia_signature,
    exponent_class,
    graded_dimension,
    i_m_index,
    jump_profile,
    minimal_shift_set,
    w_prime,
    window_cardinality,
)
from serreweights import weight_lattice
from serreweights.tame_chars import _normalize_unram

CELLS = [
    (p, e, f) for p in (2, 3, 5, 7) for e in (1, 2, 3) for f in (1, 2, 3)
] + [(p, e, 4) for p in (2, 3) for e in (1, 2, 3)]
SMALL_CELLS = [(p, e, f) for p, e, f in CELLS if p <= 3 and f <= 3]


def _cell_id(cell):
    return "p{}e{}f{}".format(*cell)


def characters(params: FieldParams):
    """One character per signature, plus the variants with residue 0 and the
    declared-cyclotomic one.

    The all-(p-1) signature has class 0: with trivial unramified part it is
    the trivial character, and it comes once more with a nontrivial one
    (unramified, not trivial).  For p > 2 the cyclotomic signature also
    comes declared cyclotomic; for p = 2 the trivial character already is.
    """
    p, f = params.p, params.f
    cyclotomic = cyclotomic_inertia_signature(params)
    unram = UnramifiedPart(1, 1) if p > 2 else UnramifiedPart(2, 1)
    for a in product(range(1, p + 1), repeat=f):
        if all(x == p for x in a):
            continue
        yield character(params, a)
        if all(x == p - 1 for x in a):
            yield character(params, a, unram=unram)
        if p > 2 and TameSignature(a) == cyclotomic:
            yield character(params, a, cyclotomic=True)


def outcome(fn, *args):
    """The value, or the type and message of the package error raised."""
    try:
        return fn(*args)
    except SerreWeightsError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_jump_profile_and_graded_dimension_match_scan(cell):
    """``graded_dimension`` is probed at 0, at the top level, at
    m = 1, p^f - 1 and p^f, and at every jump numerator and its neighbours."""
    params = FieldParams(*cell)
    q1 = params.tame_order
    top = 1 + Fraction(params.e * params.p, params.p - 1)
    kinds = Counter()
    for chi in characters(params):
        kinds["trivial"] += chi.declared_trivial
        kinds["cyclotomic"] += chi.declared_cyclotomic
        expected = scan.jump_entries_scan(params, chi)
        profile = jump_profile(params, chi)
        assert profile.entries == expected, chi
        assert profile.total == sum(d for _, d in expected)
        levels = dict(expected)
        numerators = {(s - 1) * q1 for s in levels if 1 < s < top}
        probes = {m + k for m in numerators for k in (-1, 0, 1)} | {1, q1, q1 + 1}
        for s in [Fraction(0), top] + [1 + Fraction(m, q1) for m in probes]:
            assert graded_dimension(params, chi, s) == levels.get(s, 0), (chi, s)
    assert kinds["trivial"] >= 1
    assert kinds["cyclotomic"] >= 1


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_window_cardinality_matches_scan(cell):
    params = FieldParams(*cell)
    for chi in characters(params):
        for j in range(params.e):
            got = window_cardinality(params, chi, j)
            assert got == scan.window_cardinality_scan(params, chi, j) == params.f


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_w_prime_matches_scan(cell):
    params = FieldParams(*cell)
    for chi in characters(params):
        assert w_prime(params, chi) == scan.w_prime_scan(params, chi), chi


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_i_m_index_matches_scan(cell):
    """All of W' and its neighbours, and both sides of 0 and of p^f - 1."""
    params = FieldParams(*cell)
    q1 = params.tame_order
    for chi in characters(params):
        probes = {m + k for m in w_prime(params, chi) for k in (-1, 0, 1)}
        for m in sorted(probes | {-1, 0, 1, q1 - 1, q1, q1 + 1}):
            got = outcome(i_m_index, params, chi, m)
            assert got == outcome(scan.i_m_index_scan, params, chi, m), (chi, m)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_minimal_shift_set_matches_candidate_scan(cell):
    """Every (r, m) of the cell; the scan looks shifted tuples up in the
    candidate product, built once per r.  Every cell with p >= 5 has pairs
    with no valid shift."""
    params = FieldParams(*cell)
    p, f = params.p, params.f
    reduced = [m for m in product(range(p), repeat=f) if any(c < p - 1 for c in m)]
    kinds = Counter()
    for r in product(range(1, p + 1), repeat=f):
        by_class = scan.candidates_by_class(params, r)
        for m in reduced:
            cands = by_class.get(exponent_class(params, m), set())
            expected = outcome(scan.minimal_shift_set_scan, params, r, m, cands)
            assert outcome(minimal_shift_set, params, r, m) == expected, (r, m)
            kinds[expected[0] if isinstance(expected, tuple) else "least"] += 1
    assert kinds["least"] > 0
    assert set(kinds) <= {"least", NoValidShift}
    if p >= 5:
        assert kinds[NoValidShift] > 0


SHIFT_CELLS = [
    (p, e, f) for p in (2, 3, 5) for e in (1, 2, 3) for f in (1, 2, 3)
] + [(2, e, 4) for e in (1, 2, 3)]


@pytest.mark.parametrize("narrowed, kinds", [
    (False, {NoValidShift: 31617, "least": 20013}),
    (True, {NoValidShift: 48045, "least": 3558, MinimalityAmbiguous: 27}),
], ids=["definition", "narrowed"])
def test_least_shift_matches_the_per_mask_scan(narrowed, kinds, monkeypatch):
    """Every (r, m) of every cell: the same least mask, or the same error
    and message.  The definition is never ambiguous on this grid, so
    admissibility is also narrowed to {0, 4}, which reaches every outcome."""
    if narrowed:
        monkeypatch.setattr(weight_lattice, "_admissible", lambda e, ri, x: x in (0, 4))
    seen = Counter()
    for cell in SHIFT_CELLS:
        params = FieldParams(*cell)
        p, f = params.p, params.f
        reduced = [m for m in product(range(p), repeat=f) if any(c < p - 1 for c in m)]
        for r in product(range(1, p + 1), repeat=f):
            for m in reduced:
                expected = outcome(scan.least_shift_scan, params, r, m)
                got = outcome(weight_lattice._least_shift, params, r, m)
                assert got == expected, (cell, r, m)
                seen[expected[0] if isinstance(expected, tuple) else "least"] += 1
    assert seen == kinds


@pytest.mark.parametrize("f", [20, 21, 64])
def test_shift_search_answers_at_many_slots(f):
    """The walk costs O(f^2) steps, so f needs no cap."""
    assert minimal_shift_set(FieldParams(2, 1, f), (1,) * f, (0,) * f) == frozenset()


@st.composite
def _shift_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    f = draw(st.integers(min_value=5, max_value=12))
    # Entries from at most two values each, so that runs of equal slots,
    # which have many valid masks, come up often.
    tuples = [
        st.lists(st.integers(lo, hi), min_size=1, max_size=2).flatmap(
            lambda values: st.lists(st.sampled_from(values), min_size=f, max_size=f)
        )
        for lo, hi in ((1, p), (0, p - 1))
    ]
    r, m = (tuple(draw(values)) for values in tuples)
    e = draw(st.integers(min_value=1, max_value=3))
    return FieldParams(p, e, f), r, m


@pytest.mark.parametrize("narrowed", [False, True], ids=["definition", "narrowed"])
@settings(max_examples=300)
@given(_shift_inputs())
def test_least_shift_matches_the_per_mask_scan_past_four_slots(narrowed, case):
    """The exhaustive grid above stops at f = 4; here random (r, m) at
    5 <= f <= 12 give the same least mask, or the same error and message."""
    params, r, m = case
    assume(any(c < params.p - 1 for c in m))
    with pytest.MonkeyPatch.context() as patch:
        if narrowed:
            patch.setattr(weight_lattice, "_admissible", lambda e, ri, x: x in (0, 4))
        expected = outcome(scan.least_shift_scan, params, r, m)
        assert outcome(weight_lattice._least_shift, params, r, m) == expected


def test_minimal_shift_set_ambiguity_matches_scan(monkeypatch):
    """No (r, m) of the grid has valid shift subsets without a least one, so
    admissibility is narrowed to {0, 4}: at p = 3, e = 2, f = 2, r = (3, 3)
    and m = (1, 1) that leaves exactly {0} and {1} valid, by both routes."""
    monkeypatch.setattr(weight_lattice, "_admissible", lambda e, ri, x: x in (0, 4))
    params = FieldParams(3, 2, 2)
    expected = outcome(scan.minimal_shift_set_scan, params, (3, 3), (1, 1))
    assert expected == (
        MinimalityAmbiguous,
        "valid shift subsets [[0], [1]] have no least element",
    )
    assert outcome(minimal_shift_set, params, (3, 3), (1, 1)) == expected


@pytest.mark.parametrize("cell", SMALL_CELLS, ids=_cell_id)
def test_candidates_by_class_is_candidate_set(cell):
    """The grouped product the grid oracle uses is ``candidate_set`` itself."""
    params = FieldParams(*cell)
    p, f = params.p, params.f
    for r in product(range(1, p + 1), repeat=f):
        by_class = scan.candidates_by_class(params, r)
        for m in product(range(p), repeat=f):
            if all(c == p - 1 for c in m):
                continue
            cands = set(scan.candidate_set(params, r, m))
            assert cands == by_class.get(exponent_class(params, m), set())
            assert outcome(minimal_shift_set, params, r, m) == outcome(
                scan.minimal_shift_set_scan, params, r, m
            )


@pytest.mark.parametrize(
    "r, m",
    [
        ((2,), (1, 0)),  # r too short
        ((2, 1, 1), (1, 0)),  # r too long
        ((0, 1), (1, 0)),  # r entry below 1
        ((2, 4), (1, 0)),  # r entry above p
        ((2, 1), (1,)),  # m too short
        ((2, 1), (1, 0, 0)),  # m too long
        ((2, 1), (-1, 0)),  # m entry below 0
        ((2, 1), (3, 0)),  # m entry above p - 1
        ((2, 1), (2, 2)),  # the excluded all-(p-1) tuple
        ((0, 1), (2, 2)),  # both bad: r is checked first
    ],
)
def test_minimal_shift_set_bad_input_matches_scan(r, m):
    params = FieldParams(3, 1, 2)
    expected = outcome(scan.minimal_shift_set_scan, params, r, m)
    assert expected[0] is InvalidInput
    assert outcome(minimal_shift_set, params, r, m) == expected


def _divisors(n: int):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_normalize_unram_matches_linear_scan(p):
    """Every dlog while p^L - 1 <= 5000; above that, one dlog of each order,
    since the least field depends on the dlog only through its order."""
    for degree in range(1, 13):
        big = p**degree - 1
        dlogs = range(big) if big <= 5000 else [big // d for d in _divisors(big)]
        for dlog in dlogs:
            assert _normalize_unram(p, degree, dlog) == scan.normalize_unram_scan(
                p, degree, dlog
            ), (degree, dlog)
