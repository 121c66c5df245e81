"""The oracle's closed-form unit dlogs, checked against the Artin-Hasse
series of ``oracle_reference``; truncated Laurent arithmetic and the
pairing's truncation checks; and ``rederive_jvah``, which pairs over F_p(a)
with a truncation read from the instance, against the other two routes and
against the same pairings over the lcm-degree field of ``oracle_reference``."""

import random
from fractions import Fraction
from math import gcd

import pytest

import oracle_reference
import scan_reference
from oracle_reference import (
    artin_hasse_mod_p,
    artin_hasse_rational,
    epsilon_series,
    series_mul,
)
import serreweights.io_cli as io_cli
from serreweights import (
    FieldParams,
    InvalidInput,
    NonUnitConstantTerm,
    NoValidShift,
    TruncationInsufficient,
    UnramifiedPart,
    char_quotient,
    character,
    j_v_ah,
    j_v_ah_bruteforce,
    n_values,
    rederive_jvah,
    ts_profile,
)
from serreweights._gf import field
from serreweights.series_oracle import (
    LaurentElement,
    TensorAlgebra,
    dlog_truncated,
    epsilon_unit,
    lambda_tuple,
    residue_trace_pairing,
)


def test_artin_hasse_rational_examples():
    assert artin_hasse_rational(3, 4) == (
        Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(3, 8),
    )
    assert artin_hasse_rational(2, 2) == (Fraction(1),) * 3
    assert artin_hasse_rational(3, 0) == (Fraction(1),)


def test_artin_hasse_mod_p_examples():
    assert artin_hasse_mod_p(3, 4) == (1, 1, 2, 2, 0)
    # 3 c_3 = c_2 + c_1 gives c_3 = 2/3, which is 0 mod 2
    assert artin_hasse_mod_p(2, 3) == (1, 1, 1, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_artin_hasse_p_integrality_and_route_agreement(p):
    # artin_hasse_mod_p cross-checks the exponential recurrence against the
    # Moebius product internally, so a plain call exercises both routes
    coeffs = artin_hasse_rational(p, 60)
    assert len(coeffs) == 61
    for c in coeffs:
        assert c.denominator % p != 0
    reduced = artin_hasse_mod_p(p, 60)
    assert len(reduced) == 61
    assert all(0 <= c < p for c in reduced)
    for c, r in zip(coeffs, reduced):
        num = c.numerator * pow(c.denominator, -1, p)
        assert num % p == r


@pytest.mark.parametrize("p", [2, 3, 5])
def test_artin_hasse_dlog_identity(p):
    # u E'(u)/E(u) = sum over n >= 0 of u^{p^n}, mod (p, u^{61})
    bound = 60
    fq = field(p, 1)
    alg = TensorAlgebra(fq, 1)
    series = LaurentElement(
        {
            d: (fq.scalar(c),)
            for d, c in enumerate(artin_hasse_mod_p(p, bound))
            if c
        },
        trunc=bound,
    )
    logd = dlog_truncated(alg, series)
    expect = {}
    n = 1
    while n <= bound:
        expect[n] = (fq.one,)
        n *= p
    assert logd.coeffs == expect
    assert logd.trunc == bound
    # the closed form: delta_k = 1 exactly when k is a power of p
    unit = epsilon_unit(alg, alg.one, 1, bound)
    assert (unit.coeffs, unit.trunc) == (expect, bound)


def test_dlog_examples():
    fq = field(3, 1)
    alg = TensorAlgebra(fq, 1)
    one_plus_u = LaurentElement({0: alg.one, 1: alg.one})
    logd = dlog_truncated(alg, one_plus_u, trunc=3)
    coeffs = {1: (fq.scalar(1),), 2: (fq.scalar(2),), 3: (fq.scalar(1),)}
    # Laurent elements compare by value: both the coefficients and the bound
    assert logd == LaurentElement(dict(coeffs), 3) != LaurentElement(coeffs)
    assert dlog_truncated(alg, LaurentElement({0: alg.one}), trunc=3) == LaurentElement(
        trunc=3
    )
    assert repr(LaurentElement(trunc=3)) == "LaurentElement(coeffs={}, trunc=3)"


def test_dlog_rejects_non_units_and_unbounded_input():
    fq = field(3, 1)
    alg = TensorAlgebra(fq, 1)
    with pytest.raises(NonUnitConstantTerm):
        dlog_truncated(alg, LaurentElement({1: alg.one}), trunc=3)
    with pytest.raises(InvalidInput):
        dlog_truncated(alg, LaurentElement({0: alg.one}))


def test_epsilon_series_dlog_is_componentwise_frobenius_sum():
    # holds for any tuple, coherent or not, because everything is
    # componentwise: dlog E(lam u^m) = sum_j m lam^{p^j} u^{m p^j}
    fq = field(3, 2)
    alg = TensorAlgebra(fq, 2)
    g = fq.gen
    lam = (g, fq.mul(g, g))
    m, bound = 2, 30
    logd = dlog_truncated(alg, epsilon_series(alg, lam, m, trunc=bound))
    expect = {}
    deg, j = m, 0
    while deg <= bound:
        coeff = alg.scale(fq.scalar(m % 3), tuple(fq.pow(x, 3**j) for x in lam))
        if not alg.is_zero(coeff):
            expect[deg] = coeff
        j += 1
        deg = m * 3**j
    assert logd.coeffs == expect


def test_pairing_examples():
    fq = field(3, 2)
    alg = TensorAlgebra(fq, 2)
    g = fq.gen
    # <1, u> counts the tensor components; <u, u> has no degree-0 overlap
    dlog_u = LaurentElement({0: alg.one})
    assert residue_trace_pairing(alg, LaurentElement({0: alg.one}), dlog_u) == fq.scalar(2)
    assert residue_trace_pairing(alg, LaurentElement({1: alg.one}), dlog_u) == fq.zero
    # <lam u^-m, E(lam' u^m)> = m * trace(lam lam')
    lam = (g, fq.pow(g, fq.p))
    lam_p = (fq.pow(g, fq.p), g)
    m = 2
    eps = epsilon_series(alg, lam_p, m, trunc=12)
    got = residue_trace_pairing(alg, LaurentElement({-m: lam}), dlog_truncated(alg, eps))
    want = fq.mul(fq.scalar(m % 3), alg.trace(alg.mul(lam, lam_p)))
    assert got == want


def test_pairing_is_multiplicative_in_the_unit():
    fq = field(3, 2)
    alg = TensorAlgebra(fq, 2)
    g = fq.gen
    l1 = (g, fq.pow(g, 3))
    l2 = (fq.pow(g, 5), fq.one)
    m, bound = 2, 30
    e1 = epsilon_series(alg, l1, m, trunc=bound)
    e2 = epsilon_series(alg, l2, m, trunc=bound)
    combined = epsilon_series(alg, alg.add(l1, l2), m, trunc=bound)
    probe = LaurentElement({-m: (fq.pow(g, 2), fq.pow(g, 6))})
    assert residue_trace_pairing(
        alg, probe, dlog_truncated(alg, series_mul(alg, e1, e2))
    ) == residue_trace_pairing(alg, probe, dlog_truncated(alg, combined))


def test_epsilon_unit_agrees_with_series_on_coherent_tuples():
    fq = field(3, 2)
    alg = TensorAlgebra(fq, 2)
    g = fq.gen
    x = fq.pow(g, 3)
    coherent = tuple(fq.pow(x, fq.p ** ((2 - i) % 2)) for i in range(2))
    m, bound = 2, 30
    series = epsilon_series(alg, coherent, m, trunc=bound)
    unit = epsilon_unit(alg, coherent, m, bound)
    for deg in (-m, -2 * m, -6):
        probe = LaurentElement({deg: (g, fq.pow(g, 7))})
        assert residue_trace_pairing(alg, probe, dlog_truncated(alg, series)) == (
            residue_trace_pairing(alg, probe, unit)
        )


# (p, r, n): the two benchmark fields at their component counts, two small
# subfield embeddings, a field whose elements take two bytes per slot, and
# two single components, the second at a prime where the truncations reach
# p but not p^2
REFERENCE_FIELDS = [
    (2, 18, 9), (3, 12, 12), (2, 6, 3), (3, 4, 4), (11, 2, 2), (3, 2, 1), (13, 2, 1),
]
# trunc // m' reaches powers of 2, 3, 11 and 13, the degrees where the dlog
# of the Artin-Hasse series is nonzero
REFERENCE_TRUNCS = (0, 1, 2, 4, 8, 9, 11, 16, 22, 27, 40)


def _reference_tuples(fq, n):
    """The zero tuple, a full random tuple, and one with every other
    component zero (as the eigenvector tuples are)."""
    rng = random.Random(fq.order * 31 + n)

    def draw():
        return fq.element([rng.randrange(fq.p) for _ in range(fq.r)])

    full = tuple(draw() for _ in range(n))
    sparse = tuple(draw() if i % 2 == 0 else fq.zero for i in range(n))
    return [(fq.zero,) * n, full, sparse]


@pytest.mark.parametrize("p, r, n", REFERENCE_FIELDS)
def test_epsilon_unit_matches_the_series_combination_reference(p, r, n):
    # m' = beyond exceeds every truncation
    alg = TensorAlgebra(field(p, r), n)
    cache = {}
    beyond = max(REFERENCE_TRUNCS) + 1
    for trunc in REFERENCE_TRUNCS + REFERENCE_TRUNCS[::-1]:
        for m_prime in (1, 2, 3, 5, 7, beyond):
            for lam in _reference_tuples(alg.fq, n):
                want = oracle_reference.epsilon_unit_dlog(alg, lam, m_prime, trunc, cache)
                got = epsilon_unit(alg, lam, m_prime, trunc)
                assert (got.coeffs, got.trunc) == (want.coeffs, want.trunc), (
                    trunc, m_prime, lam,
                )


def test_pairing_truncation_insufficient():
    fq = field(3, 2)
    alg = TensorAlgebra(fq, 2)
    g = fq.gen
    eps = epsilon_series(alg, (g, g), 2, trunc=12)
    with pytest.raises(TruncationInsufficient):
        residue_trace_pairing(alg, LaurentElement({-40: (g, g)}), dlog_truncated(alg, eps))


def test_lambda_tuple_layout():
    fq = field(3, 2)
    alg = TensorAlgebra(fq, 4)
    g = fq.gen
    a_val = fq.pow(g, 2)
    # component t + c*f carries a^{-c} by default (the mu^{-1} eigenvector)
    lam = lambda_tuple(alg, 2, 1, a_val)
    assert lam[1] == fq.one and lam[3] == fq.inv(a_val)
    assert lam[0] == fq.zero and lam[2] == fq.zero
    inv = lambda_tuple(alg, 2, 1, a_val, inverse=True)
    assert inv[3] == a_val
    with pytest.raises(InvalidInput):
        lambda_tuple(alg, 3, 0, a_val)


FP_F1 = FieldParams(3, 2, 1)
FP_F2 = FieldParams(3, 1, 2)
FP_F3 = FieldParams(3, 1, 1)


def _fixture_f1():
    chi1, chi2 = character(FP_F1, (2,)), character(FP_F1, (1,))
    return ts_profile(FP_F1, (2,), chi1, chi2), char_quotient(FP_F1, chi1, chi2)


def test_mu_order_and_degrees():
    chi = character(FP_F3, (1,), unram=UnramifiedPart(2, 2))
    assert chi.unram.order(FP_F3.p) == 4
    assert oracle_reference.lcm_degree(FP_F3, chi) == 4
    triv = character(FP_F3, (1,))
    assert triv.unram.order(FP_F3.p) == 1
    assert oracle_reference.lcm_degree(FP_F3, triv) == 1


def test_rederive_fixture_f1():
    prof, quot = _fixture_f1()
    want = j_v_ah(FP_F1, prof, quot, 2)
    assert rederive_jvah(FP_F1, prof, quot, e_m=2) == want
    assert rederive_jvah(FP_F1, prof, quot) == want
    assert sorted(str(l) for l in want) == ["alpha(1,0)"]


def test_rederive_fixture_f2():
    chi1, chi2 = character(FP_F2, (5, 0)), character(FP_F2, (0, 0))
    prof = ts_profile(FP_F2, (2, 1), chi1, chi2)
    quot = char_quotient(FP_F2, chi1, chi2)
    got = rederive_jvah(FP_F2, prof, quot, e_m=8)
    assert got == j_v_ah(FP_F2, prof, quot, 8)
    assert sorted(str(l) for l in got) == ["alpha(5,0)", "alpha(7,0)"]


def test_rederive_fixture_f3_empty():
    chi1, chi2 = character(FP_F3, (2,)), character(FP_F3, (1,))
    prof = ts_profile(FP_F3, (3,), chi1, chi2)
    quot = char_quotient(FP_F3, chi1, chi2)
    assert rederive_jvah(FP_F3, prof, quot) == frozenset()


def test_rederive_with_nontrivial_unramified_part():
    chi1 = character(FP_F1, (2,), unram=UnramifiedPart(2, 2))
    chi2 = character(FP_F1, (1,))
    prof = ts_profile(FP_F1, (2,), chi1, chi2)
    quot = char_quotient(FP_F1, chi1, chi2)
    assert quot.unram.order(FP_F1.p) == 4
    want = j_v_ah(FP_F1, prof, quot, 2)
    assert rederive_jvah(FP_F1, prof, quot, e_m=2) == want


def test_rederive_trivial_quotient_keeps_unramified_direction_separate():
    # the extra degree-0 monomial for trivial chi pairs against u itself,
    # never against the unit directions, so labels stay unpolluted
    params = FieldParams(3, 1, 1)
    chi = character(params, (0,))
    prof = ts_profile(params, (2,), chi, chi)
    quot = char_quotient(params, chi, chi)
    got = rederive_jvah(params, prof, quot)
    assert got == j_v_ah(params, prof, quot, params.tame_order)
    assert sorted(str(l) for l in got) == ["alpha(2,0)"]


# Two (1, 3) instances of p = 2 and p = 3: (r, chi1's exponents, chi2's).
F3_INSTANCES = {
    2: ((2, 1, 2), (2, 1, 2), (1, 1, 1)),
    3: ((3, 3, 1), (3, 3, 1), (2, 2, 2)),
}


def _f3_instance(p, unram):
    params = FieldParams(p, 1, 3)
    r, chi1_exps, chi2_exps = F3_INSTANCES[p]
    chi1 = character(params, chi1_exps, unram=unram)
    chi2 = character(params, chi2_exps)
    return params, ts_profile(params, r, chi1, chi2), char_quotient(params, chi1, chi2)


@pytest.mark.parametrize(
    "p, unram, degree",
    [(2, UnramifiedPart(18, 13797), 18), (3, UnramifiedPart(12, 7280), 12)],
    ids=["p2-degree18", "p3-degree12"],
)
def test_rederive_over_large_coefficient_fields(p, unram, degree):
    """Values of order 19 and 73, whose fields F_p(a) are F_{2^18} and F_{3^12}."""
    params, prof, quot = _f3_instance(p, unram)
    assert quot.unram.order_field_degree == degree
    got = rederive_jvah(params, prof, quot)
    assert got == j_v_ah(params, prof, quot) == j_v_ah_bruteforce(params, prof, quot)
    assert len(got) == 3


def _agrees_with_the_lcm_field(points) -> int:
    """On each (grid point, part of chi1) with a shift subset, the oracle
    over F_p(a) and over the lcm-degree field give the same labels; the
    number of such points."""
    checked = 0
    for spec, part in points:
        try:
            params, _, _, chi, profile = io_cli._grid_instance(spec, part)
        except NoValidShift:
            continue
        want = oracle_reference.rederive_jvah_lcm(params, profile, chi)
        assert rederive_jvah(params, profile, chi) == want, (spec, part)
        checked += 1
    return checked


def test_lcm_field_agrees_on_the_verify_oracle_grid():
    """The oracle grid of ``verify --with-oracle``, with its parts of chi1;
    398 (point, part) pairs have a shift subset."""
    points = [
        (spec, part)
        for cell in io_cli._grid_cells(3, 2, 2)
        for spec in io_cli._cell_instances(cell)
        for part in io_cli._ORACLE_MUS[cell[0]]
    ]
    assert _agrees_with_the_lcm_field(points) == 398


@pytest.mark.parametrize(
    "p, unram, degree",
    [(2, UnramifiedPart(2, 1), 18), (3, UnramifiedPart(2, 2), 12)],
    ids=["p2-degree18", "p3-degree12"],
)
def test_lcm_field_agrees_on_the_large_field_parts(p, unram, degree):
    """Values of order 3 and 4 at f = 3, which the lcm-degree field puts
    in F_{2^18} and F_{3^12}, and F_p(a) in F_4 and F_9."""
    params, prof, quot = _f3_instance(p, unram)
    assert oracle_reference.lcm_degree(params, quot) == degree
    assert quot.unram.order_field_degree == 2
    want = oracle_reference.rederive_jvah_lcm(params, prof, quot)
    assert rederive_jvah(params, prof, quot) == want == j_v_ah(params, prof, quot)


# The cells of the wider grid, past the p <= 3, e <= 2, f <= 2 grid of
# ``verify --with-oracle``.
WIDE_CELLS = [(5, 3, 3), (7, 1, 3), (7, 2, 2), (7, 3, 3), (3, 1, 4)]


def _three_routes_agree(specs, part=UnramifiedPart(1, 1)) -> int:
    """On each grid point with a shift subset, chi1 with unramified part
    ``part`` (by default of order p - 1), the oracle, the constructive route
    and the brute-force witness search give the same labels; the number of
    such points."""
    checked = 0
    for spec in specs:
        try:
            params, _, _, chi, profile = io_cli._grid_instance(spec, part)
        except NoValidShift:
            continue
        want = j_v_ah(params, profile, chi)
        assert rederive_jvah(params, profile, chi) == want, spec
        assert j_v_ah_bruteforce(params, profile, chi) == want, spec
        checked += 1
    return checked


def test_three_routes_agree_on_the_wider_grid():
    """Every 97th point of the wider cells."""
    specs = [spec for cell in WIDE_CELLS for spec in io_cli._cell_instances(cell)]
    assert _three_routes_agree(specs[::97]) == 577


def test_lcm_field_agrees_on_the_wider_grid():
    """The same every 97th point of the wider cells, part ``1:1``."""
    specs = [spec for cell in WIDE_CELLS for spec in io_cli._cell_instances(cell)]
    points = [(spec, UnramifiedPart(1, 1)) for spec in specs[::97]]
    assert _agrees_with_the_lcm_field(points) == 577


def test_bruteforce_matches_the_per_label_scan_on_the_wider_grid():
    """Every 97th point of the wider cells, at every admissible e_M: the
    witness list built once per call gives the labels of one any() per
    label; the number of (point, e_M) pairs compared is pinned."""
    specs = [spec for cell in WIDE_CELLS for spec in io_cli._cell_instances(cell)]
    compared = labelled = 0
    for spec in specs[::97]:
        try:
            params, _, _, chi, profile = io_cli._grid_instance(spec)
        except NoValidShift:
            continue
        q1 = params.tame_order
        common = gcd(q1, *n_values(params, chi.signature))
        for e_m in (q1 // d for d in range(1, common + 1) if common % d == 0):
            want = scan_reference.j_v_ah_bruteforce_scan(params, profile, chi, e_m)
            assert j_v_ah_bruteforce(params, profile, chi, e_m) == want, (spec, e_m)
            compared += 1
            labelled += bool(want)
    assert (compared, labelled) == (1259, 1243)


# (e, f, points with a shift subset) of the p = 7, e <= 3, f <= 3 cells.
P7_CELLS = [
    (1, 1, 13), (1, 2, 193), (1, 3, 2698),
    (2, 1, 23), (2, 2, 631), (2, 3, 16022),
    (3, 1, 31), (3, 2, 1171), (3, 3, 40609),
]


@pytest.mark.slow
@pytest.mark.parametrize("e, f, points", P7_CELLS)
def test_three_routes_agree_on_the_full_p7_grid(e, f, points):
    """Every point of the p = 7, e <= 3, f <= 3 cells, one cell a test."""
    assert _three_routes_agree(io_cli._cell_instances((7, e, f))) == points


# (p, e, f, points of every 7th with a shift subset, points of all): cells
# with e >= p - 1, the ramified regime of the paper, where the p-th roots of
# unity can lie in the base when (p - 1) | e.
RAMIFIED_CELLS = [
    (5, 4, 1, 3, 20), (5, 4, 2, 83, 588), (5, 8, 2, 86, 600),
    (7, 6, 1, 6, 42), (7, 6, 2, 331, 2322),
    (11, 10, 1, 16, 110), (13, 12, 1, 23, 156),
]
RAMIFIED_PARTS = [UnramifiedPart(1, 1), UnramifiedPart(2, 1)]


@pytest.mark.parametrize("p, e, f, sampled, _", RAMIFIED_CELLS)
def test_three_routes_agree_in_the_ramified_regime(p, e, f, sampled, _):
    """Every 7th point, chi1 with a part of degree 1 and one of degree 2."""
    specs = io_cli._cell_instances((p, e, f))[::7]
    for part in RAMIFIED_PARTS:
        assert _three_routes_agree(specs, part) == sampled


@pytest.mark.slow
@pytest.mark.parametrize("p, e, f, _, points", RAMIFIED_CELLS)
def test_three_routes_agree_on_the_full_ramified_cells(p, e, f, _, points):
    for part in RAMIFIED_PARTS:
        assert _three_routes_agree(io_cli._cell_instances((p, e, f)), part) == points
