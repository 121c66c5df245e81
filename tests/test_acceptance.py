"""Acceptance scoreboard: twelve headline identities, one printed line each.

Every test prints exactly one summary line of the form

    ACCEPTANCE criterion-NN PASS|FAIL: <detail>

and then asserts; the lines bypass capture, so plain ``pytest`` already
shows the full scoreboard.  The default grid G runs over p in {2, 3, 5}
and e, f in {1, 2, 3}, with every inertial class of chi_2 and every
r-tuple with entries in [1, p].  chi_1's inertial class is forced by the
shift profile (the class of s - t is the same for every valid subset), so
G enumerates exactly the pairs that can ever feed a weight profile.
"""

from fractions import Fraction
from itertools import product
from multiprocessing import Pool, cpu_count

import pytest

import oracles
from oracle_reference import artin_hasse_mod_p, artin_hasse_rational
from serreweights import (
    FieldParams,
    SerreWeight,
    SerreWeightsError,
    UnramifiedPart,
    basis_labels,
    char_quotient,
    character,
    cyclotomic_inertia_signature,
    h1_dimension,
    j_v_ah,
    j_v_ah_bruteforce,
    jump_profile,
    l_v_ah,
    niveau,
    rederive_jvah,
    reduced_exponents,
    ts_profile,
    w_prime,
    weight_from_r,
    window_cardinality,
)
from serreweights._gf import field
from serreweights.series_oracle import LaurentElement, TensorAlgebra, dlog_truncated

PRIMES = (2, 3, 5)
SIZES = (1, 2, 3)


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE criterion-{number:02d} {verdict}: {detail}")
    assert ok, detail


def _scan(instances, check):
    """Run ``check`` over instances; collect message strings for failures."""
    bad = []
    for params, chi in instances:
        try:
            err = check(params, chi)
        except SerreWeightsError as exc:
            err = repr(exc)
        if err:
            bad.append(f"p={params.p} e={params.e} f={params.f} {chi.signature.a}: {err}")
    return bad


def _verdict(capsys, number, bad, ok_detail):
    if bad:
        _report(capsys, number, False, f"{len(bad)} failures, first: {bad[0]}")
    else:
        _report(capsys, number, True, ok_detail)


# ---------------------------------------------------------------------------
# Criteria 1-4: single-character identities
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def char_scan():
    """Every inertial class at every (p, e, f), plus flag and mu variants."""
    out = []
    for p, e, f in product(PRIMES, SIZES, SIZES):
        params = FieldParams(p, e, f)
        mu = UnramifiedPart(1, 1) if p > 2 else UnramifiedPart(2, 1)
        cyc = cyclotomic_inertia_signature(params)
        for cls in range(params.tame_order):
            exps = (cls,) + (0,) * (f - 1)
            chi = character(params, exps)
            out.append((params, chi))
            out.append((params, character(params, exps, unram=mu)))
            if p > 2 and chi.signature == cyc:
                out.append((params, character(params, exps, cyclotomic=True)))
    return out


def test_criterion_01_dimension_sum(char_scan, capsys):
    def check(params, chi):
        total = sum(d for _, d in jump_profile(params, chi).entries)
        want = h1_dimension(params, chi)
        if total != want:
            return f"jump dimensions sum to {total}, h1 = {want}"
        return None

    bad = _scan(char_scan, check)
    _verdict(capsys, 1, bad, f"sum of d_s equals h1 on {len(char_scan)} characters")


def test_criterion_02_window_counts(char_scan, capsys):
    def check(params, chi):
        for j in range(params.e):
            got = window_cardinality(params, chi, j)
            if got != params.f:
                return f"window {j} holds {got} pairs, expected f = {params.f}"
        return None

    bad = _scan(char_scan, check)
    _verdict(
        capsys, 2, bad, f"every window holds exactly f pairs on {len(char_scan)} characters"
    )


def test_criterion_03_interior_jump_size(char_scan, capsys):
    counted = 0

    def check(params, chi):
        nonlocal counted
        _, f_dprime = niveau(params, chi.signature)
        top = 1 + Fraction(params.e * params.p, params.p - 1)
        for s, d in jump_profile(params, chi).entries:
            if 0 < s < top:
                counted += 1
                if d != f_dprime:
                    return f"jump at {s} has dimension {d}, expected f/f' = {f_dprime}"
        return None

    bad = _scan(char_scan, check)
    _verdict(capsys, 3, bad, f"all {counted} interior jumps have dimension f/f'")


def test_criterion_04_cardinalities(char_scan, capsys):
    def check(params, chi):
        f_prime, _ = niveau(params, chi.signature)
        if len(w_prime(params, chi)) != params.e * f_prime:
            return f"|W'| != e f' = {params.e * f_prime}"
        want = h1_dimension(params, chi)
        if len(basis_labels(params, chi)) != want:
            return f"basis has {len(basis_labels(params, chi))} labels, h1 = {want}"
        return None

    bad = _scan(char_scan, check)
    _verdict(
        capsys, 4, bad, f"|W'| = ef' and |basis| = h1 on {len(char_scan)} characters"
    )


# ---------------------------------------------------------------------------
# Criteria 5-8: the pair grid
# ---------------------------------------------------------------------------


def _forced_chi1(params, cls2, r, m, subsets, unram=UnramifiedPart()):
    """chi1 with the unique inertial class compatible with (r, chi2)."""
    t = list(m)
    for i in subsets[0]:
        for k, v in enumerate(oracles.shift_vec(params.p, params.f, i)):
            t[k] += v
    diff = [r[k] + params.e - 1 - 2 * t[k] for k in range(params.f)]
    cls1 = cls2 + oracles.exponent_class(params.p, params.f, diff)
    return character(params, (cls1,) + (0,) * (params.f - 1), unram=unram)


def _profile_errors(params, prof, r, nvals, subsets):
    p, e, f = params.p, params.e, params.f
    q1 = params.tame_order
    for i in range(f):
        pool = oracles.allowed_pool(e, r[i])
        if prof.s[i] + prof.t[i] != r[i] + e - 1:
            return f"s_{i} + t_{i} != r_{i} + e - 1"
        if prof.t[i] not in pool or prof.s[i] not in pool:
            return f"t_{i} = {prof.t[i]} or s_{i} = {prof.s[i]} escapes the pool"
        if set(prof.intervals[i]) != oracles.interval_set(r[i], prof.t[i], prof.s[i]):
            return f"I_{i} disagrees with the interval rule"
    if prof.xi != oracles.xi_direct(p, f, prof.t, prof.s):
        return "xi disagrees with the direct formula"
    if any((prof.xi[i] - nvals[i]) % q1 for i in range(f)):
        return "xi is not congruent to n mod p^f - 1"
    if prof.j_min not in subsets or not all(prof.j_min <= s for s in subsets):
        return "J_min is not the least valid shift subset"
    return None


def _pair_cell(cell):
    """Scan one (p, e, f) cell of G for criteria 5 through 8."""
    p, e, f = cell
    params = FieldParams(p, e, f)
    q1 = params.tame_order
    divisors = [d for d in range(1, q1 + 1) if q1 % d == 0]
    counts = {"pairs": 0, "skipped": 0, "em": 0}
    fails = {n: [] for n in (5, 6, 7, 8)}
    instances = []
    for cls2 in range(q1):
        chi2 = character(params, (cls2,) + (0,) * (f - 1))
        m = reduced_exponents(params, chi2)
        for r in product(range(1, p + 1), repeat=f):
            subsets = oracles.valid_shift_subsets(p, e, f, r, m)
            if not subsets:
                counts["skipped"] += 1
                continue
            counts["pairs"] += 1
            chi1 = _forced_chi1(params, cls2, r, m, subsets)
            tag = f"p={p} e={e} f={f} chi2={cls2} r={r}"
            try:
                prof = ts_profile(params, r, chi1, chi2)
            except SerreWeightsError as exc:
                fails[5].append(f"{tag}: profile raised {exc!r}")
                continue
            chi = char_quotient(params, chi1, chi2)
            nvals = [oracles.n_value(p, f, chi.signature.a, i) for i in range(f)]
            err = _profile_errors(params, prof, r, nvals, subsets)
            if err:
                fails[5].append(f"{tag}: {err}")
            try:
                jv = j_v_ah(params, prof, chi)
                bf = j_v_ah_bruteforce(params, prof, chi)
            except SerreWeightsError as exc:
                fails[6].append(f"{tag}: labels raised {exc!r}")
                continue
            total = prof.interval_total()
            if len(jv) != total:
                fails[6].append(f"{tag}: |J| = {len(jv)} != sum |I_i| = {total}")
            if jv != bf:
                fails[7].append(f"{tag}: constructive and bruteforce sets differ")
            for d in divisors:
                if any(ni % (q1 // d) for ni in nvals):
                    continue
                counts["em"] += 1
                if (
                    j_v_ah(params, prof, chi, d) != jv
                    or j_v_ah_bruteforce(params, prof, chi, d) != bf
                ):
                    fails[8].append(f"{tag}: e_M = {d} changes the label set")
            instances.append((p, e, f, cls2, r))
    return counts, fails, instances


@pytest.fixture(scope="module")
def grid_scan():
    """All of G in one sweep, parallel across cells when CPUs allow."""
    cells = list(product(PRIMES, SIZES, SIZES))
    if cpu_count() > 1:
        with Pool() as pool:
            parts = pool.map(_pair_cell, cells)
    else:
        parts = [_pair_cell(cell) for cell in cells]
    merged = {
        "pairs": 0,
        "skipped": 0,
        "em": 0,
        "fails": {n: [] for n in (5, 6, 7, 8)},
        "instances": [],
    }
    for counts, fails, instances in parts:
        for key in ("pairs", "skipped", "em"):
            merged[key] += counts[key]
        for n, messages in fails.items():
            merged["fails"][n].extend(messages)
        merged["instances"].extend(instances)
    return merged


def test_criterion_05_profile_identities(grid_scan, capsys):
    bad = grid_scan["fails"][5]
    _verdict(
        capsys,
        5,
        bad,
        f"t/s/I/xi/J_min identities hold on {grid_scan['pairs']} profiled pairs "
        f"({grid_scan['skipped']} admit no valid shift set)",
    )


def test_criterion_06_label_count(grid_scan, capsys):
    bad = grid_scan["fails"][6]
    _verdict(
        capsys, 6, bad, f"|J| equals sum of |I_i| on {grid_scan['pairs']} pairs"
    )


def test_criterion_07_bruteforce_agreement(grid_scan, capsys):
    bad = grid_scan["fails"][7]
    _verdict(
        capsys,
        7,
        bad,
        f"constructive and bruteforce label sets agree on {grid_scan['pairs']} pairs",
    )


def test_criterion_08_e_m_independence(grid_scan, capsys):
    bad = grid_scan["fails"][8]
    _verdict(
        capsys,
        8,
        bad,
        f"label sets identical across {grid_scan['em']} valid e_M choices",
    )


# ---------------------------------------------------------------------------
# Criterion 9: the explicit reciprocity oracle
# ---------------------------------------------------------------------------

# unramified parts of order 1, 3 at p = 2 and 1, 2, 4 at p = 3
MU_BY_P = {
    2: (UnramifiedPart(1, 0), UnramifiedPart(2, 1)),
    3: (UnramifiedPart(1, 0), UnramifiedPart(1, 1), UnramifiedPart(2, 2)),
}


def test_criterion_09_reciprocity_oracle(capsys):
    checked = 0
    bad = []
    for p, e, f in product((2, 3), (1, 2), (1, 2)):
        params = FieldParams(p, e, f)
        for cls2 in range(params.tame_order):
            chi2 = character(params, (cls2,) + (0,) * (f - 1))
            m = reduced_exponents(params, chi2)
            for r in product(range(1, p + 1), repeat=f):
                subsets = oracles.valid_shift_subsets(p, e, f, r, m)
                if not subsets:
                    continue
                for mu in MU_BY_P[p]:
                    chi1 = _forced_chi1(params, cls2, r, m, subsets, unram=mu)
                    prof = ts_profile(params, r, chi1, chi2)
                    chi = char_quotient(params, chi1, chi2)
                    checked += 1
                    if rederive_jvah(params, prof, chi) != j_v_ah(params, prof, chi):
                        bad.append(f"p={p} e={e} f={f} chi2={cls2} r={r} mu={mu}")
    _verdict(
        capsys,
        9,
        bad,
        f"residue pairings re-derive the label set on {checked} instances "
        "(unramified parts of order up to 4)",
    )


# ---------------------------------------------------------------------------
# Criterion 10: Artin-Hasse coefficient checks
# ---------------------------------------------------------------------------


def test_criterion_10_artin_hasse(capsys):
    bound = 60
    bad = []
    for p in PRIMES:
        coeffs = artin_hasse_rational(p, bound)
        if any(c.denominator % p == 0 for c in coeffs):
            bad.append(f"p={p}: coefficient with p in the denominator")
        # artin_hasse_mod_p cross-checks the exponential recurrence against
        # the Moebius product internally, so a route split raises here
        reduced = artin_hasse_mod_p(p, bound)
        if any(
            (c.numerator * pow(c.denominator, -1, p)) % p != rc
            for c, rc in zip(coeffs, reduced)
        ):
            bad.append(f"p={p}: rational and mod-p coefficients disagree")
        fq = field(p, 1)
        alg = TensorAlgebra(fq, 1)
        series = LaurentElement(
            {d: (fq.scalar(c),) for d, c in enumerate(reduced) if c}, trunc=bound
        )
        expect = {}
        n = 1
        while n <= bound:
            expect[n] = (fq.one,)
            n *= p
        if dlog_truncated(alg, series).coeffs != expect:
            bad.append(f"p={p}: u E'/E != sum of u^(p^n) mod (p, u^61)")
    _verdict(
        capsys,
        10,
        bad,
        "p-integrality, route agreement, and the dlog identity hold for "
        "p in {2, 3, 5} up to degree 60",
    )


# ---------------------------------------------------------------------------
# Criterion 11: twist invariance of the distinguished subspace
# ---------------------------------------------------------------------------


def test_criterion_11_twist_invariance(grid_scan, capsys):
    sample = grid_scan["instances"][::17]
    bad = []
    for index, (p, e, f, cls2, r) in enumerate(sample):
        params = FieldParams(p, e, f)
        chi2 = character(params, (cls2,) + (0,) * (f - 1))
        m = reduced_exponents(params, chi2)
        subsets = oracles.valid_shift_subsets(p, e, f, r, m)
        chi1 = _forced_chi1(params, cls2, r, m, subsets)
        base = l_v_ah(params, weight_from_r(params, r), chi1, chi2)
        if p > 2:
            theta = tuple((index + i) % (p - 1) for i in range(f))
        elif f > 1:
            # all-ones theta is out of the weight lattice at p = 2
            theta = tuple(1 if i == index % f else 0 for i in range(f))
        else:
            theta = (0,)
        shift = oracles.exponent_class(p, f, theta)
        twisted = SerreWeight(tuple(ri - 1 + th for ri, th in zip(r, theta)), theta)
        cls1 = oracles.signature_class(p, f, chi1.signature.a)
        tchi1 = character(params, (cls1 + shift,) + (0,) * (f - 1))
        tchi2 = character(params, (cls2 + shift,) + (0,) * (f - 1))
        got = l_v_ah(params, twisted, tchi1, tchi2)
        same = (
            got.labels == base.labels
            and got.exceptional == base.exceptional
            and got.dimension == base.dimension
            and got.extra_degree == base.extra_degree
        )
        if not same:
            bad.append(f"p={p} e={e} f={f} chi2={cls2} r={r} theta={theta}")
    _verdict(
        capsys, 11, bad, f"l_v_ah is twist invariant on {len(sample)} sampled instances"
    )


# ---------------------------------------------------------------------------
# Criterion 12: the three fully worked instances
# ---------------------------------------------------------------------------

WORKED = (
    {
        "p": 3, "e": 2, "f": 1, "r": (2,), "chi1": (2,), "chi2": (1,),
        "labels": {(1, 0)}, "j_min": frozenset(),
    },
    {
        "p": 3, "e": 1, "f": 2, "r": (2, 1), "chi1": (5, 0), "chi2": (0, 0),
        "labels": {(5, 0), (7, 0)}, "j_min": frozenset(),
    },
    {
        "p": 3, "e": 1, "f": 1, "r": (3,), "chi1": (2,), "chi2": (1,),
        "labels": set(), "j_min": frozenset({0}),
    },
)


def test_criterion_12_worked_fixtures(capsys):
    bad = []
    for fx in WORKED:
        p, e, f, r = fx["p"], fx["e"], fx["f"], fx["r"]
        params = FieldParams(p, e, f)
        chi1 = character(params, fx["chi1"])
        chi2 = character(params, fx["chi2"])
        chi = char_quotient(params, chi1, chi2)
        tag = f"p={p} e={e} f={f} r={r}"
        # independent route first: profile and witness search from scratch
        m = reduced_exponents(params, chi2)
        subsets = oracles.valid_shift_subsets(p, e, f, r, m)
        least = [sub for sub in subsets if all(sub <= other for other in subsets)]
        if len(least) != 1 or least[0] != fx["j_min"]:
            bad.append(f"{tag}: shift subsets disagree with the frozen J_min")
            continue
        t = list(m)
        for i in least[0]:
            for k, v in enumerate(oracles.shift_vec(p, f, i)):
                t[k] += v
        s = [r[k] + e - 1 - t[k] for k in range(f)]
        intervals = [sorted(oracles.interval_set(r[k], t[k], s[k])) for k in range(f)]
        xi = oracles.xi_direct(p, f, t, s)
        witness = oracles.jvah_witness_search(
            p, e, f, chi.signature.a, xi, intervals, params.tame_order
        )
        if witness != fx["labels"]:
            bad.append(f"{tag}: witness search found {sorted(witness)}")
            continue
        # the package must reproduce the confirmed values exactly
        prof = ts_profile(params, r, chi1, chi2)
        got = {(lbl.m, lbl.k) for lbl in j_v_ah(params, prof, chi)}
        if got != fx["labels"] or prof.j_min != fx["j_min"]:
            bad.append(f"{tag}: package found {sorted(got)}, J_min {sorted(prof.j_min)}")
    _verdict(
        capsys, 12, bad, "all three worked instances reproduce their frozen label sets"
    )
