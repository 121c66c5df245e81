"""The scan versions of the closed-form hot path, kept as test oracles.

The package enumerates the progressions m = n_i (mod p^f - 1) directly,
reads n-values, niveau and the residue-to-index map from one cached record
per signature, finds the least shift subset by walking around the f slots
once per bit, and lists the brute-force witnesses once per call.  The
versions here are the ones that came before: every m in (0, e*p*R) is
tested, n-values and niveau are recomputed from the digit signature on
every call, shifted tuples are looked up in the candidate product of
``candidate_set`` or tested one mask and one slot at a time, the
brute-force route runs one any() over every witness for each label
alpha = (m, k), the least field of an unramified value is found by trying
every degree r = 1, 2, ... in turn, and primality is decided by trial
division.  Of the package they use only its data types, its exceptions,
``exponent_class``, the admissibility predicate and the input checks of
``minimal_shift_set``.
"""

from fractions import Fraction
from itertools import product
from math import gcd
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from serreweights import (
    BasisLabel,
    CharacterData,
    FieldParams,
    InternalInvariantViolation,
    MinimalityAmbiguous,
    NoMatchingIndex,
    NoValidShift,
    TameSignature,
    UnramifiedPart,
    WeightProfile,
    exponent_class,
)
from serreweights import weight_lattice


def n_values_scan(params: FieldParams, sig: TameSignature) -> Tuple[int, ...]:
    p, f = params.p, params.f
    a = sig.a
    return tuple(
        sum(a[(i + j) % f] * p ** (f - j) for j in range(1, f + 1)) for i in range(f)
    )


def rotate(sig: TameSignature, steps: int = 1) -> TameSignature:
    """Frobenius action: (a_0, ..., a_{f-1}) -> (a_1, ..., a_{f-1}, a_0)."""
    steps %= len(sig.a)
    return TameSignature(sig.a[steps:] + sig.a[:steps])


def niveau_scan(params: FieldParams, sig: TameSignature) -> Tuple[int, int]:
    f = params.f
    for d in range(1, f + 1):
        if f % d == 0 and rotate(sig, d) == sig:
            return d, f // d
    raise AssertionError("rotation by f always fixes the signature")


def _matching_indices(n: Tuple[int, ...], q1: int, m: int) -> int:
    return sum(1 for ni in n if (m - ni) % q1 == 0)


def jump_entries_scan(
    params: FieldParams, chi: CharacterData
) -> Tuple[Tuple[Fraction, int], ...]:
    """Every jump, testing each m in (0, e*p*R) that p does not divide."""
    p, q1 = params.p, params.tame_order
    n = n_values_scan(params, chi.signature)
    entries = []
    if chi.declared_trivial:
        entries.append((Fraction(0), 1))
    for m in range(1, params.e * p * params.repunit):
        if m % p == 0:
            continue
        d = _matching_indices(n, q1, m)
        if d:
            entries.append((1 + Fraction(m, q1), d))
    if chi.declared_cyclotomic:
        entries.append((1 + Fraction(params.e * p, p - 1), 1))
    return tuple(entries)


def window_cardinality_scan(params: FieldParams, chi: CharacterData, j: int) -> int:
    n = n_values_scan(params, chi.signature)
    lo = j * params.p * params.repunit
    hi = (j + 1) * params.p * params.repunit
    return sum(
        _matching_indices(n, params.tame_order, m)
        for m in range(lo + 1, hi)
        if m % params.p
    )


def w_prime_scan(params: FieldParams, chi: CharacterData) -> Tuple[int, ...]:
    q1 = params.tame_order
    residues = {ni % q1 for ni in n_values_scan(params, chi.signature)}
    top = params.e * params.p * params.repunit
    return tuple(m for m in range(1, top) if m % params.p and m % q1 in residues)


def i_m_index_scan(params: FieldParams, chi: CharacterData, m: int) -> int:
    q1 = params.tame_order
    n = n_values_scan(params, chi.signature)
    f_prime, _ = niveau_scan(params, chi.signature)
    matches = [i for i in range(f_prime) if (m - n[i]) % q1 == 0]
    if not matches:
        raise NoMatchingIndex(f"m = {m} matches no n_i of {chi.signature.a}")
    if len(matches) > 1:
        raise InternalInvariantViolation(
            f"n_0..n_{f_prime - 1} are not distinct mod {q1}"
        )
    return matches[0]


def candidate_set(
    params: FieldParams, weight_r: Tuple[int, ...], chi2_exps: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], ...]:
    """All tuples entrywise in [0, e-1] union [r_i, r_i+e-1] in chi2's class.

    The package's admissibility test is looked up on its module at each
    call, so a test that narrows it narrows this product too.
    """
    weight_lattice._validate_r(params, weight_r)
    weight_lattice._validate_reduced(params, chi2_exps)
    target = exponent_class(params, chi2_exps)
    e = params.e
    admissible = weight_lattice._admissible
    pools = [[x for x in range(ri + e) if admissible(e, ri, x)] for ri in weight_r]
    return tuple(
        cand
        for cand in product(*pools)
        if exponent_class(params, cand) == target
    )


def candidates_by_class(
    params: FieldParams, weight_r: Tuple[int, ...]
) -> Dict[int, Set[Tuple[int, ...]]]:
    """The product ``candidate_set`` filters, grouped by inertial class, so a
    grid over every chi2 builds it once per r instead of once per (r, chi2)."""
    e = params.e
    pools = [sorted(set(range(e)) | set(range(ri, ri + e))) for ri in weight_r]
    out: Dict[int, Set[Tuple[int, ...]]] = {}
    for cand in product(*pools):
        out.setdefault(exponent_class(params, cand), set()).add(cand)
    return out


def minimal_shift_set_scan(
    params: FieldParams,
    weight_r: Tuple[int, ...],
    chi2_exps: Tuple[int, ...],
    cands: Optional[Set[Tuple[int, ...]]] = None,
) -> FrozenSet[int]:
    """Membership of each shifted tuple in the class's candidate set.

    ``cands`` defaults to ``candidate_set`` (which also validates the input);
    a caller may pass the same set from ``candidates_by_class``.
    """
    if cands is None:
        cands = set(candidate_set(params, weight_r, chi2_exps))
    p, f = params.p, params.f
    valid: List[FrozenSet[int]] = []
    for mask in range(1 << f):
        shifted = list(chi2_exps)
        for i in range(f):
            if mask >> i & 1:
                shifted[i] -= 1
                shifted[(i + 1) % f] += p
        if tuple(shifted) in cands:
            valid.append(frozenset(i for i in range(f) if mask >> i & 1))
    if not valid:
        raise NoValidShift(
            f"no shift subset reaches the admissible set for r={weight_r}"
        )
    least = min(valid, key=lambda J: (len(J), sorted(J)))
    if any(not least <= J for J in valid):
        raise MinimalityAmbiguous(
            f"valid shift subsets {sorted(map(sorted, valid))} have no least element"
        )
    return least


def least_shift_scan(
    params: FieldParams, weight_r: Tuple[int, ...], chi2_exps: Tuple[int, ...]
) -> int:
    """The least shift subset as a mask, one mask and one slot at a time;
    raises as ``minimal_shift_set`` does, with the same messages."""
    p, e, f = params.p, params.e, params.f
    admissible = weight_lattice._admissible
    valid = []
    for mask in range(1 << f):
        for i, (c, ri) in enumerate(zip(chi2_exps, weight_r)):
            shifted = c - (mask >> i & 1) + p * (mask >> (i - 1) % f & 1)
            if not admissible(e, ri, shifted):
                break
        else:
            valid.append(mask)
    if not valid:
        raise NoValidShift(
            f"no shift subset reaches the admissible set for r={weight_r}"
        )
    least = valid[0]
    for mask in valid:
        least &= mask
    if least not in valid:
        subsets = sorted(sorted(i for i in range(f) if mask >> i & 1) for mask in valid)
        raise MinimalityAmbiguous(
            f"valid shift subsets {subsets} have no least element"
        )
    return least


def j_v_ah_bruteforce_scan(
    params: FieldParams,
    profile: WeightProfile,
    chi: CharacterData,
    e_m: Optional[int] = None,
) -> FrozenSet[BasisLabel]:
    """The witness search with one any() over every (i, d, j) per label
    alpha = (m, k), W' and i_m from the scans above; e_M must be valid."""
    p, f = params.p, params.f
    q1 = params.tame_order
    if e_m is None:
        e_m = q1
    scale = q1 // e_m
    f_prime, f_dprime = niveau_scan(params, chi.signature)
    xi_scaled = tuple(xi * e_m // q1 for xi in profile.xi)
    j_bounds = []
    for xi in profile.xi:
        b = 0
        while p ** (b + 1) <= max(1, xi):
            b += 1
        j_bounds.append(b)
    labels = set()
    for m in w_prime_scan(params, chi):
        m_scaled = m // scale
        im = i_m_index_scan(params, chi, m)
        for k in range(f_dprime):
            if any(
                p**j * m_scaled == xi_scaled[i] - d * e_m
                and (im + k * f_prime - (i - j)) % f == 0
                for i in range(f)
                for d in profile.intervals[i]
                for j in range(j_bounds[i] + 1)
            ):
                labels.add(BasisLabel.alpha(m, k))
    return frozenset(labels)


def normalize_unram_scan(p: int, degree: int, dlog: int) -> UnramifiedPart:
    """The least r with the value's order dividing p^r - 1, by a linear scan."""
    big = p**degree - 1
    dlog %= big
    if dlog == 0:
        return UnramifiedPart(1, 0)
    order = big // gcd(big, dlog)
    r = 1
    while (p**r - 1) % order:
        r += 1
    return UnramifiedPart(r, dlog // (big // (p**r - 1)))


def is_prime_trial(n: int) -> bool:
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
