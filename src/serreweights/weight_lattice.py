"""Weights, twist normalization, and the shift profile (t, s, I, xi).

A weight is a pair of integer tuples (eta, theta) indexed by the embeddings,
with theta and eta - theta entrywise in [0, p-1] and theta < p-1 somewhere.
Twisting reduces everything to theta = 0, where the relevant data is the
tuple r = eta + 1 with entries in [1, p].

Given r and the inertial exponents m of the second diagonal character, the
profile is found by shifting m along the vectors v_i (subtract 1 in slot i,
add p in slot i+1; these do not change the inertial class) by the unique
containment-least subset J for which the shifted tuple lands entrywise in
[0, e-1] union [r_i, r_i + e-1].  That shifted tuple is t, its reflection
s_i = r_i + e - 1 - t_i gives the companion exponents, and each index
carries an interval I_i of admissible depths together with the integer

    xi_i = (p^f - 1) s_i + sum_j (s_{i+1+j} - t_{i+1+j}) p^{f-1-j},

which is congruent to the twisted digit sum n_i of chi = chi1/chi2 whenever
the characters are consistent with the profile.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, List, NamedTuple, Tuple

from .errors import (
    ChiMismatch,
    InternalInvariantViolation,
    InvalidInput,
    InvariantError,
    MinimalityAmbiguous,
    NoValidShift,
)
from .tame_chars import (
    CharacterData,
    FieldParams,
    TameSignature,
    _slot_digits,
    _twisted_sums,
    character,
    exponent_class,
    signature_class,
)

# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


class SerreWeight(NamedTuple):
    """Highest-weight data (eta, theta) indexed by the f embeddings."""

    eta: Tuple[int, ...]
    theta: Tuple[int, ...]


def validate_weight(params: FieldParams, weight: SerreWeight) -> None:
    p, f = params.p, params.f
    if len(weight.eta) != f or len(weight.theta) != f:
        raise InvariantError(f"weight tuples must have length f = {f}")
    for eta_i, theta_i in zip(weight.eta, weight.theta):
        if not 0 <= theta_i <= p - 1:
            raise InvariantError(f"theta entries must lie in [0, p-1]: {weight.theta}")
        if not 0 <= eta_i - theta_i <= p - 1:
            raise InvariantError(
                f"eta - theta entries must lie in [0, p-1]: {weight.eta}"
            )
    if all(theta_i == p - 1 for theta_i in weight.theta):
        raise InvariantError("theta must be < p-1 in at least one slot")


def weight_from_r(params: FieldParams, r: Tuple[int, ...]) -> SerreWeight:
    """The normalized weight with eta = r - 1 and theta = 0."""
    _validate_r(params, r)
    return SerreWeight(tuple(ri - 1 for ri in r), (0,) * params.f)


def _validate_r(params: FieldParams, r: Tuple[int, ...]) -> None:
    if len(r) != params.f:
        raise InvalidInput(f"r must have length f = {params.f}")
    if any(not 1 <= ri <= params.p for ri in r):
        raise InvalidInput(f"r entries must lie in [1, p]: {r}")


def twist_normalize(
    params: FieldParams,
    weight: SerreWeight,
    chi1: CharacterData,
    chi2: CharacterData,
) -> Tuple[SerreWeight, CharacterData, CharacterData]:
    """Replace (V, chi1, chi2) by the theta = 0 twist with the same subspace.

    Both characters are multiplied by the inverse theta-twist; the quotient
    chi1/chi2 is unchanged.  Unramified parts are untouched because the
    twist is inertial.  A character's cyclotomic declaration survives only
    when the twist has trivial inertial class (then nothing moved).

    With theta entries in [0, p-1], not all p-1, the twist class is 0 only
    at theta = 0, and there the characters are returned as they came: a
    rebuilt record would have the same signature, unramified part and
    declarations, and records are trusted (see ``CharacterData``).
    """
    validate_weight(params, weight)
    normalized = SerreWeight(
        tuple(eta_i - theta_i for eta_i, theta_i in zip(weight.eta, weight.theta)),
        (0,) * params.f,
    )
    twist_class = exponent_class(params, weight.theta)
    if twist_class == 0:
        return normalized, chi1, chi2

    def twist(chi: CharacterData) -> CharacterData:
        cls = signature_class(params, chi.signature) - twist_class
        return character(params, (cls,) + (0,) * (params.f - 1), unram=chi.unram)

    return normalized, twist(chi1), twist(chi2)


# ---------------------------------------------------------------------------
# Reduced exponents and shift vectors
# ---------------------------------------------------------------------------


def reduced_exponents(params: FieldParams, chi2: CharacterData) -> Tuple[int, ...]:
    """Inertial exponents of chi2 reduced to [0, p-1]^f, not all p-1.

    This is the unique such tuple in the class of chi2's signature; it is
    the m-tuple that the shift machinery starts from.
    """
    cls = signature_class(params, chi2.signature)  # in [0, p^f - 2]
    return tuple(_slot_digits(params.p, params.f, cls))


def shift_vector(params: FieldParams, i: int) -> Tuple[int, ...]:
    """v_i: subtract 1 in slot i, add p in slot i+1 (indices mod f).

    Adding v_i does not change the inertial class of an exponent tuple.
    """
    f = params.f
    if not 0 <= i < f:
        raise InvalidInput(f"shift index must lie in [0, f), got {i}")
    v = [0] * f
    v[i] -= 1
    v[(i + 1) % f] += params.p
    return tuple(v)


def _admissible(e: int, ri: int, x: int) -> bool:
    """Whether x lies in [0, e-1] union [r_i, r_i+e-1]."""
    return 0 <= x < e or ri <= x < ri + e


def _validate_reduced(params: FieldParams, exps: Tuple[int, ...]) -> None:
    if len(exps) != params.f:
        raise InvalidInput(f"exponent tuple must have length f = {params.f}")
    if any(not 0 <= c <= params.p - 1 for c in exps):
        raise InvalidInput(f"reduced exponents must lie in [0, p-1]: {exps}")
    if all(c == params.p - 1 for c in exps):
        raise InvalidInput("the all-(p-1) reduced tuple is excluded")


def minimal_shift_set(
    params: FieldParams, weight_r: Tuple[int, ...], chi2_exps: Tuple[int, ...]
) -> FrozenSet[int]:
    """The containment-least subset J with m + sum_{i in J} v_i admissible.

    Adding v_i subtracts 1 in slot i and adds p in slot i+1, and never moves
    the inertial class, so a subset is tested entrywise against
    [0, e-1] union [r_i, r_i+e-1] with no class computation.

    Raises NoValidShift when no subset works and MinimalityAmbiguous when no
    single valid subset is contained in all others.
    """
    _validate_r(params, weight_r)
    _validate_reduced(params, chi2_exps)
    least = _least_shift(params, weight_r, chi2_exps)
    return frozenset(i for i in range(params.f) if least >> i & 1)


def _least_shift(
    params: FieldParams, weight_r: Tuple[int, ...], chi2_exps: Tuple[int, ...]
) -> int:
    """``minimal_shift_set`` on checked inputs, as a mask: bit i is v_i.

    Slot i of m + sum_{i in J} v_i is m_i - [i in J] + p [i-1 in J], so it
    reads only bits i-1 and i of J, and a valid mask is a closed walk of f
    steps over the bit values {0, 1}.  ``step[i]`` maps the set of values
    bit i-1 may take (bit a of the index is value a) to the set bit i may
    then take.  The least mask, if any, is the intersection of the valid
    ones: bit i is in it when no closed walk through bit i = 0 exists.
    """
    p, e, f = params.p, params.e, params.f
    step = []
    for c, ri in zip(chi2_exps, weight_r):
        after0 = _admissible(e, ri, c) | _admissible(e, ri, c - 1) << 1
        after1 = _admissible(e, ri, c + p) | _admissible(e, ri, c - 1 + p) << 1
        if not after0 | after1:
            break  # this slot admits no pair of bits, so no mask is valid
        step.append((0, after0, after1, after0 | after1))
    else:
        least = 0
        for i in range(f):
            values = 1
            for k in range(i + 1 - f, i + 1):
                values = step[k][values]
            if not values & 1:
                least |= 1 << i
        if _walks(step, least):
            return least
        if least != (1 << f) - 1:  # a walk clears some bit: a mask is valid
            subsets = sorted(
                sorted(i for i in range(f) if mask >> i & 1)
                for mask in range(1 << f)
                if _walks(step, mask)
            )
            raise MinimalityAmbiguous(
                f"valid shift subsets {subsets} have no least element"
            )
    raise NoValidShift(
        f"no shift subset reaches the admissible set for r={weight_r}"
    )


def _walks(step: List[Tuple[int, ...]], mask: int) -> bool:
    """Whether the mask's bits are a closed walk through ``step``."""
    prev = mask >> (len(step) - 1) & 1
    for i, row in enumerate(step):
        bit = mask >> i & 1
        if not row[1 << prev] >> bit & 1:
            return False
        prev = bit
    return True


# ---------------------------------------------------------------------------
# The full profile
# ---------------------------------------------------------------------------


class WeightProfile(NamedTuple):
    """Shift data attached to a normalized weight and character pair."""

    r: Tuple[int, ...]
    t: Tuple[int, ...]
    s: Tuple[int, ...]
    intervals: Tuple[Tuple[int, ...], ...]
    xi: Tuple[int, ...]
    j_min: FrozenSet[int]

    def interval_total(self) -> int:
        return sum(len(I) for I in self.intervals)


def ts_profile(
    params: FieldParams,
    weight_r: Tuple[int, ...],
    chi1: CharacterData,
    chi2: CharacterData,
) -> WeightProfile:
    """Compute (t, s, I, xi) for the normalized weight r and the given pair.

    A digit signature is determined by its class modulo p^f - 1, so the
    profile matches the pair exactly when s - t has the class of chi1 less
    that of chi2; otherwise ChiMismatch.  Only inertial classes are compared:
    the unramified parts do not enter, and no quotient character is built.
    """
    return _ts_profile(params, tuple(weight_r), chi1.signature, chi2.signature)


# The bound of the ``_ts_profile`` memo.  ``l_v_ah`` derives the profile
# that the verify grid built for the same point just before it; 32 leaves
# room for callers that interleave a few points.  The key holds the two
# signatures, not the records, so the unramified parts of chi1 at one point
# share a profile.  One verify call asks for thousands of distinct profiles,
# so none is left for the next call.
_PROFILE_MEMO = 32


@lru_cache(maxsize=_PROFILE_MEMO)
def _ts_profile(
    params: FieldParams,
    weight_r: Tuple[int, ...],
    sig1: TameSignature,
    sig2: TameSignature,
) -> WeightProfile:
    """``ts_profile`` keyed by what it reads; a raise is not cached."""
    _validate_r(params, weight_r)
    p, e, f = params.p, params.e, params.f
    cls2 = signature_class(params, sig2)
    m = _slot_digits(p, f, cls2)  # chi2's reduced exponents, in range by construction
    least = _least_shift(params, weight_r, m)
    j_min = frozenset(i for i in range(f) if least >> i & 1)
    t = tuple(
        c - (least >> i & 1) + p * (least >> (i - 1) % f & 1) for i, c in enumerate(m)
    )
    s = tuple(ri + e - 1 - ti for ri, ti in zip(weight_r, t))
    for i, (ri, ti, si) in enumerate(zip(weight_r, t, s)):
        if not (_admissible(e, ri, ti) and _admissible(e, ri, si)):
            raise InternalInvariantViolation(
                f"t_{i}={ti}, s_{i}={si} escape [0,e-1] union [r,r+e-1] for r={ri}"
            )
    intervals = []
    for ri, ti, si in zip(weight_r, t, s):
        if ti >= ri:
            intervals.append(tuple(range(si)))
        else:
            intervals.append((ti,) + tuple(range(ri, si)))
    q1 = params.tame_order
    # xi_i is (p^f - 1) s_i plus the i-th twisted digit sum of s - t.  The
    # sums satisfy n_{i+1} = p n_i mod p^f - 1, as chi's n-values do, so
    # once the 0-th sum, the exponent class of s - t, is chi's class, each
    # xi_i is congruent to chi's n_i.
    tails = _twisted_sums(p, f, [si - ti for si, ti in zip(s, t)])
    xi = [q1 * si + tail for si, tail in zip(s, tails)]
    if tails[0] % q1 != (signature_class(params, sig1) - cls2) % q1:
        raise ChiMismatch(
            "chi1/chi2 is not the character cut out by the shift profile"
        )
    return WeightProfile(weight_r, t, s, tuple(intervals), tuple(xi), j_min)
