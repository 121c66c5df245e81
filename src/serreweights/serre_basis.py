"""Basis labels for H^1, the label subset J of a profile, and the subspace.

The cohomology group H^1(G_K, F_p-bar(chi)) has an explicit basis indexed by
W = W' x {0, ..., f''-1} together with an unramified class when chi is
trivial and a tres-ramifiee class when chi is cyclotomic.  Here W' is the
set of integers m in the union of the e open windows (j*pR, (j+1)*pR) with
p not dividing m and m congruent to one of the twisted digit sums n_i.

For a shift profile the distinguished label subset is computed two ways:

* constructively, one candidate per (i, d in I_i): strip the p-part of
  xi_i - d*(p^f - 1) and keep the quotient when it lands in a window;
* by brute force, literally searching for witnesses (i, d, j) of the two
  defining equations p^j m' = xi'_i - d*e_M and i_m + k f' = i - j mod f.

Both must agree, and their common cardinality must be sum_i |I_i|.
"""

from __future__ import annotations

from operator import sub
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from .errors import (
    InternalInvariantViolation,
    InvalidEM,
    InvalidInput,
    NoMatchingIndex,
)
from .tame_chars import (
    CharacterData,
    FieldParams,
    _Derived,
    _derived,
    _w_prime,
    char_quotient,
    exponent_class,
    is_unramified,
    n_values,
)
from .weight_lattice import SerreWeight, WeightProfile, ts_profile, twist_normalize

# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

_ALPHA = "alpha"
_UNRAMIFIED = "unramified"
_TRES_RAMIFIEE = "tres_ramifiee"


class BasisLabel(NamedTuple):
    """One basis class: either alpha = (m, k), or one of two special lines."""

    kind: str
    m: Optional[int] = None
    k: Optional[int] = None

    @staticmethod
    def alpha(m: int, k: int) -> "BasisLabel":
        return tuple.__new__(BasisLabel, (_ALPHA, m, k))

    @staticmethod
    def unramified() -> "BasisLabel":
        return BasisLabel(_UNRAMIFIED)

    @staticmethod
    def tres_ramifiee() -> "BasisLabel":
        return BasisLabel(_TRES_RAMIFIEE)

    @property
    def is_alpha(self) -> bool:
        return self.kind == _ALPHA

    def sort_key(self) -> Tuple[int, int, int]:
        if self.kind == _ALPHA:
            return (0, self.m, self.k)
        return (1 if self.kind == _UNRAMIFIED else 2, 0, 0)

    def __str__(self) -> str:
        if self.kind == _ALPHA:
            return f"alpha({self.m},{self.k})"
        return self.kind


# ---------------------------------------------------------------------------
# The index sets W' and W
# ---------------------------------------------------------------------------


def w_prime(params: FieldParams, chi: CharacterData) -> Tuple[int, ...]:
    """The interior jump numerators in (0, e*p*R), ascending; |W'| = e*f'.
    The tuple kept on chi's signature record, which the jumps also read."""
    return _w_prime(params, chi.signature)


def basis_labels(params: FieldParams, chi: CharacterData) -> Tuple[BasisLabel, ...]:
    """The full ordered basis of H^1: alphas, then the special classes.

    The alphas depend on the signature alone, so like W' they are built on
    the first call for it and kept on its cached record; the special
    classes come from chi's declarations on every call.
    """
    derived = _derived(params, chi.signature)
    if derived.alphas is None:
        f_dprime = derived.niveau[1]
        derived.alphas = tuple(  # W' ascends, so this is sort_key order
            BasisLabel.alpha(m, k)
            for m in w_prime(params, chi)
            for k in range(f_dprime)
        )
    labels = derived.alphas
    if chi.declared_trivial:
        labels += (BasisLabel.unramified(),)
    if chi.declared_cyclotomic:
        labels += (BasisLabel.tres_ramifiee(),)
    return labels


def i_m_index(params: FieldParams, chi: CharacterData, m: int) -> int:
    """The unique i in [0, f') with m congruent to n_i modulo p^f - 1."""
    i = _derived(params, chi.signature).index_of.get(m % params.tame_order)
    if i is None:
        raise NoMatchingIndex(f"m = {m} matches no n_i of {chi.signature.a}")
    return i


# ---------------------------------------------------------------------------
# The label subset of a profile
# ---------------------------------------------------------------------------


def validate_e_m(params: FieldParams, chi: CharacterData, e_m: int) -> None:
    """e_M must divide p^f - 1 with (p^f - 1)/e_M dividing every n_i."""
    _check_e_m(params, n_values(params, chi.signature), e_m)


def _check_e_m(params: FieldParams, n: Tuple[int, ...], e_m: int) -> None:
    """``validate_e_m`` against the n-values ``n`` of chi's record."""
    q1 = params.tame_order
    if e_m < 1 or q1 % e_m:
        raise InvalidEM(f"e_M = {e_m} does not divide p^f - 1 = {q1}")
    if e_m == q1:
        return  # cofactor 1 divides every n_i
    cofactor = q1 // e_m
    for ni in n:
        if ni % cofactor:
            raise InvalidEM(
                f"(p^f - 1)/e_M = {cofactor} does not divide n_i = {ni}"
            )


def _route_e_m(
    params: FieldParams, derived: _Derived, e_m: Optional[int],
    profile: Optional[WeightProfile] = None,
) -> int:
    """The entry check of the label routes: the e_M they run at (p^f - 1
    when not given), checked as ``validate_e_m`` checks it, with the
    profile's s - t, when given, in chi's class.  ``derived`` is chi's
    signature record, which each route fetches once; both checks read it.
    At e_M = p^f - 1 the cofactor is 1, which divides every n_i, so the
    e_M check would pass and is not run; the class test runs on every call
    that gives a profile."""
    q1 = params.tame_order
    if e_m is None:
        e_m = q1
    elif e_m != q1:
        _check_e_m(params, derived.n, e_m)
    if profile is not None:
        diff = tuple(map(sub, profile.s, profile.t))
        if exponent_class(params, diff) != derived.cls:
            raise InvalidInput("profile and character disagree on the quotient class")
    return e_m


def j_v_ah(
    params: FieldParams,
    profile: WeightProfile,
    chi: CharacterData,
    e_m: Optional[int] = None,
) -> FrozenSet[BasisLabel]:
    """Constructive label subset: one candidate per (i, d in I_i).

    The defining equations scale exactly by e_M/(p^f - 1), so after the
    divisibility checks the computation proceeds at full scale; the answer
    is the same for every valid e_M.
    """
    derived = _derived(params, chi.signature)
    e_m = _route_e_m(params, derived, e_m, profile)
    p, f = params.p, params.f
    q1, top = p**f - 1, params.window_top
    f_prime, f_dprime = derived.niveau
    found: Dict[BasisLabel, Tuple[int, int]] = {}
    for i in range(f):
        for d in profile.intervals[i]:
            x = profile.xi[i] - d * q1
            if x <= 0:
                # x = 0 is the trivial-chi extra degree; it never labels.
                continue
            a, j = x, 0  # x = p^j a with p not dividing a
            while a % p == 0:
                a //= p
                j += 1
            if not 0 < a < top:
                continue
            im = derived.index_of.get(a % q1)
            if im is None:
                raise InternalInvariantViolation(
                    f"a = {a} passed the window test but matches no n_i"
                )
            delta = (i - j - im) % f
            if delta % f_prime:
                raise InternalInvariantViolation(
                    f"no k solves i_m + k f' = i - j mod f for (i,d) = ({i},{d})"
                )
            label = tuple.__new__(  # BasisLabel.alpha, built inline
                BasisLabel, (_ALPHA, a, (delta // f_prime) % f_dprime)
            )
            if label in found:
                raise InternalInvariantViolation(
                    f"(i,d) pairs {found[label]} and {(i, d)} collide on {label}"
                )
            found[label] = (i, d)
    return frozenset(found)


def j_v_ah_bruteforce(
    params: FieldParams,
    profile: WeightProfile,
    chi: CharacterData,
    e_m: Optional[int] = None,
) -> FrozenSet[BasisLabel]:
    """Literal witness search over all of W and all (i, d, j) in range.

    A witness of alpha = (m, k) is (i, d in I_i, j) with
    p^j m' = xi'_i - d e_M and i_m + k f' = i - j mod f.  The values
    xi'_i - d e_M do not depend on alpha, so they are indexed by value once
    per call, each with the i it came from.  Each m' in W', scaled by e_M,
    then walks p^j m' for j = 0, 1, ... up to the largest value, and every
    value it hits gains m' the residue (i - j) mod f of its i.  (m, k) is
    a label when i_m + k f' is one of the residues of m.  A hit has
    p^j <= p^j m' = xi'_i - d e_M <= xi_i, since m' >= 1, d >= 0 and
    e_M <= p^f - 1, so every hit is a witness with p^j <= max(1, xi_i):
    the same (m', i, d, j) matches as the search over that witness list
    finds, in another order.  No equation is solved and nothing divided.
    """
    derived = _derived(params, chi.signature)
    e_m = _route_e_m(params, derived, e_m, profile)
    p, f = params.p, params.f
    q1 = p**f - 1
    scale = q1 // e_m
    f_prime, f_dprime = derived.niveau
    at_value: Dict[int, list] = {}  # xi'_i - d e_M -> the i it came from
    for i, (xi, interval) in enumerate(zip(profile.xi, profile.intervals)):
        xi_scaled = xi * e_m // q1
        for d in interval:
            value = xi_scaled - d * e_m
            if value > 0:  # p^j m' >= 1
                at_value.setdefault(value, []).append(i)
    top = max(at_value, default=0)
    residues: Dict[int, set] = {}  # m' -> the residues of its witnesses
    # scale divides every m in W' (validate_e_m), so m' * scale is m again.
    for m in _w_prime(params, chi.signature):
        m_scaled = m // scale
        pj_m, j = m_scaled, 0
        while pj_m <= top:
            hits = at_value.get(pj_m)
            if hits is not None:
                found = residues.setdefault(m_scaled, set())
                for i in hits:
                    found.add((i - j) % f)
            pj_m *= p
            j += 1
    labels = set()
    for m_scaled, found in residues.items():
        m = m_scaled * scale
        im = derived.index_of[m % q1]  # W' is walked from these residues
        for k in range(f_dprime):
            if (im + k * f_prime) % f in found:
                labels.add(tuple.__new__(BasisLabel, (_ALPHA, m, k)))
    return frozenset(labels)


# ---------------------------------------------------------------------------
# The distinguished subspace
# ---------------------------------------------------------------------------


class LVResult(NamedTuple):
    """Ordered label set for the distinguished subspace, with bookkeeping.

    When chi is trivial the spanning set contains one extra degree choice
    d_{i_0} = xi_{i_0}/(p^f - 1) at the index i_0 = 0; it contributes the
    unramified class rather than an alpha label and is recorded here for
    the oracle's benefit.
    """

    labels: Tuple[BasisLabel, ...]
    exceptional: bool
    dimension: int
    e_m: int
    extra_degree_index: Optional[int] = None
    extra_degree: Optional[int] = None


def _normalized(
    params: FieldParams, weight: SerreWeight, chi1: CharacterData,
    chi2: CharacterData, chi_cyclotomic: Optional[bool],
) -> Tuple[Tuple[int, ...], CharacterData, CharacterData, CharacterData]:
    """A problem twisted to theta = 0: (r, chi1, chi2, chi1/chi2), with
    r = eta + 1 and the quotient's cyclotomic declaration checked."""
    normalized, c1, c2 = twist_normalize(params, weight, chi1, chi2)
    r = tuple(eta_i + 1 for eta_i in normalized.eta)
    chi = char_quotient(params, c1, c2, declare_cyclotomic=chi_cyclotomic)
    return r, c1, c2, chi


def l_v_ah(
    params: FieldParams,
    weight: SerreWeight,
    chi1: CharacterData,
    chi2: CharacterData,
    e_m: Optional[int] = None,
    chi_cyclotomic: Optional[bool] = None,
) -> LVResult:
    """Labels spanning the distinguished subspace for (weight, chi1, chi2).

    ``chi_cyclotomic`` declares whether chi1/chi2 is the cyclotomic
    character (its unramified part depends on data not carried here); it is
    validated against the quotient's inertial signature.  The exceptional
    case (cyclotomic quotient, chi2 unramified, every r_i = p) returns the
    whole basis; otherwise the labels come from the profile's subset, plus
    the unramified class when the quotient is trivial.
    """
    r, c1, c2, chi = _normalized(params, weight, chi1, chi2, chi_cyclotomic)
    e_m_used = _route_e_m(params, _derived(params, chi.signature), e_m)
    exceptional = (
        chi.declared_cyclotomic
        and is_unramified(params, c2)
        and all(ri == params.p for ri in r)
    )
    if exceptional:
        labels = basis_labels(params, chi)
        return LVResult(labels, True, len(labels), e_m_used)
    profile = ts_profile(params, r, c1, c2)
    # Alphas in tuple order, which is their sort_key order.
    labels = sorted(j_v_ah(params, profile, chi, e_m_used))
    extra_index: Optional[int] = None
    extra_degree: Optional[int] = None
    if chi.declared_trivial:
        labels.append(BasisLabel.unramified())
        extra_index = 0
        extra_degree = profile.xi[0] // params.tame_order
    return LVResult(
        tuple(labels), False, len(labels), e_m_used, extra_index, extra_degree
    )
