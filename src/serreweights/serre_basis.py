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
    _matching_numerators,
    char_quotient,
    exponent_class,
    is_unramified,
    n_values,
    signature_class,
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

    Built on the first call for a signature and kept on its cached record,
    so commands that never read W' never build it.
    """
    derived = _derived(params, chi.signature)
    if derived.w_prime is None:
        walk = _matching_numerators(params, chi.signature, 0, params.window_top)
        derived.w_prime = tuple(m for m, _ in walk)
    return derived.w_prime


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
    return _index_in(_derived(params, chi.signature), params.tame_order, chi, m)


def _index_in(derived: _Derived, q1: int, chi: CharacterData, m: int) -> int:
    """``i_m_index`` in a record already fetched: the routes fetch chi's
    record once per call and look every m up in it."""
    if not derived.distinct:
        raise InternalInvariantViolation(
            f"n_0..n_{derived.niveau[0] - 1} are not distinct mod {q1}"
        )
    i = derived.index_of.get(m % q1)
    if i is None:
        raise NoMatchingIndex(f"m = {m} matches no n_i of {chi.signature.a}")
    return i


# ---------------------------------------------------------------------------
# The label subset of a profile
# ---------------------------------------------------------------------------


def validate_e_m(params: FieldParams, chi: CharacterData, e_m: int) -> None:
    """e_M must divide p^f - 1 with (p^f - 1)/e_M dividing every n_i."""
    q1 = params.tame_order
    if e_m < 1 or q1 % e_m:
        raise InvalidEM(f"e_M = {e_m} does not divide p^f - 1 = {q1}")
    if e_m == q1:
        return  # cofactor 1 divides every n_i
    cofactor = q1 // e_m
    for ni in n_values(params, chi.signature):
        if ni % cofactor:
            raise InvalidEM(
                f"(p^f - 1)/e_M = {cofactor} does not divide n_i = {ni}"
            )


def _route_e_m(
    params: FieldParams, chi: CharacterData, e_m: Optional[int],
    profile: Optional[WeightProfile] = None,
) -> int:
    """The entry check of the label routes: the e_M they run at (p^f - 1
    when not given), checked by ``validate_e_m``, with the profile's s - t,
    when given, in chi's class."""
    if e_m is None:
        e_m = params.tame_order
    validate_e_m(params, chi, e_m)
    if profile is not None:
        diff = tuple(si - ti for si, ti in zip(profile.s, profile.t))
        if exponent_class(params, diff) != signature_class(params, chi.signature):
            raise InvalidInput("profile and character disagree on the quotient class")
    return e_m


def _p_valuation(p: int, x: int) -> int:
    j = 0
    while x % p == 0:
        x //= p
        j += 1
    return j


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
    e_m = _route_e_m(params, chi, e_m, profile)
    p, f = params.p, params.f
    q1 = params.tame_order
    derived = _derived(params, chi.signature)
    f_prime, f_dprime = derived.niveau
    found: Dict[BasisLabel, Tuple[int, int]] = {}
    for i in range(f):
        for d in profile.intervals[i]:
            x = profile.xi[i] - d * q1
            if x <= 0:
                # x = 0 is the trivial-chi extra degree; it never labels.
                continue
            j = _p_valuation(p, x)
            a = x // p**j
            if not 0 < a < params.window_top:
                continue
            try:
                im = _index_in(derived, q1, chi, a)
            except NoMatchingIndex:
                raise InternalInvariantViolation(
                    f"a = {a} passed the window test but matches no n_i"
                )
            delta = (i - j - im) % f
            if delta % f_prime:
                raise InternalInvariantViolation(
                    f"no k solves i_m + k f' = i - j mod f for (i,d) = ({i},{d})"
                )
            label = BasisLabel.alpha(a, (delta // f_prime) % f_dprime)
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

    p^j m' = xi'_i - d e_M forces p^j m' <= xi'_i with m' >= 1, so j never
    exceeds floor(log_p max(1, xi_i)); everything else is tried verbatim.
    The witnesses (p^j, xi'_i - d e_M, (i - j) mod f) do not depend on
    alpha = (m, k), so they are listed once per call.  For each m in W' the
    residues of the witnesses with p^j m' = xi'_i - d e_M are collected, and
    (m, k) is a label when i_m + k f' is one of them mod f.  That is the
    same search over W x (i, d, j) as one any() per (m, k), with each
    witness's arithmetic done once instead of once per (m, k); no equation
    is solved for m or for a witness.
    """
    e_m = _route_e_m(params, chi, e_m, profile)
    p, f = params.p, params.f
    q1 = params.tame_order
    scale = q1 // e_m
    derived = _derived(params, chi.signature)
    f_prime, f_dprime = derived.niveau
    xi_scaled = tuple(xi * e_m // q1 for xi in profile.xi)
    j_bounds = []
    for xi in profile.xi:
        b, power = 0, p  # power = p^(b + 1)
        while power <= xi:
            b += 1
            power *= p
        j_bounds.append(b)
    witnesses = [
        (p**j, xi_scaled[i] - d * e_m, (i - j) % f)
        for i in range(f)
        for d in profile.intervals[i]
        for j in range(j_bounds[i] + 1)
    ]
    labels = set()
    # The record's table, read directly once its residues are known to be
    # distinct; a miss goes through ``_index_in``, which raises as before.
    index_of = derived.index_of if derived.distinct else {}
    for m in w_prime(params, chi):
        im = index_of.get(m % q1)
        if im is None:
            im = _index_in(derived, q1, chi, m)
        m_scaled = m // scale
        residues = {res for pj, value, res in witnesses if pj * m_scaled == value}
        for k in range(f_dprime):
            if (im + k * f_prime) % f in residues:
                labels.add(BasisLabel.alpha(m, k))
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
    e_m_used = _route_e_m(params, chi, e_m)
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
