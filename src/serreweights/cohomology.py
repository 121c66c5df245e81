"""Dimensions of the filtration jumps of first Galois cohomology.

For a tame character chi of a p-adic field with parameters (p, e, f), the
first cohomology of its one-dimensional mod-p coefficient module carries a
decreasing ramification filtration.  The graded piece at level s is nonzero
only at s = 0 (trivial character), at the top boundary s = 1 + ep/(p-1)
(cyclotomic character), and at the rational levels s = 1 + m/(p^f - 1) with
0 < m < ep(p^f - 1)/(p - 1), p not dividing m, and m congruent to one of
the twisted digit sums n_i modulo p^f - 1: the set W' kept on the
signature's record.  There the dimension is f'' = f/f'.  Every level is
an integer numerator over p^f - 1 (``_jump_levels``); ``jump_profile``
builds one ``fractions.Fraction`` per level from it, and ``verify``'s
character suite reads the integers.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from typing import NamedTuple, Tuple, Union

from .errors import InternalInvariantViolation, InvalidInput, InvariantError
from .tame_chars import CharacterData, FieldParams, _derived, _w_prime

Level = Union[int, Fraction]


class _JumpProfileFields(NamedTuple):
    entries: Tuple[Tuple[Fraction, int], ...]
    total: int


class JumpProfile(_JumpProfileFields):
    """All filtration levels with nonzero graded dimension, sorted by level."""

    __slots__ = ()

    def __new__(cls, entries: Tuple[Tuple[Fraction, int], ...], total: int) -> JumpProfile:
        levels = [s for s, _ in entries]
        if levels != sorted(levels):
            raise InvariantError("jump entries must be sorted by level")
        if any(d <= 0 for _, d in entries):
            raise InvariantError("jump entries must have positive dimension")
        if total != sum(d for _, d in entries):
            raise InvariantError("total must equal the sum of jump dimensions")
        return tuple.__new__(cls, (entries, total))


def _top_level(params: FieldParams) -> Fraction:
    """The top boundary 1 + ep/(p-1) of the filtration."""
    return 1 + Fraction(params.e * params.p, params.p - 1)


def h1_dimension(params: FieldParams, chi: CharacterData) -> int:
    """Total dimension: ef plus one for each of the two degenerate cases."""
    extra = int(chi.declared_trivial) + int(chi.declared_cyclotomic)
    return params.e * params.f + extra


def graded_dimension(params: FieldParams, chi: CharacterData, s: Level) -> int:
    """Dimension of the graded piece at filtration level ``s``."""
    s = Fraction(s)
    if s < 0:
        raise InvalidInput(f"filtration level must be >= 0, got {s}")
    if s == 0:
        return int(chi.declared_trivial)
    top = _top_level(params)
    if s == top:
        return int(chi.declared_cyclotomic)
    if not 1 < s < top:
        return 0
    q1 = params.tame_order
    m = (s - 1) * q1
    if m.denominator != 1 or m.numerator % params.p == 0:
        return 0
    derived = _derived(params, chi.signature)
    return derived.niveau[1] if m.numerator % q1 in derived.index_of else 0


def _jump_levels(
    params: FieldParams, chi: CharacterData
) -> Tuple[Tuple[Tuple[int, int], ...], int]:
    """Every jump as (numerator, dimension), the level being the integer
    numerator over p^f - 1, ascending, with the dimensions' total.

    The levels are 0 when chi is trivial, 1 + m/(p^f - 1) for m in W'
    (each of dimension f'', which ``_derived`` checked when it built chi's
    signature record), and the top 1 + ep/(p-1) = 1 + e*p*R/(p^f - 1) when
    chi is cyclotomic.  No ``Fraction`` is built here.
    """
    q1 = params.tame_order
    f_dprime = _derived(params, chi.signature).niveau[1]
    entries = [(0, 1)] if chi.declared_trivial else []
    entries += [(m + q1, f_dprime) for m in _w_prime(params, chi.signature)]
    if chi.declared_cyclotomic:
        entries.append((q1 + params.window_top, 1))
    return tuple(entries), sum(d for _, d in entries)


def jump_profile(params: FieldParams, chi: CharacterData) -> JumpProfile:
    """Enumerate every jump and check the total against ``h1_dimension``.

    The levels are the ``Fraction``s of ``_jump_levels``' numerators over
    p^f - 1.
    """
    q1 = params.tame_order
    levels, total = _jump_levels(params, chi)
    profile = JumpProfile(tuple((Fraction(n, q1), d) for n, d in levels), total)
    expected = h1_dimension(params, chi)
    if profile.total != expected:
        raise InternalInvariantViolation(
            f"jump dimensions sum to {profile.total}, expected {expected}"
        )
    return profile


def window_cardinality(params: FieldParams, chi: CharacterData, j: int) -> int:
    """Count pairs (m, i) with jp/(p-1) < m/(p^f - 1) < (j+1)p/(p-1),
    p not dividing m, and m congruent to n_i; always equals f.  That is f''
    times the W' entries in (j*p*R, (j+1)*p*R), whose ends p divides."""
    if not 0 <= j < params.e:
        raise InvalidInput(f"window index must lie in [0, e), got {j}")
    width = params.p * params.repunit
    lo = j * width
    hi = lo + width
    w = _w_prime(params, chi.signature)
    return _derived(params, chi.signature).niveau[1] * (bisect(w, hi) - bisect(w, lo))
