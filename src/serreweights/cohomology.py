"""Dimensions of the filtration jumps of first Galois cohomology.

For a tame character chi of a p-adic field with parameters (p, e, f), the
first cohomology of its one-dimensional mod-p coefficient module carries a
decreasing ramification filtration.  The graded piece at level s is nonzero
only at s = 0 (trivial character), at the top boundary s = 1 + ep/(p-1)
(cyclotomic character), and at the rational levels s = 1 + m/(p^f - 1) with
0 < m < ep(p^f - 1)/(p - 1), p not dividing m, and m congruent to one of
the twisted digit sums n_i modulo p^f - 1.  At such interior levels the
dimension equals the number of matching indices i, which is 0 or f/f'.

All level arithmetic is exact via ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Tuple, Union

from .errors import InternalInvariantViolation, InvalidInput, InvariantError
from .tame_chars import (
    CharacterData,
    FieldParams,
    _derived,
    _matching_numerators,
    niveau,
)

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


def _matching_indices(params: FieldParams, chi: CharacterData, m: int) -> int:
    return _derived(params, chi.signature).counts.get(m % params.tame_order, 0)


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
    m = (s - 1) * params.tame_order
    if m.denominator != 1 or m.numerator % params.p == 0:
        return 0
    return _matching_indices(params, chi, m.numerator)


def jump_profile(params: FieldParams, chi: CharacterData) -> JumpProfile:
    """Enumerate every jump and check the total against ``h1_dimension``."""
    entries = []
    if chi.declared_trivial:
        entries.append((Fraction(0), 1))
    for m, d in _matching_numerators(params, chi.signature, 0, params.window_top):
        entries.append((1 + Fraction(m, params.tame_order), d))
    if chi.declared_cyclotomic:
        entries.append((_top_level(params), 1))
    profile = JumpProfile(tuple(entries), sum(d for _, d in entries))
    expected = h1_dimension(params, chi)
    if profile.total != expected:
        raise InternalInvariantViolation(
            f"jump dimensions sum to {profile.total}, expected {expected}"
        )
    top = _top_level(params)
    _, f_dprime = niveau(params, chi.signature)
    for s, d in profile.entries:
        if 0 < s < top and d != f_dprime:
            raise InternalInvariantViolation(
                f"interior jump at {s} has dimension {d}, expected {f_dprime}"
            )
    return profile


def window_cardinality(params: FieldParams, chi: CharacterData, j: int) -> int:
    """Count pairs (m, i) with jp/(p-1) < m/(p^f - 1) < (j+1)p/(p-1),
    p not dividing m, and m congruent to n_i; always equals f."""
    if not 0 <= j < params.e:
        raise InvalidInput(f"window index must lie in [0, e), got {j}")
    lo = j * params.p * params.repunit
    hi = (j + 1) * params.p * params.repunit
    return sum(d for _, d in _matching_numerators(params, chi.signature, lo, hi))
