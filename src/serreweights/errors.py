"""Exception taxonomy shared by every module in the package.

Two families matter for callers.  ``InvalidInput`` and its subclasses mean the
question itself was ill-posed (bad parameters, inconsistent character data,
unusable unramified-subextension degree); the CLI maps these to exit code 2.
``InternalInvariantViolation`` and its subclasses mean an identity that is
supposed to be a theorem failed at runtime; the CLI maps these to exit code 1
and they should be reported, never silenced.

``ResourceLimitExceeded`` is a third outcome: the question is valid, but
answering it needs more than a named resource limit allows (the bound
below which the primality test of p is exact, the field degree cap and
the oracle's component bound); the CLI maps it to exit code 3.

``NoValidShift`` is none of these: it signals the legitimate empty outcome
where no digit-shift subset realizes the required inertial class, so the
distinguished subspace is empty.  Callers treat it as a successful result.
"""

from __future__ import annotations


class SerreWeightsError(Exception):
    """Base class for all package errors."""


class InvalidInput(SerreWeightsError):
    """The supplied data cannot describe a valid instance."""


class SchemaError(InvalidInput):
    """A structured problem document is malformed; the message names the path."""


class InvariantError(InvalidInput):
    """Declared data (signatures, flags, weights) fails its own invariants."""


class ChiMismatch(InvalidInput):
    """The two characters are inconsistent with the weight's shift profile."""


class InvalidEM(InvalidInput):
    """The requested ramification degree does not kill the character."""


class NoMatchingIndex(InvalidInput):
    """No embedding index matches the given exponent class."""


class NonUnitConstantTerm(InvalidInput):
    """A series operation needed a unit constant term and did not get one."""


class TruncationInsufficient(InvalidInput):
    """A required coefficient lies beyond the series truncation degree."""


class ResourceLimitExceeded(SerreWeightsError):
    """A valid request needs more than a named resource limit allows."""


class NoValidShift(SerreWeightsError):
    """No digit-shift subset realizes the target class: the subspace is empty."""


class InternalInvariantViolation(SerreWeightsError):
    """A consequence that should hold by theorem failed; indicates a bug."""


class MinimalityAmbiguous(InternalInvariantViolation):
    """No containment-least valid shift subset exists."""
