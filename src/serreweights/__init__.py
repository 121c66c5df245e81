"""Exact Serre-weight bookkeeping for tame characters of p-adic fields.

The package computes, over exact integer and rational arithmetic: the jump
filtration dimensions of the first cohomology of a tame character, the
window index sets and basis labels, the shift profile (t, s, I, xi) of a
weight, the distinguished label subset by two combinatorial routes, and an
independent re-derivation of that subset through residue pairings against
the dlogs of Artin-Hasse units.
"""

from .cohomology import (
    JumpProfile,
    graded_dimension,
    h1_dimension,
    jump_profile,
    window_cardinality,
)
from .errors import (
    ChiMismatch,
    InternalInvariantViolation,
    InvalidEM,
    InvalidInput,
    InvariantError,
    MinimalityAmbiguous,
    NoMatchingIndex,
    NonUnitConstantTerm,
    NoValidShift,
    ResourceLimitExceeded,
    SchemaError,
    SerreWeightsError,
    TruncationInsufficient,
)
from .io_cli import Problem, parse_problem, run_command
from .serre_basis import (
    BasisLabel,
    LVResult,
    basis_labels,
    i_m_index,
    j_v_ah,
    j_v_ah_bruteforce,
    l_v_ah,
    validate_e_m,
    w_prime,
)
from .series_oracle import rederive_jvah
from .tame_chars import (
    CharacterData,
    FieldParams,
    TameSignature,
    UnramifiedPart,
    canonical_signature,
    char_quotient,
    character,
    cyclotomic_inertia_signature,
    exponent_class,
    is_unramified,
    n_values,
    niveau,
    signature_class,
    validate_character,
    validate_signature,
)
from .weight_lattice import (
    SerreWeight,
    WeightProfile,
    minimal_shift_set,
    reduced_exponents,
    shift_vector,
    ts_profile,
    twist_normalize,
    validate_weight,
    weight_from_r,
)

__version__ = "0.1.0"

__all__ = [
    "BasisLabel",
    "CharacterData",
    "ChiMismatch",
    "FieldParams",
    "InternalInvariantViolation",
    "InvalidEM",
    "InvalidInput",
    "InvariantError",
    "JumpProfile",
    "LVResult",
    "MinimalityAmbiguous",
    "NoMatchingIndex",
    "NonUnitConstantTerm",
    "NoValidShift",
    "Problem",
    "ResourceLimitExceeded",
    "SchemaError",
    "SerreWeight",
    "SerreWeightsError",
    "TameSignature",
    "TruncationInsufficient",
    "UnramifiedPart",
    "WeightProfile",
    "basis_labels",
    "canonical_signature",
    "char_quotient",
    "character",
    "cyclotomic_inertia_signature",
    "exponent_class",
    "graded_dimension",
    "h1_dimension",
    "i_m_index",
    "is_unramified",
    "j_v_ah",
    "j_v_ah_bruteforce",
    "jump_profile",
    "l_v_ah",
    "minimal_shift_set",
    "n_values",
    "niveau",
    "parse_problem",
    "rederive_jvah",
    "reduced_exponents",
    "run_command",
    "shift_vector",
    "signature_class",
    "ts_profile",
    "twist_normalize",
    "validate_character",
    "validate_e_m",
    "validate_signature",
    "validate_weight",
    "w_prime",
    "weight_from_r",
    "window_cardinality",
]
