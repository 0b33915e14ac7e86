"""Rank-metric public-key toolkit.

Finite extension fields with Frobenius arithmetic, maximum-rank-distance
codes with a syndrome decoder, the disguised-generator public-key scheme
in its four classical variants, a hardened extension-field column
scrambler, and the extended-rank distinguisher that separates the two
scrambler families.
"""

from .attacks import (
    AttackReport,
    DistinguisherResult,
    TrialSummary,
    attack_cost_report,
    attack_public_key,
    distinguish_public_key,
    distinguisher_trials,
    example_security_table,
    extend_public_key,
    rank_profile,
)
from .errors import DecodeFailure, FormatError, GptRankError, ParameterError
from .fields import FieldCtx, default_modulus, get_field, is_irreducible, is_prime
from .gabidulin import GabidulinCode, moore_matrix
from .gpt import (
    PRESET_NAMES,
    GptParams,
    GptPrivateKey,
    GptPublicKey,
    ScramblerMode,
    Variant,
    build_scrambler,
    decrypt,
    encrypt,
    keygen,
    lemma1_check,
    preset,
    public_key_size_bits,
)
from .keyfiles import (
    CiphertextBundle,
    load_ciphertext,
    load_private_key,
    load_public_key,
    save_ciphertext,
    save_private_key,
    save_public_key,
)
from .linalg import (
    column_rank_over_base,
    rank_ext,
    rank_over_base,
    sample_error,
    sample_error_decomposed,
)
from .linpoly import LinPoly, lp_eea

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "CiphertextBundle",
    "DecodeFailure",
    "DistinguisherResult",
    "FieldCtx",
    "FormatError",
    "GabidulinCode",
    "GptParams",
    "GptPrivateKey",
    "GptPublicKey",
    "GptRankError",
    "LinPoly",
    "ParameterError",
    "PRESET_NAMES",
    "ScramblerMode",
    "TrialSummary",
    "Variant",
    "attack_cost_report",
    "attack_public_key",
    "build_scrambler",
    "column_rank_over_base",
    "decrypt",
    "default_modulus",
    "distinguish_public_key",
    "distinguisher_trials",
    "encrypt",
    "example_security_table",
    "extend_public_key",
    "get_field",
    "is_irreducible",
    "is_prime",
    "keygen",
    "lemma1_check",
    "load_ciphertext",
    "load_private_key",
    "load_public_key",
    "lp_eea",
    "moore_matrix",
    "preset",
    "public_key_size_bits",
    "rank_ext",
    "rank_over_base",
    "rank_profile",
    "sample_error",
    "sample_error_decomposed",
    "save_ciphertext",
    "save_private_key",
    "save_public_key",
    "__version__",
]
