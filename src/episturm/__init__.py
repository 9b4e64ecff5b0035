"""Strict standard episturmian words: construction, block machinery, and exact power counts.

A directive spec (alphabet size plus positive exponents, cyclic letter order)
determines one infinite word. This package builds it two independent ways
(iterated palindromic closure; nested block recurrence), exposes the
palindromic prefixes, tails, singular factors, tilings and fractional power
indices, answers "which length-m words occur as l-th powers" in closed form,
and cross-checks every closed form against a brute-force scanning oracle.
"""

from .blocks import BlockTable
from .checks import ALL_CHECKS, run_battery
from .directive import (
    DirectiveSpec,
    PalindromicPrefixTable,
    closure_prefix,
    directive_letter,
    exponent,
    exponent_sum,
    morphism,
    palindromic_closure,
    prefix_increment,
)
from .errors import (
    CancellationError,
    EpisturmError,
    GuardExceeded,
    InsufficientDataError,
    InvariantViolation,
    NotAFactorError,
    ParseError,
    RangeError,
    VerificationError,
)
from .oracle import (
    PrefixCertificate,
    RotationClass,
    ScanResult,
    certified_scan,
    certify_prefix,
    generate_prefix,
    greatest_power_prefix,
    max_fractional_power,
    naive_scan,
    same_bases,
    scan_powers,
    scan_powers_multi,
)
from .partition import PartitionView, block_positions, level_partition, return_words
from .powers import (
    CensusProvenance,
    CensusRange,
    PowerCensus,
    block_index,
    block_index_witness,
    census,
    census_range,
    length_sets,
    prefix_index,
    window_level,
)
from .singular import FactorPartition, classify_factor, factor_partition, singular_window, singular_words
from .words import (
    RationalIndex,
    Word,
    conjugacy_class,
    conjugate,
    factors_of_length,
    is_palindrome,
    is_primitive,
    reversal,
    strip_prefix,
    strip_suffix,
    z_array,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS",
    "BlockTable",
    "CancellationError",
    "CensusProvenance",
    "CensusRange",
    "DirectiveSpec",
    "EpisturmError",
    "FactorPartition",
    "GuardExceeded",
    "InsufficientDataError",
    "InvariantViolation",
    "NotAFactorError",
    "ParseError",
    "PartitionView",
    "PalindromicPrefixTable",
    "PowerCensus",
    "PrefixCertificate",
    "RangeError",
    "RationalIndex",
    "RotationClass",
    "ScanResult",
    "VerificationError",
    "Word",
    "block_index",
    "block_index_witness",
    "block_positions",
    "census",
    "census_range",
    "certified_scan",
    "certify_prefix",
    "classify_factor",
    "closure_prefix",
    "conjugacy_class",
    "conjugate",
    "directive_letter",
    "exponent",
    "exponent_sum",
    "factor_partition",
    "factors_of_length",
    "generate_prefix",
    "greatest_power_prefix",
    "is_palindrome",
    "is_primitive",
    "length_sets",
    "level_partition",
    "max_fractional_power",
    "morphism",
    "naive_scan",
    "palindromic_closure",
    "prefix_increment",
    "prefix_index",
    "return_words",
    "reversal",
    "run_battery",
    "same_bases",
    "scan_powers",
    "scan_powers_multi",
    "singular_window",
    "singular_words",
    "strip_prefix",
    "strip_suffix",
    "window_level",
    "z_array",
]
