"""Strict standard episturmian words: construction, block machinery, and exact power counts.

A directive spec (alphabet size plus positive exponents, cyclic letter order)
determines one infinite word. This package builds it two independent ways
(iterated palindromic closure; nested block recurrence), exposes the
palindromic prefixes, tails, singular factors, tilings and fractional power
indices, answers "which length-m words occur as l-th powers" in closed form,
and cross-checks every closed form against a brute-force scanning oracle.

Each exported name is looked up in its home module on first access (PEP 562),
so `import episturm` loads no submodule, and `episturm.census` loads only
`powers` and what it imports.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # home module -> the names it exports
    "blocks": ("BlockTable",),
    "checks": ("ALL_CHECKS", "run_battery"),
    "directive": (
        "PalindromicPrefixTable", "closure_prefix", "directive_letter", "exponent_sum", "palindromic_closure",
        "prefix_increment",
    ),
    "errors": (
        "CancellationError", "EpisturmError", "GuardExceeded", "InsufficientDataError", "InvariantViolation",
        "NotAFactorError", "ParseError", "RangeError", "VerificationError",
    ),
    "oracle": (
        "PrefixCertificate", "RotationClass", "ScanResult", "certified_scan", "certify_prefix", "generate_prefix",
        "naive_scan", "same_bases", "scan_powers", "scan_powers_multi",
    ),
    "partition": ("PartitionView", "block_positions", "level_partition", "return_words"),
    "powers": (
        "CensusProvenance", "PowerCensus", "block_index", "block_index_witness", "census",
        "census_range", "length_sets", "prefix_index", "window_level",
    ),
    "runs": ("greatest_power_prefix", "max_fractional_power"),
    "singular": ("FactorPartition", "classify_factor", "factor_partition", "singular_window", "singular_words"),
    "spec": ("DirectiveSpec", "exponent"),
    "words": (
        "RationalIndex", "Word", "conjugacy_class", "conjugate", "factors_of_length", "is_palindrome", "reversal",
        "strip_prefix", "strip_suffix", "z_array",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
