"""Exception types shared across the package, and the short form of a word their messages print."""

_SHORT_LETTERS = 48  # the most letters `shorten` prints unelided


def shorten(w: str) -> str:
    """Compact display form for long words, used in error messages and CLI output."""
    if len(w) <= _SHORT_LETTERS:
        return w
    return f"{w[:_SHORT_LETTERS - 14]}..{w[-8:]}(len {len(w)})"


class EpisturmError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(EpisturmError):
    """Malformed directive text, or letters outside the supported alphabet."""


class RangeError(EpisturmError):
    """Index or size outside an operation's documented domain."""


class CancellationError(EpisturmError):
    """A prefix/suffix removal does not match, or the requested value exists only formally."""


class GuardExceeded(EpisturmError):
    """A block level or materialized length above the configured guard was requested."""


class VerificationError(EpisturmError):
    """A cross-check between two independent routes disagreed."""


class InvariantViolation(EpisturmError):
    """A structural invariant failed while assembling a result."""


class NotAFactorError(EpisturmError):
    """The queried word does not occur in the reference text."""


class InsufficientDataError(EpisturmError):
    """Too few occurrences in the available prefix to answer."""

