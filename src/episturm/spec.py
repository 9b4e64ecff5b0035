"""The directive spec: an alphabet and the exponents that steer one word.

A directive is a list of positive exponents cycling through the alphabet:
entry i applies to letter number ((i-1) mod k) + 1. The block recurrence
(`blocks`) reads only the spec and its exponents, so the closed forms load
this module and not the closure route in `directive`.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError, RangeError

_LETTER_POOL = "abcdefghijklmnopqrstuvwxyz"


class _SpecFields(NamedTuple):
    alphabet: str
    preperiod: tuple[int, ...]
    period: tuple[int, ...]


class DirectiveSpec(_SpecFields):
    """Alphabet plus the exponent list, split into a leading part and a repeating part.

    An empty period means the exponent list is finite; operations raise
    RangeError when asked to look past its end.
    """

    __slots__ = ()

    def __new__(cls, alphabet: str, preperiod: tuple[int, ...], period: tuple[int, ...]) -> "DirectiveSpec":
        k = len(alphabet)
        if k < 2:
            raise ParseError("need an alphabet of at least 2 letters")
        if k > len(_LETTER_POOL):
            raise ParseError(f"alphabets beyond {len(_LETTER_POOL)} letters are not supported")
        if len(set(alphabet)) != k:
            raise ParseError("alphabet letters must be distinct")
        if not preperiod and not period:
            raise ParseError("directive needs at least one exponent")
        for d in preperiod + period:
            if not isinstance(d, int) or d < 1:
                raise ParseError(f"exponents must be positive integers, got {d!r}")
        return super().__new__(cls, alphabet, preperiod, period)

    @classmethod
    def _make(cls, fields) -> "DirectiveSpec":  # through __new__, so _replace validates too
        return cls(*fields)

    @property
    def k(self) -> int:
        return len(self.alphabet)

    @classmethod
    def make(cls, k: int, preperiod: tuple[int, ...] = (), period: tuple[int, ...] = ()) -> "DirectiveSpec":
        if k < 2 or k > len(_LETTER_POOL):
            raise ParseError(f"alphabet size must be between 2 and {len(_LETTER_POOL)}")
        return cls(_LETTER_POOL[:k], tuple(preperiod), tuple(period))

    @classmethod
    def parse(cls, text: str) -> "DirectiveSpec":
        """Parse 'k=3; d=1,1,2; 2,1,2' (third part, the period, may be omitted)."""
        parts = [p.strip() for p in text.split(";")]
        if len(parts) < 2 or len(parts) > 3:
            raise ParseError(f"expected 'k=<int>; d=<exponents>[; <period>]', got {text!r}")
        head, pre_part = parts[0], parts[1]
        if not head.startswith("k="):
            raise ParseError(f"spec must start with 'k=', got {head!r}")
        try:
            k = int(head[2:])
        except ValueError as exc:
            raise ParseError(f"bad alphabet size in {head!r}") from exc
        if not pre_part.startswith("d="):
            raise ParseError(f"second field must start with 'd=', got {pre_part!r}")

        def ints(chunk: str) -> tuple[int, ...]:
            chunk = chunk.strip()
            if not chunk:
                return ()
            try:
                return tuple(int(x) for x in chunk.split(","))
            except ValueError as exc:
                raise ParseError(f"bad exponent list {chunk!r}") from exc

        preperiod = ints(pre_part[2:])
        period = ints(parts[2]) if len(parts) == 3 else ()
        return cls.make(k, preperiod, period)


def exponent(spec: DirectiveSpec, i: int) -> int:
    """The i-th exponent (1-based)."""
    if i < 1:
        raise RangeError(f"exponent index {i} must be >= 1")
    idx = i - 1
    if idx < len(spec.preperiod):
        return spec.preperiod[idx]
    if not spec.period:
        raise RangeError(f"directive is finite with {len(spec.preperiod)} exponents; index {i} is past its end")
    return spec.period[(idx - len(spec.preperiod)) % len(spec.period)]
