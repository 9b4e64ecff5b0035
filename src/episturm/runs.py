"""One-shift oracle: the period-m run through an occurrence of a base, read letter by letter.

Like `oracle`, whose all-shift scan gallops with `_run_end` too, this works
by reading letters, never the closed forms, so `index --verify` checks the
block and prefix indices against it. It is a module of its own so that
`index --verify` loads only what it runs.

`max_fractional_power` and `greatest_power_prefix` read one shift only: the
period-m run through an occurrence of the base ends where galloping slice
comparisons find the first difference. `max_fractional_power` measures only
runs that beat the longest so far: after a run of best letters it searches,
from that run's end, for the first best + 1 letters of base^∞, until that
needle grows past a share of the letters left.
"""

from __future__ import annotations

from .errors import NotAFactorError, RangeError
from .words import RationalIndex, Word

# `str.find` preprocesses its needle in time linear in its length (two-way's critical factorization,
# about 4 ns a letter on a 2-CPU x86-64 VM), so `max_fractional_power` searches for base itself once
# its longer needle would pass an eighth of the letters left. On hosts of block n + 5 in the Fibonacci word,
# where the best run of block n spans about a third of the host, the longer needles took 1.7 times
# as long as base searches; with the cap they take the same, and k5 levels 1..15 still take a quarter
# of the time.
_NEEDLE_SHARE = 8


def _run_end(w: Word, i: int, m: int) -> int:
    """The end of the period-m run through i: the least e >= i with w[e] != w[e + m], or len(w) - m.

    Slices are compared at C speed, doubling until one differs and then
    halving onto its first difference, so the cost is linear in e - i.
    """
    limit = len(w) - m
    step = 1
    while i < limit:
        step = min(step, limit - i)
        if w[i:i + step] != w[i + m:i + m + step]:
            break
        i += step
        step *= 2
    else:
        return limit
    while step > 1:  # the first difference lies in w[i : i + step]
        half = step // 2
        if w[i:i + half] == w[i + m:i + m + half]:
            i += half
            step -= half
        else:
            step = half
    return i


def max_fractional_power(prefix: Word, base: Word) -> RationalIndex:
    """Largest exponent (possibly fractional) with base**exponent a factor of prefix.

    The host is read left to right once. A power longer than the best run so
    far, of best letters, begins with the first best + 1 letters of base^∞,
    so the next search looks for that needle, the best run and the letter
    base[best % m] that continues it, and `str.find` skips the shorter runs
    at C speed. A found needle gives period m over its letters, so the
    gallop for the run's end starts past them. Once that needle would pass a
    `_NEEDLE_SHARE`-th of the letters left, the search is for base itself
    and measures every run. Each search restarts at max(end, i + 1): an
    occurrence j with i < j < end lies inside the run just measured and
    reaches only its end, m + end - j letters.
    """
    if not base:
        raise RangeError("base must be nonempty")
    m = len(base)
    needle = base
    i = prefix.find(needle)
    if i < 0:
        raise NotAFactorError("base does not occur in the prefix")
    best = start = 0
    while i >= 0:
        end = _run_end(prefix, i + len(needle) - m, m)
        if m + end - i > best:
            best, start = m + end - i, i
        i = max(end, i + 1)
        needle = prefix[start:start + best] + base[best % m] if _NEEDLE_SHARE * best < len(prefix) - i else base
        i = prefix.find(needle, i)
    return RationalIndex(best // m, best % m, m)


def greatest_power_prefix(prefix: Word, base: Word) -> Word:
    """The longest prefix of prefix that is a (possibly fractional) power of base."""
    if not base:
        raise RangeError("base must be nonempty")
    if not prefix.startswith(base):
        raise NotAFactorError("base is not a prefix")
    return prefix[:len(base) + _run_end(prefix, 0, len(base))]
