"""Factor partition at each level: rotations of the block plus the singular classes.

Every factor of the infinite word whose length equals a block length is
either a rotation of that block or "singular" of one of k-1 kinds. Each
singular kind is carved out of a single short stretch of the word (the
source window): its sliding windows of block length, all distinct.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .blocks import BlockTable
from .errors import InvariantViolation, RangeError, shorten

if TYPE_CHECKING:
    from .words import Word


class FactorPartition(NamedTuple):
    """All factors of one block length, split into the rotation class and k-1 singular kinds."""

    level: int
    rotations: frozenset
    singular: dict[int, frozenset]

    def total_count(self) -> int:
        return len(self.rotations) + sum(len(c) for c in self.singular.values())


def singular_window(table: BlockTable, n: int, r: int) -> Word:
    """The stretch whose sliding block-length windows form the kind-r singular class at level n."""
    k = table.spec.k
    if n < 1:
        raise RangeError(f"singular classes start at level 1 (got {n})")
    if not 1 <= r <= k - 1:
        raise RangeError(f"singular kind {r} outside 1..{k - 1}")
    from .words import reversal  # imported where it is read, so loading this module loads no `words`

    if n >= r:
        tail = table.block_tail(n, r)
        core = reversal(tail) + table.palindromic_prefix(n - r) + tail
    else:
        joint = table.spec.alphabet[(n - r) % k]
        block = table.block(n)
        core = reversal(block) + joint + block
    edge = table.block(n)[-1]
    if core[0] != edge or core[-1] != edge:
        raise InvariantViolation(f"window for level {n} kind {r} not framed by {edge!r}: {shorten(core)!r}")
    return core[1:-1]


def singular_words(table: BlockTable, n: int, r: int) -> frozenset:
    """The kind-r singular factors at level n."""
    return _window_factors(table, n, r, singular_window(table, n, r))


def _window_factors(table: BlockTable, n: int, r: int, window: Word) -> frozenset:
    """The block-length windows of the kind-r source window, checked to be all distinct."""
    size = table.block_length(n)
    found = frozenset(window[i:i + size] for i in range(len(window) - size + 1))
    expected = size - table.palindromic_prefix_length(n - r) - 1
    if len(found) != expected:
        raise InvariantViolation(
            f"level {n} kind {r}: window yields {len(found)} distinct factors, expected {expected}"
        )
    return found


def factor_partition(table: BlockTable, n: int) -> FactorPartition:
    """Partition of all block-length factors at level n, with its invariants verified.

    Each class is shown closed under reversal without a mirrored copy of it. The rotations of the
    block B mirror to the rotations of reversal(B), so they are closed exactly when reversal(B)
    occurs in B + B. A kind-r class is the block-length windows of its source window W, whose
    mirrors are the windows of reversal(W): a palindromic W makes it closed. Any other W, which
    the construction never yields, is compared set to set, so a class that is not closed still
    fails.
    """
    if n < 1:
        raise RangeError(f"factor partition starts at level 1 (got {n})")
    from .words import is_palindrome, reversal

    k = table.spec.k
    size = table.block_length(n)
    block = table.block(n)
    doubled = block + block
    rotations = frozenset(doubled[j:j + len(block)] for j in range(len(block)))
    if len(rotations) != size:
        raise InvariantViolation(f"level-{n} block is not primitive: {len(rotations)} rotations for length {size}")
    singular: dict[int, frozenset] = {}
    lopsided: list[int] = []  # kinds whose window is no palindrome, compared set to set below
    for r in range(1, k):
        window = singular_window(table, n, r)
        singular[r] = _window_factors(table, n, r, window)
        if not is_palindrome(window):
            lopsided.append(r)

    classes: list[frozenset] = [rotations] + [singular[r] for r in range(1, k)]
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            overlap = classes[a] & classes[b]
            if overlap:
                raise InvariantViolation(f"level {n}: classes {a} and {b} share {shorten(sorted(overlap)[0])!r}")
    if doubled.find(reversal(block)) == -1:
        raise InvariantViolation(f"level {n}: class 0 is not closed under reversal")
    for r in lopsided:
        if frozenset(map(reversal, singular[r])) != singular[r]:
            raise InvariantViolation(f"level {n}: class {r} is not closed under reversal")
    expected_total = (k - 1) * size + 1
    total = sum(len(c) for c in classes)
    if total != expected_total:
        raise InvariantViolation(f"level {n}: {total} factors across classes, expected {expected_total}")
    return FactorPartition(level=n, rotations=rotations, singular=singular)


def classify_factor(partition: FactorPartition, w: Word) -> int | None:
    """0 for a rotation of the block, the kind r for a singular factor, None when w is not a factor."""
    size = len(next(iter(partition.rotations)))
    if len(w) != size:
        raise RangeError(f"classify expects length {size}, got {len(w)}")
    if w in partition.rotations:
        return 0
    for r, cls in partition.singular.items():
        if w in cls:
            return r
    return None
