"""Factor partition at each level: rotations of the block plus the singular classes.

Every factor of the infinite word whose length equals a block length is
either a rotation of that block or "singular" of one of k-1 kinds. Each
singular kind is carved out of a single short stretch of the word (the
source window): its sliding windows of block length, all distinct.
"""

from __future__ import annotations

from typing import NamedTuple

from .blocks import BlockTable
from .errors import InvariantViolation, RangeError
from .words import Word, conjugacy_class, reversal, shorten


class FactorPartition(NamedTuple):
    """All factors of one block length, split into the rotation class and k-1 singular kinds."""

    level: int
    rotations: frozenset
    singular: dict[int, frozenset]

    @property
    def classes(self) -> int:
        return 1 + len(self.singular)

    def total_count(self) -> int:
        return len(self.rotations) + sum(len(c) for c in self.singular.values())


def singular_window(table: BlockTable, n: int, r: int) -> Word:
    """The stretch whose sliding block-length windows form the kind-r singular class at level n."""
    k = table.spec.k
    if n < 1:
        raise RangeError(f"singular classes start at level 1 (got {n})")
    if not 1 <= r <= k - 1:
        raise RangeError(f"singular kind {r} outside 1..{k - 1}")
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
    window = singular_window(table, n, r)
    size = table.block_length(n)
    found = frozenset(window[i:i + size] for i in range(len(window) - size + 1))
    expected = size - table.palindromic_prefix_length(n - r) - 1
    if len(found) != expected:
        raise InvariantViolation(
            f"level {n} kind {r}: window yields {len(found)} distinct factors, expected {expected}"
        )
    return found


def factor_partition(table: BlockTable, n: int) -> FactorPartition:
    """Partition of all block-length factors at level n, with its invariants verified."""
    if n < 1:
        raise RangeError(f"factor partition starts at level 1 (got {n})")
    k = table.spec.k
    size = table.block_length(n)
    rotations = frozenset(conjugacy_class(table.block(n)))
    if len(rotations) != size:
        raise InvariantViolation(f"level-{n} block is not primitive: {len(rotations)} rotations for length {size}")
    singular = {r: singular_words(table, n, r) for r in range(1, k)}

    classes: list[frozenset] = [rotations] + [singular[r] for r in range(1, k)]
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            overlap = classes[a] & classes[b]
            if overlap:
                raise InvariantViolation(f"level {n}: classes {a} and {b} share {shorten(sorted(overlap)[0])!r}")
    for idx, cls in enumerate(classes):
        mirrored = frozenset(reversal(w) for w in cls)
        if mirrored != cls:
            raise InvariantViolation(f"level {n}: class {idx} is not closed under reversal")
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
