"""Invariant battery: literal word and integer identities tying the modules together.

Each check raises VerificationError naming the first failing level. The
battery is exact string or integer equality throughout, and never weakens one
to save work. Callers choose how far up the level ladder to push (`verify`
bounds block n_max + 2, the largest block a check reads), and the closure
comparisons stop at the letters the closure steps scan
(`closure_reach(spec, CLOSURE_CHECK_WORK)`). Four caps guard costs neither
budget covers: position-functions' brute scan is quadratic in its positions,
singular-forms' class sets in the block, length-grids builds a census base of
each grid length, and index-consistency's host lies above block n_max + 2.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain, islice, repeat
from typing import Callable

from .blocks import BlockTable
from .directive import (
    CLOSURE_CHECK_WORK,
    PalindromicPrefixTable,
    closure_lengths,
    closure_prefix,
    closure_reach,
    directive_letter,
    entry_increments,
    exponent_sum,
    next_same_letter,
    previous_same_letter,
)
from .errors import CancellationError, InvariantViolation, VerificationError, shorten
from .partition import level_partition, refined_levels, tile_levels
from .powers import block_index, block_index_witness, census, length_sets, prefix_index, witness_host_level
from .singular import factor_partition, singular_window
from .spec import exponent
from .words import (
    Word,
    conjugate,
    is_palindrome,
    reversal,
    strip_suffix,
)

_POSITION_CAP = 1 << 12
_WITNESS_OCCURRENCE_CAP = 2_000_000
_PARTITION_SIZE_CAP = 2_000
_CENSUS_LENGTH_CAP = 2_000
_STRETCH = 1 << 20  # letters _same_join copies at a time from a stretch inside two pieces

_Piece = Word | tuple[Word, int]  # a word, or (word, stop) read as word[:stop] without the copy


def _fail(name: str, level, detail: str):
    raise VerificationError(f"{name} at level {level}: {detail}")


@contextmanager
def _at_level(name: str, level):
    """A cancellation or partition invariant that breaks inside the block fails the check at this level."""
    try:
        yield
    except (CancellationError, InvariantViolation) as exc:
        _fail(name, level, str(exc))


def check_block_letters(table: BlockTable, n_max: int) -> None:
    """Every block starts with the first letter (levels >= 0) and ends on the cycling letter."""
    k = table.spec.k
    alphabet = table.spec.alphabet
    for n in range(1 - k, n_max + 1):
        w = table.block(n)
        if w[-1] != alphabet[n % k]:
            _fail("block-letters", n, f"last letter {w[-1]!r}, expected {alphabet[n % k]!r}")
        if n >= 0 and w[0] != alphabet[0]:
            _fail("block-letters", n, f"first letter {w[0]!r}, expected {alphabet[0]!r}")


def check_length_tables(table: BlockTable, n_max: int) -> None:
    """The integer recurrences agree with literal lengths and letter counts."""
    first = table.spec.alphabet[0]
    for n in range(1 - table.spec.k, n_max + 1):
        w = table.block(n)
        if table.block_length(n) != len(w):
            _fail("length-tables", n, f"recurrence says {table.block_length(n)}, block has {len(w)}")
        if table.first_letter_count(n) != w.count(first):
            _fail("length-tables", n, f"first-letter count {table.first_letter_count(n)} vs {w.count(first)}")


def check_palindromic_prefixes(table: BlockTable, n_max: int) -> None:
    """Palindromic prefixes are palindromes, sized by the recurrence, nested, literal prefixes, and B_n^(d_(n+1)) Pal_(n-k) from level k on."""
    k = table.spec.k
    closures = PalindromicPrefixTable(table.spec)
    reach = closure_reach(table.spec, CLOSURE_CHECK_WORK)
    previous = ""
    for n in range(0, n_max + 1):
        p = table.palindromic_prefix(n)
        if not is_palindrome(p):
            _fail("palindromic-prefixes", n, f"{shorten(p)!r} is not a palindrome")
        if len(p) != table.palindromic_prefix_length(n):
            _fail("palindromic-prefixes", n, f"length {len(p)} vs recurrence {table.palindromic_prefix_length(n)}")
        if not table.block(n + 1).startswith(p):
            _fail("palindromic-prefixes", n, "not a prefix of the next block")
        if not p.startswith(previous):
            _fail("palindromic-prefixes", n, "does not extend the previous one")
        d_next = table.exponent(n + 1)
        if n >= k and not _same_join([p], [table.block(n)] * d_next + [table.palindromic_prefix(n - k)]):
            _fail("palindromic-prefixes", n, f"not the block to power {d_next} followed by the prefix at level {n - k}")
        explicit = (d_next - 1) * table.block_length(n)
        explicit += sum(table.exponent(j + 1) * table.block_length(j) for j in range(n))
        if len(p) != explicit:
            _fail("palindromic-prefixes", n, f"length {len(p)} vs explicit sum {explicit}")
        spread = sum(table.palindromic_prefix_length(n - j) for j in range(1, k))
        if spread != table.block_length(n) - k:
            _fail("palindromic-prefixes", n, f"window prefix lengths sum to {spread}, expected length-{k}")
        if len(p) <= reach:
            stage = exponent_sum(table.spec, n + 1)
            if closures.prefix(stage) != p:
                _fail("palindromic-prefixes", n, "disagrees with the iterated-closure construction")
        previous = p


def check_telescoping(table: BlockTable, n_max: int) -> None:
    """Consecutive block/prefix products agree, literally where both sides are concrete."""
    k = table.spec.k
    for n in range(0, n_max + 1):
        lhs = table.block_length(n + 1) + table.palindromic_prefix_length(n - k + 1)
        rhs = table.block_length(n) + table.palindromic_prefix_length(n)
        if lhs != rhs:
            _fail("telescoping", n, f"length form {lhs} != {rhs}")
        if table.block_length(n + 1) <= table.palindromic_prefix_length(n):
            _fail("telescoping", n, "next block not longer than the palindromic prefix")
        if n >= k - 1:
            left = [table.block(n + 1), table.palindromic_prefix(n - k + 1)]
            right = [table.block(n), table.palindromic_prefix(n)]
            if not _same_join(left, right):
                _fail("telescoping", n, f"literal form {shorten(''.join(left))!r} != {shorten(''.join(right))!r}")


def check_prefix_nesting(table: BlockTable, n_max: int) -> None:
    """Each block from level 0 on is a prefix of the next."""
    for n in range(0, n_max + 1):
        if not table.block(n + 1).startswith(table.block(n)):
            _fail("prefix-nesting", n, "block is not a prefix of its successor")


def check_reversal_rotation(table: BlockTable, n_max: int) -> None:
    """Reversing a block equals rotating it by its window prefix length."""
    k = table.spec.k
    for n in range(0, n_max + 1):
        w = table.block(n)
        j = table.palindromic_prefix_length(n - k) % table.block_length(n)
        if reversal(w) != conjugate(w, j):
            _fail("reversal-rotation", n, f"rotation by {j} is not the reversal")


def two_palindrome_splits(w: Word) -> list[int]:
    """Every p in 0..|w|-1 with w[:p] and w[p:] both palindromes.

    Both halves are palindromes exactly when rotating w by p gives its reversal. With q = |root|, the
    length of w's primitive root, the rotations by p and p + q are equal, and the root equals none of its
    own q - 1 other rotations, so at most one p below q works: the first occurrence of the reversed root
    in w·w, if there is one.
    """
    if not w:
        return []
    ww = w + w
    q = ww.find(w, 1)
    s = ww.find(w[:q][::-1])
    return list(range(s, len(w), q)) if s >= 0 else []


def check_two_palindrome_split(table: BlockTable, n_max: int) -> None:
    """Each block splits into two palindromes in exactly one way, the predicted one.

    A proper power u^j has j splits or none, so the single split also proves blocks 1..n_max primitive.
    """
    k = table.spec.k
    for n in range(1, n_max + 1):
        w = table.block(n)
        splits = two_palindrome_splits(w)
        expected = table.palindromic_prefix_length(n - k) if n >= k else len(w) - 1
        if splits != [expected]:
            _fail("two-palindrome-split", n, f"splits at {splits}, expected [{expected}]")


def check_near_commutation(table: BlockTable, n_max: int) -> None:
    """Products of consecutive blocks agree once each drops its own short tail."""
    k = table.spec.k
    for n in range(1, n_max + 1):
        with _at_level("near-commutation", n):
            sides = []
            for first, last, tail in ((table.block(n), table.block(n - 1), table.block_tail(n - 1, k - 1)),
                                      (table.block(n - 1), table.block(n), table.block_tail(n, 1))):
                # the tail comes off the last block, read up to its length; where the tail is longer (below
                # level k - 1) or no suffix, it comes off the product
                fits = last.endswith(tail)
                sides.append([first, (last, len(last) - len(tail))] if fits else [strip_suffix(first + last, tail)])
            if not _same_join(*sides):
                left, right = (_join(side) for side in sides)
                _fail("near-commutation", n, f"{shorten(left)!r} != {shorten(right)!r}")


def check_tail_reversal_link(table: BlockTable, n_max: int) -> None:
    """The depth-1 tail of a block is the reversal of the previous level's deepest tail."""
    k = table.spec.k
    for n in range(1, n_max + 1):
        if table.block_tail(n, 1) != reversal(table.block_tail(n - 1, k - 1)):
            _fail("tail-reversal-link", n, "depth-1 tail is not the mirrored deepest tail")


def check_tail_letters(table: BlockTable, n_max: int) -> None:
    """First and last letters of every tail follow the cycling rule."""
    k = table.spec.k
    alphabet = table.spec.alphabet
    for n in range(0, n_max + 1):
        for r in range(1, k):
            g = table.block_tail(n, r)
            if g[0] != alphabet[(n - r) % k]:
                _fail("tail-letters", n, f"depth {r} starts with {g[0]!r}, expected {alphabet[(n - r) % k]!r}")
            if g[-1] != alphabet[n % k]:
                _fail("tail-letters", n, f"depth {r} ends with {g[-1]!r}, expected {alphabet[n % k]!r}")


def check_morphic_blocks(table: BlockTable, n_max: int) -> None:
    """Blocks equal their morphic construction from the directive, each level's from the last."""
    increments = entry_increments(table.spec)
    for n in range(0, n_max + 1):
        if next(increments) != table.block(n):
            _fail("morphic-blocks", n, "morphic route disagrees with the block recurrence")


def check_increment_words(table: BlockTable, n_max: int) -> None:
    """Increment words repeat exactly when the directive letter repeats; otherwise they outgrow the closure prefix."""
    spec = table.spec
    closures = PalindromicPrefixTable(spec)
    reach = closure_reach(spec, CLOSURE_CHECK_WORK)
    closed = islice(closure_lengths(spec), 1, None)  # |u_{i+1}| for i = 1, 2, ...
    # increment i for i = 0, 1, ...: each morphism fixes its own letter, so a run repeats its entry's increment
    runs = (repeat(w, exponent(spec, entry)) for entry, w in enumerate(entry_increments(spec), 1))
    increments = chain.from_iterable(runs)
    previous = next(increments)
    for i, length in zip(range(1, exponent_sum(spec, n_max) + 1), closed):
        # increment i has |u_{i+2}| - |u_{i+1}| <= |u_{i+1}| + 1 letters, so the reach bounds all it builds
        if length > reach:
            break
        current = next(increments)
        same_letter = directive_letter(spec, i + 1) == directive_letter(spec, i)
        if (current == previous) != same_letter:
            _fail("increment-words", i, f"repeat={current == previous} but letters repeat={same_letter}")
        if not same_letter and not (current.startswith(previous) and len(current) > len(previous)):
            _fail("increment-words", i, "previous increment is not a proper prefix of the next")
        if closures.prefix(i + 1) != previous + closures.prefix(i):
            _fail("increment-words", i, "closure recurrence via the increment word fails")
        previous = current


def check_position_functions(table: BlockTable, n_max: int) -> None:
    """previous/next same-letter positions match a brute scan of the expanded directive."""
    spec = table.spec
    # next_same_letter reads entry b + k - 1, so on a finite directive of L exponents b stops at L - k + 1
    entries = n_max + spec.k if spec.period else min(n_max + spec.k, max(len(spec.preperiod) - spec.k + 1, 0))
    horizon = min(exponent_sum(spec, entries), _POSITION_CAP)
    letters = [directive_letter(spec, i) for i in range(1, horizon + 1)]
    for i in range(1, horizon + 1):
        target = letters[i - 1]
        brute_prev = next((j for j in range(i - 1, 0, -1) if letters[j - 1] == target), None)
        if previous_same_letter(spec, i) != brute_prev:
            _fail("position-functions", i, f"previous: {previous_same_letter(spec, i)} vs brute {brute_prev}")
        nxt = next_same_letter(spec, i)
        brute_next = next((j for j in range(i + 1, horizon + 1) if letters[j - 1] == target), None)
        if brute_next is not None and nxt != brute_next:
            _fail("position-functions", i, f"next: {nxt} vs brute {brute_next}")


def check_junction_products(table: BlockTable, n_max: int) -> None:
    """Both literal factorizations of a consecutive-block product hold.

    Below level k the junction word carries a dangling one-letter inverse;
    there the identity is checked in its cancellation-resolved form (one
    letter stripped from the preceding power, then the deepest tail).
    """
    k = table.spec.k
    alphabet = table.spec.alphabet
    for n in range(1, n_max + 1):
        with _at_level("junction-products", n):
            product = [table.block(n + 1), table.block(n)]
            if not _same_join(product, [table.power_prefix(n + 1), table.block_tail(n, k - 1)]):
                _fail("junction-products", n, "power-prefix factorization fails")
            if n >= k:
                if not _same_join(product, [table.block(n)] * (table.exponent(n + 1) + 1) + [table.junction(n - 1)]):
                    _fail("junction-products", n, "junction factorization fails")
            else:
                power = table.block(n) * (table.exponent(n + 1) + 1)
                if not _same_join(product, [strip_suffix(power, alphabet[n % k]), table.block_tail(n, k - 1)]):
                    _fail("junction-products", n, "resolved formal junction fails")


def _same_join(left: list[_Piece], right: list[_Piece]) -> bool:
    """Whether the pieces of `left` and those of `right` join to the same word, compared without joining either.

    A piece is a word, or a (word, stop) pair read only up to stop. Step by step, `startswith` compares the
    stretch up to the nearer end of a piece at its offsets. A word the stretch covers whole is the needle;
    any other stretch is copied from the right piece, _STRETCH letters at a time.
    """
    left, right = _bounded(left), _bounded(right)
    if sum(stop for _, stop in left) != sum(stop for _, stop in right):
        return False
    x = y = i = j = 0  # piece left[x] is read from i, piece right[y] from j
    while x < len(left):
        (a, end_a), (b, end_b) = left[x], right[y]
        size = min(end_a - i, end_b - j)
        if size == len(b):
            same = a.startswith(b, i)
        elif size == len(a):
            same = b.startswith(a, j)
        else:
            stretches = range(j, j + size, _STRETCH)
            same = all(a.startswith(b[at:min(at + _STRETCH, j + size)], i + at - j) for at in stretches)
        if not same:
            return False
        i, j = i + size, j + size
        if i == end_a:
            x, i = x + 1, 0
        if j == end_b:
            y, j = y + 1, 0
    return True


def _bounded(pieces: list[_Piece]) -> list[tuple[Word, int]]:
    """Each nonempty piece as (word, stop)."""
    pairs = ((p, len(p)) if isinstance(p, str) else p for p in pieces)
    return [(w, stop) for w, stop in pairs if stop]


def _join(pieces: list[_Piece]) -> Word:
    """The word the pieces join to, for a failure message."""
    return "".join(w[:stop] for w, stop in _bounded(pieces))


def check_power_prefixes(table: BlockTable, n_max: int) -> None:
    """Power prefixes are palindromic prefixes of the word with the predicted lengths."""
    k = table.spec.k
    closures = PalindromicPrefixTable(table.spec)
    reach = closure_reach(table.spec, CLOSURE_CHECK_WORK)
    for n in range(1, n_max + 1):
        r = table.power_prefix(n)
        if not is_palindrome(r):
            _fail("power-prefixes", n, "not a palindrome")
        expected = (table.exponent(n) + 1) * table.block_length(n - 1) + table.palindromic_prefix_length(n - 1 - k)
        if len(r) != expected:
            _fail("power-prefixes", n, f"length {len(r)} vs predicted {expected}")
        if not table.block(table.level_reaching(len(r))).startswith(r):
            _fail("power-prefixes", n, "not a prefix of the word")
        if len(r) <= reach and closures.prefix(exponent_sum(table.spec, n) + 1) != r:
            _fail("power-prefixes", n, "disagrees with the closure construction")


def check_index_consistency(table: BlockTable, n_max: int) -> None:
    """Prefix and block indices differ by one; witnesses have the exact lengths and occur."""
    for n in range(1, n_max + 1):
        pre = prefix_index(table, n)
        blk = block_index(table, n)
        if pre._replace(whole=pre.whole + 1) != blk:
            _fail("index-consistency", n, f"{pre} + 1 != {blk}")
        # the witness is block n followed by the power prefix n + 1, checked from its two parts
        block, power = table.block(n), table.power_prefix(n + 1)
        length = table.block_length(n) + len(power)
        if length != blk.length:
            _fail("index-consistency", n, f"witness length {length}, predicted {blk.length}")
        if not all(power.startswith(block, i * len(block)) for i in range(blk.whole - 1)):
            _fail("index-consistency", n, "witness does not start with the full power")
        host_level = witness_host_level(table, n)  # a finite directive has no block past its last exponent
        exists = table.spec.period or host_level <= len(table.spec.preperiod)
        if exists and table.block_length(host_level) <= _WITNESS_OCCURRENCE_CAP:
            host = table.block(host_level)
            if host.find(block_index_witness(table, n)) == -1:
                _fail("index-consistency", n, "maximal power not visible at the predicted level")
            if not host.startswith(power):
                _fail("index-consistency", n, "prefix witness is not a prefix")
        del power  # released before the next level's, which is longer, is built


def check_length_grids(table: BlockTable, n_max: int) -> None:
    """Grid lengths stay inside their window, strictly sorted, disjoint across depths."""
    for n in range(1, n_max + 1):
        grid = length_sets(table, n)
        low, high = table.block_length(n), table.block_length(n + 1)
        seen: set[int] = set()
        for depth, members in grid.items():
            if list(members) != sorted(members):
                _fail("length-grids", n, f"depth {depth} not sorted")
            for m in members:
                if not low <= m < high:
                    _fail("length-grids", n, f"member {m} outside window {low}..{high - 1}")
                if m in seen:
                    _fail("length-grids", n, f"member {m} appears at two depths")
                seen.add(m)
                if m <= _CENSUS_LENGTH_CAP:
                    row = census(table, m, 2)
                    if row.provenance.depth != depth:
                        _fail("length-grids", n, f"census classifies {m} at depth {row.provenance.depth}, grid says {depth}")


def check_singular_forms(table: BlockTable, n_max: int) -> None:
    """Factor partitions hold their invariants; the small-level window has its two equivalent forms."""
    k = table.spec.k
    alphabet = table.spec.alphabet
    for n in range(1, n_max + 1):
        if table.block_length(n) > _PARTITION_SIZE_CAP:
            break
        with _at_level("singular-forms", n):
            factor_partition(table, n)
            for r in range(1, k):
                if not 1 <= n <= r:
                    continue
                window = singular_window(table, n, r)
                pp = table.power_prefix(n)
                if n < r:
                    alternate = pp + alphabet[(n - r) % k] + pp
                else:
                    alternate = strip_suffix(pp, table.palindromic_prefix(0)) + pp
                if window != alternate:
                    _fail("singular-forms", n, f"kind {r}: window forms disagree")


def check_partition_tilings(table: BlockTable, n_max: int) -> None:
    """Tilings rebuild their block literally and regroup consistently across levels."""
    for n in range(0, n_max + 1):
        upto = n + 2
        view = level_partition(table, n, upto)
        host = table.block(upto)
        # compared in place: each tile's block sits at its start and ends at the next, the last at the block's end
        tiles = zip(map(table.block, view.levels), view.starts, view.starts[1:])
        if view.starts[-1] != len(host) or not all(host.startswith(tile, a) and a + len(tile) == b for tile, a, b in tiles):
            _fail("partition-tilings", n, "tiles do not rebuild the block")
        if n >= 1 and tuple(refined_levels(table, view)) != tile_levels(table, n - 1, upto):
            _fail("partition-tilings", n, "one-step expansion disagrees with the finer tiling")


def check_closure_equivalence(table: BlockTable, n_max: int) -> None:
    """The closure construction and the block recurrence build the same prefix."""
    target = min(table.block_length(n_max + 1), closure_reach(table.spec, CLOSURE_CHECK_WORK))
    by_closure = closure_prefix(table.spec, target)
    # compared in place: the block reaching target letters starts with exactly the closure's target letters
    if len(by_closure) != target or not table.block(table.level_reaching(target)).startswith(by_closure):
        _fail("closure-equivalence", target, "construction routes disagree")


ALL_CHECKS: tuple[tuple[str, Callable[[BlockTable, int], None]], ...] = (
    ("block-letters", check_block_letters),
    ("length-tables", check_length_tables),
    ("palindromic-prefixes", check_palindromic_prefixes),
    ("telescoping", check_telescoping),
    ("prefix-nesting", check_prefix_nesting),
    ("reversal-rotation", check_reversal_rotation),
    ("two-palindrome-split", check_two_palindrome_split),
    ("near-commutation", check_near_commutation),
    ("tail-reversal-link", check_tail_reversal_link),
    ("tail-letters", check_tail_letters),
    ("morphic-blocks", check_morphic_blocks),
    ("increment-words", check_increment_words),
    ("position-functions", check_position_functions),
    ("junction-products", check_junction_products),
    ("power-prefixes", check_power_prefixes),
    ("index-consistency", check_index_consistency),
    ("length-grids", check_length_grids),
    ("singular-forms", check_singular_forms),
    ("partition-tilings", check_partition_tilings),
    ("closure-equivalence", check_closure_equivalence),
)


def run_battery(table: BlockTable, n_max: int):
    """Run every check; yield (name, None) on success or (name, error) on the first failure inside it.

    A cancellation or partition invariant that breaks inside a check is that
    check's failure too, so the rest of the battery still runs.
    """
    for name, fn in ALL_CHECKS:
        try:
            fn(table, n_max)
        except (VerificationError, CancellationError, InvariantViolation) as exc:
            yield name, exc
        else:
            yield name, None
