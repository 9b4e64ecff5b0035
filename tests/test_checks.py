"""The invariant battery: registry shape, healthy runs, and failure reporting."""

import re
import tracemalloc
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import episturm.checks as checks
from episturm.blocks import BlockTable
from episturm.checks import ALL_CHECKS, check_block_letters, run_battery
from episturm.directive import (
    CLOSURE_CHECK_WORK,
    PalindromicPrefixTable,
    closure_lengths,
    closure_prefix,
    closure_reach,
)
from episturm.errors import CancellationError, InvariantViolation, VerificationError
from episturm.spec import DirectiveSpec

from conftest import SPEC_TEXTS


class TestRegistry:
    def test_every_check_is_named_and_unique(self):
        names = [name for name, _ in ALL_CHECKS]
        assert len(names) == 20
        assert len(set(names)) == len(names)
        assert all(re.fullmatch(r"[a-z]+(-[a-z]+)*", name) for name in names)

    def test_battery_covers_the_registry_in_order(self):
        table = BlockTable(DirectiveSpec.parse(SPEC_TEXTS["tribonacci"]))
        results = list(run_battery(table, 3))
        assert [name for name, _ in results] == [name for name, _ in ALL_CHECKS]

    def test_healthy_tables_pass_everything(self):
        for text in (SPEC_TEXTS["fibonacci"], SPEC_TEXTS["k3_mixed"]):
            table = BlockTable(DirectiveSpec.parse(text))
            failures = [(name, err) for name, err in run_battery(table, 5) if err is not None]
            assert failures == []


class _CorruptedTable(BlockTable):
    """Returns a same-length wrong word for one block level."""

    def block(self, n: int) -> str:
        w = super().block(n)
        if n == 2:
            return w[0] * len(w)
        return w


class TestFailureReporting:
    def test_direct_check_raises_with_level_and_name(self):
        table = _CorruptedTable(DirectiveSpec.parse(SPEC_TEXTS["tribonacci"]))
        with pytest.raises(VerificationError, match=r"block-letters at level 2"):
            check_block_letters(table, 4)

    def test_battery_reports_the_failure_instead_of_raising(self):
        table = _CorruptedTable(DirectiveSpec.parse(SPEC_TEXTS["tribonacci"]))
        battery = run_battery(table, 4)
        name, error = next(battery)
        battery.close()
        assert name == "block-letters"
        assert isinstance(error, VerificationError)
        assert "level 2" in str(error)


class _CorruptedBlock(BlockTable):
    """Returns corrupt(w) in place of the word w that one method, the block unless set, gives at one level."""

    method = "block"
    level = 2

    @staticmethod
    def corrupt(w: str) -> str:
        return w

    def _at(self, method: str, n: int, w: str) -> str:
        return self.corrupt(w) if (method, n) == (self.method, self.level) else w

    def block(self, n: int) -> str:
        return self._at("block", n, super().block(n))

    def power_prefix(self, n: int) -> str:
        return self._at("power_prefix", n, super().power_prefix(n))


class TestTwoPalindromeSplit:
    @pytest.mark.parametrize(
        "level, corrupt, message",
        [
            # a^4 splits at every p
            (2, lambda w: w[0] * len(w), "two-palindrome-split at level 2: splits at [0, 1, 2, 3], expected [3]"),
            # abacabaabacab with its second letter made an a: aaacabaabacab splits nowhere
            (4, lambda w: w[0] * 2 + w[2:], "two-palindrome-split at level 4: splits at [], expected [1]"),
            # a proper power u^j splits j times or never, so the one split is where the battery proves blocks primitive
            (4, lambda w: w * 2, "two-palindrome-split at level 4: splits at [1, 14], expected [1]"),
            (5, lambda w: w * 3, "two-palindrome-split at level 5: splits at [3, 27, 51], expected [3]"),
        ],
        ids=["every split", "no split", "square", "cube"],
    )
    def test_a_wrong_split_fails_the_check_and_the_battery_runs_on(self, level, corrupt, message, monkeypatch):
        monkeypatch.setattr(_CorruptedBlock, "level", level)
        monkeypatch.setattr(_CorruptedBlock, "corrupt", staticmethod(corrupt))
        table = _CorruptedBlock(DirectiveSpec.parse(SPEC_TEXTS["tribonacci"]))
        results = list(run_battery(table, 6))
        assert [name for name, _ in results] == [name for name, _ in ALL_CHECKS]
        error = dict(results)["two-palindrome-split"]
        assert isinstance(error, VerificationError) and str(error) == message

    def test_the_split_checks_every_level_up_to_n_max(self, monkeypatch):
        # Fibonacci block 30 has 2,178,309 letters, twice the 10^6 the check once stopped at
        table = BlockTable(DirectiveSpec.parse(SPEC_TEXTS["fibonacci"]))
        split, lengths = checks.two_palindrome_splits, []
        monkeypatch.setattr(checks, "two_palindrome_splits", lambda w: lengths.append(len(w)) or split(w))
        checks.check_two_palindrome_split(table, 30)
        assert lengths == [table.block_length(n) for n in range(1, 31)]
        assert lengths[-1] == 2_178_309


def _cut(data, word: str) -> list:
    """The word cut at random places; a repeated cut or one at either end leaves an empty piece.

    Some pieces come as (word, stop) pairs, their words running on past stop.
    """
    cuts = sorted(data.draw(st.lists(st.integers(0, len(word)), max_size=6)))
    bounds = [0, *cuts, len(word)]
    pieces = [word[a:b] for a, b in zip(bounds, bounds[1:])]
    return [(p + data.draw(st.text("ab", max_size=3)), len(p)) if data.draw(st.booleans()) else p for p in pieces]


def _joined(pieces: list) -> str:
    return "".join(p if isinstance(p, str) else p[0][:p[1]] for p in pieces)


class TestSameJoin:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_pieces_compare_as_their_joins(self, data):
        left = data.draw(st.text("ab", max_size=12))
        # the same word, another of its length, or one of any length, so unequal totals come up too
        same_length = st.text("ab", min_size=len(left), max_size=len(left))
        right = data.draw(st.one_of(st.just(left), same_length, st.text("ab", max_size=12)))
        a, b = _cut(data, left), _cut(data, right)
        stretch = data.draw(st.sampled_from([1, 2, 3, checks._STRETCH]))
        with mock.patch.object(checks, "_STRETCH", stretch):
            assert checks._same_join(a, b) == (_joined(a) == _joined(b))

    def test_near_commutation_copies_at_most_one_stretch(self):
        # Fibonacci blocks 31 and 32 have 3,524,578 and 5,702,887 letters; each side of level 32 drops a tail
        # from its last block, and the stretch inside both pieces of block 32 is 2,178,309 letters
        table = BlockTable(DirectiveSpec.parse(SPEC_TEXTS["fibonacci"]))
        assert table.block_length(32) - table.block_length(31) > 2 * checks._STRETCH
        checks.check_near_commutation(table, 32)  # builds the blocks
        tracemalloc.start()
        try:
            checks.check_near_commutation(table, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < checks._STRETCH + (1 << 17)


class TestOneComposition:
    @pytest.mark.parametrize("name", ["check_morphic_blocks", "check_increment_words"])
    def test_each_morphic_check_composes_the_directive_once(self, monkeypatch, name):
        # k3_mixed has runs of two letters, which increment-words reads as one entry repeated
        real, started = checks.entry_increments, []
        monkeypatch.setattr(checks, "entry_increments", lambda spec: started.append(spec) or real(spec))
        table = BlockTable(DirectiveSpec.parse(SPEC_TEXTS["k3_mixed"]))
        getattr(checks, name)(table, 8)
        assert started == [table.spec]


class _CorruptedTails(BlockTable):
    """Returns every level-3 tail with its last letter changed."""

    def block_tail(self, n: int, r: int) -> str:
        g = super().block_tail(n, r)
        return g[:-1] + ("a" if g[-1] != "a" else "b") if n == 3 else g


class TestStepErrors:
    def test_a_step_error_fails_its_check_and_the_battery_runs_on(self):
        # stripping a wrong tail cancels nothing, and the wrong window breaks the partition's invariants
        table = _CorruptedTails(DirectiveSpec.parse(SPEC_TEXTS["tribonacci"]))
        results = list(run_battery(table, 6))
        assert [name for name, _ in results] == [name for name, _ in ALL_CHECKS]
        failed = {name: error for name, error in results if error is not None}
        assert list(failed) == ["near-commutation", "tail-reversal-link", "tail-letters", "junction-products", "singular-forms"]
        # each failure names its level, the step errors included
        assert all(isinstance(error, VerificationError) for error in failed.values())
        assert all(str(error).startswith(f"{name} at level 3: ") for name, error in failed.items())
        assert str(failed["near-commutation"]).endswith("'cabb' is not a suffix of 'abacabacaba'")
        assert isinstance(failed["near-commutation"].__context__, CancellationError)
        assert isinstance(failed["singular-forms"].__context__, InvariantViolation)


class _CorruptedClosures(PalindromicPrefixTable):
    """Closure prefixes from number `first` on have their last letter changed."""

    first = 8

    def prefix(self, j: int) -> str:
        w = super().prefix(j)
        return w[:-1] + ("a" if w[-1] != "a" else "b") if j >= self.first else w


CLOSURE_CHECKS = ("palindromic-prefixes", "increment-words", "power-prefixes", "closure-equivalence")


class TestClosureCaps:
    @staticmethod
    def failing(text: str, n: int, monkeypatch, first: int = 8) -> list[str]:
        monkeypatch.setattr(_CorruptedClosures, "first", first)
        monkeypatch.setattr(checks, "PalindromicPrefixTable", _CorruptedClosures)
        monkeypatch.setattr(checks, "closure_prefix", lambda spec, length: closure_prefix(spec, length)[:-1] + "?")
        table = BlockTable(DirectiveSpec.parse(text))
        return [name for name, error in run_battery(table, n) if error is not None]

    def test_closure_checks_compare_within_their_caps(self, monkeypatch):
        assert self.failing(SPEC_TEXTS["tribonacci"], 8, monkeypatch) == list(CLOSURE_CHECKS)

    @pytest.mark.parametrize("text, n, compared", [(SPEC_TEXTS["tribonacci"], 8, 274), ("k=2; d=4000; 1", 3, 1_448)])
    def test_closure_equivalence_compares_the_letters_within_the_reach(self, monkeypatch, text, n, compared):
        # Tribonacci block 9 has 274 letters, within the reach; closing a^j for j up to 4,000 scans about 8 * 10^6
        # letters, above the work cap, so only the first 1,448 letters of the word are compared
        spec = DirectiveSpec.parse(text)
        table = BlockTable(spec)
        assert compared == min(table.block_length(n + 1), closure_reach(spec, CLOSURE_CHECK_WORK))
        asked = []
        monkeypatch.setattr(checks, "closure_prefix", lambda spec, length: asked.append(length) or closure_prefix(spec, length))
        checks.check_closure_equivalence(table, n)
        assert asked == [compared]
        # on a^4000 b, the palindromic and power prefixes are past the reach, and increment-words stops before prefix 1,450
        if compared == 1_448:
            assert self.failing(text, n, monkeypatch) == ["increment-words", "closure-equivalence"]
            assert self.failing(text, n, monkeypatch, first=1450) == ["closure-equivalence"]

    def test_palindromic_prefixes_compare_up_to_the_closure_reach(self, monkeypatch):
        # Tribonacci's palindromic prefix 20 (closure prefix 21) has 266,078 letters, within the closure's reach
        spec = DirectiveSpec.parse(SPEC_TEXTS["tribonacci"])
        table = BlockTable(spec)
        assert table.palindromic_prefix_length(20) == 266_078 < closure_reach(spec, CLOSURE_CHECK_WORK)
        monkeypatch.setattr(_CorruptedClosures, "first", 21)
        monkeypatch.setattr(checks, "PalindromicPrefixTable", _CorruptedClosures)
        checks.check_palindromic_prefixes(table, 19)
        with pytest.raises(VerificationError, match="palindromic-prefixes at level 20: disagrees with the iterated-closure"):
            checks.check_palindromic_prefixes(table, 20)

    def test_increment_words_reads_the_closure_lengths_as_a_stream(self):
        # the first directive entry of a^4000000 b closes 4,000,000 prefixes, but the closure's reach stops the
        # check at prefix 1,449, so it keeps no list of their lengths
        table = BlockTable(DirectiveSpec.parse("k=2; d=4000000; 1"))
        tracemalloc.start()
        try:
            checks.check_increment_words(table, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_increment_words_compares_up_to_the_closure_reach(self, monkeypatch):
        # Tribonacci increment 7 is the first step that compares the corrupted closure prefix 8 (95 letters); the
        # reach admits it exactly when the work budget covers closing prefixes 1..7
        spec = DirectiveSpec.parse(SPEC_TEXTS["tribonacci"])
        lengths = list(islice(closure_lengths(spec), 8))
        work = sum(lengths[:7])
        monkeypatch.setattr(_CorruptedClosures, "first", 8)
        monkeypatch.setattr(checks, "PalindromicPrefixTable", _CorruptedClosures)
        monkeypatch.setattr(checks, "CLOSURE_CHECK_WORK", work)
        assert closure_reach(spec, work) == lengths[7] == 95
        with pytest.raises(VerificationError, match="^increment-words at level 7: closure recurrence via the increment"):
            checks.check_increment_words(BlockTable(spec), 8)
        monkeypatch.setattr(checks, "CLOSURE_CHECK_WORK", work - 1)
        assert closure_reach(spec, work - 1) == lengths[6]
        checks.check_increment_words(BlockTable(spec), 8)


def _wrong_at(real, at, wrong):
    """`real` with its result replaced by wrong(result) when its second argument is `at` (always, for None)."""
    return lambda first, second, *rest: (
        wrong(real(first, second, *rest)) if at in (None, second) else real(first, second, *rest)
    )


def _wrong_item(real, at, wrong):
    """`real`, a stream of one argument, with item `at` (counted from 0) replaced by wrong(item)."""
    return lambda first: (wrong(w) if i == at else w for i, w in enumerate(real(first)))


FAILURE_LINES = [  # (what is patched, at which level, how its result goes wrong, the failure)
    # Tribonacci directive letters cycle abc, so position 5 (b) has its neighbours at 2 and 8
    ("previous_same_letter", 5, lambda j: None, "position-functions at level 5: previous: None vs brute 2"),
    ("next_same_letter", 5, lambda j: j + 1, "position-functions at level 5: next: 9 vs brute 8"),
    # the level-1 window holds 2..3: length 2 carries a square at depth 1, length 3 at depth 2
    ("length_sets", 1, lambda grid: {1: (3, 2), 2: (), 3: ()}, "length-grids at level 1: depth 1 not sorted"),
    ("length_sets", 1, lambda grid: {1: (2, 4), 2: (), 3: ()}, "length-grids at level 1: member 4 outside window 2..3"),
    ("length_sets", 1, lambda grid: {1: (2,), 2: (2,), 3: ()}, "length-grids at level 1: member 2 appears at two depths"),
    ("length_sets", 1, lambda grid: {1: (3,), 2: (2,), 3: ()},
     "length-grids at level 1: census classifies 3 at depth 2, grid says 1"),
    ("singular_window", 1, lambda w: w + "a", "singular-forms at level 1: kind 1: window forms disagree"),
    # increments 2 and 3 are abac and abacaba; Tribonacci entries are single letters, so stream item i is increment i
    ("entry_increments", 3, lambda w: w[:4], "increment-words at level 3: repeat=True but letters repeat=False"),
    ("entry_increments", 3, lambda w: w[1:],
     "increment-words at level 3: previous increment is not a proper prefix of the next"),
    ("refined_levels", None, lambda levels: levels + [0],
     "partition-tilings at level 1: one-step expansion disagrees with the finer tiling"),
    # the level-1 tiling of block 3 is ab a c ab a: reversed, its tiles no longer sit at their starts
    ("level_partition", 1, lambda view: view._replace(levels=view.levels[::-1]),
     "partition-tilings at level 1: tiles do not rebuild the block"),
    # level 1: block ab, power prefix 2 aba, prefix index 1 + 1/2 and block index 2 + 1/2, a witness of 5 letters
    ("prefix_index", 1, lambda pre: pre._replace(whole=pre.whole + 1), "index-consistency at level 1: 2 + 1/2 + 1 != 2 + 1/2"),
    ("power_prefix", 2, lambda w: w + "a", "index-consistency at level 1: witness length 6, predicted 5"),
    ("power_prefix", 2, lambda w: "c" + w[1:], "index-consistency at level 1: witness does not start with the full power"),
    ("block_index_witness", 1, lambda w: w + "d", "index-consistency at level 1: maximal power not visible at the predicted level"),
    # block 4, abacabaabacab, with its tenth letter made a c
    ("block", 4, lambda w: w[:9] + "c" + w[10:], "near-commutation at level 4: 'abacabaabccaba' != 'abacabaabacaba'"),
]


class TestFailureLines:
    @pytest.mark.parametrize("name, at, wrong, message", FAILURE_LINES, ids=[message for *_, message in FAILURE_LINES])
    def test_each_failure_line_names_its_level_and_the_battery_runs_on(self, monkeypatch, name, at, wrong, message):
        if name in ("block", "power_prefix"):
            monkeypatch.setattr(_CorruptedBlock, "method", name)
            monkeypatch.setattr(_CorruptedBlock, "level", at)
            monkeypatch.setattr(_CorruptedBlock, "corrupt", staticmethod(wrong))
        else:
            patch = _wrong_item if name == "entry_increments" else _wrong_at
            monkeypatch.setattr(checks, name, patch(getattr(checks, name), at, wrong))
        results = list(run_battery(_CorruptedBlock(DirectiveSpec.parse(SPEC_TEXTS["tribonacci"])), 6))
        assert [check for check, _ in results] == [check for check, _ in ALL_CHECKS]
        error = dict(results)[message.split(" at level ")[0]]
        assert isinstance(error, VerificationError) and str(error) == message
