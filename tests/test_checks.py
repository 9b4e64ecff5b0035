"""The invariant battery: registry shape, healthy runs, and failure reporting."""

import re

import pytest

import episturm.checks as checks
from episturm.blocks import BlockTable
from episturm.checks import ALL_CHECKS, check_block_letters, run_battery
from episturm.directive import DirectiveSpec, PalindromicPrefixTable, closure_prefix
from episturm.errors import CancellationError, InvariantViolation, VerificationError

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

    def test_closure_checks_skip_a_closure_whose_work_passes_the_cap(self, monkeypatch):
        # closing a^j for j up to 4,000 scans about 8 * 10^6 letters, above the work cap, so
        # only increment-words still compares closure prefixes, and it stops before prefix 1,450
        assert self.failing("k=2; d=4000; 1", 3, monkeypatch) == ["increment-words"]
        assert self.failing("k=2; d=4000; 1", 3, monkeypatch, first=1450) == []

    def test_increment_words_stops_at_the_composed_letter_cap(self, monkeypatch):
        # Tribonacci increments 1..7 add up to 175 letters, and increment 7 is the
        # first step that compares the corrupted closure prefix 8
        monkeypatch.setattr(checks, "_COMPOSED_LETTER_CAP", 175)
        assert "increment-words" in self.failing(SPEC_TEXTS["tribonacci"], 8, monkeypatch)
        monkeypatch.setattr(checks, "_COMPOSED_LETTER_CAP", 174)
        assert "increment-words" not in self.failing(SPEC_TEXTS["tribonacci"], 8, monkeypatch)
