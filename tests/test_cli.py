"""Command-line behavior: outputs, exit codes, JSON rows against the schema."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import episturm.cli as cli
import episturm.oracle as oracle
import episturm.partition as partition
import episturm.powers as powers
from episturm.blocks import BlockTable
from episturm.directive import DirectiveSpec
from episturm.words import RationalIndex

TRIB = "k=3; d=; 1"
MIX3 = "k=3; d=1,1,2; 2,1,2"

SCHEMA = json.loads((Path(cli.__file__).parent / "report.schema.json").read_text())
VALIDATOR = Draft202012Validator(SCHEMA)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_rows(out: str) -> list[dict]:
    rows = [json.loads(line) for line in out.splitlines() if line.strip()]
    for row in rows:
        VALIDATOR.validate(row)
    return rows


class TestGenerate:
    def test_prints_the_prefix(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--spec", TRIB, "--length", "31")
        assert code == 0
        assert out.strip() == "abacabaabacababacabaabacabacaba"

    def test_zero_length_prints_nothing(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--spec", TRIB, "--length", "0")
        assert code == 0
        assert out == ""

    def test_json_row(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--spec", TRIB, "--length", "7", "--json")
        assert code == 0
        rows = json_rows(out)
        assert rows[0] == {"kind": "prefix", "length": 7, "word": "abacaba"}
        assert rows[-1]["kind"] == "status" and rows[-1]["ok"] is True

    def test_negative_length_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--spec", TRIB, "--length", "-1")
        assert code == 2
        assert "length" in err

    def test_absurd_length_hits_the_guard(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--spec", TRIB, "--length", str(10**12))
        assert code == 4
        assert "guard" in err

    def test_length_just_over_the_guard_exits_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "generate", "--spec", TRIB, "--length", str(cli._GENERATE_GUARD + 1))
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "guard" in err

    def test_long_exponent_trips_the_guard_at_once(self, capsys):
        # 64,000 letters, but closing a^j for j up to 32,000 scans about 5 * 10^8 letters
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "generate", "--spec", "k=2; d=32000; 1", "--length", "64000")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "guard" in err

    @pytest.mark.parametrize(
        "length, code, out",
        [("4", 0, "abab\n"), ("5", 0, "ababa\n"), ("6", 2, ""), ("50", 2, ""), (str(10**30), 2, "")],
    )
    def test_a_finite_directive_within_the_guard_runs_out_as_a_usage_error(self, capsys, length, code, out):
        # its whole closure scans 9 letters, so no length trips the guard
        result = run_cli(capsys, "generate", "--spec", "k=2; d=1,2", "--length", length)
        assert result[:2] == (code, out)
        assert code == 0 or result[2].startswith("episturm generate: directive is finite")

    def test_a_finite_directive_above_the_guard_trips_it(self, capsys, monkeypatch):
        # building 3 letters of aa.. closes prefixes of 0, 1 and 2 letters before the directive runs out
        monkeypatch.setattr(cli, "_GENERATE_GUARD", 1)
        assert run_cli(capsys, "generate", "--spec", "k=2; d=2", "--length", "2")[0] == 0
        assert run_cli(capsys, "generate", "--spec", "k=2; d=2", "--length", "3")[0] == 4
        monkeypatch.setattr(cli, "_GENERATE_GUARD", 3)
        assert run_cli(capsys, "generate", "--spec", "k=2; d=2", "--length", "3")[0] == 2

    def test_guard_counts_the_letters_the_closure_scans(self, capsys, monkeypatch):
        # 31 letters of the Tribonacci word close prefixes of 0, 1, 3, 7, 14 and 27 letters
        monkeypatch.setattr(cli, "_GENERATE_GUARD", 52)
        assert run_cli(capsys, "generate", "--spec", TRIB, "--length", "31")[0] == 0
        monkeypatch.setattr(cli, "_GENERATE_GUARD", 51)
        assert run_cli(capsys, "generate", "--spec", TRIB, "--length", "31")[0] == 4


class TestBlocks:
    def test_text_output_mentions_the_block(self, capsys):
        code, out, _ = run_cli(capsys, "blocks", "--spec", TRIB, "--n", "3")
        assert code == 0
        assert "abacaba" in out and "indices" in out

    def test_json_rows_carry_all_parts(self, capsys):
        code, out, _ = run_cli(capsys, "blocks", "--spec", MIX3, "--n", "3", "--json")
        assert code == 0
        rows = json_rows(out)
        kinds = [r["kind"] for r in rows]
        assert kinds == ["block", "palindromic-prefix", "tail", "tail", "index", "status"]
        block = rows[0]
        assert block["length"] == 11 and block["word"] == "abacabacaba"
        assert rows[1]["length"] == 22
        index = rows[4]
        assert index["block_index"] == {"text": "4", "whole": 4, "num": 0, "den": 11}

    def test_missing_level_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "blocks", "--spec", TRIB)
        assert code == 2
        assert "--n" in err

    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "blocks", "--spec", "k=1; d=; 1", "--n", "2")
        assert code == 2

    def test_large_exponent_trips_the_length_guard_at_once(self, capsys):
        # the level-2 palindromic prefix would have 10^9 letters
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "blocks", "--spec", "k=2; d=; 1000", "--n", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and "palindromic prefix at level 2" in err

    def test_env_guard_overrides_level_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("EPISTURM_GUARD", "4")
        code, _, err = run_cli(capsys, "blocks", "--spec", TRIB, "--n", "6")
        assert code == 4
        assert "guard" in err
        monkeypatch.setenv("EPISTURM_GUARD", "not-a-number")
        code, _, err = run_cli(capsys, "blocks", "--spec", TRIB, "--n", "2")
        assert code == 2


class TestSingular:
    def test_lists_every_class(self, capsys):
        code, out, _ = run_cli(capsys, "singular", "--spec", TRIB, "--n", "2", "--json")
        assert code == 0
        rows = json_rows(out)
        classes = [r for r in rows if r["kind"] == "singular-class"]
        assert [c["size"] for c in classes] == [4, 2, 3]
        summary = next(r for r in rows if r["kind"] == "singular-summary")
        assert summary["total"] == 9 and summary["expected_total"] == 9

    def test_full_expands_members(self, capsys):
        code, out, _ = run_cli(capsys, "singular", "--spec", TRIB, "--n", "2", "--full", "--json")
        rows = json_rows(out)
        kinds = {r["r"]: r for r in rows if r["kind"] == "singular-class"}
        assert set(kinds[1]["members"]) == {"abab", "baba"}
        assert set(kinds[2]["members"]) == {"aaba", "abaa", "baab"}

    def test_huge_level_hits_the_guard(self, capsys):
        code, _, err = run_cli(capsys, "singular", "--spec", TRIB, "--n", "40")
        assert code == 4

    def test_quadratic_partition_trips_the_guard_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "singular", "--spec", TRIB, "--n", "16")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "16" in err
        assert err == "episturm singular: the level-16 partition has 1142271507 letters, above the length guard 134217728\n"


class TestPartition:
    def test_tiling_row(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--spec", TRIB, "--n", "1", "--m", "3", "--json")
        assert code == 0
        rows = json_rows(out)
        part = rows[0]
        assert part["kind"] == "partition"
        assert part["items"] == [[1, 0, 2], [0, 2, 1], [-1, 3, 1], [1, 4, 2], [0, 6, 1]]
        assert part["covered"] == 7

    def test_verify_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--spec", MIX3, "--n", "2", "--verify", "--json")
        assert code == 0
        rows = json_rows(out)
        verdict = next(r for r in rows if r["kind"] == "verification")
        assert verdict["ok"] is True

    def test_verify_reports_a_regrouping_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(partition, "refined_levels", lambda table, view: [])
        code, out, _ = run_cli(capsys, "partition", "--spec", MIX3, "--n", "2", "--verify", "--json")
        assert code == 3
        rows = json_rows(out)
        verdict = next(r for r in rows if r["kind"] == "verification")
        assert verdict["ok"] is False and verdict["detail"] == "one-step regrouping disagrees"
        assert rows[-1]["error"] == "level-2 tiling does not regroup the level-3 tiling"
        code, out, err = run_cli(capsys, "partition", "--spec", MIX3, "--n", "2", "--verify")
        assert code == 3 and out.endswith("regrouping against the level-3 tiling: MISMATCH\n")
        assert err == "episturm partition: level-2 tiling does not regroup the level-3 tiling\n"

    def test_default_host_is_two_levels_up(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--spec", TRIB, "--n", "1", "--json")
        rows = json_rows(out)
        assert rows[0]["upto"] == 3

    def test_too_many_tiles_trip_the_guard_at_once(self, capsys):
        # 69,700,671 tiles; expanding them used to take minutes and gigabytes
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "partition", "--spec", TRIB, "--n", "1", "--m", "30")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "69700671 tiles" in err

    def test_tiles_just_under_the_guard_are_accepted(self, capsys, monkeypatch):
        # the level-1 tiling of block 8 has 105 tiles
        monkeypatch.setattr(cli, "_PARTITION_TILE_GUARD", 105)
        code, _, _ = run_cli(capsys, "partition", "--spec", TRIB, "--n", "1", "--m", "8")
        assert code == 0
        monkeypatch.setattr(cli, "_PARTITION_TILE_GUARD", 104)
        code, _, _ = run_cli(capsys, "partition", "--spec", TRIB, "--n", "1", "--m", "8")
        assert code == 4


class TestIndex:
    def test_single_level(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--spec", TRIB, "--n", "2", "--json")
        assert code == 0
        rows = json_rows(out)
        assert rows[0]["prefix_index"]["text"] == "1 + 3/4"
        assert rows[0]["block_index"]["text"] == "2 + 3/4"

    def test_all_up_to(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--spec", TRIB, "--all-up-to", "4", "--json")
        rows = json_rows(out)
        levels = [r["level"] for r in rows if r["kind"] == "index"]
        assert levels == [1, 2, 3, 4]

    def test_level_choice_is_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "index", "--spec", TRIB, "--n", "2", "--all-up-to", "4")
        assert code == 2
        code, _, err = run_cli(capsys, "index", "--spec", TRIB)
        assert code == 2

    def test_verify_against_the_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--spec", TRIB, "--n", "2", "--verify", "--json")
        assert code == 0
        rows = json_rows(out)
        verdict = next(r for r in rows if r["kind"] == "verification")
        assert verdict["ok"] is True and verdict["target"] == "index"

    def test_verify_reports_an_oracle_disagreement(self, capsys, monkeypatch):
        # the patched oracle measures the block as occurring once, against 2 + 3/4 by the closed form
        monkeypatch.setattr(oracle, "max_fractional_power", lambda host, base: RationalIndex(1, 0, len(base)))
        code, out, _ = run_cli(capsys, "index", "--spec", TRIB, "--n", "2", "--verify", "--json")
        assert code == 3
        rows = json_rows(out)
        verdict = next(r for r in rows if r["kind"] == "verification")
        assert verdict["ok"] is False and verdict["oracle_block_index"]["text"] == "1"
        assert rows[-1]["error"] == "oracle disagrees with the closed form at level 2"

    def test_rows_above_the_length_guard_need_no_witness(self, capsys):
        table = BlockTable(DirectiveSpec.parse(TRIB))
        code, out, _ = run_cli(capsys, "index", "--spec", TRIB, "--all-up-to", "40", "--json")
        assert code == 0
        rows = [r for r in json_rows(out) if r["kind"] == "index"]
        assert [r["level"] for r in rows] == list(range(1, 41))
        for row in rows[:8]:
            n = row["level"]
            assert row["prefix_witness_length"] == len(table.power_prefix(n + 1))
            assert row["block_witness_length"] == len(powers.block_index_witness(table, n))
        code, _, err = run_cli(capsys, "index", "--spec", TRIB, "--all-up-to", "65")
        assert code == 4 and "level 65 above the guard" in err

    def test_huge_range_trips_the_guard_at_once(self, capsys, monkeypatch):
        monkeypatch.setenv("EPISTURM_GUARD", "8")
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "index", "--spec", TRIB, "--all-up-to", "100000000")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and "guard" in err


class TestCensus:
    def test_single_length(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--spec", MIX3, "--m", "22", "--json")
        assert code == 0
        rows = json_rows(out)
        row = rows[0]
        assert row["count"] == 1
        assert row["provenance"]["kind"] == "block-multiple"
        assert row["rule"].startswith("first 1 conjugates")

    def test_full_lists_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--spec", MIX3, "--m", "15", "--full", "--json")
        rows = json_rows(out)
        wl = next(r for r in rows if r["kind"] == "witness-list")
        assert len(wl["witnesses"]) == 8
        assert all(len(w) == 15 for w in wl["witnesses"])

    def test_range_summary(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--spec", MIX3, "--all-up-to", "58", "--json")
        rows = json_rows(out)
        summary = next(r for r in rows if r["kind"] == "census-summary")
        assert summary["nonzero_lengths"] == [1, 2, 3, 4, 6, 7, 10, 11, 15, 21, 22, 26, 32, 43, 58]

    def test_length_choice_is_exclusive(self, capsys):
        code, _, _ = run_cli(capsys, "census", "--spec", MIX3, "--m", "4", "--all-up-to", "8")
        assert code == 2

    def test_verify_small_range_against_the_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", "13", "--verify", "--json")
        assert code == 0
        rows = json_rows(out)
        verdict = next(r for r in rows if r["kind"] == "verification" and r["target"] == "census")
        assert verdict["ok"] is True and verdict["mismatched_lengths"] == []

    def test_grid_invariant_failure_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(powers, "_grid", lambda table, n: {1: (0, 1), 2: (0, 1)})
        code, _, err = run_cli(capsys, "census", "--spec", TRIB, "--m", "4")
        assert code == 3 and "2 applicable grid points" in err

    def test_large_length_builds_no_witness(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "census", "--spec", TRIB, "--m", "66012", "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        row = json_rows(out)[0]
        assert row["count"] == powers.census(BlockTable(DirectiveSpec.parse(TRIB)), 66012, 2).count > 0

    def test_rotation_collision_exits_three(self, capsys, monkeypatch):
        # m = 15 is an offset grid point with 8 witnesses; a base of period 1 has one rotation
        monkeypatch.setattr(powers, "_offset_base", lambda table, n, depth, r: "a" * 15)
        code, _, err = run_cli(capsys, "census", "--spec", MIX3, "--m", "15")
        assert code == 3 and "witness rotations collide" in err

    def test_range_just_over_the_guard_exits_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", str(cli._CENSUS_RANGE_GUARD + 1), "--full")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "guard" in err

    def test_only_full_ranges_read_the_range_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CENSUS_RANGE_GUARD", 57)
        assert run_cli(capsys, "census", "--spec", MIX3, "--all-up-to", "58")[0] == 0
        assert run_cli(capsys, "census", "--spec", MIX3, "--all-up-to", "58", "--l", "3", "--verify")[0] == 0
        assert run_cli(capsys, "census", "--spec", MIX3, "--all-up-to", "58", "--full")[0] == 4

    def test_range_bases_above_the_length_guard_exit_at_once(self, capsys):
        # the carrying lengths up to 10^9 add up to more than 2^27 base letters
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", str(10**9))
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "census range 1..1000000000 has" in err

    def test_long_base_trips_the_length_guard_at_once(self, capsys):
        # m = 500 * |block 2| carries every rotation of a 500,500,500-letter base
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--spec", "k=2; d=; 1000", "--m", "500500500")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "census base at m=500500500" in err

    @pytest.mark.parametrize("lengths", [("--m", "66012"), ("--all-up-to", "70000")])
    def test_full_witness_letters_trip_the_length_guard_at_once(self, capsys, lengths):
        # m = 66012 carries 66,012 witnesses of 66,012 letters
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, *lengths, "--full")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "census witness lists" in err

    def test_huge_verified_range_trips_the_guard_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", "100000000", "--verify")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "guard" in err

    def test_costly_certification_trips_the_guard_at_once(self, capsys):
        # scanning a 2.6M-letter block at 40,000 shifts ran out of memory before; 100,000 shifts of the
        # least 600,000 letters that can hold every factor cost more than the scan guard
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", "100000", "--verify")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "letter-shifts" in err

    def test_long_exponent_certificate_names_its_crosscheck_cap(self, capsys):
        # closing all 20,006 scanned letters, a^20000 b a^5, would scan 2e8 letters (24 s)
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "census", "--spec", "k=2; d=20000; 1", "--m", "3", "--verify", "--json")
        assert time.perf_counter() - start < 2.0
        verdict = next(r for r in json_rows(out) if r["kind"] == "verification")
        assert code == 0 and verdict["ok"] is True
        assert (verdict["scanned_letters"], verdict["closure_checked_letters"], verdict["closure_cap"]) == (20006, 1448, 1048576)

    @pytest.mark.parametrize(
        "change",
        [
            lambda row: row._replace(count=row.count + 1),
            lambda row: row._replace(count=row.count - 1),
            lambda row: row._replace(provenance=row.provenance._replace(base=row.provenance.base[1:] + row.provenance.base[0])),
        ],
        ids=["count+1", "count-1", "rotated-base"],
    )
    def test_verify_catches_a_changed_row(self, capsys, monkeypatch, change):
        # m = 6 carries rotations 0 and 1 of abacab: any change of count or base changes the set
        census, census_range = cli.census, cli.census_range
        monkeypatch.setattr(cli, "census", lambda table, m, l: change(census(table, m, l)))
        code, out, _ = run_cli(capsys, "census", "--spec", TRIB, "--m", "6", "--verify")
        assert code == 3 and out.endswith("on length 6 over 55 letters holding all 25 factors of length 12: MISMATCH at [6]\n")

        def changed_range(table, m_max, l):
            found = census_range(table, m_max, l)
            return found._replace(nonzero=tuple(change(r) if r.m == 6 else r for r in found.nonzero))

        monkeypatch.setattr(cli, "census_range", changed_range)
        code, out, _ = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", "13", "--verify", "--json")
        verdict = next(r for r in json_rows(out) if r["kind"] == "verification")
        assert code == 3 and verdict["ok"] is False and verdict["mismatched_lengths"] == [6]

    def test_verify_needs_empty_scans_off_the_grid(self, capsys, monkeypatch):
        census_range = cli.census_range

        def moved(table, m_max, l):
            # drop the row at m = 6 and claim one at the off-grid m = 5
            found = census_range(table, m_max, l)
            fake = powers.PowerCensus(5, l, 1, powers.CensusProvenance("off-grid", 2, base="abaca"))
            rows = sorted((*(r for r in found.nonzero if r.m != 6), fake), key=lambda r: r.m)
            return found._replace(nonzero=tuple(rows))

        monkeypatch.setattr(cli, "census_range", moved)
        code, out, _ = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", "13", "--verify", "--json")
        verdict = next(r for r in json_rows(out) if r["kind"] == "verification")
        assert code == 3 and verdict["mismatched_lengths"] == [5, 6]

    def test_single_length_verify_scans_that_length_only(self, capsys, monkeypatch):
        calls = []
        certified_scan = oracle.certified_scan
        monkeypatch.setattr(oracle, "certified_scan", lambda *args, **kw: calls.append(kw) or certified_scan(*args, **kw))
        code, out, _ = run_cli(capsys, "census", "--spec", TRIB, "--m", "24", "--verify", "--json")
        verdict = next(r for r in json_rows(out) if r["kind"] == "verification")
        assert code == 0 and verdict["ok"] is True and calls == [{"m_min": 24}]
        assert (verdict["factor_length"], verdict["factors"], verdict["scanned_letters"]) == (48, 97, 196)

    def test_uncut_certificate_fields(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", "1795", "--verify", "--json")
        verdict = next(r for r in json_rows(out) if r["kind"] == "verification")
        fields = ("factor_length", "factors", "block_level", "prefix_letters", "scanned_letters", "closure_checked_letters", "closure_cap")
        assert code == 0 and "detail" not in verdict
        assert {name: verdict[name] for name in fields} == {
            "factor_length": 3590,
            "factors": 7181,
            "block_level": 16,
            "prefix_letters": 19513,
            "scanned_letters": 14198,
            "closure_checked_letters": 14198,
            "closure_cap": 1048576,
        }

    def test_finite_directive_cannot_verify(self, capsys):
        code, out, err = run_cli(capsys, "census", "--spec", "k=2; d=" + ",".join(["1"] * 30), "--m", "3", "--verify")
        assert code == 2 and out == "" and "finite directive" in err

    def test_extra_factors_exit_three(self, capsys, monkeypatch):
        # random letters give block 7 a factor of length 26 at each of its 56 windows, more than the 53 allowed
        block = BlockTable.block
        rng = random.Random(0)
        monkeypatch.setattr(BlockTable, "block", lambda self, n: "".join(rng.choice("abc") for _ in block(self, n)))
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", "13", "--verify")
        assert code == 3 and out == "" and "more than the 53 of a strict episturmian word" in err

    def test_factor_count_budget_exits_four(self, capsys, monkeypatch):
        # a^2000 b holds aa and ab in its 2000 windows; ba first appears in the next block, at window 2001
        monkeypatch.setattr(oracle, "_COUNT_GUARD", 2001)
        code, out, _ = run_cli(capsys, "census", "--spec", "k=2; d=2000; 1", "--m", "1", "--verify", "--json")
        assert code == 0 and json_rows(out)[-2]["scanned_letters"] == 2002
        monkeypatch.setattr(oracle, "_COUNT_GUARD", 2000)
        code, out, err = run_cli(capsys, "census", "--spec", "k=2; d=2000; 1", "--m", "1", "--verify")
        assert code == 4 and out == ""
        assert err == "episturm census: counting the factors of length 2 reads more than the budget of 2000 windows\n"


class TestVerify:
    def test_battery_passes_and_reports_each_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--spec", TRIB, "--n", "4", "--json")
        assert code == 0
        rows = json_rows(out)
        checks = [r for r in rows if r["kind"] == "check"]
        assert len(checks) >= 15
        assert all(c["ok"] for c in checks)
        summary = next(r for r in rows if r["kind"] == "verify-summary")
        assert summary["failures"] == 0

    def test_text_mode_prints_pass_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--spec", TRIB, "--n", "3")
        assert code == 0
        assert "PASS block-letters" in out

    def test_level_zero_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--spec", TRIB, "--n", "0")
        assert code == 0 and "battery up to level 0: all checks pass" in out

    def test_large_battery_trips_the_guard_at_once(self, capsys):
        # block 31 has 181,997,601 letters; the battery used to build up to it before the guard tripped
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--spec", TRIB, "--n", "29")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "block 31" in err

    @pytest.mark.parametrize("spec, n", [("k=2; d=4000; 1", "3"), ("k=2; d=100000; 1", "0")])
    def test_long_exponent_battery_finishes_at_once(self, capsys, spec, n):
        # the closure, morphic and position checks used to take minutes on one long run of a letter
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--n", n)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and "all checks pass" in out

    def test_a_step_error_inside_a_check_is_that_check_failing(self, capsys, monkeypatch):
        # a wrong level-3 tail used to end the battery after 7 rows with a usage error (exit 2)
        block_tail = BlockTable.block_tail

        def flipped(self, n, r):
            g = block_tail(self, n, r)
            return g[:-1] + ("a" if g[-1] != "a" else "b") if n == 3 else g

        monkeypatch.setattr(BlockTable, "block_tail", flipped)
        code, out, err = run_cli(capsys, "verify", "--spec", TRIB, "--n", "6")
        lines = out.splitlines()
        assert code == 3 and len(lines) == 21 and lines[-1] == "battery up to level 6: 5 checks FAILED"
        assert "FAIL near-commutation: near-commutation at level 3: 'cabb' is not a suffix of 'abacabacaba'" in lines
        assert err == "episturm verify: 5 invariant checks failed\n"

    def test_battery_guard_reads_block_n_plus_two(self, capsys, monkeypatch):
        # block 5 of the Tribonacci word has 24 letters
        monkeypatch.setattr(cli, "_BATTERY_LETTER_GUARD", 24)
        assert run_cli(capsys, "verify", "--spec", TRIB, "--n", "3")[0] == 0
        monkeypatch.setattr(cli, "_BATTERY_LETTER_GUARD", 23)
        assert run_cli(capsys, "verify", "--spec", TRIB, "--n", "3")[0] == 4


@pytest.mark.parametrize(
    "argv, message",
    [
        (("census", "--all-up-to", "0"), "m_max must be >= 1 (got 0)"),
        (("census", "--all-up-to", "-3"), "m_max must be >= 1 (got -3)"),
        (("census", "--all-up-to", "0", "--verify"), "m_max must be >= 1 (got 0)"),
        (("census", "--all-up-to", "0", "--full"), "m_max must be >= 1 (got 0)"),
        (("index", "--all-up-to", "0"), "index levels start at 1"),
        (("verify", "--n", "-1"), "battery level must be >= 0"),
    ],
)
def test_nonpositive_ranges_exit_two_before_any_row(capsys, argv, message):
    code, out, err = run_cli(capsys, argv[0], "--spec", TRIB, *argv[1:])
    assert code == 2 and out == "" and message in err


class TestArgparse:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_spec_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--length", "5"])
        assert exc.value.code == 2


# A fresh interpreter runs cli.main on argv and reports its exit code, the package
# modules it loaded, and whether numpy, dataclasses and fractions were loaded.
_START_PROBE = """
import contextlib, io, json, sys
from episturm import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
modules = sorted(name[len("episturm."):] for name in sys.modules if name.startswith("episturm."))
print(json.dumps({"code": code, "modules": modules, **{name: name in sys.modules for name in ("numpy", "dataclasses", "fractions")}}))
"""

# What every subcommand loads: the CLI, the block tables and the closed-form census and index.
_CORE_MODULES = {"cli", "blocks", "directive", "errors", "powers", "words"}


def _fresh_child(*args) -> str:
    env = {key: value for key, value in os.environ.items() if key != "EPISTURM_GUARD"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _start(*argv) -> dict:
    return json.loads(_fresh_child("-c", _START_PROBE, *argv))


def _own_modules(argv) -> set:
    """Beyond the core: partition and singular load their own module; census and index load the oracle under --verify."""
    own = {"partition": {"partition"}, "singular": {"singular"}}.get(argv[0], set())
    return own | ({"oracle"} if argv[0] in ("census", "index") and "--verify" in argv else set())


class TestNumpyStaysUnloaded:
    """A start loads only what its subcommand runs.

    No subcommand loads numpy: the oracle's all-shift scan and its factor
    count, and the split check of `verify`, run in pure Python. No subcommand
    loads dataclasses, and only a verification reads a RationalIndex as a
    fraction.
    """

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("census", "--spec", MIX3, "--m", "22"), 0),
            (("census", "--spec", MIX3, "--all-up-to", "58"), 0),
            (("index", "--spec", TRIB, "--all-up-to", "6"), 0),
            (("index", "--spec", TRIB, "--all-up-to", "6", "--verify"), 0),
            (("blocks", "--spec", MIX3, "--n", "3"), 0),
            (("partition", "--spec", TRIB, "--n", "1", "--m", "4"), 0),
            (("partition", "--spec", TRIB, "--n", "1", "--m", "4", "--verify"), 0),
            (("singular", "--spec", TRIB, "--n", "2"), 0),
            (("generate", "--spec", MIX3, "--length", "1000"), 0),
            (("census", "--spec", "k=1; d=; 1", "--m", "4"), 2),
            (("census", "--spec", TRIB, "--all-up-to", "100000", "--verify"), 4),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
    )
    def test_closed_form_answers_and_early_exits_run_without_numpy(self, argv, code):
        start = _start(*argv)
        assert (start["code"], start["numpy"], start["dataclasses"]) == (code, False, False)
        assert set(start["modules"]) == _CORE_MODULES | _own_modules(argv)
        assert not start["fractions"] or "--verify" in argv

    def test_importing_the_package_loads_no_numpy(self):
        """Nor any submodule: each export is imported on first access."""
        probe = "import json, sys, episturm; print(json.dumps([m for m in sys.modules if m == 'numpy' or m.startswith('episturm.')]))"
        assert json.loads(_fresh_child("-c", probe)) == []

    @pytest.mark.parametrize("lengths", [("--m", "4"), ("--all-up-to", "1795")])
    def test_verified_census_loads_the_oracle_without_numpy(self, lengths):
        # 1,795 lengths reach the rank kernel of the all-shift scan, one length only its XOR kernel
        start = _start("census", "--spec", TRIB, *lengths, "--verify")
        assert (start["code"], start["numpy"], start["dataclasses"]) == (0, False, False)
        assert set(start["modules"]) == _CORE_MODULES | {"oracle"}

    def test_verify_loads_no_numpy(self):
        # the two-palindrome-split check reads border progressions, with no hash
        start = _start("verify", "--spec", TRIB, "--n", "3")
        assert (start["code"], start["numpy"], start["dataclasses"]) == (0, False, False)
        assert set(start["modules"]) == _CORE_MODULES | {"checks", "partition", "singular"}


# Linux counts a parent's resident memory at spawn in the child's max RSS, so a
# fresh small interpreter spawns the CLI and prints its exit code and max RSS in KB.
_RSS_PROBE = """
import json, os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "episturm.cli", *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]))
"""


def test_dense_verified_census_stays_small():
    """Fibonacci order-2 bases up to 10,946 letters hold about 1.9e8 letters as word sets; the scan keeps classes."""
    out = _fresh_child("-c", _RSS_PROBE, "census", "--spec", "k=2; d=; 1", "--all-up-to", "10946", "--verify", "--json")
    *lines, last = out.splitlines()
    code, max_rss_kb = json.loads(last)
    rows = json_rows("\n".join(lines))
    assert code == 0 and rows[-1]["ok"] is True
    assert next(r for r in rows if r["kind"] == "verification")["ok"] is True
    assert max_rss_kb < 100 * 1024


def test_long_exponent_generate_keeps_one_closure_prefix():
    """a^8000 b closes 8,000 prefixes of up to 16,000 letters (about 3.2e7 in all); only the one being closed is kept."""
    out = _fresh_child("-c", _RSS_PROBE, "generate", "--spec", "k=2; d=8000; 1", "--length", "16000")
    *lines, last = out.splitlines()
    code, max_rss_kb = json.loads(last)
    assert code == 0 and lines == ["a" * 8000 + "b" + "a" * 7999]
    assert max_rss_kb < 25 * 1024
