"""Command-line behavior: outputs, exit codes, JSON rows against the schema."""

import ast
import gc
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

import episturm.cli as cli
import episturm.commands.census as census_cmd
import episturm.commands.generate as generate_cmd
import episturm.commands.partition as partition_cmd
import episturm.commands.verify as verify_cmd
import episturm.oracle as oracle
import episturm.partition as partition
import episturm.powers as powers
import episturm.runs as runs
from episturm.blocks import BlockTable
from episturm.checks import ALL_CHECKS
from episturm.spec import DirectiveSpec
from episturm.words import RationalIndex

TRIB = "k=3; d=; 1"
MIX3 = "k=3; d=1,1,2; 2,1,2"

SCHEMA = json.loads((Path(cli.__file__).parent / "report.schema.json").read_text())
README = (Path(__file__).parents[1] / "README.md").read_text()
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
        code, out, err = run_cli(capsys, "generate", "--spec", TRIB, "--length", str(generate_cmd._GENERATE_GUARD + 1))
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
        monkeypatch.setattr(generate_cmd, "_GENERATE_GUARD", 1)
        assert run_cli(capsys, "generate", "--spec", "k=2; d=2", "--length", "2")[0] == 0
        assert run_cli(capsys, "generate", "--spec", "k=2; d=2", "--length", "3")[0] == 4
        monkeypatch.setattr(generate_cmd, "_GENERATE_GUARD", 3)
        assert run_cli(capsys, "generate", "--spec", "k=2; d=2", "--length", "3")[0] == 2

    def test_guard_counts_the_letters_the_closure_scans(self, capsys, monkeypatch):
        # 31 letters of the Tribonacci word close prefixes of 0, 1, 3, 7, 14 and 27 letters
        monkeypatch.setattr(generate_cmd, "_GENERATE_GUARD", 52)
        assert run_cli(capsys, "generate", "--spec", TRIB, "--length", "31")[0] == 0
        monkeypatch.setattr(generate_cmd, "_GENERATE_GUARD", 51)
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

    def test_a_palindromic_prefix_above_the_length_guard_is_refused_before_any_block_is_built(self, capsys, monkeypatch):
        # Fibonacci block 38 (102,334,155 letters) fits the length guard, and its palindromic prefix does not
        monkeypatch.setattr(BlockTable, "block", lambda self, n: pytest.fail("built a block"))
        code, out, _ = run_cli(capsys, "blocks", "--spec", "k=2; d=; 1", "--n", "38", "--json")
        assert code == 4
        assert json_rows(out) == [{"kind": "status", "command": "blocks", "spec": "k=2; d=; 1", "ok": False,
                                   "error": "palindromic prefix at level 38 has 165580139 letters, above the length guard 134217728"}]

    def test_env_guard_overrides_level_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("EPISTURM_GUARD", "4")
        code, _, err = run_cli(capsys, "blocks", "--spec", TRIB, "--n", "6")
        assert code == 4
        assert "guard" in err
        # the palindromic prefix at the guard level reads blocks 4 and 3, never block 5
        code, out, _ = run_cli(capsys, "blocks", "--spec", TRIB, "--n", "4")
        assert code == 0 and "palindromic prefix: 14 letters  abacabaabacaba" in out
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

    @pytest.mark.parametrize(
        "spec, n, m",
        [
            ("k=2; d=; 1", 3, 14),
            (TRIB, 2, 12),
            ("k=4; d=2,1,3,1; 2,2", 1, 9),
            ("k=26; d=; 1", 2, 8),
            (TRIB, 0, 9),  # tiles of levels -2..0
            ("k=4; d=2,1,3,1; 2,2", 0, None),  # the default host, two levels up; tiles of levels -3..0
        ],
    )
    def test_rows_match_the_per_tile_items(self, capsys, spec, n, m):
        """The --json line is json.dumps of the tiles' triples, and the text lines are read off the same triples."""
        upto = n + 2 if m is None else m
        view = partition.level_partition(BlockTable(DirectiveSpec.parse(spec)), n, upto)
        items = view.items
        argv = ("partition", "--spec", spec, "--n", str(n)) + (() if m is None else ("--m", str(m)))
        code, out, _ = run_cli(capsys, *argv, "--json")
        payload = {"level": n, "upto": upto, "covered": view.covered_prefix_length, "piece_count": len(items), "items": items}
        assert code == 0
        assert out.splitlines()[0] == json.dumps({"kind": "partition", **payload}, ensure_ascii=True)
        assert n > 0 or min(level for level, _, _ in items) < 0
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.splitlines() == [
            f"level-{n} tiling of the block at level {upto}: {len(items)} pieces, {view.covered_prefix_length} letters",
            f"piece levels: {partition_cmd._run_lengths(level for level, _, _ in items)}",
        ]

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
        monkeypatch.setattr(partition_cmd, "_PARTITION_TILE_GUARD", 105)
        code, _, _ = run_cli(capsys, "partition", "--spec", TRIB, "--n", "1", "--m", "8")
        assert code == 0
        monkeypatch.setattr(partition_cmd, "_PARTITION_TILE_GUARD", 104)
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

    def test_verification_rows_name_their_host_level(self, capsys):
        # level n is measured on block n + k + 2, whose length the text row prints
        table = BlockTable(DirectiveSpec.parse(MIX3))
        code, out, _ = run_cli(capsys, "index", "--spec", MIX3, "--all-up-to", "4", "--verify", "--json")
        assert code == 0
        verdicts = [r for r in json_rows(out) if r["kind"] == "verification"]
        assert [(r["level"], r["host_level"]) for r in verdicts] == [(n, n + 5) for n in range(1, 5)]
        code, text, _ = run_cli(capsys, "index", "--spec", MIX3, "--all-up-to", "4", "--verify")
        hosts = [line.split(" letters")[0].removeprefix("  oracle on ") for line in text.splitlines() if "oracle" in line]
        assert hosts == [str(table.block_length(n + 5)) for n in range(1, 5)]

    def test_verify_reports_an_oracle_disagreement(self, capsys, monkeypatch):
        # the patched oracle measures the block as occurring once, against 2 + 3/4 by the closed form;
        # the handler reads the one-shift oracle from `runs`, so it is patched there
        monkeypatch.setattr(runs, "max_fractional_power", lambda host, base: RationalIndex(1, 0, len(base)))
        code, out, _ = run_cli(capsys, "index", "--spec", TRIB, "--n", "2", "--verify", "--json")
        assert code == 3
        rows = json_rows(out)
        verdict = next(r for r in rows if r["kind"] == "verification")
        assert verdict["ok"] is False and verdict["oracle_block_index"]["text"] == "1"
        assert rows[-1]["error"] == "oracle disagrees with the closed form at level 2"

    def test_verify_builds_no_block_above_the_witness_host(self, capsys, monkeypatch):
        # Tribonacci's level-6 witness host is block 6 + 3 + 2 = 11, and nothing above it is built
        levels = []
        block = BlockTable.block
        monkeypatch.setattr(BlockTable, "block", lambda table, n: levels.append(n) or block(table, n))
        code, _, _ = run_cli(capsys, "index", "--spec", TRIB, "--all-up-to", "6", "--verify")
        assert code == 0 and max(levels) == 11

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

    @pytest.mark.parametrize("lengths", [("--m", "15"), ("--all-up-to", "58")])
    def test_full_lists_each_witness_once(self, capsys, lengths):
        # text: a row's witnesses as indented lines under it; JSON: the row's `witnesses` field, and no other row
        code, text, _ = run_cli(capsys, "census", "--spec", MIX3, *lengths, "--full")
        listed: dict = {}
        for line in text.splitlines():
            if line.startswith("m="):
                m = int(line[2:line.index(" ")])
            elif line.startswith("  "):
                listed.setdefault(m, []).append(line[2:])
        json_code, out, _ = run_cli(capsys, "census", "--spec", MIX3, *lengths, "--full", "--json")
        rows = json_rows(out)
        assert code == json_code == 0 and {r["kind"] for r in rows} <= {"census-row", "census-summary", "status"}
        assert listed == {r["m"]: r["witnesses"] for r in rows if r.get("witnesses")}
        assert {m: len(ws) for m, ws in listed.items()} == {r["m"]: r["count"] for r in rows if r.get("count")}
        assert all(len(set(ws)) == len(ws) and {len(w) for w in ws} == {m} for m, ws in listed.items())
        assert len(listed[15]) == 8

    def test_the_schema_has_no_witness_list_row(self):
        assert not VALIDATOR.is_valid({"kind": "witness-list", "m": 15, "l": 2, "witnesses": ["abacabaabacabac"]})

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
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", str(census_cmd._CENSUS_RANGE_GUARD + 1), "--full")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "guard" in err

    def test_only_full_ranges_read_the_range_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(census_cmd, "_CENSUS_RANGE_GUARD", 57)
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
    def test_full_witness_letters_trip_their_guard_at_once(self, capsys, lengths):
        # m = 66012 carries 66,012 witnesses of 66,012 letters
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, *lengths, "--full")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "census witness lists" in err

    def test_the_witness_guard_sums_the_letters_of_every_list(self, capsys, monkeypatch):
        # up to m = 58 the lists hold 5,953 letters, of which m = 58 holds 58 witnesses of 58 letters
        monkeypatch.setattr(census_cmd, "_WITNESS_LETTERS_GUARD", 5953)
        assert run_cli(capsys, "census", "--spec", MIX3, "--all-up-to", "58", "--full")[0] == 0
        monkeypatch.setattr(census_cmd, "_WITNESS_LETTERS_GUARD", 5952)
        code, out, err = run_cli(capsys, "census", "--spec", MIX3, "--all-up-to", "58", "--full")
        assert (code, out, err) == (4, "", "episturm census: census witness lists to m=58 have 5953 letters, above the guard 5952\n")

    def test_a_refused_full_range_builds_no_base(self, capsys, monkeypatch):
        monkeypatch.setattr(census_cmd, "_WITNESS_LETTERS_GUARD", 5952)
        monkeypatch.setattr(powers, "_row", None)
        code, out, err = run_cli(capsys, "census", "--spec", MIX3, "--all-up-to", "58", "--full")
        assert (code, out, err) == (4, "", "episturm census: census witness lists to m=58 have 5953 letters, above the guard 5952\n")

    def test_a_refused_full_length_builds_no_base(self, capsys, monkeypatch):
        monkeypatch.setattr(powers, "_row", None)
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, "--m", "66012", "--full")
        assert (code, out, err) == (4, "", "episturm census: census witness lists to m=66012 have 4357584144 letters, above the guard 33554432\n")
        # a base above the length guard is refused by it first, with its own message
        code, out, err = run_cli(capsys, "census", "--spec", "k=2; d=; 1000", "--m", "500500500", "--full")
        assert (code, out, err) == (4, "", "episturm census: census base at m=500500500 has 500500500 letters, above the length guard 134217728\n")

    def test_huge_verified_range_trips_the_guard_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", "100000000", "--verify")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == "" and "guard" in err

    def test_costly_certification_trips_the_guard_at_once(self, capsys):
        # lengths up to 200,000: scanning the least 1,200,000 letters that can hold every factor of length 400,000
        # costs more than the scan guard, so no block is built
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", "200000", "--verify")
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
        census, census_range = census_cmd.census, census_cmd.census_range
        monkeypatch.setattr(census_cmd, "census", lambda table, m, l: change(census(table, m, l)))
        code, out, _ = run_cli(capsys, "census", "--spec", TRIB, "--m", "6", "--verify")
        assert code == 3 and out.endswith("on length 6 over 55 letters holding all 25 factors of length 12: MISMATCH at [6]\n")

        def changed_range(table, m_max, l):
            return (change(r) if r.m == 6 else r for r in census_range(table, m_max, l))

        monkeypatch.setattr(census_cmd, "census_range", changed_range)
        code, out, _ = run_cli(capsys, "census", "--spec", TRIB, "--all-up-to", "13", "--verify", "--json")
        verdict = next(r for r in json_rows(out) if r["kind"] == "verification")
        assert code == 3 and verdict["ok"] is False and verdict["mismatched_lengths"] == [6]

    def test_verify_needs_empty_scans_off_the_grid(self, capsys, monkeypatch):
        census_range = census_cmd.census_range

        def moved(table, m_max, l):
            # drop the row at m = 6 and claim one at the off-grid m = 5
            fake = powers.PowerCensus(5, l, 1, powers.CensusProvenance("off-grid", 2, base="abaca"))
            return sorted((*(r for r in census_range(table, m_max, l) if r.m != 6), fake), key=lambda r: r.m)

        monkeypatch.setattr(census_cmd, "census_range", moved)
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
        fields = ("factor_length", "factors", "block_level", "built_letters", "scanned_letters", "closure_checked_letters", "closure_cap")
        assert code == 0 and "detail" not in verdict
        assert {name: verdict[name] for name in fields} == {
            "factor_length": 3590,
            "factors": 7181,
            "block_level": 16,
            "built_letters": 19513,
            "scanned_letters": 14198,
            "closure_checked_letters": 14198,
            "closure_cap": 1048576,
        }

    def test_the_verification_row_names_the_letters_the_certificate_built(self, capsys):
        # P = a^12000 b a ends in block 2, of 144,012,001 letters; it is built only as far as the scan guard admits
        code, out, _ = run_cli(capsys, "census", "--spec", "k=2; d=; 12000", "--m", "1", "--verify", "--json")
        verdict = next(r for r in json_rows(out) if r["kind"] == "verification")
        assert code == 0 and (verdict["block_level"], verdict["built_letters"], verdict["scanned_letters"]) == (2, 4161783, 12002)
        for dropped in ({}, {"prefix_letters": 144012001}):
            row = {name: value for name, value in verdict.items() if name != "built_letters"} | dropped
            assert not VALIDATOR.is_valid(row)

    @pytest.mark.parametrize(
        "lengths, scanned, short, short_length",
        [
            (("--all-up-to", "1795"), 14198, 2212, 508),  # lengths 1..1,795: the XOR shifts read P' of L' = 508
            (("--all-up-to", "507"), 4149, 1178, 252),  # chunk 64 searched: the XOR shifts read P' of L' = 252
            (("--m", "1795"), 14198, 14198, 0),  # no XOR shift, so no second count
        ],
    )
    def test_the_verification_row_names_the_letters_the_short_shifts_read(self, capsys, lengths, scanned, short, short_length):
        code, out, _ = run_cli(capsys, "census", "--spec", TRIB, *lengths, "--verify", "--json")
        verdict = next(r for r in json_rows(out) if r["kind"] == "verification")
        assert code == 0 and (verdict["scanned_letters"], verdict["short_shift_letters"]) == (scanned, short)
        assert verdict["short_factor_length"] == short_length
        for field, bad in (("short_shift_letters", 0), ("short_factor_length", -1)):
            for dropped in ({}, {field: bad}):
                row = {name: value for name, value in verdict.items() if name != field} | dropped
                assert not VALIDATOR.is_valid(row)

    @pytest.mark.parametrize(
        "lengths, message",
        [
            (("--m", "3", "--l", "1"), "power order must be >= 2 (got 1)"),
            (("--m", "0"), "length must be >= 1 (got 0)"),
            (("--m", "0", "--l", "1"), "power order must be >= 2 (got 1)"),
            (("--m", "-2", "--full"), "length must be >= 1 (got -2)"),
            (("--all-up-to", "0"), "m_max must be >= 1 (got 0)"),
            (("--all-up-to", "5", "--l", "1"), "power order must be >= 2 (got 1)"),
            (("--all-up-to", "0", "--l", "1"), "m_max must be >= 1 (got 0)"),
            (("--all-up-to", "3", "--l", "1", "--full"), "power order must be >= 2 (got 1)"),
        ],
    )
    def test_verify_refuses_a_length_or_order_as_the_closed_form_does(self, capsys, lengths, message):
        # the certificate used to refuse first, in its own terms: "l_max must be >= 2", "m_max must be >= 1"
        plain = run_cli(capsys, "census", "--spec", TRIB, *lengths)
        verified = run_cli(capsys, "census", "--spec", TRIB, *lengths, "--verify")
        assert plain == verified == (2, "", f"episturm census: {message}\n")

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
        # a^2000 b holds aa and ab in its 2000 windows; ba first appears in the next block, at window 2001, so
        # P = a^2000 b a costs one XOR shift of each of its 2002 letters, one result and 2001 keyed windows
        scan = 2002 + oracle._RESULT_WORK
        work = scan + 2001 * oracle._COUNT_WORK
        monkeypatch.setattr(oracle, "_SCAN_GUARD", work)
        code, out, _ = run_cli(capsys, "census", "--spec", "k=2; d=2000; 1", "--m", "1", "--verify", "--json")
        assert code == 0 and json_rows(out)[-2]["scanned_letters"] == 2002
        monkeypatch.setattr(oracle, "_SCAN_GUARD", work - 1)
        code, out, err = run_cli(capsys, "census", "--spec", "k=2; d=2000; 1", "--m", "1", "--verify")
        assert code == 4 and out == ""
        assert err == (f"episturm census: certifying lengths 1..1 at orders up to 2 costs at least {work} letter-shifts,"
                       f" above the guard {work - 1}\n")
        # one guard prices the count and the scan: covering the scan of P alone is not enough
        monkeypatch.setattr(oracle, "_SCAN_GUARD", scan)
        code, out, err = run_cli(capsys, "census", "--spec", "k=2; d=2000; 1", "--m", "1", "--verify")
        assert code == 4 and out == "" and "letter-shifts, above the guard" in err


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

    @pytest.mark.parametrize(
        "spec", ["k=3; d=" + ",".join(["1"] * 14), "k=4; d=2,1,1,3,1,2,1,1,1,1,1,1", "k=3; d=1,2,1,3,1,1,2,1,1,2"]
    )
    def test_a_finite_directive_reports_every_check_up_to_its_last_level(self, capsys, spec):
        # verify reads block n + 2, so n runs to L - 2; position-functions and index-consistency
        # used to sum exponents past the end and stop the battery with a usage error (exit 2)
        last = len(DirectiveSpec.parse(spec).preperiod) - 2
        for n in range(0, last + 1):
            code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--n", str(n), "--json")
            checks = [r for r in json_rows(out) if r["kind"] == "check"]
            assert code == 0 and [c["name"] for c in checks] == [name for name, _ in ALL_CHECKS]
            assert all(c["ok"] for c in checks)

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
        monkeypatch.setattr(verify_cmd, "_BATTERY_LETTER_GUARD", 24)
        assert run_cli(capsys, "verify", "--spec", TRIB, "--n", "3")[0] == 0
        monkeypatch.setattr(verify_cmd, "_BATTERY_LETTER_GUARD", 23)
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


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--length", "10"),
        ("blocks", "--n", "2"),
        ("singular", "--n", "2"),
        ("partition", "--n", "1"),
        ("index", "--n", "2"),
        ("census", "--m", "4"),
        ("verify", "--n", "2"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("raw, message", [("not-a-number", "must be an integer (got 'not-a-number')"), ("0", "must be >= 1 (got 0)")])
def test_every_subcommand_refuses_a_malformed_env_guard(capsys, monkeypatch, argv, raw, message):
    # generate builds no block table, and used to run under any EPISTURM_GUARD
    monkeypatch.setenv("EPISTURM_GUARD", raw)
    code, out, err = run_cli(capsys, argv[0], "--spec", TRIB, *argv[1:])
    assert (code, out, err) == (2, "", f"episturm {argv[0]}: EPISTURM_GUARD {message}\n")


class TestArgparse:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_spec_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--length", "5"])
        assert exc.value.code == 2


def _bench_ops():
    """bench/ops.py, loaded from its file; it stays registered while it loads, for its dataclass."""
    spec = importlib.util.spec_from_file_location("_bench_ops", Path(__file__).resolve().parents[1] / "bench" / "ops.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _int_spelling(value: int) -> st.SearchStrategy[str]:
    """Ways to write `value` that int() reads: padded, signed, grouped, in Arabic-Indic digits."""
    plain = str(value)
    spellings = [plain, f" {plain}", f"{plain} ", f"+{plain}", plain.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))]
    if len(plain) > 1 and value > 0:
        spellings.append(f"{plain[0]}_{plain[1:]}")
    return st.sampled_from(spellings)


def _value(kind) -> st.SearchStrategy[str]:
    if kind is int:
        return st.integers(0, 10**6).flatmap(_int_spelling)
    return st.sampled_from([TRIB, MIX3, "", "k=1"]) | st.text(max_size=12)


@st.composite
def _command_line(draw, command: str) -> list[str]:
    """argv from the command's table entry: its flags shuffled and repeated, odd values, now and then a stray token.

    A stray token lands anywhere, between a flag and its value too, so some
    lines hold a bad int, a value starting with "-" or a flag with no value.
    """
    options = cli._COMMANDS[command][1]
    picked = draw(st.lists(st.sampled_from(options), max_size=8))
    if draw(st.booleans()):
        picked += [option for option in options if option[2]]  # the required flags, so most lines are served
    picked = draw(st.permutations(picked))
    argv = [command]
    for flag, kind, *_ in picked:
        argv.append(flag)
        if kind is not bool:
            argv.append(draw(_value(kind)))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["-h", "--n=3", "--verif", "--all", "--", "x", "-5", "1.5", "--JSON"])))
    return argv


class TestOptionTable:
    """The table-driven fast path returns argparse's namespace whenever it serves a line, and serves every real one."""

    PARSER = cli._parser()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_served_lines_parse_as_argparse_parses_them(self, command, data):
        argv = data.draw(_command_line(command))
        served = cli._parse(argv)
        if served is not None:
            assert vars(served) == vars(self.PARSER.parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--spec", TRIB, "--m", " 7", "--l", "+4", "--m", "3_0", "--json", "--json"],
            ["index", "--verify", "--all-up-to", "٣", "--spec", MIX3],
            ["generate", "--length", "0", "--spec", ""],
        ],
    )
    def test_odd_but_plain_lines_are_served(self, argv):
        assert vars(cli._parse(argv)) == vars(self.PARSER.parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["--help"], ["census", "-h"], ["frobnicate", "--spec", TRIB], ["census", "--m", "3"],
            ["blocks", "--spec", TRIB, "--n", "x"], ["blocks", "--spec", TRIB, "--n=3"], ["index", "--spec", TRIB, "--verif"],
            ["census", "--spec", TRIB, "--all", "5"], ["generate", "--spec", TRIB, "--length", "-5"], ["blocks", "--spec", TRIB, "--n"],
            ["blocks", "--spec", "--json"], ["blocks", "--spec", TRIB, "--", "--n", "3"], ["blocks", "--spec", TRIB, "3"],
        ],
    )
    def test_help_and_anything_else_is_left_to_argparse(self, argv):
        assert cli._parse(argv) is None

    def test_every_golden_line_is_served(self):
        golden = json.loads((Path(__file__).parent / "golden" / "readme_cli.json").read_text())
        for case in golden:
            assert vars(cli._parse(case["argv"])) == vars(self.PARSER.parse_args(case["argv"]))

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("workload", ["verified-census", "closed-form", "battery"])
    def test_every_benchmark_op_is_served(self, workload, seed):
        for op in _bench_ops().generate(workload, seed, 35):
            argv = [*op.argv, "--json"]
            assert vars(cli._parse(argv)) == vars(self.PARSER.parse_args(argv))


# A fresh interpreter runs cli.main on argv and reports its exit code (SystemExit's for argparse's
# help and errors), the package modules it loaded, and whether numpy, dataclasses, fractions,
# decimal, argparse and gettext were loaded.
_START_PROBE = """
import contextlib, io, json, sys
from episturm import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
modules = sorted(name[len("episturm."):] for name in sys.modules if name.startswith("episturm."))
flags = ("numpy", "dataclasses", "fractions", "decimal", "argparse", "gettext")
print(json.dumps({"code": code, "modules": modules, **{name: name in sys.modules for name in flags}}))
"""

# What every start loads: the dispatcher, the helpers its handlers share, and the errors.
_START_MODULES = {"cli", "commands", "errors"}
# What each subcommand adds besides its handler, `commands.<subcommand>`: the modules that handler calls.
_SUBCOMMAND_MODULES = {
    "generate": {"directive", "spec", "words"},
    "blocks": {"blocks", "powers", "spec", "words"},
    "singular": {"blocks", "singular", "spec", "words"},
    "partition": {"blocks", "partition", "spec"},
    "index": {"blocks", "powers", "spec", "words"},
    "census": {"blocks", "powers", "spec"},
    "verify": {"blocks", "checks", "directive", "partition", "powers", "singular", "spec", "words"},
}


def _child_env() -> dict:
    """A child's environment: the package on the path, no guard override, and stdout buffered as a shell leaves it.

    Under PYTHONUNBUFFERED every print is written at once, so no exit would have bytes left to flush.
    """
    env = {key: value for key, value in os.environ.items() if key not in ("EPISTURM_GUARD", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return env


def _fresh_child(*args) -> str:
    done = subprocess.run([sys.executable, *args], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _start(*argv) -> dict:
    return json.loads(_fresh_child("-c", _START_PROBE, *argv))


def _expected_modules(argv, code=0) -> set:
    """The start's modules, the handler's and its callees'.

    Under --verify only, index loads the one-shift oracle, `runs`, and census
    the all-shift scan, `oracle`, which imports `runs` for its gallop, and the
    closure route (`directive` and the `words` it reads) for its certificate.
    A refused directive (exit 2) loads `spec` and no handler: the handler is
    imported once the directive parses.
    """
    if code == 2:
        return _START_MODULES | {"spec"}
    verify = "--verify" in argv
    oracle = {"index": {"runs"}, "census": {"oracle", "runs", "directive", "words"}}.get(argv[0], set()) if verify else set()
    return _START_MODULES | {f"commands.{argv[0]}"} | _SUBCOMMAND_MODULES[argv[0]] | oracle


class TestNumpyStaysUnloaded:
    """A start loads only what its subcommand runs.

    No subcommand loads numpy: the oracle's all-shift scan and its factor
    count, and the split check of `verify`, run in pure Python. No subcommand
    loads dataclasses, nor fractions and the decimal module it imports: the
    index checks compare a RationalIndex's integer fields, never its value as
    a fraction.
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
            (("verify", "--spec", "k=6; e=2; 3,2", "--n", "8"), 2),
            (("index", "--spec", "k=x5; d=; 1", "--all-up-to", "3", "--verify"), 2),
            (("census", "--spec", TRIB, "--all-up-to", "100000", "--verify"), 4),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
    )
    def test_closed_form_answers_and_early_exits_run_without_numpy(self, argv, code):
        start = _start(*argv)
        assert (start["code"], start["numpy"], start["dataclasses"]) == (code, False, False)
        assert set(start["modules"]) == _expected_modules(argv, code)
        assert (start["fractions"], start["decimal"]) == (False, False)
        assert (start["argparse"], start["gettext"]) == (False, False)

    def test_importing_the_package_loads_no_numpy(self):
        """Nor any submodule: each export is imported on first access."""
        probe = "import json, sys, episturm; print(json.dumps([m for m in sys.modules if m == 'numpy' or m.startswith('episturm.')]))"
        assert json.loads(_fresh_child("-c", probe)) == []

    @pytest.mark.parametrize("lengths", [("--m", "4"), ("--all-up-to", "1795")])
    def test_verified_census_loads_the_oracle_without_numpy(self, lengths):
        # 1,795 lengths reach the chunk search of the all-shift scan, one length only its XOR kernel
        start = _start("census", "--spec", TRIB, *lengths, "--verify")
        assert (start["code"], start["numpy"], start["dataclasses"]) == (0, False, False)
        assert set(start["modules"]) == _expected_modules(("census", "--verify"))
        assert (start["fractions"], start["decimal"]) == (False, False)
        assert (start["argparse"], start["gettext"]) == (False, False)

    def test_verify_loads_no_numpy(self):
        # the two-palindrome-split check searches the doubled block for its reversal, with no hash
        start = _start("verify", "--spec", TRIB, "--n", "3")
        assert (start["code"], start["numpy"], start["dataclasses"]) == (0, False, False)
        assert set(start["modules"]) == _expected_modules(("verify",))
        assert (start["fractions"], start["decimal"]) == (False, False)
        assert (start["argparse"], start["gettext"]) == (False, False)

    def test_importing_the_cli_loads_no_math_module(self):
        """The handlers' shared helpers import what they read when they are called, and argparse loads only for help and errors."""
        probe = "import json, sys, episturm.cli; print(json.dumps(sorted(m for m in sys.modules if m.startswith('episturm.') or m in ('argparse', 'gettext'))))"
        assert json.loads(_fresh_child("-c", probe)) == [f"episturm.{name}" for name in sorted(_START_MODULES)]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("--help",), 0),
            (("census", "--help"), 0),
            (("census", "--spec", TRIB, "--mm", "4"), 2),
            (("census", "--spec", TRIB, "--m", "x"), 2),
            (("census", "--spec", TRIB, "--m=4"), 0),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
    )
    def test_help_and_malformed_arguments_load_argparse(self, argv, code):
        start = _start(*argv)
        assert (start["code"], start["argparse"], start["gettext"]) == (code, True, True)


# A fresh interpreter runs the CLI as `python -m episturm.cli` does, as __main__, and reports its exit code,
# whether any handler imported `episturm.cli`, which would compile and run it again, and whether the heap was
# frozen when the process entry ended. The CLI's stdout is the probe's fd 1, pointed at devnull, or with
# "closed" first, at a pipe whose reader is gone; the report goes to a copy of the probe's own stdout.
_MAIN_PROBE = """
import contextlib, gc, io, json, os, runpy, sys
report = os.fdopen(os.dup(1), "w")
if sys.argv[1] == "closed":
    reader, writer = os.pipe()
    os.close(reader)
    os.dup2(writer, 1)
else:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
sys.argv = ["episturm", *sys.argv[2:]]
assert gc.get_freeze_count() == 0
with contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("episturm.cli", run_name="__main__")
        code = None
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "second_cli": "episturm.cli" in sys.modules, "frozen": gc.get_freeze_count() > 0,
                  "handlers": sorted(m for m in sys.modules if m.startswith("episturm.commands."))}), file=report)
report.close()
"""


def _main(*argv, stdout="open") -> dict:
    return json.loads(_fresh_child("-c", _MAIN_PROBE, stdout, *argv))


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--spec", TRIB, "--length", "10"),
        ("blocks", "--spec", TRIB, "--n", "3"),
        ("singular", "--spec", TRIB, "--n", "2"),
        ("partition", "--spec", TRIB, "--n", "1", "--verify"),
        ("index", "--spec", TRIB, "--n", "2", "--verify"),
        ("census", "--spec", TRIB, "--m", "4", "--verify"),
        ("verify", "--spec", TRIB, "--n", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_running_as_main_compiles_the_cli_once(argv):
    done = _main(*argv)
    assert done == {"code": 0, "second_cli": False, "frozen": True, "handlers": [f"episturm.commands.{argv[0]}"]}


class TestProcessEntry:
    """The process entry freezes the heap on every way out, so finalization skips it; main() never does."""

    @pytest.mark.parametrize(
        "argv, stdout, code",
        [
            (("census", "--spec", TRIB, "--m", "4"), "open", 0),
            (("verify", "--spec", "k=6; e=2; 3,2", "--n", "8"), "open", 2),
            (("blocks", "--spec", "k=5; d=3,3,3; 2", "--n", "78"), "open", 4),
            (("census", "--spec", TRIB, "--mm", "4"), "open", 2),
            (("census", "--help"), "open", 0),
            (("generate", "--spec", TRIB, "--length", "10"), "closed", 1),
        ],
        ids=["answer", "refused spec", "guard", "usage error", "help", "closed stdout"],
    )
    def test_every_exit_path_leaves_the_heap_frozen(self, argv, stdout, code):
        done = _main(*argv, stdout=stdout)
        assert (done["code"], done["frozen"]) == (code, True)

    def test_main_in_process_leaves_the_collector_alone(self, capsys):
        assert gc.get_freeze_count() == 0
        assert cli.main(["census", "--spec", TRIB, "--m", "4"]) == 0
        assert cli.main(["verify", "--spec", "k=6; e=2; 3,2", "--n", "8"]) == 2
        with pytest.raises(SystemExit):
            cli.main(["census", "--help"])
        capsys.readouterr()
        assert gc.get_freeze_count() == 0

    def test_the_console_script_runs_the_main_block_entry(self):
        main_block = next(node for node in ast.parse(Path(cli.__file__).read_text()).body
                          if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")
        assert [ast.unparse(node) for node in main_block.body] == ["entry()"]
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)\n\n", pyproject, re.M | re.S).group(1)
        assert scripts == 'episturm = "episturm.cli:entry"'

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_the_flush_at_exit_writes_every_byte(self, capsys, json_flag):
        """Two million letters, read through a pipe to the end, are the bytes main() prints in process.

        The child's stdout is block-buffered, so what is left in its buffer reaches the pipe only if the exit
        flushes it.
        """
        argv = ["generate", "--spec", MIX3, "--length", "2000000", *json_flag]
        done = subprocess.run([sys.executable, "-m", "episturm.cli", *argv], env=_child_env(), capture_output=True,
                              timeout=60)
        assert (done.returncode, done.stderr) == (0, b"")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(out) > 2_000_000
        assert done.stdout == out.encode()


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


def test_closed_form_range_holds_one_base_at_a_time():
    """a^400000 b a^r carries a square at each of the 16,000 lengths: their bases hold 1.3e8 letters in all."""
    out = _fresh_child("-c", _RSS_PROBE, "census", "--spec", "k=2; d=400000; 1", "--all-up-to", "16000")
    *lines, last = out.splitlines()
    code, max_rss_kb = json.loads(last)
    assert code == 0 and len(lines) == 16001 and lines[-1].startswith("order 2: 16000 carrying lengths up to 16000: 1 2 3")
    assert max_rss_kb < 40 * 1024


# A guard must refuse (exit 4) before its real cost in time or memory is paid, and an answer at a guard must fit the
# same limits. Measured as children on a 2-CPU x86-64 VM (Python 3.11.7), the rows below take at most 3.5 s of CPU
# and, but for the battery's, the two tilings at the tile guard and `d=400000` to 12,000, at most 69 MB max RSS
# (`d=400000` to 8,000 takes 52 MB, the witness lists of `census --m 5768 --full --json` 47 MB: held whole as JSON,
# they took 110 MB, and printed twice, 142 MB); Fibonacci `blocks --n 38` needed between 256 and 288 MB when it built
# block 38 before refusing. The two tilings take 0.5 to 0.6 s of CPU and 104 MB (Tribonacci) and 113 MB (`k=26`) max
# RSS; with a Python tuple per tile, both died with MemoryError at 152 to 156 MB. `d=400000` to 12,000 takes 2 s and
# 92 MB; with every row kept, it died with MemoryError at 157 MB. `singular --full --json` at the partition guard
# takes 59 MB (Fibonacci `--n 18`) and 79 MB (Tribonacci `--n 14`) max RSS, as its text form does, with its classes
# held once; with a mirrored copy of each class made to check it is closed under reversal, they took 103 and 123 MB,
# and with each member list held whole as JSON, 191 and 175 MB. The battery at its guard takes 0.8 to 1.2 s of CPU and
# 119 MB (Tribonacci `--n 26`), 123 MB (`k=26; d=; 1 --n 23`) and 139 MB (Fibonacci `--n 33`) max RSS; with its
# products joined to be compared, Fibonacci took 174 MB and died with MemoryError at 144 MB, and `verify` ran under a
# 400 MB limit of its own. The limits leave at least 2.3 times that as headroom, `d=400000` to 12,000 1.7 times, the
# tilings 1.4 times and the battery 1.15 times, and are set in the child only; the singular classes, the battery and
# the witness guard have their own bounds below.
_CONTRACT_CPU_S = 10
_CONTRACT_AS_MB = 160


# A fresh small interpreter (see _RSS_PROBE) sets the limits on itself, spawns the CLI under them with its output
# discarded, and prints the CLI's exit code, CPU seconds and max RSS in KB.
_CONTRACT_PROBE = """
import json, os, resource, sys
cpu_s, as_mb = int(sys.argv[1]), int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))
resource.setrlimit(resource.RLIMIT_AS, (as_mb << 20, as_mb << 20))
out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "episturm.cli", *sys.argv[3:]], os.environ, file_actions=out)
_, status, usage = os.wait4(pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, usage.ru_maxrss]))
"""


# At the scan guard's limits the certificate holds its longest prefixes. Their max RSS, measured with the probe
# above at 38 MB (Tribonacci) and 56 MB (Fibonacci), must stay under about 1.25 times that, so a count or a
# certificate that holds more than it reads fails here: with batches of L windows and the whole block kept, they took
# 62 and 79 MB.
_TRIB_SCAN_LIMIT = ("census", "--spec", TRIB, "--all-up-to", "72332", "--verify")
_FIB_SCAN_LIMIT = ("census", "--spec", "k=2; d=; 1", "--all-up-to", "158905", "--verify")
_SCAN_LIMIT_RSS_MB = {_TRIB_SCAN_LIMIT: 48, _FIB_SCAN_LIMIT: 70}

# The singular classes at the partition guard, measured with the same probe at 59 MB (Fibonacci) and 79 MB
# (Tribonacci), must stay under about 1.25 times that, so a second copy of the classes fails here.
_FIB_SINGULAR_FULL = ("singular", "--spec", "k=2; d=; 1", "--n", "18", "--full", "--json")
_TRIB_SINGULAR_FULL = ("singular", "--spec", TRIB, "--n", "14", "--full", "--json")

# a^400000 b a^r carries one square witness, a^m, at each length m: to 8,191 its lists hold 33,550,336 letters, under the
# witness guard's 2^25, and to 16,383 they hold 134,209,536. The guard is priced from the recurrences and each row is
# built as it prints, so both took 15 to 16 MB max RSS with the probe above; with every carrying row built before the
# guard was summed, they took 48 MB (--json) and 148 MB.
_D400K_FULL_LIMIT = ("census", "--spec", "k=2; d=400000; 1", "--all-up-to", "8191", "--full", "--json")
_D400K_FULL_OVER = ("census", "--spec", "k=2; d=400000; 1", "--all-up-to", "16383", "--full")

# A single length prices its witness list at its grid point before its base is built: Fibonacci `--m 24157817 --full`
# exits 4 at 14 MB max RSS with the probe above, and `--m 39088169 --full` too. With the base and its doubling built
# first, the first took 120 MB and the second died with MemoryError at 111 MB.
_FIB_FULL_M = ("census", "--spec", "k=2; d=; 1", "--m", "24157817", "--full")
_FIB_FULL_M_OVER = ("census", "--spec", "k=2; d=; 1", "--m", "39088169", "--full")

# The battery compares each product in pieces, without joining it, and the table memoizes blocks only: Fibonacci
# `verify --n 33` took 103 MB max RSS with the probe above. With every palindromic prefix memoized too, it took 140 MB;
# with telescoping and near-commutation joining both sides, it died with MemoryError at 144 MB.
_FIB_BATTERY_LIMIT = ("verify", "--spec", "k=2; d=; 1", "--n", "33")
_OWN_RSS_MB = {**_SCAN_LIMIT_RSS_MB, _FIB_SINGULAR_FULL: 74, _TRIB_SINGULAR_FULL: 99, _D400K_FULL_LIMIT: 30, _D400K_FULL_OVER: 30,
               _FIB_FULL_M: 30, _FIB_FULL_M_OVER: 30, _FIB_BATTERY_LIMIT: 120}


@pytest.mark.parametrize(
    "argv, code",
    [
        (_TRIB_SCAN_LIMIT, 0),  # P has 555,407 letters
        (("census", "--spec", TRIB, "--all-up-to", "72333", "--verify"), 4),
        (_FIB_SCAN_LIMIT, 0),  # P has 635,620 letters
        (("census", "--spec", "k=2; d=; 1", "--all-up-to", "158906", "--verify"), 4),
        (("census", "--spec", "k=2; d=4000000; 1", "--all-up-to", "200", "--verify"), 4),  # the count runs out at the cut
        (("census", "--spec", "k=2; d=4000000; 1", "--m", "1", "--verify"), 0),  # P = a^4000000 b a, 4% under the scan guard
        (("blocks", "--spec", "k=2; d=; 1", "--n", "38"), 4),  # the palindromic prefix is above the length guard
        # the palindromic prefix and the tails are read off the memoized blocks 35 and 34; with the prefixes memoized
        # too, both died with MemoryError at 148 MB
        (("blocks", "--spec", "k=2; d=; 1", "--n", "35"), 0),
        (("blocks", "--spec", TRIB, "--n", "28"), 0),
        (("index", "--spec", "k=26; d=; 1", "--all-up-to", "5", "--verify"), 4),  # the first host is above the length guard
        (("generate", "--spec", TRIB, "--length", "18947743"), 0),  # the longest prefix the closure guard admits
        (("generate", "--spec", TRIB, "--length", "18947744"), 4),
        (("census", "--spec", "k=26; d=; 1", "--m", "2000", "--verify"), 4),  # the scan guard, on 26 letters
        # the count runs out in the first 4,161,783 letters of block 1, which has 130,000,001
        (("census", "--spec", "k=2; d=130000000; 1", "--m", "1", "--verify"), 4),
        # P = a^d b a ends in block 2, which has d(d + 1) + 1 letters, above the length guard from d = 11,585 on; it is
        # built only as far as the scan guard admits, and only its first d + 2 letters are counted
        (("census", "--spec", "k=2; d=; 10000", "--m", "1", "--verify"), 0),
        (("census", "--spec", "k=2; d=; 12000", "--m", "1", "--verify"), 0),
        (("census", "--spec", "k=2; d=; 1", "--all-up-to", "27000", "--verify"), 0),  # P has 129,024 letters
        # P = a^400000 b a^15999: at each of the 7,746 shifts of the chunk search, a run of about 400,000 letters
        (("census", "--spec", "k=2; d=400000; 1", "--all-up-to", "8000", "--verify"), 0),
        # every length to 12,000 carries a square: the scan's classes hold 7.2e7 letters, the rows one base at a time
        (("census", "--spec", "k=2; d=400000; 1", "--all-up-to", "12000", "--verify"), 0),
        # the level-0 tiling of block 20 has exactly the tile guard's 2^20 tiles, each printed as JSON
        (("partition", "--spec", "k=26; d=; 1", "--n", "0", "--m", "20", "--json", "--verify"), 0),
        (("partition", "--spec", "k=26; d=; 1", "--n", "0", "--m", "21", "--verify"), 4),  # text, so the refusal is on stderr
        (("partition", "--spec", TRIB, "--n", "2", "--m", "24", "--json", "--verify"), 0),  # 978,793 tiles
        # 5,768 witnesses of 5,768 letters, under the witness guard's 2^25; m = 10,609 carries 10,609 of 10,609
        (("census", "--spec", TRIB, "--m", "5768", "--full", "--json"), 0),
        (("census", "--spec", TRIB, "--m", "10609", "--full"), 4),
        # a row for every length up to the range guard, 2^19, from one walk over the window grids: 1.9 s of CPU as text
        # and 4.3 s with --json; with a census() call a length, 2^18 lengths took 8.6 and 9.9 s
        (("census", "--spec", TRIB, "--all-up-to", "524288", "--l", "4", "--full"), 0),
        (("census", "--spec", TRIB, "--all-up-to", "524288", "--l", "4", "--full", "--json"), 0),
        (_FIB_FULL_M, 4),  # 24,157,817 witnesses of 24,157,817 letters
        (_FIB_FULL_M_OVER, 4),
        (_D400K_FULL_LIMIT, 0),
        (_D400K_FULL_OVER, 4),
        # k |block n|^2 letters of class members, under the length guard's 2^27: 91,530,450 and 99,809,472
        (_FIB_SINGULAR_FULL, 0),
        (_TRIB_SINGULAR_FULL, 0),
        (("singular", "--spec", TRIB, "--n", "15", "--full"), 4),  # text, so the refusal is on stderr
        (("verify", "--spec", TRIB, "--n", "26"), 0),  # block 28 has 29,249,425 letters, within the battery's guard
        (("verify", "--spec", TRIB, "--n", "27"), 4),  # block 29 has 53,798,080
        (_FIB_BATTERY_LIMIT, 0),  # block 35 has 24,157,817 letters
        (("verify", "--spec", "k=26; d=; 1", "--n", "23"), 0),  # block 25 has 2^25 letters, the most the guard admits
        (("verify", "--spec", "k=26; d=; 1", "--n", "24"), 4),  # block 26 has 67,108,863
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_inputs_at_the_guards_keep_the_exit_code_contract(argv, code):
    done = subprocess.run([sys.executable, "-c", _CONTRACT_PROBE, str(_CONTRACT_CPU_S), str(_CONTRACT_AS_MB), *argv],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    exit_code, cpu_s, max_rss_kb = json.loads(done.stdout)
    cost = f"{cpu_s:.2f} s of CPU and {max_rss_kb >> 10} MB max RSS, under {_CONTRACT_CPU_S} s and {_CONTRACT_AS_MB} MB of address space"
    assert exit_code == code, f"{cost}\n{done.stderr[-500:]}"
    assert ("guard" in done.stderr) == (code == 4), cost
    assert max_rss_kb < _OWN_RSS_MB.get(argv, _CONTRACT_AS_MB) << 10, cost


def test_the_readme_states_the_contract_the_test_runs():
    guards = re.search(r"^## Guards and determinism\n(.*?)^## ", README, re.M | re.S).group(1)
    assert re.search(r"(\d+) s of CPU", guards).group(1) == str(_CONTRACT_CPU_S)
    assert re.search(r"(\d+) MB of address space", guards).group(1) == str(_CONTRACT_AS_MB)


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_closed_stdout_exits_one_without_a_traceback(json_flag):
    """The reader takes one line and closes the pipe, with about 1.6 MB of witness lines still to come."""
    argv = [sys.executable, "-m", "episturm.cli", "census", "--spec", TRIB, "--all-up-to", "1000", "--full", *json_flag]
    with subprocess.Popen(argv, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert first.startswith(b'{"kind": "census-row", "m": 1,' if json_flag else b"m=1 l=2: 1")
    assert (code, err) == (1, b"")


def test_long_exponent_generate_keeps_one_closure_prefix():
    """a^8000 b closes 8,000 prefixes of up to 16,000 letters (about 3.2e7 in all); only the one being closed is kept."""
    out = _fresh_child("-c", _RSS_PROBE, "generate", "--spec", "k=2; d=8000; 1", "--length", "16000")
    *lines, last = out.splitlines()
    code, max_rss_kb = json.loads(last)
    assert code == 0 and lines == ["a" * 8000 + "b" + "a" * 7999]
    assert max_rss_kb < 25 * 1024
