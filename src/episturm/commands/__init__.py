"""The CLI's subcommand handlers, one module each, and the helpers they share.

`episturm.cli` parses the arguments, imports only the chosen subcommand's
module and parses the directive, and that module's `run(args, spec, rep)`
prints its rows through a `Reporter` and returns the exit code. This module
imports no math module when it loads: each helper below imports what it
reads when it is called, so a start compiles only its handler and the
modules that handler calls.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..errors import shorten

if TYPE_CHECKING:
    from ..blocks import BlockTable
    from ..spec import DirectiveSpec
    from ..words import RationalIndex

INLINE_WORD_LIMIT = 64


class Reporter:
    """Collects rows and prints them as text lines or JSON lines."""

    def __init__(self, command: str, spec_text: str, as_json: bool):
        self.command = command
        self.spec_text = spec_text
        self.as_json = as_json

    def row(self, kind: str, payload: dict, text=None, last=None) -> None:
        """Print one row as a JSON line, or as its text lines: one string, or an iterable printed as it yields them.

        `last`, a (key, encode) pair, ends the JSON object with one more field
        whose JSON text encode() yields in pieces; it is called under --json only.
        """
        if self.as_json:
            line = json.dumps({"kind": kind, **payload}, ensure_ascii=True)
            if last is None:
                print(line)
            else:
                key, encode = last
                sys.stdout.write(f"{line[:-1]}, {json.dumps(key)}: ")
                sys.stdout.writelines(encode())
                print("}")
        elif text is not None:
            lines = [text] if isinstance(text, str) else text
            for line in lines:
                print(line)

    def status(self, ok: bool, error: str | None = None) -> None:
        if self.as_json:
            self.row("status", {"command": self.command, "spec": self.spec_text, "ok": ok, "error": error})
        elif error is not None:
            print(f"episturm {self.command}: {error}", file=sys.stderr)


def json_list(words) -> Iterator[str]:
    """A list of strings as json.dumps prints it, one piece per item, so its whole JSON text is never held."""
    yield "["
    for i, w in enumerate(words):
        yield f"{', ' if i else ''}{json.dumps(w)}"
    yield "]"


def word_fields(w: str, full: bool) -> dict:
    fields: dict = {"length": len(w), "preview": shorten(w)}
    if full or len(w) <= INLINE_WORD_LIMIT:
        fields["word"] = w
    return fields


def rational_fields(value: RationalIndex) -> dict:
    return {"text": str(value), "whole": value.whole, "num": value.num, "den": value.den}


def index_payload(table: BlockTable, n: int) -> dict:
    """The level-n index row; witness lengths come from the indices, no witness is built."""
    from ..powers import block_index, prefix_index

    pre = prefix_index(table, n)
    blk = block_index(table, n)
    return {
        "level": n,
        "prefix_index": rational_fields(pre),
        "prefix_witness_length": pre.length,
        "block_index": rational_fields(blk),
        "block_witness_length": blk.length,
    }


def build_table(spec: DirectiveSpec, level_guard: int | None) -> BlockTable:
    """The block table of `spec`, with its default level guard when `level_guard` is None."""
    from ..blocks import BlockTable

    return BlockTable(spec) if level_guard is None else BlockTable(spec, level_guard=level_guard)
