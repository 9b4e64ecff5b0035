"""Per-op correctness: exit code, report schema, verdict rows and recorded answers.

An op fails when its exit code is not the expected one, a JSON line breaks
`report.schema.json`, its status row says the wrong thing, a `verification`
or `check` row is not ok, or its answer fields differ from the ones
recorded in `reference.json`. Only answer fields are compared, so `detail`
strings and fields or row kinds added later do not read as failures.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

# row kind -> the fields that carry the answer
ANSWER_FIELDS = {
    "prefix": ("length", "word"),
    "block": ("level", "length", "first_letter_count", "other_letter_count"),
    "palindromic-prefix": ("level", "length"),
    "tail": ("level", "depth", "length"),
    "index": ("level", "prefix_index", "prefix_witness_length", "block_index", "block_witness_length"),
    "singular-class": ("level", "r", "width", "size"),
    "singular-summary": ("level", "classes", "total"),
    "partition": ("level", "upto", "covered", "piece_count", "items"),
    "census-row": ("m", "l", "count"),
    "census-summary": ("l", "m_max", "nonzero_lengths"),
    "verification": ("target", "ok"),
    "check": ("name", "ok"),
    "verify-summary": ("n_max", "failures"),
    "status": ("command", "ok"),
}
_RATIONAL = ("whole", "num", "den")
_DIGESTED = ("word", "items")  # long values are compared by digest


def _answer_value(field: str, value):
    if isinstance(value, dict):
        return [value[key] for key in _RATIONAL]
    if field in _DIGESTED:
        return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]
    return value


def answers(rows: list[dict]) -> list:
    """The answer fields of every row whose kind carries an answer, in output order."""
    out = []
    for row in rows:
        fields = ANSWER_FIELDS.get(row["kind"])
        if fields is not None:
            out.append([row["kind"]] + [_answer_value(f, row.get(f)) for f in fields])
    return out


class Checker:
    """Checks op outputs; identical outputs are checked once."""

    def __init__(self, schema_path: Path, reference: dict):
        schema = json.loads(schema_path.read_text())
        self._validator = jsonschema.Draft202012Validator(schema)
        self._reference = reference
        self._seen: dict[tuple, list[str]] = {}

    def rows(self, stdout: str) -> list[dict]:
        return [json.loads(line) for line in stdout.splitlines() if line.strip()]

    def problems(self, op, rc: int, stdout: str) -> list[str]:
        """Everything wrong with one op's result; empty when the op passed."""
        key = (op.key(), rc, hashlib.sha256(stdout.encode()).digest())
        if key not in self._seen:
            self._seen[key] = self._problems(op, rc, stdout)
        return self._seen[key]

    def _problems(self, op, rc: int, stdout: str) -> list[str]:
        found = []
        if rc != op.expect_rc:
            found.append(f"exit code {rc}, expected {op.expect_rc}")
        try:
            rows = self.rows(stdout)
        except json.JSONDecodeError as exc:
            return found + [f"output is not JSON lines: {exc}"]
        for i, row in enumerate(rows):
            error = jsonschema.exceptions.best_match(self._validator.iter_errors(row))
            if error is not None:
                found.append(f"row {i} breaks the schema: {error.message[:200]}")
        statuses = [row for row in rows if row.get("kind") == "status"]
        if len(statuses) != 1 or statuses[0].get("ok") is not (op.expect_rc == 0):
            found.append(f"status rows {statuses[:2]} for expected exit code {op.expect_rc}")
        for row in rows:
            if row.get("kind") in ("verification", "check") and row.get("ok") is not True:
                found.append(f"{row['kind']} row not ok: {json.dumps(row)[:200]}")
        expected = self._reference.get(op.key())
        if expected is not None and answers(rows) != expected:
            found.append("answer fields differ from reference.json")
        return found
