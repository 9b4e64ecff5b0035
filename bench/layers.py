"""Per-layer spans and counts, recorded from outside the package.

`Tracer.install()` wraps the public entry points of every `episturm`
module and rebinds each wrapper wherever the original is reachable: the
defining module, every module that imported it with `from .x import y`,
the package namespace and `checks.ALL_CHECKS`. Methods of `BlockTable`
and `PalindromicPrefixTable` are wrapped on the class. Hot scalar helpers
(`block_length`, `exponent`, `window_level`, the small word functions) stay
unwrapped, so their time counts in the caller's self time.

A span is (name, start, end, parent index, op id), kept in memory. Counts
are computed from call arguments and results.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from episturm import blocks, checks, cli, directive, oracle, partition, powers, singular, words

LAYERS = ("directive", "words", "blocks", "powers", "oracle", "singular", "partition", "checks", "cli")

# span name -> (module or class, attribute names)
_ENTRY_POINTS = {
    "oracle.scan": (oracle, ("scan_powers_multi", "scan_powers", "naive_scan", "generate_prefix")),
    "oracle.certify": (oracle, ("certified_scan", "certify_prefix")),
    "oracle.fracpow": (oracle, ("max_fractional_power", "greatest_power_prefix")),
    "powers.census": (powers, ("census", "census_range", "length_sets")),
    "powers.index": (powers, ("prefix_index", "block_index", "block_index_witness")),
    "blocks.materialize": (blocks.BlockTable, ("block", "palindromic_prefix", "block_tail", "power_prefix", "junction")),
    "directive.closure": (directive, ("closure_prefix", "palindromic_closure", "prefix_increment")),
    "directive.closure_table": (directive.PalindromicPrefixTable, ("prefix", "prefix_of_length")),
    "words.z_array": (words, ("z_array",)),
    "singular.partition": (singular, ("factor_partition", "singular_words", "singular_window", "classify_factor")),
    "partition.tiling": (partition, ("level_partition", "block_positions", "return_words")),
    "cli.main": (cli, ("main",)),
}

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "oracle.scan_s": ("oracle.scan",),
    "oracle.certify_s": ("oracle.certify",),
    "oracle.fracpow_s": ("oracle.fracpow",),
    "powers.census_s": ("powers.census",),
    "powers.index_s": ("powers.index",),
    "blocks.materialize_s": ("blocks.materialize",),
    "directive.closure_s": ("directive.closure", "directive.closure_table"),
    "words.z_array_s": ("words.z_array",),
    "singular.partition_s": ("singular.partition",),
    "partition.tiling_s": ("partition.tiling",),
    "cli.self_s": ("cli.main",),
}

COUNTS = (
    "oracle.scan_calls", "oracle.shifts", "oracle.letters_compared", "oracle.escalations",
    "oracle.prefix_letters", "powers.census_calls", "powers.witness_letters", "blocks.letters",
    "directive.closure_letters", "words.z_array_letters", "singular.factors", "partition.tiles",
    "cli.rows", "cli.bytes_out",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._held: dict = {}
        self._restore: list = []
        self._counters = {
            "scan_powers_multi": self._count_scan,
            "certified_scan": self._count_certify,
            "census": self._count_census,
            "block": lambda idx, args, result: self._hold("block", args, result, low=1),
            "palindromic_prefix": lambda idx, args, result: self._hold("prefix", args, result, low=0),
            "palindromic_closure": lambda idx, args, result: self._add("directive.closure_letters", len(result)),
            "z_array": lambda idx, args, result: self._add("words.z_array_letters", len(args[0])),
            "factor_partition": lambda idx, args, result: self._add("singular.factors", result.total_count()),
            "level_partition": lambda idx, args, result: self._add("partition.tiles", len(result.items)),
        }

    # -- counts from arguments and results ---------------------------------------

    def _add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def _count_scan(self, idx, args, result):
        prefix, _orders, m_min, m_max = args[:4]
        shifts = m_max - m_min + 1
        self._add("oracle.scan_calls", 1)
        self._add("oracle.shifts", shifts)
        self._add("oracle.letters_compared", shifts * len(prefix) - (m_min + m_max) * shifts // 2)

    def _count_certify(self, idx, args, result):
        scans = sum(1 for span in self.spans[idx + 1:] if span[3] == idx and span[0] == "oracle.scan")
        self._add("oracle.escalations", int(scans > 2))
        self._add("oracle.prefix_letters", len(result[0].word))

    def _count_census(self, idx, args, result):
        self._add("powers.census_calls", 1)
        self._add("powers.witness_letters", result.count * result.m)

    def _hold(self, what, args, result, low):
        """Remember a memoized word; the seed letters below `low` are not stored by the table."""
        table, n = args[0], args[1]
        if n >= low:
            self._held[(what, id(table), n)] = len(result)

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, self.op))
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, spans[idx][3], self.op)
            if count is not None:
                count(idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry point and rebind it in every module that holds it."""
        replace: dict[int, object] = {}
        for name, (owner, attrs) in _ENTRY_POINTS.items():
            for attr in attrs:
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, self._counters.get(attr))
                if isinstance(owner, type):
                    self._rebind(owner, attr, wrapped)
                else:
                    replace[id(original)] = wrapped
        wrapped_checks = tuple((name, self._wrap(f"checks.{name}", fn)) for name, fn in checks.ALL_CHECKS)
        replace[id(checks.ALL_CHECKS)] = wrapped_checks
        for module_name, module in list(sys.modules.items()):
            if module_name == "episturm" or module_name.startswith("episturm."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replace:
                        self._rebind(module, attr, replace[id(value)])

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def end_op(self, stdout: str) -> None:
        """Close the current op: letters still held by its block tables, and its output size."""
        self._add("blocks.letters", sum(self._held.values()))
        self._held.clear()
        self._add("cli.rows", sum(1 for line in stdout.splitlines() if line.strip()))
        self._add("cli.bytes_out", len(stdout.encode()))
        self.op += 1

    # -- per-layer metrics -------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name: each span's duration minus its child spans' durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {metric: float(sum(selfs[name] for name in names)) for metric, names in SELF_TIME.items()}
        out["checks.battery_s"] = float(sum(v for name, v in selfs.items() if name.startswith("checks.")))
        totals: Counter = Counter()
        for name, start, end, _parent, _op in self.spans:
            if name.startswith("checks."):
                totals[name] += end - start
        for name, _fn in checks.ALL_CHECKS:
            out[f"checks.{name}_s"] = float(totals[f"checks.{name}"])
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def layer_shares(self) -> dict[str, float]:
        """Each layer's share of all traced self time."""
        selfs = self.self_times()
        total = sum(selfs.values()) or 1.0
        shares = Counter()
        for name, value in selfs.items():
            shares[name.split(".")[0]] += value / total
        return {layer: round(shares[layer], 4) for layer in LAYERS}
