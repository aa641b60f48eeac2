"""Spans and counts around alctrie's public functions, for the traced run.

Each function is replaced, for the length of the measured phase, by a wrapper
bound under the name its callers look it up by.  A span records its name,
start, end, parent span and the time its child spans took, so a layer's self
time is its duration minus that child time.  The hot reads of key bits
(`KeySet.bit_block`, `Key.bit`) run once per block or per bit; keeping each
of those would take gigabytes, so they are summed per parent span instead,
as calls, seconds and bits read.  A bit read made inside another bit read is
part of the outer one.  A name that no longer exists is listed as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _block_bits(args, kwargs) -> int:
    # KeySet.bit_block(self, ids, start, width)
    ids = args[1] if len(args) > 1 else kwargs["ids"]
    width = args[3] if len(args) > 3 else kwargs["width"]
    return len(ids) * width


def _one_bit(args, kwargs) -> int:
    return 1


# (where callers look the function up, bits read per call for bit reads)
WRAPPED = (
    ("alctrie.load_keys", None),
    ("alctrie.generate_keys", None),
    ("alctrie.montecarlo.generate_keys", None),
    ("alctrie.tabulate_profile", None),
    ("alctrie.trie.shared_prefix_counts", None),
    ("alctrie.lctrie.shared_prefix_counts", None),
    ("alctrie.montecarlo.shared_prefix_counts", None),
    ("alctrie.compress", None),
    ("alctrie.longest_prefix_match", None),
    ("alctrie.lctrie.match_length", None),
    ("alctrie.montecarlo.designated_depth", None),
    ("alctrie.simulate_depth", None),
    ("alctrie.predict_level_calibrated", None),
    ("alctrie.predict_level_closed_form", None),
    ("alctrie.depth_constant", None),
    ("alctrie.expected_fill_fraction", None),
    ("alctrie.source.KeySet.bit_block", _block_bits),
    ("alctrie.source.Key.bit", _one_bit),
)

BIT_BLOCK = "source.KeySet.bit_block"
KEY_BIT = "source.Key.bit"
LPM = "lctrie.longest_prefix_match"


def _resolve(path: str):
    """(owner, attribute, function) for a dotted name, or None if any part
    of it is missing."""
    first, *middle, attr = path.split(".")
    owner = importlib.import_module(first)
    for part in middle:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    """Spans kept in memory while installed; `write` saves them."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, child_s]
        self.reads: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, s, bits]
        self.stack: list[int] = []
        self.in_read = False
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        for path, bits in WRAPPED:
            found = _resolve(path)
            if found is None:
                self.absent.append(path)
                continue
            owner, attr, fn = found
            original = vars(owner)[attr]
            name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
            wrapper = self._span_wrapper(fn, name) if bits is None \
                else self._read_wrapper(fn, name, bits)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, perf_counter(), 0.0, parent, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = end = perf_counter()
        self.stack.pop()
        if record[3] >= 0:
            self.spans[record[3]][4] += end - record[1]

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
        return traced

    def _read_wrapper(self, fn, name, bits_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.in_read:
                return fn(*args, **kwargs)
            self.in_read = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                self.in_read = False
                parent = self.stack[-1] if self.stack else -1
                entry = self.reads.get((name, parent))
                if entry is None:
                    entry = self.reads[(name, parent)] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += seconds
                entry[2] += bits_of(args, kwargs)
                if parent >= 0:
                    self.spans[parent][4] += seconds
        return traced

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as (value, unit); 0 where a layer did not run."""
        spans = self.spans
        by_name: dict[str, list[list]] = defaultdict(list)
        for record in spans:
            by_name[record[0]].append(record)

        def total(name):
            return sum(r[2] - r[1] for r in by_name[name])

        def self_time(name):
            return sum(r[2] - r[1] - r[4] for r in by_name[name])

        def reads(name, column):
            return sum(v[column] for (n, _), v in self.reads.items() if n == name)

        lpm_bits = sum(v[2] for (_, parent), v in self.reads.items()
                       if parent >= 0 and spans[parent][0] == LPM)
        lpm_calls = len(by_name[LPM])
        analysis_s = sum(
            r[2] - r[1] for r in spans
            if r[0].startswith("analysis.")
            and (r[3] < 0 or not spans[r[3]][0].startswith("analysis.")))
        return {
            "source.parse_s": (total("source.load_keys"), "s"),
            "source.bit_block_calls": (reads(BIT_BLOCK, 0), "count"),
            "source.bit_block_bits": (reads(BIT_BLOCK, 2), "count"),
            "source.bit_block_s": (reads(BIT_BLOCK, 1), "s"),
            "source.key_bit_calls": (reads(KEY_BIT, 0), "count"),
            "source.key_bit_s": (reads(KEY_BIT, 1), "s"),
            "trie.tabulate_profile_s": (total("trie.tabulate_profile"), "s"),
            "trie.shared_prefix_counts_calls":
                (len(by_name["trie.shared_prefix_counts"]), "count"),
            "trie.shared_prefix_counts_s": (total("trie.shared_prefix_counts"), "s"),
            "lctrie.compress_s": (self_time("lctrie.compress"), "s"),
            "lctrie.lpm_s": (self_time(LPM), "s"),
            "lctrie.lpm_key_bits_per_query":
                (lpm_bits / lpm_calls if lpm_calls else 0, "count"),
            "lctrie.match_length_s": (total("lctrie.match_length"), "s"),
            "lctrie.designated_depth_s": (self_time("lctrie.designated_depth"), "s"),
            "analysis.s": (analysis_s, "s"),
            "montecarlo.self_s": (self_time("montecarlo.simulate_depth"), "s"),
        }

    def write(self, path, **header) -> None:
        payload = dict(header)
        payload.update(
            absent=self.absent,
            span_fields=["name", "start", "end", "parent", "child_s"],
            spans=self.spans,
            read_fields=["name", "parent", "calls", "seconds", "bits"],
            reads=[[n, parent, *v] for (n, parent), v in self.reads.items()],
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
