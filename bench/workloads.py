"""The three benchmark workloads.

Each workload makes its inputs from a seeded `random.Random` (untimed), then
offers `setup()` (timed: raw inputs to a structure ready for the ops, repeated
`setup_repeats` times in a run),
`round(r)` (the ops of round r; every run attempts whole rounds) and
`op(state, op)` (one timed operation).  Checks run after the timed phase:
`check_op` compares one answer with a reference computed in `reference.py`
(None when the op is not in the checked sample) and `check_run`, called
first, returns the problems found outside the ops.

Every call into alctrie goes through a module attribute at call time, such as
`alctrie.compress`, so that the traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from pathlib import Path

import numpy as np

import alctrie
import alctrie.cli
import alctrie.lctrie
import alctrie.source
import reference

ALPHA = 0.5


def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _lookup(alc, query):
    """What `alctrie query` does for one line: the best key, then its length."""
    kid = alctrie.longest_prefix_match(alc, query)
    return kid, alctrie.lctrie.match_length(alc, query, kid)


class CidrTable:
    """20,000 distinct random /24 prefixes in a key file; /32 lookups.

    A round holds 3 addresses that fall in an empty root slot and 7 that do
    not, each uniform within its class.  The two classes cost about 0.3 s and
    0.15 ms a lookup today, so drawing the split afresh (binomially) would
    swing ops_per_s by about 15% between runs; 3 in 10 is the share of empty
    root slots in these tables (29.6% at seed 1).
    """

    name = "cidr_table"
    setup_repeats = 3
    trace_rounds = 10
    KEYS = 20_000
    ROUNDS = 64
    EMPTY_SLOT, BELOW_ROOT = 3, 7
    CLI_KEYS, CLI_QUERIES = 2_000, 20

    def __init__(self, rng: random.Random, workdir: Path):
        self.values = np.array(rng.sample(range(1 << 24), self.KEYS), dtype=np.int64)
        self.root_bits = reference.fillup_level(
            reference.cidr_profile(self.values, 24), ALPHA) + 1
        occupied = set((self.values >> (24 - self.root_bits)).tolist())
        self.empty_root_slot_share = 1.0 - len(occupied) / 2**self.root_bits
        self.addresses: list[int] = []
        self.in_empty_slot: list[bool] = []
        for _ in range(self.ROUNDS):
            empty, below = [], []
            while len(empty) < self.EMPTY_SLOT or len(below) < self.BELOW_ROOT:
                a = rng.getrandbits(32)
                if (a >> (32 - self.root_bits)) in occupied:
                    if len(below) < self.BELOW_ROOT:
                        below.append(a)
                elif len(empty) < self.EMPTY_SLOT:
                    empty.append(a)
            batch = [(a, True) for a in empty] + [(a, False) for a in below]
            rng.shuffle(batch)
            self.addresses.extend(a for a, _ in batch)
            self.in_empty_slot.extend(e for _, e in batch)
        self.queries = [_bits(a, 32) for a in self.addresses]
        self.key_lines = [f"{v >> 16}.{(v >> 8) & 255}.{v & 255}.0/24\n"
                          for v in self.values.tolist()]
        self.query_lines = [f"{a >> 24}.{(a >> 16) & 255}.{(a >> 8) & 255}.{a & 255}/32\n"
                            for a in self.addresses]
        self.workdir = workdir
        self.key_path = workdir / "keys.txt"
        self.key_path.write_text("".join(self.key_lines), encoding="utf-8")
        (workdir / "queries.txt").write_text("".join(self.query_lines),
                                             encoding="utf-8")
        self._expected: dict[int, tuple[int, int]] = {}

    def setup(self):
        return alctrie.compress(alctrie.load_keys(self.key_path), ALPHA)

    def round(self, r: int) -> range:
        start = (r % self.ROUNDS) * (self.EMPTY_SLOT + self.BELOW_ROOT)
        return range(start, start + self.EMPTY_SLOT + self.BELOW_ROOT)

    def op(self, alc, i: int):
        return _lookup(alc, self.queries[i])

    def check_op(self, i: int, answer) -> bool:
        if i not in self._expected:
            self._expected[i] = reference.cidr_match(self.values, 24,
                                                     self.addresses[i], 32)
        return tuple(answer) == self._expected[i]

    def check_run(self, alc) -> list[str]:
        """`alctrie query` in-process on a slice of the key and query files,
        against the XOR reference over the same slice."""
        keys = self.workdir / "cli_keys.txt"
        queries = self.workdir / "cli_queries.txt"
        keys.write_text("".join(self.key_lines[:self.CLI_KEYS]), encoding="utf-8")
        queries.write_text("".join(self.query_lines[:self.CLI_QUERIES]),
                           encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = alctrie.cli.main(["query", "--keys", str(keys), "--queries",
                                     str(queries), "--alpha", str(ALPHA)])
        want = ["%d,%d" % reference.cidr_match(self.values[:self.CLI_KEYS], 24, a, 32)
                for a in self.addresses[:self.CLI_QUERIES]]
        got = out.getvalue().splitlines()
        problems = [] if code == 0 else [f"alctrie query exited {code}"]
        if got != want:
            problems.append(f"alctrie query printed {got[:3]}..., expected {want[:3]}...")
        return problems

    def info(self, run: dict) -> dict:
        split = {True: [], False: []}
        for i, t in zip(run["indices"], run["times"]):
            split[self.in_empty_slot[i]].append(t)
        return {
            "root_bits": self.root_bits,
            "empty_root_slot_share": self.empty_root_slot_share,
            "ops_in_empty_slot": len(split[True]),
            "median_us_in_empty_slot": float(np.median(split[True])) * 1e6,
            "median_us_below_root": float(np.median(split[False])) * 1e6,
        }


class SkewedSource:
    """16,384 random keys with p = 0.9; each op looks up the first 128 bits
    of a stored key, drawn uniformly."""

    name = "skewed_source"
    setup_repeats = 3
    trace_rounds = 8
    KEYS = 16_384
    P = 0.9
    QUERY_BITS = 128
    ROUND_SIZE, ROUNDS = 64, 4

    def __init__(self, rng: random.Random, workdir: Path):
        self.keys = alctrie.generate_keys(
            alctrie.SourceParams(self.P, rng.getrandbits(64)), self.KEYS)
        self.query_ids = [rng.randrange(self.KEYS)
                          for _ in range(self.ROUND_SIZE * self.ROUNDS)]
        block = self.keys.bit_block(np.array(self.query_ids, dtype=np.int64),
                                    0, self.QUERY_BITS)
        self.queries = [tuple(int(b) for b in row) for row in block]
        self._expected: list[tuple[int, int]] = []   # filled by check_run

    def setup(self):
        profile = alctrie.tabulate_profile(self.keys)
        return profile, alctrie.compress(self.keys, ALPHA)

    def round(self, r: int) -> range:
        start = (r % self.ROUNDS) * self.ROUND_SIZE
        return range(start, start + self.ROUND_SIZE)

    def op(self, state, i: int):
        return _lookup(state[1], self.queries[i])

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Key bits wide enough that no two keys tie on all of them, and the
        adjacent-pair LCPs of the keys in sorted order."""
        width = 160
        while True:
            rows = self.keys.bit_matrix(width)
            lcp = reference.sorted_lcp(rows)
            if lcp.max() < width:
                return rows, lcp
            width *= 2

    def check_run(self, state) -> list[str]:
        profile, alc = state
        rows, lcp = self._rows()
        want = reference.profile_from_lcp(lcp)
        problems = []
        if not np.array_equal(profile.counts, want):
            problems.append(f"profile {profile.counts.tolist()} != {want.tolist()}")
        root = reference.fillup_level(want, ALPHA) + 1
        if alc.root.consumed != root:
            problems.append(f"root consumes {alc.root.consumed} levels, expected {root}")
        # the smallest id among keys equal to the query on all 128 bits;
        # that is the query's own key unless two keys share 128 bits
        first = reference.smallest_id_by_prefix(rows[:, :self.QUERY_BITS])
        packed = np.packbits(rows[self.query_ids, :self.QUERY_BITS], axis=1)
        self._expected = [(first[row.tobytes()], self.QUERY_BITS) for row in packed]
        return problems

    def check_op(self, i: int, answer) -> bool:
        return tuple(answer) == self._expected[i]

    def info(self, run: dict) -> dict:
        return {}


class MonteCarlo:
    """One op is one `simulate_depth` trial at n = 65,536, p = 0.7,
    alpha = 0.5, jobs = 1; op i's master seed is the workload's base seed
    plus i.  Setup computes the analytic values the trials are compared
    with."""

    name = "monte_carlo"
    setup_repeats = 15
    trace_rounds = 8
    N, P = 65_536, 0.7
    ROUND_SIZE = 8
    CHECKED = 256        # ops below this index, one per round, are checked
    WALK_BITS = 32

    def __init__(self, rng: random.Random, workdir: Path):
        self.base_seed = rng.getrandbits(48)
        self.params = alctrie.ModelParams(p=self.P, alpha=ALPHA, n=self.N)

    def setup(self):
        params = self.params
        calibrated = alctrie.predict_level_calibrated(params)
        return {
            "calibrated": calibrated,
            "closed_form": alctrie.predict_level_closed_form(self.N, ALPHA, self.P),
            "depth_constant": alctrie.depth_constant(self.P),
            # levels 0 .. 4 * calibrated (52) lie past the deepest level a
            # trial consumed in 4,528 trials (38); the info line reports it
            "fractions": [alctrie.expected_fill_fraction(params, k)
                          for k in range(4 * calibrated + 1)],
        }

    def round(self, r: int) -> range:
        return range(r * self.ROUND_SIZE, (r + 1) * self.ROUND_SIZE)

    def op(self, state, i: int):
        config = alctrie.ExperimentConfig(params=self.params, trials=1,
                                          seed=self.base_seed + i, jobs=1)
        _, _, depth, consumed = alctrie.simulate_depth(config).rows[0]
        return depth, consumed

    def check_op(self, i: int, answer):
        if i % self.ROUND_SIZE or i >= self.CHECKED:
            return None
        keys = alctrie.generate_keys(alctrie.SourceParams(
            self.P, alctrie.source.trial_seed(self.base_seed + i, 0)), self.N)
        width = self.WALK_BITS
        while True:
            try:
                return tuple(answer) == reference.designated_walk(
                    keys.bit_matrix(width), ALPHA)
            except reference.NeedMoreBits:
                width *= 2

    def check_run(self, state) -> list[str]:
        problems = []
        for k, value in enumerate(state["fractions"]):
            want = reference.fill_fraction_fixed_n(self.N, self.P, k)
            if abs(value - want) > 1e-12:
                problems.append(f"expected_fill_fraction at k={k}: {value!r} != {want!r}")
        k = state["calibrated"]
        if not (reference.fill_fraction_fixed_n(self.N, self.P, k) >= ALPHA
                > reference.fill_fraction_fixed_n(self.N, self.P, k + 1)):
            problems.append(f"calibrated level {k} is not the last level at or above alpha")
        closed = reference.closed_form_level(self.N, ALPHA, self.P)
        if abs(state["closed_form"] - closed) > 1e-9 * abs(closed):
            problems.append(f"closed-form level {state['closed_form']!r} != {closed!r}")
        c1 = reference.depth_coefficient(self.P)
        if abs(state["depth_constant"] - c1) > 1e-12 * c1:
            problems.append(f"depth constant {state['depth_constant']!r} != {c1!r}")
        return problems

    def info(self, run: dict) -> dict:
        """The trials beside the analytic values they are compared with."""
        state = run["state"]
        trials = [a for a in run["answers"] if not isinstance(a, Exception)]
        return {
            "mean_depth": float(np.mean([d for d, _ in trials])),
            "c1_log2_log2_n": state["depth_constant"] * math.log2(math.log2(self.N)),
            "max_consumed": max(c for _, c in trials),
            "calibrated_level": state["calibrated"],
            "closed_form_level": state["closed_form"],
            "levels_computed": len(state["fractions"]),
        }


WORKLOADS = {w.name: w for w in (CidrTable, SkewedSource, MonteCarlo)}
