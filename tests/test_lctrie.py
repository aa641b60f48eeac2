import dataclasses
import hashlib
import random
import re
from collections import Counter
from itertools import count
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from alctrie.lctrie import (
    MAX_NODE_WIDTH,
    AlcNode,
    StructureStats,
    compress,
    depth,
    designated_depth,
    longest_prefix_match,
    match_length,
    structure_stats,
)
from alctrie.analysis import ModelParams
from alctrie.montecarlo import ExperimentConfig, simulate_fillup
from alctrie.source import (
    KeySet,
    NestedKeyError,
    SourceParams,
    generate_keys,
    trial_seed,
)
from alctrie import trie
from alctrie.trie import (
    DEFAULT_DEPTH_CAP,
    DepthCapError,
    IndistinguishableKeysError,
    _capped_fillup,
    _fillup_bound,
    _level_counts,
    _sorted_lcp,
    alpha_fillup_level,
    count_filled_oracle,
    tabulate_profile,
)

from conftest import (
    RefNode,
    finite_from_random,
    random_queries,
    ref_compress,
    ref_external_depths,
    ref_fillup_level,
    ref_lpm,
    same_structure,
)


def keys_from(*lines):
    return KeySet.from_lines(lines)


def leaf_ids(node):
    out = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, AlcNode):
            stack.extend(c for c in cur.children if c is not None)
        elif cur is not None:
            out.append(cur)
    return out


def all_nodes(node):
    stack = [node] if isinstance(node, AlcNode) else []
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(c for c in cur.children if isinstance(c, AlcNode))


def test_two_keys_any_alpha():
    for alpha in (0.1, 0.5, 1.0):
        alc = compress(keys_from("0", "1"), alpha)
        assert isinstance(alc.root, AlcNode)
        assert alc.root.consumed == 1
        assert alc.root.children == [0, 1]
        assert depth(alc, 0) == depth(alc, 1).__class__(key_id=0, depth=1,
                                                        consumed_total=1)
        assert depth(alc, 1).depth == 1


def test_four_keys_full_alpha():
    alc = compress(keys_from("00", "01", "10", "11"), 1.0)
    assert alc.root.consumed == 2
    assert alc.root.children == [0, 1, 2, 3]
    for i in range(4):
        assert depth(alc, i).depth == 1


def test_empty_and_singleton():
    empty = compress(generate_keys(SourceParams(0.5, 0), 0), 0.5)
    assert empty.root is None
    single = compress(generate_keys(SourceParams(0.5, 0), 1), 0.5)
    assert single.root == 0
    assert depth(single, 0).depth == 0
    assert depth(single, 0).consumed_total == 0


def test_depth_unknown_key():
    alc = compress(keys_from("0", "1"), 0.5)
    with pytest.raises(KeyError):
        depth(alc, 2)
    with pytest.raises(KeyError):
        designated_depth(keys_from("0", "1"), 0.5, 7)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=48),
    p=st.sampled_from([0.3, 0.5, 0.7]),
    alpha=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_compress_matches_reference(n, p, alpha, seed):
    ks, _, tuples = finite_from_random(p, seed, n)
    alc = compress(ks, alpha)
    ref = ref_compress(list(enumerate(tuples)), alpha)
    assert same_structure(alc.root, ref)
    # leaf multiset preserved
    assert sorted(leaf_ids(alc.root)) == list(range(n))
    for node in all_nodes(alc.root):
        assert node.consumed >= 1
        assert len(node.children) == 1 << node.consumed
    for i, ext in enumerate(ref_external_depths(tuples)):
        ds = depth(alc, i)
        assert ds.depth <= ext <= ds.consumed_total
        if ds.consumed_total == ds.depth:
            # every step consumed one level, squeezing depth onto ext;
            # the converse fails: a wide stride can end at a key that was
            # already unique earlier in the stride
            assert ds.depth == ext


def test_full_alpha_reduces_to_classic_level_compression():
    # with alpha = 1 each node consumes (classic fillup level of its group) + 1
    ks = generate_keys(SourceParams(0.7, 8080), 40)
    alc = compress(ks, 1.0)
    classic = alpha_fillup_level(tabulate_profile(ks), 1.0)
    assert alc.root.consumed == classic + 1


def test_designated_depth_equals_full_compression_depth():
    for seed in range(12):
        ks = generate_keys(SourceParams(0.7, seed), 200)
        alc = compress(ks, 0.5)
        assert designated_depth(ks, 0.5, 0) == depth(alc, 0)
        assert designated_depth(ks, 0.5, 13) == depth(alc, 13)


def test_root_fillup_monotone_in_alpha():
    for seed in (1, 2, 3, 4, 5):
        ks = generate_keys(SourceParams(0.7, seed), 256)
        ids = np.arange(256)
        levels = [_capped_fillup(ks, ids, 0, a)[0]
                  for a in (0.1, 0.25, 0.5, 0.75, 1.0)]
        assert levels == sorted(levels, reverse=True)


def test_root_consumed_monotone_in_alpha():
    for seed in range(8):
        ks = generate_keys(SourceParams(0.7, 1000 + seed), 128)
        low = compress(ks, 0.25)
        high = compress(ks, 0.75)
        assert low.root.consumed >= high.root.consumed


def test_structure_stats_small_cases():
    two = structure_stats(compress(keys_from("0", "1"), 0.5))
    assert two.node_count == 1
    assert two.empty_slot_fraction == 0.0
    assert two.consumed_histogram == {1: 1}
    assert two.max_depth == 1
    one = structure_stats(compress(generate_keys(SourceParams(0.5, 0), 1), 0.5))
    assert one.node_count == 0
    assert one.max_depth == 0
    none = structure_stats(compress(generate_keys(SourceParams(0.5, 0), 0), 0.5))
    assert none == StructureStats(node_count=0, empty_slot_fraction=0.0,
                                  consumed_histogram={}, max_depth=0)


def test_structure_stats_consistency():
    ks = generate_keys(SourceParams(0.6, 44), 300)
    alc = compress(ks, 0.5)
    stats = structure_stats(alc)
    assert stats.node_count == sum(stats.consumed_histogram.values())
    assert 0.0 <= stats.empty_slot_fraction < 1.0
    assert stats.max_depth == max(depth(alc, i).depth for i in range(300))


def test_compress_needs_slot_bits():
    # key "0" is unique at level 1 but cannot address a 2-bit slot
    short = r"^key 0 is too short to address a slot spanning levels 0\.\.1$"
    with pytest.raises(IndistinguishableKeysError, match=short):
        compress(keys_from("0", "10", "11"), 0.5)
    for key_id in range(3):
        with pytest.raises(IndistinguishableKeysError, match=short):
            designated_depth(keys_from("0", "10", "11"), 0.5, key_id)
    # with alpha > 1/2 the root consumes a single level and all is well
    alc = compress(keys_from("0", "10", "11"), 0.75)
    assert alc.root.consumed == 1
    assert sorted(leaf_ids(alc.root)) == [0, 1, 2]


def test_lpm_empty_keyset():
    alc = compress(generate_keys(SourceParams(0.5, 0), 0), 0.5)
    assert longest_prefix_match(alc, "0101") is None


def test_lpm_singleton_matches_regardless():
    alc = compress(generate_keys(SourceParams(0.5, 99), 1), 0.5)
    assert longest_prefix_match(alc, "111111") == 0


def test_lpm_deeper_key_wins():
    # a /16 under 10.0/ wins over the shallower /8 for a 10.0.0.1 query
    ks = keys_from("11.0.0.0/8", "10.0.0.0/16")
    alc = compress(ks, 0.5)
    query = "0000101000000000000000000000000" + "1"
    assert longest_prefix_match(alc, query) == 1
    assert match_length(alc, query, 1) == 16
    assert match_length(alc, query, 0) == 7


def test_lpm_tie_breaks_to_smallest_id():
    ks = keys_from("000", "001")
    alc = compress(ks, 1.0)
    assert longest_prefix_match(alc, "01") == 0
    assert longest_prefix_match(alc, "") == 0
    # sorted order puts key 1 first: the tie goes by id, not by position
    alc = compress(keys_from("001", "000"), 1.0)
    assert longest_prefix_match(alc, "01") == 0
    assert longest_prefix_match(alc, "") == 0


def test_lpm_query_shorter_than_stride():
    ks = keys_from("0000", "0001", "0010", "0011", "1000")
    alc = compress(ks, 0.25)
    for q in ("", "0", "00", "1", "10"):
        got = longest_prefix_match(alc, q)
        want, _ = ref_lpm(ks, tuple(int(c) for c in q))
        assert got == want


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    p=st.sampled_from([0.3, 0.5, 0.7]),
    alpha=st.sampled_from([0.3, 0.6, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_lpm_matches_linear_scan(n, p, alpha, seed):
    ks = generate_keys(SourceParams(p, seed), n)
    alc = compress(ks, alpha)
    rng = np.random.default_rng(seed ^ 0xBEEF)
    for q in random_queries(rng, 25):
        got = longest_prefix_match(alc, q)
        want, want_len = ref_lpm(ks, q)
        assert got == want
        if got is not None:
            assert match_length(alc, q, got) == want_len


def test_lpm_with_finite_keys_of_mixed_length():
    ks = keys_from("0", "10", "110", "111000", "1111")
    alc = compress(ks, 0.75)
    rng = np.random.default_rng(3)
    for q in random_queries(rng, 60, max_len=10):
        got = longest_prefix_match(alc, q)
        want, _ = ref_lpm(ks, q)
        assert got == want


def test_query_bit_validation():
    alc = compress(keys_from("0", "1"), 0.5)
    for query in ("01x", "012", (0, 2), [1, -1]):
        with pytest.raises(ValueError):
            longest_prefix_match(alc, query)
        with pytest.raises(ValueError):
            match_length(alc, query, 0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    p=st.sampled_from([0.3, 0.5, 0.7]),
    alpha=st.sampled_from([0.3, 0.6, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_lpm_on_mixed_length_finite_keys_matches_linear_scan(n, p, alpha, seed,
                                                             data):
    # each key cut past its shortest unique prefix and its slot: a
    # prefix-free key file that compresses
    _, _, tuples = finite_from_random(p, seed, n)
    ends = ref_slot_ends(ref_compress(list(enumerate(tuples)), alpha))
    lengths = [max(1, d, ends[i]) + data.draw(st.integers(0, 3))
               for i, d in enumerate(ref_external_depths(tuples))]
    lines = key_lines(tuples, lengths, cidr=False)
    ks = KeySet.from_lines(lines)
    alc = compress(ks, alpha)
    stride = int(alc.consumed[0]) if alc.height else 0
    bits = lambda lo, hi: data.draw(st.text("01", min_size=lo, max_size=hi))
    key = lambda: data.draw(st.sampled_from(lines))
    queries = ["", bits(0, max(0, stride - 1)), key(), key() + bits(1, 8),
               bits(max(lengths) + 1, max(lengths) + 8)]
    for q in queries:
        want, want_len = ref_lpm(ks, tuple(map(int, q)))
        got = longest_prefix_match(alc, q)
        assert got == want
        assert match_length(alc, q, got) == want_len


def test_depth_sample_fields():
    ks = generate_keys(SourceParams(0.7, 11), 64)
    sample = depth(compress(ks, 0.5), 7)
    assert sample.key_id == 7
    assert sample.depth >= 1
    assert sample.consumed_total >= sample.depth


# -- structures and depths of 4,096 keys against the reference ---------------

WIDE_N = 2**12


@pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_widened_codes_give_reference_structure_and_depths(p, alpha):
    ks, _, tuples = finite_from_random(p, 4242, WIDE_N, width=256)
    alc = compress(ks, alpha)
    assert same_structure(alc.root, ref_compress(list(enumerate(tuples)), alpha))
    for k in (0, 1, 517, WIDE_N - 1):
        assert designated_depth(ks, alpha, k) == depth(alc, k)


# -- the fillup bound: a group reads only the levels that decide it ----------

def _pairing_seed(n: int) -> int:
    """The first seed whose n = 2**(k+1) keys at p = 0.5 fill level k with
    2**k pairs, so that for alpha in (1/2, 1] the fillup level is k, the
    deepest the bound allows, and some pair stays together past level k."""
    k = n.bit_length() - 2
    for seed in range(10_000):
        counts = tabulate_profile(
            generate_keys(SourceParams(0.5, trial_seed(seed, 0)), n)).counts
        if len(counts) > k + 1 and counts[k] == 2**k:
            return seed
    raise AssertionError(f"no pairing seed for n = {n}")


def _recorded_reads(monkeypatch):
    """Every (rows, width) that KeySet.bit_block is asked for from now on."""
    reads = []
    block = KeySet.bit_block

    def recording(self, ids, start, width):
        reads.append((len(ids), width))
        return block(self, ids, start, width)

    monkeypatch.setattr(KeySet, "bit_block", recording)
    return reads


@pytest.mark.parametrize("p, n, alpha, seed", [
    (0.5, 4, 1.0, None), (0.5, 8, 1.0, None),      # fillup at the bound
    (0.5, 8, 0.75, None),
    (0.7, 1000, 0.1, 5), (0.7, 1000, 0.3, 6),      # n / alpha inexact
    (0.7, 4096, 0.01, 7),
    (0.03, 48, 0.5, 8), (0.97, 48, 0.25, 9),       # walks past bit 64
])
def test_groups_read_no_bits_past_the_fillup_bound(p, n, alpha, seed,
                                                   monkeypatch):
    tight = seed is None
    if tight:
        seed = _pairing_seed(n)
    keys = generate_keys(SourceParams(p, trial_seed(seed, 0)), n)
    probes = range(n) if n <= 64 else (0, 1, n // 2, n - 1)
    reads = _recorded_reads(monkeypatch)
    config = ExperimentConfig(params=ModelParams(p=p, alpha=alpha, n=n),
                              trials=1, seed=seed)
    level = simulate_fillup(config).rows[0][2]
    walks = [designated_depth(keys, alpha, i) for i in probes]
    monkeypatch.undo()
    # a group of m keys reads at most floor(log2(m / alpha)) bits of each
    assert reads and all(w <= int(m / alpha).bit_length() - 1 for m, w in reads)
    assert level == alpha_fillup_level(tabulate_profile(keys), alpha)
    if tight:
        assert level + 1 == int(n / alpha).bit_length() - 1
    alc = compress(keys, alpha)
    assert walks == [depth(alc, i) for i in probes]
    if p in (0.03, 0.97):
        assert max(w.consumed_total for w in walks) > 64


def test_root_reads_only_the_levels_that_decide_its_fillup(monkeypatch):
    # p = 0.7, alpha = 0.5, n = 65,536: the calibrated level is 13, so the
    # root reads 15 bits of each key, where the bound floor(log2(n / alpha))
    # is 17, and level 14 or 15 decides the fillup
    config = ExperimentConfig(params=ModelParams(p=0.7, alpha=0.5, n=2**16),
                              trials=1, seed=2101)
    reads = _recorded_reads(monkeypatch)
    level = simulate_fillup(config).rows[0][2]
    assert reads == [(2**16, 15)]
    monkeypatch.undo()
    keys = generate_keys(SourceParams(0.7, trial_seed(2101, 0)), 2**16)
    assert level == alpha_fillup_level(tabulate_profile(keys), 0.5)


def _shallow_first_read(p, alpha, m):
    return min(2, _fillup_bound(m, alpha))


@pytest.mark.parametrize("p, n, alpha", [
    (0.7, 4096, 0.5), (0.9, 1000, 0.25), (0.97, 48, 0.5),
    (0.7, 4096, 0.05),   # the root's bound does not fit the histogram
])
def test_undecided_first_read_falls_back_to_the_bound(p, n, alpha, monkeypatch):
    # a first read of at most 2 levels almost never holds a level below
    # alpha, so each group reads on down to its fillup bound
    keys = generate_keys(SourceParams(p, trial_seed(31, 0)), n)
    config = ExperimentConfig(params=ModelParams(p=p, alpha=alpha, n=n),
                              trials=1, seed=31)
    want = (simulate_fillup(config).rows, designated_depth(keys, alpha, 0))
    reads = _recorded_reads(monkeypatch)
    monkeypatch.setattr(trie, "_first_read", _shallow_first_read)
    got = (simulate_fillup(config).rows, designated_depth(keys, alpha, 0))
    monkeypatch.undo()
    assert got == want
    assert got[1] == depth(compress(keys, alpha), 0)
    # the root is read twice: two levels, then only the levels past them
    assert reads[:2] == [(n, 2), (n, _fillup_bound(n, alpha) - 2)]
    assert all(w <= _fillup_bound(m, alpha) for m, w in reads)


def _no_sort(*args, **kwargs):
    raise AssertionError("a random group whose bound fits one word was sorted")


def _sort_past_one_word(alpha):
    """_sorted_lcp, failing for a group of random keys whose fillup bound at
    alpha fits one 64-bit word: such a group is counted from its codes."""
    sort = trie._sorted_lcp

    def sorted_lcp(keys, ids=None, base=0):
        m = len(keys) if ids is None else len(ids)
        if _fillup_bound(m, alpha) <= 64:
            _no_sort()
        return sort(keys, ids, base)
    return sorted_lcp


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([0.03, 0.5, 0.7, 0.97]),
    m=st.integers(min_value=2, max_value=5000),
    # 0.01 and 0.1 read past 4 histogram bins per key at the bound, and sort
    # the codes; from 1/4 on every bound fits
    alpha=st.sampled_from([0.01, 0.1, 0.25, 0.5, 1.0]),
    base=st.sampled_from([0, 5, 64, 93]),
    seed=st.integers(min_value=0, max_value=2**32),
    shallow=st.booleans(),
    data=st.data(),
)
def test_histogram_counts_match_sorted_lcp(p, m, alpha, base, seed, shallow,
                                           data):
    keys = generate_keys(SourceParams(p, seed), m)
    ids = np.random.default_rng(seed).permutation(m)
    lcp = _sorted_lcp(keys, ids, base)[1]
    for width in (1, 2, _fillup_bound(m, alpha)):
        codes = trie._codes(keys, ids, base, width)
        want = _level_counts(lcp, width).tolist()
        assert trie._histogram_counts(codes, width).tolist() == want
        assert trie._code_counts(codes, width).tolist() == want
    # the walks count every group whose bound fits one word from its codes,
    # and read only the bits past a shallow first read, and give compress's
    # depths
    probes = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4,
                                unique=True))
    alc = compress(keys, alpha)
    with mock.patch.object(trie, "_first_read",
                           _shallow_first_read if shallow else trie._first_read), \
         mock.patch.object(trie, "_sorted_lcp", _no_sort):
        walks = [designated_depth(keys, alpha, i) for i in probes]
    assert walks == [depth(alc, i) for i in probes]


@pytest.mark.parametrize("p, n", [(0.5, 2), (0.7, 300), (0.97, 4096)])
def test_fill_fraction_counts_match_sorted_lcp(p, n):
    # every top within one word is counted from the keys' codes: by histogram
    # where 2**top <= 4n, else by sorting the codes; only tops past 64 bits
    # sort the keys
    keys = generate_keys(SourceParams(p, 17), n)
    lcp = _sorted_lcp(keys)[1]
    fits = (4 * n).bit_length() - 1
    for top in (0, 1, fits - 1, fits, fits + 1, 40, 64, 70):
        want = _level_counts(lcp, top).tolist()
        with mock.patch.object(trie, "_sorted_lcp",
                               _no_sort if top <= 64 else trie._sorted_lcp):
            assert trie._random_level_counts(keys, top).tolist() == want


def _ref_designated_depth(tuples, alpha, key_id):
    """(depth, consumed bits) of key key_id's path, each node's fillup level
    counted from the prefixes of its group's bit tuples."""
    group, base, steps = tuples, 0, 0
    while len(group) > 1:
        stop = base + ref_fillup_level([t[base:] for t in group], alpha) + 1
        group = [t for t in group if t[base:stop] == tuples[key_id][base:stop]]
        base, steps = stop, steps + 1
    return steps, base


@pytest.mark.parametrize("p, n, alpha", [
    (0.5, 48, 1e-20), (0.5, 48, 1e-25),     # root bounds 72 and 88
    (0.97, 24, 1e-20), (0.97, 24, 1e-25),   # root fillup levels 66 and 83
    (0.97, 48, 1e-18),   # root bound 65; its groups of 10 and 3 keys fit a word
])
def test_groups_whose_bound_passes_64_bits_match_the_profile(p, n, alpha):
    # a group whose bound passes one word is sorted whole by _sorted_lcp and
    # its counts clipped at the bound; the others are counted from codes
    config = ExperimentConfig(params=ModelParams(p=p, alpha=alpha, n=n),
                              trials=1, seed=0)
    keys, _, tuples = finite_from_random(p, trial_seed(0, 0), n, width=512)
    assert _fillup_bound(n, alpha) > 64
    level = alpha_fillup_level(tabulate_profile(keys), alpha)
    assert _capped_fillup(keys, None, 0, alpha)[0] == level
    assert simulate_fillup(config).rows == [(0, n, level)]
    with mock.patch.object(trie, "_sorted_lcp", _sort_past_one_word(alpha)):
        walks = [designated_depth(keys, alpha, i) for i in range(n)]
    assert [(w.depth, w.consumed_total) for w in walks] == \
        [_ref_designated_depth(tuples, alpha, i) for i in range(n)]
    if p == 0.5:   # the root's 2**(level + 1) slots fit in memory
        alc = compress(keys, alpha)
        assert alc.root.consumed == level + 1
        assert walks == [depth(alc, i) for i in range(n)]


def test_depth_raises_when_keys_do_not_match_the_trie():
    # a structure built over one key set, walked with another set's bits
    alc = compress(generate_keys(SourceParams(0.5, 1), 64), 0.5)
    other = dataclasses.replace(alc, keyset=generate_keys(SourceParams(0.5, 2), 64))
    with pytest.raises(RuntimeError, match=r"^key 5's bits lead to .* at level \d+"):
        depth(other, 5)


# -- compress and tabulate_profile against the oracles, per input class ------

def ref_slot_ends(node, base=0) -> dict:
    """{key id: the bit its slot in a RefNode tree ends at}."""
    if isinstance(node, RefNode):
        ends = {}
        for child in node.children:
            ends.update(ref_slot_ends(child, base + node.consumed))
        return ends
    return {} if node is None else {node: base}


def ref_first_fault(lines, alpha, depth_cap=DEFAULT_DEPTH_CAP):
    """The message of the first fault a depth-first build over the distinct,
    prefix-free 0/1 strings `lines` meets, or None: a node past depth_cap, a
    node wider than MAX_NODE_WIDTH levels, or a key too short to address its
    slot.  Fillup levels are counted from the strings' prefixes, and children
    are visited in slot order."""
    def fillup(group, base):
        level = 0
        for k in count(1):
            tally = Counter(s[base:base + k] for s in group if len(s) >= base + k)
            if sum(c >= 2 for c in tally.values()) * 2.0**-k < alpha:
                return level
            level = k

    def visit(ids, base):
        stop = base + fillup([lines[i] for i in ids], base) + 1
        if stop > depth_cap:
            return f"compression exceeded depth cap {depth_cap} at level {stop}"
        if stop - base > MAX_NODE_WIDTH:
            return (f"node at level {base} would consume {stop - base} levels: "
                    f"2**{stop - base} slots, more than 2**{MAX_NODE_WIDTH}")
        children = {}
        for i in ids:   # a short key's slot is its bits, zero padded
            slot = lines[i][base:stop].ljust(stop - base, "0")
            children.setdefault(slot, []).append(i)
        for slot in sorted(children):
            child = children[slot]
            if len(child) > 1:
                fault = visit(child, stop)
                if fault:
                    return fault
            elif len(lines[child[0]]) < stop:
                return (f"key {child[0]} is too short to address a slot "
                        f"spanning levels {base}..{stop - 1}")
        return None

    return visit(range(len(lines)), 0) if len(lines) > 1 else None


def key_lines(tuples, lengths, cidr):
    """Each key cut to its length, as a 0/1 line or as CIDR over its first
    32 bits."""
    lines = []
    for bits, length in zip(tuples, lengths):
        if cidr:
            a = int("".join(map(str, bits[:32])), 2)
            lines.append(f"{a >> 24}.{(a >> 16) & 255}.{(a >> 8) & 255}.{a & 255}"
                         f"/{length}")
        else:
            lines.append("".join(map(str, bits[:length])))
    return lines


def assert_profile(keys, oracle_keys):
    prof = tabulate_profile(keys)
    for k in range(len(prof) + 2):
        assert prof.count(k) == count_filled_oracle(oracle_keys, k)
    return prof


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    p=st.sampled_from([0.3, 0.5, 0.7]),
    alpha=st.sampled_from([0.25, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32),
    cidr=st.booleans(),
    long_enough=st.booleans(),
    data=st.data(),
)
def test_mixed_length_keys_match_oracles(n, p, alpha, seed, cidr, long_enough,
                                         data):
    # each key is a random key cut past its shortest unique prefix, so no key
    # is a prefix of another, and profile and structure are the random keys'
    ks, _, tuples = finite_from_random(p, seed, n)
    ref = ref_compress(list(enumerate(tuples)), alpha)
    ends = ref_slot_ends(ref)
    shortest = [max(1, d, ends[i] if long_enough else 0)
                for i, d in enumerate(ref_external_depths(tuples) if n else [])]
    assume(not cidr or max(shortest, default=0) <= 32)
    extra = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    lengths = [min(32, s + e) if cidr else s + e for s, e in zip(shortest, extra)]
    finite = KeySet.from_lines(key_lines(tuples, lengths, cidr))
    assert_profile(finite, ks)
    fault = ref_first_fault(key_lines(tuples, lengths, cidr=False), alpha)
    assert (fault is not None) == any(lengths[i] < ends[i] for i in range(n))
    if fault:
        with pytest.raises(IndistinguishableKeysError, match=f"^{re.escape(fault)}$"):
            compress(finite, alpha)
        return
    alc = compress(finite, alpha)
    assert same_structure(alc.root, ref)
    for i in range(n):
        assert designated_depth(finite, alpha, i) == depth(alc, i)


def test_skewed_sources_match_oracles_past_64_bits():
    deepest = []

    @settings(max_examples=12, deadline=None, database=None)
    @given(
        n=st.integers(min_value=2, max_value=24),
        p=st.sampled_from([0.03, 0.97]),
        alpha=st.sampled_from([0.25, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def check(n, p, alpha, seed):
        ks, finite, tuples = finite_from_random(p, seed, n, width=512)
        prof = assert_profile(ks, finite)
        # counts read down to the deepest shared level, past bit 64
        top = len(prof) - 1
        assert trie._random_level_counts(ks, top).tolist() == prof.counts.tolist()
        ref = ref_compress(list(enumerate(tuples)), alpha)
        assert same_structure(compress(ks, alpha).root, ref)
        deepest.append(len(prof) - 1)   # the largest LCP of two keys

    check()
    assert max(deepest) > 64


def test_empty_and_single_key_sets_match_oracles():
    for n in (0, 1):
        for ks in (generate_keys(SourceParams(0.97, 5), n),
                   KeySet.from_lines(["10.0.0.0/8"][:n])):
            assert len(assert_profile(ks, ks)) == 0
            for alpha in (0.25, 1.0):
                ref = ref_compress([(0, ())][:n], alpha)
                assert same_structure(compress(ks, alpha).root, ref)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_nested_prefixes_are_rejected_naming_both_keys(n, seed, data):
    _, _, tuples = finite_from_random(0.5, seed, n)
    lines = key_lines(tuples, [max(1, d) for d in ref_external_depths(tuples)],
                      cidr=False)
    victim = lines[data.draw(st.integers(0, n - 1))]
    if len(victim) > 1 and data.draw(st.booleans()):
        nested = victim[:data.draw(st.integers(1, len(victim) - 1))]
    else:
        nested = victim + "".join(data.draw(st.lists(st.sampled_from("01"),
                                                      min_size=1, max_size=8)))
    at = data.draw(st.integers(0, n))
    lines.insert(at, nested)
    with pytest.raises(NestedKeyError) as err:
        KeySet.from_lines(lines)
    b, shared, a = map(int, re.fullmatch(
        r"line (\d+): key extends the (\d+)-bit key on line (\d+)",
        str(err.value)).groups())
    assert isinstance(err.value, IndistinguishableKeysError)
    assert err.value.line_no == b and at + 1 in (a, b)
    # the first line in file order to extend another, and the shortest it extends
    extends = [[m for m in lines if m != line and line.startswith(m)] for line in lines]
    assert b == 1 + min(i for i, e in enumerate(extends) if e)
    assert lines[a - 1] == min(extends[b - 1], key=len) and len(lines[a - 1]) == shared


def test_deep_nested_pair_off_the_walk_is_rejected():
    # keys 2 and 3 nest 71 bits down, far past the 3 levels that decide the
    # fillup of 4 keys at alpha = 0.5, and off key 0's path; the loader
    # refuses them before any walk
    with pytest.raises(NestedKeyError, match=(
            r"^line 4: key extends the 71-bit key on line 3$")):
        KeySet.from_lines(["00", "01", "1" + "0" * 70, "1" + "0" * 70 + "1"])


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_designated_depth_past_bit_64(alpha):
    # compress reads slots past bit 64 from the keys, not from its codes
    ks = generate_keys(SourceParams(0.95, 77), 512)
    alc = compress(ks, alpha)
    deep = [i for i in range(512) if depth(alc, i).consumed_total > 64]
    assert deep
    for i in deep:
        assert designated_depth(ks, alpha, i) == depth(alc, i)


@pytest.mark.parametrize("lines, alpha, depth_cap, error, message", [
    # depth first, the chain under 0 passes the cap before key 2's slot at
    # the root is checked; one node depth at a time would meet key 2 first
    (["0" * 5000 + "0", "0" * 5000 + "1", "1"], 0.5, DEFAULT_DEPTH_CAP,
     DepthCapError, "compression exceeded depth cap 4096 at level 4098"),
    (["0" * 2500 + "0", "0" * 2500 + "1", "1"], 0.5, DEFAULT_DEPTH_CAP,
     IndistinguishableKeysError,
     "key 2 is too short to address a slot spanning levels 0..1"),
    # key 1 is short two nodes down under 0, key 0 one node down under 1
    (["1", "011", "0101", "01000"], 0.5, DEFAULT_DEPTH_CAP,
     IndistinguishableKeysError,
     "key 1 is too short to address a slot spanning levels 2..3"),
    # key 0 is short two nodes down, key 3 one node down, and the chain
    # under 1 passes the cap seven nodes down
    (["0011", "00101", "001000", "01", "1" + "0" * 20, "1" + "0" * 19 + "1"],
     0.5, 16, IndistinguishableKeysError,
     "key 0 is too short to address a slot spanning levels 3..4"),
    # the cap, eight nodes down under 0, comes before keys 1 and 0 fall short
    (["1", "011", "0101", "01000" + "0" * 20, "01000" + "0" * 19 + "1"],
     0.5, 16, DepthCapError, "compression exceeded depth cap 16 at level 18"),
    # a tiny alpha makes the root as wide as the keys' shared prefix: 40 and
    # 70 levels would be 2**40 and 2**70 slots
    (["0" * 41, "0" * 40 + "1"], 1e-12, DEFAULT_DEPTH_CAP, ValueError,
     "node at level 0 would consume 40 levels: 2**40 slots, more than 2**32"),
    (["0" * 71, "0" * 70 + "1"], 1e-21, DEFAULT_DEPTH_CAP, ValueError,
     "node at level 0 would consume 70 levels: 2**70 slots, more than 2**32"),
    # a node's width is checked before its children fall short (key 2 here),
    # and after its depth cap (the next case)
    (["0" * 41, "0" * 40 + "1", "1"], 1e-12, DEFAULT_DEPTH_CAP, ValueError,
     "node at level 0 would consume 40 levels: 2**40 slots, more than 2**32"),
    (["0" * 41, "0" * 40 + "1"], 1e-12, 16, DepthCapError,
     "compression exceeded depth cap 16 at level 40"),
])
def test_first_fault_depth_first_is_raised(lines, alpha, depth_cap, error,
                                           message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        compress(KeySet.from_lines(lines), alpha, depth_cap=depth_cap)
    if max(map(len, lines)) < 100:   # the reference recurses once per node
        assert ref_first_fault(lines, alpha, depth_cap) == message


# -- whole structures at scale, pinned by digest -----------------------------

# digests of the structures built by the earlier, node-at-a-time compress
SKEWED_DIGEST = "53ec89ce7310599a68cfbb90a3ecaaf583b4db8c710c25834759cd79bbed6d53"
CIDR_DIGEST = "5354f3fdbd00059c967c5dd6484bb0b3b0fa25d76dde06adb347e6040a8e0408"
# digests of the flat arrays for inputs whose slots are read far past bit 64:
# skewed sources whose keys share long prefixes, and a unary chain
DEEP_SKEWED_DIGESTS = {
    (0.97, 16_384): "aa0219cbe29ccc9fd9a1bf3189113124aaa81bede1ae6d258f7ed5a2af327d61",
    (0.99, 1_024): "f4f49bf7c2565b91aaa70be360f107e4288acd902bf140d0e7012da547334eb0",
}
CHAIN_DIGEST = "b402359a73a86b50afd795700bb0b97c2e9256bd6b2585df81b6662775946b85"


def preorder_digest(root) -> str:
    """SHA-256 of the structure in preorder: a node as "(consumed", its
    children and ")", a key as its id, an empty slot as "-"."""
    tokens, stack = [], [root]
    while stack:
        cur = stack.pop()
        if isinstance(cur, AlcNode):
            tokens.append(f"({cur.consumed}")
            stack.append(")")
            stack.extend(reversed(cur.children))
        else:
            tokens.append("-" if cur is None else str(cur))
    return hashlib.sha256(" ".join(tokens).encode()).hexdigest()


def arrays_digest(alc) -> str:
    """SHA-256 of the trie's flat arrays as little-endian int64, each after
    its name and length."""
    h = hashlib.sha256()
    for name in ("order", "consumed", "first", "lo", "hi", "slots"):
        a = np.ascontiguousarray(getattr(alc, name), dtype="<i8")
        h.update(f"{name} {len(a)}:".encode() + a.tobytes())
    return h.hexdigest()


def cidr_table(seed: int, n: int) -> KeySet:
    values = random.Random(seed).sample(range(1 << 24), n)
    return KeySet.from_lines(f"{v >> 16}.{(v >> 8) & 255}.{v & 255}.0/24"
                             for v in values)


def test_structures_at_scale_match_pinned_digests():
    skewed = generate_keys(SourceParams(0.9, 2024), 16_384)
    assert len(tabulate_profile(skewed)) > 65   # keys share more than 64 bits
    alc = compress(skewed, 0.5)
    assert preorder_digest(alc.root) == SKEWED_DIGEST
    assert structure_stats(alc) == StructureStats(
        node_count=21_631, empty_slot_fraction=0.5996503496503497,
        consumed_histogram={1: 2108, 2: 17588, 3: 1538, 4: 345, 5: 38, 6: 11,
                            7: 1, 8: 2},
        max_depth=31)
    alc = compress(cidr_table(7, 20_000), 0.5)
    assert preorder_digest(alc.root) == CIDR_DIGEST
    assert structure_stats(alc) == StructureStats(
        node_count=8_906, empty_slot_fraction=0.3687210622870621,
        consumed_histogram={1: 3368, 2: 5407, 3: 130, 14: 1}, max_depth=6)


@pytest.mark.parametrize("p, n", sorted(DEEP_SKEWED_DIGESTS))
def test_deep_skewed_structures_match_pinned_arrays(p, n):
    alc = compress(generate_keys(SourceParams(p, 2024), n), 0.5)
    assert arrays_digest(alc) == DEEP_SKEWED_DIGESTS[p, n]


def test_unary_chain_matches_pinned_arrays():
    # two keys sharing 2,500 bits: 1,250 two-level nodes down the run, and
    # one one-level node where the keys part
    alc = compress(KeySet.from_lines(["0" * 2500 + "0", "0" * 2500 + "1"]), 0.5)
    assert alc.height == 1251
    assert alc.consumed.tolist() == [2] * 1250 + [1]
    assert arrays_digest(alc) == CHAIN_DIGEST
