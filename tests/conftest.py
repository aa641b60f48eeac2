"""Shared test helpers: brute-force oracles kept deliberately independent of
the library's own code paths, plus the acceptance summary hook."""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from alctrie.analysis import ModelParams, prob_poisson_ge2
from alctrie.source import KeySet, SourceParams, generate_keys

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def finite_from_random(p: float, seed: int, n: int, width: int = 128):
    """Materialize a random key set into an equivalent finite one, returning
    (random keyset, finite keyset, list of bit tuples)."""
    ks = generate_keys(SourceParams(p, seed), n)
    mat = ks.bit_matrix(width)
    lines = ["".join(str(int(b)) for b in row) for row in mat]
    if len(set(lines)) != n:
        pytest.skip("random keys collided within the materialized width")
    finite = KeySet.from_lines(lines)
    tuples = [tuple(int(b) for b in row) for row in mat]
    return ks, finite, tuples


def lcp(a: tuple, b: tuple) -> int:
    i = 0
    m = min(len(a), len(b))
    while i < m and a[i] == b[i]:
        i += 1
    return i


def ref_external_depths(tuples: list[tuple]) -> list[int]:
    """Shortest-unique-prefix length of each key, by pairwise scan."""
    n = len(tuples)
    if n == 1:
        return [0]
    out = []
    for i in range(n):
        best = max(lcp(tuples[i], tuples[j]) for j in range(n) if j != i)
        out.append(best + 1)
    return out


def ref_key0_external_depth(keys: KeySet) -> int:
    """Depth of key 0's external node, by following its bits one level at a
    time until no other key shares them."""
    ids = np.arange(len(keys), dtype=np.int64)
    level = 0
    while len(ids) > 1:
        bits = keys.bit_block(ids, level, 1)[:, 0]
        ids = ids[bits == keys[0].bit(level)]
        level += 1
    return level


def ref_lpm(keys: KeySet, query: tuple):
    """Linear-scan longest-prefix-match oracle: (best id, match length)."""
    best_id, best_len = None, -1
    for i in range(len(keys)):
        length = keys.key_length(i)
        stop = len(query) if length is None else min(len(query), length)
        ell = 0
        key = keys[i]
        while ell < stop and key.bit(ell) == query[ell]:
            ell += 1
        if ell > best_len:
            best_id, best_len = i, ell
    return best_id, best_len


def ref_fillup_level(suffixes: list[tuple], alpha: float) -> int:
    """Alpha-fillup level of the trie over the given bit tuples, by direct
    per-level prefix counting."""
    level = 0
    k = 1
    while True:
        assert all(len(t) >= k for t in suffixes), "oracle ran out of bits"
        tally = Counter(t[:k] for t in suffixes)
        x = sum(1 for v in tally.values() if v >= 2)
        if x * 2.0**-k < alpha:
            return level
        level = k
        k += 1


@lru_cache(maxsize=None)
def _ref_log_binom(n: int, i: int) -> float:
    """log C(n, i) from three lgamma calls, kept across calls only to make
    the grids that read it cheaper."""
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


def ref_prob_binomial_ge2(n: int, q: float) -> float:
    """P(Binomial(n, q) >= 2), one cell at a time: the short series term by
    term where n q < 1e-3, the direct form elsewhere."""
    if n < 2 or q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    log1mq = math.log1p(-q)
    if n * q < 1e-3:
        logq = math.log(q)
        terms = []
        for i in range(2, min(n, 8) + 1):
            terms.append(math.exp(_ref_log_binom(n, i) + i * logq + (n - i) * log1mq))
        return math.fsum(terms)
    none_hit = math.exp(n * log1mq)
    one_hit = math.exp(math.log(n) + math.log(q) + (n - 1) * log1mq)
    return 1.0 - none_hit - one_hit


def ref_expected_fill_fraction(params: ModelParams, k: int) -> float:
    """Expected fill fraction at level k, term by term: each weight C(k,j)
    2^-k from its own three lgamma calls, each cell's tail probability from
    its own call.  The library must give the same float."""
    logp = math.log(params.p)
    logq = math.log(params.q)
    lgk = math.lgamma(k + 1)
    terms = []
    for j in range(k + 1):
        logw = lgk - math.lgamma(j + 1) - math.lgamma(k - j + 1) - k * math.log(2.0)
        if params.is_poisson:
            mu = math.exp(math.log(params.lam) + j * logp + (k - j) * logq)
            terms.append(math.exp(logw) * prob_poisson_ge2(mu))
        else:
            cell = math.exp(j * logp + (k - j) * logq)
            terms.append(math.exp(logw) * ref_prob_binomial_ge2(params.n, cell))
    return math.fsum(terms)


class RefNode:
    def __init__(self, consumed, children):
        self.consumed = consumed
        self.children = children


def ref_compress(items: list[tuple[int, tuple]], alpha: float, base: int = 0):
    """Reference recursive level compression over (id, bits) pairs."""
    if not items:
        return None
    if len(items) == 1:
        return items[0][0]
    fillup = ref_fillup_level([bits[base:] for _, bits in items], alpha)
    consumed = fillup + 1
    children = [None] * (1 << consumed)
    groups: dict[int, list] = {}
    for kid, bits in items:
        slot = 0
        for b in bits[base : base + consumed]:
            slot = (slot << 1) | b
        groups.setdefault(slot, []).append((kid, bits))
    for slot, sub in groups.items():
        children[slot] = ref_compress(sub, alpha, base + consumed)
    return RefNode(consumed, children)


def same_structure(lib_node, ref_node) -> bool:
    """Structural equality between an AlcTrie subtree and a RefNode tree."""
    from alctrie.lctrie import AlcNode

    if lib_node is None or ref_node is None:
        return lib_node is None and ref_node is None
    if isinstance(lib_node, int) or isinstance(ref_node, int):
        return lib_node == ref_node
    if not isinstance(lib_node, AlcNode) or not isinstance(ref_node, RefNode):
        return False
    if lib_node.consumed != ref_node.consumed:
        return False
    if len(lib_node.children) != len(ref_node.children):
        return False
    return all(same_structure(a, b)
               for a, b in zip(lib_node.children, ref_node.children))


def random_queries(rng: np.random.Generator, count: int, max_len: int = 40):
    out = []
    for _ in range(count):
        length = int(rng.integers(0, max_len + 1))
        out.append(tuple(int(b) for b in rng.integers(0, 2, size=length)))
    return out
