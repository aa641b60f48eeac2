"""Recursive partial-fillup level compression, search depth, and longest
prefix matching.

Compression replaces the top of each subtrie, down to one level past its
alpha-fillup level, by a single multi-way node whose children are indexed by
the consumed bits.  With alpha = 1 this reduces to classic level compression
over full subtrees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .source import KeySet
from .trie import (
    DEFAULT_DEPTH_CAP,
    DepthCapError,
    IndistinguishableKeysError,
    _capped_fillup,
    _fillup,
    _fillup_bound,
    _lcp_counts,
    _sorted_lcp,
    _word,
)

__all__ = [
    "AlcNode",
    "AlcTrie",
    "DepthSample",
    "StructureStats",
    "compress",
    "depth",
    "designated_depth",
    "longest_prefix_match",
    "structure_stats",
]


class AlcNode:
    """A compressed node: `consumed` underlying trie levels collapsed into one
    dispatch on 2**consumed child slots.  Slots hold None (no key), an int
    (external: that key id), or a nested AlcNode."""

    __slots__ = ("consumed", "children")

    def __init__(self, consumed: int, children: list):
        self.consumed = consumed
        self.children = children

    def __repr__(self):
        filled = sum(1 for c in self.children if c is not None)
        return f"AlcNode(consumed={self.consumed}, filled_slots={filled})"


@dataclass
class AlcTrie:
    keyset: KeySet
    alpha: float
    root: "AlcNode | int | None"

    @property
    def n(self) -> int:
        return len(self.keyset)


@dataclass(frozen=True)
class DepthSample:
    """Search cost of one key: compressed nodes on its path, and how many
    underlying trie levels those nodes consumed in total."""

    key_id: int
    depth: int
    consumed_total: int


@dataclass(frozen=True)
class StructureStats:
    node_count: int
    empty_slot_fraction: float
    consumed_histogram: dict[int, int]
    max_depth: int


def compress(keys: KeySet, alpha: float,
             depth_cap: int = DEFAULT_DEPTH_CAP) -> AlcTrie:
    """Recursively level-compress the trie over `keys`.

    Each group of two or more keys contributes a compressed node consuming
    F+1 levels, F being the group's own alpha-fillup level; its slots are the
    (F+1)-bit extensions.  Finite keys must carry enough bits to address the
    slot of every compressed node on their path, otherwise the construction
    raises (keys are never padded).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    n = len(keys)
    if n < 2:
        return AlcTrie(keyset=keys, alpha=alpha, root=0 if n else None)
    order, lcp, codes = _sorted_lcp(keys)
    # Python lists: each node reads a few entries, where numpy indexing costs most
    ids, lcps, words = order.tolist(), lcp.tolist(), codes.tolist()
    lengths = [None] * n if keys.is_random else keys._lengths[order].tolist()

    def node(start: int, end: int, base: int):
        """Build the node over sorted keys start .. end-1, which share `base`
        bits; every group is such a range of trie._sorted_lcp's order.  Yields
        the (start, end, base) of each nested child, is sent that child back,
        and yields the finished node last."""
        inner = lcps[start:end - 1]
        top = _fillup_bound(end - start, alpha)
        consumed = _fillup(_lcp_counts(inner, base, top), alpha) + 1
        stop = base + consumed
        if stop > depth_cap:
            raise DepthCapError(
                f"compression exceeded depth cap {depth_cap} at level {stop}"
            )
        # each child is a run of keys sharing `stop` bits, slotted by its first
        cuts = [start, *(i for i, v in enumerate(inner, start + 1) if v < stop), end]
        children: list = [None] * (1 << consumed)
        for a, b in zip(cuts, cuts[1:]):
            if lengths[a] is not None and lengths[a] < stop:
                raise IndistinguishableKeysError(
                    f"key {ids[a]} is too short to address a slot spanning "
                    f"levels {base}..{stop - 1}")
            if stop <= 64:
                slot = (words[a] >> (64 - stop)) & ((1 << consumed) - 1)
            else:  # past the first word: read the slot's bits
                slot = int(_word(keys, order[a:a + 1], base, consumed)[0]
                           ) >> (64 - consumed)
            children[slot] = ids[a] if b - a == 1 else (yield a, b, stop)
        yield AlcNode(consumed=consumed, children=children)

    # one suspended node() per level of the path being built, in place of a
    # recursion: a long shared prefix nests one node per few bits, past
    # Python's recursion limit well before the depth cap
    path = [node(0, n, 0)]
    done = None
    while path:
        step = path[-1].send(done)
        if isinstance(step, AlcNode):
            path.pop()
            done = step
        else:
            path.append(node(*step))
            done = None
    return AlcTrie(keyset=keys, alpha=alpha, root=done)


def depth(alc: AlcTrie, key_id: int) -> DepthSample:
    """Number of compressed nodes on the path to key_id's external slot."""
    if not (0 <= key_id < alc.n):
        raise KeyError(f"unknown key id {key_id}")
    node = alc.root
    level = 0
    steps = 0
    ids = np.array([key_id], dtype=np.int64)
    while isinstance(node, AlcNode):
        slot = int(_word(alc.keyset, ids, level, node.consumed)[0]
                   ) >> (64 - node.consumed)
        level += node.consumed
        steps += 1
        node = node.children[slot]
    if node != key_id:
        raise RuntimeError(
            f"key {key_id}'s bits lead to {node!r} at level {level}, not to its "
            f"own slot; the trie does not belong to this key set"
        )
    return DepthSample(key_id=key_id, depth=steps, consumed_total=level)


def designated_depth(keys: KeySet, alpha: float, key_id: int = 0,
                     depth_cap: int = DEFAULT_DEPTH_CAP) -> DepthSample:
    """Depth of one designated key, following only its own path.

    Equivalent to depth(compress(keys, alpha), key_id) but skips building the
    branches the designated key never visits, which makes large simulations
    affordable.
    """
    n = len(keys)
    if not (0 <= key_id < n):
        raise KeyError(f"unknown key id {key_id}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    ids = np.arange(n, dtype=np.int64)
    level = 0
    steps = 0
    while len(ids) > 1:
        fillup, order, lcp = _capped_fillup(keys, ids, level, alpha)
        consumed = fillup + 1
        stop = level + consumed
        if stop > depth_cap:
            raise DepthCapError(
                f"depth walk exceeded depth cap {depth_cap} at level {stop}")
        if not keys.is_random:
            short = ids[keys._lengths[ids] < stop]
            if len(short):
                raise IndistinguishableKeysError(
                    f"key {short.min()} is too short to address a slot "
                    f"spanning levels {level}..{stop - 1}")
        # the key's child group is its run of the order sharing `consumed` bits
        run = np.cumsum(np.concatenate(([0], lcp < consumed)))
        ids = order[run == run[np.flatnonzero(order == key_id)[0]]]
        level = stop
        steps += 1
    return DepthSample(key_id=key_id, depth=steps, consumed_total=level)


def _query_bits(query) -> tuple[int, ...]:
    if isinstance(query, str):
        if not all(c in "01" for c in query):
            raise ValueError(f"query must be a 0/1 string, got {query!r}")
        return tuple(int(c) for c in query)
    bits = tuple(int(b) for b in query)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("query bits must be 0 or 1")
    return bits


def _agreement(keys: KeySet, key_id: int, query: tuple[int, ...], pos: int) -> int:
    """Length of the common prefix of key and query, scanning from pos.

    Assumes they already agree on the first pos bits.  Capped by the query
    length and, for finite keys, the key length.
    """
    length = keys.key_length(key_id)
    stop = len(query) if length is None else min(len(query), length)
    key = keys[key_id]
    i = pos
    while i < stop and key.bit(i) == query[i]:
        i += 1
    return i


def _subtree_leaves(node):
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, AlcNode):
            stack.extend(c for c in cur.children if c is not None)
        else:
            yield cur


def _best_in_subtree(keys, node, query, pos):
    """Best (longest common prefix, smallest id) among the subtree's keys,
    all of which agree with the query on the first pos bits."""
    best_len = -1
    best_id = None
    for kid in _subtree_leaves(node):
        ell = _agreement(keys, kid, query, pos)
        if ell > best_len or (ell == best_len and kid < best_id):
            best_len, best_id = ell, kid
    return best_id


def longest_prefix_match(alc: AlcTrie, query) -> int | None:
    """Id of the stored key sharing the longest prefix with the query.

    Ties break toward the smallest key id; None only for an empty key set.
    The match length is capped by each key's available bits, so short stored
    keys compare by their full length.
    """
    bits = _query_bits(query)
    node = alc.root
    if node is None:
        return None
    keys = alc.keyset
    pos = 0
    while isinstance(node, AlcNode):
        consumed = node.consumed
        if len(bits) - pos < consumed:
            # query ends inside this node: all keys below agree up to pos
            return _best_in_subtree(keys, node, bits, pos)
        slot = 0
        for b in bits[pos : pos + consumed]:
            slot = (slot << 1) | b
        child = node.children[slot]
        if child is None:
            # no key follows the query through this stride; the best match
            # diverges somewhere within it
            return _best_in_subtree(keys, node, bits, pos)
        node = child
        pos += consumed
    # external slot reached: this key agrees on every consumed bit, so it
    # strictly beats all keys that fell off the path earlier
    return node


def match_length(alc: AlcTrie, query, key_id: int) -> int:
    """Common prefix length between the query and a stored key."""
    return _agreement(alc.keyset, key_id, _query_bits(query), 0)


def structure_stats(alc: AlcTrie) -> StructureStats:
    """Node count, slot occupancy, consumed-value histogram, and maximum
    compressed depth of the trie."""
    hist: Counter[int] = Counter()
    node_count = 0
    total_slots = 0
    empty_slots = 0
    max_depth = 0
    stack: list[tuple[object, int]] = []
    if isinstance(alc.root, AlcNode):
        stack.append((alc.root, 1))
    while stack:
        node, d = stack.pop()
        node_count += 1
        hist[node.consumed] += 1
        max_depth = max(max_depth, d)
        total_slots += len(node.children)
        for child in node.children:
            if child is None:
                empty_slots += 1
            elif isinstance(child, AlcNode):
                stack.append((child, d + 1))
    fraction = empty_slots / total_slots if total_slots else 0.0
    return StructureStats(
        node_count=node_count,
        empty_slot_fraction=fraction,
        consumed_histogram=dict(sorted(hist.items())),
        max_depth=max_depth,
    )
