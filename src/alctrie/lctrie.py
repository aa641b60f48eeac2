"""Partial-fillup level compression built level by level, search depth, and
longest prefix matching.

Compression replaces the top of each subtrie, down to one level past its
alpha-fillup level, by a single multi-way node whose children are indexed by
the consumed bits.  With alpha = 1 this reduces to classic level compression
over full subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .source import KeySet
from .trie import (
    DEFAULT_DEPTH_CAP,
    DepthCapError,
    IndistinguishableKeysError,
    _capped_fillup,
    _fillup_bound,
    _level_counts,
    _sorted_lcp,
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

# the widest node compress builds: 2**32 slots, 32 GiB of int64
MAX_NODE_WIDTH = 32


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


@dataclass(eq=False)
class AlcTrie:
    """A compressed trie over `keyset` as flat arrays, nodes numbered one node
    depth after another from the root, node 0.

    Node v consumes consumed[v] levels and owns the 2**consumed[v] slots of
    `slots` from first[v] on; a slot holds a key id, -1 when empty, or ~u for
    child node u (the root is no child, so ~u <= -2).  Node v's keys are
    order[lo[v]:hi[v]], `order` being the keys in sorted order, and `height`
    is the number of node depths.  A set of fewer than two keys has no node.
    """

    keyset: KeySet
    alpha: float
    order: np.ndarray
    consumed: np.ndarray
    first: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    slots: np.ndarray
    height: int

    @property
    def n(self) -> int:
        return len(self.keyset)

    @property
    def root(self) -> "AlcNode | int | None":
        """The trie as AlcNode objects, built afresh on each read: the root
        node, the lone key's id, or None for an empty set."""
        if not self.height:
            return 0 if self.n else None
        nodes = [None] * len(self.consumed)
        for v in reversed(range(len(nodes))):   # a child follows its parent
            c = self.consumed.item(v)
            cells = self.slots[self.first[v]:self.first[v] + (1 << c)].tolist()
            nodes[v] = AlcNode(c, [None if s == -1 else s if s >= 0 else nodes[~s]
                                   for s in cells])
        return nodes[0]


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
    """Level-compress the trie over `keys`, one node depth at a time.

    Each group of two or more keys contributes a compressed node consuming
    F+1 levels, F being the group's own alpha-fillup level; its slots are the
    (F+1)-bit extensions.  Finite keys must carry enough bits to address the
    slot of every compressed node on their path, otherwise the construction
    raises (keys are never padded).  Of several such faults, nodes past
    depth_cap and nodes over MAX_NODE_WIDTH levels wide, the one a
    depth-first build meets first is raised.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    n = len(keys)
    if n < 2:
        return AlcTrie(keys, alpha, np.arange(n), *[np.zeros(0, np.int64)] * 5, 0)
    order, lcp, codes = _sorted_lcp(keys)
    lcp = np.append(lcp, -1)
    lengths = None if keys.is_random else keys._lengths[order]
    need = alpha * np.exp2(np.arange(_fillup_bound(n, alpha) + 1))  # alpha * 2**k
    # a wave is the nodes at one depth, numbered from `count` on: node g is a
    # run of size[g] order positions in `pos`, keys sharing base[g] bits
    pos, size, base = np.arange(n), np.array([n]), np.zeros(1, np.int64)
    waves, count, error = [], 0, None
    while len(size):
        rows = np.arange(len(size)).repeat(size)
        # a group's last key shares under `base` bits with the next: -1 ends it
        rel = np.maximum(lcp[pos] - base[rows], -1)
        # a group's first level under alpha is within its own fillup bound,
        # so counting every group to the largest group's bound is exact
        top = _fillup_bound(int(np.maximum.reduce(size)), alpha)
        consumed = (_level_counts(rel, top, rows) >= need[:top + 1]).argmin(axis=1)
        stop = base + consumed
        lo = pos[np.cumsum(size) - size]
        hi = lo + size
        # each child is a run of a group's keys sharing `stop` bits
        ends = (rel < consumed[rows]).nonzero()[0] + 1
        starts = np.concatenate(([0], ends[:-1]))
        size, parent, at = ends - starts, rows[starts], pos[starts]
        # depth first, a node's cap and width checks precede its children's and
        # a child's too-short check its own node's: the first fault is at the first
        # child short or with a faulty parent; later waves keep the groups before it
        capped, wide = stop[parent] > depth_cap, consumed[parent] > MAX_NODE_WIDTH
        short = False if lengths is None else lengths[at] < stop[parent]
        bad = capped | wide | short
        del rows, rel, ends, starts   # lowers the heap's high-water mark
        if bad.any():
            c = bad.argmax()
            g = parent[c]
            error = (DepthCapError(f"compression exceeded depth cap {depth_cap} "
                                   f"at level {stop[g]}") if capped[c] else
                     ValueError(f"node at level {base[g]} would consume "
                                f"{consumed[g]} levels: 2**{consumed[g]} slots, "
                                f"more than 2**{MAX_NODE_WIDTH}") if wide[c] else
                     IndistinguishableKeysError(
                         f"key {order[at[c]]} is too short to address a slot "
                         f"spanning levels {base[g]}..{stop[g] - 1}"))
            size, parent, at = size[:c], parent[:c], at[:c]
        # slot: bits base .. stop-1 of the child's first key, one read per base past 64
        width, base = consumed[parent], base[parent]
        slot = codes[at] << base.astype(np.uint64)
        deep = (base + width > 64).nonzero()[0]
        for b in set(base[deep].tolist()):
            i = deep[base[deep] == b]
            slot[i] = keys.word(order[at[i]], b, int(width[i].max()))
        slot >>= (64 - width).astype(np.uint64)
        group = size > 1
        count += len(consumed)
        if error is None:   # a faulty trie, and a node too wide, get no slots
            span = 1 << consumed
            cells = np.full(int(span.sum()), -1, np.int64)
            cells[(np.cumsum(span) - span)[parent] + slot.astype(np.int64)] = \
                np.where(group, ~(count + np.cumsum(group) - 1), order[at])
            waves.append((consumed, lo, hi, cells))
        pos = pos[:size.sum()][group.repeat(size)]
        size, base = size[group], base[group] + width[group]
    if error is not None:
        raise error
    consumed, lo, hi, slots = map(np.concatenate, zip(*waves))
    span = 1 << consumed
    return AlcTrie(keys, alpha, order, consumed, np.cumsum(span) - span, lo, hi,
                   slots, len(waves))


def depth(alc: AlcTrie, key_id: int) -> DepthSample:
    """Number of compressed nodes on the path to key_id's external slot."""
    if not (0 <= key_id < alc.n):
        raise KeyError(f"unknown key id {key_id}")
    level = 0
    steps = 0
    ids = np.array([key_id], dtype=np.int64)
    node = 0 if alc.height else None
    cell = 0   # a one-key set's root is its key
    while node is not None:
        consumed = alc.consumed.item(node)
        slot = int(alc.keyset.word(ids, level, consumed)[0]) >> (64 - consumed)
        cell = alc.slots.item(alc.first.item(node) + slot)
        node = ~cell if cell < -1 else None
        level += consumed
        steps += 1
    if cell != key_id:
        raise RuntimeError(
            f"key {key_id}'s bits lead to {None if cell == -1 else cell!r} at "
            f"level {level}, not to its own slot; the trie does not belong to "
            f"this key set"
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
        fillup, child = _capped_fillup(keys, ids, level, alpha)
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
        ids = child(key_id)
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


def longest_prefix_match(alc: AlcTrie, query) -> int | None:
    """Id of the stored key sharing the longest prefix with the query.

    Ties break toward the smallest key id; None only for an empty key set.
    The match length is capped by each key's available bits, so short stored
    keys compare by their full length.
    """
    bits = _query_bits(query)
    if not alc.height:
        return 0 if alc.n else None
    node = pos = 0
    while True:
        end = pos + alc.consumed.item(node)
        slot = 0
        for b in bits[pos:end]:
            slot = (slot << 1) | b
        # a query that ends inside the node, or whose stride leads to an
        # empty slot, diverges from every key below within this node
        cell = alc.slots.item(alc.first.item(node) + slot) if end <= len(bits) else -1
        if cell == -1:
            # all of its keys agree up to pos: the longest match, then smallest id
            kids = alc.order[alc.lo[node]:alc.hi[node]].tolist()
            return min(kids, key=lambda k: (-_agreement(alc.keyset, k, bits, pos), k))
        if cell >= 0:
            # external slot reached: this key agrees on every consumed bit, so
            # it strictly beats all keys that fell off the path earlier
            return cell
        node, pos = ~cell, end


def match_length(alc: AlcTrie, query, key_id: int) -> int:
    """Common prefix length between the query and a stored key."""
    return _agreement(alc.keyset, key_id, _query_bits(query), 0)


def structure_stats(alc: AlcTrie) -> StructureStats:
    """Node count, slot occupancy, consumed-value histogram, and maximum
    compressed depth of the trie."""
    widths, counts = np.unique(alc.consumed, return_counts=True)
    empty = int(np.count_nonzero(alc.slots == -1))
    return StructureStats(
        node_count=len(alc.consumed),
        empty_slot_fraction=empty / len(alc.slots) if len(alc.slots) else 0.0,
        consumed_histogram=dict(zip(widths.tolist(), counts.tolist())),
        max_depth=alc.height,
    )
