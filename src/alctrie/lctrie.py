"""Partial-fillup level compression built level by level, search depth, and
longest prefix matching.

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
    _fillup_bound,
    _level_counts,
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
    """Level-compress the trie over `keys`, one node depth at a time.

    Each group of two or more keys contributes a compressed node consuming
    F+1 levels, F being the group's own alpha-fillup level; its slots are the
    (F+1)-bit extensions.  Finite keys must carry enough bits to address the
    slot of every compressed node on their path, otherwise the construction
    raises (keys are never padded).  Of several such faults and nodes past
    depth_cap, the one a depth-first build meets first is raised.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    n = len(keys)
    if n < 2:
        return AlcTrie(keyset=keys, alpha=alpha, root=0 if n else None)
    order, lcp, codes = _sorted_lcp(keys)
    lcp = np.append(lcp, -1)
    lengths = None if keys.is_random else keys._lengths[order]
    need = alpha * np.exp2(np.arange(_fillup_bound(n, alpha) + 1))  # alpha * 2**k
    # a wave is the groups at one node depth, runs of the order positions
    # `pos`; group g has size[g] keys sharing base[g] bits and fills spots[g]
    root = [None]
    pos, size, base = np.arange(n), np.array([n]), np.zeros(1, np.int64)
    spots, error = [(root, 0)], None
    while len(size):
        rows = np.arange(len(size)).repeat(size)
        # a group's last key shares under `base` bits with the next: -1 ends it
        rel = np.maximum(lcp[pos] - base[rows], -1)
        # a group's first level under alpha is within its own fillup bound,
        # so counting every group to the largest group's bound is exact
        top = _fillup_bound(int(np.maximum.reduce(size)), alpha)
        consumed = (_level_counts(rel, top, rows) >= need[:top + 1]).argmin(axis=1)
        stop = base + consumed
        nodes = [[None] * (1 << c) for c in consumed.tolist()]
        for (holder, spot), c, children in zip(spots, consumed.tolist(), nodes):
            holder[spot] = AlcNode(consumed=c, children=children)
        # each child is a run of a group's keys sharing `stop` bits
        ends = (rel < consumed[rows]).nonzero()[0] + 1
        starts = np.concatenate(([0], ends[:-1]))
        size, parent, at = ends - starts, rows[starts], pos[starts]
        # depth first, a node's cap check precedes its children's and a child's
        # too-short check its own node's: the first fault is at the first child
        # short or with a capped parent; later waves keep the groups before it
        capped = stop[parent] > depth_cap
        bad = capped if lengths is None else capped | (lengths[at] < stop[parent])
        del rows, rel, ends, starts   # lowers the heap's high-water mark
        if bad.any():
            c = bad.argmax()
            g = parent[c]
            error = (DepthCapError(f"compression exceeded depth cap {depth_cap} "
                                   f"at level {stop[g]}") if capped[c] else
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
            slot[i] = _word(keys, order[at[i]], b, int(width[i].max()))
        slot >>= (64 - width).astype(np.uint64)
        leaf = size == 1
        for p, s, kid in zip(parent[leaf].tolist(), slot[leaf].tolist(),
                             order[at[leaf]].tolist()):
            nodes[p][s] = kid
        group = ~leaf
        pos = pos[:size.sum()][group.repeat(size)]
        size, parent, base = size[group], parent[group], base[group] + width[group]
        spots = list(zip([nodes[p] for p in parent.tolist()], slot[group].tolist()))
    if error is not None:
        raise error
    return AlcTrie(keyset=keys, alpha=alpha, root=root[0])


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
