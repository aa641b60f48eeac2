"""Binary tries over key sets, and their per-level occupancy profiles.

A node at level k stands for a k-bit prefix.  A prefix shared by two or more
keys is a filled (internal) node; a key sits in an external node at the depth
of its shortest prefix not shared with any other key.

Profiles and compressed tries come from the keys in sorted order plus the
longest common prefix (LCP) of each adjacent pair (`_sorted_lcp`): a profile
is a difference array over the LCPs, and every subtrie is a contiguous range
of the order.  `build` makes the explicit trie instead, unary internal nodes
included, as a second route to the same profiles and external depths.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .source import MAX_BIT_INDEX, KeySet, KeyExhaustedError

__all__ = [
    "Trie",
    "TrieNode",
    "LevelProfile",
    "IndistinguishableKeysError",
    "DepthCapError",
    "UndefinedFillupError",
    "build",
    "level_profile",
    "count_filled_oracle",
    "tabulate_profile",
    "alpha_fillup_level",
    "external_depth",
]

DEFAULT_DEPTH_CAP = 4096


class IndistinguishableKeysError(ValueError):
    """Two or more keys ran out of bits while still sharing a prefix."""


class DepthCapError(RuntimeError):
    """Construction exceeded the configured maximum depth."""


class UndefinedFillupError(ValueError):
    """The fillup level is undefined (fewer than two keys)."""


class TrieNode:
    """One trie node.  kind is derived: a node holding a key id is external,
    a node with children is internal, a childless keyless node is empty
    (only the root of an empty trie)."""

    __slots__ = ("level", "key_id", "zero", "one")

    def __init__(self, level: int, key_id: int | None = None):
        self.level = level
        self.key_id = key_id
        self.zero: "TrieNode | None" = None
        self.one: "TrieNode | None" = None

    @property
    def kind(self) -> str:
        if self.key_id is not None:
            return "external"
        if self.zero is not None or self.one is not None:
            return "internal"
        return "empty"

    def children(self):
        if self.zero is not None:
            yield self.zero
        if self.one is not None:
            yield self.one

    def __repr__(self):
        return f"TrieNode(level={self.level}, kind={self.kind})"


@dataclass
class Trie:
    root: TrieNode
    keyset: KeySet
    height: int
    external_levels: dict[int, int] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.keyset)


@dataclass
class LevelProfile:
    """Per-level filled-node counts, levels 0 .. last nonzero level.

    counts[k] is the number of k-bit prefixes shared by at least two keys;
    fractions are counts[k] / 2**k.  Levels beyond the stored range count 0.
    """

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.counts)

    def count(self, k: int) -> int:
        return int(self.counts[k]) if 0 <= k < len(self.counts) else 0

    def fraction(self, k: int) -> float:
        if 0 <= k < len(self.counts):
            return float(self.counts[k]) * 2.0**-k
        return 0.0

    @property
    def fractions(self) -> np.ndarray:
        k = np.arange(len(self.counts))
        return self.counts * np.exp2(-k.astype(np.float64))

    def csv_rows(self):
        """Rows (level, count, fraction) ready for CSV export."""
        for k in range(len(self.counts)):
            yield k, int(self.counts[k]), self.fraction(k)


def build(keys: KeySet, depth_cap: int = DEFAULT_DEPTH_CAP) -> Trie:
    """Build the trie level by level, materializing key bits only as a group
    of still-undistinguished keys needs them.

    Raises IndistinguishableKeysError when finite keys run out of bits while
    still sharing a prefix, and DepthCapError past depth_cap levels.
    """
    n = len(keys)
    root = TrieNode(level=0)
    externals: dict[int, int] = {}
    if n == 0:
        return Trie(root=root, keyset=keys, height=0, external_levels=externals)
    if n == 1:
        root.key_id = 0
        externals[0] = 0
        return Trie(root=root, keyset=keys, height=0, external_levels=externals)

    pending: list[tuple[TrieNode, np.ndarray]] = [(root, np.arange(n, dtype=np.int64))]
    level = 0
    height = 0
    while pending:
        if level >= depth_cap:
            raise DepthCapError(
                f"trie construction exceeded depth cap {depth_cap}; "
                f"{len(pending)} unresolved groups"
            )
        nxt: list[tuple[TrieNode, np.ndarray]] = []
        for node, ids in pending:
            try:
                bits = keys.bit_column(ids, level)
            except KeyExhaustedError as exc:
                raise IndistinguishableKeysError(
                    f"keys {sorted(int(i) for i in ids)} share their first "
                    f"{level} bits and key {exc.key_id} has no bit {level}"
                ) from exc
            for attr, sub in (("zero", ids[bits == 0]), ("one", ids[bits == 1])):
                if len(sub) == 0:
                    continue
                child = TrieNode(level=level + 1)
                setattr(node, attr, child)
                if len(sub) == 1:
                    kid = int(sub[0])
                    child.key_id = kid
                    externals[kid] = level + 1
                    height = max(height, level + 1)
                else:
                    nxt.append((child, sub))
        pending = nxt
        level += 1
    return Trie(root=root, keyset=keys, height=height, external_levels=externals)


def level_profile(trie: Trie) -> LevelProfile:
    """Per-level filled counts obtained by walking the built trie."""
    counts: list[int] = []
    stack = [trie.root]
    while stack:
        node = stack.pop()
        if node.kind == "internal":
            while len(counts) <= node.level:
                counts.append(0)
            counts[node.level] += 1
            stack.extend(node.children())
    while counts and counts[-1] == 0:
        counts.pop()
    return LevelProfile(np.array(counts, dtype=np.int64))


def count_filled_oracle(keys: KeySet, k: int) -> int:
    """Number of distinct k-bit prefixes occurring on two or more keys, by
    direct tabulation of prefixes.  Reference route, independent of any trie.
    """
    n = len(keys)
    if n == 0:
        return 0
    tally = Counter(keys[i].prefix(k) for i in range(n))
    return sum(1 for c in tally.values() if c >= 2)


def _dup_run_count(sorted_arr: np.ndarray) -> int:
    """Number of runs of length >= 2 in a sorted array: each starts with an
    equal neighbour pair that follows an unequal one, or the array's start."""
    eq = sorted_arr[1:] == sorted_arr[:-1]
    return int(np.count_nonzero(eq[1:] > eq[:-1])) + int(eq[:1].sum())


def _pack_codes(bits: np.ndarray) -> np.ndarray:
    """Pack a (m, w) 0/1 matrix (w <= 64) into uint64 codes, MSB first."""
    m, w = bits.shape
    if w > 64:
        raise ValueError("cannot pack more than 64 bits per code")
    codes = np.zeros(m, dtype=np.uint64)
    one = np.uint64(1)
    for i in range(w):
        codes <<= one
        codes |= bits[:, i].astype(np.uint64)
    return codes


def _word(keys: KeySet, ids: np.ndarray, start: int) -> np.ndarray:
    """Bits start .. start+63 of each key as a uint64, MSB first; a finite
    key reads 0 past its end."""
    bits = (keys.bit_block(ids, start, 64) if keys.is_random
            else keys._finite_bits[ids, start:start + 64])   # zero padded
    packed = np.zeros((len(ids), 8), dtype=np.uint8)
    packed[:, :(bits.shape[1] + 7) // 8] = np.packbits(bits, axis=1)
    return packed.view(">u8")[:, 0].astype(np.uint64)


def _adjacent_lcp(ordered: np.ndarray) -> np.ndarray:
    """Leading bits each 64-bit code shares with the next: 64 less the bit
    length of their XOR, read from the float64 exponents of its 32-bit
    halves, which are exact."""
    x = ordered[1:] ^ ordered[:-1]
    hi = np.frexp((x >> np.uint64(32)).astype(np.float64))[1]
    lo = np.frexp((x & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return 64 - np.where(hi > 0, hi + 32, lo).astype(np.int64)


def _sorted_lcp(keys: KeySet, ids: np.ndarray | None = None, base: int = 0):
    """The keys `ids` (default all) sorted by their bits from `base` on, with
    the longest common prefix of each adjacent pair: (order, lcp, codes).

    A finite key sorts before the keys it is a prefix of.  lcp[i] is the LCP
    of sorted keys i and i+1; codes[i] packs bits base .. base+63 of key
    order[i], MSB first, 0 past a finite key's end.  Only runs tied on every
    word so far read their next 64 bits.  Raises IndistinguishableKeysError
    when a finite key is a prefix of another, or equal to it.
    """
    if ids is None:
        ids = np.arange(len(keys), dtype=np.int64)
    codes = _word(keys, ids, base)
    # bits left in each key; random keys run to the largest bit index
    lengths = (np.full(len(ids), MAX_BIT_INDEX, dtype=np.int64) if keys.is_random
               else keys._lengths[ids] - base)
    order = np.lexsort((lengths, codes))
    ids, codes, lengths = ids[order], codes[order], lengths[order]
    lcp = _adjacent_lcp(codes)
    width = 64
    tied = np.flatnonzero(lcp == width)
    while len(tied) and width < lengths[tied + 1].max():
        # the rows of the tied runs, re-sorted within each run by their next word
        rows = np.union1d(tied, tied + 1)
        follows = np.isin(rows, tied + 1)
        word = _word(keys, ids[rows], base + width)
        perm = np.lexsort((lengths[rows], word, np.cumsum(~follows)))
        ids[rows], lengths[rows] = ids[rows][perm], lengths[rows][perm]
        lcp[tied] = width + _adjacent_lcp(word[perm])[follows[1:]]
        width += 64
        tied = np.flatnonzero(lcp == width)
    nested = np.flatnonzero(lcp >= lengths[:-1])   # a key sorts before its extensions
    if len(nested):
        i = int(nested[0])
        raise IndistinguishableKeysError(
            f"key {ids[i]} is a prefix of key {ids[i + 1]}: they share all "
            f"{base + lengths[i]} bits of key {ids[i]}")
    return ids, lcp, codes


def _lcp_counts(lcps: list[int], base: int = 0, top: int | None = None) -> list[int]:
    """Shared-prefix counts at levels 0 .. top (default: the deepest) of sorted
    keys sharing `base` bits, from the LCPs of their adjacent pairs.  Such a
    prefix is a maximal run of pairs with LCP >= its length, so pair i starts
    one at each level lcps[i-1] < k <= lcps[i]: a difference array."""
    if top is None:
        top = max(lcps, default=base - 1) - base
    diff = [0] * (top + 2)
    prev = -1
    for v in lcps:
        v = min(v - base, top)
        if v > prev:
            diff[prev + 1] += 1
            diff[v + 1] -= 1
        prev = v
    return list(accumulate(diff[:-1]))


def shared_prefix_counts(
    keys: KeySet,
    ids: np.ndarray | None = None,
    base: int = 0,
    stop_below: float | None = None,
    upto: int | None = None,
) -> list[int]:
    """Counts of (base+k)-bit prefixes shared within the group, for k = 0, 1, ...

    Stops after the last nonzero level, or as soon as the filled fraction
    drops below stop_below, or at level `upto`.  Vectorized over packed
    prefix codes; used by the simulation paths.
    """
    return _shared_prefix_codes(keys, ids, base, stop_below, upto)[0]


def _shared_prefix_codes(keys, ids=None, base=0, stop_below=None, upto=None):
    """shared_prefix_counts plus the bits it read: (counts, codes, width).

    For random keys, codes[j] packs bits base .. base+width-1 of key ids[j],
    MSB first, in the order of ids.  The codes widen 8, 16, 32, 64 bits as
    the counts need, and each widening hashes only the new columns, so a
    fillup level near the root reads few bits.  Counts past 64 bits, and all
    counts of finite keys (codes None), come from _sorted_lcp.
    """
    if ids is None:
        ids = np.arange(len(keys), dtype=np.int64)
    counts: list[int] = []

    def take(k: int, x: int) -> bool:
        """Record level k's count unless it is 0; True once counting ends."""
        if x == 0:
            return True
        counts.append(x)
        return ((stop_below is not None and x * 2.0**-k < stop_below)
                or (upto is not None and k >= upto))

    codes, width = None, 0
    if keys.is_random:
        codes, width = _pack_codes(keys.bit_block(ids, base, 8)), 8
        while True:
            ordered = np.sort(codes)
            for k in range(len(counts), width + 1):
                if take(k, _dup_run_count(ordered >> np.uint64(width - k))):
                    return counts, codes, width
            if width == 64:
                break
            codes <<= np.uint64(width)
            codes |= _pack_codes(keys.bit_block(ids, base + width, width))
            width *= 2
    full = _lcp_counts(_sorted_lcp(keys, ids, base)[1].tolist()) + [0]
    for k in range(len(counts), len(full)):
        if take(k, full[k]):
            break
    return counts, codes, width


def tabulate_profile(keys: KeySet) -> LevelProfile:
    """LevelProfile computed from the keys in sorted order, without a trie."""
    return LevelProfile(_lcp_counts(_sorted_lcp(keys)[1].tolist()))


def alpha_fillup_level(profile: LevelProfile, alpha: float) -> int:
    """Largest level whose filled fraction is at least alpha.

    With alpha = 1 this is the classic fillup level.  Undefined for fewer
    than two keys (the root is then not filled).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if len(profile) == 0 or profile.fraction(0) < alpha:
        raise UndefinedFillupError(
            "fillup level undefined: no level reaches the requested fraction "
            "(needs at least two keys)"
        )
    return _fillup(profile.counts, alpha)


def _fillup(counts, alpha: float) -> int:
    """Alpha-fillup level from shared-prefix counts: filled fractions never
    rise with the level, so the first one below alpha ends the search."""
    level = 0
    for k in range(1, len(counts)):
        if counts[k] * 2.0**-k < alpha:
            break
        level = k
    return level


def external_depth(trie: Trie, key_id: int) -> int:
    """Depth of the external node holding key_id."""
    try:
        return trie.external_levels[key_id]
    except KeyError:
        raise KeyError(f"unknown key id {key_id}") from None
