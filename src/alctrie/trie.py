"""Uncompressed binary tries with per-level occupancy profiles.

A node at level k stands for a k-bit prefix.  A prefix shared by two or more
keys is a filled (internal) node; a key sits in an external node at the depth
of its shortest prefix not shared with any other key.  Unary internal nodes
are kept explicit so that the per-level counts match the prefix-counting
definition exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .source import KeySet, KeyExhaustedError

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
    """Number of runs of length >= 2 in a sorted array."""
    m = len(sorted_arr)
    if m < 2:
        return 0
    boundary = np.empty(m + 1, dtype=bool)
    boundary[0] = boundary[m] = True
    np.not_equal(sorted_arr[1:], sorted_arr[:-1], out=boundary[1:m])
    run_lengths = np.diff(np.flatnonzero(boundary))
    return int(np.count_nonzero(run_lengths >= 2))


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
    prefix codes; used by the simulation paths and by level compression.
    """
    return _shared_prefix_codes(keys, ids, base, stop_below, upto)[0]


def _shared_prefix_codes(keys, ids=None, base=0, stop_below=None, upto=None):
    """shared_prefix_counts plus the bits it read: (counts, codes, width).

    codes[j] packs bits base .. base+width-1 of key ids[j], MSB first, in the
    order of ids.  The codes widen 8, 16, 32, 64 bits as the counts need, and
    each widening hashes only the new columns.  Finite keys are tabulated per
    level instead and give codes None.
    """
    if ids is None:
        ids = np.arange(len(keys), dtype=np.int64)
    m = len(ids)
    counts: list[int] = []
    if m < 2:
        return counts, None, 0

    def done_at(k: int, x: int) -> bool:
        if x == 0:
            return True
        if stop_below is not None and x * 2.0**-k < stop_below:
            return True
        return upto is not None and k >= upto

    counts.append(1)  # level 0: the empty prefix, shared by the whole group
    if done_at(0, 1):
        return _trimmed(counts), None, 0
    if not keys.is_random:
        # finite keys may be shorter than the packing width; fall back to
        # exact per-level tabulation with early unique-key retirement
        return _shared_counts_finite(keys, ids, base, counts, done_at), None, 0

    width = 8
    codes = _pack_codes(keys.bit_block(ids, base, width))
    while True:
        ordered = np.sort(codes)
        for k in range(len(counts), width + 1):
            x = _dup_run_count(ordered >> np.uint64(width - k))
            counts.append(x)
            if done_at(k, x):
                return _trimmed(counts), codes, width
        if width == 64:
            return _shared_counts_finite(keys, ids, base, counts, done_at), codes, width
        codes <<= np.uint64(width)
        codes |= _pack_codes(keys.bit_block(ids, base + width, width))
        width *= 2


def _trimmed(counts: list[int]) -> list[int]:
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def _shared_counts_finite(keys, ids, counts_base, counts, done_at):
    """Per-level tabulation for finite keys (or depths beyond 64 bits).

    Keys already unique at some level never rejoin a shared prefix and are
    retired; a finite key that ends while still sharing its prefix makes the
    group indistinguishable.
    """
    base = counts_base
    k = len(counts)
    # regroup survivors by their first k bits beyond base
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in ids:
        i = int(i)
        length = keys.key_length(i)
        try:
            prefix = tuple(int(b) for b in keys.bit_block(
                np.array([i], dtype=np.int64), base, k)[0])
        except KeyExhaustedError:
            # key ended before level k; it must have been unique already,
            # otherwise the group can never be discriminated
            avail = (length or 0) - base
            prefix_avail = tuple(int(b) for b in keys.bit_block(
                np.array([i], dtype=np.int64), base, avail)[0])
            groups.setdefault(("short", prefix_avail), []).append(i)
            continue
        groups.setdefault(prefix, []).append(i)
    # validate the short keys: each must be unique at its own end
    live: dict[tuple[int, ...], list[int]] = {}
    for gkey, members in groups.items():
        if isinstance(gkey[0], str):
            _, prefix_avail = gkey
            for other_key, others in groups.items():
                if other_key is gkey:
                    continue
                other_prefix = other_key[1] if isinstance(other_key[0], str) else other_key
                if other_prefix[: len(prefix_avail)] == prefix_avail:
                    raise IndistinguishableKeysError(
                        f"key {members[0]} ends while still sharing a prefix"
                    )
            if len(members) > 1:
                raise IndistinguishableKeysError(
                    f"keys {members} are identical within their length"
                )
        else:
            if len(members) >= 2:
                live[gkey] = members
    while True:
        x = len(live)
        counts.append(x)
        if done_at(k, x):
            return _trimmed(counts)
        nxt: dict[tuple[int, ...], list[int]] = {}
        for prefix, members in live.items():
            split: dict[int, list[int]] = {}
            for i in members:
                length = keys.key_length(i)
                if length is not None and base + k >= length:
                    raise IndistinguishableKeysError(
                        f"key {i} shares its full {length}-bit string with "
                        f"{[j for j in members if j != i]}"
                    )
                split.setdefault(keys[i].bit(base + k), []).append(i)
            for b, sub in split.items():
                if len(sub) >= 2:
                    nxt[prefix + (b,)] = sub
        live = nxt
        k += 1


def tabulate_profile(keys: KeySet) -> LevelProfile:
    """LevelProfile computed by prefix tabulation, without building a trie."""
    return LevelProfile(np.array(shared_prefix_counts(keys), dtype=np.int64))


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
    level = 0
    for k in range(1, len(profile)):
        if profile.fraction(k) < alpha:
            break
        level = k
    return level


def external_depth(trie: Trie, key_id: int) -> int:
    """Depth of the external node holding key_id."""
    try:
        return trie.external_levels[key_id]
    except KeyError:
        raise KeyError(f"unknown key id {key_id}") from None
