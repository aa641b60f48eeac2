"""Binary tries over key sets, and their per-level occupancy profiles.

A node at level k stands for a k-bit prefix.  A prefix shared by two or more
keys is a filled (internal) node; a key sits in an external node at the depth
of its shortest prefix not shared with any other key.

No trie is built.  Every quantity is read off the keys in sorted order plus
the longest common prefix (LCP) of each adjacent pair (`_sorted_lcp`): one
counter (`_level_counts`) reads profiles off the LCPs, and every subtrie is
a contiguous range of the order.  The alpha-fillup level of m keys is decided
by levels 0 .. floor(log2(m/alpha)) (`_fillup_bound`), so the fillup of
random keys reads only that many bits of each key, and first a shallower
read near their expected fillup level (`_first_read`), going on to the bound
only if no level so far falls below alpha.  A group whose bound fits one
64-bit word is counted from the codes its bits read spell (`_code_counts`):
from a histogram halved level by level where it has at most 4 bins per key,
else from the sorted codes' LCPs; finite keys read straight to the bound.
Groups whose bound passes 64 bits are sorted whole by `_sorted_lcp`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import ModelParams, predict_level_calibrated
from .source import IndistinguishableKeysError, KeySet

__all__ = [
    "LevelProfile",
    "IndistinguishableKeysError",
    "DepthCapError",
    "UndefinedFillupError",
    "count_filled_oracle",
    "tabulate_profile",
    "alpha_fillup_level",
]

DEFAULT_DEPTH_CAP = 4096


class DepthCapError(RuntimeError):
    """Construction exceeded the configured maximum depth."""


class UndefinedFillupError(ValueError):
    """The fillup level is undefined (fewer than two keys)."""


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


def count_filled_oracle(keys: KeySet, k: int) -> int:
    """Number of distinct k-bit prefixes occurring on two or more keys, by
    direct tabulation of prefixes.  Reference route, independent of any trie.
    """
    n = len(keys)
    if n == 0:
        return 0
    tally = Counter(keys[i].prefix(k) for i in range(n))
    return sum(1 for c in tally.values() if c >= 2)


def _codes(keys: KeySet, ids: np.ndarray, start: int, width: int) -> np.ndarray:
    """Bits start .. start+width-1 (width <= 64) of each key, right-aligned:
    the integer they spell."""
    return keys.word(ids, start, width) >> np.uint64(64 - width)


def _adjacent_lcp(ordered: np.ndarray) -> np.ndarray:
    """Leading bits each 64-bit code shares with the next: 64 less the bit
    length of their XOR x.  x & ~(x >> 1) keeps x's top bit and no two
    adjacent ones, so float64 rounding cannot carry it to the next power of
    two, and the exponent frexp reads off it is exact."""
    x = ordered[1:] ^ ordered[:-1]
    x &= ~(x >> np.uint64(1))
    x = x.astype(np.float64)
    return 64 - np.frexp(x)[1].astype(np.int64)


def _sorted_lcp(keys: KeySet, ids: np.ndarray | None = None, base: int = 0):
    """The keys `ids` (default all) sorted by their bits from `base` on, with
    the longest common prefix of each adjacent pair: (order, lcp, codes).

    lcp[i] is the LCP of sorted keys i and i+1, counted from `base`; codes[i]
    packs bits base .. base+63 of key order[i], MSB first, 0 past a finite
    key's end.  Only runs tied on every word so far read their next 64 bits,
    up to the longest finite key's end: in a prefix-free set, which the
    loader guarantees, zero padding neither ties two keys nor lengthens an LCP.
    """
    if ids is None:
        ids = np.arange(len(keys), dtype=np.int64)
    codes = keys.word(ids, base)
    order = np.argsort(codes)
    codes, order = codes[order], ids[order]
    lcp = _adjacent_lcp(codes)
    end = None if keys.is_random else int(keys._lengths.max(initial=0)) - base
    width = 64
    tied = np.flatnonzero(lcp == width)
    while len(tied) and (end is None or width < end):
        # the rows of the tied runs, re-sorted within each run by their next word
        rows = np.union1d(tied, tied + 1)
        follows = np.isin(rows, tied + 1)
        word = keys.word(order[rows], base + width)
        perm = np.lexsort((word, np.cumsum(~follows)))
        order[rows] = order[rows][perm]
        lcp[tied] = width + _adjacent_lcp(word[perm])[follows[1:]]
        width += 64
        tied = np.flatnonzero(lcp == width)
    return order, lcp, codes


def _level_counts(lcp: np.ndarray, top: int,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """Shared-prefix counts at levels 0 .. top of sorted keys from the LCPs of
    adjacent pairs, counted from their shared base: the pairs with LCP >= k
    less the adjacent pairs of such pairs, since a shared k-bit prefix is a
    maximal run of such pairs.  With `rows`, lcp holds groups one after
    another, rows[i] is the group of entry i, and a -1 ends each group (level
    -1, column 0 of its row); each group gets a row."""
    width = top + 2
    groups = 1 if rows is None else int(rows[-1]) + 1
    v = np.minimum(lcp, top)
    v += 1 if rows is None else rows * width + 1
    runs = np.bincount(v, minlength=groups * width)
    runs -= np.bincount(np.minimum(v[1:], v[:-1]), minlength=groups * width)
    counts = runs.reshape(groups, width)[:, :0:-1]   # levels top .. 0
    counts.cumsum(axis=1, out=counts)
    return counts[0, ::-1] if rows is None else counts[:, ::-1]


def _fillup_bound(m: int, alpha: float) -> int:
    """The deepest level that decides the alpha-fillup level of m keys,
    floor(log2(m / alpha)).  A level k holds at most m/2 shared prefixes, so
    it reaches alpha only if 2**(k+1) <= m/alpha: the fillup level lies
    below the bound, and the first level under alpha no deeper than it."""
    return int(m / alpha).bit_length() - 1


@lru_cache(maxsize=4096)
def _first_read(p: float, alpha: float, m: int) -> int:
    """Levels of m random keys read before the bound: two past the last
    level whose expected fill fraction reaches alpha, as the fillup level
    lies within one level of it with high probability.  No expected fraction
    reaches alpha at or past _fillup_bound, so the search ends there."""
    top = _fillup_bound(m, alpha)
    if alpha == 1.0 or m < 2:
        return top
    level = predict_level_calibrated(ModelParams(p=p, alpha=alpha, n=m), cap=top)
    return min(top, level + 2)


def _histogram_counts(codes: np.ndarray, width: int) -> np.ndarray:
    """Shared-prefix counts at levels 0 .. width of keys whose first `width`
    bits spell `codes`: the k-bit prefixes held by two or more keys, read off
    a histogram of the codes halved level by level."""
    counts = np.empty(width + 1, dtype=np.int64)
    h = np.bincount(codes.view(np.int64), minlength=1 << width)
    for k in range(width, -1, -1):
        counts[k] = np.count_nonzero(h >= 2)
        h = h[0::2] + h[1::2]
    return counts


def _code_counts(codes: np.ndarray, width: int) -> np.ndarray:
    """Shared-prefix counts at levels 0 .. width (<= 64) of m keys whose first
    `width` bits spell `codes`: from their histogram where it has at most 4
    bins per key, 2**width <= 4*m (every fillup bound at alpha >= 1/4), else
    from the LCPs of the sorted codes."""
    if width <= (4 * len(codes)).bit_length() - 1:
        return _histogram_counts(codes, width)
    return _level_counts(_adjacent_lcp(np.sort(codes) << np.uint64(64 - width)), width)


def _capped_fillup(keys: KeySet, ids: np.ndarray | None, base: int, alpha: float):
    """Alpha-fillup level F of the keys `ids` (default all), which share `base`
    bits, and a function from one of them to the ids sharing its first F+1
    bits past `base`: its child group in a compressed node at `base`.

    Keys whose bound fits one word are counted from their codes
    (_code_counts): finite keys read down to _fillup_bound, random keys down
    to _first_read, and down to the bound only if no level so far falls
    below alpha, reading then only the bits past the first read.  Keys whose
    bound passes 64 bits are counted from _sorted_lcp."""
    if ids is None:
        ids = np.arange(len(keys), dtype=np.int64)
    m = len(ids)
    top = _fillup_bound(m, alpha)
    if top <= 64:
        read = _first_read(keys.params.p, alpha, m) if keys.is_random else top
        codes = _codes(keys, ids, base, read)
        fillup = _fillup(_code_counts(codes, read).tolist(), alpha)
        if fillup == read < top:   # no level up to `read` falls below alpha
            codes <<= np.uint64(top - read)
            codes |= _codes(keys, ids, base + read, top - read)
            read = top
            fillup = _fillup(_code_counts(codes, top).tolist(), alpha)
        shift = np.uint64(read - fillup - 1)
        return fillup, lambda key_id: ids[
            (codes >> shift) == (codes[ids == key_id] >> shift)]
    order, lcp = _sorted_lcp(keys, ids, base)[:2]
    fillup = _fillup(_level_counts(lcp, top).tolist(), alpha)
    return fillup, _run_of(order, lcp, fillup + 1)


def _run_of(order: np.ndarray, lcp: np.ndarray, shared: int):
    """A function from a key of the sorted `order` to its run of the order
    sharing `shared` bits."""
    def run(key_id):
        runs = np.cumsum(np.concatenate(([0], lcp < shared)))
        return order[runs == runs[np.flatnonzero(order == key_id)[0]]]
    return run


def _random_level_counts(keys: KeySet, top: int) -> np.ndarray:
    """Shared-prefix counts at levels 0 .. top of random keys, read `top`
    bits deep (_code_counts), or, past 64 bits, from _sorted_lcp."""
    if top > 64:
        return _level_counts(_sorted_lcp(keys)[1], top)
    return _code_counts(_codes(keys, np.arange(len(keys), dtype=np.int64), 0, top), top)


def tabulate_profile(keys: KeySet) -> LevelProfile:
    """LevelProfile computed from the keys in sorted order, without a trie."""
    lcp = _sorted_lcp(keys)[1]
    return LevelProfile(_level_counts(lcp, int(lcp.max(initial=-1))))


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
