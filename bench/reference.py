"""Answers the benchmark computes apart from alctrie, to check the program's.

Nothing here imports alctrie.  Profiles and fillup levels come from the
common-prefix lengths of adjacent keys in sorted order, CIDR matches from
integer XOR, the designated key's depth from a walk over its own path, and
the expectations from the binomial sum written out again.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


def bit_length(x: np.ndarray) -> np.ndarray:
    """Bit length of each nonnegative integer below 2**53 (0 for 0)."""
    return np.frexp(np.asarray(x, dtype=np.float64))[1].astype(np.int64)


def profile_from_lcp(lcp: np.ndarray) -> np.ndarray:
    """Filled-node count per level, from the adjacent-pair LCPs of the keys
    in sorted order.

    A k-bit prefix shared by two or more keys is a maximal run of adjacent
    pairs with LCP >= k.  Pair i starts such a run at the levels
    prev < k <= lcp[i], prev being the previous pair's LCP (-1 for the first).
    """
    lcp = np.asarray(lcp, dtype=np.int64)
    if len(lcp) == 0:
        return np.zeros(0, dtype=np.int64)
    prev = np.concatenate(([-1], lcp[:-1]))
    starts = lcp > prev
    diff = np.zeros(int(lcp.max()) + 2, dtype=np.int64)
    np.add.at(diff, prev[starts] + 1, 1)
    np.add.at(diff, lcp[starts] + 1, -1)
    return np.cumsum(diff)[:-1]


def fillup_level(counts: np.ndarray, alpha: float) -> int:
    """Deepest level k with counts[k] / 2**k >= alpha.  Filled fractions never
    rise with k (a filled node has at most two filled children), so the first
    level below alpha ends the search."""
    level = 0
    for k in range(1, len(counts)):
        if counts[k] < alpha * 2.0**k:
            break
        level = k
    return level


def cidr_profile(values: np.ndarray, bits: int) -> np.ndarray:
    """Profile of distinct `bits`-bit keys given as integers."""
    s = np.sort(np.asarray(values, dtype=np.int64))
    return profile_from_lcp(bits - bit_length(s[1:] ^ s[:-1]))


def cidr_match(values: np.ndarray, key_bits: int, address: int,
               address_bits: int) -> tuple[int, int]:
    """(id, length) of the longest common prefix between an address and the
    keys, all `key_bits` long; the smallest id wins a tie."""
    top = address >> (address_bits - key_bits)
    lengths = key_bits - bit_length(values ^ top)
    best = int(np.argmax(lengths))   # first maximum: the smallest id
    return best, int(lengths[best])


def sorted_lcp(rows: np.ndarray) -> np.ndarray:
    """Adjacent-pair LCPs of 0/1 rows in lexicographic order; a pair equal
    on every column gets the row width."""
    packed = np.packbits(rows, axis=1)
    order = sorted(range(len(rows)), key=lambda i: packed[i].tobytes())
    s = rows[order]
    diff = s[1:] != s[:-1]
    return np.where(diff.any(axis=1), diff.argmax(axis=1), rows.shape[1])


def smallest_id_by_prefix(rows: np.ndarray) -> dict[bytes, int]:
    """Smallest row index for every distinct row."""
    packed = np.packbits(rows, axis=1)
    first: dict[bytes, int] = {}
    for i in range(len(rows) - 1, -1, -1):
        first[packed[i].tobytes()] = i
    return first


class NeedMoreBits(Exception):
    """A walk ran past the bit columns it was given."""


def designated_walk(rows: np.ndarray, alpha: float, key: int = 0) -> tuple[int, int]:
    """(compressed depth, consumed levels) of `key` in the alpha-LC trie over
    the rows.  Each node on the key's path consumes one level past its
    group's alpha-fillup level; the walk keeps only the keys that share the
    consumed bits with `key`."""
    width = rows.shape[1]
    group = np.arange(len(rows))
    level = steps = 0
    while len(group) > 1:
        codes = np.zeros(len(group), dtype=np.int64)
        k = 0
        while True:
            if level + k >= width:
                raise NeedMoreBits
            codes = 2 * codes + rows[group, level + k]
            k += 1
            _, sizes = np.unique(codes, return_counts=True)
            if np.count_nonzero(sizes >= 2) < alpha * 2.0**k:
                break
        own = codes[np.flatnonzero(group == key)[0]]
        group = group[codes == own]
        level += k
        steps += 1
    return steps, level


def fill_fraction_fixed_n(n: int, p: float, k: int) -> float:
    """2^-k sum_j C(k,j) P(Binomial(n, p^j q^(k-j)) >= 2)."""
    terms = []
    for j in range(k + 1):
        cell = p**j * (1.0 - p) ** (k - j)
        if cell == 1.0:    # level 0: every key falls in the one cell
            at_least_two = 1.0 if n >= 2 else 0.0
        else:
            log_miss = math.log1p(-cell)
            at_least_two = (-math.expm1(n * log_miss)
                            - n * cell * math.exp((n - 1) * log_miss))
        terms.append(math.comb(k, j) * at_least_two)
    return math.fsum(terms) / 2.0**k


def closed_form_level(n: float, alpha: float, p: float) -> float:
    """log_{1/sqrt(pq)} n - |ln(p/q)| / (2 ln^{3/2}(1/sqrt(pq))) Phi^-1(alpha) sqrt(ln n)."""
    q = 1.0 - p
    ln_base = -0.5 * math.log(p * q)
    return (math.log(n) / ln_base
            - abs(math.log(p / q)) / (2.0 * ln_base**1.5)
            * NormalDist().inv_cdf(alpha) * math.sqrt(math.log(n)))


def depth_coefficient(p: float) -> float:
    """C1 = 1 / |log2(1 - h / log2(1/sqrt(pq)))|, h the entropy in bits."""
    q = 1.0 - p
    h = -p * math.log2(p) - q * math.log2(q)
    return 1.0 / abs(math.log2(1.0 - h / (-0.5 * math.log2(p * q))))
