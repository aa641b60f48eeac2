"""Binary key sources: seeded memoryless bit streams and user-supplied key files.

Random keys are potentially infinite strings of independent bits with
P(1) = p.  Every bit is a pure function of (seed, key id, bit index), computed
by a counter-mode keyed hash, so the same bit always has the same value no
matter when, where, or in what order it is materialized.  That makes key sets
safe to share across threads and makes parallel simulations reproducible.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SourceParams",
    "Key",
    "KeySet",
    "KeyFileError",
    "DuplicateKeyError",
    "IndistinguishableKeysError",
    "NestedKeyError",
    "KeyExhaustedError",
    "generate_keys",
    "load_keys",
    "parse_key_line",
    "prefix_probability",
    "prefix_log_probability",
]

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_FMIX_C1 = 0xFF51AFD7ED558CCD
_FMIX_C2 = 0xC4CEB9FE1A85EC53
_GOLDEN = 0x9E3779B97F4A7C15

MAX_KEYS = 1 << 32       # key ids and bit indices are packed into one 64-bit word
MAX_BIT_INDEX = 1 << 32
_HASH_CHUNK = 1 << 16    # words hashed per band by bit_block, to stay in cache
_PACK_ROWS = 1 << 13     # rows padded to whole bytes at a time by KeySet.word

# a key file line in the usual CIDR spelling, whose numbers are read in bulk
_PLAIN_CIDR = re.compile(r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}/[0-9]{1,2}")
# _HEAD[k]: the first k bits of a 64-bit word
_HEAD = np.array([_MASK64 ^ (_MASK64 >> k) for k in range(65)], dtype=np.uint64)
# _SHIFT[i & 63]: bit i's shift to the foot of its word, an int for a numpy i too
_SHIFT = list(range(63, -1, -1))


class KeyFileError(ValueError):
    """A key file line was malformed or refused. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateKeyError(KeyFileError):
    """Two lines of a key file produced the same bit string."""


class IndistinguishableKeysError(ValueError):
    """Two or more keys ran out of bits while still sharing a prefix."""


class NestedKeyError(KeyFileError, IndistinguishableKeysError):
    """A key of a key file extends a shorter key of the same file."""


class KeyExhaustedError(LookupError):
    """A finite key was asked for a bit beyond its length."""

    def __init__(self, key_id: int, bit_index: int, length: int):
        super().__init__(
            f"key {key_id} has only {length} bits, bit {bit_index} requested"
        )
        self.key_id = key_id
        self.bit_index = bit_index
        self.length = length


def _fmix64_scalar(x: int) -> int:
    """Murmur3 64-bit finalizer on a Python int (mod 2**64)."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * _FMIX_C1) & _MASK64
    x ^= x >> 33
    x = (x * _FMIX_C2) & _MASK64
    x ^= x >> 33
    return x


@dataclass(frozen=True)
class SourceParams:
    """Memoryless source: probability of a 1-bit and a 64-bit seed."""

    p: float
    seed: int

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie strictly between 0 and 1, got {self.p}")
        if not (0 <= self.seed < 1 << 64):
            raise ValueError("seed must be an unsigned 64-bit integer")

    @property
    def q(self) -> float:
        return 1.0 - self.p


class Key:
    """A single key: a view into its KeySet.

    Random keys extend on demand; finite keys raise KeyExhaustedError past
    their end.  Reading the same bit twice always yields the same value.
    """

    __slots__ = ("keyset", "id")

    def __init__(self, keyset: "KeySet", key_id: int):
        self.keyset = keyset
        self.id = key_id

    @property
    def length(self) -> int | None:
        """Number of available bits, or None for lazily extendable keys."""
        return self.keyset.key_length(self.id)

    def bit(self, i: int) -> int:
        """Bit i: a hash of (seed, id, i), or bit i % 64 of a finite key's word i // 64."""
        keyset = self.keyset
        if keyset._lengths is None:
            if 0 <= i < MAX_BIT_INDEX:
                return keyset._random_bit(int(self.id), int(i))
        elif 0 <= i < keyset._lengths[self.id]:
            return keyset._words.item(self.id, i >> 6) >> _SHIFT[i & 63] & 1
        return int(keyset.bit_block(np.array([self.id], dtype=np.int64), i, 1)[0, 0])

    def prefix(self, k: int) -> tuple[int, ...]:
        """First k bits as a tuple."""
        keyset = self.keyset
        if keyset._lengths is None and 0 <= k <= MAX_BIT_INDEX:
            key_id = int(self.id)
            return tuple(keyset._random_bit(key_id, i) for i in range(int(k)))
        block = keyset.bit_block(np.array([self.id], dtype=np.int64), 0, k)
        return tuple(int(b) for b in block[0])

    def __repr__(self):
        return f"Key(id={self.id})"


class KeySet:
    """Ordered collection of keys, either seeded-random or loaded from a file.

    Random sets are unbounded in depth; finite sets carry explicit lengths
    and their bits, MSB first in zero-padded 64-bit words, one row per key.
    Instances are immutable and safe for concurrent reads: random bits are
    recomputed from (seed, key id, bit index) rather than cached, so there is
    no mutable state to race on.
    """

    def __init__(self, *, params: SourceParams | None, n: int,
                 words: np.ndarray | None = None,
                 lengths: np.ndarray | None = None,
                 origin: str = "random"):
        self.params = params
        self._n = n
        self._words = words                # (n, ceil(max_len / 64)) uint64, or None
        self._lengths = lengths            # (n,) int64, or None for random sets
        self.origin = origin
        if params is not None:
            # fold the seed into two whitening words used by the bit hash
            self._s1 = _fmix64_scalar(params.seed ^ _GOLDEN)
            self._s2 = _fmix64_scalar(params.seed + _GOLDEN)
            # a bit is 1 iff (h >> 11) * 2**-53 < p for its 64-bit hash h;
            # both sides are exact in float64, so this is h >> 11 < ceil(p * 2**53),
            # or h < ceil(p * 2**53) << 11 (below 2**64, as p < 1)
            self._cut = math.ceil(params.p * 2.0**53) << 11

    # -- constructors -------------------------------------------------------

    @classmethod
    def random(cls, params: SourceParams, n: int) -> "KeySet":
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n >= MAX_KEYS:
            raise ValueError(f"at most {MAX_KEYS - 1} random keys are supported")
        return cls(params=params, n=n, origin="random")

    @classmethod
    def from_lines(cls, lines: Iterable[str], origin: str = "<lines>") -> "KeySet":
        """Finite keys from the lines of a key file, line i + 1 being lines[i].

        Every line is stripped, and blank lines and lines starting with '#'
        are skipped.  Any other line is one key, in either of two forms:
        - a string of 0/1 characters, the key's bits;
        - an IPv4 prefix "a.b.c.d/len": four ASCII decimal octets of at most
          255 and a length of at most 32, leading zeros allowed; the key is
          the first len bits of the address.
        Two lines with the same bits are duplicates, whatever their forms.

        Errors carry the line number.  The first malformed line
        (KeyFileError) or duplicate (DuplicateKeyError) in file order is
        raised.  Only a file with neither is checked for nesting: then the
        first key in file order that extends another raises NestedKeyError,
        naming the shortest key it extends.  All lines are read before any
        is checked, so reading a file that is not valid UTF-8 raises
        UnicodeDecodeError even when a malformed line comes first.
        """
        texts = list(map(str.strip, lines))
        # the numbers of every line in the usual CIDR spelling, in one call;
        # the lines whose numbers are out of range are left to _parse_key
        plain = np.fromiter(map(bool, map(_PLAIN_CIDR.fullmatch, texts)),
                            dtype=bool, count=len(texts))
        nums = np.fromstring(
            ".".join(itertools.compress(texts, plain)).replace("/", "."),
            dtype=np.int64, sep=".").reshape(-1, 5)
        in_range = (nums[:, :4] <= 255).all(axis=1) & (nums[:, 4] <= 32)
        plain[plain] = in_range
        nums = nums[in_range]
        # every other key line through _parse_key, up to the first malformed one
        other, other_keys, error = [], [], None
        for i in np.flatnonzero(~plain).tolist():
            line = texts[i]
            if line and line[0] != "#":
                try:
                    other_keys.append(_parse_key(line, i + 1))
                except KeyFileError as exc:
                    error = exc
                    break
                other.append(i)
        if error is not None:   # only the keys above the malformed line count
            end = error.line_no - 1
            nums = nums[:np.count_nonzero(plain[:end])]
            plain[end:] = False
        # the keys in file order: a length and the bits, left-aligned in
        # 64-bit words and zero padded
        is_key = plain.copy()
        is_key[other] = True
        rows = np.flatnonzero(is_key)
        at = np.cumsum(is_key) - 1
        lengths = np.empty(len(rows), dtype=np.int64)
        lengths[at[plain]] = nums[:, 4]
        lengths[at[other]] = [length for length, _ in other_keys]
        width = max(1, -(-int(lengths.max(initial=0)) // 64))
        words = np.zeros((len(rows), width), dtype=np.uint64)
        host = 32 - nums[:, 4]
        addr = nums[:, :4] @ np.array([1 << 24, 1 << 16, 1 << 8, 1])
        words[at[plain], 0] = ((addr >> host) << host).astype(np.uint64) << _U64(32)
        words[at[other]] = np.frombuffer(b"".join(
            (value << (64 * width - length)).to_bytes(8 * width, "big")
            for length, value in other_keys), dtype=">u8").reshape(-1, width)
        # sorted by bits, then length, equal keys lie together in file order,
        # and a key that another key extends is followed by one that does
        order = np.lexsort((lengths, *words.T[::-1]))
        a, b = order[:-1], order[1:]
        starts = np.ones(len(a), dtype=bool)   # key b starts with key a
        for j in range(width):
            head = _HEAD[np.clip(lengths[a] - 64 * j, 0, 64)]
            starts &= (words[b, j] & head) == words[a, j]
        same = starts & (lengths[a] == lengths[b])
        if same.any():
            i = int(b[same].min())
            first = np.flatnonzero((lengths == lengths[i])
                                   & (words == words[i]).all(axis=1))[0]
            raise DuplicateKeyError(
                f"duplicate key {texts[rows[i]]!r} (same bits as line "
                f"{rows[first] + 1})", int(rows[i]) + 1)
        if error is not None:
            raise error
        if starts.any():
            raise _nested_key_error(lengths, words, rows)
        return cls(params=None, n=len(rows), words=words, lengths=lengths,
                   origin=origin)

    @classmethod
    def from_file(cls, path) -> "KeySet":
        with open(path, "r", encoding="utf-8-sig") as fh:
            return cls.from_lines(fh, origin=str(path))

    # -- basic container behaviour ------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, key_id: int) -> Key:
        if not (0 <= key_id < self._n):
            raise IndexError(f"key id {key_id} out of range (n={self._n})")
        return Key(self, key_id)

    def __iter__(self):
        return (Key(self, i) for i in range(self._n))

    @property
    def is_random(self) -> bool:
        return self._lengths is None

    def key_length(self, key_id: int) -> int | None:
        if not (0 <= key_id < self._n):
            raise IndexError(f"key id {key_id} out of range (n={self._n})")
        return None if self._lengths is None else self._lengths.item(key_id)

    # -- bit access ----------------------------------------------------------

    def bit_block(self, ids: np.ndarray, start: int, width: int) -> np.ndarray:
        """Bits [start, start+width) of the given keys as a (len(ids), width)
        uint8 array.  Raises KeyExhaustedError if any finite key is too short,
        ValueError if start or width is negative, and IndexError if an id
        lies outside [0, n).
        """
        if start < 0 or width < 0:
            raise ValueError(
                f"bit block start and width must be non-negative, got {start} and {width}")
        ids = np.asarray(ids, dtype=np.int64)
        # one max over the ids as unsigned: a negative id reads as >= 2^63
        if len(ids) and ids.view(np.uint64).max() >= self._n:
            bad = ids[(ids < 0) | (ids >= self._n)][0]
            raise IndexError(f"key id {bad} out of range (n={self._n})")
        if width == 0:
            return np.zeros((len(ids), 0), dtype=np.uint8)
        if self._lengths is not None:
            end = start + width
            short = np.flatnonzero(self._lengths[ids] < end)
            if len(short) > 0:
                kid = int(ids[short[0]])
                raise KeyExhaustedError(kid, end - 1, int(self._lengths[kid]))
            # unpack the words covering [start, end), as big-endian bytes in bit order
            block = self._words[ids, start // 64:-(-end // 64)].astype(">u8")
            return np.unpackbits(block.view(np.uint8), axis=1)[:, start % 64:][:, :width]
        if start + width > MAX_BIT_INDEX:
            raise ValueError("bit index out of supported range")
        # the two rounds of _fmix64_scalar, fused into 12 passes per bit by
        # three identities:
        # - id and index fill disjoint halves of x = (id << 32 | index) ^ s1,
        #   so x = ((id << 32) ^ s1) ^ index, and as the index lies below bit
        #   33 the first x ^= x >> 33 acts on the row word alone;
        # - round 1's closing xor-shift and round 2's opening one (after ^ s2)
        #   cancel to ^ k, k = s2 ^ (s2 >> 33), as (a ^ a >> 33) >> 33 == a >> 33;
        # - (b ^ b >> 33) < cut equals (b ^ (cut >> 33)) < cut: both keep b's
        #   bits 31 and up, and where those tie with cut's, b >> 33 == cut >> 33
        u33 = _U64(33)
        rows = (ids.astype(np.uint64) << _U64(32)) ^ _U64(self._s1)
        rows ^= rows >> u33
        cols = np.arange(start, start + width, dtype=np.uint64)
        c1, c2 = _U64(_FMIX_C1), _U64(_FMIX_C2)
        k = _U64(self._s2 ^ (self._s2 >> 33))
        cut = _U64(self._cut)
        tail = _U64(self._cut >> 33)
        out = np.empty((len(ids), width), dtype=bool)
        # hash a cache-sized band of rows at a time, in two reused buffers
        step = max(1, _HASH_CHUNK // width)
        h = np.empty((min(step, len(ids)), width), dtype=np.uint64)
        tmp = np.empty_like(h)
        for a in range(0, len(ids), step):
            band = rows[a:a + step]
            hb, tb = h[:len(band)], tmp[:len(band)]
            np.bitwise_xor(band[:, None], cols[None, :], out=hb)
            hb *= c1
            np.right_shift(hb, u33, out=tb)
            hb ^= tb
            hb *= c2
            hb ^= k
            hb *= c1
            np.right_shift(hb, u33, out=tb)
            hb ^= tb
            hb *= c2
            hb ^= tail
            np.less(hb, cut, out=out[a:a + step])
        return out.view(np.uint8)

    def word(self, ids: np.ndarray, start: int, width: int = 64) -> np.ndarray:
        """Bits start .. start+width-1 (width <= 64) of each key as a uint64, MSB
        first and zero below; a finite key reads 0 past its end."""
        if self._words is not None:
            j, s = divmod(start, 64)
            cols = self._words[ids, j:j + 2]   # none past the last column
            out = cols[:, 0] << _U64(s) if cols.shape[1] else np.zeros(len(ids), _U64)
            if cols.shape[1] == 2:   # numpy shifts a uint64 by 64 to 0
                out |= cols[:, 1] >> _U64(64 - s)
            return out & _HEAD[width]
        block = self.bit_block(ids, start, width)
        # rows padded to 1, 2, 4 or 8 whole bytes pack in one call into big-endian
        # words, several times faster than packing short rows one by one; a band
        # of rows at a time keeps the padded copy small
        cols = block.shape[1]
        size = 1 << max(0, (cols - 1) // 8).bit_length()
        codes = np.empty(len(ids), dtype=np.uint64)
        rows = np.zeros((min(len(ids), _PACK_ROWS), 8 * size), dtype=np.uint8)
        for a in range(0, len(ids), _PACK_ROWS):
            band = block[a:a + _PACK_ROWS]
            rows[:len(band), :cols] = band
            codes[a:a + len(band)] = np.packbits(rows[:len(band)]).view(f">u{size}")
        if size < 8:
            codes <<= np.uint64(64 - 8 * size)
        return codes

    def _random_bit(self, key_id: int, i: int) -> int:
        """Bit i of random key key_id: the bit_block hash on Python ints."""
        h = _fmix64_scalar(((key_id << 32) | i) ^ self._s1)
        return int(_fmix64_scalar(h ^ self._s2) < self._cut)

    def bit_matrix(self, upto: int) -> np.ndarray:
        """Bits [0, upto) of every key; convenience for bulk inspection."""
        return self.bit_block(np.arange(self._n, dtype=np.int64), 0, upto)

    def __repr__(self):
        kind = "random" if self.is_random else "finite"
        return f"KeySet(n={self._n}, {kind}, origin={self.origin!r})"


def generate_keys(params: SourceParams, n: int) -> KeySet:
    """n lazily extendable random keys drawn from the memoryless source."""
    return KeySet.random(params, n)


def load_keys(path) -> KeySet:
    """Load finite keys from a file of 0/1 lines or IPv4 CIDR prefixes.

    Lines starting with '#' and blank lines are skipped, as is a leading
    UTF-8 byte order mark.  Malformed lines, duplicate keys and keys that
    extend another key raise errors carrying the offending line number.
    The whole file must decode as UTF-8 before any line error is reported.
    """
    return KeySet.from_file(path)


def parse_key_line(line: str, line_no: int = 0) -> tuple[int, ...]:
    """Parse one key file line: either a 0/1 string or "a.b.c.d/len"."""
    length, value = _parse_key(line, line_no)
    return tuple(map(int, format(value, f"0{length}b"))) if length else ()


def _parse_key(line: str, line_no: int) -> tuple[int, int]:
    """(length, value) of one key file line, value holding its bits MSB first."""
    if "/" in line:
        addr, _, plen_s = line.partition("/")
        plen = _decimal(plen_s)
        if plen is None:
            raise KeyFileError(f"bad prefix length {plen_s!r}", line_no)
        if plen > 32:
            raise KeyFileError(f"prefix length {plen} outside 0..32", line_no)
        octets = addr.split(".")
        if len(octets) != 4:
            raise KeyFileError(f"bad IPv4 address {addr!r}", line_no)
        value = 0
        for o in octets:
            v = _decimal(o)
            if v is None:
                raise KeyFileError(f"bad IPv4 octet {o!r}", line_no)
            if v > 255:
                raise KeyFileError(f"IPv4 octet {v} exceeds 255", line_no)
            value = (value << 8) | v
        return plen, value >> (32 - plen)
    if line.strip("01"):
        raise KeyFileError(f"expected 0/1 characters or CIDR, got {line!r}", line_no)
    return len(line), int(line, 2) if line else 0


def _nested_key_error(lengths: np.ndarray, words: np.ndarray,
                      rows: np.ndarray) -> NestedKeyError:
    """The error for the first key in file order that extends another key,
    naming the shortest key it extends."""
    width = words.shape[1]
    packed = words.astype(">u8")
    seen = {(length, int.from_bytes(packed[i].tobytes(), "big")
             >> (64 * width - length)): int(rows[i]) + 1
            for i, length in enumerate(lengths.tolist())}
    sizes = sorted({length for length, _ in seen})
    for (length, value), line_no in seen.items():
        for k in sizes[:sizes.index(length)]:   # the shortest first
            first = seen.get((k, value >> (length - k)))
            if first is not None:
                return NestedKeyError(
                    f"key extends the {k}-bit key on line {first}", line_no)
    raise AssertionError("no key extends another")


# the shortest spelling of every octet value: a dict lookup costs about a
# third of int(), and most of a key file's numbers are of this form
_SHORTEST = {str(v): v for v in range(256)}


def _decimal(text: str) -> int | None:
    """The value of a string of ASCII decimal digits, else None: int() alone
    would also take a sign, spaces, underscores and non-ASCII digits."""
    value = _SHORTEST.get(text)
    if value is not None:
        return value
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past int()'s limit on decimal digits
        return None


def _ones(r: Sequence[int] | str) -> tuple[int, int]:
    """(number of ones, length) of a bit string given as str or int sequence."""
    if isinstance(r, str):
        if not all(c in "01" for c in r):
            raise ValueError(f"bit string must contain only 0/1, got {r!r}")
        return r.count("1"), len(r)
    bits = list(r)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bit sequence must contain only 0 and 1")
    return sum(bits), len(bits)


def prefix_probability(params: SourceParams, r: Sequence[int] | str) -> float:
    """Probability that a random key starts with the bit string r:
    p^ones(r) * q^(|r| - ones(r)).  Underflows to 0 for very long r; use
    prefix_log_probability in that regime.
    """
    ones, length = _ones(r)
    return params.p**ones * params.q ** (length - ones)


def prefix_log_probability(params: SourceParams, r: Sequence[int] | str) -> float:
    """Natural log of prefix_probability, stable for long r."""
    ones, length = _ones(r)
    return ones * math.log(params.p) + (length - ones) * math.log(params.q)


def trial_seed(seed: int, trial: int) -> int:
    """Derive an independent 64-bit seed for one trial of an experiment."""
    return _fmix64_scalar(_fmix64_scalar(seed ^ _GOLDEN) ^ (trial + 1))
