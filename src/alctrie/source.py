"""Binary key sources: seeded memoryless bit streams and user-supplied key files.

Random keys are potentially infinite strings of independent bits with
P(1) = p.  Every bit is a pure function of (seed, key id, bit index), computed
by a counter-mode keyed hash, so the same bit always has the same value no
matter when, where, or in what order it is materialized.  That makes key sets
safe to share across threads and makes parallel simulations reproducible.
"""

from __future__ import annotations

import math
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
    "load_queries",
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

# the five fields of a plain CIDR line, a.b.c.d/len and its line end: the
# non-digit that ends each, its most digits and its largest number
_CIDR_FIELDS = [(ord("."), 3, 255)] * 3 + [(ord("/"), 3, 255), (ord("\n"), 2, 32)]
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
    Instances are safe for concurrent reads: random bits are recomputed from
    (seed, key id, bit index) rather than cached.  Their one mutable field is
    the sorted view (`_sorted_view`), a private write-once cache of read-only
    arrays, set by the loader for a key file and on first use for a random
    set; two threads that both fill it write equal views, so the race is
    benign.
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
        self._view = None                  # _sorted_view's (order, lcp, codes)
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
        naming the shortest key it extends.
        """
        lines = list(lines)
        text = "\n".join(lines)
        if text.count("\n") != max(len(lines) - 1, 0):
            # an element holds a LF: it stands in the text as a lone CR, which
            # the bytes do not settle, so _parse_text reads it from `lines`
            text = "\n".join("\r" if "\n" in line else line for line in lines)
        return cls._load(text, origin, lines)

    @classmethod
    def from_file(cls, path) -> "KeySet":
        """Finite keys from a key file, as from_lines reads its lines.  The
        whole file is read before any line is checked, so a file that is not
        valid UTF-8 raises UnicodeDecodeError even when a malformed line
        comes first."""
        return cls._load(_read_text(path), str(path))

    @classmethod
    def _load(cls, text: str, origin: str,
              lines: Sequence[str] | None = None) -> "KeySet":
        """The keys of a key file's text.  No key repeats or extends another
        exactly when no adjacent pair of their sorted view shares as many bits
        as its shorter key (keys tied on their zero-padded bits sort in any
        order); only a file failing that test is searched for its fault."""
        lengths, words, rows, error = _parse_text(text, lines)
        keys = cls(params=None, n=len(lengths), words=words, lengths=lengths,
                   origin=origin)
        if error is None:
            order, lcp = _sorted_view(keys)[:2]
            if not (lcp >= np.minimum(lengths[order[:-1]], lengths[order[1:]])).any():
                return keys
        raise _key_error(lengths, words, rows, error,
                         text.split("\n") if lines is None else lines)

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

    def _read_ids(self, ids: np.ndarray, start, width: int) -> np.ndarray:
        """The ids of a read of bits [start, start+width) as int64, after
        checking it: ValueError if start (an int, or one per id) or width is
        negative, IndexError if an id lies outside [0, n)."""
        lowest = start.min(initial=0) if isinstance(start, np.ndarray) else start
        if lowest < 0 or width < 0:
            raise ValueError(
                f"bit block start and width must be non-negative, got {start} and {width}")
        ids = np.asarray(ids, dtype=np.int64)
        # one max over the ids as unsigned: a negative id reads as >= 2^63
        if len(ids) and ids.view(np.uint64).max() >= self._n:
            bad = ids[(ids < 0) | (ids >= self._n)][0]
            raise IndexError(f"key id {bad} out of range (n={self._n})")
        return ids

    def bit_block(self, ids: np.ndarray, start, width: int) -> np.ndarray:
        """Bits [start, start+width) of the given keys as a (len(ids), width)
        uint8 array, `start` being an int, read from every key, or, for random
        keys, one int64 per id, each key's own start (KeySet.word takes one
        for finite keys too).  Raises KeyExhaustedError if any finite key is
        too short, ValueError if start or width is negative, and IndexError if
        an id lies outside [0, n).
        """
        ids = self._read_ids(ids, start, width)
        per_row = isinstance(start, np.ndarray)
        if width == 0:
            return np.zeros((len(ids), 0), dtype=np.uint8)
        if self._lengths is not None:
            if per_row:
                raise ValueError("bit_block reads finite keys from one start")
            end = start + width
            short = np.flatnonzero(self._lengths[ids] < end)
            if len(short) > 0:
                kid = int(ids[short[0]])
                raise KeyExhaustedError(kid, end - 1, int(self._lengths[kid]))
            # unpack the words covering [start, end), as big-endian bytes in bit order
            block = self._words[ids, start // 64:-(-end // 64)].astype(">u8")
            return np.unpackbits(block.view(np.uint8), axis=1)[:, start % 64:][:, :width]
        if (start.max(initial=0) if per_row else start) + width > MAX_BIT_INDEX:
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
        # the bit indices: one row shared by every key, or one row per key
        cols = (start.astype(np.uint64)[:, None] if per_row else _U64(start)) \
            + np.arange(width, dtype=np.uint64)
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
            np.bitwise_xor(band[:, None], cols if cols.ndim == 1 else cols[a:a + step],
                           out=hb)
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

    def word(self, ids: np.ndarray, start, width: int = 64) -> np.ndarray:
        """Bits start .. start+width-1 (width <= 64) of each key as a uint64, MSB
        first and zero below; a finite key reads 0 past its end.  `start` is
        an int, read from every key, or one int64 per id, each key's own
        start.  Raises as bit_block does for a negative start or width and
        for an id outside [0, n), and ValueError for a width over 64."""
        if width > 64:
            raise ValueError(f"a word holds at most 64 bits, got width {width}")
        if self._words is not None:
            ids = self._read_ids(ids, start, width)
            # words j and j + 1 of each key, a column past the store's last reading 0
            start = np.asarray(start)
            j, s = start >> 6, (start & 63).astype(np.uint64)
            last = self._words.shape[1] - 1
            out = self._words[ids, np.minimum(j, last)] << s
            out[j > last] = 0
            if (j < last).any():   # numpy shifts a uint64 by 64 to 0
                nxt = self._words[ids, np.minimum(j + 1, last)] >> (_U64(64) - s)
                out |= np.where(j < last, nxt, _U64(0))
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
    up to the longest finite key's end: in a prefix-free set zero padding
    neither ties two keys nor lengthens an LCP.  In a set that is not
    prefix-free, which the loader checks on this view, runs still tied at the
    longest key's end stop there, so their LCP reaches every key's length.
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


def _sorted_view(keys: KeySet):
    """_sorted_lcp(keys) for the whole set, computed once per key set and
    read-only, for the loader's check and every profile and compression of
    it.  Two threads meeting an unsorted set may both sort it, to equal views."""
    view = keys._view
    if view is None:
        view = _sorted_lcp(keys)
        for a in view:
            a.flags.writeable = False
        keys._view = view
    return view


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


def load_queries(path) -> tuple[np.ndarray, np.ndarray]:
    """The queries of a query file, in file order, as the (n,) int64 lengths
    and the (n, ceil(max_len / 64)) uint64 words of their bits, MSB first and
    zero padded.  Lines read as load_keys reads them, and the first malformed
    line raises KeyFileError; queries may repeat and extend each other."""
    lengths, words, _, error = _parse_text(_read_text(path))
    if error is not None:
        raise error
    return lengths, words


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


def _read_text(path) -> str:
    """A key file's whole text, its line ends read as LF and a leading byte
    order mark dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _parse_text(text: str, lines: Sequence[str] | None = None) -> tuple:
    """(lengths, words, rows, error) of the keys of a key file's text, in
    file order: the (n,) int64 lengths, the (n, ceil(max_len / 64)) uint64
    words, bits MSB first and zero padded (at least one word a key), each
    key's 0-based line, and the KeyFileError of the first malformed line,
    past which the keys are incomplete, or None.  Line i + 1 is the text up
    to its i-th LF; `lines`, if given, holds the same lines, to read those
    the bytes do not settle from.  Keys may repeat and extend each other.

    The lines _bulk_lines does not settle are stripped and given to it once
    more.  Those it still does not settle (odd spellings such as 0010 or
    /024, out-of-range and malformed lines) are parsed by _parse_key in file
    order, up to the first malformed one.
    """
    settled, cidr, addr, plen, groups = _bulk_lines(_utf8(text))
    rest, texts = np.flatnonzero(~settled), []
    if len(rest):
        # the other lines stripped and read in bulk once more, so that a
        # padded file costs a strip a line, not a _parse_key call; an inner
        # LF, which only from_lines can pass, stands in as a lone CR
        if lines is None:
            lines = text.split("\n")
        texts = [lines[i].strip() for i in rest.tolist()]
        again, cidr2, addr2, plen2, groups2 = _bulk_lines(_utf8(
            "".join("\r\n" if "\n" in line else line + "\n" for line in texts)))
        cidr = np.concatenate((cidr, rest[cidr2]))
        addr = np.concatenate((addr, addr2))
        plen = np.concatenate((plen, plen2))
        groups += [(length, rest[group], block) for length, group, block in groups2]
        texts = [line for line, done in zip(texts, again.tolist()) if not done]
        rest = rest[~again]
    # every line still left through _parse_key, up to the first malformed one
    other, other_keys, error = [], [], None
    for i, line in zip(rest.tolist(), texts):
        if line and line[0] != "#":
            try:
                other_keys.append(_parse_key(line, i + 1))
            except KeyFileError as exc:
                error = exc
                break
            other.append(i)
    # the keys in file order: a length and the bits, left-aligned in 64-bit
    # words and zero padded
    is_key = np.zeros(len(settled), dtype=bool)
    is_key[cidr] = True
    is_key[other] = True
    for _, group, _ in groups:
        is_key[group] = True
    rows = np.flatnonzero(is_key)
    at = np.cumsum(is_key) - 1
    lengths = np.empty(len(rows), dtype=np.int64)
    lengths[at[cidr]] = plen
    lengths[at[other]] = [length for length, _ in other_keys]
    for length, group, _ in groups:
        lengths[at[group]] = length
    width = max(1, -(-int(lengths.max(initial=0)) // 64))
    words = np.zeros((len(rows), width), dtype=np.uint64)
    host = 32 - plen
    words[at[cidr], 0] = ((addr >> host) << host).astype(np.uint64) << _U64(32)
    for length, group, block in groups:
        span = -(-length // 64)
        packed = np.zeros((len(group), 8 * span), dtype=np.uint8)
        packed[:, :-(-length // 8)] = np.packbits(block & 1, axis=1)
        words[at[group], :span] = packed.view(">u8")
    words[at[other]] = np.frombuffer(b"".join(
        (value << (64 * width - length)).to_bytes(8 * width, "big")
        for length, value in other_keys), dtype=">u8").reshape(-1, width)
    return lengths, words, rows, error


def _utf8(text: str) -> np.ndarray:
    """The UTF-8 bytes of a key file's text, its last line ended by a LF.  A
    lone surrogate, which only from_lines can pass, encodes to bytes that no
    key line holds."""
    if not text.endswith("\n"):
        text += "\n"
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)


def _bulk_lines(data: np.ndarray) -> tuple:
    """The lines of a key file's UTF-8 bytes, each ended by a LF, that the
    bytes settle, found in a few numpy passes over the bytes and their
    non-digits, with no Python call per line:
    - skipped: empty, or starting with '#';
    - plain CIDR: exactly d{1,3}.d{1,3}.d{1,3}.d{1,3}/d{1,2}, its octets at
      most 255 and its length at most 32;
    - 0/1: only '0' and '1' bytes, read a length at a time.
    Returns (settled, cidr, addr, plen, groups): a bool per line; the plain
    CIDR lines with their 32-bit addresses and lengths; and a (length,
    lines, their bytes) group for each length of the 0/1 lines.
    """
    # the non-digit bytes, among them each line's LF; positions are int32
    # where they fit, half the memory of flatnonzero's int64
    index = np.int32 if len(data) <= np.iinfo(np.int32).max else np.int64
    sep = np.flatnonzero(data - np.uint8(48) > 9).astype(index)
    sep_byte = data[sep]
    ends = np.flatnonzero(sep_byte == 10).astype(index)
    inner = np.diff(ends, prepend=-1) - 1   # non-digits in the line before its LF
    begin = np.concatenate((np.zeros(1, dtype=index), sep[ends[:-1]] + 1))
    size = sep[ends] - begin                # bytes in the line
    skip = (size == 0) | (data[begin] == ord("#"))
    settled = skip.copy()
    # plain CIDR: the line's four non-digits are '.' '.' '.' '/', and its
    # five digit runs, the last one before the LF, hold 1-3 digits (1-2 in
    # the last) and a number of at most 255 (32 in the last)
    cidr = np.flatnonzero(inner == 4)
    last, prev = ends[cidr], begin[cidr] - 1
    ok = np.ones(len(cidr), dtype=bool)
    fields = np.zeros(len(cidr), dtype=np.int64)   # a byte a field
    for k, (byte, most, top) in enumerate(_CIDR_FIELDS):
        tok = last + (k - 4)
        pos = sep[tok]
        digits, prev = pos - prev - 1, pos
        # the number from the run's last three bytes, those before it weighted 0
        num = ((data[pos - 1] - 48) + (digits > 1) * 10 * (data[pos - 2] - 48)
               + (digits > 2) * 100 * (data[pos - 3] - 48))
        ok &= (sep_byte[tok] == byte) & (digits > 0) & (digits <= most) & (num <= top)
        fields = fields << 8 | num
    cidr, fields = cidr[ok], fields[ok]
    addr, plen = fields >> 8, fields & 255
    settled[cidr] = True
    # 0/1 lines: digits only, none above '1'; one byte gather per length
    bin_lines = np.flatnonzero((inner == 0) & ~skip)
    size = size[bin_lines]
    by_size = np.argsort(size, kind="stable")
    sizes, cuts = np.unique(size[by_size], return_index=True)
    groups = []
    for length, group in zip(sizes.tolist(), np.split(bin_lines[by_size], cuts[1:])):
        block = np.lib.stride_tricks.sliding_window_view(data, length)[begin[group]]
        ok = (block < ord("2")).all(axis=1)
        if ok.any():
            groups.append((length, group[ok], block[ok]))
            settled[group[ok]] = True
    return settled, cidr, addr, plen, groups


def _key_error(lengths: np.ndarray, words: np.ndarray, rows: np.ndarray,
               error: KeyFileError | None, lines: Sequence[str]) -> KeyFileError:
    """The first fault of a key file, as KeySet.from_lines states it, from
    _parse_text's keys and error, in one pass in file order."""
    if error is not None:   # only the keys above the malformed line count
        rows = rows[rows < error.line_no - 1]
    width = words.shape[1]
    packed = words.astype(">u8")
    seen = {}
    for i, (length, row) in enumerate(zip(lengths.tolist(), rows.tolist())):
        key = (length, int.from_bytes(packed[i].tobytes(), "big")
               >> (64 * width - length))
        first = seen.setdefault(key, row + 1)
        if first != row + 1:
            return DuplicateKeyError(
                f"duplicate key {lines[row].strip()!r} (same bits as line "
                f"{first})", row + 1)
    if error is not None:
        return error
    sizes = sorted({length for length, _ in seen})
    for (length, value), line_no in seen.items():
        for k in sizes[:sizes.index(length)]:   # the shortest first
            first = seen.get((k, value >> (length - k)))
            if first is not None:
                return NestedKeyError(
                    f"key extends the {k}-bit key on line {first}", line_no)
    raise AssertionError("no key repeats or extends another")


def _decimal(text: str) -> int | None:
    """The value of a string of ASCII decimal digits, else None: int() alone
    would also take a sign, spaces, underscores and non-ASCII digits."""
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
