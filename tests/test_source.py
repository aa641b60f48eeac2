import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import alctrie.source
from alctrie.source import (
    DuplicateKeyError,
    KeyExhaustedError,
    KeyFileError,
    KeySet,
    NestedKeyError,
    SourceParams,
    generate_keys,
    load_keys,
    parse_key_line,
    prefix_log_probability,
    prefix_probability,
)

# the key file loader parses in bulk with numpy and re: a deprecation raised
# on alctrie's behalf fails these tests instead of printing a warning.  Only
# alctrie's: Hypothesis's failure report imports modules that warn too, and an
# error there would end the session with the falsifying example unseen
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning:alctrie")


def test_params_validation():
    with pytest.raises(ValueError):
        SourceParams(0.0, 1)
    with pytest.raises(ValueError):
        SourceParams(1.0, 1)
    with pytest.raises(ValueError):
        SourceParams(0.5, -1)
    SourceParams(0.5, (1 << 64) - 1)


def test_generate_empty():
    ks = generate_keys(SourceParams(0.5, 123), 0)
    assert len(ks) == 0
    assert list(ks) == []


def test_generate_degenerate_p():
    ks = generate_keys(SourceParams(1.0 - 1e-9, 7), 3)
    bits = ks.bit_matrix(10_000)
    assert bits.mean() > 0.999


def test_law_of_large_numbers():
    # independent tally of the first 1e5 bits of one key at p = 0.7
    ks = generate_keys(SourceParams(0.7, 20240601), 1)
    bits = ks.bit_matrix(100_000)
    assert abs(float(bits.mean()) - 0.7) <= 0.005


def test_reproducibility_and_order_independence():
    a = generate_keys(SourceParams(0.3, 99), 8)
    b = generate_keys(SourceParams(0.3, 99), 8)
    # query b in a different order and granularity than a
    wide = a.bit_matrix(70)
    cols = [b.bit_block(np.arange(8), start, 7) for start in (63, 21, 0, 42)]
    assert (cols[2] == wide[:, 0:7]).all()
    assert (cols[1] == wide[:, 21:28]).all()
    assert (cols[3] == wide[:, 42:49]).all()
    assert (cols[0] == wide[:, 63:70]).all()
    # single-bit access agrees with bulk access
    assert a[3].bit(17) == int(wide[3, 17])


def test_distinct_seeds_differ():
    a = generate_keys(SourceParams(0.5, 1), 4).bit_matrix(64)
    b = generate_keys(SourceParams(0.5, 2), 4).bit_matrix(64)
    assert (a != b).any()


def test_subset_invariance():
    # key j's bits do not depend on how many keys the set holds
    big = generate_keys(SourceParams(0.6, 5), 50).bit_matrix(32)
    small = generate_keys(SourceParams(0.6, 5), 3).bit_matrix(32)
    assert (big[:3] == small).all()


def test_load_single_bits(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_text("# comment\n0\n1\n")
    ks = load_keys(path)
    assert len(ks) == 2
    assert ks[0].length == 1 and ks[1].length == 1
    assert ks[0].bit(0) == 0 and ks[1].bit(0) == 1


def test_load_cidr(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_text("10.0.0.0/8\n")
    ks = load_keys(path)
    assert ks[0].prefix(8) == (0, 0, 0, 0, 1, 0, 1, 0)
    assert ks[0].length == 8


def test_load_duplicates_rejected(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_text("01\n01\n")
    with pytest.raises(DuplicateKeyError) as err:
        load_keys(path)
    assert err.value.line_no == 2


def test_duplicate_across_formats(tmp_path):
    # the CIDR form of the same bits counts as a duplicate
    path = tmp_path / "keys.txt"
    path.write_text("00001010\n10.0.0.0/8\n")
    with pytest.raises(DuplicateKeyError):
        load_keys(path)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_text("01\nhello\n")
    with pytest.raises(KeyFileError) as err:
        load_keys(path)
    assert err.value.line_no == 2
    for bad in ("1.2.3.4/33", "1.2.3/8", "1.2.3.999/8", "1.2.3.x/8", "0.0.0.0/x"):
        with pytest.raises(KeyFileError):
            parse_key_line(bad, 1)


# -- key files ----------------------------------------------------------------
#
# A reference loader in the form the package first had: each key a tuple of
# bits, duplicates and nested keys found on those tuples, the matrix filled
# row by row.

_DIGITS = frozenset("0123456789")


def _ref_parse(line, line_no):
    if "/" in line:
        addr, _, plen_s = line.partition("/")
        if not plen_s or not set(plen_s) <= _DIGITS:
            raise KeyFileError(f"bad prefix length {plen_s!r}", line_no)
        plen = int(plen_s)
        if plen > 32:
            raise KeyFileError(f"prefix length {plen} outside 0..32", line_no)
        octets = addr.split(".")
        if len(octets) != 4:
            raise KeyFileError(f"bad IPv4 address {addr!r}", line_no)
        bits = []
        for o in octets:
            if not o or not set(o) <= _DIGITS:
                raise KeyFileError(f"bad IPv4 octet {o!r}", line_no)
            if int(o) > 255:
                raise KeyFileError(f"IPv4 octet {int(o)} exceeds 255", line_no)
            bits.extend(int(c) for c in format(int(o), "08b"))
        return tuple(bits[:plen])
    if not set(line) <= {"0", "1"}:
        raise KeyFileError(f"expected 0/1 characters or CIDR, got {line!r}", line_no)
    return tuple(int(c) for c in line)


def _ref_load(lines, parse=_ref_parse):
    keys, seen = [], {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        bits = parse(line, line_no)
        if bits in seen:
            raise DuplicateKeyError(
                f"duplicate key {line!r} (same bits as line {seen[bits]})", line_no
            )
        seen[bits] = line_no
        keys.append(bits)
    for bits, line_no in seen.items():
        # the shortest other key this one starts with (a CIDR /0 is () and
        # starts every key)
        extended = [other for other in seen
                    if len(other) < len(bits) and bits[:len(other)] == other]
        if extended:
            other = min(extended, key=len)
            raise NestedKeyError(f"key extends the {len(other)}-bit key on line "
                                 f"{seen[other]}", line_no)
    mat = np.zeros((len(keys), max(map(len, keys), default=0)), dtype=np.uint8)
    for i, bits in enumerate(keys):
        mat[i, :len(bits)] = list(bits)
    return mat, np.array([len(b) for b in keys], dtype=np.int64)


_BAD_LINES = [
    "1.2.3.\u00b2/24", "\u0663.2.3.4/8", "1.2.3.4/\u0663", "1.2.3.4/+8", "1.2.3.4/-0",
    "1.2.3.4/-1", "1.2.3.4/ 8", "1.2.3.4/0_8", "1.2.3.4/", "1.2.3.4/33",
    "1.2.3/8", "1.2.3.4.5/8", "1..3.4/8", "/8", "1.2.3.256/8", "1.2.3.0256/8",
    "1.2.3.x/8", "0.0.0.0/x", "1.2.3.4/8/9", "0102", "01 10", "0b101", "1_0",
    "hello", "\u0661\u0660",
]


@st.composite
def _cidr_line(draw, bits):
    host = draw(st.integers(0, 2 ** (32 - len(bits)) - 1))
    addr = (int("".join(map(str, bits)) or "0", 2) << (32 - len(bits))) | host
    octets = [str((addr >> s) & 255) for s in (24, 16, 8, 0)]
    pad = draw(st.lists(st.sampled_from(["", "0", "00"]), min_size=4, max_size=4))
    return ".".join(z + o for z, o in zip(pad, octets)) + f"/{len(bits)}"


@st.composite
def _key_files(draw):
    length = st.one_of(st.integers(0, 32), st.sampled_from([0, 32]),
                       st.integers(33, 200))
    pool = draw(st.lists(length.flatmap(
        lambda k: st.tuples(*[st.integers(0, 1)] * k)), min_size=1, max_size=6))
    # about a third of the entries another entry plus trailing zeros: keys
    # tied on their zero-padded bits, which sort in any order
    for i in range(len(pool)):
        if draw(st.integers(0, 2)) == 0:
            pool[i] = draw(st.sampled_from(pool)) + (0,) * draw(st.integers(1, 70))
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(
            ["key"] * 6 + ["comment", "blank", "bad", "text", "cidr"]))
        if kind == "key":
            bits = draw(st.sampled_from(pool))
            as_cidr = len(bits) <= 32 and (not bits or draw(st.booleans()))
            line = (draw(_cidr_line(bits)) if as_cidr
                    else "".join(map(str, bits)))
        elif kind == "comment":
            line = "#" + draw(st.text(alphabet="01./ x", max_size=8))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t"]))
        elif kind == "bad":
            line = draw(st.sampled_from(_BAD_LINES))
        elif kind == "cidr":  # numbers at and past their bounds
            octet = st.one_of(st.integers(0, 255), st.sampled_from([255, 256, 999]))
            octets = draw(st.lists(octet.map(str), min_size=4, max_size=4))
            line = ".".join(octets) + "/" + str(draw(st.integers(0, 33)))
        else:
            line = draw(st.text(alphabet="01./+-_ #9\u00b2", max_size=12))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(pad + line + pad + draw(st.sampled_from(["\n", "\r\n"])))
    return lines


@settings(max_examples=400, deadline=None)
@given(lines=_key_files())
def test_loader_matches_reference_tuple_loader(lines):
    _assert_loads_as(lambda: KeySet.from_lines(lines), lines)


@pytest.mark.parametrize("lines, message", [
    # a duplicate between nested keys with the same zero-padded bits
    (["0", "00", "0"], "line 3: duplicate key '0' (same bits as line 1)"),
    (["10.0.0.0/8", "10.0.0.0/16", "00001010"],
     "line 3: duplicate key '00001010' (same bits as line 1)"),
    # ... with a malformed line before the duplicate, and after it
    (["0", "00", "hello", "0"],
     "line 3: expected 0/1 characters or CIDR, got 'hello'"),
    (["0", "00", "0", "hello"], "line 3: duplicate key '0' (same bits as line 1)"),
    (["10.0.0.0/8", "10.0.0.0/16", "1.2.3.4/33", "00001010"],
     "line 3: prefix length 33 outside 0..32"),
    (["10.0.0.0/8", "10.0.0.0/16", "00001010", "1.2.3.4/33"],
     "line 3: duplicate key '00001010' (same bits as line 1)"),
    # a nested pair, the longer key first in file order
    (["00", "0"], "line 1: key extends the 1-bit key on line 2"),
    (["10.0.0.0/16", "1", "10.0.0.0/8"], "line 1: key extends the 8-bit key on line 3"),
    (["0000101000000000", "10.0.0.0/8"], "line 1: key extends the 8-bit key on line 2"),
])
def test_faults_among_keys_tied_on_their_padded_bits(tmp_path, lines, message):
    # keys equal on their zero-padded bits sort in any order, so the check
    # on the sorted view must hold for either key of a pair first
    path = tmp_path / "keys.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for load in (lambda: KeySet.from_lines(lines), lambda: load_keys(path)):
        _assert_loads_as(load, lines)
        with pytest.raises(KeyFileError) as err:
            load()
        assert str(err.value) == message


def _assert_loads_as(load, lines, parse=_ref_parse):
    """load() gives the keys _ref_load finds in the lines, or raises its
    first fault: the same type, line number and text."""
    try:
        mat, lengths = _ref_load(lines, parse)
    except KeyFileError as exc:
        with pytest.raises(KeyFileError) as err:
            load()
        assert type(err.value) is type(exc)
        assert (err.value.line_no, str(err.value)) == (exc.line_no, str(exc))
        return
    ks = load()
    _assert_words_hold(ks, mat)
    assert ks._lengths.dtype == np.int64 and np.array_equal(ks._lengths, lengths)
    assert len(ks) == len(lengths)


# padding that str.strip drops and a text-mode file does not split lines at
_PAD = st.text(alphabet="\t\x0b\x1c\xa0 ", max_size=2)


@st.composite
def _key_file_text(draw):
    """A key file's text: keys from a small pool, so that some repeat or
    nest, in plain CIDR, in spellings the bulk read leaves to _parse_key
    (0010, /024), as 0/1 strings of 0-200 bits, and with out-of-range
    numbers; lines of digits other than 0/1; blank lines and comments holding non-ASCII text; keys padded
    with ASCII and Unicode whitespace; LF, CRLF and lone-CR line ends; and
    maybe a byte order mark."""
    def keys(most):   # 0/1 strings of at most `most` bits
        return st.integers(0, most).flatmap(lambda k: st.integers(0, 2**k - 1).map(
            lambda v: format(v, f"0{k}b")[:k]))

    short = draw(st.lists(keys(32), min_size=1, max_size=3))
    pool = short + draw(st.lists(keys(200), max_size=3))
    text = "\ufeff" if draw(st.booleans()) else ""
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["cidr"] * 4 + ["bits"] * 3
                                    + ["range", "digits", "comment", "blank"]))
        if kind == "cidr":
            line = draw(_cidr_line(draw(st.sampled_from(short))))
            if draw(st.booleans()):   # /024, or /008 where /8 is plain
                address, _, plen = line.partition("/")
                line = f"{address}/{plen:0>3}"
        elif kind == "bits":
            line = draw(st.sampled_from(pool))
        elif kind == "range":   # one number past its bound
            line = draw(st.sampled_from(["1.2.3.256/24", "256.0.0.0/8",
                                         "10.0.0.0/33", "0.0.0.0/99"]))
        elif kind == "digits":   # such as 0102, which is no 0/1 key
            line = draw(st.text(alphabet="0129", min_size=1, max_size=5))
        elif kind == "comment":
            line = "#" + draw(st.text(alphabet="01./ xé€\u00b2\U0001f600", max_size=8))
        else:
            line = ""
        line = draw(_PAD) + line + draw(_PAD)
        text += line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return text


@settings(max_examples=300, deadline=None)
@given(text=_key_file_text())
def test_key_file_loads_as_a_per_line_build(tmp_path_factory, text):
    # the reference reads the file a line at a time and every key through
    # _parse_key: the byte classifier must agree on keys and faults alike
    path = tmp_path_factory.getbasetemp() / "keys.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8-sig") as fh:
        lines = list(fh)
    _assert_loads_as(lambda: load_keys(path), lines, parse_key_line)


def test_from_lines_element_holding_a_line_end():
    # an element is one line, whatever it holds: an inner LF is part of a
    # malformed line, a trailing one is stripped, a comment runs to its end
    for lines in (["01", "1\n0", "11"], ["01\n", "# x\n10", "11\r\n", "\n00"],
                  ["\n", "10.0.0.0/8\n", " 0\n"]):
        _assert_loads_as(lambda: KeySet.from_lines(lines), lines)
    with pytest.raises(KeyFileError) as err:
        KeySet.from_lines(["01", "1\n0", "11"])
    assert str(err.value) == "line 2: expected 0/1 characters or CIDR, got '1\\n0'"


def test_plain_lines_load_without_the_line_parser(tmp_path, monkeypatch):
    # plain CIDR and 0/1 lines are read in bulk, padded or not: _parse_key
    # never runs on them
    def refuse(line, line_no):
        raise AssertionError(f"line {line_no} parsed alone: {line!r}")

    rng = random.Random(26)
    values = rng.sample(range(1 << 24), 2000)
    cidr = [f"{v >> 16}.{(v >> 8) & 255}.{v & 255}.0/24" for v in values]
    bits = [format(v, "024b") + format(rng.getrandbits(k), f"0{k}b")[:k]
            for v, k in zip(values, itertools.cycle(range(0, 41, 8)))]
    padded = [rng.choice(["", " ", "\t"]) + line + rng.choice(["", " \xa0"])
              for line in cidr[:1000] + bits[1000:]]
    files = (cidr, bits, padded)
    expected = [_ref_load(lines) for lines in files]
    monkeypatch.setattr(alctrie.source, "_parse_key", refuse)
    for lines, (mat, lengths) in zip(files, expected):
        path = tmp_path / "keys.txt"
        path.write_text("# a comment\n\n" + "\n".join(lines) + "\n")
        ks = load_keys(path)
        _assert_words_hold(ks, mat)
        assert np.array_equal(ks._lengths, lengths)


def _assert_words_hold(ks, mat):
    """The finite key set stores the rows of the bit matrix `mat` as uint64
    words, MSB first and zero padded to whole words, at least one per key."""
    words = ks._words
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    assert words.shape == (len(mat), max(1, -(-mat.shape[1] // 64)))
    bits = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1)
    assert np.array_equal(bits[:, :mat.shape[1]], mat)
    assert not bits[:, mat.shape[1]:].any()


def _large_key_file(rng, n):
    """n key lines in every spelling the loader takes, with blank lines and
    comments among them.  No key extends another: 16 keys are /8s in the
    first octets 0-15, and every other key starts with its own 20 bits past
    those, the 0/1 ones running to one, two and three 64-bit words."""
    lines = [f"{o:03d}.0.0.0/{rng.choice(['8', '08', '008'])}" for o in range(16)]
    for head in rng.sample(range(16 << 12, 1 << 20), n - 16):
        kind = rng.random()
        if kind < 0.85:
            addr = head << 12 | rng.getrandbits(12)
            numbers = [str(addr >> s & 255) for s in (24, 16, 8, 0)]
            numbers.append(str(rng.randint(20, 32)))
            if kind < 0.1:   # leading zeros the bulk read takes: 010.001.2.3/24
                numbers[:4] = [x.zfill(3) for x in numbers[:4]]
            elif kind < 0.2:   # and spellings it leaves to _parse_key: 0010, /024
                numbers = [rng.choice(["0", "00"]) + x for x in numbers]
            lines.append(".".join(numbers[:4]) + "/" + numbers[4])
        else:
            tail = rng.randint(0, 170)
            bits = format(rng.getrandbits(tail), f"0{tail}b")[:tail]
            lines.append(format(head, "020b") + bits)
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "\t", "# 10.0.0.0/8", "#0101"]))
    rng.shuffle(lines)
    return lines


def _write_key_file(rng, path, lines):
    """The lines padded with spaces and tabs, ended by LF or CRLF, after a
    byte order mark."""
    text = "".join(rng.choice(["", " ", "\t"]) + line + rng.choice(["", " "])
                   + rng.choice(["\n", "\r\n"]) for line in lines)
    path.write_text(text, encoding="utf-8-sig", newline="")


def test_large_mixed_key_file_matches_a_per_line_build(tmp_path):
    rng = random.Random(16)
    lines = _large_key_file(rng, 20_000)
    path = tmp_path / "keys.txt"
    _write_key_file(rng, path, lines)
    ks = load_keys(path)
    keys = [alctrie.source._parse_key(line, no) for no, line in enumerate(lines, 1)
            if line.strip() and not line.startswith("#")]
    assert len(keys) == 20_000
    lengths = np.array([length for length, _ in keys], dtype=np.int64)
    assert lengths.max() > 128 and lengths.min() == 8
    mat = np.zeros((len(keys), lengths.max()), dtype=np.uint8)
    for i, (length, value) in enumerate(keys):
        mat[i, :length] = [int(c) for c in format(value, f"0{length}b")]
    assert np.array_equal(ks._lengths, lengths)
    _assert_words_hold(ks, mat)


def test_one_long_key_among_short_ones_is_stored_in_words():
    # one 50,000-bit key among 2,000 /24s: 782 words a key, where a byte per
    # bit came to 95 MiB
    rng = random.Random(49)
    long_key = "1" + "".join(rng.choice("01") for _ in range(49_999))
    lines = [f"10.{i >> 8}.{i & 255}.0/24" for i in range(2000)] + [long_key]
    ks = KeySet.from_lines(lines)
    assert ks._words.nbytes == 2001 * 782 * 8
    assert ks[2000].prefix(50_000) == tuple(map(int, long_key))
    assert ks.word(np.array([1999, 2000]), 49_990, 12).tolist() == \
        [0, int(long_key[49_990:], 2) << 54]


@pytest.mark.parametrize("bad, message", [
    ("10.20.30.256/24", "IPv4 octet 256 exceeds 255"),   # read in bulk
    ("10.20.30.40/0x8", "bad prefix length '0x8'"),      # read line by line
])
@pytest.mark.parametrize("bad_at, dup_at", [(15_000, 17_000), (17_000, 12_000)])
def test_first_error_of_a_large_key_file_is_raised(tmp_path, bad_at, dup_at, bad,
                                                   message):
    rng = random.Random(17)
    lines = _large_key_file(rng, 20_000)
    # a 0/1 spelling of an earlier CIDR key
    first = next(i for i in range(dup_at // 2, dup_at)
                 if "/" in lines[i] and not lines[i].startswith("#"))
    length, value = alctrie.source._parse_key(lines[first], first + 1)
    dup = format(value, f"0{length}b")
    lines[dup_at], lines[bad_at] = dup, bad
    path = tmp_path / "keys.txt"
    _write_key_file(rng, path, lines)
    with pytest.raises(KeyFileError) as err:
        load_keys(path)
    if bad_at < dup_at:
        assert type(err.value) is KeyFileError
        assert str(err.value) == f"line {bad_at + 1}: {message}"
    else:
        assert type(err.value) is DuplicateKeyError
        assert str(err.value) == (f"line {dup_at + 1}: duplicate key {dup!r} "
                                  f"(same bits as line {first + 1})")


def test_first_nested_key_of_a_large_key_file_is_raised(tmp_path):
    rng = random.Random(18)
    lines = _large_key_file(rng, 20_000)
    keys = [i for i, line in enumerate(lines) if line.strip() and line[0] != "#"]
    # two keys extending others, the first in file order above the key it extends
    for at, base in ((keys[5_000], keys[19_000]), (keys[8_000], keys[100])):
        length, value = alctrie.source._parse_key(lines[base], base + 1)
        lines[at] = format(value, f"0{length}b") + "01"
    path = tmp_path / "keys.txt"
    _write_key_file(rng, path, lines)
    with pytest.raises(NestedKeyError) as err:
        load_keys(path)
    length, _ = alctrie.source._parse_key(lines[keys[19_000]], 0)
    assert str(err.value) == (f"line {keys[5_000] + 1}: key extends the "
                              f"{length}-bit key on line {keys[19_000] + 1}")


def test_key_file_decodes_whole_before_line_errors(tmp_path):
    # the malformed line 2 is read long before the undecodable byte, yet the
    # whole file is decoded before any line is checked
    path = tmp_path / "keys.txt"
    path.write_bytes(b"01\nhello\n" + b"1100\n" * 10_000 + b"\xff\n")
    with pytest.raises(UnicodeDecodeError):
        load_keys(path)


def test_empty_key_file(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_text("# only a comment\n\n")
    for ks in (KeySet.from_lines([]), load_keys(path)):
        assert len(ks) == 0
        assert ks._words.shape == (0, 1) and ks._lengths.shape == (0,)


@pytest.mark.parametrize("line, message", [
    ("1.2.3.256/8", "IPv4 octet 256 exceeds 255"),
    ("1.2.3.4/33", "prefix length 33 outside 0..32"),
    ("1.2.3.\u00b2/24", "bad IPv4 octet '\u00b2'"),
    ("\u0663.2.3.4/8", "bad IPv4 octet '\u0663'"),
    ("1.2.3.4/+8", "bad prefix length '+8'"),
    ("1.2.3.4/-0", "bad prefix length '-0'"),
    ("1.2.3.4/ 8", "bad prefix length ' 8'"),
    ("1.2.3.4/0_8", "bad prefix length '0_8'"),
    ("1.2.3.4/" + "9" * 5000, f"bad prefix length '{'9' * 5000}'"),
    ("1.2.3." + "9" * 5000 + "/8", f"bad IPv4 octet '{'9' * 5000}'"),
    # near misses of the shapes the byte classifier reads in bulk
    ("1..3.4/8", "bad IPv4 octet ''"),
    (".1.2.3/4", "bad IPv4 octet ''"),
    ("1.2.3.4/", "bad prefix length ''"),
    ("1.2.3.4/8/9", "bad prefix length '8/9'"),
    ("1.2.3.1000/8", "IPv4 octet 1000 exceeds 255"),
    ("1.2.3.4/100", "prefix length 100 outside 0..32"),
    ("0102", "expected 0/1 characters or CIDR, got '0102'"),
    ("2", "expected 0/1 characters or CIDR, got '2'"),
])
def test_cidr_number_errors_name_the_line(line, message):
    # past the first two lines, int() would take each number, or fail
    # without a line number
    with pytest.raises(KeyFileError) as err:
        KeySet.from_lines(["0", line])
    assert err.value.line_no == 2
    assert str(err.value) == f"line 2: {message}"


def test_parse_key_line_gives_bit_tuples():
    assert parse_key_line("10.0.0.0/8") == (0, 0, 0, 0, 1, 0, 1, 0)
    assert parse_key_line("010.000.0.1/32") == (0, 0, 0, 0, 1, 0, 1, 0) + (0,) * 23 + (1,)
    assert parse_key_line("0.0.0.0/0") == ()
    assert parse_key_line("0" * 70 + "1") == (0,) * 70 + (1,)
    assert parse_key_line("") == ()
    # one pass over the bits: a 300,000-bit line parses in well under a second
    line = "".join(random.Random(5).choice("01") for _ in range(300_000))
    assert parse_key_line("1" + line) == tuple(int(c) for c in "1" + line)
    assert parse_key_line("0" + line) == tuple(int(c) for c in "0" + line)


def test_finite_key_exhaustion():
    ks = KeySet.from_lines(["01", "10"])
    assert ks[0].bit(1) == 1
    with pytest.raises(KeyExhaustedError):
        ks[0].bit(2)
    # past a key's end but within the zero-padded row of a longer key
    with pytest.raises(KeyExhaustedError):
        KeySet.from_lines(["01", "100"])[0].bit(2)
    with pytest.raises(KeyExhaustedError):
        ks.bit_block(np.array([0, 1]), 0, 3)


def test_prefix_probability_empty():
    params = SourceParams(0.31, 0)
    assert prefix_probability(params, "") == 1.0
    assert prefix_probability(params, ()) == 1.0


def test_prefix_probability_hand_value():
    # p * q for "10" at p = 0.7
    assert prefix_probability(SourceParams(0.7, 0), "10") == pytest.approx(0.21)


def test_prefix_probability_symmetric_source():
    params = SourceParams(0.5, 0)
    for k in (1, 5, 12, 40):
        r = "01" * (k // 2) + "1" * (k % 2)
        assert prefix_probability(params, r) == pytest.approx(2.0**-k, rel=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_prefix_probabilities_sum_to_one(p):
    params = SourceParams(p, 0)
    for k in range(0, 13):
        total = math.fsum(
            prefix_probability(params, bits)
            for bits in itertools.product((0, 1), repeat=k)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_log_and_linear_probability_agree():
    params = SourceParams(0.42, 0)
    rng = np.random.default_rng(5)
    for length in (1, 8, 33, 64):
        r = tuple(int(b) for b in rng.integers(0, 2, size=length))
        lin = prefix_probability(params, r)
        via_log = math.exp(prefix_log_probability(params, r))
        assert via_log == pytest.approx(lin, rel=1e-12)


def test_bit_values_are_pure_functions():
    # the same (seed, id, index) triple gives the same bit even when read
    # through unrelated KeySet instances and block shapes
    p = SourceParams(0.55, 31337)
    one = generate_keys(p, 10)
    other = generate_keys(p, 10)
    idx = np.array([9, 2, 4])
    assert (one.bit_block(idx, 13, 5) == other.bit_block(idx, 13, 5)).all()


# -- the bit stream, pinned -------------------------------------------------
#
# Bits of random keys at seed 20240601, recorded from the float-comparison
# kernel this package shipped with.  For each p: the bits at indices
# PINNED_INDICES of each key in PINNED_IDS, then bits 0..127 of each key as
# one hex word, MSB first.

PINNED_SEED = 20240601
PINNED_IDS = (0, 1, 4096, 2**32 - 2)
PINNED_INDICES = (0, 63, 64, 65, 2**32 - 1)
PINNED_BITS = {
    0.1: (("00010", "00000", "00000", "00000"),
          (0x100010011000004028400000064580, 0x2840400008800000000042440000044,
           0x800040000001402000048034002000, 0x2000082008400100000204004800001)),
    0.5: (("10110", "01001", "01001", "00111"),
          (0xf1b353b437748d84c82a4e14838645b9, 0x3b717739add7e353e87f535793f216f,
           0x91686f1dbd2bc130b3edfdbd30efaa, 0x2f8468a631c55cf0cdc7f452a5e910bf)),
    0.7: (("10111", "11101", "11001", "01111"),
          (0xf5fb53b63f7d8f96fa2b4eb4a38e45f9, 0x87f7d7739efd7e3dbe9ff53d7bff656f,
           0x93fbfbffddfd3fc936b3fffdfffaefbe, 0x2fd56cff39d5dcf1cfe7fc5fa5efdabf)),
    0.9: (("10111", "11111", "11111", "01111"),
          (0xfffff7fffffffff6fbffdfbffbfe7fff, 0xcff7fffbdfffffbdff9ff77d7fffe57f,
           0xb3fbffffffffbffffffffffffffbfffe, 0x7ff77fff79fffef3fffffdffffffffff)),
}


@pytest.mark.parametrize("p", sorted(PINNED_BITS))
def test_bit_stream_is_pinned(p):
    ks = generate_keys(SourceParams(p, PINNED_SEED), 2**32 - 1)
    singles, words = PINNED_BITS[p]
    ids = np.array(PINNED_IDS, dtype=np.int64)
    for row, kid in enumerate(PINNED_IDS):
        want = [int(c) for c in singles[row]]
        assert [ks[kid].bit(i) for i in PINNED_INDICES] == want
        assert [int(ks.bit_block(ids, i, 1)[row, 0]) for i in PINNED_INDICES] == want
    block = ks.bit_block(ids, 0, 128)
    for row, word in enumerate(words):
        want = [(word >> (127 - j)) & 1 for j in range(128)]
        assert block[row].tolist() == want
        assert list(ks[PINNED_IDS[row]].prefix(128)) == want


# A pure-Python statement of the bit hash: two rounds of the Murmur3 64-bit
# finalizer over (key id << 32 | bit index), whitened by two seed words, and a
# float comparison of the top 53 hash bits with p.

_M64 = (1 << 64) - 1
_GOLDEN_RATIO_64 = 0x9E3779B97F4A7C15


def _ref_fmix(x):
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _M64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _M64
    return x ^ (x >> 33)


def _ref_hash(seed, key_id, index):
    s1 = _ref_fmix((seed ^ _GOLDEN_RATIO_64) & _M64)
    s2 = _ref_fmix((seed + _GOLDEN_RATIO_64) & _M64)
    return _ref_fmix(_ref_fmix(((key_id << 32) | index) ^ s1) ^ s2)


def _ref_bit(p, seed, key_id, index):
    return int((_ref_hash(seed, key_id, index) >> 11) * 2.0**-53 < p)


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    key_id=st.integers(min_value=0, max_value=2**32 - 2),
    index=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_scalar_bulk_and_reference_bits_agree(p, seed, key_id, index):
    ks = generate_keys(SourceParams(p, seed), key_id + 1)
    want = _ref_bit(p, seed, key_id, index)
    assert ks[key_id].bit(index) == want
    assert int(ks.bit_block(np.array([key_id]), index, 1)[0, 0]) == want


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    width=st.integers(min_value=1, max_value=80),
    chunk=st.sampled_from([64, 97, 256]),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    tie=st.sampled_from(["on", "above", None]),
)
def test_whole_blocks_match_reference_bits(data, width, chunk, seed, tie):
    # whole blocks of several hash bands each (a small band size keeps the
    # reference affordable), with p optionally set on a chosen bit's hash,
    # so that the tie of its top bits with the threshold's is decided below
    band = max(1, chunk // width)   # rows per band, as bit_block cuts them
    rows = data.draw(st.integers(min_value=band + 1, max_value=3 * band + 2))
    first = data.draw(st.integers(min_value=0, max_value=2**32 - 2))
    stride = data.draw(st.integers(min_value=1, max_value=2**32 - 2))
    ids = [(first + stride * i) % (2**32 - 1) for i in range(rows)]
    start = data.draw(st.integers(min_value=0, max_value=2**32 - width))
    if tie is None:
        p = data.draw(st.floats(min_value=0.0, max_value=1.0,
                                exclude_min=True, exclude_max=True))
    else:
        r = data.draw(st.integers(min_value=0, max_value=rows - 1))
        c = data.draw(st.integers(min_value=0, max_value=width - 1))
        top = _ref_hash(seed, ids[r], start + c) >> 11
        assume(top > 0)
        p = top * 2.0**-53 if tie == "on" else math.nextafter(top * 2.0**-53, 1.0)
    ks = generate_keys(SourceParams(p, seed), 2**32 - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alctrie.source, "_HASH_CHUNK", chunk)
        block = ks.bit_block(np.array(ids, dtype=np.int64), start, width)
    want = [[_ref_bit(p, seed, kid, start + j) for j in range(width)] for kid in ids]
    assert block.dtype == np.uint8 and block.tolist() == want
    if tie is not None:
        assert block[r, c] == (tie == "above")


def test_blocks_past_one_hash_band_match_reference_bits():
    # the shipped band size: 2 full bands of 819 rows at width 80, and a part
    seed, p, width = 4711, 0.37, 80
    rows = 2 * (alctrie.source._HASH_CHUNK // width) + 5
    ids = np.arange(2**32 - 1 - rows, 2**32 - 1, dtype=np.int64)
    start = 2**32 - width
    block = generate_keys(SourceParams(p, seed), 2**32 - 1).bit_block(ids, start, width)
    want = [[_ref_bit(p, seed, int(kid), start + j) for j in range(width)]
            for kid in ids]
    assert block.tolist() == want


def test_prefix_agrees_with_bulk_bits_at_every_length():
    # prefixes of random keys are hashed on Python ints, blocks by numpy
    ks = generate_keys(SourceParams(0.6, 2718), 5)
    block = ks.bit_block(np.arange(5), 0, 80)
    for k in (0, 1, 31, 32, 33, 64, 80):
        for kid in range(5):
            assert ks[kid].prefix(k) == tuple(block[kid, :k].tolist())


def test_bit_threshold_is_exact():
    # p sitting exactly on a bit's scaled hash gives 0; the next float up gives 1
    seed = 77
    for key_id, index in ((0, 0), (5, 64), (123, 2**32 - 1)):
        top = _ref_hash(seed, key_id, index) >> 11
        on = top * 2.0**-53
        for p, want in ((on, 0), (math.nextafter(on, 1.0), 1)):
            ks = generate_keys(SourceParams(p, seed), key_id + 1)
            assert ks[key_id].bit(index) == want
            assert int(ks.bit_block(np.array([key_id]), index, 1)[0, 0]) == want


@pytest.mark.parametrize("keys", [
    KeySet.from_lines(["0101", "1100"]),
    generate_keys(SourceParams(0.5, 1), 2),
], ids=["finite", "random"])
def test_negative_bit_index_or_width_rejected(keys):
    # a negative index would read bits from the far end of a finite key's row
    for start, width in ((-1, 1), (-2, 3), (0, -1), (2, -3)):
        with pytest.raises(ValueError, match="must be non-negative"):
            keys.bit_block(np.array([0]), start, width)
        with pytest.raises(ValueError, match="must be non-negative"):
            keys.word(np.array([0]), start, width)
    with pytest.raises(ValueError, match="must be non-negative"):
        keys.word(np.array([0, 1]), np.array([3, -1]), 2)
    for width in (65, 100):   # bit_block takes such widths, a word does not
        with pytest.raises(ValueError,
                           match=fr"^a word holds at most 64 bits, got width {width}$"):
            keys.word(np.array([0]), 0, width)
    with pytest.raises(ValueError, match="must be non-negative"):
        keys[0].bit(-1)
    with pytest.raises(ValueError, match="must be non-negative"):
        keys[0].prefix(-1)
    assert keys[0].prefix(0) == ()


@pytest.mark.parametrize("keys", [
    KeySet.from_lines(["0101", "1100", "0110"]),
    generate_keys(SourceParams(0.5, 1), 3),
], ids=["finite", "random"])
def test_key_ids_outside_the_set_rejected(keys):
    # unchecked, an id past n would hash bits of a key not in a random set,
    # and id -1 would read key n-1's row of a finite one
    for ids, bad in (([9], 9), ([-1], -1), ([0, 7, 1], 7), ([2, 3], 3),
                     ([1, -2, 5], -2)):
        with pytest.raises(IndexError, match=fr"^key id {bad} out of range \(n=3\)$"):
            keys.bit_block(np.array(ids), 0, 2)
        with pytest.raises(IndexError, match=fr"^key id {bad} out of range \(n=3\)$"):
            keys.word(np.array(ids), 0, 2)
    with pytest.raises(IndexError):
        keys.bit_block(np.array([3]), 0, 0)
    assert keys.bit_block(np.array([0, 2]), 0, 2).shape == (2, 2)
    assert keys.bit_block(np.array([], dtype=np.int64), 0, 2).shape == (0, 2)
    assert keys.word(np.array([0, 2]), 0, 2).shape == (2,)
    assert keys.word(np.array([], dtype=np.int64), 0, 2).shape == (0,)
    # and key_length would give key n-1's length for id -1
    for bad in (-1, 3, 99, np.int64(-2)):
        with pytest.raises(IndexError, match=fr"^key id {bad} out of range \(n=3\)$"):
            keys.key_length(bad)
    assert [keys.key_length(i) for i in (0, np.int64(2))] == \
        ([None, None] if keys.is_random else [4, 4])


def test_out_of_range_bit_index_rejected():
    ks = generate_keys(SourceParams(0.5, 1), 2)
    with pytest.raises(ValueError):
        ks[0].bit(2**32)
    with pytest.raises(ValueError):
        ks.bit_block(np.array([0]), 2**32 - 1, 2)


def _packed(block) -> list[int]:
    """The rows of a bit block as 64-bit words, MSB first and zero below."""
    return [int("".join(map(str, row)).ljust(64, "0"), 2) for row in block.tolist()]


def _check_words(ks, lines, start, width):
    """KeySet.word against the key lines, zero past each key's end, and
    against bit_block for the keys that reach start + width."""
    ids = np.arange(len(ks))
    got = ks.word(ids, start, width)
    assert got.dtype == np.uint64 and got.shape == (len(ks),)
    assert got.tolist() == [int(line[start:start + width].ljust(64, "0"), 2)
                            for line in lines]
    whole = ids[ks._lengths >= start + width]
    assert got[whole].tolist() == _packed(ks.bit_block(whole, start, width))


def test_word_matches_bit_block_at_every_word_boundary():
    # keys of 1 to 190 bits, read from starts at a word's first, second and
    # last bit, one to three words in; the last two starts lie past every word
    rng = random.Random(19)
    lines = ["1"] + ["0" + format(i, "03b")
                     + "".join(rng.choice("01") for _ in range(length - 4))
                     for i, length in enumerate((63, 64, 65, 127, 128, 190))]
    finite = KeySet.from_lines(lines)
    rand = generate_keys(SourceParams(0.5, 19), 7)
    ids = np.arange(7)
    starts = (0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 320)
    for width in range(1, 65):
        for start in starts:
            _check_words(finite, lines, start, width)
            assert rand.word(ids, start, width).tolist() == \
                _packed(rand.bit_block(ids, start, width))
        # each case once more in one read with every key at its own start,
        # which equals each key's read at that start alone
        for ks in (finite, rand):
            alone = {start: ks.word(ids, start, width) for start in starts}
            for shift in range(len(starts)):
                mixed = np.array([starts[(i + shift) % len(starts)] for i in ids])
                assert ks.word(ids, mixed, width).tolist() == \
                    [alone[s][i] for i, s in enumerate(mixed.tolist())]
    with pytest.raises(ValueError, match="from one start"):
        finite.bit_block(ids, mixed, 1)
    # and over more keys than bit_block hashes in one band
    many = generate_keys(SourceParams(0.5, 19), 3000)
    ids = np.arange(3000)
    mixed = ids % 97
    got = many.word(ids, mixed, 64)
    assert all(got[mixed == s].tolist() == many.word(ids[mixed == s], s, 64).tolist()
               for s in range(97))
    # the scalar read agrees, for an int or a numpy index
    for key, line in zip(finite, lines):
        assert [key.bit(i) for i in range(len(line))] == list(map(int, line))
        assert [key.bit(np.int64(i)) for i in range(len(line))] == list(map(int, line))


@st.composite
def _prefix_free_lines(draw):
    """0/1 key lines of 1 to 200 bits, none extending another."""
    strings = draw(st.lists(st.text(alphabet="01", min_size=1, max_size=200),
                            min_size=1, max_size=12, unique=True))
    return [s for s in strings
            if not any(t != s and s.startswith(t) for t in strings)]


@settings(max_examples=150, deadline=None)
@given(lines=_prefix_free_lines(), start=st.integers(0, 260), width=st.integers(1, 64))
def test_word_matches_key_lines_of_mixed_length(lines, start, width):
    _check_words(KeySet.from_lines(lines), lines, start, width)
