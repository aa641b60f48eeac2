import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alctrie.source import KeySet, SourceParams, generate_keys
from alctrie.trie import (
    DepthCapError,
    IndistinguishableKeysError,
    LevelProfile,
    UndefinedFillupError,
    _pack_codes,
    _shared_prefix_codes,
    alpha_fillup_level,
    build,
    count_filled_oracle,
    external_depth,
    level_profile,
    shared_prefix_counts,
    tabulate_profile,
)

from conftest import finite_from_random, ref_external_depths


def keys_from(*lines):
    return KeySet.from_lines(lines)


def test_two_keys_differing_at_bit_zero():
    trie = build(keys_from("0", "1"))
    assert trie.root.kind == "internal"
    assert trie.root.zero.kind == "external" and trie.root.one.kind == "external"
    assert trie.root.zero.level == 1 and trie.root.one.level == 1
    assert level_profile(trie).counts.tolist() == [1]
    assert level_profile(trie).fraction(0) == 1.0


def test_four_two_bit_prefixes():
    trie = build(keys_from("00", "01", "10", "11"))
    prof = level_profile(trie)
    assert prof.counts.tolist() == [1, 2]
    assert {external_depth(trie, i) for i in range(4)} == {2}


def test_single_key_trie():
    trie = build(generate_keys(SourceParams(0.5, 3), 1))
    assert trie.root.kind == "external"
    assert trie.root.level == 0
    assert external_depth(trie, 0) == 0
    assert len(level_profile(trie)) == 0


def test_empty_keyset():
    trie = build(generate_keys(SourceParams(0.5, 3), 0))
    assert trie.root.kind == "empty"
    assert len(level_profile(trie)) == 0


def test_three_key_profile():
    trie = build(keys_from("00", "01", "1"))
    prof = level_profile(trie)
    assert prof.counts.tolist() == [1, 1]
    assert prof.fraction(1) == 0.5
    assert external_depth(trie, 0) == 2
    assert external_depth(trie, 1) == 2
    assert external_depth(trie, 2) == 1


def test_unary_internal_nodes_are_explicit():
    # keys share bit 0, so level 1 holds a unary internal node
    trie = build(keys_from("00", "01"))
    assert trie.root.kind == "internal"
    assert trie.root.one is None
    assert trie.root.zero.kind == "internal"
    assert level_profile(trie).counts.tolist() == [1, 1]


def test_count_filled_oracle_root():
    assert count_filled_oracle(generate_keys(SourceParams(0.5, 1), 2), 0) == 1
    assert count_filled_oracle(generate_keys(SourceParams(0.5, 1), 5), 0) == 1
    assert count_filled_oracle(generate_keys(SourceParams(0.5, 1), 1), 0) == 0
    assert count_filled_oracle(generate_keys(SourceParams(0.5, 1), 0), 0) == 0


def test_oracle_matches_profile_on_seeded_instance():
    ks = generate_keys(SourceParams(0.7, 424242), 64)
    prof = level_profile(build(ks))
    for k in range(17):
        assert prof.count(k) == count_filled_oracle(ks, k)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=48),
    p=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_profile_routes_agree(n, p, seed):
    ks = generate_keys(SourceParams(p, seed), n)
    trie = build(ks)
    prof = level_profile(trie)
    tab = tabulate_profile(ks)
    assert prof.counts.tolist() == tab.counts.tolist()
    for k in range(len(prof) + 2):
        assert prof.count(k) == count_filled_oracle(ks, k)
    # monotone fractions, external count, depth oracle
    fr = [prof.fraction(k) for k in range(len(prof))]
    assert all(1.0 >= a >= b >= 0.0 for a, b in zip(fr, fr[1:] + [0.0]))
    counts = prof.counts
    assert all(counts[k + 1] <= 2 * counts[k] for k in range(len(counts) - 1))
    assert len(trie.external_levels) == n
    if n >= 1:
        width = trie.height + 1
        tuples = [ks[i].prefix(width) for i in range(n)]
        assert [external_depth(trie, i) for i in range(n)] == \
            ref_external_depths(tuples)


def test_external_depth_unknown_id():
    trie = build(keys_from("0", "1"))
    with pytest.raises(KeyError):
        external_depth(trie, 5)


def test_alpha_fillup_examples():
    prof2 = level_profile(build(keys_from("0", "1")))
    for alpha in (0.01, 0.25, 0.5, 1.0):
        assert alpha_fillup_level(prof2, alpha) == 0
    prof4 = level_profile(build(keys_from("00", "01", "10", "11")))
    assert alpha_fillup_level(prof4, 1.0) == 1


def test_alpha_fillup_monotone_in_alpha():
    ks = generate_keys(SourceParams(0.7, 12), 128)
    prof = tabulate_profile(ks)
    levels = [alpha_fillup_level(prof, a) for a in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
    assert levels == sorted(levels, reverse=True)
    assert levels[-1] == alpha_fillup_level(prof, 1.0)
    assert all(lv <= len(prof) - 1 for lv in levels)


def test_alpha_fillup_classic_case_is_max_full_level():
    ks = generate_keys(SourceParams(0.5, 77), 64)
    prof = tabulate_profile(ks)
    classic = max(k for k in range(len(prof)) if prof.fraction(k) == 1.0)
    assert alpha_fillup_level(prof, 1.0) == classic


def test_alpha_fillup_undefined_for_small_n():
    with pytest.raises(UndefinedFillupError):
        alpha_fillup_level(LevelProfile(np.array([], dtype=np.int64)), 0.5)
    prof1 = level_profile(build(generate_keys(SourceParams(0.5, 3), 1)))
    with pytest.raises(UndefinedFillupError):
        alpha_fillup_level(prof1, 0.5)
    with pytest.raises(ValueError):
        alpha_fillup_level(LevelProfile(np.array([1])), 0.0)


def test_indistinguishable_keys_error():
    with pytest.raises(IndistinguishableKeysError):
        build(keys_from("0", "01"))


def test_short_but_unique_keys_build_fine():
    trie = build(keys_from("0", "10", "11"))
    assert external_depth(trie, 0) == 1
    assert external_depth(trie, 1) == 2
    assert level_profile(trie).counts.tolist() == [1, 1]


def test_depth_cap():
    lines = ["0" * 50 + "0", "0" * 50 + "1"]
    with pytest.raises(DepthCapError):
        build(KeySet.from_lines(lines), depth_cap=16)
    trie = build(KeySet.from_lines(lines), depth_cap=64)
    assert external_depth(trie, 0) == 51


def test_shared_prefix_counts_early_stop_matches_full():
    ks = generate_keys(SourceParams(0.7, 5150), 200)
    full = shared_prefix_counts(ks)
    for alpha in (0.25, 0.5, 0.9):
        stopped = shared_prefix_counts(ks, stop_below=alpha)
        assert stopped == full[: len(stopped)]
        f_full = alpha_fillup_level(LevelProfile(np.array(full)), alpha)
        f_stop = alpha_fillup_level(LevelProfile(np.array(stopped)), alpha)
        assert f_full == f_stop


def test_shared_prefix_counts_on_finite_subset():
    _, finite, tuples = finite_from_random(0.6, 909, 32)
    got = shared_prefix_counts(finite)
    want = shared_prefix_counts(generate_keys(SourceParams(0.6, 909), 32))
    assert got == want


def test_profile_csv_rows():
    prof = level_profile(build(keys_from("00", "01", "10", "11")))
    rows = list(prof.csv_rows())
    assert rows == [(0, 1, 1.0), (1, 2, 1.0)]


@pytest.mark.parametrize("p, base", [(0.5, 0), (0.7, 3), (0.9, 40)])
def test_widened_codes_are_the_packed_bits(p, base):
    # each widening shifts new columns into the codes; the result must be the
    # bits base .. base+width-1 packed in one go, in the order of ids
    ks = generate_keys(SourceParams(p, 31), 2**10)
    ids = np.arange(2**10)[::-1].copy()
    _, codes, width = _shared_prefix_codes(ks, ids, base=base)
    assert width > 8
    assert (codes == _pack_codes(ks.bit_block(ids, base, width))).all()
