import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alctrie.lctrie import compress, depth, designated_depth
from alctrie.source import KeySet, SourceParams, generate_keys
from alctrie.trie import (
    DepthCapError,
    IndistinguishableKeysError,
    LevelProfile,
    UndefinedFillupError,
    _capped_fillup,
    _code_counts,
    _codes,
    _level_counts,
    _random_level_counts,
    _sorted_lcp,
    alpha_fillup_level,
    count_filled_oracle,
    tabulate_profile,
)

from conftest import finite_from_random, ref_external_depths


def keys_from(*lines):
    return KeySet.from_lines(lines)


def core_external_depths(keys) -> list[int]:
    """Each key's external depth read off the sorted order: one more than
    the larger LCP with its neighbours (0 for a lone key)."""
    order, lcp, _ = _sorted_lcp(keys)
    if len(order) < 2:
        return [0] * len(order)
    depths = np.empty(len(order), dtype=np.int64)
    depths[order] = np.maximum(np.append(lcp, -1), np.insert(lcp, 0, -1)) + 1
    return depths.tolist()


def test_two_keys_differing_at_bit_zero():
    ks = keys_from("0", "1")
    prof = tabulate_profile(ks)
    # the root is filled and both keys are external at level 1
    assert prof.counts.tolist() == [1]
    assert prof.fraction(0) == 1.0 and prof.count(1) == 0
    assert core_external_depths(ks) == ref_external_depths([(0,), (1,)]) == [1, 1]


def test_four_two_bit_prefixes():
    ks = keys_from("00", "01", "10", "11")
    assert tabulate_profile(ks).counts.tolist() == [1, 2]
    assert core_external_depths(ks) == [2, 2, 2, 2]


def test_single_key_trie():
    ks = generate_keys(SourceParams(0.5, 3), 1)
    # the lone key is the root: nothing is filled, the key sits at depth 0
    assert len(tabulate_profile(ks)) == 0
    assert core_external_depths(ks) == [0]


def test_empty_keyset():
    ks = generate_keys(SourceParams(0.5, 3), 0)
    assert len(tabulate_profile(ks)) == 0
    assert core_external_depths(ks) == []


def test_three_key_profile():
    ks = keys_from("00", "01", "1")
    prof = tabulate_profile(ks)
    assert prof.counts.tolist() == [1, 1]
    assert prof.fraction(1) == 0.5
    assert core_external_depths(ks) == [2, 2, 1]


def test_unary_internal_nodes_are_explicit():
    # keys share bit 0, so level 1 holds a unary filled node: the prefix "0"
    ks = keys_from("00", "01")
    assert tabulate_profile(ks).counts.tolist() == [1, 1]
    assert core_external_depths(ks) == [2, 2]


def test_count_filled_oracle_root():
    assert count_filled_oracle(generate_keys(SourceParams(0.5, 1), 2), 0) == 1
    assert count_filled_oracle(generate_keys(SourceParams(0.5, 1), 5), 0) == 1
    assert count_filled_oracle(generate_keys(SourceParams(0.5, 1), 1), 0) == 0
    assert count_filled_oracle(generate_keys(SourceParams(0.5, 1), 0), 0) == 0


def test_oracle_matches_profile_on_seeded_instance():
    ks = generate_keys(SourceParams(0.7, 424242), 64)
    prof = tabulate_profile(ks)
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
    prof = tabulate_profile(ks)
    for k in range(len(prof) + 2):
        assert prof.count(k) == count_filled_oracle(ks, k)
    # monotone fractions, external count, depth oracle
    fr = [prof.fraction(k) for k in range(len(prof))]
    assert all(1.0 >= a >= b >= 0.0 for a, b in zip(fr, fr[1:] + [0.0]))
    counts = prof.counts
    assert all(counts[k + 1] <= 2 * counts[k] for k in range(len(counts) - 1))
    depths = core_external_depths(ks)
    assert len(depths) == n
    if n >= 1:
        # every key is unique one level past the deepest filled one
        tuples = [ks[i].prefix(len(prof) + 2) for i in range(n)]
        assert depths == ref_external_depths(tuples)


def test_alpha_fillup_examples():
    prof2 = tabulate_profile(keys_from("0", "1"))
    for alpha in (0.01, 0.25, 0.5, 1.0):
        assert alpha_fillup_level(prof2, alpha) == 0
    prof4 = tabulate_profile(keys_from("00", "01", "10", "11"))
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
    prof1 = tabulate_profile(generate_keys(SourceParams(0.5, 3), 1))
    with pytest.raises(UndefinedFillupError):
        alpha_fillup_level(prof1, 0.5)
    with pytest.raises(ValueError):
        alpha_fillup_level(LevelProfile(np.array([1])), 0.0)


def test_indistinguishable_keys_error():
    with pytest.raises(IndistinguishableKeysError):
        tabulate_profile(keys_from("0", "01"))


@pytest.mark.parametrize("lines", [["0" * 100, "0" * 100 + "1"], ["1" * 70] * 2])
def test_nested_keys_built_around_the_loader_are_refused(lines):
    # the loader refuses nested and equal keys; a set built without it sorts
    # in bounded time, and compress and the depth walk refuse it all the same
    width = -(-max(map(len, lines)) // 64)
    padded = [line.ljust(64 * width, "0") for line in lines]
    words = np.array([[int(row[c:c + 64], 2) for c in range(0, 64 * width, 64)]
                      for row in padded], dtype=np.uint64)
    ks = KeySet(params=None, n=2, words=words,
                lengths=np.array([len(line) for line in lines], dtype=np.int64))
    assert _sorted_lcp(ks)[1][0] >= len(lines[0])
    for route in (lambda: compress(ks, 0.5), lambda: designated_depth(ks, 0.5, 1)):
        with pytest.raises(IndistinguishableKeysError, match="too short to address a slot"):
            route()


def test_short_but_unique_keys_build_fine():
    ks = keys_from("0", "10", "11")
    assert core_external_depths(ks) == [1, 2, 2]
    assert tabulate_profile(ks).counts.tolist() == [1, 1]


def test_depth_cap():
    # two keys sharing 50 bits: at alpha = 1 every node consumes one level,
    # so the node ending at level 17 breaks a cap of 16
    ks = KeySet.from_lines(["0" * 50 + "0", "0" * 50 + "1"])
    with pytest.raises(DepthCapError,
                       match=r"^compression exceeded depth cap 16 at level 17$"):
        compress(ks, 1.0, depth_cap=16)
    with pytest.raises(DepthCapError,
                       match=r"^depth walk exceeded depth cap 16 at level 17$"):
        designated_depth(ks, 1.0, 0, depth_cap=16)
    alc = compress(ks, 1.0, depth_cap=64)
    assert depth(alc, 0) == designated_depth(ks, 1.0, 0, depth_cap=64)
    assert depth(alc, 0).consumed_total == 51
    assert core_external_depths(ks) == [51, 51]


def test_shared_prefix_counts_early_stop_matches_full():
    # counts read only `top` bits deep give the full profile's counts cut at
    # `top`: the full sort's LCPs clipped there, and, for tops within one
    # word, the keys' `top`-bit codes in any order, by histogram or by sort
    # (at p = 0.97 keys tie past bit 64, and a top of 70 reads a second word)
    for ks in (generate_keys(SourceParams(0.7, 5150), 200),
               generate_keys(SourceParams(0.97, 5150), 64)):
        order, full_lcp, codes = _sorted_lcp(ks)
        # codes are the first 64 bits of the keys in order
        assert codes.tolist() == ks.word(order, 0).tolist()
        full = tabulate_profile(ks).counts.tolist()
        ids = np.random.default_rng(5150).permutation(len(ks))
        for top in (0, 1, 7, 17, 64, 70, len(full) - 1, len(full) + 5):
            capped = (full + [0] * (top + 1))[:top + 1]
            assert _level_counts(full_lcp, top).tolist() == capped
            assert _random_level_counts(ks, top).tolist() == capped
            if top <= 64:
                assert _code_counts(_codes(ks, ids, 0, top), top).tolist() == capped
        for alpha in (0.25, 0.5, 0.9):
            assert (_capped_fillup(ks, None, 0, alpha)[0]
                    == alpha_fillup_level(tabulate_profile(ks), alpha))


def test_shared_prefix_counts_on_finite_subset():
    # a finite copy of random keys, read whole, gives the profile and fillup
    # levels of the random keys, which are read down to the fillup bound only
    random, finite, _ = finite_from_random(0.6, 909, 32)
    assert tabulate_profile(finite).counts.tolist() == \
        tabulate_profile(random).counts.tolist()
    for alpha in (0.1, 0.5, 1.0):
        assert _capped_fillup(finite, None, 0, alpha)[0] == \
            _capped_fillup(random, None, 0, alpha)[0]


def test_profile_csv_rows():
    prof = tabulate_profile(keys_from("00", "01", "10", "11"))
    rows = list(prof.csv_rows())
    assert rows == [(0, 1, 1.0), (1, 2, 1.0)]
