import json
import math

import numpy as np
import pytest

from alctrie.analysis import ModelParams, expected_fill_fraction
from alctrie.lctrie import compress, depth
from alctrie.montecarlo import (
    ExperimentConfig,
    compare_report,
    depth_csv,
    estimate_fill_fraction,
    estimate_fill_fractions,
    fillup_csv,
    poisson_sample,
    simulate_depth,
    simulate_fillup,
    total_variation,
)
from alctrie.source import SourceParams, generate_keys, trial_seed

from conftest import ref_key0_external_depth


def config(p=0.7, alpha=0.5, n=None, lam=None, trials=50, seed=1234, jobs=1):
    return ExperimentConfig(params=ModelParams(p=p, alpha=alpha, n=n, lam=lam),
                            trials=trials, seed=seed, jobs=jobs)


def test_two_keys_histogram_above_half_alpha():
    # with alpha > 1/2 no level beyond the root can qualify, so F = 0 always
    hist = simulate_fillup(config(alpha=0.6, n=2, trials=100))
    assert hist.counts == {0: 100}
    assert hist.undefined == 0
    assert hist.top_two_consecutive_mass == 1.0


def test_two_keys_histogram_at_half_alpha():
    # at alpha = 1/2 exactly, level 1 qualifies whenever the two keys agree
    # on their first bit, so mass may sit on both 0 and deeper levels
    hist = simulate_fillup(config(alpha=0.5, n=2, trials=200))
    assert set(hist.counts) >= {0, 1}
    agree = sum(v for k, v in hist.counts.items() if k >= 1)
    # P(agree on bit 0) = p^2 + q^2 = 0.58 at p = 0.7
    assert abs(agree / 200 - 0.58) < 0.15


def test_fillup_determinism_and_jobs_equivalence():
    a = simulate_fillup(config(n=64, trials=16, seed=77, jobs=1))
    b = simulate_fillup(config(n=64, trials=16, seed=77, jobs=1))
    c = simulate_fillup(config(n=64, trials=16, seed=77, jobs=2))
    assert a.rows == b.rows == c.rows
    assert a.counts == c.counts
    d = simulate_fillup(config(n=64, trials=16, seed=78, jobs=1))
    assert a.rows != d.rows


def test_fillup_poisson_undefined_trials_recorded():
    hist = simulate_fillup(config(lam=1.2, n=None, trials=120, seed=5))
    assert hist.undefined > 0
    assert hist.defined + hist.undefined == 120
    assert sum(hist.counts.values()) == hist.defined
    empty_f = [r for r in hist.rows if r[2] is None]
    assert all(n < 2 for _, n, _ in empty_f)


def test_fillup_csv_schema():
    hist = simulate_fillup(config(n=16, trials=4, seed=9))
    text = fillup_csv(hist)
    lines = text.strip().split("\n")
    assert lines[0] == "trial,n_effective,F"
    assert len(lines) == 5
    assert lines[1].startswith("0,16,")


def test_depth_two_keys():
    # one stride per shared slot: depth is 1 exactly when the keys part ways
    # within the first stride, and grows with the shared prefix otherwise
    cfg = config(n=2, trials=60, seed=21)
    summary = simulate_depth(cfg)
    assert all(d >= 1 for _, _, d, _ in summary.rows)
    assert summary.mean >= 1.0
    for t, _, d, consumed in summary.rows:
        keys = generate_keys(SourceParams(0.7, trial_seed(cfg.seed, t)), 2)
        shared = 0
        while keys[0].bit(shared) == keys[1].bit(shared):
            shared += 1
        assert consumed > shared
        if keys[0].bit(0) != keys[1].bit(0):
            assert d == 1
    assert math.isinf(summary.loglog_ratio)  # log2 log2 2 = 0


def test_depth_one_for_keys_differing_at_bit_zero():
    from alctrie.source import KeySet

    alc = compress(KeySet.from_lines(["0", "1"]), 0.5)
    sample = depth(alc, 0)
    assert sample.depth == 1 and sample.consumed_total == 1


def test_depth_requires_fixed_n():
    with pytest.raises(ValueError):
        simulate_depth(config(lam=100.0, n=None))


def test_depth_bounded_by_uncompressed_depth():
    cfg = config(n=96, trials=24, seed=31)
    summary = simulate_depth(cfg)
    for t, n, d, consumed in summary.rows:
        keys = generate_keys(SourceParams(0.7, trial_seed(cfg.seed, t)), n)
        assert d <= ref_key0_external_depth(keys) <= consumed
        full = depth(compress(keys, 0.5), 0)
        assert (d, consumed) == (full.depth, full.consumed_total)


def test_depth_csv_schema():
    summary = simulate_depth(config(n=8, trials=3, seed=2))
    lines = depth_csv(summary).strip().split("\n")
    assert lines[0] == "trial,n,D,consumed_total"
    assert len(lines) == 4


def test_estimate_root_is_exactly_one():
    est = estimate_fill_fraction(config(n=16, trials=30, seed=6), 0)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.variance == 0.0


def test_estimate_matches_analytic_loosely():
    cfg = config(n=256, trials=400, seed=40)
    for k, est in estimate_fill_fractions(cfg, [2, 6, 10]).items():
        analytic = expected_fill_fraction(cfg.params, k)
        assert abs(est.mean - analytic) <= max(0.01, 4 * est.stderr)


def test_estimate_poisson_small_sizes_count_as_zero():
    cfg = config(lam=1.0, n=None, trials=300, seed=3)
    est = estimate_fill_fraction(cfg, 0)
    analytic = expected_fill_fraction(cfg.params, 0)  # P(Po(1) >= 2) = 0.2642
    assert abs(est.mean - analytic) <= 4 * max(est.stderr, 1e-3)


def test_poisson_sample_tiny_lambda():
    rng = np.random.default_rng(0)
    assert all(poisson_sample(1e-9, rng) == 0 for _ in range(50))
    with pytest.raises(ValueError):
        poisson_sample(0.0, rng)


def test_poisson_sample_moments_large_lambda():
    rng = np.random.default_rng(12345)
    draws = np.array([poisson_sample(100.0, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 100.0) <= 0.3
    assert abs(draws.var(ddof=1) - 100.0) <= 5.0


def test_poisson_sample_moments_inversion_regime():
    rng = np.random.default_rng(54321)
    draws = np.array([poisson_sample(12.5, rng) for _ in range(60_000)])
    assert abs(draws.mean() - 12.5) <= 0.15
    assert abs(draws.var(ddof=1) - 12.5) <= 0.6


def test_poisson_sample_continuity_across_regimes():
    lo = np.array([poisson_sample(29.9, np.random.default_rng(i))
                   for i in range(4000)])
    hi = np.array([poisson_sample(30.1, np.random.default_rng(i))
                   for i in range(4000)])
    assert abs(lo.mean() - 29.9) <= 0.5
    assert abs(hi.mean() - 30.1) <= 0.5


def test_poisson_sample_deterministic_given_state():
    a = [poisson_sample(50.0, np.random.default_rng(7)) for _ in range(5)]
    b = [poisson_sample(50.0, np.random.default_rng(7)) for _ in range(5)]
    assert a == b


def test_compare_report_expectation_mode():
    report = compare_report(config(n=128, trials=60, seed=8), ks=[0, 3, 6])
    assert report.header == ["k", "mc_mean", "stderr", "analytic", "diff"]
    assert len(report.rows) == 3
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "k,mc_mean,stderr,analytic,diff"
    payload = json.loads(report.to_json())
    assert payload["kind"] == "expectation"
    assert payload["config"]["model"] == "fixed_n"
    # byte-identical on repeat runs
    again = compare_report(config(n=128, trials=60, seed=8), ks=[0, 3, 6])
    assert again.to_csv() == csv_text


def test_compare_report_empty_range():
    report = compare_report(config(n=128, trials=10, seed=8), ks=[])
    assert report.rows == []
    assert report.to_csv().strip() == "k,mc_mean,stderr,analytic,diff"
    sweep = compare_report(config(n=128, trials=10, seed=8), n_values=[])
    assert sweep.rows == []


def test_compare_report_fillup_sweep_shape():
    report = compare_report(config(n=64, trials=12, seed=8),
                            n_values=[16, 32, 64], alphas=[0.4, 0.8])
    assert len(report.rows) == 6
    assert report.header[0] == "n"
    for row in report.rows:
        assert abs(row[5]) < 6  # mc mean within a few levels of calibrated


def test_total_variation_bounds():
    h1 = simulate_fillup(config(n=64, trials=30, seed=1))
    h2 = simulate_fillup(config(n=64, trials=30, seed=2))
    tv = total_variation(h1, h2)
    assert 0.0 <= tv <= 1.0
    assert total_variation(h1, h1) == 0.0


def test_trial_seed_is_stable():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    assert trial_seed(42, 0) != trial_seed(42, 1)
    assert trial_seed(41, 0) != trial_seed(42, 0)
