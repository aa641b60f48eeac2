import hashlib
import json
import math

import numpy as np
import pytest

from alctrie.analysis import ModelParams, expected_fill_fraction
from alctrie import montecarlo
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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
        config(n=64, seed=seed)


@pytest.mark.parametrize("jobs", [0, -3])
def test_config_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        config(n=64, jobs=jobs)


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


def test_compare_report_rejects_alpha_one_before_its_trials(monkeypatch):
    # the trials take alpha = 1, the calibrated predictor does not
    def no_trials(config):
        raise AssertionError("trials ran")

    monkeypatch.setattr(montecarlo, "simulate_fillup", no_trials)
    with pytest.raises(ValueError, match=r"strictly in \(0, 1\), got 1.0"):
        compare_report(config(n=64, trials=2), n_values=[16], alphas=[1.0])


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


# SHA-256 (first 16 hex digits) of the per-trial CSV that `alctrie sim-fillup`
# and `sim-depth` print at --trials 5 --seed 11, recorded from the code that
# read every group of random keys down to its fillup bound.
SIM_DIGESTS = {
    ("sim-fillup", 4096, 0.5, 0.25): "6d93c2d5ab760037",
    ("sim-fillup", 4096, 0.5, 0.5): "174e420473a9f3ef",
    ("sim-fillup", 4096, 0.5, 0.9): "04530721dcf42d38",
    ("sim-fillup", 4096, 0.7, 0.25): "174e420473a9f3ef",
    ("sim-fillup", 4096, 0.7, 0.5): "04530721dcf42d38",
    ("sim-fillup", 4096, 0.7, 0.9): "ef03ce7d250f5e7e",
    ("sim-fillup", 4096, 0.97, 0.25): "84bc14e645178059",
    ("sim-fillup", 4096, 0.97, 0.5): "b07a78af6af1c31c",
    ("sim-fillup", 4096, 0.97, 0.9): "465a3d148566f256",
    ("sim-fillup", 65536, 0.5, 0.25): "2200220b96e375c7",
    ("sim-fillup", 65536, 0.5, 0.5): "5e163117ea7cb5d8",
    ("sim-fillup", 65536, 0.5, 0.9): "f6f1fcba5993983e",
    ("sim-fillup", 65536, 0.7, 0.25): "5e163117ea7cb5d8",
    ("sim-fillup", 65536, 0.7, 0.5): "9b35972595274887",
    ("sim-fillup", 65536, 0.7, 0.9): "4a525c8f35bbd790",
    ("sim-fillup", 65536, 0.97, 0.25): "2aa3570cbfb7b07e",
    ("sim-fillup", 65536, 0.97, 0.5): "6fc5939fbe897017",
    ("sim-fillup", 65536, 0.97, 0.9): "5d57a2cf942176a8",
    ("sim-depth", 4096, 0.5, 0.25): "2b68cae692c241b3",
    ("sim-depth", 4096, 0.5, 0.5): "1ee91e1a589a97fd",
    ("sim-depth", 4096, 0.5, 0.9): "e94a2a761e920d08",
    ("sim-depth", 4096, 0.7, 0.25): "64205a49589cc35f",
    ("sim-depth", 4096, 0.7, 0.5): "56495842ed3a29d9",
    ("sim-depth", 4096, 0.7, 0.9): "b2c2b0ac32e99c40",
    ("sim-depth", 4096, 0.97, 0.25): "c6a4fa6bdd278051",
    ("sim-depth", 4096, 0.97, 0.5): "02196ca839c163b2",
    ("sim-depth", 4096, 0.97, 0.9): "4be86e4c1cafb859",
    ("sim-depth", 65536, 0.5, 0.25): "a834b22b81d1e822",
    ("sim-depth", 65536, 0.5, 0.5): "a6355f5f932e1e13",
    ("sim-depth", 65536, 0.5, 0.9): "951b26d3910e1dd8",
    ("sim-depth", 65536, 0.7, 0.25): "366f0a80481fb2fb",
    ("sim-depth", 65536, 0.7, 0.5): "7bdde6c8549bbb20",
    ("sim-depth", 65536, 0.7, 0.9): "f09075cac6f12f34",
    ("sim-depth", 65536, 0.97, 0.25): "a0a2597a59e66347",
    ("sim-depth", 65536, 0.97, 0.5): "88f1d77630c3f385",
    ("sim-depth", 65536, 0.97, 0.9): "65fba6d1a3e479dd",
}


@pytest.mark.parametrize("command, n, p, alpha", sorted(SIM_DIGESTS))
def test_simulation_output_is_pinned(command, n, p, alpha):
    cfg = config(p=p, alpha=alpha, n=n, trials=5, seed=11)
    if command == "sim-fillup":
        text = fillup_csv(simulate_fillup(cfg))
    else:
        text = depth_csv(simulate_depth(cfg))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == SIM_DIGESTS[command, n, p, alpha]
