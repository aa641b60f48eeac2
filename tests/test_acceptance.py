"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are fixed here;
statistical checks use pinned seeds so reruns are bit-identical.
"""

import math
import time

import numpy as np
import pytest

from alctrie.analysis import (
    ModelParams,
    depth_constant,
    expected_fill_fraction,
    normal_cdf,
    normal_quantile,
    predict_level_calibrated,
    predict_level_closed_form,
    prob_poisson_ge2,
    source_constants,
    threshold_ones_count,
)
from alctrie.lctrie import compress, designated_depth, longest_prefix_match
from alctrie.montecarlo import (
    ExperimentConfig,
    estimate_fill_fractions,
    simulate_depth,
    simulate_fillup,
    total_variation,
)
from alctrie.source import SourceParams, generate_keys, trial_seed
from alctrie.trie import count_filled_oracle, tabulate_profile

from conftest import (ACCEPTANCE_LINES, ref_key0_external_depth, ref_lpm,
                      random_queries)


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"{criterion}: {detail}"


def test_c01_oracle_equivalence_profiles_and_lpm():
    started = time.monotonic()
    ps = [0.3, 0.5, 0.7]
    profile_checks = 0
    lpm_checks = 0
    rng = np.random.default_rng(20240101)
    for i in range(100):
        p = ps[i % 3]
        n = [0, 1][i % 2] if i < 4 else 2 + int(rng.integers(0, 255))
        keys = generate_keys(SourceParams(p, 9000 + i), n)
        prof = tabulate_profile(keys)
        for k in range(len(prof) + 2):
            assert prof.count(k) == count_filled_oracle(keys, k)
            profile_checks += 1
        alc = compress(keys, [0.3, 0.5, 1.0][i % 3])
        queries = random_queries(rng, 6)
        for j in range(4):  # prefixes of stored keys probe deep matches
            if n > 0:
                kid = int(rng.integers(0, n))
                length = int(rng.integers(0, 24))
                queries.append(keys[kid].prefix(length))
            else:
                queries.append(tuple(int(b) for b in rng.integers(0, 2, 8)))
        for q in queries:
            want, _ = ref_lpm(keys, q)
            assert longest_prefix_match(alc, q) == want
            lpm_checks += 1
    elapsed = time.monotonic() - started
    report("criterion 1",
           lpm_checks >= 1000 and profile_checks > 0 and elapsed < 30.0,
           f"profiles exact on {profile_checks} levels, "
           f"LPM exact on {lpm_checks} queries across 100 instances, "
           f"{elapsed:.1f}s < 30s")


def test_c02_expectation_formula_vs_simulation():
    started = time.monotonic()
    params = ModelParams(p=0.7, alpha=0.5, n=4096)
    config = ExperimentConfig(params=params, trials=2000, seed=23571113)
    ks = [4, 8, 12, 16, 20]
    estimates = estimate_fill_fractions(config, ks)
    worst = ""
    ok = True
    for k in ks:
        est = estimates[k]
        analytic = expected_fill_fraction(params, k)
        tol = max(0.01, 3.0 * est.stderr)
        diff = abs(est.mean - analytic)
        if diff > tol:
            ok = False
        worst += f" k={k}:|d|={diff:.2e}<= {tol:.2e};"
    elapsed = time.monotonic() - started
    report("criterion 2", ok and elapsed < 60.0,
           worst.strip() + f" {elapsed:.1f}s < 60s")


def test_c03_symmetric_poisson_closed_form():
    worst = 0.0
    for lam in (10.0, 1e3, 1e6):
        params = ModelParams(p=0.5, alpha=0.5, lam=lam)
        for k in range(0, 41):
            closed = prob_poisson_ge2(lam * 2.0**-k)
            worst = max(worst, abs(expected_fill_fraction(params, k) - closed))
    report("criterion 3", worst <= 1e-12, f"max |diff| = {worst:.2e} <= 1e-12")


def test_c04_variance_bound():
    started = time.monotonic()
    params = ModelParams(p=0.7, alpha=0.5, lam=4096.0)
    config = ExperimentConfig(params=params, trials=800, seed=424242)
    estimates = estimate_fill_fractions(config, [8, 12])
    detail = ""
    ok = True
    for k in (8, 12):
        est = estimates[k]
        bound = 2.0**-k + 3.0 * est.variance_stderr
        if est.variance > bound:
            ok = False
        detail += f" k={k}: var={est.variance:.3e} <= {bound:.3e};"
    elapsed = time.monotonic() - started
    report("criterion 4", ok and elapsed < 60.0,
           detail.strip() + f" {elapsed:.1f}s < 60s")


def test_c05_two_point_concentration():
    params = ModelParams(p=0.7, alpha=0.5, n=2**14)
    hist = simulate_fillup(ExperimentConfig(params=params, trials=300, seed=777))
    mass = hist.top_two_consecutive_mass
    report("criterion 5", mass >= 0.9,
           f"top-two consecutive mass {mass:.4f} >= 0.9; histogram {hist.counts}")


def test_c06_centering_at_half():
    ok = True
    detail = ""
    for n, trials in ((2**12, 200), (2**14, 150), (2**16, 100)):
        params = ModelParams(p=0.7, alpha=0.5, n=n)
        hist = simulate_fillup(ExperimentConfig(params=params, trials=trials,
                                                seed=31337 + n))
        center = predict_level_closed_form(n, 0.5, 0.7)
        if abs(hist.mode - center) > 3.0:
            ok = False
        detail += f" n=2^{int(math.log2(n))}: mode={hist.mode}, center={center:.2f};"
    report("criterion 6", ok, detail.strip())


def test_c07_alpha_shift_direction():
    n = 2**16
    modes = {}
    for alpha in (0.25, 0.75):
        params = ModelParams(p=0.7, alpha=alpha, n=n)
        hist = simulate_fillup(ExperimentConfig(params=params, trials=100,
                                                seed=60606))
        modes[alpha] = hist.mode
    gap = modes[0.25] - modes[0.75]
    predicted = (predict_level_closed_form(n, 0.25, 0.7)
                 - predict_level_closed_form(n, 0.75, 0.7))
    report("criterion 7", gap >= 1,
           f"mode(0.25)={modes[0.25]}, mode(0.75)={modes[0.75]}, gap={gap} >= 1 "
           f"(closed form predicts {predicted:.2f})")


def test_c08_fixed_vs_poisson_closeness():
    fixed = ModelParams(p=0.7, alpha=0.5, n=4096)
    pois = ModelParams(p=0.7, alpha=0.5, lam=4096.0)
    h_fixed = simulate_fillup(ExperimentConfig(params=fixed, trials=300, seed=808))
    h_pois = simulate_fillup(ExperimentConfig(params=pois, trials=300, seed=809))
    tv = total_variation(h_fixed, h_pois)
    worst = max(
        abs(expected_fill_fraction(pois, k) - expected_fill_fraction(fixed, k))
        for k in range(0, 41)
    )
    ok = tv <= 0.25 and worst <= 0.02
    report("criterion 8", ok,
           f"TV distance {tv:.4f} <= 0.25; max |E_poisson - E_fixed| "
           f"{worst:.4f} <= 0.02 for k <= 40")


def test_c09_depth_growth_and_invariant():
    means = {}
    violations = 0
    for n, trials in ((2**8, 300), (2**12, 150), (2**16, 80)):
        params = ModelParams(p=0.7, alpha=0.5, n=n)
        config = ExperimentConfig(params=params, trials=trials, seed=111 + n)
        summary = simulate_depth(config)
        means[n] = summary.mean
        for t, _, d, consumed in summary.rows:
            keys = generate_keys(SourceParams(0.7, trial_seed(config.seed, t)), n)
            ext = ref_key0_external_depth(keys)
            if not (d <= ext <= consumed):
                violations += 1
    ratios = [means[n] / math.log2(n) for n in (2**8, 2**12, 2**16)]
    growing = means[2**8] < means[2**12] < means[2**16]
    sublinear = ratios[0] > ratios[1] > ratios[2]
    # the asymptotic constants are checked as formula evaluations only
    const_ok = (abs(depth_constant(0.7, "alpha_lc") - 0.4537) <= 1e-3
                and abs(depth_constant(0.7, "full_lc") - 0.9790) <= 1e-3)
    ok = violations == 0 and growing and sublinear and const_ok
    report("criterion 9", ok,
           f"means {dict((f'2^{int(math.log2(k))}', round(v, 3)) for k, v in means.items())}, "
           f"D/log2(n) ratios {[round(r, 4) for r in ratios]} strictly decreasing, "
           f"0 invariant violations, constants 0.4539/0.9790 evaluate")


def test_c10_analysis_self_consistency():
    # threshold root property to 1e-9 relative
    worst_root = 0.0
    for (k, lam, p) in [(20, 2.0**14, 0.7), (30, 1e5, 0.6), (12, 300.0, 0.9),
                        (40, 1e9, 0.55)]:
        g = threshold_ones_count(k, lam, p)
        residual = lam * p**g * (1 - p) ** (k - g)
        worst_root = max(worst_root, abs(residual - 1.0))
    # cdf/quantile round trip to 1e-8
    worst_rt = 0.0
    for a in np.linspace(0.001, 0.999, 199):
        worst_rt = max(worst_rt, abs(normal_cdf(normal_quantile(float(a))) - a))
    for x in np.linspace(-5.5, 5.5, 111):
        worst_rt = max(worst_rt,
                       abs(normal_quantile(normal_cdf(float(x))) - x))
    # p <-> q symmetry of predictors to 1e-12
    worst_sym = 0.0
    for p in (0.3, 0.42, 0.7, 0.9):
        for alpha in (0.25, 0.5, 0.75):
            worst_sym = max(worst_sym, abs(
                predict_level_closed_form(4096, alpha, p)
                - predict_level_closed_form(4096, alpha, 1 - p)))
        for k in (0, 5, 17, 40):
            worst_sym = max(worst_sym, abs(
                expected_fill_fraction(ModelParams(p=p, alpha=0.5, n=512), k)
                - expected_fill_fraction(ModelParams(p=1 - p, alpha=0.5, n=512), k)))
        ca, cb = source_constants(p), source_constants(1 - p)
        worst_sym = max(worst_sym, abs(ca.entropy - cb.entropy),
                        abs(ca.mean_self_info - cb.mean_self_info),
                        abs(ca.max_self_info - cb.max_self_info))
    # calibrated vs closed-form within 3 on the stated grid
    worst_gap = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for e in range(10, 21):
            gap = abs(predict_level_calibrated(
                ModelParams(p=0.7, alpha=alpha, n=2**e))
                - predict_level_closed_form(2**e, alpha, 0.7))
            worst_gap = max(worst_gap, gap)
    ok = (worst_root <= 1e-9 and worst_rt <= 1e-8 and worst_sym <= 1e-12
          and worst_gap <= 3.0)
    report("criterion 10", ok,
           f"root residual {worst_root:.2e} <= 1e-9; round trip {worst_rt:.2e} "
           f"<= 1e-8; p<->q asymmetry {worst_sym:.2e} <= 1e-12; "
           f"calibrated gap {worst_gap:.2f} <= 3")
