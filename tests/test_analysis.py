import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from alctrie.analysis import (
    ModelParams,
    binomial_tail_normal_approx,
    depth_constant,
    expected_fill_fraction,
    normal_cdf,
    normal_quantile,
    predict_full_fillup,
    predict_level_calibrated,
    predict_level_closed_form,
    prefix_poisson_mean,
    prob_binomial_ge2,
    prob_poisson_ge2,
    source_constants,
    threshold_ones_count,
)

from conftest import ref_expected_fill_fraction, ref_prob_binomial_ge2

# the expectations evaluate their exponents as numpy arrays: an overflow,
# underflow or invalid value there fails these tests instead of printing a
# warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

P_GRID = [0.1, 0.3, 0.42, 0.6, 0.7, 0.9]


def mp_poisson_ge2(mu):
    with mpmath.workdps(50):
        m = mpmath.mpf(mu)
        return float(1 - mpmath.e**-m * (1 + m))


def test_prob_poisson_ge2_edges():
    assert prob_poisson_ge2(0.0) == 0.0
    assert prob_poisson_ge2(50.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        prob_poisson_ge2(-1e-9)


def test_prob_poisson_ge2_one():
    # partial pmf sum: 1 - P(0) - P(1) = 1 - 2/e
    oracle = 1.0 - math.exp(-1.0) - math.exp(-1.0)
    assert prob_poisson_ge2(1.0) == pytest.approx(oracle, rel=1e-14)
    assert prob_poisson_ge2(1.0) == pytest.approx(0.26424111765711533, rel=1e-12)


@pytest.mark.parametrize("mu", [1e-12, 1e-8, 5e-5, 1e-4, 2e-4, 0.01, 0.5, 3.0, 20.0])
def test_prob_poisson_ge2_matches_high_precision(mu):
    assert prob_poisson_ge2(mu) == pytest.approx(mp_poisson_ge2(mu), rel=1e-10)


def test_prob_binomial_ge2_edges():
    assert prob_binomial_ge2(0, 0.3) == 0.0
    assert prob_binomial_ge2(1, 0.99) == 0.0
    assert prob_binomial_ge2(2, 1.0) == 1.0
    assert prob_binomial_ge2(5, 0.0) == 0.0
    with pytest.raises(ValueError):
        prob_binomial_ge2(3, 1.5)
    with pytest.raises(ValueError):
        prob_binomial_ge2(-1, 0.5)


def test_prob_binomial_ge2_enumeration():
    # all 16 outcomes of 4 fair coins
    count = sum(1 for bits in itertools.product((0, 1), repeat=4) if sum(bits) >= 2)
    assert prob_binomial_ge2(4, 0.5) == pytest.approx(count / 16)
    assert prob_binomial_ge2(4, 0.5) == pytest.approx(0.6875)


@pytest.mark.parametrize("n,q", [(10, 1e-6), (4096, 1e-9), (100, 1e-5),
                                 (7, 0.3), (1000, 0.002), (3, 0.9)])
def test_prob_binomial_ge2_matches_high_precision(n, q):
    with mpmath.workdps(60):
        mq = mpmath.mpf(q)
        oracle = float(1 - (1 - mq)**n - n * mq * (1 - mq)**(n - 1))
    assert prob_binomial_ge2(n, q) == pytest.approx(oracle, rel=1e-9)


def test_prefix_poisson_mean():
    # defining scale: lam = p^-j q^-(k-j) makes the cell mean exactly 1
    lam = 0.7**-3 * 0.3**-4
    assert prefix_poisson_mean(lam, 7, 3, 0.7) == pytest.approx(1.0, rel=1e-12)
    for j in range(6):
        assert prefix_poisson_mean(1000.0, 5, j, 0.5) == pytest.approx(
            1000.0 * 2.0**-5, rel=1e-12)
    assert prefix_poisson_mean(1000.0, 10, 10, 0.7) == pytest.approx(
        28.2475249, rel=1e-8)
    with pytest.raises(ValueError):
        prefix_poisson_mean(10.0, 5, 6, 0.5)


def test_expected_fill_fraction_symmetric_source_closed_form():
    for lam in (10.0, 1e3, 1e6):
        params = ModelParams(p=0.5, alpha=0.5, lam=lam)
        for k in range(0, 41):
            closed = prob_poisson_ge2(lam * 2.0**-k)
            assert abs(expected_fill_fraction(params, k) - closed) <= 1e-12


def test_expected_fill_fraction_fixed_root():
    for n in (2, 3, 100):
        assert expected_fill_fraction(ModelParams(p=0.3, alpha=0.5, n=n), 0) == 1.0
    assert expected_fill_fraction(ModelParams(p=0.3, alpha=0.5, n=1), 0) == 0.0


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_expected_fill_fraction_three_keys_level_one(p):
    # enumerate the 8 outcomes of three first bits: expected filled nodes at
    # level 1, divided by 2
    q = 1.0 - p
    expectation = 0.0
    for bits in itertools.product((0, 1), repeat=3):
        w = math.prod(p if b else q for b in bits)
        filled = sum(1 for side in (0, 1) if bits.count(side) >= 2)
        expectation += w * filled
    assert expectation / 2 == pytest.approx(0.5, rel=1e-12)
    got = expected_fill_fraction(ModelParams(p=p, alpha=0.5, n=3), 1)
    assert got == pytest.approx(0.5, rel=1e-12)


def test_expected_fill_fraction_monotone_in_level_and_size():
    for params in (ModelParams(p=0.7, alpha=0.5, n=512),
                   ModelParams(p=0.7, alpha=0.5, lam=512.0),
                   ModelParams(p=0.42, alpha=0.5, n=100)):
        values = [expected_fill_fraction(params, k) for k in range(30)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values[:1]) and values[0] == 1.0
    for k in (3, 8, 13):
        small = expected_fill_fraction(ModelParams(p=0.7, alpha=0.5, n=64), k)
        big = expected_fill_fraction(ModelParams(p=0.7, alpha=0.5, n=256), k)
        assert big >= small


@pytest.mark.parametrize("p", P_GRID)
def test_expected_fill_fraction_p_q_symmetry(p):
    for k in (0, 1, 7, 23, 60):
        a = expected_fill_fraction(ModelParams(p=p, alpha=0.5, n=777), k)
        b = expected_fill_fraction(ModelParams(p=1 - p, alpha=0.5, n=777), k)
        assert abs(a - b) <= 1e-12
        ap = expected_fill_fraction(ModelParams(p=p, alpha=0.5, lam=777.0), k)
        bp = expected_fill_fraction(ModelParams(p=1 - p, alpha=0.5, lam=777.0), k)
        assert abs(ap - bp) <= 1e-12


# the expectations must equal the term-by-term reference exactly, not merely
# closely: every figure built on them is pinned to the bit
EXACT_N = [0, 1, 2, 3, 8, 9, 100, 4096, 65536, 10**6, 2**40, 2**53 + 1, 2**63, 2**70]
EXACT_LAM = [0.5, 3.0, 1024.0, 65536.0, 1e9]
EXACT_K = [*range(80), 200, 1000]


@pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_expected_fill_fraction_equals_term_by_term_reference(p):
    models = ([ModelParams(p=p, alpha=0.5, n=n) for n in EXACT_N]
              + [ModelParams(p=p, alpha=0.5, lam=lam) for lam in EXACT_LAM])
    wrong = [(params.size, k) for params in models for k in EXACT_K
             if expected_fill_fraction(params, k) != ref_expected_fill_fraction(params, k)]
    assert wrong == []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_expected_fill_fraction_exact_where_cells_straddle_the_series_switch(data):
    n = data.draw(st.integers(min_value=10**4, max_value=2**50))
    p = data.draw(st.floats(min_value=0.05, max_value=0.95))
    assume(abs(p - 0.5) > 0.02)
    # k with n lo^k < 1e-3 <= n hi^k: the level's smallest cell takes the
    # short series and its largest the direct form
    lo, hi = sorted((p, 1.0 - p))
    target = math.log(1e-3 / n)
    low_k, high_k = math.floor(target / math.log(lo)) + 1, math.floor(target / math.log(hi))
    assume(low_k <= high_k)
    k = data.draw(st.integers(min_value=low_k, max_value=high_k))
    cells = [math.exp(j * math.log(p) + (k - j) * math.log(1.0 - p)) for j in range(k + 1)]
    assume(n * min(cells) < 1e-3 <= n * max(cells))
    assert ([prob_binomial_ge2(n, c) for c in cells]
            == [ref_prob_binomial_ge2(n, c) for c in cells])
    params = ModelParams(p=p, alpha=0.5, n=n)
    assert expected_fill_fraction(params, k) == ref_expected_fill_fraction(params, k)


def test_threshold_ones_count_edges():
    q = 0.3
    assert threshold_ones_count(12, (1 / q) ** 12, 0.7) == pytest.approx(0.0, abs=1e-9)
    assert threshold_ones_count(12, (1 / 0.7) ** 12, 0.7) == pytest.approx(12.0,
                                                                           rel=1e-12)
    with pytest.raises(ValueError):
        threshold_ones_count(10, 100.0, 0.5)


def test_threshold_ones_count_root_property():
    # the returned gamma solves lam p^g q^(k-g) = 1; also bisection oracle
    for (k, lam, p) in [(20, 2.0**14, 0.7), (35, 1e6, 0.6), (10, 50.0, 0.9)]:
        g = threshold_ones_count(k, lam, p)
        q = 1.0 - p
        residual = lam * p**g * q ** (k - g)
        assert residual == pytest.approx(1.0, rel=1e-9)

        def f(x):
            return math.log(lam) + x * math.log(p) + (k - x) * math.log(q)

        lo, hi = (-200.0, 200.0)
        if f(lo) < f(hi):
            lo, hi = hi, lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert g == pytest.approx(0.5 * (lo + hi), abs=1e-9)
    assert threshold_ones_count(20, 2.0**14, 0.7) == pytest.approx(16.9662, abs=1e-3)


def test_threshold_cell_mean_lands_in_unit_odds_window():
    # the first cell at or past the threshold has mean in [1, p/q) for p > 1/2
    for p in (0.6, 0.7, 0.9):
        q = 1.0 - p
        rho = p / q
        for k in (20, 30, 40):
            lam = (p * q) ** (-k / 2.0)  # centered: 0 < gamma < k
            g = threshold_ones_count(k, lam, p)
            assert 0 < g < k
            j = math.ceil(g)
            mu = prefix_poisson_mean(lam, k, j, p)
            assert 1.0 - 1e-9 <= mu <= rho + 1e-9


def _series_erf(x: float) -> float:
    # Maclaurin series of erf, for the bisection oracle (x in [0, 6])
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def _series_cdf(x: float) -> float:
    return 0.5 * (1.0 + _series_erf(x / math.sqrt(2.0)))


def test_normal_cdf_against_series():
    for x in (-3.0, -1.0, -0.1, 0.0, 0.5, 1.96, 4.0):
        assert normal_cdf(x) == pytest.approx(_series_cdf(x), abs=1e-12)


def test_normal_symmetry_and_center():
    assert normal_cdf(0.0) == 0.5
    assert normal_quantile(0.5) == 0.0
    for a in (0.01, 0.1, 0.25, 0.4, 0.45):
        assert normal_quantile(1 - a) == pytest.approx(-normal_quantile(a),
                                                       abs=1e-12)


def test_normal_quantile_bisection_oracle():
    target = 0.975
    lo, hi = 0.0, 8.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _series_cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert normal_quantile(0.975) == pytest.approx(oracle, abs=1e-9)
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=5e-7)


def test_normal_round_trips():
    for a in (1e-9, 1e-6, 0.001, 0.02425, 0.3, 0.5, 0.77, 0.999, 1 - 1e-9):
        assert normal_cdf(normal_quantile(a)) == pytest.approx(a, abs=1e-8)
    for x in (-6.0, -2.5, -0.3, 0.0, 0.9, 3.3, 6.0):
        assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-8)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def exact_fair_binomial_upper_tail(k: int, threshold: float) -> float:
    lo = math.ceil(threshold)
    num = sum(math.comb(k, j) for j in range(max(lo, 0), k + 1))
    return float(Fraction(num, 2**k))


def test_binomial_tail_normal_approx_values():
    for k in (4, 9, 100):
        assert binomial_tail_normal_approx(k, k / 2.0) == pytest.approx(0.5)
    assert binomial_tail_normal_approx(100, 60.0) == pytest.approx(
        1.0 - normal_cdf(2.0), rel=1e-12)
    assert binomial_tail_normal_approx(100, 60.0) == pytest.approx(0.02275, abs=2e-5)
    with pytest.raises(ValueError):
        binomial_tail_normal_approx(0, 0.0)


@pytest.mark.parametrize("k", [16, 64, 256])
def test_binomial_tail_approx_error_bound(k):
    bound = 0.5 / math.sqrt(k)
    offsets = [0.0, 0.5, 1.0, -1.0, math.sqrt(k) / 2, -math.sqrt(k) / 2,
               math.sqrt(k), -math.sqrt(k)]
    for off in offsets:
        gamma = k / 2.0 + off
        approx = binomial_tail_normal_approx(k, gamma)
        exact = exact_fair_binomial_upper_tail(k, gamma)
        assert abs(approx - exact) <= bound


def test_source_constants_symmetric_source():
    c = source_constants(0.5)
    assert c.entropy == pytest.approx(1.0)
    assert c.max_self_info == pytest.approx(1.0)
    assert c.mean_self_info == pytest.approx(1.0)


def test_source_constants_biased():
    c = source_constants(0.7)
    # cross-check via the natural-log identity h = (p ln(1/p) + q ln(1/q)) / ln 2
    h_nat = (0.7 * math.log(1 / 0.7) + 0.3 * math.log(1 / 0.3)) / math.log(2)
    assert c.entropy == pytest.approx(h_nat, rel=1e-14)
    assert c.entropy == pytest.approx(0.8812908992306927, rel=1e-12)
    assert c.mean_self_info == pytest.approx(-0.5 * math.log2(0.21), rel=1e-14)
    assert c.mean_self_info == pytest.approx(1.1257693834979820, rel=1e-12)
    assert c.shrink_exponent == pytest.approx(0.783, abs=1e-3)
    assert c.max_self_info == pytest.approx(math.log2(10 / 3), rel=1e-12)
    assert c.odds == pytest.approx(7 / 3, rel=1e-12)


@pytest.mark.parametrize("p", [x / 20 for x in range(1, 20) if x != 10])
def test_shrink_exponent_strictly_inside_unit_interval(p):
    c = source_constants(p)
    assert 0.0 < c.shrink_exponent < 1.0
    sym = source_constants(1 - p)
    assert sym.shrink_exponent == pytest.approx(c.shrink_exponent, abs=1e-12)
    assert sym.entropy == pytest.approx(c.entropy, abs=1e-12)
    assert sym.mean_self_info == pytest.approx(c.mean_self_info, abs=1e-12)


def test_closed_form_predictor_center_cases():
    # at alpha = 1/2 the correction vanishes: exactly the leading term
    for p in (0.3, 0.7, 0.9):
        base = 1.0 / math.sqrt(p * (1 - p))
        for n in (100, 2**16):
            assert predict_level_closed_form(n, 0.5, p) == pytest.approx(
                math.log(n) / math.log(base), rel=1e-12)
    # at p = 1/2 the coefficient vanishes: log2 n for every alpha
    for alpha in (0.1, 0.5, 0.9):
        assert predict_level_closed_form(2**16, alpha, 0.5) == pytest.approx(16.0)
    assert predict_level_closed_form(2**16, 0.25, 0.7) == pytest.approx(15.593,
                                                                        abs=2e-3)
    with pytest.raises(ValueError):
        predict_level_closed_form(1.0, 0.5, 0.7)


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_closed_form_p_q_symmetry(p):
    for alpha in (0.25, 0.5, 0.75):
        a = predict_level_closed_form(4096, alpha, p)
        b = predict_level_closed_form(4096, alpha, 1 - p)
        assert abs(a - b) <= 1e-12


def test_calibrated_predictor_definition():
    params = ModelParams(p=0.7, alpha=0.5, n=4096)
    k = predict_level_calibrated(params)
    assert expected_fill_fraction(params, k) >= 0.5
    assert expected_fill_fraction(params, k + 1) < 0.5


def test_calibrated_predictor_two_keys():
    # at n = 2 the level-1 expectation (p^2+q^2)/2 < 1/2, so any alpha >= 1/2
    # calibrates to level 0
    for p in (0.3, 0.5, 0.7):
        for alpha in (0.5, 0.6, 0.75):
            exact = (p * p + (1 - p) ** 2) / 2
            assert exact < alpha
            assert predict_level_calibrated(ModelParams(p=p, alpha=alpha, n=2)) == 0


def test_calibrated_within_three_of_closed_form():
    for alpha in (0.25, 0.5, 0.75):
        for e in range(10, 21):
            n = 2**e
            cal = predict_level_calibrated(ModelParams(p=0.7, alpha=alpha, n=n))
            closed = predict_level_closed_form(n, alpha, 0.7)
            assert abs(cal - closed) <= 3.0


def test_depth_constants():
    got_alpha = depth_constant(0.7, "alpha_lc")
    got_full = depth_constant(0.7, "full_lc")
    # recompute through the constants chain
    c = source_constants(0.7)
    assert got_alpha == pytest.approx(
        1.0 / -math.log2(1.0 - c.entropy / c.mean_self_info), rel=1e-14)
    assert got_alpha == pytest.approx(0.4537, abs=1e-3)
    assert got_alpha == pytest.approx(0.4538992857710215, rel=1e-12)
    assert got_full == pytest.approx(0.9790, abs=1e-3)
    assert got_full == pytest.approx(
        1.0 / -math.log2(1.0 - c.entropy / math.log2(10 / 3)), rel=1e-12)
    with pytest.raises(ValueError):
        depth_constant(0.5)
    with pytest.raises(ValueError):
        depth_constant(0.7, "bogus")


@pytest.mark.parametrize("p", [x / 20 for x in range(1, 20) if x != 10])
def test_alpha_lc_constant_below_full_lc_constant(p):
    assert depth_constant(p, "alpha_lc") < depth_constant(p, "full_lc")


def test_predict_full_fillup():
    assert predict_full_fillup(2**16, 0.7) == pytest.approx(
        (16 - math.log2(math.log2(16))) / math.log2(10 / 3), rel=1e-12)
    assert predict_full_fillup(2**16, 0.7) == pytest.approx(8.06, abs=1e-2)
    assert predict_full_fillup(2**16, 0.3) == predict_full_fillup(2**16, 0.7)
    # the partial-fillup predictor sits far deeper than the full one
    assert predict_level_closed_form(2**16, 0.5, 0.7) == pytest.approx(14.21,
                                                                       abs=1e-2)
    assert predict_level_closed_form(2**16, 0.5, 0.7) > predict_full_fillup(
        2**16, 0.7)
    with pytest.raises(ValueError):
        predict_full_fillup(2**16, 0.5)
    with pytest.raises(ValueError):
        predict_full_fillup(8, 0.7)


def test_expected_fill_fraction_deep_levels_stay_finite():
    # log-gamma weights keep the sum finite out to thousands of levels
    params = ModelParams(p=0.7, alpha=0.5, lam=1e6)
    for k in (1024, 4096):
        value = expected_fill_fraction(params, k)
        assert 0.0 <= value < 1e-200
        assert math.isfinite(value)
    sym = expected_fill_fraction(ModelParams(p=0.3, alpha=0.5, lam=1e6), 1024)
    assert abs(sym - expected_fill_fraction(params, 1024)) <= 1e-12


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(p=0.7, alpha=0.5)
    with pytest.raises(ValueError):
        ModelParams(p=0.7, alpha=0.5, n=10, lam=10.0)
    with pytest.raises(ValueError):
        ModelParams(p=0.7, alpha=1.5, n=10)
    # alpha = 1 (the classic fillup level) is a model the simulations run,
    # but not one the level predictors take
    classic = ModelParams(p=0.7, alpha=1.0, n=10)
    with pytest.raises(ValueError, match=r"strictly in \(0, 1\), got 1.0"):
        predict_level_calibrated(classic)
    for lam in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            ModelParams(p=0.7, alpha=0.5, lam=lam)
    params = ModelParams(p=0.7, alpha=0.5, lam=64.0)
    assert params.is_poisson and params.size == 64.0 and params.model == "poisson"
    fixed = params.with_size(n=128)
    assert not fixed.is_poisson and fixed.size == 128.0 and fixed.model == "fixed_n"
