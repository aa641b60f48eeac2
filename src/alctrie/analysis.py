"""Analytic quantities for tries over a memoryless binary source: exact
fill-fraction expectations under the fixed-n and Poisson models, level
predictors, entropy-style constants, and search-depth growth constants.

All probability products run in log space and binomial weights go through
log-gamma, so levels k up to a few thousand stay finite.  Everything here is
a pure function; the level weights and the short series' per-n constants
are kept in bounded tables across calls, which changes no value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ModelParams",
    "SourceConstants",
    "prob_poisson_ge2",
    "prob_binomial_ge2",
    "prefix_poisson_mean",
    "expected_fill_fraction",
    "threshold_ones_count",
    "normal_cdf",
    "normal_quantile",
    "binomial_tail_normal_approx",
    "source_constants",
    "predict_level_closed_form",
    "predict_level_calibrated",
    "depth_constant",
    "predict_full_fillup",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ModelParams:
    """A model instance: bit probability p, target fraction alpha, and the
    number of keys, either fixed (n) or Poisson distributed (lam).  Alpha = 1
    is the classic fillup level, which the simulations take and the level
    predictors do not."""

    p: float
    alpha: float
    n: int | None = None
    lam: float | None = None

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie strictly between 0 and 1, got {self.p}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if (self.n is None) == (self.lam is None):
            raise ValueError("exactly one of n and lam must be given")
        if self.n is not None and self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.lam is not None and not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")

    @property
    def is_poisson(self) -> bool:
        return self.lam is not None

    @property
    def model(self) -> str:
        """The model's name in every output: "poisson" or "fixed_n"."""
        return "poisson" if self.is_poisson else "fixed_n"

    @property
    def size(self) -> float:
        return self.lam if self.lam is not None else float(self.n)

    @property
    def q(self) -> float:
        return 1.0 - self.p

    def with_size(self, *, n: int | None = None, lam: float | None = None):
        return ModelParams(p=self.p, alpha=self.alpha, n=n, lam=lam)


@dataclass(frozen=True)
class SourceConstants:
    """Per-symbol information constants of the source (logs base 2).

    entropy         -p log p - q log q
    max_self_info   log(1/min(p, q)), the largest per-symbol information
    mean_self_info  log(1/sqrt(pq)), the average of the two self-informations
    shrink_exponent entropy / mean_self_info; group sizes in the compressed
                    search path shrink like size**(1 - shrink_exponent)
    odds            p / q
    """

    p: float
    entropy: float
    max_self_info: float
    mean_self_info: float
    shrink_exponent: float
    odds: float


def prob_poisson_ge2(mu: float) -> float:
    """P(Poisson(mu) >= 2) = 1 - (1 + mu) e^-mu, stable near zero."""
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    return _poisson_ge2_cells([mu])[0]


def _poisson_ge2_cells(mus: list[float]) -> list[float]:
    """P(Poisson(mu) >= 2) for each mu >= 0.  Below mu = 1e-4 the direct form
    cancels, and 1 - (1+mu)e^-mu is taken as e^-mu (mu^2/2 + mu^3/6 + mu^4/24
    + mu^5/120)."""
    exp, expm1 = math.exp, math.expm1
    return [0.0 if mu == 0.0
            else exp(-mu) * (0.5 * mu * mu * (1.0 + mu / 3.0 + mu * mu / 12.0 + mu**3 / 60.0))
            if mu < 1e-4
            else -expm1(-mu) - mu * exp(-mu)
            for mu in mus]


def prob_binomial_ge2(n: int, q: float) -> float:
    """P(Binomial(n, q) >= 2) = 1 - (1-q)^n - n q (1-q)^(n-1).

    Uses the short series of _binomial_ge2_series when n*q is tiny, where the
    direct form cancels.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return _binomial_ge2_cells(n, [q])[0]


def _binomial_ge2_cells(n: int, qs: list[float]) -> list[float]:
    """P(Binomial(n, q) >= 2) for each q in [0, 1]: the short series where
    0 < n q < 1e-3, the direct form 1 - (1-q)^n - n q (1-q)^(n-1) elsewhere."""
    if n < 2:
        return [0.0] * len(qs)
    exp, log, log1p = math.exp, math.log, math.log1p
    n_f, n1_f, log_n = float(n), float(n - 1), math.log(n)
    # 0 < q and n q < 1e-3 imply q < 1: those cells take the short series
    small = [q for q in qs if 0.0 < q and n_f * q < 1e-3]
    series = iter(_binomial_ge2_series(n, small) if small else ())
    return [q if q == 0.0 or q == 1.0
            else next(series) if n_f * q < 1e-3
            else 1.0 - exp(n_f * (log1mq := log1p(-q))) - exp(log_n + log(q) + n1_f * log1mq)
            for q in qs]


# log C(n, i) as lgamma(n+1) - lgamma(i+1) - lgamma(n-i+1) cancels as n grows,
# its error about n ln n times the float epsilon.  Past 2^20, where that
# passes 1e-9, the series takes i log n + sum_{j<i} log1p(-j/n) - lgamma(i+1),
# which does not cancel; up to 2^20 it keeps the lgamma form, whose bits the
# pinned outputs record.
_LGAMMA_SERIES_MAX_N = 2**20


@lru_cache(maxsize=64)
def _series_constants(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The short series' constants for n: its terms i = 2..min(n, 8), log C(n, i)
    and n - i, each a float array.  Kept for the last 64 n."""
    terms = range(2, min(n, 8) + 1)
    if n > _LGAMMA_SERIES_MAX_N:
        log_n = math.log(n)
        log_c = [i * log_n + sum(math.log1p(-j / n) for j in range(1, i)) - math.lgamma(i + 1)
                 for i in terms]
    else:
        log_c = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                 for i in terms]
    rest = [float(n - i) for i in terms]   # n - i overflows int64 past 2^63
    return np.array(terms, dtype=np.float64), np.array(log_c), np.array(rest)


def _binomial_ge2_series(n: int, qs: list[float]) -> list[float]:
    """P(Binomial(n, q) >= 2) for each q in qs, where 0 < n q < 1e-3: the sum
    of C(n, i) q^i (1-q)^(n-i) over i = 2..min(n, 8), formed in log space.

    The exponents of all the cells are one matrix, a row per cell, made by
    numpy's exactly rounded + and * in the order the scalar expression uses
    (no fused multiply-add); math.exp and math.fsum, exact in any order,
    finish each row.
    """
    terms, log_c, rest = _series_constants(n)
    logq = np.array(list(map(math.log, qs)))[:, None]
    log1mq = np.array([math.log1p(-q) for q in qs])[:, None]
    args = log_c + terms * logq + rest * log1mq
    exps = map(math.exp, args.ravel().tolist())
    return list(map(math.fsum, zip(*[exps] * len(log_c))))


def prefix_poisson_mean(lam: float, k: int, j: int, p: float) -> float:
    """Poisson mean lam * p^j * q^(k-j) of a k-bit prefix cell with j ones."""
    if not (0 <= j <= k):
        raise ValueError(f"j must lie in 0..k, got j={j}, k={k}")
    q = 1.0 - p
    return math.exp(math.log(lam) + j * math.log(p) + (k - j) * math.log(q))


_TABLED_LEVELS = 128
_LEVEL_WEIGHTS: dict[int, list[float]] = {}


def _level_weights(k: int) -> list[float]:
    """The weights C(k, j) 2^-k of level k's cells, j = 0..k, from log-gamma.
    They do not depend on the model.  Levels below _TABLED_LEVELS are kept
    in _LEVEL_WEIGHTS once formed, at most 128 * 129 / 2 = 8,256 floats;
    deeper levels are formed on each call."""
    weights = _LEVEL_WEIGHTS.get(k)
    if weights is None:
        lg = list(map(math.lgamma, range(1, k + 2)))   # lg[j] = lgamma(j + 1)
        weights = [math.exp(lg[k] - lg[j] - lg[k - j] - k * _LN2) for j in range(k + 1)]
        if k < _TABLED_LEVELS:
            _LEVEL_WEIGHTS[k] = weights
    return weights


def expected_fill_fraction(params: ModelParams, k: int) -> float:
    """Expected fraction of filled nodes at level k.

    Poisson model: 2^-k * sum_j C(k,j) P(Poisson(lam p^j q^(k-j)) >= 2).
    Fixed-n model: the same sum with P(Binomial(n, p^j q^(k-j)) >= 2).

    The weights come from _level_weights' table, and a level's cells are
    evaluated in one pass, the ones that take the short binomial series
    together.  Each term is the float prob_binomial_ge2 (or prob_poisson_ge2)
    would give, and math.fsum is exact.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    exp = math.exp
    logp = math.log(params.p)
    logq = math.log(params.q)
    if params.is_poisson:
        loglam = math.log(params.lam)
        probs = _poisson_ge2_cells([exp(loglam + j * logp + (k - j) * logq)
                                    for j in range(k + 1)])
    else:
        probs = _binomial_ge2_cells(params.n, [exp(j * logp + (k - j) * logq)
                                               for j in range(k + 1)])
    return math.fsum(map(operator.mul, _level_weights(k), probs))


def threshold_ones_count(k: int, lam: float, p: float) -> float:
    """The ones-count at which a k-bit prefix cell's Poisson mean crosses 1:
    the gamma solving lam p^gamma q^(k-gamma) = 1, in closed form
    (k ln(1/q) - ln lam) / ln(p/q).  Undefined at p = 1/2."""
    if p == 0.5:
        raise ValueError("threshold is undefined for p = 1/2 (all cells equal)")
    q = 1.0 - p
    return (k * math.log(1.0 / q) - math.log(lam)) / math.log(p / q)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)


def normal_quantile(a: float) -> float:
    """Inverse of normal_cdf on (0, 1): rational approximation polished by one
    Newton step against normal_cdf."""
    if not (0.0 < a < 1.0):
        raise ValueError(f"quantile argument must lie strictly in (0, 1), got {a}")
    plow, phigh = 0.02425, 1.0 - 0.02425
    A, B, C, D = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if a < plow:
        r = math.sqrt(-2.0 * math.log(a))
        x = ((((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
             / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0))
    elif a <= phigh:
        r = a - 0.5
        s = r * r
        x = ((((((A[0] * s + A[1]) * s + A[2]) * s + A[3]) * s + A[4]) * s + A[5]) * r
             / (((((B[0] * s + B[1]) * s + B[2]) * s + B[3]) * s + B[4]) * s + 1.0))
    else:
        r = math.sqrt(-2.0 * math.log(1.0 - a))
        x = -((((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
              / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0))
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if pdf > 1e-300:
        x -= (normal_cdf(x) - a) / pdf
    return x


def binomial_tail_normal_approx(k: int, threshold: float) -> float:
    """Normal approximation 1 - Phi((t - k/2) / sqrt(k/4)) of the fair
    binomial upper tail P(Binomial(k, 1/2) >= t)."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return 1.0 - normal_cdf((threshold - k / 2.0) / math.sqrt(k / 4.0))


def source_constants(p: float) -> SourceConstants:
    """Information constants of the source with P(1) = p (logs base 2)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    q = 1.0 - p
    entropy = -(p * math.log2(p) + q * math.log2(q))
    max_self_info = math.log2(1.0 / min(p, q))
    mean_self_info = math.log2(1.0 / math.sqrt(p * q))
    return SourceConstants(
        p=p,
        entropy=entropy,
        max_self_info=max_self_info,
        mean_self_info=mean_self_info,
        shrink_exponent=entropy / mean_self_info,
        odds=p / q,
    )


def predict_level_closed_form(size: float, alpha: float, p: float) -> float:
    """Closed-form center of the alpha-fillup level:

        log_{1/sqrt(pq)} size
          - |ln(p/q)| / (2 ln^{3/2}(1/sqrt(pq))) * Phi^{-1}(alpha) * sqrt(ln size)

    The second term vanishes at alpha = 1/2 and for p = 1/2 (where the value
    reduces to log2 size).  The unknown additive O(1) term is taken as zero;
    see predict_level_calibrated for the exact-expectation counterpart.
    """
    if not size > 1:
        raise ValueError(f"size must exceed 1, got {size}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    q = 1.0 - p
    ln_base = math.log(1.0 / math.sqrt(p * q))
    ln_size = math.log(size)
    leading = ln_size / ln_base
    coeff = abs(math.log(p / q)) / (2.0 * ln_base**1.5)
    return leading - coeff * normal_quantile(alpha) * math.sqrt(ln_size)


def predict_level_calibrated(params: ModelParams, cap: int | None = None) -> int:
    """Largest level whose exact expected fill fraction is at least alpha.

    Searches upward from level 0; the expectation eventually drops below
    alpha, and the search is capped at 8 log2(size) levels.
    """
    if params.size < 2:
        raise ValueError("size must be at least 2")
    if not params.alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {params.alpha}")
    if cap is None:
        cap = max(8, int(8 * math.log2(params.size)))
    if expected_fill_fraction(params, 0) < params.alpha:
        raise ValueError("level 0 is already below alpha; no level qualifies")
    for k in range(1, cap + 1):
        if expected_fill_fraction(params, k) < params.alpha:
            return k - 1
    raise RuntimeError(f"calibrated level search exceeded cap {cap}")


def depth_constant(p: float, variant: str = "alpha_lc") -> float:
    """Coefficient of log log n in the typical compressed search depth.

    variant "alpha_lc": 1 / -log2(1 - entropy / mean_self_info); independent
    of alpha.  variant "full_lc": 1 / -log2(1 - entropy / max_self_info),
    the classic full-subtree compression.  Undefined at p = 1/2, where both
    denominators degenerate.
    """
    if p == 0.5:
        raise ValueError("depth constant is undefined at p = 1/2")
    c = source_constants(p)
    if variant == "alpha_lc":
        rate = c.mean_self_info
    elif variant == "full_lc":
        rate = c.max_self_info
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return 1.0 / -math.log2(1.0 - c.entropy / rate)


def predict_full_fillup(n: float, p: float) -> float:
    """Reference center of the classic (fully filled) fillup level:
    (log2 n - log2 log2 log2 n) / log2(1/min(p,q)), O(1) term zero."""
    if p == 0.5:
        raise ValueError("use log2 n directly at p = 1/2")
    if n < 16:
        raise ValueError("n must be at least 16 for the iterated logarithm")
    c = source_constants(p)
    return (math.log2(n) - math.log2(math.log2(math.log2(n)))) / c.max_self_info
