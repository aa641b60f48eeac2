"""Reproducible Monte Carlo experiments over random tries.

Every trial derives its own key stream from (seed, trial index), so results
are byte-identical whatever the worker count or scheduling; aggregation uses
only commutative counts and sums.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .analysis import ModelParams, expected_fill_fraction, predict_level_calibrated
from .lctrie import designated_depth
from .source import SourceParams, generate_keys, trial_seed
from .trie import LevelProfile, _capped_fillup, _random_level_counts

__all__ = [
    "ExperimentConfig",
    "FillupHistogram",
    "DepthSummary",
    "FillFractionEstimate",
    "Report",
    "simulate_fillup",
    "simulate_depth",
    "estimate_fill_fraction",
    "estimate_fill_fractions",
    "poisson_sample",
    "compare_report",
    "total_variation",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, trial count, master seed, worker count."""

    params: ModelParams
    trials: int
    seed: int
    jobs: int | None = 1   # None: one per CPU

    def __post_init__(self):
        # each message starts with the field's name, which is also its flag's
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if not 0 <= self.seed < 1 << 64:
            # trial_seed would fold it onto a seed in range
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class FillupHistogram:
    """Frequencies of the alpha-fillup level over trials.  Poisson trials
    drawing fewer than two keys leave the level undefined and are counted
    separately rather than resampled."""

    counts: dict[int, int]
    trials: int
    undefined: int
    rows: list[tuple[int, int, int | None]] = field(repr=False, default_factory=list)

    @property
    def defined(self) -> int:
        return self.trials - self.undefined

    @property
    def mode(self) -> int:
        if not self.counts:
            raise ValueError("no defined trials")
        best = max(self.counts.values())
        return min(k for k, v in self.counts.items() if v == best)

    @property
    def top_two_consecutive_mass(self) -> float:
        """Fraction of defined trials on the best pair of consecutive levels."""
        if not self.counts:
            return 0.0
        best = max(self.counts[k] + self.counts.get(k + 1, 0) for k in self.counts)
        return best / self.defined

    def normalized(self) -> dict[int, float]:
        return {k: v / self.defined for k, v in sorted(self.counts.items())}


@dataclass
class DepthSummary:
    """Summary of the designated key's compressed search depth."""

    n: int
    alpha: float
    trials: int
    mean: float
    variance: float
    quantiles: dict[float, float]
    loglog_ratio: float
    rows: list[tuple[int, int, int, int]] = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class FillFractionEstimate:
    k: int
    mean: float
    stderr: float
    variance: float
    variance_stderr: float
    trials: int


def poisson_sample(lam: float, rng: np.random.Generator) -> int:
    """One exact Poisson draw: sequential-search inversion up to lam = 30,
    transformed rejection (Hormann's PTRS) above."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if lam <= 30.0:
        u = rng.random()
        pmf = math.exp(-lam)
        cdf = pmf
        k = 0
        while u > cdf:
            k += 1
            pmf *= lam / k
            cdf += pmf
            if k > 2000:  # numerically unreachable; guards degenerate u
                break
        return k
    smu = math.sqrt(lam)
    b = 0.931 + 2.53 * smu
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2.0)
    log_lam = math.log(lam)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= vr:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v * inv_alpha / (a / (us * us) + b))
                <= k * log_lam - lam - math.lgamma(k + 1)):
            return int(k)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # separate stream from the key bits, used only for Poisson size draws
    return np.random.default_rng((seed, trial, 0xA11CE))


def _effective_n(params: ModelParams, seed: int, trial: int) -> int:
    if params.is_poisson:
        return poisson_sample(params.lam, _trial_rng(seed, trial))
    return params.n


def _fillup_trial(task):
    params, seed, alpha, trial = task
    n_eff = _effective_n(params, seed, trial)
    if n_eff < 2:
        return (trial, n_eff, None)
    keys = generate_keys(SourceParams(params.p, trial_seed(seed, trial)), n_eff)
    return (trial, n_eff, _capped_fillup(keys, None, 0, alpha)[0])


def _depth_trial(task):
    params, seed, alpha, trial = task
    keys = generate_keys(SourceParams(params.p, trial_seed(seed, trial)), params.n)
    sample = designated_depth(keys, alpha, 0)
    return (trial, params.n, sample.depth, sample.consumed_total)


def _fractions_trial(task):
    params, seed, ks, trial = task
    n_eff = _effective_n(params, seed, trial)
    if n_eff < 2:
        return (trial, n_eff, tuple(0.0 for _ in ks))
    keys = generate_keys(SourceParams(params.p, trial_seed(seed, trial)), n_eff)
    profile = LevelProfile(_random_level_counts(keys, max(ks)))
    return (trial, n_eff, tuple(profile.fraction(k) for k in ks))


def _run_trials(worker, tasks, jobs: int):
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(tasks) < 2:
        results = [worker(t) for t in tasks]
    else:
        # imported here: the process pool costs about 20 ms of every CLI start
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(tasks) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, tasks, chunksize=chunk))
    results.sort(key=lambda r: r[0])
    return results


def simulate_fillup(config: ExperimentConfig) -> FillupHistogram:
    """Alpha-fillup level of a fresh random trie per trial."""
    p = config.params
    tasks = [(p, config.seed, p.alpha, t) for t in range(config.trials)]
    rows = _run_trials(_fillup_trial, tasks, config.jobs)
    counts: dict[int, int] = {}
    undefined = 0
    for _, _, level in rows:
        if level is None:
            undefined += 1
        else:
            counts[level] = counts.get(level, 0) + 1
    return FillupHistogram(
        counts=dict(sorted(counts.items())),
        trials=config.trials,
        undefined=undefined,
        rows=rows,
    )


def simulate_depth(config: ExperimentConfig) -> DepthSummary:
    """Compressed search depth of key 0 in a fresh random trie per trial."""
    p = config.params
    if p.is_poisson or p.n < 2:
        raise ValueError("depth simulation needs a fixed n of at least 2")
    tasks = [(p, config.seed, p.alpha, t) for t in range(config.trials)]
    rows = _run_trials(_depth_trial, tasks, config.jobs)
    depths = np.array([r[2] for r in rows], dtype=np.float64)
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    qs = dict(zip(levels, np.quantile(depths, levels).tolist()))
    mean = float(depths.mean())
    loglog = math.log2(math.log2(p.n))
    return DepthSummary(
        n=p.n,
        alpha=p.alpha,
        trials=config.trials,
        mean=mean,
        variance=float(depths.var(ddof=1)) if len(depths) > 1 else 0.0,
        quantiles=qs,
        loglog_ratio=mean / loglog if loglog > 0 else math.inf,
        rows=rows,
    )


def estimate_fill_fractions(config: ExperimentConfig,
                            ks: list[int]) -> dict[int, FillFractionEstimate]:
    """Monte Carlo mean of the fill fraction at each requested level, in one
    pass over the trials.  Poisson trials keep sizes below two (the fraction
    is then zero), so the estimator stays unbiased for the model expectation.
    """
    if not ks:
        return {}
    if any(k < 0 for k in ks):
        raise ValueError("levels must be nonnegative")
    p = config.params
    tasks = [(p, config.seed, tuple(ks), t) for t in range(config.trials)]
    rows = _run_trials(_fractions_trial, tasks, config.jobs)
    data = np.array([r[2] for r in rows], dtype=np.float64)  # (trials, len(ks))
    t = config.trials
    out: dict[int, FillFractionEstimate] = {}
    for i, k in enumerate(ks):
        x = data[:, i]
        mean = float(x.mean())
        var = float(x.var(ddof=1)) if t > 1 else 0.0
        stderr = math.sqrt(var / t) if t > 1 else 0.0
        centered = x - mean
        m4 = float(np.mean(centered**4))
        var_se = math.sqrt(max(m4 - var * var, 0.0) / t) if t > 1 else 0.0
        out[k] = FillFractionEstimate(
            k=k, mean=mean, stderr=stderr, variance=var,
            variance_stderr=var_se, trials=t,
        )
    return out


def estimate_fill_fraction(config: ExperimentConfig, k: int) -> FillFractionEstimate:
    return estimate_fill_fractions(config, [k])[k]


def total_variation(h1: FillupHistogram, h2: FillupHistogram) -> float:
    """Total variation distance between two normalized fillup histograms."""
    f1, f2 = h1.normalized(), h2.normalized()
    levels = set(f1) | set(f2)
    return 0.5 * sum(abs(f1.get(k, 0.0) - f2.get(k, 0.0)) for k in levels)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def csv_text(header, rows) -> str:
    """The CSV encoding of every table: a header line (none if header is
    None), then one line per row; None is an empty field, a float its repr."""
    lines = list(rows) if header is None else [header, *rows]
    return "".join(",".join(_fmt(v) for v in line) + "\n" for line in lines)


def json_text(payload) -> str:
    """The JSON encoding of every payload: sorted keys, a 2-space indent."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class Report:
    """A joined table of simulation estimates and analytic values."""

    kind: str
    header: list[str]
    rows: list[tuple]
    config: dict

    def to_csv(self) -> str:
        return csv_text(self.header, self.rows)

    def to_json(self) -> str:
        return json_text({"kind": self.kind, "config": self.config,
                          "columns": self.header, "rows": self.rows})


def _config_echo(config: ExperimentConfig) -> dict:
    p = config.params
    return {
        "model": p.model,
        "n_or_lambda": p.size,
        "p": p.p,
        "alpha": p.alpha,
        "trials": config.trials,
        "seed": config.seed,
    }


def compare_report(config: ExperimentConfig, *, ks: list[int] | None = None,
                   n_values: list[int] | None = None,
                   alphas: list[float] | None = None) -> Report:
    """Join Monte Carlo estimates with analytic predictions.

    With `ks`, compares fill-fraction estimates against the exact expectation
    at each level.  With `n_values` (and optionally `alphas`), sweeps the
    fillup simulation against the calibrated level predictor.
    """
    if ks is not None:
        estimates = estimate_fill_fractions(config, list(ks))
        rows = []
        for k in ks:
            est = estimates[k]
            analytic = expected_fill_fraction(config.params, k)
            rows.append((k, est.mean, est.stderr, analytic, est.mean - analytic))
        return Report(
            kind="expectation",
            header=["k", "mc_mean", "stderr", "analytic", "diff"],
            rows=rows,
            config=_config_echo(config),
        )
    if n_values is None:
        raise ValueError("provide ks for an expectation sweep or n_values "
                         "for a fillup sweep")
    if alphas is None:
        alphas = [config.params.alpha]
    rows = []
    for n in n_values:
        for alpha in alphas:
            params = ModelParams(p=config.params.p, alpha=alpha, n=n)
            # first, as the predictor takes no alpha = 1 and the trials do
            analytic = float(predict_level_calibrated(params))
            sub = ExperimentConfig(params=params, trials=config.trials,
                                   seed=config.seed, jobs=config.jobs)
            hist = simulate_fillup(sub)
            levels = [lvl for _, _, lvl in hist.rows if lvl is not None]
            arr = np.array(levels, dtype=np.float64)
            mean = float(arr.mean()) if len(arr) else float("nan")
            stderr = (float(arr.std(ddof=1) / math.sqrt(len(arr)))
                      if len(arr) > 1 else 0.0)
            rows.append((n, alpha, mean, stderr, analytic, mean - analytic))
    return Report(
        kind="fillup",
        header=["n", "alpha", "mc_mean_f", "stderr", "calibrated_k", "diff"],
        rows=rows,
        config=_config_echo(config),
    )


def fillup_csv(hist: FillupHistogram) -> str:
    """Per-trial CSV: trial, effective key count, fillup level (empty when
    the trial drew fewer than two keys)."""
    return csv_text(("trial", "n_effective", "F"), hist.rows)


def depth_csv(summary: DepthSummary) -> str:
    """Per-trial CSV: trial, n, depth, consumed levels."""
    return csv_text(("trial", "n", "D", "consumed_total"), summary.rows)
