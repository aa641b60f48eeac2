"""Command-line frontend: predictors, expectation tables, simulations, and
building/querying compressed tries over key files.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 2 usage
error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .analysis import (
    ModelParams,
    depth_constant,
    expected_fill_fraction,
    predict_level_calibrated,
    predict_level_closed_form,
)
from .lctrie import compress, longest_prefix_match, match_length, structure_stats
from .montecarlo import (
    ExperimentConfig,
    _config_echo,
    csv_text,
    depth_csv,
    fillup_csv,
    json_text,
    simulate_depth,
    simulate_fillup,
)
from .source import KeyFileError, load_keys, parse_key_line


def _parse_range(text: str) -> list[int]:
    """Inclusive range "a..b" of levels, or a single level."""
    lo_s, dots, hi_s = text.partition("..")
    lo = int(lo_s)
    hi = int(hi_s) if dots else lo
    if lo < 0:
        raise argparse.ArgumentTypeError(f"negative level in {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal: {text!r}") from None
    return value


def _add_model_flags(sub, *, need_alpha: bool, fixed_only: bool = False,
                     alpha_domain: str = "(0, 1)"):
    sub.add_argument("--p", type=_probability, required=True,
                     help="probability of a 1 bit, strictly between 0 and 1")
    sub.add_argument("--n", type=int, help="fixed number of keys")
    if not fixed_only:
        sub.add_argument("--lambda", dest="lam", type=float,
                         help="Poisson mean number of keys")
    if need_alpha:
        sub.add_argument("--alpha", type=_probability, required=True,
                         help=f"target fill fraction in {alpha_domain}")


def _add_sim_flags(sub):
    sub.add_argument("--trials", type=int, default=200,
                     help="number of Monte Carlo trials (default 200)")
    sub.add_argument("--seed", type=int, default=0,
                     help="master seed; fully determines all output")
    sub.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: all cores); "
                          "results are identical for any value")


def _add_format_flag(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output encoding (values are identical)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alctrie",
        description="Partial-fillup level-compressed tries: predictors, "
                    "expectation tables, simulations, and prefix matching.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("predict",
                         help="closed-form and calibrated fillup levels plus "
                              "depth growth constants")
    _add_model_flags(sp, need_alpha=True)
    _add_format_flag(sp)

    sp = subs.add_parser("expect",
                         help="expected fill fraction over a range of levels")
    _add_model_flags(sp, need_alpha=False)
    sp.add_argument("--k", type=_parse_range, required=True,
                    help="level range a..b (inclusive) or a single level")
    sp.add_argument("--alpha", type=_probability, default=0.5,
                    help="fraction in (0, 1) recorded in the output rows (no "
                         "effect on the expectation itself)")
    _add_format_flag(sp)

    sp = subs.add_parser("sim-fillup",
                         help="simulate the alpha-fillup level distribution")
    _add_model_flags(sp, need_alpha=True, alpha_domain="(0, 1]")
    _add_sim_flags(sp)
    _add_format_flag(sp)

    sp = subs.add_parser("sim-depth",
                         help="simulate the compressed search depth of key 0")
    _add_model_flags(sp, need_alpha=True, fixed_only=True, alpha_domain="(0, 1]")
    _add_sim_flags(sp)
    _add_format_flag(sp)

    sp = subs.add_parser("build",
                         help="compress a key file and report structure stats")
    sp.add_argument("--keys", required=True, help="key file (0/1 lines or CIDR)")
    sp.add_argument("--alpha", type=_probability, required=True,
                    help="target fill fraction in (0, 1]")
    _add_format_flag(sp)

    sp = subs.add_parser("query",
                         help="longest prefix match of each query against a "
                              "compressed key file")
    sp.add_argument("--keys", required=True, help="key file (0/1 lines or CIDR)")
    sp.add_argument("--queries", required=True,
                    help="query file, same formats as the key file")
    sp.add_argument("--alpha", type=_probability, default=1.0,
                    help="compression fraction in (0, 1] (default 1.0)")
    _add_format_flag(sp)
    return parser


def _model_params(args, *, closed: bool = False,
                  least_n: int = 0) -> ModelParams:
    """The model of the flags; closed admits alpha = 1 (the simulations),
    and least_n is the floor of --n and of --lambda."""
    n = args.n
    lam = getattr(args, "lam", None)
    if (n is None) == (lam is None):
        # sim-depth has no --lambda flag
        need = "exactly one of --n and --lambda is" if hasattr(args, "lam") else "--n is"
        raise SystemExit(_usage_error(f"{need} required"))
    if n is not None:
        _check_count("--n", n, least_n)
    elif not 0 < lam < math.inf:
        raise SystemExit(_usage_error(f"--lambda must be positive and finite, got {lam}"))
    else:
        _check_count("--lambda", lam, least_n)
    _check_fraction("--p", args.p)
    _check_fraction("--alpha", args.alpha, closed=closed)
    return ModelParams(p=args.p, alpha=args.alpha, n=n, lam=lam)


def _check_fraction(flag: str, value: float, *, closed: bool = False):
    """A usage error unless value lies in (0, 1), or in (0, 1] if closed."""
    if not (0.0 < value < 1.0 or closed and value == 1.0):
        domain = "in (0, 1]" if closed else "strictly in (0, 1)"
        raise SystemExit(_usage_error(f"{flag} must lie {domain}, got {value}"))


def _check_count(flag: str, value: float, least: int):
    """A usage error unless value is at least `least`."""
    if value < least:
        raise SystemExit(_usage_error(f"{flag} must be at least {least}, got {value}"))


def _sim_config(args, *, least_n: int = 0) -> ExperimentConfig:
    """The experiment of a simulation's flags, each checked before any trial
    runs."""
    params = _model_params(args, closed=True, least_n=least_n)
    try:
        return ExperimentConfig(params=params, trials=args.trials,
                                seed=args.seed, jobs=args.jobs)
    except ValueError as exc:   # its message starts with the flag's name
        raise SystemExit(_usage_error(f"--{exc}")) from None


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _emit_model_table(params, rows, fmt, out):
    """predict's and expect's table: a row per (model, k, value)."""
    header = ("model", "n_or_lambda", "p", "alpha", "k", "value")
    rows = [(m, params.size, params.p, params.alpha, k, v) for m, k, v in rows]
    out.write(json_text({"columns": header, "rows": rows}) if fmt == "json"
              else csv_text(header, rows))


def _cmd_predict(args, out):
    params = _model_params(args, least_n=2)
    closed = predict_level_closed_form(params.size, params.alpha, params.p)
    calibrated = predict_level_calibrated(params)
    rows = [("closed_form", None, closed), ("calibrated", calibrated, float(calibrated))]
    if params.p != 0.5:
        rows += [(f"depth_{c}", None, depth_constant(params.p, c))
                 for c in ("alpha_lc", "full_lc")]
    _emit_model_table(params, [(f"{params.model}:{name}", k, v) for name, k, v in rows],
                      args.format, out)
    return 0


def _cmd_expect(args, out):
    params = _model_params(args)
    rows = [(params.model, k, expected_fill_fraction(params, k)) for k in args.k]
    _emit_model_table(params, rows, args.format, out)
    return 0


def _cmd_sim_fillup(args, out):
    config = _sim_config(args)
    hist = simulate_fillup(config)
    if args.format == "json":
        out.write(json_text({
            "config": _config_echo(config),
            "histogram": {str(k): v for k, v in hist.counts.items()},
            "undefined_trials": hist.undefined,
            "top_two_consecutive_mass": hist.top_two_consecutive_mass,
            "rows": hist.rows,
        }))
    else:
        out.write(fillup_csv(hist))
    print(f"defined trials: {hist.defined}/{hist.trials}; "
          f"top-two consecutive mass: {hist.top_two_consecutive_mass:.4f}",
          file=sys.stderr)
    return 0


def _cmd_sim_depth(args, out):
    config = _sim_config(args, least_n=2)
    summary = simulate_depth(config)
    if args.format == "json":
        out.write(json_text({
            "config": {"n": args.n, "p": args.p, "alpha": args.alpha,
                       "trials": args.trials, "seed": args.seed},
            "mean": summary.mean,
            "variance": summary.variance,
            "quantiles": {str(q): v for q, v in summary.quantiles.items()},
            "mean_over_loglog_n": summary.loglog_ratio,
            "rows": summary.rows,
        }))
    else:
        out.write(depth_csv(summary))
    print(f"mean depth {summary.mean:.3f} over {summary.trials} trials",
          file=sys.stderr)
    return 0


def _cmd_build(args, out):
    _check_fraction("--alpha", args.alpha, closed=True)
    keys = load_keys(args.keys)
    trie = compress(keys, args.alpha)
    stats = structure_stats(trie)
    # in CSV order: one metric a line, the histogram last, a level a line
    summary = {
        "keys": len(keys),
        "alpha": args.alpha,
        "node_count": stats.node_count,
        "empty_slot_fraction": stats.empty_slot_fraction,
        "max_depth": stats.max_depth,
        "consumed_histogram": {str(c): v for c, v in stats.consumed_histogram.items()},
    }
    if args.format == "json":
        out.write(json_text(summary))
    else:
        hist = summary.pop("consumed_histogram")
        rows = [*summary.items(), *((f"consumed_{c}", v) for c, v in hist.items())]
        out.write(csv_text(("metric", "value"), rows))
    return 0


def _cmd_query(args, out):
    _check_fraction("--alpha", args.alpha, closed=True)
    keys = load_keys(args.keys)
    trie = compress(keys, args.alpha)
    answers = []
    with open(args.queries, "r", encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            bits = parse_key_line(line, line_no)
            kid = longest_prefix_match(trie, bits)
            if kid is None:
                answers.append(None)
            else:
                answers.append((kid, match_length(trie, bits, kid)))
    if args.format == "json":
        out.write(json_text([None if a is None else {"key_id": a[0], "match_length": a[1]}
                             for a in answers]))
    else:   # no header: a line per query, "none" only for an empty key set
        out.write(csv_text(None, [("none",) if a is None else a for a in answers]))
    return 0


_COMMANDS = {
    "predict": _cmd_predict,
    "expect": _cmd_expect,
    "sim-fillup": _cmd_sim_fillup,
    "sim-depth": _cmd_sim_depth,
    "build": _cmd_build,
    "query": _cmd_query,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except SystemExit:
        raise
    except KeyFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
