"""Run workloads repeatedly and print how much each metric spreads.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                            [--seconds S] [--traced K]

Each run is one process of bench/run.py with its own seed (first-seed,
first-seed + 1, ...), one after another.  For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, beside the metric's bound in
BENCHMARK.json.  The reference-loop times of every run are printed too, so
that runs made while the machine was slow stand out.  With --traced K, each
of the first K untraced runs is followed at once by a traced run of the same
seed.  The tracing overhead is the median, over those K pairs, of the traced
run's end-to-end figures against its untraced partner's; pairing the runs in
time keeps the machine's drift out of it.  The per-layer metrics of the first
traced run are printed too.  The runs' full output is saved to
bench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
OUT = ROOT / "bench" / "out"


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """(info, result) of one run; raises if the run fails."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--traced", type=int, default=0, metavar="K")
    args = parser.parse_args(argv)

    for workload in args.workload or names:
        runs, traced = [], []
        for i in range(args.runs):
            runs.append(run_once(workload, args.first_seed + i, args.seconds, 0))
            if i < args.traced:
                traced.append(run_once(workload, args.first_seed + i, args.seconds, 1))
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"steady-{workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"runs": runs, "traced": traced}, fh)
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each")
        for info, result in runs:
            loop = info["reference_loop_s"]
            values = " ".join(f"{name} {result['metrics'][name]['value']:.6g}"
                              for name in bounds)
            print(f"  seed {info['seed']}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  f"reference loop {loop[0]:.3f}/{loop[1]:.3f} s  {values}")
        for name in bounds:
            values = [result["metrics"][name]["value"] for _, result in runs]
            median, q1, q3, share = spread(values)
            print(f"  {name:12s} median {median:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {share:7.2%}  bound {bounds[name]:.0%}  "
                  f"spread/bound {share / bounds[name]:.2f}")
        if traced:
            print(f"  tracing overhead, median of {len(traced)} traced/untraced pairs")
            for name in bounds:
                ratios = [info["end_to_end_traced"][name] / result["metrics"][name]["value"]
                          for (info, _), (_, result) in zip(traced, runs)]
                each = " ".join(f"{r - 1:+.1%}" for r in ratios)
                print(f"    {name:12s} {statistics.median(ratios) - 1:+7.1%}  ({each})")
            info, result = traced[0]
            print(f"  per-layer metrics, traced run of seed {info['seed']}")
            for name, metric in result["metrics"].items():
                print(f"    {name:34s} {metric['value']:14.6g} {metric['unit']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
