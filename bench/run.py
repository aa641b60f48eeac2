"""Run one alctrie benchmark workload and print its metrics.

    python3 bench/run.py --workload cidr_table --seed 1 --seconds 12 --trace 0

Workloads: cidr_table, skewed_source, monte_carlo (see README.md).  The run
makes its inputs from --seed, then runs whole rounds of ops until --seconds
of ops have passed and at least 100 ops are done, timing the set-up at evenly
spaced points of that phase, and checks every answer afterwards.  With --trace 1 it instead sets up once, runs a fixed
number of rounds with spans around alctrie's functions, and writes the spans
to bench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The line before it, {"info": ...}, holds figures that
are not metrics, among them the time of a fixed pure-Python loop at the start
and at the end of the run, which tells a slow machine from a slow program.
"""

from __future__ import annotations

import os

# one thread per workload process, numpy included
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
MIN_OPS = 100   # so that at least ten ops lie beyond the 90th percentile

if not (SRC / "alctrie" / "__init__.py").is_file():
    sys.exit(f"error: no alctrie package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: a gauge of the machine's speed."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def measure(wl, seconds: float, tracer) -> dict:
    """Run whole rounds of ops, rebuilding the structure at evenly spaced
    points of the op phase; answers are checked later.

    The machine's speed drifts over tens of seconds, so set-up runs made one
    after another would all meet the same state.  Spread over the op phase,
    their median averages over the same states as the ops do.
    """
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    repeats = 1 if tracer else wl.setup_repeats
    setup_s, indices, answers, times = [], [], [], []
    state = None
    first_error = None
    op_s = 0.0
    rounds = 0
    while True:
        if len(setup_s) < repeats and op_s >= len(setup_s) * seconds / repeats:
            state = None   # free the previous structure before building the next
            with span("bench.setup"):
                start = perf_counter()
                state = wl.setup()
                setup_s.append(perf_counter() - start)
        round_start = perf_counter()
        for i in wl.round(rounds):
            with span("bench.op"):
                start = perf_counter()
                try:
                    answer = wl.op(state, i)
                except Exception as exc:   # a raising op counts as failed
                    answer = exc
                    first_error = first_error or traceback.format_exc()
                times.append(perf_counter() - start)
            indices.append(i)
            answers.append(answer)
        op_s += perf_counter() - round_start
        rounds += 1
        if tracer:
            if rounds >= wl.trace_rounds:
                break
        elif op_s >= seconds and len(times) >= MIN_OPS and len(setup_s) == repeats:
            break
    if first_error:
        print(first_error, file=sys.stderr)
    return dict(state=state, setup_s=setup_s, indices=indices, answers=answers,
                times=times, rounds=rounds,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loop_start = reference_loop_s()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](
            random.Random(f"{args.workload}:{args.seed}"), workdir)
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            run = measure(wl, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        problems = wl.check_run(run["state"])
        verdicts = [not isinstance(a, Exception) and wl.check_op(i, a) is not False
                    for i, a in zip(run["indices"], run["answers"])]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    times = run["times"]
    attempted = len(times)
    failed = verdicts.count(False)
    p50, p90 = np.percentile(times, [50, 90])
    end_to_end = {
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "op_p50_us": (p50 * 1e6, "us"),
        "op_p90_us": (p90 * 1e6, "us"),
        "ops_per_s": ((attempted - failed) / sum(times), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": run["rounds"], "ops_beyond_p90": int(np.count_nonzero(np.array(times) > p90)),
        "setup_runs_s": run["setup_s"],
        "reference_loop_s": [loop_start, reference_loop_s()],
        **wl.info(run),
    }
    if tracer:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, workload=args.workload, seed=args.seed)
        info.update(trace_file=str(trace_path.relative_to(ROOT)), absent=tracer.absent,
                    end_to_end_traced={k: v for k, (v, _) in end_to_end.items()})
        metrics = tracer.layer_metrics()
    else:
        metrics = end_to_end
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
