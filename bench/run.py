"""droplab benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--smoke] [--fault LAYER]

Run from the root of a droplab checkout.  Each sample is a fresh interpreter
(bench/worker.py) that imports droplab from ./src, builds the workload's
inputs from the seed, runs the body once and checks its output.  Samples
repeat for S seconds: a sample starts while fewer than a minimum count have
run, or while its expected midpoint (by the median sample so far) falls
within S seconds.

--trace 0 reports the end-to-end metrics: the median body wall time, set-up
time and peak RSS over the samples.  --trace 1 alternates untraced and traced
samples and reports the per-layer metrics: medians over the traced samples,
process counters from the untraced ones, and the tracing overhead between
the two.  --smoke runs tiny inputs; --fault makes one layer raise (see
selftest.py).

The last stdout line is the result JSON; the line before it carries the
per-sample values, output digest and environment, which are also written
with the spans under .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("curves-dropout", "verify-exact")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "classifiers.train_dropout_s": "s",
    "classifiers.train_dropout_ns_per_cell": "ns",
    "classifiers.train_plain_s": "s",
    "classifiers.train_nb_s": "s",
    "classifiers.recalibrate_s": "s",
    "classifiers.evaluate_s": "s",
    "classifiers.eval_rows": "count",
    "classifiers.predict_s": "s",
    "dropout.cells_thinned": "count",
    "dropout.thin_s": "s",
    "experiments.grid_s": "s",
    "experiments.cell_s_p50": "s",
    "experiments.cell_s_max": "s",
    "experiments.cell_busy_s": "s",
    "experiments.parallel_eff": "ratio",
    "experiments.altitude_sweep_s": "s",
    "experiments.bias_check_s": "s",
    "topics.sample_s": "s",
    "topics.test_sample_s": "s",
    "topics.docs_sampled": "count",
    "topics.count_mb": "MB",
    "topics.bayes_error_s": "s",
    "topics.enumerate_s": "s",
    "topics.enum_cells": "count",
    "topics.posterior_s": "s",
    "topics.posterior_calls": "count",
    "bounds.berry_esseen_s": "s",
    "bounds.margin_s": "s",
    "stats.kolmogorov_s": "s",
    "diagnostics.excess_risk_s": "s",
    "verify.tails_s": "s",
    "verify.berry_esseen_s": "s",
    "verify.altitude_s": "s",
    "verify.bias_s": "s",
    "verify.margin_s": "s",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "proc.nivcsw": "count",
    "trace.body_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_frac": "ratio",
}
# taken from the untraced samples of a traced run
PROC_METRICS = ("proc.cpu_s", "proc.cpu_util", "proc.nivcsw")

MIN_SAMPLES = 3          # untraced samples per --trace 0 run
MIN_TRACE_SAMPLES = 2    # of each kind per --trace 1 run
RUN_DEADLINE_S = 170.0   # a run must end within 180 s
OUT_DIR = Path(".bench_out")
WORKER = Path(__file__).resolve().parent / "worker.py"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs; runs in seconds")
    p.add_argument("--fault", help="layer whose calls raise (self-test)")
    return p.parse_args(argv)


def _loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _sample(args, trace: bool, index: int, env: dict, deadline: float):
    """Run one worker; returns its parsed JSON line, or None if it crashed."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed)]
    if trace:
        cmd += ["--trace", "--spans-out", str(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{index}.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.fault:
        cmd += ["--fault", args.fault]
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        print(f"sample {index} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"sample {index} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    args = _parse(argv)
    if not Path("src/droplab/__init__.py").is_file():
        print("run from the root of a droplab checkout (src/droplab missing)",
              file=sys.stderr)
        return 2
    compileall.compile_dir("src/droplab", quiet=1)
    OUT_DIR.mkdir(exist_ok=True)
    # the grid's own threads are the only parallelism: at most nproc threads
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    load_start = _loadavg()
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    minimum = 1 if args.smoke else (
        MIN_TRACE_SAMPLES if args.trace else MIN_SAMPLES)

    plain, traced, crashed, lengths = [], [], 0, []
    while time.monotonic() < deadline:
        enough = len(plain) >= minimum and (
            not args.trace or len(traced) >= minimum)
        # the next sample's expected midpoint must fall within the run
        half = statistics.median(lengths) / 2 if lengths else 0.0
        if enough and time.monotonic() - started + half >= args.seconds:
            break
        trace = bool(args.trace) and len(traced) < len(plain)
        begun = time.monotonic()
        result = _sample(args, trace, len(plain) + len(traced) + crashed, env,
                         deadline)
        if result is None:
            crashed += 1
            break
        lengths.append(time.monotonic() - begun)
        (traced if trace else plain).append(result)

    samples = plain + traced
    if not plain or (args.trace and not traced):
        print("no complete sample; no result", file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in samples) + crashed
    failed = sum(s["failed"] for s in samples) + crashed
    digests = {s["sha256"] for s in samples}
    correct = failed == 0 and len(digests) == 1 and None not in digests

    if args.trace:
        metrics = {name: statistics.median(s["layers"][name] for s in
                                           (plain if name in PROC_METRICS
                                            else traced))
                   for name in traced[0]["layers"]}
        metrics["trace.body_s"] = _median(traced, "wall_s")
        metrics["trace.overhead_frac"] = (metrics["trace.body_s"]
                                          / _median(plain, "wall_s") - 1.0)
        units = PER_LAYER
    else:
        metrics = {"wall_s": _median(plain, "wall_s"),
                   "setup_s": _median(samples, "setup_s"),
                   "peak_rss_mb": _median(plain, "peak_rss_mb")}
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from the catalogue: "
                           f"{sorted(set(metrics) ^ set(units))}")

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "samples": len(plain), "traced_samples":
        len(traced), "crashed_samples": crashed,
        "failed_frac": failed / attempted,
        "outputs_sha256": sorted(d for d in digests if d),
        "per_sample": {key: [s[key] for s in samples]
                       for key in ("wall_s", "setup_s", "peak_rss_mb")},
        "environment": dict(samples[0]["versions"], nproc=os.cpu_count(),
                            affinity=len(os.sched_getaffinity(0)),
                            git_commit=_git_commit(), loadavg_start=load_start,
                            loadavg_end=_loadavg()),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    record = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps(dict(info, result=result), indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
