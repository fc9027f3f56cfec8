"""One benchmark sample in a fresh interpreter.

Sets up one workload (import droplab from ./src, build the inputs from the
seed), runs its body once, checks the output and prints one JSON line.  There
is no warm-up: a droplab command pays its first calls on every run, so the
body does too.  run.py starts it; the working directory is
the root of a droplab checkout.

    python bench/worker.py --workload NAME --seed N --spawned-at T
        [--trace] [--smoke] [--fault LAYER] [--spans-out PATH]

--spawned-at is the parent's time.monotonic() just before it started this
process, so setup_s includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--fault")
    p.add_argument("--spans-out")
    return p.parse_args(argv)


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import droplab

    if Path(droplab.__file__).parent != src / "droplab":
        print(f"droplab imported from {droplab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, args.smoke)
    setup_s = time.monotonic() - args.spawned_at

    recorder = spans.Recorder(args.fault)
    if args.trace or args.fault:
        recorder.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    try:
        out = wl.run(inputs)
    except Exception:   # a failing body is counted, not fatal
        traceback.print_exc()
        out = None
    wall_s = time.perf_counter() - started
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    recorder.uninstall()

    attempted, failed = wl.check(inputs, out)
    cpu_s = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    layers = {"proc.cpu_s": cpu_s, "proc.cpu_util": cpu_s / wall_s,
              "proc.nivcsw": ru1.ru_nivcsw - ru0.ru_nivcsw}
    if args.trace:
        layers.update(spans.layer_metrics(recorder.spans, wall_s))
        layers.update(workloads.cell_metrics(out,
                                             layers["experiments.grid_s"]))
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(recorder.dump()))
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s,
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "attempted": attempted, "failed": failed,
        "sha256": wl.digest(out) if out is not None else None,
        "layers": layers, "versions": _versions(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
