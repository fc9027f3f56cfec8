"""Self-test of the benchmark in smoke mode (tiny inputs, under a minute).

    python3 bench/selftest.py

Run from the root of a droplab checkout.  For every workload it checks that
both modes emit exactly the metrics BENCHMARK.json names, each with its unit,
that the outputs pass their checks, and that a layer made to raise shows up
as failed operations.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

# a layer each workload's body calls, made to raise ValueError
FAULTS = {
    "curves-dropout": "classifiers.train_dropout",
    "verify-exact": "topics.posterior",
}


def _run(workload: str, trace: int, fault: str | None = None) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]
    assert set(workloads) == set(FAULTS), workloads
    for workload in workloads:
        for trace in (0, 1):
            result = _run(workload, trace)
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            assert emitted == expected[trace], (workload, trace, emitted)
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()), result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
        result = _run(workload, 0, FAULTS[workload])
        assert not result["correct"] and result["failed"] > 0, result
        print(f"{workload}: ok ({result['failed']}/{result['attempted']} "
              f"failed with {FAULTS[workload]} raising)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
