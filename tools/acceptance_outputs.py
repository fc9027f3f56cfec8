"""Write droplab's fixed acceptance outputs into OUT_DIR, for `diff -r`:
    PYTHONPATH=src python tools/acceptance_outputs.py OUT_DIR
Commands run as `python -m droplab` subprocesses in OUT_DIR, on the package
PYTHONPATH resolves.  counts.json (src lines; defaulted parameters plus
defaulted dataclass fields; names droplab/__init__.py imports) is the one
file meant to differ by version.  A command without --out is run for its
exit code alone.  The quick demos of the same checkout (its demos/ beside
src/) write their stdout to demo-<name>.txt.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

MODEL = {"label_prior": 0.4, "vocab_size": 3, "topics": [
    {"id": 0, "rho0": 0.7, "rho1": 0.2, "intensity": [6.0, 2.0, 1.0]},
    {"id": 1, "rho0": 0.3, "rho1": 0.8, "intensity": [1.0, 3.0, 5.0]}]}
# inputs droplab rejects: two topics with one id, ids float64 merges,
# documents without counts, a classifier without weights
TWIN_MODEL = {**MODEL, "topics": [{**t, "id": 0} for t in MODEL["topics"]]}
HUGE_ID_MODEL = {**MODEL, "topics": [{**t, "id": 2 ** 53 + i}
                                     for i, t in enumerate(MODEL["topics"])]}
BLANK_DOCS = '{"counts": [], "label": 0}\n{"counts": [], "label": 1}\n'
NO_WEIGHTS = {"weights": [], "intercept": 0.5}
DELTAS = ("0", "0.5", "1")
COMMANDS = {
    "curves": "curves --n-grid 100,300 --delta-grid 0,0.5,0.9,1 --trials 2 "
              "--test-size 3000 --epochs 50 --out curves",
    "verify": "verify --suite all --mc 20000 --out verify.json",
    # the margin suite is exact: the smallest budget passes like any other
    "verify-margin-mc8": "verify --suite margin --mc 8 --seed 0",
    # its report matches verify-margin-mc8's checks at any --mc and --seed
    "verify-margin": "verify --suite margin --mc 500000 --out verify-margin.json",
    # two 1,000,000-document sweep chunks, the last thinning block ragged
    "verify-altitude": "verify --suite altitude --mc 1100000 --seed 3 "
                       "--out verify-altitude.json",
    # a repeated grid value is rejected: exit 1, nothing written
    "curves-repeated-grid": "curves --n-grid 100,100 --delta-grid 0.5,1 "
                            "--trials 1 --test-size 300 --out curves-repeated",
    "sample": "sample --model model.json --n 200 --seed 3 --out docs.jsonl",
    "sample-synthetic": "sample --n 50 --seed 5 --out synthetic.jsonl",
    **{f"train-{d}": f"train --docs docs.jsonl --delta {d} --out clf-{d}.json"
       for d in DELTAS},
    **{f"eval-{d}": f"eval --classifier clf-{d}.json --docs docs.jsonl "
                    f"--out eval-{d}.json" for d in DELTAS},
    # large enough that a BLAS product would split rows between threads
    "sample-3000": "sample --n 3000 --seed 4 --out synthetic-3000.jsonl",
    "train-3000": "train --docs synthetic-3000.jsonl --delta 0.5 --epochs 30 "
                  "--out clf-3000.json",
    "demo-influence": "demo-influence --n 300 --out demo.json",
    "sample-twin-ids": "sample --model twin-model.json --n 10",
    "sample-huge-ids": "sample --model huge-id-model.json --n 10",
    "eval-no-weights": "eval --classifier no-weights.json --docs blank.jsonl",
    **{f"train-blank-{d}": f"train --docs blank.jsonl --delta {d} --epochs 5"
       for d in DELTAS},
}

QUICK_DEMOS = ("posterior_preservation", "gaussian_score_accuracy",
               "margin_separator", "error_exponentiation")


def counts(src: Path) -> dict:
    files = sorted(src.glob("*.py"))
    defaulted = 0
    for node in (n for f in files for n in ast.walk(ast.parse(f.read_text()))):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            defaulted += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            defaulted += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    init = ast.parse((src / "__init__.py").read_text())
    return {"src_lines": sum(f.read_bytes().count(b"\n") for f in files),
            "defaulted_params_and_fields": defaulted,
            "public_names": sum(len(n.names) for n in init.body
                                if isinstance(n, ast.ImportFrom))}


if __name__ == "__main__":
    out = Path(sys.argv[1])
    src = Path(importlib.util.find_spec("droplab").origin).parent
    env = dict(os.environ, PYTHONPATH=str(src.parent))
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.json").write_text(json.dumps(MODEL))
    (out / "twin-model.json").write_text(json.dumps(TWIN_MODEL))
    (out / "huge-id-model.json").write_text(json.dumps(HUGE_ID_MODEL))
    (out / "no-weights.json").write_text(json.dumps(NO_WEIGHTS))
    (out / "blank.jsonl").write_text(BLANK_DOCS)
    codes = {name: subprocess.run([sys.executable, "-m", "droplab", *cmd.split()],
                                  cwd=out, env=env,
                                  stdout=subprocess.DEVNULL).returncode
             for name, cmd in COMMANDS.items()}
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    demos = src.parent.parent / "demos"
    for name in QUICK_DEMOS:
        with open(out / f"demo-{name}.txt", "w") as fh:
            subprocess.run([sys.executable, str(demos / f"{name}.py")],
                           cwd=out, env=env, stdout=fh, check=True)
    (out / "counts.json").write_text(json.dumps(counts(src), indent=2) + "\n")
