"""Write droplab's fixed acceptance outputs into OUT_DIR, for `diff -r`:
    PYTHONPATH=src python tools/acceptance_outputs.py OUT_DIR
Commands run as `python -m droplab` subprocesses in OUT_DIR, on the package
PYTHONPATH resolves, at OPENBLAS_NUM_THREADS=1 (trained weights depend on
the BLAS thread count).  counts.json (src lines; defaulted parameters plus
defaulted dataclass fields; names droplab/__init__.py imports) is the one
file meant to differ by version.  A command without --out is run for its
exit code alone.
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
DELTAS = ("0", "0.5", "1")
COMMANDS = {
    "curves": "curves --n-grid 100,300 --delta-grid 0,0.5,0.9,1 --trials 2 "
              "--test-size 3000 --epochs 50 --out curves",
    "verify": "verify --suite all --mc 20000 --out verify.json",
    # some topic draws no documents at this budget: exit 2, no traceback
    "verify-margin-mc8": "verify --suite margin --mc 8 --seed 0",
    "sample": "sample --model model.json --n 200 --seed 3 --out docs.jsonl",
    "sample-synthetic": "sample --n 50 --seed 5 --out synthetic.jsonl",
    **{f"train-{d}": f"train --docs docs.jsonl --delta {d} --out clf-{d}.json"
       for d in DELTAS},
    **{f"eval-{d}": f"eval --classifier clf-{d}.json --docs docs.jsonl "
                    f"--out eval-{d}.json" for d in DELTAS},
    "demo-influence": "demo-influence --n 300 --out demo.json",
}


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
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src.parent))
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.json").write_text(json.dumps(MODEL))
    codes = {name: subprocess.run([sys.executable, "-m", "droplab", *cmd.split()],
                                  cwd=out, env=env,
                                  stdout=subprocess.DEVNULL).returncode
             for name, cmd in COMMANDS.items()}
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    (out / "counts.json").write_text(json.dumps(counts(src), indent=2) + "\n")
