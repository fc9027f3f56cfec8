"""Write droplab's fixed acceptance outputs into OUT_DIR, for `diff -r`:
    PYTHONPATH=src python tools/acceptance_outputs.py OUT_DIR
Commands run as `python -m droplab` subprocesses in OUT_DIR, on the package
PYTHONPATH resolves.  counts.json (src lines; defaulted parameters plus
defaulted dataclass fields; names droplab/__init__.py imports) is the one
file meant to differ by version, and bayes-error.txt whenever the order of
the Bayes-risk arithmetic changes.  A change to the special functions (the
normal CDF, log factorials, xlogy, log-sum-exp) also moves the last bits of
bayes-error.txt, the verify*.json reports (tail middles, Gaussian error
estimates, Berry-Esseen distances, bias gaps and the worst vectors that
tie at rounding level) and demo-posterior_preservation.txt; no `passed`
value may move.  A command without --out is run for its exit code alone.
The quick demos of the same checkout (its demos/ beside src/) write their
stdout to demo-<name>.txt, and bayes-error.txt holds the reprs of
bayes_error's value, truncation mass and cell count, so a diff shows
last-bit moves.
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
# MODEL with a rare third topic that puts intensity 300 on one word: at
# --seed 4 its one document (row 28,334) falls in the third of five
# 10,922-row sampling chunks, so the counts widen from uint8 to uint16 after
# two chunks are written; every row of this model has a floor of 1, so every
# row is drawn by Poisson splitting
WIDE_MODEL = {**MODEL, "topics": [
    MODEL["topics"][0], {**MODEL["topics"][1], "rho1": 0.7999},
    {"id": 2, "rho0": 0.0, "rho1": 0.0001, "intensity": [1.0, 1.0, 300.0]}]}
# inputs droplab rejects: two topics with one id, ids float64 merges,
# documents without counts, a classifier without weights
TWIN_MODEL = {**MODEL, "topics": [{**t, "id": 0} for t in MODEL["topics"]]}
HUGE_ID_MODEL = {**MODEL, "topics": [{**t, "id": 2 ** 53 + i}
                                     for i, t in enumerate(MODEL["topics"])]}
BLANK_DOCS = '{"counts": [], "label": 0}\n{"counts": [], "label": 1}\n'
NO_WEIGHTS = {"weights": [], "intercept": 0.5}
# 60 `label<TAB>text` lines built from the line index alone: each label has
# three words of its own, each line two of five shared words, and every fifth
# line one word of the other label
WORDS = (("bad", "dull", "poor"), ("good", "great", "fine"))
SHARED = ("plot", "film", "cast", "music", "pace")
REVIEWS = "".join(
    f"{i % 2}\t{WORDS[i % 2][i % 3]} {SHARED[i % 5]} {SHARED[(3 * i + 1) % 5]}"
    + (f" {WORDS[1 - i % 2][i % 3]}" if i % 5 == 0 else "") + "\n"
    for i in range(60))
DELTAS = ("0", "0.5", "1")
COMMANDS = {
    "curves": "curves --n-grid 100,300 --delta-grid 0,0.5,0.9,1 --trials 2 "
              "--test-size 3000 --epochs 50 --out curves",
    # three 8,192-row test blocks per trial, the last one ragged, each
    # drawn and scored chunk by chunk; the n = 1 cells fail
    "curves-blocks": "curves --n-grid 1,100 --delta-grid 0,0.5,1 --trials 3 "
                     "--test-size 16421 --epochs 20 --out curves-blocks",
    # the same grid at --threads 1 and 4: its files must equal curves-blocks'
    **{f"curves-blocks-t{t}": "curves --n-grid 1,100 --delta-grid 0,0.5,1 "
                              "--trials 3 --test-size 16421 --epochs 20 "
                              f"--threads {t} --out curves-blocks-t{t}"
       for t in (1, 4)},
    "verify": "verify --suite all --mc 20000 --out verify.json",
    # the margin suite is exact: the smallest budget passes like any other
    "verify-margin-mc8": "verify --suite margin --mc 8 --seed 0",
    # its report matches verify-margin-mc8's checks at any --mc and --seed
    "verify-margin": "verify --suite margin --mc 500000 --out verify-margin.json",
    # 135 row blocks of kept and of dropped counts per config, the last one
    # ragged
    "verify-altitude": "verify --suite altitude --mc 1100000 --seed 3 "
                       "--out verify-altitude.json",
    # 19 Poisson blocks of 8,192 rows per config, the last one ragged, so
    # the merge of the block tallies crosses block boundaries
    "verify-berry-esseen": "verify --suite berry-esseen --mc 150000 --seed 3 "
                           "--out verify-berry-esseen.json",
    # a repeated grid value is rejected: exit 1, nothing written
    "curves-repeated-grid": "curves --n-grid 100,100 --delta-grid 0.5,1 "
                            "--trials 1 --test-size 300 --out curves-repeated",
    "sample": "sample --model model.json --n 200 --seed 3 --out docs.jsonl",
    "sample-wide": "sample --model wide-model.json --n 50000 --seed 4 "
                   "--out wide.jsonl",
    "sample-synthetic": "sample --n 50 --seed 5 --out synthetic.jsonl",
    **{f"train-{d}": f"train --docs docs.jsonl --delta {d} --out clf-{d}.json"
       for d in DELTAS},
    **{f"eval-{d}": f"eval --classifier clf-{d}.json --docs docs.jsonl "
                    f"--out eval-{d}.json" for d in DELTAS},
    # large enough that a BLAS product would split rows between threads
    "sample-3000": "sample --n 3000 --seed 4 --out synthetic-3000.jsonl",
    "train-3000": "train --docs synthetic-3000.jsonl --delta 0.5 --epochs 30 "
                  "--out clf-3000.json",
    # the corpus path: a --train-frac split (0.6 by default), a --train-size
    # split, and evaluation against the stored vocabulary
    "train-corpus": "train --corpus reviews.tsv --epochs 50 "
                    "--out clf-corpus.json",
    "train-corpus-sized": "train --corpus reviews.tsv --train-size 12 "
                          "--delta 0.5 --epochs 50 --out clf-corpus-sized.json",
    "eval-corpus": "eval --classifier clf-corpus.json --corpus reviews.tsv "
                   "--out eval-corpus.json",
    "train-corpus-size-0": "train --corpus reviews.tsv --train-size 0",
    "demo-influence": "demo-influence --n 300 --out demo.json",
    "sample-twin-ids": "sample --model twin-model.json --n 10",
    "sample-huge-ids": "sample --model huge-id-model.json --n 10",
    "eval-no-weights": "eval --classifier no-weights.json --docs blank.jsonl",
    **{f"train-blank-{d}": f"train --docs blank.jsonl --delta {d} --epochs 5"
       for d in DELTAS},
}

QUICK_DEMOS = ("posterior_preservation", "gaussian_score_accuracy",
               "margin_separator", "error_exponentiation")

# one line per model: name, truncation, repr(value), repr(truncation_mass),
# n_cells; equal_length_models() at the default truncation, the second one
# also scaled to expected length 80 (848,046 cells, 104 blocks of 8,192),
# unequal_length_control() (one word), MODEL at 30
BAYES_ERROR = """
import json
from droplab import Topic, TopicModel, bayes_error
from droplab.presets import equal_length_models, unequal_length_control
cases = [(f"equal_length_models()[{k}]", m, None)
         for k, m in enumerate(equal_length_models())]
m = equal_length_models()[1]
cases.append(("equal_length_models()[1] at length 80", TopicModel(
    label_prior=m.label_prior, vocab_size=m.vocab_size,
    topics=tuple(Topic(id=t.id, rho0=t.rho0, rho1=t.rho1,
                       intensity=t.intensity * (80.0 / t.doc_length))
                 for t in m.topics)), None))
cases.append(("unequal_length_control()", unequal_length_control(), None))
with open("model.json") as fh:
    cases.append(("MODEL", TopicModel.from_dict(json.load(fh)), 30))
for name, model, total in cases:
    r = bayes_error(model, total)
    print(name, total, repr(r.value), repr(r.truncation_mass), r.n_cells)
"""


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
    (out / "wide-model.json").write_text(json.dumps(WIDE_MODEL))
    (out / "twin-model.json").write_text(json.dumps(TWIN_MODEL))
    (out / "huge-id-model.json").write_text(json.dumps(HUGE_ID_MODEL))
    (out / "no-weights.json").write_text(json.dumps(NO_WEIGHTS))
    (out / "blank.jsonl").write_text(BLANK_DOCS)
    (out / "reviews.tsv").write_text(REVIEWS)
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
    with open(out / "bayes-error.txt", "w") as fh:
        subprocess.run([sys.executable, "-c", BAYES_ERROR], cwd=out, env=env,
                       stdout=fh, check=True)
    (out / "counts.json").write_text(json.dumps(counts(src), indent=2) + "\n")
