"""Command-line interface.

Subcommands: sample, train, eval, curves, verify, demo-influence.
Exit codes: 0 success, 1 validation/usage error, 2 verification failure.
Every output carries (version, full config, master seed) in its header and is
reproducible from that header alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .classifiers import LinearClassifier, TrainConfig, evaluate_error
from .corpus import corpus_from_text, load_corpus
from .dropout import DropoutConfig
from .experiments import (NB_SMOOTHING, VERSION, CurveSpec, curve_csv,
                          curve_summary, fit_classifier, run_influence_demo,
                          run_learning_curves)
from .streams import make_rng, usable_cpus
from .topics import (DocumentBatch, SYNTHETIC_PRESET, TopicModel,
                     build_synthetic_model, sample_documents)
from .verify import VERIFY_SUITES, run_verification


class ValidationError(ValueError):
    """Bad command-line input; maps to exit code 1."""


_MAX_COUNT = np.iinfo(np.int64).max


def _load_sampler(spec: str):
    """Resolve --model: a named preset or a path to a model JSON file."""
    if spec == SYNTHETIC_PRESET:
        return build_synthetic_model()
    if not Path(spec).exists():
        raise ValidationError(
            f"model {spec!r} is neither the preset {SYNTHETIC_PRESET!r} "
            f"nor an existing file")
    return _read_json(spec, TopicModel.from_dict)[1]


def _read_json(path: str, from_dict):
    """(document, from_dict(document)) of a JSON file; a malformed document
    raises ValidationError starting with the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            return doc, from_dict(doc)
        except (ValueError, RecursionError) as exc:  # bad JSON, key or value
            raise ValidationError(f"{path}: {exc}") from None


def _write_output(parts, out: str | None):
    """Write each string of parts, as it is made, to --out or to stdout."""
    if out is None:
        sys.stdout.writelines(parts)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(parts)


def _meta(args, **config) -> dict:
    return {"version": VERSION, "config": config, "seed": args.seed}


def _train_config(args, delta: float) -> TrainConfig:
    return TrainConfig(l2_weight=args.l2, step_size=args.step,
                       epochs=args.epochs, dropout=DropoutConfig(delta=delta))


def _cmd_sample(args) -> int:
    sampler = _load_sampler(args.model)
    rng = make_rng(args.seed, "cli-sample")
    batch = sample_documents(sampler, args.n, rng)
    model = (sampler.to_dict() if isinstance(sampler, TopicModel)
             else args.model)

    def lines():  # one at a time: every document's text is never held at once
        yield "# " + serialize.dumps(_meta(args, command="sample",
                                           model=model, n=args.n)) + "\n"
        for i in range(len(batch)):
            yield serialize.dumps({
                "counts": batch.counts[i].tolist(),
                "label": int(batch.labels[i]),
                "topic": float(batch.topics[i]),
                "length": int(batch.counts[i].sum()),
            }) + "\n"
    _write_output(lines(), args.out)
    return 0


def _read_docs_jsonl(path: str) -> DocumentBatch:
    counts, labels, topics = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            try:
                doc = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValidationError(f"{where}: not JSON ({exc})") from None
            if not isinstance(doc, dict) or not {"counts", "label"} <= set(doc):
                raise ValidationError(
                    f"{where}: a document needs 'counts' and 'label'")
            row, label = doc["counts"], doc["label"]
            topic = doc.get("topic", -1)
            if type(label) is not int or label not in (0, 1):
                raise ValidationError(
                    f"{where}: label must be 0 or 1, got {label!r}")
            if not isinstance(row, list) or not all(
                    type(c) is int and 0 <= c <= _MAX_COUNT for c in row):
                raise ValidationError(
                    f"{where}: counts must be integers in [0, {_MAX_COUNT}]")
            if counts and len(row) != len(counts[0]):
                raise ValidationError(
                    f"{where}: {len(row)} counts, but the first document "
                    f"has {len(counts[0])}")
            if type(topic) not in (int, float):
                raise ValidationError(
                    f"{where}: topic must be a number, got {topic!r}")
            counts.append(row)
            labels.append(label)
            topics.append(float(topic))
    if not counts:
        raise ValidationError(f"no documents found in {path}")
    return DocumentBatch(counts=np.asarray(counts, dtype=np.int64),
                         labels=np.asarray(labels, dtype=np.int64),
                         topics=np.asarray(topics))


def _cmd_train(args) -> int:
    # the split flags are checked whatever the source, before any input
    # is read, even where --docs or --train-size leaves them unused
    sized = args.train_size is not None
    if sized and args.train_size < 1:
        raise ValidationError(
            f"--train-size must be >= 1, got {args.train_size}")
    if not 0.0 < args.train_frac < 1.0:
        raise ValidationError(
            f"--train-frac must lie in (0, 1), got {args.train_frac}")
    vocabulary = None
    if args.corpus is not None:
        train, heldout, vocabulary = load_corpus(
            args.corpus, args.seed, None if sized else args.train_frac,
            args.train_size)
    else:
        train = _read_docs_jsonl(args.docs)
        heldout = None

    clf = fit_classifier(train, _train_config(args, args.delta),
                         nb_smoothing=args.smoothing)

    meta = _meta(args, command="train", delta=args.delta,
                 corpus=args.corpus, docs=args.docs,
                 train_frac=args.train_frac, train_size=args.train_size,
                 l2=args.l2, step=args.step, epochs=args.epochs,
                 smoothing=args.smoothing)
    meta["train_error"] = evaluate_error(clf, train)
    if heldout is not None:
        meta["test_error"] = evaluate_error(clf, heldout)
    if vocabulary is not None:
        meta["vocabulary"] = vocabulary
    _write_output([serialize.dumps(clf.to_dict(meta=meta), indent=2) + "\n"],
                  args.out)
    return 0


def _cmd_eval(args) -> int:
    doc, clf = _read_json(args.classifier, LinearClassifier.from_dict)
    if args.corpus is not None:
        meta = doc.get("meta")
        vocabulary = meta.get("vocabulary") if isinstance(meta, dict) else None
        if not (isinstance(vocabulary, dict)
                and all(type(j) is int for j in vocabulary.values())
                and sorted(vocabulary.values())
                == list(range(len(clf.weights)))):
            raise ValidationError(
                f"{args.classifier}: key 'meta.vocabulary' must map each word "
                f"to its own index among the {len(clf.weights)} weights; "
                f"without one, evaluate with --docs")
        data = corpus_from_text(args.corpus, vocabulary)
    else:
        data = _read_docs_jsonl(args.docs)
        if data.counts.shape[1] != len(clf.weights):
            raise ValidationError(
                f"{args.docs} has {data.counts.shape[1]} counts per document "
                f"but the classifier has {len(clf.weights)} weights")
    report = _meta(args, command="eval", classifier=args.classifier,
                   corpus=args.corpus, docs=args.docs)
    report = {"meta": report, "error": evaluate_error(clf, data),
              "n": len(data)}
    _write_output([serialize.dumps(report, indent=2) + "\n"], args.out)
    return 0


def _cmd_curves(args) -> int:
    if args.threads < 1:
        raise ValidationError(f"--threads must be >= 1, got {args.threads}")
    sampler = _load_sampler(args.model)
    spec = CurveSpec(sampler=sampler, n_grid=tuple(args.n_grid),
                     delta_grid=tuple(args.delta_grid), trials=args.trials,
                     test_size=args.test_size, master_seed=args.seed,
                     train_cfg=_train_config(args, 0.0))  # per-cell delta
    if args.out is None:
        raise ValidationError("curves writes a directory; give --out")
    result = run_learning_curves(spec, threads=args.threads)
    _write_output([curve_csv(result, include_timing=args.timing)],
                  str(Path(args.out, "curves.csv")))
    _write_output([serialize.dumps(curve_summary(result), indent=2) + "\n"],
                  str(Path(args.out, "summary.json")))
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(suite=args.suite, mc=args.mc, seed=args.seed)
    _write_output([serialize.dumps(report, indent=2) + "\n"], args.out)
    return 0 if report["passed"] else 2


def _cmd_demo_influence(args) -> int:
    rep = run_influence_demo(args.delta, args.n, args.seed)
    doc = {
        "meta": _meta(args, command="demo-influence", delta=args.delta,
                      n=args.n),
        "plain": rep.clf_plain.to_dict(),
        "dropout": rep.clf_dropout.to_dict(),
        "angle_degrees": rep.angle_degrees,
        "plain_error_by_cluster":
            {str(k): v for k, v in rep.plain_error_by_cluster.items()},
        "dropout_error_by_cluster":
            {str(k): v for k, v in rep.dropout_error_by_cluster.items()},
        "plain_test_error": rep.plain_test_error,
        "dropout_test_error": rep.dropout_test_error,
    }
    _write_output([serialize.dumps(doc, indent=2) + "\n"], args.out)
    return 0


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p]


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p]


def _default_threads() -> int:
    # capped at 8: each pool thread holds one cell's training set, with its
    # float copy (8·n·d bytes, 40 MB at n = 10,000 and d = 500), or one
    # chunk of a test block while it scores
    return min(8, usable_cpus())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droplab",
        description="Dropout training and bound verification for Poisson "
                    "topic models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", type=str, default=None, help="output path")
        if model:
            p.add_argument("--model", type=str, default=SYNTHETIC_PRESET,
                           help=f"preset name ({SYNTHETIC_PRESET}) or model "
                                f"JSON path")

    def logistic(p, epochs):
        p.add_argument("--l2", type=float, default=TrainConfig.l2_weight)
        p.add_argument("--epochs", type=int, default=epochs)
        p.add_argument("--step", type=float, default=TrainConfig.step_size)

    def source(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--corpus", type=str, help="label<TAB>text corpus file")
        g.add_argument("--docs", type=str, help="document JSONL (from sample)")

    p = sub.add_parser("sample", help="sample documents from a model")
    common(p, model=True)
    p.add_argument("--n", type=int, default=100)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("train", help="fit a classifier, write JSON")
    common(p)
    source(p)
    p.add_argument("--delta", type=float, default=0.0)
    logistic(p, TrainConfig.epochs)
    p.add_argument("--smoothing", type=float, default=NB_SMOOTHING,
                   help="naive Bayes smoothing (delta = 1)")
    p.add_argument("--train-frac", type=float, default=0.6)
    p.add_argument("--train-size", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="error of a saved classifier on data")
    common(p)
    p.add_argument("--classifier", type=str, required=True)
    source(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("curves", help="learning-curve grid to CSV + summary")
    common(p, model=True)
    p.add_argument("--n-grid", type=_int_list,
                   default=[100, 300, 1000, 3000, 10000])
    p.add_argument("--delta-grid", type=_float_list,
                   default=[0.0, 0.5, 0.75, 0.9, 0.95, 1.0])
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--test-size", type=int, default=100_000)
    p.add_argument("--threads", type=int, default=_default_threads(),
                   help="threads that fit the cells and draw and score "
                        "the test sets (default: usable CPUs, at most 8); "
                        "outputs do not depend on it")
    logistic(p, 150)  # the curves' epoch budget, their regularizer
    p.add_argument("--timing", action="store_true",
                   help="write measured per-cell fit times (breaks "
                        "byte-for-byte reproducibility)")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("verify", help="run analytical verification suites")
    common(p)
    p.add_argument("--suite", type=str, default="all",
                   choices=list(VERIFY_SUITES) + ["all"])
    p.add_argument("--mc", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("demo-influence",
                       help="two-cluster influence geometry data")
    common(p)
    p.add_argument("--delta", type=float, default=0.75)
    p.add_argument("--n", type=int, default=10_000)
    p.set_defaults(func=_cmd_demo_influence)

    return parser


def cli_dispatch(argv) -> int:
    """Parse and run; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
