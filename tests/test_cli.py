import copy
import json
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from droplab import (cli, experiments, recalibrate_intercept,
                     train_naive_bayes, verify)
from droplab.cli import (ValidationError, _default_threads, _float_list,
                         _int_list, _load_sampler, _read_docs_jsonl,
                         cli_dispatch)
from droplab.serialize import dumps
from droplab.topics import SYNTHETIC_PARAMS, Topic, TopicModel
from droplab.verify import VERIFY_SUITES, run_verification
from oracles import run_python

VALID_MODEL = {"label_prior": 0.5, "vocab_size": 2, "topics": [
    {"id": 0, "rho0": 1.0, "rho1": 0.0, "intensity": [6.0, 2.0]},
    {"id": 1, "rho0": 0.0, "rho1": 1.0, "intensity": [2.0, 6.0]}]}


def altered_model(key, value, topic=None) -> str:
    """JSON text of VALID_MODEL with one key of the model, or of one of its
    topics, set to value."""
    doc = copy.deepcopy(VALID_MODEL)
    (doc if topic is None else doc["topics"][topic])[key] = value
    return json.dumps(doc)


@pytest.fixture
def model_json(tmp_path):
    model = TopicModel(label_prior=0.5, vocab_size=2, topics=(
        Topic(id=0, rho0=1.0, rho1=0.0, intensity=np.array([6.0, 2.0])),
        Topic(id=1, rho0=0.0, rho1=1.0, intensity=np.array([2.0, 6.0]))))
    path = tmp_path / "model.json"
    path.write_text(dumps(model.to_dict()), encoding="utf-8")
    return str(path)


@pytest.fixture
def toy_corpus(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for i in range(60):
        label = i % 2
        good = rng.poisson(3 if label else 1)
        bad = rng.poisson(1 if label else 3)
        words = ["good"] * (1 + good) + ["bad"] * (1 + bad) + ["film"]
        lines.append(f"{label}\t{' '.join(words)}")
    path = tmp_path / "reviews.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestDispatch:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert cli_dispatch(["verify", "--bogus"]) == 1

    def test_help_exits_0(self, capsys):
        assert cli_dispatch(["--help"]) == 0

    def test_delta_out_of_range_exits_1(self, capsys, toy_corpus):
        code = cli_dispatch(["train", "--corpus", toy_corpus,
                             "--delta", "1.5"])
        assert code == 1
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "1.5", "nan"])
    def test_train_frac_out_of_range_exits_1(self, value, toy_corpus, capsys):
        code = cli_dispatch(["train", "--corpus", toy_corpus,
                             "--train-frac", value])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: --train-frac must lie in (0, 1), got {float(value)}")

    @pytest.mark.parametrize("source,flags,message", [
        # a --docs file that does not exist: the flags fail before any read
        ("docs", ["--train-frac", "1.5", "--train-size", "-3"],
         "--train-size must be >= 1, got -3"),
        ("docs", ["--train-frac", "1.5"],
         "--train-frac must lie in (0, 1), got 1.5"),
        # --train-size leaves --train-frac unused, but not unchecked
        ("corpus", ["--train-size", "3", "--train-frac", "1.5"],
         "--train-frac must lie in (0, 1), got 1.5")],
        ids=["docs-size-and-frac", "docs-frac", "corpus-size-and-frac"])
    def test_split_flags_are_checked_whatever_the_source(
            self, source, flags, message, toy_corpus, tmp_path, capsys):
        path = (toy_corpus if source == "corpus"
                else str(tmp_path / "missing.jsonl"))
        code = cli_dispatch(["train", f"--{source}", path, *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("command", ["train", "curves", "demo-influence"])
    def test_every_delta_flag_rejects_out_of_range(self, command, value,
                                                   tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        docs.write_text('{"counts": [2, 0], "label": 0}\n'
                        '{"counts": [0, 3], "label": 1}\n', encoding="utf-8")
        argv = {"train": ["train", "--docs", str(docs), f"--delta={value}"],
                "curves": ["curves", "--delta-grid", f"0,{value}",
                           "--out", str(tmp_path / "curves")],
                "demo-influence": ["demo-influence", f"--delta={value}"]}
        assert cli_dispatch(argv[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "delta" in err

    @pytest.mark.parametrize("command, handler", [("sample", "_cmd_sample"),
                                                  ("curves", "_cmd_curves")])
    def test_memory_error_exits_1_naming_the_command(self, command, handler,
                                                     monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, handler, exhausted)
        assert cli_dispatch([command]) == 1
        assert capsys.readouterr().err == \
            f"error: {command} ran out of memory\n"


class TestSample:
    def test_jsonl_output(self, model_json, tmp_path, capsys):
        out = tmp_path / "docs.jsonl"
        code = cli_dispatch(["sample", "--model", model_json, "--n", "20",
                             "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("#")
        docs = [json.loads(l) for l in lines[1:]]
        assert len(docs) == 20
        assert all(d["length"] == sum(d["counts"]) for d in docs)

    def test_header_carries_the_model_file(self, model_json, tmp_path):
        out = tmp_path / "docs.jsonl"
        assert cli_dispatch(["sample", "--model", model_json, "--n", "3",
                             "--out", str(out)]) == 0
        header = json.loads(out.read_text().split("\n")[0][2:])
        doc = header["config"]["model"]
        assert TopicModel.from_dict(doc).to_dict() == doc
        assert doc == json.loads(Path(model_json).read_text())

    def test_preset_model(self, tmp_path):
        out = tmp_path / "docs.jsonl"
        code = cli_dispatch(["sample", "--model", "synthetic-sec6",
                             "--n", "5", "--seed", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text().strip().split("\n")[1])
        assert len(doc["counts"]) == 500

    def test_negative_n_exits_1(self, capsys):
        assert cli_dispatch(["sample", "--n", "-1"]) == 1
        assert "n must be >= 0, got -1" in capsys.readouterr().err

    def test_missing_model_file_exits_1(self, capsys):
        assert cli_dispatch(["sample", "--model", "/nope.json"]) == 1

    @pytest.mark.parametrize("text, key", [
        ('{"label_prior": 0.5, "vocab_size": 2}', "topics"),
        ('{"label_prior": 0.5, "vocab_size": 2, "topics": 5}', "topics"),
        ('{"label_prior": 0.5, "vocab_size": 2, "topics": '
         '[{"id": 0, "rho0": 1, "rho1": 1}]}', "intensity"),
        ('{"label_prior": "half", "vocab_size": 2, "topics": []}',
         "label_prior"),
        # values a lax reader once truncated or converted
        (altered_model("vocab_size", 2.9), "vocab_size"),
        (altered_model("id", 1.5, topic=1), "id"),
        (altered_model("label_prior", "0.5"), "label_prior"),
        (altered_model("rho0", True, topic=0), "rho0"),
        (altered_model("intensity", ["6", "2"], topic=0), "intensity"),
    ])
    def test_malformed_model_exits_1(self, text, key, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert cli_dispatch(["sample", "--model", str(path), "--n", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and f"key '{key}'" in err

    def test_repeated_topic_id_exits_1(self, tmp_path, capsys):
        # float64 topic ids merge 2**53 + 1 into 2**53, so it is rejected
        path = tmp_path / "twins.json"
        for value, message in ((0, "topic id 0 is repeated"),
                               (2 ** 53 + 1,
                                f"key 'topics': topic id {2 ** 53 + 1} ")):
            path.write_text(altered_model("id", value, topic=1),
                            encoding="utf-8")
            assert cli_dispatch(["sample", "--model", str(path),
                                 "--n", "3"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ")
            assert message in err


class TestTrainEval:
    def test_corpus_round_trip(self, toy_corpus, tmp_path, capsys):
        clf_path = tmp_path / "clf.json"
        code = cli_dispatch(["train", "--corpus", toy_corpus, "--seed", "2",
                             "--epochs", "200", "--out", str(clf_path)])
        assert code == 0
        doc = json.loads(clf_path.read_text())
        assert "weights" in doc and "vocabulary" in doc["meta"]
        assert doc["meta"]["train_error"] <= 0.2

        report_path = tmp_path / "report.json"
        code = cli_dispatch(["eval", "--classifier", str(clf_path),
                             "--corpus", toy_corpus,
                             "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["error"] <= 0.5

    def test_train_on_sampled_docs(self, model_json, tmp_path):
        docs_path = tmp_path / "docs.jsonl"
        assert cli_dispatch(["sample", "--model", model_json, "--n", "200",
                             "--seed", "5", "--out", str(docs_path)]) == 0
        clf_path = tmp_path / "clf.json"
        assert cli_dispatch(["train", "--docs", str(docs_path),
                             "--epochs", "150", "--delta", "0.5",
                             "--out", str(clf_path)]) == 0
        report_path = tmp_path / "report.json"
        assert cli_dispatch(["eval", "--classifier", str(clf_path),
                             "--docs", str(docs_path),
                             "--out", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["error"] <= 0.3

    def test_naive_bayes_at_full_dropout(self, toy_corpus, tmp_path):
        clf_path = tmp_path / "nb.json"
        assert cli_dispatch(["train", "--corpus", toy_corpus, "--delta", "1",
                             "--out", str(clf_path)]) == 0
        assert np.isfinite(json.loads(clf_path.read_text())["intercept"])

    @pytest.mark.parametrize("doc, source, key", [
        ({"intercept": 0.0}, "docs", "'weights'"),
        ({"weights": [1.0, -1.0]}, "docs", "'intercept'"),
        ({"weights": [1.0, -1.0], "intercept": 0.0,
          "meta": {"vocabulary": {"good": 0, "bad": 5}}}, "corpus",
         "'meta.vocabulary'"),
        ({"weights": [1.0, -1.0], "intercept": 0.0,
          "meta": {"vocabulary": {"good": 0.0, "bad": 1.0}}}, "corpus",
         "'meta.vocabulary'"),
        ({"weights": [1.0, -1.0], "intercept": 0.0, "meta": 5}, "corpus",
         "'meta.vocabulary'"),
        # numeric strings a lax reader once converted
        ({"weights": ["1.5", -1.0], "intercept": 0.0}, "docs", "'weights'"),
        ({"weights": [1.0, -1.0], "intercept": "0.25"}, "docs",
         "'intercept'"),
        # once scored every document by its intercept alone
        ({"weights": [], "intercept": 0.5}, "docs", "'weights'"),
    ])
    def test_malformed_classifier_exits_1(self, doc, source, key, toy_corpus,
                                          tmp_path, capsys):
        clf = tmp_path / "clf.json"
        clf.write_text(json.dumps(doc), encoding="utf-8")
        docs = tmp_path / "docs.jsonl"
        docs.write_text(GOOD_DOC + "\n", encoding="utf-8")
        data = toy_corpus if source == "corpus" else str(docs)
        assert cli_dispatch(["eval", "--classifier", str(clf),
                             f"--{source}", data]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {clf}: ") and f"key {key}" in err

    def test_train_requires_exactly_one_source(self, toy_corpus, capsys):
        # train and eval alike, with neither source and with both
        sources = ([], ["--corpus", toy_corpus, "--docs", "x.jsonl"])
        for command in (["train"], ["eval", "--classifier", "clf.json"]):
            for argv in sources:
                assert cli_dispatch(command + argv) == 1
                err = capsys.readouterr().err
                assert "--corpus" in err and "--docs" in err

    def test_header_records_the_split_and_step(self, toy_corpus, tmp_path):
        # two runs that differ only in --train-frac write different headers
        configs = []
        for frac in ("0.5", "0.8"):
            out = tmp_path / f"clf-{frac}.json"
            assert cli_dispatch(["train", "--corpus", toy_corpus,
                                 "--epochs", "50", "--train-frac", frac,
                                 "--out", str(out)]) == 0
            configs.append(json.loads(out.read_text())["meta"]["config"])
        assert [c["train_frac"] for c in configs] == [0.5, 0.8]
        assert all(c["train_size"] is None and c["step"] is None
                   for c in configs)
        out = tmp_path / "clf-sized.json"
        assert cli_dispatch(["train", "--corpus", toy_corpus, "--epochs", "50",
                             "--train-size", "40", "--step", "0.5",
                             "--out", str(out)]) == 0
        config = json.loads(out.read_text())["meta"]["config"]
        assert (config["train_size"], config["step"]) == (40, 0.5)

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_train_size_below_one_exits_1(self, size, toy_corpus, tmp_path,
                                          capsys):
        # 0 must not fall back to --train-frac
        out = tmp_path / "clf.json"
        assert cli_dispatch(["train", "--corpus", toy_corpus,
                             "--train-size", size, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: --train-size must be >= 1, got {size}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_smoothing_exits_1_by_name(self, value, toy_corpus, capsys):
        assert cli_dispatch(["train", "--corpus", toy_corpus, "--delta", "1",
                             f"--smoothing={value}"]) == 1
        err = capsys.readouterr().err
        assert "smoothing must be finite and >= 0" in err
        assert "RuntimeWarning" not in err

    def test_divergent_step_exits_1_with_the_cause(self, toy_corpus, capsys):
        assert cli_dispatch(["train", "--corpus", toy_corpus, "--delta", "0.5",
                             "--step", "1e9", "--epochs", "300"]) == 1
        err = capsys.readouterr().err
        assert "diverged at step size 1e+09" in err
        assert "overflow" not in err

    def test_non_finite_l2_exits_1(self, toy_corpus, capsys):
        assert cli_dispatch(["train", "--corpus", toy_corpus,
                             "--l2", "nan"]) == 1
        assert "l2_weight must be finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta", ["0", "0.5", "1"])
    def test_no_count_columns_exits_1(self, delta, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        docs.write_text('{"counts": [], "label": 0}\n'
                        '{"counts": [], "label": 1}\n', encoding="utf-8")
        corpus = tmp_path / "blank.tsv"
        corpus.write_text("0\t\n1\t!!\n0\t\n1\t\n", encoding="utf-8")
        out = tmp_path / "clf.json"
        for source in (["--docs", str(docs)],
                       ["--corpus", str(corpus), "--train-size", "2"]):
            assert cli_dispatch(["train", *source, f"--delta={delta}",
                                 "--epochs", "5", "--out", str(out)]) == 1
            assert capsys.readouterr().err == \
                "error: training data has no count columns\n"
            assert not out.exists()

    def test_naive_bayes_validates_logistic_flags(self, toy_corpus, capsys):
        assert cli_dispatch(["train", "--corpus", toy_corpus, "--delta", "1",
                             "--epochs", "0"]) == 1
        assert "epochs" in capsys.readouterr().err


GOOD_DOC = '{"counts": [3, 1], "label": 0}'


class TestDocsValidation:
    CASES = {
        "missing_counts": '{"label": 1}',
        "missing_label": '{"counts": [1, 4]}',
        "label_outside_0_1": '{"counts": [1, 4], "label": 2}',
        "fractional_count": '{"counts": [0.5, 5], "label": 1}',
        "negative_count": '{"counts": [-1, 5], "label": 1}',
        "ragged_rows": '{"counts": [1, 4, 2], "label": 1}',
    }

    @staticmethod
    def run(command, lines, tmp_path):
        docs = tmp_path / "docs.jsonl"
        docs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [command, "--docs", str(docs)]
        if command == "eval":
            clf = tmp_path / "clf.json"
            clf.write_text(dumps({"weights": [1.0, -1.0], "intercept": 0.0}),
                           encoding="utf-8")
            argv += ["--classifier", str(clf)]
        return cli_dispatch(argv)

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_document_exits_1(self, command, case, tmp_path, capsys):
        lines = ["# header", GOOD_DOC, self.CASES[case]]
        assert self.run(command, lines, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "docs.jsonl:3" in err

    def test_eval_dimension_mismatch_exits_1(self, tmp_path, capsys):
        lines = ['{"counts": [1, 4, 2], "label": 1}']
        assert self.run("eval", lines, tmp_path) == 1
        assert "3 counts per document" in capsys.readouterr().err


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
# documents near the valid shape: the right keys, each value often valid
DOC_LIKE = st.fixed_dictionaries(
    {}, optional={"counts": st.lists(st.integers(0, 9), min_size=2, max_size=2)
                  | st.lists(st.integers(), max_size=3) | JSON_VALUES,
                  "label": st.sampled_from([0, 1]) | JSON_VALUES,
                  "topic": JSON_VALUES})


# model documents near the valid shape: each key often present and valid
TOPIC_LIKE = st.fixed_dictionaries(
    {}, optional={"id": st.integers(0, 3) | JSON_VALUES,
                  "rho0": st.sampled_from([0.0, 1.0]) | JSON_VALUES,
                  "rho1": st.sampled_from([0.0, 1.0]) | JSON_VALUES,
                  "intensity": st.lists(st.floats(0, 9), min_size=2,
                                        max_size=2) | JSON_VALUES})
MODEL_LIKE = st.fixed_dictionaries(
    {}, optional={"label_prior": st.floats(0, 1) | JSON_VALUES,
                  "vocab_size": st.just(2) | JSON_VALUES,
                  "topics": st.lists(TOPIC_LIKE, max_size=2) | JSON_VALUES})


def read_exactly(written, doc) -> bool:
    """Whether a document written back from what was read holds the values
    of the decoded document: integers as integers, numbers as JSON numbers
    (not bools or strings) of the same value."""
    if isinstance(written, dict):
        return isinstance(doc, dict) and all(
            k in doc and read_exactly(v, doc[k]) for k, v in written.items())
    if isinstance(written, list):
        return (isinstance(doc, list) and len(doc) == len(written)
                and all(map(read_exactly, written, doc)))
    if type(written) is int:
        return type(doc) is int and doc == written
    return type(doc) in (int, float) and float(doc) == written


class TestDocsProperties:
    @settings(max_examples=200, deadline=None)
    @given(line=st.one_of(DOC_LIKE.map(json.dumps), JSON_VALUES.map(json.dumps),
                          st.text(max_size=20)),
           blanks=st.integers(min_value=0, max_value=2))
    # lines that once escaped as JSONDecodeError, TypeError, OverflowError
    # and RecursionError
    @example(line="not json", blanks=0)
    @example(line='{"counts": ' + "[" * 100_000, blanks=0)
    @example(line='{"counts": [1, 2], "label": 0, "topic": []}', blanks=0)
    @example(line='{"counts": [1, 99999999999999999999], "label": 0}',
             blanks=0)
    def test_malformed_line_names_its_number(self, line, blanks):
        lines = ["# header", GOOD_DOC] + [""] * blanks + [GOOD_DOC]
        lines.append(" ".join(line.splitlines()))
        lineno = len(lines)
        fd, path = tempfile.mkstemp(suffix=".jsonl")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            try:
                batch = _read_docs_jsonl(path)
            except ValidationError as exc:
                assert str(exc).startswith(f"{path}:{lineno}: ")
            else:
                assert batch.counts.shape[0] in (2, 3)
        finally:
            os.unlink(path)

    @settings(max_examples=200, deadline=None)
    @given(text=st.one_of(MODEL_LIKE.map(json.dumps),
                          JSON_VALUES.map(json.dumps), st.text(max_size=20)))
    # documents that once escaped as KeyError, TypeError and RecursionError,
    # an int too large for a float, a valid model, and values that were once
    # truncated or converted instead of rejected
    @example(text='{"label_prior": 0.5, "vocab_size": 2}')
    @example(text="[" * 100_000)
    @example(text='{"label_prior": 0.5, "vocab_size": 2, "topics": 5}')
    @example(text='{"label_prior": 0.5, "vocab_size": 1, "topics": [{"id": 0, '
                  '"rho0": 1, "rho1": 1, "intensity": [1' + "0" * 400 + ']}]}')
    @example(text=dumps(VALID_MODEL))
    @example(text=altered_model("vocab_size", 2.9))
    @example(text=altered_model("id", 1.5, topic=1))
    @example(text=altered_model("label_prior", "0.5"))
    @example(text=altered_model("rho0", True, topic=0))
    @example(text=altered_model("intensity", ["6", "2"], topic=0))
    def test_rejected_model_names_the_file(self, text):
        fd, path = tempfile.mkstemp(suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                model = _load_sampler(path)
            except ValidationError as exc:
                assert str(exc).startswith(f"{path}: ")
            else:
                assert read_exactly(model.to_dict(), json.loads(text))
        finally:
            os.unlink(path)

    @given(st.lists(st.integers()))
    def test_int_list_round_trip(self, values):
        assert _int_list(",".join(map(str, values))) == values

    @given(st.lists(st.floats(allow_nan=False)))
    def test_float_list_round_trip(self, values):
        assert _float_list(",".join(map(repr, values))) == values


class TestCurves:
    ARGS = ["curves", "--model", "synthetic-sec6", "--seed", "7",
            "--n-grid", "40", "--delta-grid", "0,1",
            "--trials", "2", "--test-size", "1500", "--epochs", "40"]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_dispatch(self.ARGS + ["--out", str(out1)]) == 0
        assert cli_dispatch(self.ARGS + ["--out", str(out2)]) == 0
        assert (out1 / "curves.csv").read_bytes() == \
            (out2 / "curves.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == \
            (out2 / "summary.json").read_bytes()

    def test_blocked_test_set_does_not_depend_on_threads(self, tmp_path):
        # 16,387 rows: three test-set blocks, the last one ragged (a
        # repeated flag takes its last value)
        args = self.ARGS + ["--trials", "1", "--test-size", "16387"]
        outs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"t{threads}"
            assert cli_dispatch(args + ["--threads", threads,
                                        "--out", str(out)]) == 0
            outs.append([(out / name).read_bytes()
                         for name in ("curves.csv", "summary.json")])
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_1(self, threads, tmp_path, capsys):
        assert cli_dispatch(self.ARGS + ["--threads", threads,
                                         "--out", str(tmp_path / "c")]) == 1
        assert (f"threads must be >= 1, got {threads}"
                in capsys.readouterr().err)
        assert not (tmp_path / "c").exists()

    def test_threads_are_checked_by_flag_name_before_sampling(
            self, monkeypatch, tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("sampling started before --threads was "
                                 "checked")

        monkeypatch.setattr(cli, "_load_sampler", never)
        monkeypatch.setattr(cli, "run_learning_curves", never)
        assert cli_dispatch(self.ARGS + ["--threads", "0",
                                         "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == \
            "error: --threads must be >= 1, got 0\n"
        assert not (tmp_path / "c").exists()

    def test_repeated_grid_value_exits_1(self, tmp_path, capsys):
        # a repeated value would re-run identical cells and count their rows
        # as extra trials in summary.json
        argv = ["curves", "--n-grid", "100,100", "--delta-grid", "0.5,1",
                "--trials", "1", "--out", str(tmp_path / "c")]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err == \
            "error: n_grid repeats the value 100\n"
        assert not (tmp_path / "c").exists()

    def test_header_names_the_default_preset(self, tmp_path):
        out = tmp_path / "c"
        assert cli_dispatch(["curves", "--n-grid", "20", "--delta-grid", "1",
                             "--trials", "1", "--test-size", "50",
                             "--out", str(out)]) == 0
        line = (out / "curves.csv").read_text().split("\n")[1]
        config = json.loads(line[len("# config: "):])
        assert config["model"] == "synthetic-sec6"
        assert config["model_params"] == SYNTHETIC_PARAMS
        summary = json.loads((out / "summary.json").read_text())
        assert summary["meta"]["config"] == config

    def test_missing_out_exits_1_before_sampling(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the grid ran without --out")

        monkeypatch.setattr(cli, "run_learning_curves", never)
        assert cli_dispatch(self.ARGS) == 1
        assert "give --out" in capsys.readouterr().err

    def test_default_threads_counts_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert _default_threads() == 2
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(32)))
        assert _default_threads() == 8
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _default_threads() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _default_threads() == 1

    def test_header_carries_the_model_file(self, model_json, tmp_path):
        out = tmp_path / "c"
        assert cli_dispatch(["curves", "--model", model_json, "--n-grid", "20",
                             "--delta-grid", "1", "--trials", "1",
                             "--test-size", "50", "--out", str(out)]) == 0
        line = (out / "curves.csv").read_text().split("\n")[1]
        config = json.loads(line[len("# config: "):])
        assert "model_params" not in config
        summary = json.loads((out / "summary.json").read_text())
        assert summary["meta"]["config"] == config
        doc = config["model"]
        assert TopicModel.from_dict(doc).to_dict() == doc
        assert doc == json.loads(Path(model_json).read_text())

    def test_header_records_the_naive_bayes_smoothing(self, monkeypatch,
                                                      tmp_path):
        # the header names the smoothing the delta = 1 cells were fitted with
        monkeypatch.setattr(experiments, "NB_SMOOTHING", 0.5)
        fitted = []
        fit = experiments.fit_classifier

        def spy(train, cfg, **kwargs):
            clf = fit(train, cfg, **kwargs)
            fitted.append((cfg.dropout.delta, train, clf))
            return clf

        monkeypatch.setattr(experiments, "fit_classifier", spy)
        out = tmp_path / "c"
        assert cli_dispatch(self.ARGS + ["--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["meta"]["config"]["nb_smoothing"] == 0.5
        cells = [(train, clf) for delta, train, clf in fitted if delta == 1.0]
        assert len(cells) == 2  # one per trial
        for train, clf in cells:
            ref = recalibrate_intercept(
                train_naive_bayes(train, smoothing=0.5), train)
            assert clf.weights.tobytes() == ref.weights.tobytes()
            assert clf.intercept == ref.intercept

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "c"
        assert cli_dispatch(self.ARGS + ["--out", str(out)]) == 0
        lines = (out / "curves.csv").read_text().strip().split("\n")
        header_at = next(i for i, l in enumerate(lines)
                         if not l.startswith("#"))
        assert lines[header_at] == \
            "n,delta,trial,test_error,train_error,wall_time_ms,seed"
        assert len(lines) - header_at - 1 == 1 * 2 * 2  # n x delta x trials
        meta = [l for l in lines[:header_at]]
        assert any("seed: 7" in l for l in meta)
        assert any("droplab" in l for l in meta)


class TestVerify:
    def test_tails_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "tails.json"
        code = cli_dispatch(["verify", "--suite", "tails", "--seed", "7",
                             "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
        assert {c["name"] for c in report["checks"]} == \
            {"t=0.1", "t=0.5", "t=1", "t=2", "t=4", "t=8"}

    def test_bias_suite_passes(self, tmp_path):
        out = tmp_path / "bias.json"
        assert cli_dispatch(["verify", "--suite", "bias",
                             "--out", str(out)]) == 0

    def test_bias_worst_vector_is_reported_only_for_a_failed_check(
            self, monkeypatch):
        # a passing gap is rounding, and so is the cell it peaks at
        checks = verify.run_bias_suite(seed=0, mc=1)
        equal = [c for c in checks if c["name"].startswith("equal-length")]
        assert equal and all(c["passed"] and "worst_vector" not in c
                             for c in equal)
        monkeypatch.setattr(verify, "POSTERIOR_GAP_TOL", -1.0)
        failed = [c for c in verify.run_bias_suite(seed=0, mc=1)
                  if c["name"].startswith("equal-length")]
        assert not any(c["passed"] for c in failed)
        models = verify.equal_length_models()
        for k, model in enumerate(models):
            rep = experiments.run_bias_check(model, verify.BIAS_DELTAS,
                                             verify.BIAS_BUDGET)
            got = failed[k * len(verify.BIAS_DELTAS):
                         (k + 1) * len(verify.BIAS_DELTAS)]
            assert [c["worst_vector"] for c in got] == \
                [list(rep.worst_vector[d]) for d in verify.BIAS_DELTAS]

    def test_reports_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        args = ["verify", "--suite", "all", "--mc", "20000", "--seed", "11"]
        assert cli_dispatch(args + ["--out", str(out1)]) == 0
        assert cli_dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_margin_report_does_not_depend_on_mc_or_seed(self, tmp_path):
        # the margin suite is exact: only the report's config, ahead of the
        # checks, records the budget and the seed
        tails = []
        for mc, seed in (("1", "0"), ("1000000", "9")):
            out = tmp_path / f"margin-{mc}.json"
            assert cli_dispatch(["verify", "--suite", "margin", "--mc", mc,
                                 "--seed", seed, "--out", str(out)]) == 0
            tails.append(out.read_bytes().split(b'"checks"', 1)[1])
        assert tails[0] == tails[1]

    def test_unknown_suite_exits_1(self):
        assert cli_dispatch(["verify", "--suite", "nonsense"]) == 1

    @pytest.mark.parametrize("mc", ["0", "-5"])
    @pytest.mark.parametrize("suite", VERIFY_SUITES)
    def test_mc_below_one_exits_1(self, suite, mc, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli_dispatch(["verify", "--suite", suite, "--mc", mc,
                             "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: mc must be >= 1, got {mc}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["verify", "--suite", "tails"],
                                      ["sample"],
                                      ["curves", "--n-grid", "100",
                                       "--trials", "1", "--test-size", "10"]])
    def test_negative_seed_exits_1(self, argv, capsys):
        assert cli_dispatch(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == \
            "error: seed must be >= 0, got -1\n"

    def test_mc_zero_reports_no_traceback(self):
        out = run_python("-m", "droplab", "verify", "--suite", "altitude",
                         "--mc", "0")
        assert out.returncode == 1
        assert "mc must be >= 1" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("mc, seed", [(0, 0), (-5, 0), (1, -1)])
    def test_library_rejects_before_running(self, mc, seed):
        name = "mc" if mc < 1 else "seed"
        with pytest.raises(ValueError, match=f"{name} must be >= "):
            run_verification("all", mc=mc, seed=seed)


class TestVerifyConcurrency:
    def test_report_does_not_depend_on_cpu_count(self, monkeypatch):
        reports = []
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            reports.append(dumps(run_verification("all", mc=20_000, seed=3),
                                 indent=2))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_suites_run_serially_on_the_calling_thread(self, cpus,
                                                       monkeypatch):
        # however many CPUs are usable, no suite leaves the calling thread
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        calls = []

        def recorder(name):
            def run(seed, mc):
                calls.append((name, threading.get_ident()))
                return [{"suite": name, "passed": True}]
            return run

        for name in VERIFY_SUITES:
            monkeypatch.setitem(verify._SUITE_RUNNERS, name, recorder(name))
        report = run_verification("all", mc=1, seed=0)
        assert [c["suite"] for c in report["checks"]] == list(VERIFY_SUITES)
        assert calls == [(name, threading.get_ident())
                         for name in VERIFY_SUITES]

    def test_suite_error_propagates(self, monkeypatch):
        def broken(seed, mc):
            raise RuntimeError("altitude broke")

        monkeypatch.setitem(verify._SUITE_RUNNERS, "altitude", broken)
        with pytest.raises(RuntimeError, match="altitude broke"):
            run_verification("all", mc=2_000, seed=1)


def test_module_entry_point_runs_the_cli():
    out = run_python("-m", "droplab", "verify", "--suite", "tails")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["passed"] is True


def test_commands_load_no_scipy(tmp_path):
    # droplab computes its special functions with numpy and math, so no
    # command, verify included, loads any scipy module
    script = """
import sys
from droplab.cli import cli_dispatch
for argv in (
        ["sample", "--n", "40", "--seed", "1", "--out", "docs.jsonl"],
        ["train", "--docs", "docs.jsonl", "--delta", "0.5", "--epochs", "5",
         "--out", "clf.json"],
        ["eval", "--classifier", "clf.json", "--docs", "docs.jsonl",
         "--out", "eval.json"],
        ["curves", "--n-grid", "40", "--delta-grid", "0.5", "--trials", "1",
         "--test-size", "200", "--epochs", "5", "--threads", "2",
         "--out", "curves"],
        ["demo-influence", "--delta", "0.5", "--n", "400",
         "--out", "demo.json"],
        ["verify", "--suite", "all", "--mc", "2000", "--out", "verify.json"]):
    assert cli_dispatch(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = run_python("-c", script, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "curves" / "curves.csv").exists()
    assert json.loads((tmp_path / "verify.json").read_text())["passed"] is True


class TestDemoInfluence:
    def test_writes_geometry_report(self, tmp_path):
        out = tmp_path / "demo.json"
        code = cli_dispatch(["demo-influence", "--delta", "0",
                             "--n", "400", "--seed", "2",
                             "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["angle_degrees"] == 0.0
        assert doc["plain"] == doc["dropout"]

    def test_full_thinning_exits_1(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        code = cli_dispatch(["demo-influence", "--delta", "1",
                             "--n", "400", "--out", str(out)])
        assert code == 1
        assert "naive Bayes" in capsys.readouterr().err
        assert not out.exists()
