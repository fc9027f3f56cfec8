import json

import numpy as np
import pytest

from droplab.cli import cli_dispatch
from droplab.serialize import dumps
from droplab.topics import Topic, TopicModel


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

    def test_preset_model(self, tmp_path):
        out = tmp_path / "docs.jsonl"
        code = cli_dispatch(["sample", "--model", "synthetic-sec6",
                             "--n", "5", "--seed", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text().strip().split("\n")[1])
        assert len(doc["counts"]) == 500

    def test_missing_model_file_exits_1(self, capsys):
        assert cli_dispatch(["sample", "--model", "/nope.json"]) == 1


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
                             "--mc", "4", "--out", str(clf_path)]) == 0
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

    def test_train_requires_exactly_one_source(self, toy_corpus, capsys):
        assert cli_dispatch(["train"]) == 1
        assert cli_dispatch(["train", "--corpus", toy_corpus,
                             "--docs", "x.jsonl"]) == 1


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

    def test_thread_count_does_not_change_results(self, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        assert cli_dispatch(self.ARGS + ["--threads", "1",
                                         "--out", str(out1)]) == 0
        assert cli_dispatch(self.ARGS + ["--threads", "4",
                                         "--out", str(out2)]) == 0
        assert (out1 / "curves.csv").read_bytes() == \
            (out2 / "curves.csv").read_bytes()

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

    def test_reports_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        args = ["verify", "--suite", "margin", "--seed", "11",
                "--mc", "20000"]
        assert cli_dispatch(args + ["--out", str(out1)]) == 0
        assert cli_dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_suite_exits_1(self):
        assert cli_dispatch(["verify", "--suite", "nonsense"]) == 1


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
