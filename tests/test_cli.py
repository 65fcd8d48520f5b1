from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qvqpp
from qvqpp import QppConfig, Query, QVCandidate, QVSet, RankedList, base_predictions, smooth_qpp
from qvqpp import ap_at_k, load_index, parse_qrels, parse_run, parse_score_tsv, save_index, write_score_tsv
from qvqpp import cli, dense_index, variants
from qvqpp.cli import main
from qvqpp.text_index import InvertedIndex
from test_variants import predicting_resources

# Outputs of the fixture workspace with its default 2-hop NQC configuration,
# recorded before the internal runs and pseudo-query retrievals were cached
# across targets; any change to the variant pools, their RBO order or the
# survivors' runs changes these bytes.
NQC_PREDICTIONS_GOLDEN = """\
dl01\t1.146785
dl02\t0.488831
dl03\t0.462056
dl04\t0.481745
dl05\t0.472767
"""
NQC_SWEEP_GOLDEN = """\
lambda,k,tau
0,1,0.000000
0,2,0.000000
0,3,0.000000
0.5,1,-0.200000
0.5,2,-0.200000
0.5,3,0.000000
1,1,-0.200000
1,2,-0.600000
1,3,-0.200000
"""
NQC_QV_GOLDEN = """\
qid\tvariant_qid\thop\trbo\tvariant_text
dl01\tt01\t1\t1.000000\tcoffee brewing water temperature
dl01\tt03\t2\t0.098884\tfrench press plunger steeping heat level
dl02\tt04\t1\t0.678233\twhale krill pod plankton
dl02\tt06\t2\t0.614699\tbaleen calf plankton pod
dl03\tt07\t1\t0.736213\twattage photovoltaic rooftop cell
dl03\tt08\t1\t0.656774\tsolar wattage grid
dl04\tt10\t1\t0.850036\tnile limestone chamber
dl04\tt12\t1\t0.805799\tpyramid giza dynasty
dl05\tt13\t1\t0.804924\thydration rye proof sourdough
dl05\tt14\t1\t0.641827\tstarter bake proof levain
"""

# Outputs of the fixture workspace with qpp.base=uef, recorded from the
# dense relevance-model implementation; a changed UEF re-ranking that
# flips a tie changes these bytes.
UEF_PREDICTIONS_GOLDEN = """\
dl01\t0.920065
dl02\t0.185933
dl03\t0.204089
dl04\t0.295897
dl05\t0.227552
"""
UEF_SWEEP_GOLDEN = """\
lambda,k,tau
0,1,0.000000
0,2,0.000000
0,3,0.000000
0.5,1,0.000000
0.5,2,0.000000
0.5,3,-0.200000
1,1,0.000000
1,2,0.200000
1,3,0.000000
"""

# Outputs of `tune` and `evaluate --baseline` on the fixture workspace and on
# its doubled form (below), recorded before the CLI's input loading was
# merged into one path. BASELINE_SCORES is the baseline predictions file.
TUNE_GOLDEN = """\
target_metric: ap@100
base: nqc
fold_1_train_size: 3
fold_1_test_size: 2
fold_1_chosen_lambda: 0.5
fold_1_chosen_k: 1
fold_1_train_tau: -0.333333
fold_1_test_tau: 1.000000
fold_2_train_size: 2
fold_2_test_size: 3
fold_2_chosen_lambda: 0
fold_2_chosen_k: 1
fold_2_train_tau: 1.000000
fold_2_test_tau: -1.000000
mean_test_tau: 0.000000
"""
TUNE_BASELINE_GOLDEN = """\
target_metric: ndcg@10
base: nqc
fold_1_train_size: 5
fold_1_test_size: 5
fold_1_chosen_lambda: 0.5
fold_1_chosen_k: 1
fold_1_train_tau: -0.500000
fold_1_test_tau: 0.500000
fold_2_train_size: 5
fold_2_test_size: 5
fold_2_chosen_lambda: 0.5
fold_2_chosen_k: 2
fold_2_train_tau: 1.000000
fold_2_test_tau: -0.500000
mean_test_tau: 0.000000
fold_1_baseline_test_tau: 0.000000
fold_1_fisher_z: 0.549306
fold_1_significant_at_0.99: false
fold_2_baseline_test_tau: 0.000000
fold_2_fisher_z: -0.549306
fold_2_significant_at_0.99: false
"""
EVALUATE_BASELINE_GOLDEN = """\
target_metric: ap@100
n_queries: 5
tau: -0.200000
baseline_tau: 0.400000
fisher_z: -0.626381
significant_at_0.99: false
"""
BASELINE_SCORES = {"dl01": 0.3, "dl02": 0.9, "dl03": 0.1, "dl04": 0.7, "dl05": 0.5}


@pytest.fixture(scope="module")
def indexed_workspace(workspace):
    assert main(["index", "--config", str(workspace["config"])]) == 0
    assert (workspace["root"] / "work" / "index" / "documents.idx").exists()
    assert (workspace["root"] / "work" / "index" / "queries.idx").exists()
    return workspace


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def doubled_overrides(indexed_workspace, tmp_path_factory):
    """Overrides that add a renamed copy dl06-dl10 of each target, its run and its qrels.

    With fold_a = dl01-dl03, dl06, dl07 both tune folds test 5 queries, enough for the
    Fisher comparison (n >= 4) that ``tune --baseline`` runs per fold.
    """
    data = indexed_workspace["data"]
    out = tmp_path_factory.mktemp("doubled")
    overrides = ["--set", "evaluation.fold_a=[dl01, dl02, dl03, dl06, dl07]", "--set", "evaluation.target_metric=ndcg@10"]
    for key, name in (
        ("test_queries", "test_queries.tsv"), ("target_run", "target_run.txt"), ("test_qrels", "test_qrels.txt"),
    ):
        text = (data / name).read_text(encoding="utf-8")
        copy = re.sub(r"^dl0(\d)", lambda m: f"dl{int(m.group(1)) + 5:02d}", text, flags=re.M)
        (out / name).write_text(text + copy, encoding="utf-8")
        overrides += ["--set", f"paths.{key}={out / name}"]
    return overrides


def smooth_reference(phi_target, candidates, lam, phi):
    """The smoothed estimate as one loop: a sequential weight sum, then a sequential weighted sum of phi."""
    weight_sum = sum(c.rbo for c in candidates)
    if not candidates or weight_sum <= 0.0 or lam == 0.0:
        return phi_target
    smoothed = 0.0
    for candidate in candidates:
        if candidate.rbo != 0.0:
            smoothed += candidate.rbo / weight_sum * phi[candidate.query.id]
    return (1.0 - lam) * phi_target + lam * smoothed


class TestIndexCommand:
    def test_two_runs_write_identical_artifacts(self, indexed_workspace, tmp_path):
        for name in ("first", "second"):
            assert run_cli(
                "index", "--config", indexed_workspace["config"], "--set", f"paths.index_dir={tmp_path / name}",
            ) == 0
        for file_name in ("documents.idx", "queries.idx"):
            assert (tmp_path / "first" / file_name).read_bytes() == (tmp_path / "second" / file_name).read_bytes()
        assert sorted(p.name for p in (tmp_path / "first").iterdir()) == ["documents.idx", "queries.idx"]

    def test_empty_collection_refused_before_any_artifact(self, indexed_workspace, tmp_path, capsys):
        empty = tmp_path / "collection.tsv"
        empty.write_text("", encoding="utf-8")
        index_dir = tmp_path / "index"
        code = run_cli(
            "index", "--config", indexed_workspace["config"], "--set", f"paths.collection={empty}",
            "--set", f"paths.index_dir={index_dir}",
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty}: the collection holds no documents\n"
        assert not index_dir.exists()

    def test_empty_training_queries_refused_before_any_artifact(self, indexed_workspace, tmp_path, capsys):
        empty = tmp_path / "train_queries.tsv"
        empty.write_text("", encoding="utf-8")
        index_dir = tmp_path / "index"
        code = run_cli(
            "index", "--config", indexed_workspace["config"], "--set", f"paths.train_queries={empty}",
            "--set", f"paths.index_dir={index_dir}",
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty}: the training-query file holds no queries\n"
        assert not index_dir.exists()

    def test_source_edited_while_read_refused(self, indexed_workspace, tmp_path, capsys, monkeypatch):
        # the recorded digest would name bytes other than the parsed ones
        collection = tmp_path / "collection.tsv"
        collection.write_bytes((indexed_workspace["data"] / "collection.tsv").read_bytes())
        parse = cli.parse_collection

        def parse_then_edit(path):
            documents = parse(path)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("late\tappended while indexing\n")
            return documents

        monkeypatch.setattr(cli, "parse_collection", parse_then_edit)
        index_dir = tmp_path / "index"
        code = run_cli(
            "index", "--config", indexed_workspace["config"], "--set", f"paths.collection={collection}",
            "--set", f"paths.index_dir={index_dir}",
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {collection} changed while it was read; rerun qvqpp index\n"
        assert not index_dir.exists()


class TestValidation:
    def test_missing_input_fails_before_work(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(
            """
paths:
  collection: nope.tsv
  train_queries: nope.tsv
  train_qrels: nope.txt
  test_queries: nope.tsv
  test_qrels: nope.txt
  target_run: nope.txt
  index_dir: work/index
  output_dir: work/out
""",
            encoding="utf-8",
        )
        assert run_cli("index", "--config", config) == 1
        assert "missing input file" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("command", ["qv", "predict", "sweep"])
    def test_impossible_uef_sample_refused_before_loading(self, indexed_workspace, monkeypatch, capsys, command):
        # no subset of 500 can be drawn from the at most max(top_k, 50) = 100 documents of a UEF pool
        def loaded(*args, **kwargs):
            raise AssertionError("an input was loaded")

        for name in ("load_index", "parse_queries", "parse_collection", "parse_run"):
            monkeypatch.setattr(cli, name, loaded)
        monkeypatch.setattr(dense_index, "load_vectors", loaded)  # the dense path imports it when it runs
        out = indexed_workspace["root"] / "never-written"
        for retriever in ("bm25", "dense"):
            code = run_cli(
                command, "--config", indexed_workspace["config"], "--out", out,
                "--set", f"qpp.query_retriever={retriever}", "--set", "qpp.base=uef",
                "--set", "predictor.uef_sample_size=500",
            )
            assert code == 1
            assert capsys.readouterr().err == (
                "error: predictor.uef_sample_size 500 exceeds max(predictor.top_k, 50) = 100, "
                "the most documents a UEF subset is drawn from\n"
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            ["qpp.base=uef", "predictor.uef_sample_size=100"],
            ["qpp.base=uef", "predictor.top_k=20", "predictor.uef_sample_size=50"],
            ["qpp.base=uef", "predictor.top_k=500", "predictor.uef_sample_size=500"],
            ["qpp.base=nqc", "predictor.uef_sample_size=500"],
        ],
    )
    def test_possible_uef_samples_load(self, indexed_workspace, overrides):
        cfg = cli.load_config(indexed_workspace["config"], overrides)
        assert cfg.predictor.uef_sample_size == int(overrides[-1].split("=")[1])

    def test_bad_metric_rejected(self, indexed_workspace, capsys):
        code = run_cli(
            "predict", "--config", indexed_workspace["config"],
            "--set", "evaluation.target_metric=map@1000",
        )
        assert code == 1
        assert "target_metric" in capsys.readouterr().err

    def test_unknown_retriever_rejected(self, indexed_workspace, capsys):
        code = run_cli(
            "predict", "--config", indexed_workspace["config"],
            "--set", "qpp.query_retriever=neural",
        )
        assert code == 1
        assert "query retriever" in capsys.readouterr().err

    def test_quoted_boolean_rejected(self, indexed_workspace, capsys):
        # a quoted YAML "false" is a non-empty string; it must not enable 2-hop
        code = run_cli(
            "predict", "--config", indexed_workspace["config"],
            "--set", 'qpp.use_2hop="false"',
        )
        assert code == 1
        assert "error: qpp.use_2hop must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("predictor.mu=-1", "mu must be >= 0"),
            ("predictor.top_k=0", "top_k must be >= 1"),
            ("predictor.uef_samples=0", "uef_samples must be >= 1"),
            ("predictor.uef_sample_size=-2", "uef_sample_size must be >= 1"),
        ],
    )
    def test_bad_predictor_param_rejected(self, indexed_workspace, capsys, override, message):
        code = run_cli("predict", "--config", indexed_workspace["config"], "--set", override)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("bm25.k1=.nan", "k1 must be finite, got nan"),
            ("bm25.k1=.inf", "k1 must be finite, got inf"),
            ("bm25.k1=-1", "k1 must be >= 0, got -1.0"),
            ("bm25.b=-1", "b must be in [0, 1], got -1.0"),
            ("bm25.b=2", "b must be in [0, 1], got 2.0"),
            ("predictor.mu=.inf", "mu must be finite, got inf"),
            ("predictor.mu=.nan", "mu must be finite, got nan"),
        ],
    )
    def test_bad_bm25_or_smoothing_param_rejected(self, indexed_workspace, tmp_path, capsys, override, message):
        predictions = tmp_path / "predictions.tsv"
        code = run_cli("predict", "--config", indexed_workspace["config"], "--set", override, "--out", predictions)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not predictions.exists()

    def test_override_fills_a_null_section(self, indexed_workspace, tmp_path, capsys):
        text = indexed_workspace["config"].read_text(encoding="utf-8")
        section = text[text.index("predictor:"):text.index("bm25:")]
        outputs = []
        for name, replacement, overrides in (
            ("null", "predictor:\n", ["--set", "predictor.top_k=50"]),
            ("explicit", "predictor:\n  top_k: 50\n", []),
        ):
            config = tmp_path / f"{name}.yaml"
            config.write_text(text.replace(section, replacement), encoding="utf-8")
            outputs.append(tmp_path / f"{name}.tsv")
            assert run_cli("predict", "--config", config, *overrides, "--out", outputs[-1]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        config = tmp_path / "scalar.yaml"
        config.write_text(text.replace(section, "predictor: 5\n"), encoding="utf-8")
        assert run_cli("predict", "--config", config, "--set", "predictor.top_k=50") == 1
        assert capsys.readouterr().err == "error: override 'predictor.top_k' does not address a mapping\n"

    @pytest.mark.parametrize(
        "path_key, file_name",
        [("train_queries", "train_queries.tsv"), ("collection", "collection.tsv")],
    )
    def test_stale_index_rejected(self, indexed_workspace, tmp_path, capsys, path_key, file_name):
        lines = (indexed_workspace["data"] / file_name).read_text(encoding="utf-8").splitlines(True)
        shortened = tmp_path / file_name
        shortened.write_text("".join(lines[1:]), encoding="utf-8")
        code = run_cli(
            "predict", "--config", indexed_workspace["config"],
            "--set", f"paths.{path_key}={shortened}",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "index is stale; rerun qvqpp index" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path_key, file_name",
        [("train_queries", "train_queries.tsv"), ("collection", "collection.tsv")],
    )
    def test_edited_text_with_same_ids_is_stale(self, indexed_workspace, tmp_path, capsys, path_key, file_name):
        lines = (indexed_workspace["data"] / file_name).read_text(encoding="utf-8").splitlines(True)
        item_id = lines[0].split("\t", 1)[0]
        edited = tmp_path / file_name
        edited.write_text(f"{item_id}\tedited text\n" + "".join(lines[1:]), encoding="utf-8")
        code = run_cli(
            "predict", "--config", indexed_workspace["config"],
            "--set", f"paths.{path_key}={edited}", "--out", tmp_path / "predictions.tsv",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "index is stale; rerun qvqpp index" in err
        assert not (tmp_path / "predictions.tsv").exists()

    def test_matching_file_digests_skip_parsing_and_item_digests(self, indexed_workspace, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called although the source files have the indexed bytes")

        monkeypatch.setattr(cli, "parse_collection", refuse)
        monkeypatch.setattr(InvertedIndex, "built_from", refuse)
        out = tmp_path / "predictions.tsv"
        assert run_cli("predict", "--config", indexed_workspace["config"], "--out", out) == 0
        assert out.read_text(encoding="utf-8") == NQC_PREDICTIONS_GOLDEN

    @pytest.mark.parametrize(
        "path_key, file_name",
        [("train_queries", "train_queries.tsv"), ("collection", "collection.tsv")],
    )
    def test_other_bytes_with_the_indexed_items_load(self, indexed_workspace, tmp_path, path_key, file_name):
        text = (indexed_workspace["data"] / file_name).read_text(encoding="utf-8")
        crlf = tmp_path / file_name
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))  # parses to the same items
        out = tmp_path / "predictions.tsv"
        code = run_cli(
            "predict", "--config", indexed_workspace["config"], "--set", f"paths.{path_key}={crlf}", "--out", out,
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == NQC_PREDICTIONS_GOLDEN

    @pytest.mark.parametrize("file_name", ["documents.idx", "queries.idx"])
    def test_wrong_tokenizer_digest_is_stale_with_matching_file(self, indexed_workspace, tmp_path, capsys, file_name):
        built = indexed_workspace["root"] / "work" / "index"
        index_dir = tmp_path / "index"
        index_dir.mkdir()
        for name in ("documents.idx", "queries.idx"):
            (index_dir / name).write_bytes((built / name).read_bytes())
        save_index(replace(load_index(built / file_name), tokenizer_sha256="0" * 64), index_dir / file_name)
        code = run_cli("predict", "--config", indexed_workspace["config"], "--set", f"paths.index_dir={index_dir}")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {index_dir / file_name}: index is stale; rerun qvqpp index")

    @pytest.mark.parametrize(
        "config_text, override, message",
        [
            ("paths: [unclosed\n", None, "config.yaml: malformed YAML"),
            (None, "qpp.lambda=[0.5, 1", "override 'qpp.lambda': malformed YAML"),
            (None, "qpp=5", "config section 'qpp' must be a mapping, got 5"),
            ("paths: 5\n", None, "config section 'paths' must be a mapping, got 5"),
            ("paths: []\n", None, "config section 'paths' must be a mapping, got []"),
            (None, "seed=[1]", "seed: expected int, got [1]"),
            (None, "paths.collection=[1,2]", "paths.collection: expected str, got [1, 2]"),
            (None, "evaluation.lambdas=5", "evaluation.lambdas: expected a list of float, got 5"),
            (None, "evaluation.fold_a=5", "evaluation.fold_a: expected a list of str, got 5"),
            (None, "qpp.k=2.7", "qpp.k: expected int, got 2.7"),
            (None, "qpp.internal_depth=3.9", "qpp.internal_depth: expected int, got 3.9"),
            (None, "seed=1.5", "seed: expected int, got 1.5"),
            (None, "seed=.inf", "seed: expected int, got inf"),
            (None, "evaluation.ks=[1.5,2]", "evaluation.ks: expected a list of int, got [1.5, 2]"),
            (None, "qpp.lambda=true", "qpp.lambda: expected float, got True"),
            (None, "predictor.top_k=true", "predictor.top_k: expected int, got True"),
            (None, "predictor.mu=1" + "0" * 400, "predictor.mu: expected float, got 1000"),
            (None, "qpp.lamda=0.9", "unknown config key 'qpp.lamda'"),
            (None, "predictr.top_k=3", "unknown config key 'predictr'"),
            ("qpp:\n  lamda: 0.9\n", None, "unknown config key 'qpp.lamda'"),
            ("sed: 1\n", None, "unknown config key 'sed'"),
            ("bm25:\n  k2: 1.2\n", None, "unknown config key 'bm25.k2'"),
        ],
    )
    def test_malformed_config_rejected(self, indexed_workspace, tmp_path, capsys, config_text, override, message):
        config = indexed_workspace["config"]
        if config_text is not None:
            config = tmp_path / "config.yaml"
            config.write_text(config_text, encoding="utf-8")
        overrides = ["--set", override] if override is not None else []
        assert run_cli("predict", "--config", config, *overrides) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err

    def test_unknown_key_in_working_config_writes_nothing(self, indexed_workspace, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        text = indexed_workspace["config"].read_text(encoding="utf-8")
        config.write_text(text.replace("  top_k: 100\n", "  top_k: 100\n  topk: 3\n"), encoding="utf-8")
        out = tmp_path / "predictions.tsv"
        assert run_cli("predict", "--config", config, "--out", out) == 1
        assert capsys.readouterr().err == "error: unknown config key 'predictor.topk'\n"
        assert not out.exists()

    def test_whole_numbers_accepted_for_number_keys(self, indexed_workspace):
        overrides = ["predictor.mu=0", "qpp.k=2.0", "seed=3.0", "evaluation.lambdas=[0, 1]", "evaluation.ks=[1.0, 2]"]
        cfg = cli.load_config(indexed_workspace["config"], overrides)
        values = (cfg.predictor.mu, cfg.qpp.k, cfg.seed, cfg.lambdas, cfg.ks)
        assert values == (0.0, 2, 3, [0.0, 1.0], [1, 2])
        assert [type(v) for v in (cfg.predictor.mu, cfg.qpp.k, cfg.seed, *cfg.lambdas, *cfg.ks)] == [
            float, int, int, float, float, int, int
        ]

    @pytest.mark.parametrize("command", ["tune", "sweep"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ("evaluation.lambdas=[0.5, 2]", "evaluation.lambdas must lie in [0, 1], got 2"),
            ("evaluation.lambdas=[-0.1, 0.5]", "evaluation.lambdas must lie in [0, 1], got -0.1"),
            ("evaluation.ks=[0, 1]", "evaluation.ks must be >= 1, got 0"),
        ],
    )
    def test_bad_grid_rejected_before_loading(self, indexed_workspace, tmp_path, capsys, command, override, message):
        # the index directory does not exist: only a grid check that runs first can name the grid
        out = tmp_path / "report"
        code = run_cli(
            command, "--config", indexed_workspace["config"], "--set", override,
            "--set", f"paths.index_dir={tmp_path / 'no-index'}", "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data[: len(data) // 2],
            lambda data: b"\x80\x04garbage that is no pickle",
            lambda data: pickle.dumps({"format": "qvqpp.inverted_index", "version": 1, "index": {"item_ids": []}}),
        ],
        ids=["truncated", "garbage", "foreign-payload"],
    )
    def test_corrupt_index_rejected(self, indexed_workspace, tmp_path, capsys, corrupt):
        built = indexed_workspace["root"] / "work" / "index"
        index_dir = tmp_path / "index"
        index_dir.mkdir()
        (index_dir / "queries.idx").write_bytes((built / "queries.idx").read_bytes())
        (index_dir / "documents.idx").write_bytes(corrupt((built / "documents.idx").read_bytes()))
        code = run_cli(
            "predict", "--config", indexed_workspace["config"], "--set", f"paths.index_dir={index_dir}",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "documents.idx: not a qvqpp.inverted_index artifact" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["index", "qv", "predict", "evaluate", "tune", "sweep"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ("qpp.run_depth=0", "qpp.run_depth must be >= 1, got 0"),
            ("qpp.rbo_depth=0", "qpp.rbo_depth must be >= 1, got 0"),
            ("qpp.rbo_p=1", "qpp.rbo_p must be in (0, 1), got 1.0"),
            ("qpp.rbo_p=0", "qpp.rbo_p must be in (0, 1), got 0.0"),
        ],
    )
    def test_range_error_names_the_config_key(self, indexed_workspace, tmp_path, capsys, command, override, message):
        extra = ["--predictions", tmp_path / "predictions.tsv"] if command == "evaluate" else []
        code = run_cli(command, "--config", indexed_workspace["config"], "--set", override, *extra)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, kept, least",
        [("predict", 0, 1), ("sweep", 0, 2), ("sweep", 1, 2), ("tune", 0, 2), ("tune", 1, 2)],
    )
    def test_run_too_small_rejected_before_loading(self, indexed_workspace, tmp_path, capsys, command, kept, least):
        # the index directory does not exist: only a run check that runs first can name the run
        lines = (indexed_workspace["data"] / "target_run.txt").read_text(encoding="utf-8").splitlines(True)
        run = tmp_path / "target_run.txt"
        run.write_text("".join(line for line in lines if line.split()[0] in ("dl01", "dl02")[:kept]), encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(
            command, "--config", indexed_workspace["config"], "--set", f"paths.target_run={run}",
            "--set", f"paths.index_dir={tmp_path / 'no-index'}", "--set", "evaluation.fold_a=[dl01]", "--out", out,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {run}: expected at least {least} run queries, got {kept}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "fold_a, sizes", [("[dl01]", "1 in fold_a and 4"), ("[dl01, dl02, dl03, dl04]", "4 in fold_a and 1")],
    )
    def test_tune_fold_too_small_rejected_before_loading(self, indexed_workspace, tmp_path, capsys, fold_a, sizes):
        out = tmp_path / "tune.txt"
        code = run_cli(
            "tune", "--config", indexed_workspace["config"], "--set", f"evaluation.fold_a={fold_a}",
            "--set", f"paths.index_dir={tmp_path / 'no-index'}", "--out", out,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: kendall tau needs 2 queries per fold, got {sizes} in the other\n"
        assert not out.exists()

    def test_non_finite_run_score_rejected(self, indexed_workspace, tmp_path, capsys):
        lines = (indexed_workspace["data"] / "target_run.txt").read_text(encoding="utf-8").splitlines(True)
        fields = lines[0].split()
        fields[4] = "nan"
        run = tmp_path / "target_run.txt"
        run.write_text(" ".join(fields) + "\n" + "".join(lines[1:]), encoding="utf-8")
        code = run_cli(
            "predict", "--config", indexed_workspace["config"],
            "--set", f"paths.target_run={run}", "--out", tmp_path / "predictions.tsv",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run}:1: non-finite score 'nan'")
        assert "Traceback" not in err
        assert not (tmp_path / "predictions.tsv").exists()

    def test_non_finite_prediction_rejected(self, indexed_workspace, tmp_path, capsys):
        predictions = tmp_path / "predictions.tsv"
        predictions.write_text("dl01\t0.5\ndl02\tinf\ndl03\t0.1\ndl04\t0.2\ndl05\t0.3\n", encoding="utf-8")
        code = run_cli("evaluate", "--config", indexed_workspace["config"], "--predictions", predictions)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {predictions}:2: non-finite value 'inf'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_ndcg_overflowing_grade_rejected(self, indexed_workspace, tmp_path, capsys, command):
        # AP binarizes a grade of 1100, but its nDCG gain 2 ** 1100 - 1 is no float
        lines = (indexed_workspace["data"] / "test_qrels.txt").read_text(encoding="utf-8").splitlines(True)
        fields = lines[0].split()
        fields[3] = "1100"
        qrels = tmp_path / "test_qrels.txt"
        qrels.write_text(" ".join(fields) + "\n" + "".join(lines[1:]), encoding="utf-8")
        predictions = tmp_path / "predictions.tsv"
        predictions.write_text("dl01\t0.5\ndl02\t0.4\ndl03\t0.1\ndl04\t0.2\ndl05\t0.3\n", encoding="utf-8")
        extra = ["--predictions", predictions] if command == "evaluate" else []
        code = run_cli(
            command, "--config", indexed_workspace["config"], "--out", tmp_path / "out", *extra,
            "--set", "evaluation.target_metric=ndcg@10", "--set", f"paths.test_qrels={qrels}",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: ndcg@10 of query {fields[0]!r}: the ideal DCG of grades up to 1100 is not finite\n"

    @pytest.mark.parametrize(
        "path_key",
        ["collection", "train_queries", "train_qrels", "test_queries", "test_qrels", "target_run", "embeddings",
         "config", "fold_a"],
    )
    def test_bad_utf8_names_file_and_line(self, indexed_workspace, tmp_path, capsys, path_key):
        # predict reads every input but the test qrels, which sweep reads
        command = "sweep" if path_key == "test_qrels" else "predict"
        overrides = ("--set", "qpp.query_retriever=dense") if path_key == "embeddings" else ()
        config = indexed_workspace["config"]
        if path_key == "config":
            source = config
        elif path_key == "fold_a":
            source = tmp_path / "fold_a.txt"
            source.write_text("dl01\ndl02\ndl03\n", encoding="utf-8")
        else:
            source = getattr(cli.load_config(config), path_key)
        lines = source.read_bytes().splitlines(True)
        lines[2] = lines[2].rstrip(b"\n") + b"\xff\n"
        bad = tmp_path / f"bad-{source.name}"
        bad.write_bytes(b"".join(lines))
        if path_key == "config":
            config = bad
        else:
            key = "evaluation.fold_a" if path_key == "fold_a" else f"paths.{path_key}"
            overrides = (*overrides, "--set", f"{key}={bad}")
        out = tmp_path / "out"
        assert run_cli(command, "--config", config, *overrides, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:3: 'utf-8' codec can't decode byte 0xff in position "), err
        assert err.endswith(": invalid start byte\n") and err.count("\n") == 1, err
        assert not out.exists()

    def test_non_finite_embedding_rejected(self, indexed_workspace, tmp_path, capsys):
        lines = (indexed_workspace["data"] / "query_embeddings.txt").read_text(encoding="utf-8").splitlines(True)
        row_id, _, values = lines[2].split(" ", 2)
        embeddings = tmp_path / "query_embeddings.txt"
        embeddings.write_text("".join(lines[:2]) + f"{row_id} -inf {values}" + "".join(lines[3:]), encoding="utf-8")
        code = run_cli(
            "qv", "--config", indexed_workspace["config"], "--set", "qpp.query_retriever=dense",
            "--set", f"paths.embeddings={embeddings}", "--out", tmp_path / "qv_report.tsv",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {embeddings}:3: non-finite value in row {row_id!r}")
        assert "Traceback" not in err


class TestQvCommand:
    def test_report_matches_library_columns(self, indexed_workspace):
        out = indexed_workspace["root"] / "work" / "out" / "qv_report.tsv"
        assert run_cli("qv", "--config", indexed_workspace["config"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "qid\tvariant_qid\thop\trbo\tvariant_text"
        assert any(line.startswith("dl01\tt01\t1\t1.000000\t") for line in lines[1:])
        # config k=2 caps the per-target rows
        for qid in ("dl01", "dl02", "dl03", "dl04", "dl05"):
            assert 1 <= sum(1 for line in lines[1:] if line.startswith(qid + "\t")) <= 2

    def test_report_golden(self, indexed_workspace, tmp_path):
        out = tmp_path / "qv.tsv"
        assert run_cli("qv", "--config", indexed_workspace["config"], "--out", out) == 0
        assert out.read_text(encoding="utf-8") == NQC_QV_GOLDEN

    def test_query_without_variants_notes_to_stderr(self, indexed_workspace, capsys, tmp_path):
        extended = tmp_path / "test_queries.tsv"
        original = (indexed_workspace["data"] / "test_queries.tsv").read_text(encoding="utf-8")
        extended.write_text(original + "dl99\txylophone zygote\n", encoding="utf-8")
        out = tmp_path / "qv.tsv"
        code = run_cli(
            "qv", "--config", indexed_workspace["config"],
            "--set", f"paths.test_queries={extended}",
            "--out", out,
        )
        assert code == 0
        assert "no query variants found for dl99" in capsys.readouterr().err
        assert not any(
            line.startswith("dl99") for line in out.read_text(encoding="utf-8").splitlines()
        )

    def test_2hop_toggle_identical_with_empty_qrels(self, indexed_workspace, tmp_path):
        empty_qrels = tmp_path / "empty_qrels.txt"
        empty_qrels.write_text("", encoding="utf-8")
        outputs = {}
        for toggle in ("true", "false"):
            out = tmp_path / f"qv_{toggle}.tsv"
            code = run_cli(
                "qv", "--config", indexed_workspace["config"],
                "--set", f"paths.train_qrels={empty_qrels}",
                "--set", f"qpp.use_2hop={toggle}",
                "--out", out,
            )
            assert code == 0
            outputs[toggle] = out.read_bytes()
        assert outputs["true"] == outputs["false"]


class TestPredictCommand:
    def test_predictions_cover_run_queries(self, indexed_workspace):
        out = indexed_workspace["root"] / "work" / "out" / "predictions.tsv"
        assert run_cli("predict", "--config", indexed_workspace["config"]) == 0
        predictions = parse_score_tsv(out)
        run_map = parse_run(indexed_workspace["data"] / "target_run.txt", depth=100)
        assert set(predictions) == set(run_map)

    def test_rerun_is_byte_identical(self, indexed_workspace, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            assert run_cli("predict", "--config", indexed_workspace["config"], "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_uef_rerun_is_byte_identical(self, indexed_workspace, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            code = run_cli(
                "predict", "--config", indexed_workspace["config"],
                "--set", "qpp.base=uef", "--out", out,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_predictions_golden(self, indexed_workspace, tmp_path):
        out = tmp_path / "nqc.tsv"
        assert run_cli("predict", "--config", indexed_workspace["config"], "--out", out) == 0
        assert out.read_text(encoding="utf-8") == NQC_PREDICTIONS_GOLDEN

    def test_uef_predictions_golden(self, indexed_workspace, tmp_path):
        out = tmp_path / "uef.tsv"
        code = run_cli(
            "predict", "--config", indexed_workspace["config"],
            "--set", "qpp.base=uef", "--out", out,
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == UEF_PREDICTIONS_GOLDEN

    def test_rebuilt_index_gives_identical_predictions(self, indexed_workspace, tmp_path):
        fresh_index = tmp_path / "fresh_index"
        code = run_cli(
            "index", "--config", indexed_workspace["config"],
            "--set", f"paths.index_dir={fresh_index}",
        )
        assert code == 0
        original = tmp_path / "orig.tsv"
        rebuilt = tmp_path / "rebuilt.tsv"
        assert run_cli("predict", "--config", indexed_workspace["config"], "--out", original) == 0
        code = run_cli(
            "predict", "--config", indexed_workspace["config"],
            "--set", f"paths.index_dir={fresh_index}", "--out", rebuilt,
        )
        assert code == 0
        assert original.read_bytes() == rebuilt.read_bytes()

    def test_dense_retriever_mode(self, indexed_workspace, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            code = run_cli(
                "predict", "--config", indexed_workspace["config"],
                "--set", "qpp.query_retriever=dense", "--out", out,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(parse_score_tsv(a)) == 5

    def test_internal_depth_beyond_the_document_count(self, indexed_workspace, corpus, tmp_path):
        # no internal run is longer than the document count, so neither is a row of the run table
        at_count, huge = tmp_path / "at_count.tsv", tmp_path / "huge.tsv"
        for out, depth in ((at_count, len(corpus.documents)), (huge, 1000000000000000000)):
            code = run_cli(
                "predict", "--config", indexed_workspace["config"],
                "--set", f"qpp.internal_depth={depth}", "--out", out,
            )
            assert code == 0
        assert huge.read_bytes() == at_count.read_bytes()

    def test_lambda_zero_ignores_variant_machinery(self, indexed_workspace, tmp_path):
        with_2hop = tmp_path / "with.tsv"
        without = tmp_path / "without.tsv"
        for out, toggle in ((with_2hop, "true"), (without, "false")):
            code = run_cli(
                "predict", "--config", indexed_workspace["config"],
                "--set", "qpp.lambda=0.0", "--set", f"qpp.use_2hop={toggle}",
                "--out", out,
            )
            assert code == 0
        assert with_2hop.read_bytes() == without.read_bytes()


class TestEvaluateCommand:
    def test_perfect_predictions_give_tau_one(self, indexed_workspace, tmp_path):
        data = indexed_workspace["data"]
        run_map = parse_run(data / "target_run.txt", depth=100)
        qrels = parse_qrels(data / "test_qrels.txt")
        actual = {qid: ap_at_k(run_map[qid], qrels, 100, 2) for qid in run_map}
        predictions = tmp_path / "perfect.tsv"
        write_score_tsv(actual, predictions)
        out = tmp_path / "report.txt"
        code = run_cli(
            "evaluate", "--config", indexed_workspace["config"],
            "--predictions", predictions, "--out", out,
        )
        assert code == 0
        assert "tau: 1.000000" in out.read_text(encoding="utf-8")

    def test_reversed_predictions_give_tau_minus_one(self, indexed_workspace, tmp_path):
        data = indexed_workspace["data"]
        run_map = parse_run(data / "target_run.txt", depth=100)
        qrels = parse_qrels(data / "test_qrels.txt")
        actual = {qid: ap_at_k(run_map[qid], qrels, 100, 2) for qid in run_map}
        predictions = tmp_path / "reversed.tsv"
        write_score_tsv({qid: -value for qid, value in actual.items()}, predictions)
        out = tmp_path / "report.txt"
        code = run_cli(
            "evaluate", "--config", indexed_workspace["config"],
            "--predictions", predictions, "--out", out,
        )
        assert code == 0
        assert "tau: -1.000000" in out.read_text(encoding="utf-8")

    def test_baseline_comparison_included(self, indexed_workspace, tmp_path):
        data = indexed_workspace["data"]
        run_map = parse_run(data / "target_run.txt", depth=100)
        qrels = parse_qrels(data / "test_qrels.txt")
        actual = {qid: ap_at_k(run_map[qid], qrels, 100, 2) for qid in run_map}
        predictions = tmp_path / "pred.tsv"
        write_score_tsv(actual, predictions)
        baseline = tmp_path / "base.tsv"
        write_score_tsv({qid: 0.1 * i for i, qid in enumerate(sorted(run_map))}, baseline)
        out = tmp_path / "report.txt"
        code = run_cli(
            "evaluate", "--config", indexed_workspace["config"],
            "--predictions", predictions, "--baseline", baseline, "--out", out,
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "baseline_tau:" in text and "fisher_z:" in text

    def test_baseline_golden(self, indexed_workspace, tmp_path):
        predictions = tmp_path / "pred.tsv"
        predictions.write_text(NQC_PREDICTIONS_GOLDEN, encoding="utf-8")
        baseline = tmp_path / "base.tsv"
        write_score_tsv(BASELINE_SCORES, baseline)
        out = tmp_path / "report.txt"
        code = run_cli(
            "evaluate", "--config", indexed_workspace["config"],
            "--predictions", predictions, "--baseline", baseline, "--out", out,
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == EVALUATE_BASELINE_GOLDEN

    def test_metrics_out_writes_ground_truth_tsv(self, indexed_workspace, tmp_path):
        data = indexed_workspace["data"]
        run_map = parse_run(data / "target_run.txt", depth=100)
        qrels = parse_qrels(data / "test_qrels.txt")
        actual = {qid: ap_at_k(run_map[qid], qrels, 100, 2) for qid in run_map}
        predictions = tmp_path / "pred.tsv"
        write_score_tsv(actual, predictions)
        metrics_out = tmp_path / "metric_values.tsv"
        code = run_cli(
            "evaluate", "--config", indexed_workspace["config"],
            "--predictions", predictions, "--out", tmp_path / "r.txt",
            "--metrics-out", metrics_out,
        )
        assert code == 0
        written = parse_score_tsv(metrics_out)
        assert written == {qid: pytest.approx(value, abs=1e-6) for qid, value in actual.items()}

    def test_mismatched_query_ids_rejected(self, indexed_workspace, tmp_path, capsys):
        predictions = tmp_path / "partial.tsv"
        write_score_tsv({"dl01": 1.0}, predictions)
        code = run_cli(
            "evaluate", "--config", indexed_workspace["config"], "--predictions", predictions,
        )
        assert code == 1
        assert "same query ids" in capsys.readouterr().err


class TestTuneAndSweep:
    def test_tune_writes_report(self, indexed_workspace):
        out = indexed_workspace["root"] / "work" / "out" / "tune_report.txt"
        assert run_cli("tune", "--config", indexed_workspace["config"]) == 0
        text = out.read_text(encoding="utf-8")
        for key in (
            "fold_1_chosen_lambda:", "fold_1_chosen_k:", "fold_1_test_tau:",
            "fold_2_chosen_lambda:", "mean_test_tau:",
        ):
            assert key in text

    def test_sweep_lambda_zero_column_constant(self, indexed_workspace):
        out = indexed_workspace["root"] / "work" / "out" / "sweep.csv"
        assert run_cli("sweep", "--config", indexed_workspace["config"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "lambda,k,tau"
        zero_rows = [line for line in lines[1:] if line.startswith("0,") or line.startswith("0.0,")]
        taus = {line.rsplit(",", 1)[1] for line in zero_rows}
        assert len(zero_rows) == 3  # one per k
        assert len(taus) == 1

    def test_sweep_rerun_byte_identical(self, indexed_workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("sweep", "--config", indexed_workspace["config"], "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_golden(self, indexed_workspace, tmp_path):
        out = tmp_path / "nqc.csv"
        assert run_cli("sweep", "--config", indexed_workspace["config"], "--out", out) == 0
        assert out.read_text(encoding="utf-8") == NQC_SWEEP_GOLDEN

    def test_uef_sweep_golden(self, indexed_workspace, tmp_path):
        out = tmp_path / "uef.csv"
        code = run_cli(
            "sweep", "--config", indexed_workspace["config"],
            "--set", "qpp.base=uef", "--out", out,
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == UEF_SWEEP_GOLDEN

    def test_tune_golden(self, indexed_workspace, tmp_path):
        out = tmp_path / "tune.txt"
        assert run_cli("tune", "--config", indexed_workspace["config"], "--out", out) == 0
        assert out.read_text(encoding="utf-8") == TUNE_GOLDEN

    def test_tune_baseline_golden(self, indexed_workspace, doubled_overrides, tmp_path):
        baseline = tmp_path / "baseline.tsv"
        write_score_tsv(
            {**BASELINE_SCORES, **{f"dl{int(q[2:]) + 5:02d}": -v for q, v in BASELINE_SCORES.items()}},
            baseline,
        )
        out = tmp_path / "tune.txt"
        code = run_cli(
            "tune", "--config", indexed_workspace["config"], *doubled_overrides,
            "--baseline", baseline, "--out", out,
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == TUNE_BASELINE_GOLDEN

    def test_tune_baseline_checks_fisher_size_before_building_variants(self, indexed_workspace, tmp_path, capsys, monkeypatch):
        # the fixture's folds test 3 and 2 queries, fewer than Fisher's 4
        calls = []
        monkeypatch.setattr(variants, "build_qv_set", lambda *args, **kwargs: calls.append(args))
        baseline = tmp_path / "baseline.tsv"
        write_score_tsv(BASELINE_SCORES, baseline)
        code = run_cli("tune", "--config", indexed_workspace["config"], "--baseline", baseline, "--out", tmp_path / "t")
        assert code == 1
        assert "fisher z needs n >= 4" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["predict", "tune", "sweep"])
    def test_predictor_error_ends_every_command(self, indexed_workspace, tmp_path, capsys, command):
        # the targets' runs hold enough documents for a UEF sample of 5, the variants' internal runs do not
        out = tmp_path / "out"
        code = run_cli(
            command, "--config", indexed_workspace["config"], "--out", out,
            "--set", "qpp.base=uef", "--set", "predictor.uef_sample_size=5",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: sample_size 5 exceeds the \d+ available documents\n", err), err
        assert not out.exists()

    def test_grid_cells_equal_predict_query(self, indexed_workspace):
        cfg = cli.load_config(indexed_workspace["config"])
        res, _ = cli._load_resources(cfg)
        targets, run_map = cli._load_target_run(cfg)
        predict_fn = cli._prediction_engine(cfg, res, targets, run_map)
        fresh = replace(res)
        ids = sorted(run_map)
        for lam in cfg.lambdas:
            for k in cfg.ks:
                qpp = replace(cfg.qpp, lam=lam, k=k)
                want = {qid: cli.predict_query(targets[qid], run_map[qid], qpp, fresh) for qid in ids}
                assert predict_fn(lam, k, ids) == want, (lam, k)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 1e-9, 0.3, 1.0]) | st.floats(0.0, 1.0), max_size=6),
        st.lists(st.floats(-10.0, 10.0), min_size=7, max_size=7),
        st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=4),
        st.lists(st.integers(1, 8), min_size=1, max_size=4),
    )
    def test_grid_cells_equal_smooth_qpp(self, rbos, phis, lambdas, ks):
        # zero and all-zero overlaps, an empty set, lambda 0 and k past the set's length all occur
        target, run = Query("T", "target"), RankedList("T", [("d1", 1.0)])
        candidates = [QVCandidate(Query(f"v{i}", f"variant {i}"), 1, 1.0, rbo) for i, rbo in enumerate(rbos)]
        values = {"T": phis[0], **{f"v{i}": phi for i, phi in enumerate(phis[1:])}}

        def evaluate(base, run, terms, query_id, rbo_params):
            return values[query_id]

        res = predicting_resources([c.query.id for c in candidates], SimpleNamespace(evaluate=evaluate))
        cfg = SimpleNamespace(qpp=QppConfig(n=100), lambdas=lambdas, ks=ks)
        widest = replace(cfg.qpp, lam=max(lambdas), k=max(ks))
        qv_set = QVSet("T", candidates[: widest.k])
        phi = base_predictions(target, run, qv_set, widest, res)
        with mock.patch.object(variants, "build_qv_set", lambda *args: qv_set):
            predict_fn = cli._prediction_engine(cfg, res, {"T": target}, {"T": run})
        for lam in lambdas:
            for k in ks:
                want = smooth_qpp(run, qv_set.top(k), QppConfig(lam=lam, k=k, n=100), phi)
                assert predict_fn(lam, k, ["T"]) == {"T": want}, (lam, k)
                assert want == smooth_reference(phi["T"], qv_set.top(k).candidates, lam, phi)

    def test_tune_grid_k_must_stay_under_n(self, indexed_workspace, capsys):
        code = run_cli(
            "tune", "--config", indexed_workspace["config"], "--set", "evaluation.ks=[150]",
        )
        assert code == 1
        assert "stay below" in capsys.readouterr().err


# predict then sweep in one process; prints whether numpy.ma was imported
NUMPY_MA_SCRIPT = """\
import sys
from qvqpp.cli import main
config, out, overrides = sys.argv[1], sys.argv[2], sys.argv[3:]
for command in ("predict", "sweep"):
    assert main([command, "--config", config, *overrides, "--out", f"{out}/{command}.out"]) == 0
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize(
    "overrides", [[], ["--set", "qpp.query_retriever=dense", "--set", "qpp.base=uef"]], ids=["2hop-nqc", "dense-uef"]
)
def test_predict_and_sweep_never_import_numpy_ma(indexed_workspace, tmp_path, overrides):
    # numpy imports numpy.ma (tens of ms) on the first np.unique call that returns no index arrays
    src = str(Path(qvqpp.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_SCRIPT, str(indexed_workspace["config"]), str(tmp_path), *overrides],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
