"""Goldens of the CLI on the benchmark's seeded scale-T corpus.

The corpus comes from ``benchmarks/gen_corpus.py``, loaded by path and
only read. It is larger and less regular than the fixture workspace:
2-hop pools of about 160 candidates per target, and internal runs of
uneven lengths, most target runs shorter than the RBO depth. Any change
to a variant pool, an RBO value (to 6 decimals), the survivors' order or
a prediction changes these digests.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from qvqpp.cli import main

GEN_CORPUS = Path(__file__).resolve().parents[1] / "benchmarks" / "gen_corpus.py"

# SHA-256 of each output, recorded from the implementation that scored
# every candidate with one scalar rbo_ext call over id-string lists.
GOLDENS = {
    "qv_2hop": "c4623bc0d7149869d8f5f7d1f7f72393a9ddb33feb53a5dfba10b67145ba5576",
    "qv_1hop": "3144505906e94a0d3f4f68c7c672857ece7c47d5dfdeac22e9c011399f005544",
    "predictions": "a5e40b72c6f15dd86f114ca4bcbb9986ad25d7b06ad61bd445291ed6d6132bdb",
}

# SHA-256 of the dense 1-hop UEF outputs (default 20 samples of 25 documents),
# recorded from the implementation that re-ranked every sample through
# build_relevance_model, rm_rerank and a scalar rbo_ext call.
UEF_GOLDENS = {
    "uef_predictions": "9a9e826a3961ba65e03c466d3625ee1accb7ad229c75bb73a3852d1e348944c8",
    "uef_sweep": "37a1fa771a4572d30cff6a4803fc6e2d5512adcaa526aa58f518a9fda336049a",
}
UEF = ["--set", "qpp.query_retriever=dense", "--set", "qpp.base=uef", "--set", "qpp.use_2hop=false"]

# SHA-256 of the 2-hop BM25 outputs under non-default BM25 parameters, recorded from the
# implementation that weighed each posting per call and built pseudo-queries from document texts.
BM25_GOLDENS = {
    "qv_2hop": "7949cf4c0546c724fbb1bdf54ff1cb0ff7bb3496ccdf20c7c2786406315d5a66",
    "predictions": "ea68fb27e92e5ede477bf82691f5d793444f42db467dd903443f9f5cc93e19c6",
}
BM25 = ["--set", "bm25.k1=1.2", "--set", "bm25.b=0.75"]

CONFIG = """\
seed: 1
paths:
  collection: {data}/collection.tsv
  train_queries: {data}/train_queries.tsv
  train_qrels: {data}/train_qrels.txt
  test_queries: {data}/test_queries.tsv
  test_qrels: {data}/test_qrels.txt
  target_run: {data}/target_run.txt
  embeddings: {data}/embeddings.txt
  index_dir: {work}/index
  output_dir: {work}/out
qpp:
  query_retriever: bm25
  use_2hop: true
  base: nqc
  k: 5
  n: 100
"""


def load_generator():
    spec = importlib.util.spec_from_file_location("gen_corpus_under_test", GEN_CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate


@pytest.fixture(scope="module")
def bench_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_corpus")
    data, work = root / "data", root / "work"
    load_generator()(data, "T", 1, 10)
    config = root / "config.yaml"
    config.write_text(CONFIG.format(data=data, work=work), encoding="utf-8")
    assert main(["index", "--config", str(config)]) == 0
    return config, work / "out"


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, use_2hop", [("qv_2hop", "true"), ("qv_1hop", "false")])
def test_qv_report_golden(bench_workspace, name, use_2hop):
    config, out = bench_workspace
    report = out / f"{name}.tsv"
    assert main(["qv", "--config", str(config), "--set", f"qpp.use_2hop={use_2hop}", "--out", str(report)]) == 0
    assert digest(report) == GOLDENS[name]


def test_predictions_golden(bench_workspace):
    config, out = bench_workspace
    predictions = out / "predictions.tsv"
    assert main(["predict", "--config", str(config), "--out", str(predictions)]) == 0
    assert digest(predictions) == GOLDENS["predictions"]


def test_uef_predictions_golden(bench_workspace):
    # top_k 30 under the 50-document sample pool: samples draw documents beyond the re-ranked head
    config, out = bench_workspace
    predictions = out / "uef_predictions.tsv"
    argv = ["predict", "--config", str(config), *UEF, "--set", "predictor.top_k=30", "--out", str(predictions)]
    assert main(argv) == 0
    assert digest(predictions) == UEF_GOLDENS["uef_predictions"]


def test_uef_sweep_golden(bench_workspace):
    config, out = bench_workspace
    sweep = out / "uef_sweep.csv"
    assert main(["sweep", "--config", str(config), *UEF, "--set", "evaluation.ks=[1,2,3]", "--out", str(sweep)]) == 0
    assert digest(sweep) == UEF_GOLDENS["uef_sweep"]


@pytest.mark.parametrize("name, command", [("qv_2hop", "qv"), ("predictions", "predict")])
def test_non_default_bm25_golden(bench_workspace, name, command):
    config, out = bench_workspace
    path = out / f"bm25_{name}.tsv"
    assert main([command, "--config", str(config), *BM25, "--out", str(path)]) == 0
    assert digest(path) == BM25_GOLDENS[name]
