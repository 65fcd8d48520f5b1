from __future__ import annotations

import pytest

from fixture_corpus import build_corpus
from qvqpp import (
    PipelineResources,
    PredictorParams,
    RankedList,
    build_index,
    store_from_arrays,
    tokenize,
    write_run,
)
from qvqpp.text_index import bm25_retrieve


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def doc_index(corpus):
    return build_index((d.id, d.text) for d in corpus.documents)


@pytest.fixture(scope="session")
def query_index(corpus):
    return build_index((q.id, q.text) for q in corpus.train_queries)


@pytest.fixture(scope="session")
def embedding_store(corpus):
    ids = sorted(corpus.embeddings)
    return store_from_arrays(ids, [corpus.embeddings[i] for i in ids])


@pytest.fixture(scope="session")
def resources(corpus, doc_index, query_index, embedding_store):
    return PipelineResources(
        doc_index=doc_index,
        query_index=query_index,
        training_texts=[q.text for q in corpus.train_queries],
        training_qrels=corpus.train_qrels,
        embedding_store=embedding_store,
        params=PredictorParams(top_k=100, uef_samples=5, uef_sample_size=2),
        seed=42,
    )


@pytest.fixture(scope="session")
def target_run(corpus, doc_index):
    """Synthetic external run: BM25 rankings rescaled to a [0.1, 0.9] band."""
    run_map = {}
    for target in corpus.test_queries:
        ranked = bm25_retrieve(doc_index, tokenize(target.text), depth=100, query_id=target.id)
        scores = ranked.scores()
        low, high = min(scores), max(scores)
        span = (high - low) or 1.0
        rescaled = [
            (doc_id, round(0.1 + 0.8 * (score - low) / span, 6))
            for doc_id, score in ranked.entries
        ]
        run_map[target.id] = RankedList.from_scores(target.id, rescaled)
    return run_map


def write_fixture_files(corpus, target_run, root):
    """Materialize the fixture corpus as the on-disk formats the CLI reads."""
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "collection": root / "collection.tsv",
        "train_queries": root / "train_queries.tsv",
        "train_qrels": root / "train_qrels.txt",
        "test_queries": root / "test_queries.tsv",
        "test_qrels": root / "test_qrels.txt",
        "target_run": root / "target_run.txt",
        "embeddings": root / "query_embeddings.txt",
    }
    with open(paths["collection"], "w", encoding="utf-8") as handle:
        for doc in corpus.documents:
            handle.write(f"{doc.id}\t{doc.text}\n")
    with open(paths["train_queries"], "w", encoding="utf-8") as handle:
        for query in corpus.train_queries:
            handle.write(f"{query.id}\t{query.text}\n")
    with open(paths["test_queries"], "w", encoding="utf-8") as handle:
        for query in corpus.test_queries:
            handle.write(f"{query.id}\t{query.text}\n")
    for key, qrels in (("train_qrels", corpus.train_qrels), ("test_qrels", corpus.test_qrels)):
        with open(paths[key], "w", encoding="utf-8") as handle:
            for qid in sorted(qrels):
                for doc_id in sorted(qrels[qid]):
                    handle.write(f"{qid} 0 {doc_id} {qrels[qid][doc_id]}\n")
    write_run(target_run, "fixture", paths["target_run"])
    with open(paths["embeddings"], "w", encoding="utf-8") as handle:
        handle.write(f"{len(corpus.embeddings)} {corpus.dim}\n")
        for vec_id in sorted(corpus.embeddings):
            values = " ".join(f"{v:.6f}" for v in corpus.embeddings[vec_id])
            handle.write(f"{vec_id} {values}\n")
    return paths


CONFIG_TEMPLATE = """\
seed: 42
paths:
  collection: {data}/collection.tsv
  train_queries: {data}/train_queries.tsv
  train_qrels: {data}/train_qrels.txt
  test_queries: {data}/test_queries.tsv
  test_qrels: {data}/test_qrels.txt
  target_run: {data}/target_run.txt
  embeddings: {data}/query_embeddings.txt
  index_dir: {work}/index
  output_dir: {work}/out
qpp:
  lambda: 0.5
  k: 2
  n: 100
  query_retriever: bm25
  use_2hop: true
  pseudo_query_m: 20
  rbo_p: 0.9
  rbo_depth: 100
  base: nqc
  internal_depth: 100
  run_depth: 100
predictor:
  top_k: 100
  uef_samples: 5
  uef_sample_size: 2
  mu: 1000.0
bm25:
  k1: 0.9
  b: 0.4
evaluation:
  target_metric: ap@100
  fold_a: [dl01, dl02, dl03]
  lambdas: [0.0, 0.5, 1.0]
  ks: [1, 2, 3]
"""


@pytest.fixture(scope="session")
def workspace(tmp_path_factory, corpus, target_run):
    """A CLI workspace: data files, a config.yaml, and built indexes."""
    from qvqpp.cli import main as cli_main

    root = tmp_path_factory.mktemp("workspace")
    data_dir = root / "data"
    write_fixture_files(corpus, target_run, data_dir)
    config_path = root / "config.yaml"
    config_path.write_text(CONFIG_TEMPLATE.format(data=data_dir, work=root / "work"), encoding="utf-8")
    assert cli_main(["index", "--config", str(config_path)]) == 0
    return {"root": root, "data": data_dir, "config": config_path}
