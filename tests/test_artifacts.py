"""The artifact layer end to end: the bytes of every artifact, and the work the run stores save.

After ``index`` and a cold ``predict`` the fixture workspace's index
directory holds exactly the files of :data:`ARTIFACT_GOLDENS`, byte for
byte. A cold ``predict`` fills each store with rows counted from the
variant pools, and a warm one adopts those rows and computes only each
target's own retrievals and base prediction; ``sweep`` and ``tune`` do
the same work for the pools of their widest (lambda, k) cell.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import replace
from pathlib import Path

import pytest

import qvqpp.variants
from qvqpp import cli, text_index
from qvqpp.cli import main
from qvqpp.text_index import tokenize
from qvqpp.variants import expand_2hop, rerank_by_rbo, retrieve_1hop

DENSE_UEF = ("qpp.query_retriever=dense", "qpp.base=uef")

# The SHA-256 of each file in the index directory after index and a cold predict, by setting.
ARTIFACT_GOLDENS = {
    "nqc-2hop": {
        "documents.idx": "21eb25924585e222ecf03a14221186899409bcea6583fa0c401e8ad48009db47",
        "internal_runs-bm25.k1=0.9-bm25.b=0.4-qpp.internal_depth=100.runs":
            "b082465bbf81f8653fdeb1b3327539e5c4be588af421a3c7d0aacbc7c98db22e",
        "pseudo_query_hits-bm25.k1=0.9-bm25.b=0.4-qpp.pseudo_query_m=20-qpp.n=100.runs":
            "36c191212402231780cac69191d93056da31585f7fc2f725182a2304888298dc",
        "queries.idx": "3748bd9bc04828bfb8cb44e5999280fe574fca8821542a707a00066cd29a4822",
        "variant_phi-qpp.base='nqc'-qpp.internal_depth=100-predictor.top_k=100-bm25.k1=0.9-bm25.b=0.4.runs":
            "c3be667a93e3fbf5335bc03e27599e09b0e17de70e0cf0c0324815306408d878",
    },
    "dense-uef": {
        "documents.idx": "21eb25924585e222ecf03a14221186899409bcea6583fa0c401e8ad48009db47",
        "internal_runs-bm25.k1=0.9-bm25.b=0.4-qpp.internal_depth=100.runs":
            "8d14462965b27e96d3996f2971b03edbc3474b5cdd8e7685b9cddb5807427eec",
        "pseudo_query_hits-bm25.k1=0.9-bm25.b=0.4-qpp.pseudo_query_m=20-qpp.n=100.runs":
            "5cc1dcacf6e7f47eef5cd1535bd0f4f9415d44c48e4fec2214d05cd9a7f85116",
        "queries.idx": "3748bd9bc04828bfb8cb44e5999280fe574fca8821542a707a00066cd29a4822",
        "variant_phi-qpp.base='uef'-qpp.internal_depth=100-predictor.top_k=100-predictor.uef_samples=5-"
        "predictor.uef_sample_size=2-predictor.mu=1000.0-bm25.k1=0.9-bm25.b=0.4-seed=42-qpp.rbo_p=0.9-"
        "qpp.rbo_depth=100.runs": "0aad50e285b3f5d38a82dd883cc2c8cf1353d82099456a2baad04a78471d5a70",
    },
}


def _overrides(work: Path, overrides) -> list[str]:
    """``overrides``, after those that put the index and output directories under ``work``."""
    return [f"paths.index_dir={work}/index", f"paths.output_dir={work}/out", *overrides]


def _argv(workspace, work: Path, command: str, overrides) -> list[str]:
    """``command`` over the workspace's config with :func:`_overrides`."""
    argv = [command, "--config", str(workspace["config"])]
    for override in _overrides(work, overrides):
        argv += ["--set", override]
    return argv


@pytest.mark.parametrize("setting, overrides", [("nqc-2hop", ()), ("dense-uef", DENSE_UEF)])
def test_index_and_cold_predict_write_the_golden_artifacts(workspace, tmp_path, setting, overrides):
    for command in ("index", "predict"):
        assert main(_argv(workspace, tmp_path, command, overrides)) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "index").iterdir()}
    assert digests == ARTIFACT_GOLDENS[setting]


def test_warm_one_hop_nqc_predict_derives_no_row_view_and_only_the_gains_it_scores(workspace, tmp_path, monkeypatch):
    """A warm 1-hop NQC predict reads both indexes as stored and derives nothing from the whole collection.

    Its BM25 runs are each target's 1-hop retrieval and its own internal
    run, and its collection scores are the targets', so each index reads the
    idf of exactly the terms of the target queries that it holds, for the
    gains of their postings only; no relevance model or pseudo-query reads a
    row.
    """
    overrides = ("qpp.use_2hop=false",)
    for command in ("index", "predict"):
        assert main(_argv(workspace, tmp_path, command, overrides)) == 0
    loaded = []
    load_index = cli.load_index
    monkeypatch.setattr(cli, "load_index", lambda path: loaded.append(load_index(path)) or loaded[-1])
    idf_read = []
    idf = text_index.InvertedIndex.idf
    monkeypatch.setattr(text_index.InvertedIndex, "idf", lambda index, tid: idf_read.append((index, tid)) or idf(index, tid))
    assert main(_argv(workspace, tmp_path, "predict", overrides)) == 0
    targets, run_map = cli._load_target_run(cli.load_config(workspace["config"], _overrides(tmp_path, overrides)))
    assert len(loaded) == 2
    for index in loaded:
        assert "_rows" not in vars(index)
        scored = {index.term_id(term) for qid in run_map for term in tokenize(targets[qid].text)} - {-1}
        assert scored and {tid for each, tid in idf_read if each is index} == scored


def _expected_work(cfg, qpp) -> dict:
    """The distinct rows each store fills, and the work of each target, counted over the variant pools of ``qpp``.

    ``rows``: the pool rows of every target; ``documents``: the judged
    (grade >= 1) documents of the 1-hop candidates that the collection
    holds; ``phi``: the kept variants of positive overlap, none at lambda
    0; ``kept``: the number of those per target, summed.
    """
    res, _ = cli._load_resources(cfg)
    targets, run_map = cli._load_target_run(cfg, min_queries=1)
    rows, documents, phi, kept = set(), set(), set(), 0
    for qid in sorted(run_map):
        one_hop = retrieve_1hop(targets[qid], qpp, res)
        pool = expand_2hop(one_hop, qpp, res)
        rows |= set(pool.ordinals.tolist())
        for candidate in one_hop.candidates:
            judged = res.training_qrels.get(candidate.query.id, {})
            documents |= {doc for doc, grade in judged.items() if grade >= 1 and doc in res.doc_index.ordinal_of}
        survivors = rerank_by_rbo(pool, targets[qid], qpp, res).candidates if qpp.lam > 0.0 else []
        positive = [c.query.id for c in survivors if c.rbo > 0.0]
        phi |= set(positive)
        kept += len(positive)
    return {"targets": len(run_map), "rows": len(rows), "documents": len(documents), "phi": len(phi), "kept": kept}


def _store_work(caplog) -> tuple[dict, tuple[int, int]]:
    """The (adopted, filled) rows of each store's -v line, by kind, and the base-predictor counts; then clears."""
    stores, predictor = {}, None
    for record in caplog.records:
        message = record.getMessage()
        if message.startswith("run store "):
            adopted = int(message.split("adopted ")[1].split()[0]) if ": adopted " in message else 0
            stores[message.split()[2].split("-")[0]] = (adopted, int(message.split("filled ")[1].split()[0]))
        elif message.startswith("base predictor: "):
            words = message.split()
            predictor = (int(words[2]), int(words[4]))
    caplog.clear()
    return stores, predictor


SETTINGS = pytest.mark.parametrize("overrides", [(), ("qpp.k=5", "qpp.internal_depth=2"), DENSE_UEF],
                                   ids=["nqc-2hop", "zero-overlap-kept", "dense-uef"])


def _check_cold_and_warm(workspace, tmp_path, monkeypatch, caplog, command, overrides, widest) -> None:
    """``command`` run cold then warm does exactly the store and predictor work of the pools of its widest cell.

    ``widest(cfg)`` is the QppConfig whose pools the command builds. Each
    count is a formula of those pools: rows filled, then adopted, per
    store; ``bm25_ordinals`` calls per index; base-predictor evaluations
    and phi-table reads.
    """
    caplog.set_level(logging.INFO, logger="qvqpp.artifacts")
    caplog.set_level(logging.INFO, logger="qvqpp.cli")
    assert main(_argv(workspace, tmp_path, "index", overrides)) == 0
    cfg = cli.load_config(workspace["config"], _overrides(tmp_path, overrides))
    want = _expected_work(cfg, widest(cfg))
    doc_ids = {line.split("\t")[0] for line in (workspace["data"] / "collection.tsv").read_text().splitlines()}
    calls = {"documents": 0, "queries": 0}
    original = qvqpp.variants.bm25_ordinals

    def counted(index, *args, **kwargs):
        calls["documents" if index.item_ids[0] in doc_ids else "queries"] += 1
        return original(index, *args, **kwargs)

    monkeypatch.setattr(qvqpp.variants, "bm25_ordinals", counted)
    one_hop_bm25 = 0 if overrides == DENSE_UEF else want["targets"]
    filled = {"internal_runs": want["rows"], "pseudo_query_hits": want["documents"], "variant_phi": want["phi"]}
    caplog.clear()

    assert main(["-v", *_argv(workspace, tmp_path, command, overrides)]) == 0
    stores, predictor = _store_work(caplog)
    assert stores == {kind: (0, rows) for kind, rows in filled.items()}
    assert calls == {"documents": want["targets"] + want["rows"], "queries": one_hop_bm25 + want["documents"]}
    assert predictor == (want["targets"] + want["phi"], want["kept"] - want["phi"])

    calls.update(documents=0, queries=0)
    assert main(["-v", *_argv(workspace, tmp_path, command, overrides)]) == 0
    stores, predictor = _store_work(caplog)
    assert stores == {kind: (rows, 0) for kind, rows in filled.items()}
    assert calls == {"documents": want["targets"], "queries": one_hop_bm25}
    assert predictor == (want["targets"], want["kept"])


@SETTINGS
def test_cold_and_warm_predict_do_exactly_the_store_work_of_their_pools(workspace, tmp_path, monkeypatch, caplog,
                                                                         overrides):
    """A cold predict fills each store's distinct rows once; a warm one adopts them all and fills none.

    The second setting keeps variants of zero overlap, whose phi is never
    evaluated; the dense one retrieves 1-hop candidates without BM25.
    """
    _check_cold_and_warm(workspace, tmp_path, monkeypatch, caplog, "predict", overrides, lambda cfg: cfg.qpp)


@SETTINGS
@pytest.mark.parametrize("command", ["sweep", "tune"])
def test_cold_and_warm_grid_commands_do_exactly_the_store_work_of_the_widest_cell(workspace, tmp_path, monkeypatch,
                                                                                  caplog, command, overrides):
    """``sweep`` and ``tune`` build each target's pools once, at the largest grid lambda and k, for every cell.

    So their counts are those of a predict at that cell: a grid that built
    a variant set or evaluated a predictor per cell would read more phi
    values, or evaluate more, than the pools of that one cell hold.
    """
    _check_cold_and_warm(
        workspace, tmp_path, monkeypatch, caplog, command, overrides,
        lambda cfg: replace(cfg.qpp, lam=max(cfg.lambdas), k=max(cfg.ks)),
    )
