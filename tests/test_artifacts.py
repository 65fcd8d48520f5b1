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
from qvqpp import cli
from qvqpp.cli import main
from qvqpp.variants import expand_2hop, rerank_by_rbo, retrieve_1hop

DENSE_UEF = ("qpp.query_retriever=dense", "qpp.base=uef")

# The SHA-256 of each file in the index directory after index and a cold predict, by setting.
ARTIFACT_GOLDENS = {
    "nqc-2hop": {
        "documents.idx": "0bc8b965dfe0bd91bb1fe99c3c03759fcc63d2633a501f7f6249f7bdcec80e11",
        "internal_runs-bm25.k1=0.9-bm25.b=0.4-qpp.internal_depth=100.runs":
            "0022bf75ecf6c88f7ab260db49703f37985d6d6e0cf351da626bbd64bbdafd01",
        "pseudo_query_hits-bm25.k1=0.9-bm25.b=0.4-qpp.pseudo_query_m=20-qpp.n=100.runs":
            "80c60e26806e0e1936f8952b963da7283a0831c7018fbb5676d0f8fcb744c0ab",
        "queries.idx": "930f3163277df5867b7a00d858d6a50249d487ccf999124f55f90918828e03f9",
        "variant_phi-qpp.base='nqc'-qpp.internal_depth=100-predictor.top_k=100-bm25.k1=0.9-bm25.b=0.4.runs":
            "b4336cf1b07f1616a5cca471b9b9910834102a53ef3d22f56156c1301ed94042",
    },
    "dense-uef": {
        "documents.idx": "0bc8b965dfe0bd91bb1fe99c3c03759fcc63d2633a501f7f6249f7bdcec80e11",
        "internal_runs-bm25.k1=0.9-bm25.b=0.4-qpp.internal_depth=100.runs":
            "ca2b2fd1f2a93ea1d18db7c68c0e157a81015c8dda706aee3181c640372aee76",
        "pseudo_query_hits-bm25.k1=0.9-bm25.b=0.4-qpp.pseudo_query_m=20-qpp.n=100.runs":
            "5a6eda6a9110d88ae5dceab0cb1665129b9e7e4e7f16c1dfee512322ffabc2ac",
        "queries.idx": "930f3163277df5867b7a00d858d6a50249d487ccf999124f55f90918828e03f9",
        "variant_phi-qpp.base='uef'-qpp.internal_depth=100-predictor.top_k=100-predictor.uef_samples=5-"
        "predictor.uef_sample_size=2-predictor.mu=1000.0-bm25.k1=0.9-bm25.b=0.4-seed=42-qpp.rbo_p=0.9-"
        "qpp.rbo_depth=100.runs": "faeca20563526cd4e018f146f713ed88edf44dc5e22ab50ffaae1cd3a18a495e",
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
