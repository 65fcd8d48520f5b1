"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass line per criterion (run with ``-s`` or
``-v`` to see them). Everything runs on the bundled mini-corpus and
self-contained fixtures; total runtime stays well under a minute.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import oracles
from fixture_corpus import build_corpus
from qvqpp import (
    EvalPair,
    FoldSpec,
    QppConfig,
    RankedList,
    RboParams,
    ap_at_k,
    base_predictions,
    bm25_retrieve,
    build_index,
    build_qv_set,
    expand_2hop,
    kendall_tau,
    ndcg_at_k,
    nqc,
    parse_score_tsv,
    rbo_ext,
    retrieve_1hop,
    smooth_qpp,
    tokenize,
    tune_2fold,
    uef,
)
from qvqpp.cli import main as cli_main
from qvqpp.predictors import collection_score
from qvqpp.text_index import ordinal_run


def report(criterion: int, summary: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS {summary}")


def test_c01_rbo_correctness():
    ids = [f"d{i}" for i in range(9)]
    assert rbo_ext(ids, ids) == pytest.approx(1.0, abs=1e-12)
    assert rbo_ext(["a", "b"], ["c", "d"]) == 0.0
    assert rbo_ext(["x", "y"], ["y", "x"], RboParams(p=0.9)) == pytest.approx(0.9, abs=1e-9)
    rng = random.Random(101)
    universe = [f"i{i}" for i in range(50)]
    for _ in range(1000):
        a = rng.sample(universe, rng.randint(0, 30))
        b = rng.sample(universe, rng.randint(0, 30))
        p = rng.choice([0.5, 0.8, 0.9, 0.95])
        forward = rbo_ext(a, b, RboParams(p=p))
        backward = rbo_ext(b, a, RboParams(p=p))
        assert forward == backward
        assert 0.0 <= forward <= 1.0
    report(1, "rbo identity/disjoint/swap values, symmetry and bounds on 1000 random pairs")


def test_c02_kendall_tau_against_pair_counting_oracle():
    assert kendall_tau([EvalPair(f"q{i}", i, i) for i in range(6)]) == pytest.approx(1.0)
    assert kendall_tau([EvalPair(f"q{i}", i, -i) for i in range(6)]) == pytest.approx(-1.0)
    rng = random.Random(202)
    checked = 0
    for _ in range(1000):
        n = rng.randint(2, 25)
        predicted = [rng.randint(0, 8) / 4 for _ in range(n)]
        actual = [rng.randint(0, 8) / 4 for _ in range(n)]
        pairs = [EvalPair(f"q{i}", p, a) for i, (p, a) in enumerate(zip(predicted, actual))]
        try:
            want = oracles.kendall_tau_pairs(predicted, actual)
        except ValueError:
            with pytest.raises(ValueError):
                kendall_tau(pairs)
            continue
        assert kendall_tau(pairs) == pytest.approx(want, abs=1e-12)
        checked += 1
    assert checked > 800
    report(2, f"tau-b equals the O(n^2) oracle on {checked} tied random instances to 1e-12")


def test_c03_smoothing_reductions(corpus, resources, target_run):
    target = corpus.test_queries[1]
    terms = tokenize(target.text)
    run = target_run[target.id]
    qv = build_qv_set(target, QppConfig(lam=0.5, k=3, n=100), resources)

    mapped = ordinal_run(resources.doc_index, run)
    base_value = resources.predictor.evaluate("nqc", mapped, terms, target.id, RboParams())
    phi = base_predictions(target, run, qv, QppConfig(lam=1.0, k=3, n=100), resources)
    assert smooth_qpp(run, qv, QppConfig(lam=0.0, k=3, n=100), phi) == base_value

    empty = qv.top(0)
    assert smooth_qpp(run, empty, QppConfig(lam=0.8, k=3, n=100), phi) == base_value
    from dataclasses import replace

    from qvqpp import QVSet

    zero_weights = QVSet(qv.target_query_id, [replace(c, rbo=0.0) for c in qv.candidates])
    assert smooth_qpp(run, zero_weights, QppConfig(lam=1.0, k=3, n=100), phi) == base_value

    values = {
        lam: smooth_qpp(run, qv, QppConfig(lam=lam, k=3, n=100), phi)
        for lam in (0.0, 0.5, 1.0)
    }
    assert values[0.5] == pytest.approx((values[0.0] + values[1.0]) / 2, abs=1e-12)

    weight_sum = sum(c.rbo for c in qv.candidates)
    assert weight_sum > 0
    assert sum(c.rbo / weight_sum for c in qv.candidates) == pytest.approx(1.0, abs=1e-9)
    report(3, "lambda=0 reduction, degenerate fallbacks, affine lambda, unit weights")


def test_c04_neighbourhood_containment(corpus, resources, workspace, tmp_path):
    config = QppConfig(k=2, n=100)
    for target in corpus.test_queries:
        one_hop = retrieve_1hop(target, config, resources)
        merged = expand_2hop(one_hop, config, resources)
        assert set(one_hop.query_ids()) <= set(merged.query_ids())

    empty_qrels = tmp_path / "empty_qrels.txt"
    empty_qrels.write_text("", encoding="utf-8")
    reports = {}
    for toggle in ("true", "false"):
        out = tmp_path / f"qv_{toggle}.tsv"
        code = cli_main([
            "qv", "--config", str(workspace["config"]),
            "--set", f"paths.train_qrels={empty_qrels}",
            "--set", f"qpp.use_2hop={toggle}",
            "--out", str(out),
        ])
        assert code == 0
        reports[toggle] = out.read_bytes()
    assert reports["true"] == reports["false"]
    report(4, "E1 subset of E+ on every fixture query; empty qrels make 2-hop a no-op byte-for-byte")


def test_c05_bm25_matches_exhaustive_oracle(corpus):
    rng = random.Random(303)
    vocabulary = [f"v{i}" for i in range(60)]
    items = [
        (f"d{i:04d}", " ".join(rng.choices(vocabulary, k=rng.randint(1, 25))))
        for i in range(1000)
    ]
    index = build_index(items)
    for _ in range(8):
        terms = rng.choices(vocabulary, k=rng.randint(1, 4))
        got = bm25_retrieve(index, terms, depth=1000)
        want = oracles.bm25_rank_all(items, terms)
        assert got.doc_ids() == [doc_id for doc_id, _ in want]
        assert got.scores() == pytest.approx([s for _, s in want], abs=1e-12)

    query_items = [(q.id, q.text) for q in corpus.train_queries]
    query_index = build_index(query_items)
    for target in corpus.test_queries:
        terms = tokenize(target.text)
        got = bm25_retrieve(query_index, terms, depth=30)
        want = oracles.bm25_rank_all(query_items, terms)
        assert got.doc_ids() == [qid for qid, _ in want][:30]
    report(5, "bm25 document and query rankings equal the exhaustive oracle incl. tie-break")


def test_c06_nqc_values_and_invariance():
    flat = RankedList.from_scores("q", [("a", 5.0), ("b", 5.0), ("c", 5.0)])
    assert nqc(np.asarray(flat.scores()), 3.0) == 0.0
    hand = RankedList.from_scores("q", [("a", 4.0), ("b", 2.0), ("c", 0.0)])
    assert nqc(np.asarray(hand.scores()), 2.0) == pytest.approx(0.81650, abs=1e-5)
    rng = random.Random(404)
    for _ in range(100):
        entries = [(f"d{i}", rng.uniform(0, 9)) for i in range(rng.randint(2, 30))]
        cscore = rng.uniform(0.05, 4.0)
        scale = rng.uniform(1e-3, 1e3)
        base = nqc(np.asarray(RankedList.from_scores("q", entries).scores()), cscore)
        scaled_entries = [(d, s * scale) for d, s in entries]
        scaled = nqc(np.asarray(RankedList.from_scores("q", scaled_entries).scores()), cscore * scale)
        assert scaled == pytest.approx(base, rel=1e-12, abs=1e-15)
    report(6, "nqc zero-variance, hand value 0.81650, scale invariance to 1e-12")


def test_c07_uef_reproducibility(workspace, tmp_path):
    index = build_index(
        [
            ("dA", "apple apple apple cider press"),
            ("dB", "apple orchard harvest notes"),
            ("dC", "cider press maintenance"),
            ("dD", "orchard soil and drainage"),
            ("dE", "apple cider vinegar uses"),
        ]
    )
    run = bm25_retrieve(index, ["apple", "cider"], depth=10, query_id="q")
    cscore = collection_score(index, ["apple", "cider"])
    values = [
        uef(ordinal_run(index, run), cscore, index, rng_seed=42, samples=4, sample_size=2, top_k=10) for _ in range(3)
    ]
    assert values[0] == values[1] == values[2]

    flat = RankedList.from_scores("q", [(d, 1.5) for d, _ in run.entries])
    for seed in (0, 42, 12345):
        assert uef(ordinal_run(index, flat), 1.0, index, seed, 4, 2, top_k=10) == 0.0

    outputs = []
    for attempt in range(2):
        out = tmp_path / f"uef_{attempt}.tsv"
        code = cli_main([
            "predict", "--config", str(workspace["config"]),
            "--set", "qpp.base=uef", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report(7, "uef bit-identical across repeated seeded runs; zero-variance lists give 0")


def test_c08_metric_fixtures_and_sweep_column(workspace, tmp_path):
    qrels = {"q": {"d1": 3, "d3": 2, "d2": 1}}
    run = RankedList("q", [("d2", 3.0), ("d1", 2.0), ("d3", 1.0)])
    assert ap_at_k(run, qrels, 100, 2) == pytest.approx(0.58333, abs=1e-5)
    ideal = RankedList("q", [("dA", 1.0)])
    assert ndcg_at_k(ideal, {"q": {"dA": 2}}, 10) == pytest.approx(1.0)

    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(workspace["config"]), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    zero_taus = {tau for lam, _, tau in rows if float(lam) == 0.0}
    assert len(zero_taus) == 1
    report(8, "ap fixture 0.58333, ideal ndcg 1.0, sweep lambda=0 column constant over k")


def test_c09_end_to_end_pipeline(corpus, resources, workspace, tmp_path):
    config_path = str(workspace["config"])
    out_a = tmp_path / "round_a"
    out_b = tmp_path / "round_b"
    for out in (out_a, out_b):
        out.mkdir()
        assert cli_main(["qv", "--config", config_path, "--out", str(out / "qv.tsv")]) == 0
        assert cli_main(["predict", "--config", config_path, "--out", str(out / "pred.tsv")]) == 0
        assert cli_main([
            "evaluate", "--config", config_path,
            "--predictions", str(out / "pred.tsv"), "--out", str(out / "eval.txt"),
        ]) == 0
    for name in ("qv.tsv", "pred.tsv", "eval.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    predictions = parse_score_tsv(out_a / "pred.tsv")
    assert len(predictions) == 5 and all(v >= 0 for v in predictions.values())

    # qrels link the paraphrase cluster: 2-hop strictly extends 1-hop for dl01
    config = QppConfig(k=2, n=100)
    target = corpus.test_queries[0]
    one_hop = retrieve_1hop(target, config, resources)
    with_2hop = expand_2hop(one_hop, config, resources)
    assert set(one_hop.query_ids()) < set(with_2hop.query_ids())
    assert "t03" in set(with_2hop.query_ids()) - set(one_hop.query_ids())
    report(9, "index/qv/predict/evaluate deterministic end-to-end; linked cluster grows E+ strictly")


def test_c10_tuning_ignores_test_fold():
    actual = {"q1": 1, "q2": 2, "q3": 3, "q4": 4, "p": 0, "q5": 1, "q6": 2}
    lam0 = {"q1": 1, "q2": 2, "q3": 3, "q4": 4, "p": 100, "q5": 5, "q6": 6}
    lam1 = {"q1": 1, "q2": 3, "q3": 2, "q4": 4, "p": -5, "q5": 5, "q6": 6}
    ids = sorted(actual)
    grid = np.array([[[lam0[q] for q in ids]], [[lam1[q] for q in ids]]], dtype=np.float64)  # lambda x k x query

    poisoned_test = FoldSpec(frozenset({"q1", "q2", "q3", "q4"}), frozenset({"p", "q5", "q6"}))
    poisoned_train = FoldSpec(frozenset({"q1", "q2", "q3", "q4", "p"}), frozenset({"q5", "q6"}))
    result = tune_2fold((poisoned_test, poisoned_train), [0.0, 1.0], [1], grid, actual)
    assert result.folds[0].chosen_lambda == 0.0
    assert result.folds[1].chosen_lambda == 1.0

    # the same poisoned query placed in the train fold flips the choice,
    # so its placement in the test fold demonstrably cannot leak
    report(10, "poisoned probe flips the choice only when moved into the train fold")
