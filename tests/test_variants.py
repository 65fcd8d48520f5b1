from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qvqpp import variants
from qvqpp import (
    Document,
    PipelineResources,
    PredictorInput,
    PredictorParams,
    Query,
    QppConfig,
    QVCandidate,
    QVSet,
    RankedList,
    RboParams,
    base_predictions,
    build_index,
    build_qv_set,
    collection_score,
    expand_2hop,
    make_pseudo_query,
    nqc,
    rbo_ext,
    rerank_by_rbo,
    retrieve_1hop,
    smooth_qpp,
    store_from_arrays,
    tokenize,
)
from qvqpp.text_index import bm25_ordinals, bm25_retrieve, ranked_list
from qvqpp.variants import VariantPool


class TestQppConfig:
    def test_lambda_bounds(self):
        with pytest.raises(ValueError, match="lambda"):
            QppConfig(lam=1.5)

    def test_pool_must_exceed_k(self):
        with pytest.raises(ValueError, match="exceed"):
            QppConfig(k=10, n=10)

    def test_unknown_retriever(self):
        with pytest.raises(ValueError, match="query retriever"):
            QppConfig(query_retriever="neural")

    def test_unknown_base(self):
        with pytest.raises(ValueError, match="base predictor"):
            QppConfig(base="wig")


class TestRetrieve1Hop:
    def test_matches_bm25_oracle(self, corpus, resources):
        config = QppConfig(k=2, n=5)
        training = corpus.training_query_map()
        for target in corpus.test_queries:
            got = retrieve_1hop(target, config, resources)
            items = [(q.id, q.text) for q in corpus.train_queries]
            expected = oracles.bm25_rank_all(items, tokenize(target.text))
            expected = [
                (qid, score)
                for qid, score in expected
                if tokenize(training[qid].text) != tokenize(target.text)
            ][:5]
            assert [(c.query.id, c.retrieval_score) for c in got.candidates] == pytest.approx(expected)
            assert all(c.hop == 1 for c in got.candidates)

    def test_verbatim_copy_excluded(self, corpus, resources):
        target = corpus.test_queries[0]
        training = dict(corpus.training_query_map())
        copy = Query("copycat", target.text.upper())  # same tokenization
        training[copy.id] = copy
        index = build_index((q.id, q.text) for q in training.values())
        res = replace(resources, query_index=index, training_queries=training)
        got = retrieve_1hop(target, QppConfig(k=1, n=3), res)
        assert "copycat" not in got.query_ids()
        assert "t01" in got.query_ids()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_length_prefilter_keeps_the_unfiltered_pool(self, data):
        words = ["alpha", "beta", "gamma", "delta"]
        target_words = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=4))
        copies = [
            " ".join(target_words),  # verbatim
            " ".join(target_words).upper(),  # case only
            ", ".join(target_words) + "!",  # punctuation only
            "the " + " and ".join(target_words),  # stopwords only
            " ".join(reversed(target_words)),  # equal length, a copy only when a palindrome
            " ".join(words[(words.index(w) + 1) % 4] for w in target_words),  # equal length, never a copy
        ]
        others = data.draw(st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=5), max_size=6))
        texts = data.draw(st.permutations(copies + [" ".join(o) for o in others]))
        training = {f"tq{i:02d}": Query(f"tq{i:02d}", text) for i, text in enumerate(texts)}
        res = resources_over(training, {}, {"d1": Document("d1", "alpha beta")})
        target = Query("T", " ".join(target_words))
        config = QppConfig(k=1, n=data.draw(st.integers(2, len(texts) + 1)))
        hits = bm25_retrieve(res.query_index, tokenize(target.text), depth=len(training), query_id=target.id)
        want = [
            (qid, score) for qid, score in hits.entries if tokenize(training[qid].text) != tokenize(target.text)
        ][: config.n]
        got = retrieve_1hop(target, config, res)
        assert [(c.query.id, c.retrieval_score, c.hop) for c in got.candidates] == [(i, s, 1) for i, s in want]

    def test_no_vocabulary_overlap_gives_empty_set(self, resources):
        target = Query("weird", "xylophone zygote")
        got = retrieve_1hop(target, QppConfig(), resources)
        assert got.candidates == []

    def test_dense_matches_cosine_oracle(self, corpus, resources):
        config = QppConfig(k=2, n=4, query_retriever="dense")
        training = corpus.training_query_map()
        target = corpus.test_queries[1]
        got = retrieve_1hop(target, config, resources)
        vectors = {qid: corpus.embeddings[qid] for qid in training}
        expected = oracles.cosine_rank_all(vectors, corpus.embeddings[target.id])[:4]
        assert [c.query.id for c in got.candidates] == [qid for qid, _ in expected]
        assert [c.retrieval_score for c in got.candidates] == pytest.approx(
            [score for _, score in expected], abs=1e-12
        )

    def test_dense_excludes_non_training_ids(self, corpus, resources):
        config = QppConfig(k=2, n=100, query_retriever="dense")
        got = retrieve_1hop(corpus.test_queries[0], config, resources)
        assert not set(got.query_ids()) & {q.id for q in corpus.test_queries}

    def test_dense_missing_target_embedding(self, resources):
        config = QppConfig(query_retriever="dense")
        with pytest.raises(ValueError, match="no embedding for target query 'ghost'"):
            retrieve_1hop(Query("ghost", "some text"), config, resources)
        with pytest.raises(ValueError, match="no embedding store loaded"):
            retrieve_1hop(Query("ghost", "some text"), config, replace(resources, embedding_store=None))


class Test2Hop:
    def test_empty_qrels_keeps_one_hop_exactly(self, corpus, resources):
        config = QppConfig(k=2, n=10)
        target = corpus.test_queries[1]
        one_hop = retrieve_1hop(target, config, resources)
        merged = expand_2hop(one_hop, config, replace(resources, training_qrels={}))
        assert [(c.query.id, c.hop) for c in merged.candidates] == [
            (c.query.id, c.hop) for c in one_hop.candidates
        ]

    def test_paraphrase_reached_through_relevant_doc(self, corpus, resources):
        # t03 shares no tokens with dl01 but is linked through document d003
        config = QppConfig(k=2, n=100)
        target = corpus.test_queries[0]
        one_hop = retrieve_1hop(target, config, resources)
        assert "t03" not in one_hop.query_ids()
        merged = expand_2hop(one_hop, config, resources)
        hops = {c.query.id: c.hop for c in merged.candidates}
        assert hops["t03"] == 2
        assert set(one_hop.query_ids()) < set(merged.query_ids())

    def test_dedupe_keeps_hop_one(self, corpus, resources):
        # pseudo-queries from coffee documents retrieve t01 again; it stays hop 1
        config = QppConfig(k=2, n=100)
        target = corpus.test_queries[0]
        one_hop = retrieve_1hop(target, config, resources)
        merged = expand_2hop(one_hop, config, resources)
        t01 = [c for c in merged.candidates if c.query.id == "t01"]
        assert len(t01) == 1 and t01[0].hop == 1

    def test_missing_relevant_doc_warns_and_continues(self, corpus, resources, caplog):
        config = QppConfig(k=2, n=10)
        target = corpus.test_queries[0]
        one_hop = retrieve_1hop(target, config, resources)
        res = replace(resources, training_qrels={"t01": {"not-a-doc": 1}})
        with caplog.at_level(logging.WARNING):
            merged = expand_2hop(one_hop, config, res)
        # a judged id the document index lacks keeps the collection-era warning
        assert "relevant document 'not-a-doc' of training query 't01' missing from collection; skipped" in caplog.text
        assert merged.query_ids() == one_hop.query_ids()

    def test_matches_scripted_oracle(self):
        training = {
            "tq1": Query("tq1", "alpha beta"),
            "tq2": Query("tq2", "alpha gamma"),
            "tq3": Query("tq3", "delta epsilon"),
            "tq4": Query("tq4", "epsilon zeta"),
            "tq5": Query("tq5", "rho sigma"),
        }
        collection = {
            "docX": Document("docX", "delta epsilon delta"),
            "docY": Document("docY", "rho sigma rho sigma"),
        }
        qrels = {"tq1": {"docX": 1}, "tq2": {"docY": 1}}
        res = resources_over(training, qrels, collection)
        config = QppConfig(k=1, n=5, pseudo_query_m=20)
        target = Query("T", "alpha")
        one_hop = retrieve_1hop(target, config, res)
        merged = expand_2hop(one_hop, config, res)

        # script the same protocol with the brute-force retriever
        query_items = [(q.id, q.text) for q in training.values()]
        expected = [(qid, 1) for qid, _ in oracles.bm25_rank_all(query_items, ["alpha"])][:5]
        seen = {qid for qid, _ in expected}
        for one_hop_qid, _ in list(expected):
            for doc_id in sorted(d for d, g in qrels.get(one_hop_qid, {}).items() if g >= 1):
                terms = oracles.top_frequency_terms(collection[doc_id].text, 20)
                for qid, _ in oracles.bm25_rank_all(query_items, terms)[:5]:
                    if qid != "T" and qid not in seen:
                        seen.add(qid)
                        expected.append((qid, 2))
        assert [(c.query.id, c.hop) for c in merged.candidates] == expected


MERGE_QUERIES = [f"q{i}" for i in range(10)]
MERGE_DOCS = [f"d{i}" for i in range(6)]


def first(pair):
    return pair[0]


def seeded_merge(target_id, one_hop_ids, judged, hit_lists):
    """expand_2hop over a pseudo-query memo seeded with ``hit_lists`` per document, and the oracle's merge.

    ``judged`` maps a 1-hop id to its (doc id, grade) pairs; ``hit_lists``
    maps a doc id to its (query index, score) hits.
    """
    training = {qid: Query(qid, f"text of {qid}") for qid in MERGE_QUERIES}
    res = resources_over(training, {qid: dict(pairs) for qid, pairs in judged.items()},
                         {d: Document(d, f"body {d}") for d in MERGE_DOCS})
    config = QppConfig(k=1, n=5)
    for doc_id, hits in hit_lists.items():
        res.pseudo_query_hits[(doc_id, config.pseudo_query_m, config.n)] = (
            np.array([i for i, _ in hits], dtype=np.int32), np.array([score for _, score in hits], dtype=np.float64)
        )
    one_hop = pool_of(target_id, [(qid, 1, 10.0 - i) for i, qid in enumerate(one_hop_ids)], res)
    got = expand_2hop(one_hop, config, res)
    relevant = [sorted(d for d, grade in judged.get(qid, []) if grade >= 1) for qid in one_hop_ids]
    want = oracles.merge_2hop(
        target_id,
        [(qid, 1, 10.0 - i) for i, qid in enumerate(one_hop_ids)],
        [[(MERGE_QUERIES[i], score) for i, score in hit_lists[d]] for docs in relevant for d in docs],
    )
    return [(c.query.id, c.hop, c.retrieval_score) for c in got.candidates], want


class Test2HopMergeOracle:
    def test_overlapping_hits_with_target_and_one_hop_ids(self):
        # q0 is the target, q1 and q2 the 1-hop pool; d1 and d3 both reach q4, and d0 is judged non-relevant
        got, want = seeded_merge(
            "q0", ["q1", "q2"],
            {"q1": [("d3", 1), ("d1", 2), ("d0", 0)], "q2": [("d1", 1), ("d2", 1)]},
            {
                "d0": [(9, 1.0)],
                "d1": [(4, 3.0), (0, 2.5), (1, 2.0), (5, 1.5)],
                "d2": [(5, 4.0), (6, 0.5), (2, 0.25)],
                "d3": [(7, 2.0), (4, 1.0), (0, 0.5)],
            },
        )
        assert got == want
        assert want == [
            ("q1", 1, 10.0), ("q2", 1, 9.0), ("q4", 2, 3.0), ("q5", 2, 1.5), ("q7", 2, 2.0), ("q6", 2, 0.5),
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_plain_loop_merge(self, data):
        target_id = data.draw(st.sampled_from(MERGE_QUERIES + ["T"]))  # a training id or none
        one_hop_ids = data.draw(st.lists(st.sampled_from([q for q in MERGE_QUERIES if q != target_id]), unique=True))
        judged = {
            qid: data.draw(st.lists(st.tuples(st.sampled_from(MERGE_DOCS), st.integers(0, 2)), unique_by=first))
            for qid in one_hop_ids
        }
        hits = st.lists(st.tuples(st.integers(0, len(MERGE_QUERIES) - 1), st.floats(0.1, 9.0)), unique_by=first)
        hit_lists = {d: data.draw(hits) for d in MERGE_DOCS}
        got, want = seeded_merge(target_id, one_hop_ids, judged, hit_lists)
        assert got == want


class TestRerankByRbo:
    def test_identical_retrieval_gets_rbo_one(self, corpus, resources):
        # t01 retrieves exactly the same documents as dl01 under the
        # internal retriever, so its overlap is 1.0 and it ranks first
        config = QppConfig(k=2, n=100)
        qv_set = build_qv_set(corpus.test_queries[0], config, resources)
        assert qv_set.candidates[0].query.id == "t01"
        assert qv_set.candidates[0].rbo == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rbo_falls_back_to_hop_then_id(self, resources, corpus):
        candidates = [
            QVCandidate(query=corpus.train_queries[4], hop=2, retrieval_score=1.0),
            QVCandidate(query=corpus.train_queries[3], hop=1, retrieval_score=1.0),
            QVCandidate(query=corpus.train_queries[5], hop=1, retrieval_score=1.0),
        ]
        res = replace(resources, doc_index=build_index([("lone", "completely unrelated contents")]))
        merged = pool_of("zz", [(c.query.id, c.hop, c.retrieval_score) for c in candidates], res)
        target = Query("zz", "xylophone zygote")  # no indexed term: an empty target run
        config = QppConfig(k=2, n=100)
        assert bm25_ordinals(res.doc_index, tokenize(target.text), config.internal_depth)[0].size == 0
        got = rerank_by_rbo(merged, target, config, res)
        ids_sorted = sorted([candidates[1], candidates[2]], key=lambda c: c.query.id)
        assert got.query_ids() == [c.query.id for c in ids_sorted]
        assert all(c.rbo == 0.0 for c in got.candidates)

    def test_matches_brute_force_selection(self, corpus, resources, doc_index):
        config = QppConfig(k=2, n=100)
        target = corpus.test_queries[1]
        merged = expand_2hop(retrieve_1hop(target, config, resources), config, resources)
        target_run = bm25_retrieve(doc_index, tokenize(target.text), 100, query_id=target.id)
        got = rerank_by_rbo(merged, target, config, resources)

        scored = []
        for cand in merged.candidates:
            run = bm25_retrieve(doc_index, tokenize(cand.query.text), 100, query_id=cand.query.id)
            scored.append((cand.query.id, cand.hop, rbo_ext(target_run, run, config.rbo_params)))
        scored.sort(key=lambda row: (-row[2], row[1], row[0]))
        assert [(c.query.id, c.hop) for c in got.candidates] == [(i, h) for i, h, _ in scored[:2]]
        assert [c.rbo for c in got.candidates] == pytest.approx([s for _, _, s in scored[:2]])


def predicting_resources(query_ids, predictor) -> PipelineResources:
    """PipelineResources over the training queries ``query_ids`` (q's text is "text of q") whose predictor is
    ``predictor``."""
    res = resources_over({qid: Query(qid, f"text of {qid}") for qid in query_ids}, {},
                         {"d1": Document("d1", "target text")})
    res.predictor = predictor
    return res


class CountingContext:
    """Returns preset predictor values keyed by query id and records every call.

    ``resources`` is a PipelineResources over the variants of ``values`` whose predictor it is.
    """

    def __init__(self, values):
        self.values = values
        self.calls = []
        self.rbo_params = []
        self.resources = predicting_resources([qid for qid in values if qid != "T"], self)

    def evaluate(self, base, run, terms, query_id, rbo_params):
        # a variant's run is its run-table row, whose ordinals spell its query id (see candidate)
        run_id = run.query_id if isinstance(run, RankedList) else bytes(run[0].astype(np.uint8)).decode()
        self.calls.append((base, run_id, list(terms), query_id))
        self.rbo_params.append(rbo_params)
        return self.values[query_id]


def reranked_set(target_id, *cands):
    return QVSet(target_id, list(cands))


def candidate(qid, rbo):
    ordinals = np.frombuffer(qid.encode(), dtype=np.uint8).astype(np.int32)  # a row of its own per query id
    return QVCandidate(
        query=Query(qid, f"text of {qid}"),
        hop=1,
        retrieval_score=1.0,
        rbo=rbo,
        internal_run=(ordinals, np.ones(len(ordinals))),
    )


class TestSmoothQpp:
    def test_hand_example(self):
        # 0.5 * 0.4 + 0.5 * (0.5 / 0.5) * 0.8 = 0.6
        target_run = RankedList.from_scores("T", [("d1", 1.0)])
        qv = reranked_set("T", candidate("v1", 0.5))
        config = QppConfig(lam=0.5, k=1, n=2)
        got = smooth_qpp(target_run, qv, config, {"T": 0.4, "v1": 0.8})
        assert got == pytest.approx(0.6, abs=1e-12)

    def test_lambda_zero_is_exactly_base(self, corpus, resources, target_run):
        config = QppConfig(lam=0.0, k=2, n=100)
        target = corpus.test_queries[0]
        qv = build_qv_set(target, config, resources)
        phi = base_predictions(target, target_run[target.id], qv, config, resources)
        got = smooth_qpp(target_run[target.id], qv, config, phi)
        base = resources.predictor.evaluate(
            "nqc", target_run[target.id], tokenize(target.text), target.id, config.rbo_params
        )
        assert got == base

    def test_empty_set_falls_back(self):
        target_run = RankedList.from_scores("T", [("d1", 1.0)])
        got = smooth_qpp(target_run, reranked_set("T"), QppConfig(lam=0.7), {"T": 0.4})
        assert got == 0.4

    def test_zero_weight_sum_falls_back(self):
        target_run = RankedList.from_scores("T", [("d1", 1.0)])
        qv = reranked_set("T", candidate("v1", 0.0))
        assert smooth_qpp(target_run, qv, QppConfig(lam=0.7), {"T": 0.4}) == 0.4

    def test_affine_in_lambda(self, corpus, resources, target_run):
        for target in corpus.test_queries[:3]:
            config = QppConfig(lam=0.0, k=2, n=100)
            qv = build_qv_set(target, config, resources)
            run = target_run[target.id]

            def estimate(lam):
                cfg = QppConfig(lam=lam, k=2, n=100)
                return smooth_qpp(run, qv, cfg, base_predictions(target, run, qv, cfg, resources))

            f0, f_half, f1 = estimate(0.0), estimate(0.5), estimate(1.0)
            assert f_half == pytest.approx((f0 + f1) / 2.0, abs=1e-12)

    def test_weights_sum_to_one(self, corpus, resources):
        qv = build_qv_set(corpus.test_queries[0], QppConfig(k=2, n=100), resources)
        total = sum(c.rbo for c in qv.candidates)
        assert total > 0
        assert sum(c.rbo / total for c in qv.candidates) == pytest.approx(1.0, abs=1e-9)

    def test_convex_combination_bounds(self, corpus, resources, target_run):
        config = QppConfig(lam=0.5, k=2, n=100)
        target = corpus.test_queries[1]
        qv = build_qv_set(target, config, resources)
        terms = tokenize(target.text)
        phi = base_predictions(target, target_run[target.id], qv, config, resources)
        got = smooth_qpp(target_run[target.id], qv, config, phi)
        values = [resources.predictor.evaluate("nqc", target_run[target.id], terms, target.id, config.rbo_params)]
        for cand in qv.candidates:
            if cand.rbo > 0:
                values.append(resources.predictor.evaluate(
                    "nqc", ranked_list(resources.doc_index, cand.internal_run, cand.query.id),
                    tokenize(cand.query.text), cand.query.id, config.rbo_params,
                ))
        assert min(values) - 1e-12 <= got <= max(values) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(-10.0, 10.0),
        st.lists(st.tuples(st.sampled_from([0.0, 1e-9, 0.3, 1.0]) | st.floats(0.0, 1.0), st.floats(-10.0, 10.0)),
                 max_size=6),
    )
    def test_between_target_and_weighted_variant_mean(self, lam, phi_target, variants_rbo_phi):
        cands = [candidate(f"v{i}", rbo) for i, (rbo, _) in enumerate(variants_rbo_phi)]
        table = {"T": phi_target, **{f"v{i}": phi for i, (_, phi) in enumerate(variants_rbo_phi)}}
        config = QppConfig(lam=lam, k=max(1, len(cands)), n=max(1, len(cands)) + 1)
        got = smooth_qpp(RankedList("T", [("d1", 1.0)]), reranked_set("T", *cands), config, table)
        weight_sum = sum(rbo for rbo, _ in variants_rbo_phi)
        if weight_sum <= 0.0:
            assert got == phi_target
            return
        mean = sum(rbo / weight_sum * phi for rbo, phi in variants_rbo_phi)
        slack = 1e-12 * max(1.0, abs(phi_target), abs(mean))
        assert min(phi_target, mean) - slack <= got <= max(phi_target, mean) + slack


class TestBasePredictions:
    TARGET = Query("T", "target text")
    RUN = RankedList.from_scores("T", [("d1", 1.0)])
    VALUES = {"T": 0.4, "v1": 0.8, "v2": 0.1, "v3": 0.6}

    @pytest.mark.parametrize(
        "lam, rbos", [(0.0, (0.5, 0.2)), (0.7, (0.0, 0.0)), (1.0, ())], ids=["lambda-0", "zero-rbo", "no-variants"]
    )
    def test_only_the_target_evaluated(self, lam, rbos):
        ctx = CountingContext(self.VALUES)
        qv = reranked_set("T", *(candidate(f"v{i}", rbo) for i, rbo in enumerate(rbos, start=1)))
        phi = base_predictions(self.TARGET, self.RUN, qv, QppConfig(lam=lam, k=2, n=3), ctx.resources)
        assert phi == {"T": 0.4}
        assert ctx.calls == [("nqc", "T", tokenize(self.TARGET.text), "T")]

    def test_target_then_positive_candidates_in_order(self):
        ctx = CountingContext(self.VALUES)
        qv = reranked_set("T", candidate("v3", 0.5), candidate("v1", 0.0), candidate("v2", 0.2))
        phi = base_predictions(self.TARGET, self.RUN, qv, QppConfig(lam=0.3, k=3, n=4, base="uef"), ctx.resources)
        assert phi == {"T": 0.4, "v3": 0.6, "v2": 0.1}
        assert ctx.calls == [
            ("uef", "T", tokenize("target text"), "T"),
            ("uef", "v3", tokenize("text of v3"), "v3"),
            ("uef", "v2", tokenize("text of v2"), "v2"),
        ]

    def test_rbo_params_come_from_the_config(self):
        ctx = CountingContext(self.VALUES)
        qv = reranked_set("T", candidate("v3", 0.5), candidate("v2", 0.2))
        rbo = RboParams(p=0.5, eval_depth=3)
        config = QppConfig(lam=0.3, k=2, n=3, base="uef", rbo_params=rbo)
        base_predictions(self.TARGET, self.RUN, qv, config, ctx.resources)
        assert ctx.rbo_params == [rbo, rbo, rbo]

    def test_a_kept_variant_is_evaluated_once_per_table(self):
        ctx = CountingContext(self.VALUES)
        qv = reranked_set("T", candidate("v3", 0.5), candidate("v1", 0.0), candidate("v2", 0.2))
        config = QppConfig(lam=0.3, k=3, n=4, base="uef")
        first = base_predictions(self.TARGET, self.RUN, qv, config, ctx.resources)
        ctx.calls.clear()
        # a second target keeping v2 and v1: v2 is read from the table, v1 evaluated once it has weight
        again = reranked_set("T", candidate("v2", 0.4), candidate("v1", 0.1))
        assert base_predictions(self.TARGET, self.RUN, again, config, ctx.resources) == {"T": 0.4, "v2": 0.1, "v1": 0.8}
        assert ctx.calls == [("uef", "T", tokenize("target text"), "T"), ("uef", "v1", tokenize("text of v1"), "v1")]
        assert ctx.resources.phi_reads == 1 and ctx.resources.predictor is ctx
        assert base_predictions(self.TARGET, self.RUN, qv, config, ctx.resources) == first
        # another base, internal depth or RBO parameters is another table
        for other in (replace(config, base="nqc"), replace(config, internal_depth=50),
                      replace(config, rbo_params=RboParams(p=0.5))):
            ctx.calls.clear()
            base_predictions(self.TARGET, self.RUN, qv, other, ctx.resources)
            assert [call[1] for call in ctx.calls] == ["T", "v3", "v2"]
        assert len(ctx.resources.phi_tables) == 4

    def test_a_value_that_is_not_finite_is_never_kept(self):
        ctx = CountingContext({**self.VALUES, "v3": float("inf")})
        qv = reranked_set("T", candidate("v3", 0.5))
        for _ in range(2):
            assert base_predictions(self.TARGET, self.RUN, qv, QppConfig(lam=0.3, k=1), ctx.resources)["v3"] == float("inf")
        assert [call[1] for call in ctx.calls] == ["T", "v3", "T", "v3"]
        assert ctx.resources.phi_reads == 0


class TestPipelineInvariants:
    def test_one_hop_contained_in_merged_everywhere(self, corpus, resources):
        config = QppConfig(k=2, n=100)
        for target in corpus.test_queries:
            one_hop = retrieve_1hop(target, config, resources)
            merged = expand_2hop(one_hop, config, resources)
            assert set(one_hop.query_ids()) <= set(merged.query_ids())

    def test_2hop_toggle_identical_without_qrels(self, corpus, resources):
        for target in corpus.test_queries:
            config_on = QppConfig(k=2, n=100, use_2hop=True)
            one_hop = retrieve_1hop(target, config_on, resources)
            via_empty_qrels = expand_2hop(one_hop, config_on, replace(resources, training_qrels={}))
            assert [(c.query.id, c.hop) for c in via_empty_qrels.candidates] == [
                (c.query.id, c.hop) for c in one_hop.candidates
            ]
            via_toggle = build_qv_set(target, replace(config_on, use_2hop=False), resources)
            via_empty = build_qv_set(target, config_on, replace(resources, training_qrels={}))
            assert qv_snapshot(via_toggle) == qv_snapshot(via_empty)

    def test_target_never_among_candidates(self, corpus, resources):
        config = QppConfig(k=3, n=100)
        for target in corpus.test_queries:
            qv = build_qv_set(target, config, resources)
            assert target.id not in qv.query_ids()

    def test_qvset_rejects_duplicates_and_target(self, corpus):
        q = corpus.train_queries[0]
        with pytest.raises(ValueError, match="duplicate"):
            QVSet("T", [QVCandidate(q, 1, 1.0), QVCandidate(q, 2, 0.5)])
        with pytest.raises(ValueError, match="target query"):
            QVSet(q.id, [QVCandidate(q, 1, 1.0)])

    def test_dense_pipeline_runs_end_to_end(self, corpus, resources, target_run):
        config = QppConfig(lam=0.4, k=2, n=50, query_retriever="dense", use_2hop=True)
        target = corpus.test_queries[0]
        qv = build_qv_set(target, config, resources)
        assert len(qv.candidates) <= 2
        phi = base_predictions(target, target_run[target.id], qv, config, resources)
        value = smooth_qpp(target_run[target.id], qv, config, phi)
        assert value >= 0.0


def pool_of(target_id, entries, res):
    """The variant pool of (query id, hop, retrieval score) entries over ``res``'s query index."""
    ordinal_of = res.query_index.ordinal_of
    return VariantPool(
        target_id,
        np.array([ordinal_of[qid] for qid, _, _ in entries], dtype=np.int64),
        np.array([hop for _, hop, _ in entries], dtype=np.int64),
        np.array([score for _, _, score in entries], dtype=np.float64),
        res,
    )


def resources_over(training, qrels, collection):
    """PipelineResources over inline training queries, qrels and documents."""
    return PipelineResources(
        doc_index=build_index((d.id, d.text) for d in collection.values()),
        query_index=build_index((q.id, q.text) for q in training.values()),
        training_queries=training,
        training_qrels=qrels,
    )


def with_renamed_copies(targets):
    """The targets plus a copy of each under a new id: every copy shares its original's pool."""
    return list(targets) + [Query(f"copy-{t.id}", t.text) for t in targets]


def qv_snapshot(qv_set):
    return [
        (c.query.id, c.hop, c.retrieval_score, c.rbo, c.internal_run[0].tolist(), c.internal_run[1].tolist())
        for c in qv_set.candidates
    ]


class TestRetrievalCache:
    # configs that each differ from the first in one cache-key parameter
    KEY_CONFIGS = [
        dict(k=3, n=100),
        dict(k=1, n=2),
        dict(k=3, n=100, pseudo_query_m=2),
        dict(k=3, n=100, internal_depth=5),
    ]

    @pytest.mark.parametrize("use_2hop", [True, False])
    def test_shared_resources_match_fresh_ones(self, corpus, resources, use_2hop):
        configs = [QppConfig(use_2hop=use_2hop, **kw) for kw in self.KEY_CONFIGS]
        shared = replace(resources)
        for target in with_renamed_copies(corpus.test_queries) * 2:
            for config in configs:
                got = build_qv_set(target, config, shared)
                want = build_qv_set(target, config, replace(resources))
                assert qv_snapshot(got) == qv_snapshot(want)
        assert sorted(shared.run_tables) == sorted({c.internal_depth for c in configs})
        assert bool(shared.pseudo_query_hits) == use_2hop

    def test_shared_pseudo_query_cache_matches_none(self):
        # docX's pseudo-query reaches three queries through "delta" and a fourth through "epsilon"
        training = {
            "tq1": Query("tq1", "alpha beta"),
            "tq2": Query("tq2", "delta one"),
            "tq3": Query("tq3", "delta two"),
            "tq4": Query("tq4", "delta three"),
            "tq5": Query("tq5", "epsilon four"),
        }
        collection = {"docX": Document("docX", "delta delta delta epsilon")}
        shared = resources_over(training, {"tq1": {"docX": 1}}, collection)
        pools = []
        for kw in (dict(k=1, n=5), dict(k=1, n=2), dict(k=1, n=5, pseudo_query_m=1)):
            config = QppConfig(**kw)
            one_hop = retrieve_1hop(Query("T", "alpha"), config, shared)
            got = expand_2hop(one_hop, config, shared)
            want = expand_2hop(one_hop, config, replace(shared))
            assert [(c.query.id, c.hop, c.retrieval_score) for c in got.candidates] == [
                (c.query.id, c.hop, c.retrieval_score) for c in want.candidates
            ]
            pools.append(got.query_ids())
        assert pools == [["tq1", "tq5", "tq2", "tq3", "tq4"], ["tq1", "tq5", "tq2"], ["tq1", "tq2", "tq3", "tq4"]]
        assert sorted(shared.pseudo_query_hits) == [("docX", 1, 5), ("docX", 20, 2), ("docX", 20, 5)]

    def test_one_document_run_per_row_and_per_target(self, corpus, resources, monkeypatch):
        config = QppConfig(k=2, n=100)
        targets = with_renamed_copies(corpus.test_queries)
        pool_ids, relevant_docs = set(), set()
        for target in targets:
            one_hop = retrieve_1hop(target, config, resources)
            pool_ids |= set(expand_2hop(one_hop, config, resources).query_ids())
            relevant_docs |= {
                doc_id for c in one_hop.candidates
                for doc_id, grade in corpus.train_qrels.get(c.query.id, {}).items() if grade >= 1
            }
        calls = {"doc": 0, "query": 0}

        def counting(real):
            def count(index, *args, **kwargs):
                calls["doc" if index is resources.doc_index else "query"] += 1
                return real(index, *args, **kwargs)
            return count

        # 1-hop retrieval builds a RankedList; internal runs and pseudo-query hits stay ordinals
        for name in ("bm25_retrieve", "bm25_ordinals"):
            monkeypatch.setattr(variants, name, counting(getattr(variants, name)))
        res = replace(resources)
        for target in targets:
            build_qv_set(target, config, res)
        # one document run per filled row and one per target; each pool member's row is filled once
        assert calls == {"doc": len(pool_ids) + len(targets), "query": len(relevant_docs) + len(targets)}
        assert (len(pool_ids), len(targets)) == (14, 10)
        for target in targets:
            build_qv_set(target, config, res)
        assert calls == {"doc": len(pool_ids) + 2 * len(targets), "query": len(relevant_docs) + 2 * len(targets)}

    def test_entries_are_compact(self, corpus, resources):
        res = replace(resources)
        config = QppConfig(k=2, n=100)
        qv_set = build_qv_set(corpus.test_queries[0], config, res)
        assert all(
            type(score) is float
            for c in qv_set.candidates for _, score in ranked_list(res.doc_index, c.internal_run, c.query.id).entries
        )
        table = res.run_tables[config.internal_depth]
        stored = [(res.doc_index, table.run(row)) for row in np.flatnonzero(table.lengths >= 0).tolist()]
        stored += [(res.query_index, run) for run in res.pseudo_query_hits.values()]
        assert stored
        for index, (ordinals, scores) in stored:
            assert ordinals.dtype == np.int32 and scores.dtype == np.float64 and len(ordinals) == len(scores)
            assert np.all((0 <= ordinals) & (ordinals < index.size))

    def test_replace_starts_with_empty_caches(self, corpus, resources, target_run):
        res = replace(resources)
        for target in corpus.test_queries * 2:  # the second pass reads its variants' phi from the table
            variants.predict_query(target, target_run[target.id], QppConfig(k=2, n=100), res)
        assert res.run_tables and res.pseudo_query_hits
        assert res.phi_tables and next(iter(res.phi_tables.values())).filled and res.phi_reads
        fresh = replace(res)
        assert fresh.run_tables == {} and fresh.pseudo_query_hits == {}
        assert fresh.phi_tables == {} and fresh.phi_reads == 0

    def test_run_table_rows_equal_bm25_ordinals(self, corpus, resources):
        config = QppConfig(k=2, n=100)
        res = replace(resources)
        pool_ids = set()
        for target in corpus.test_queries:
            build_qv_set(target, config, res)
            pool_ids |= set(expand_2hop(retrieve_1hop(target, config, res), config, res).query_ids())
        assert list(res.run_tables) == [config.internal_depth]
        table = res.run_tables[config.internal_depth]
        assert (table.ordinals.dtype, table.scores.dtype) == (np.int32, np.float64)
        index = res.query_index
        filled = np.flatnonzero(table.lengths >= 0)
        # a row per pool member, each filled once; the rest stay unfilled
        assert sorted(index.item_ids[o] for o in filled.tolist()) == sorted(pool_ids)
        assert 0 < len(filled) < index.size
        assert np.all(table.lengths[table.lengths < 0] == -1)
        for row in filled.tolist():
            text = res.training_queries[index.item_ids[row]].text
            ordinals, scores = bm25_ordinals(
                res.doc_index, tokenize(text), config.internal_depth, k1=res.params.k1, b=res.params.b
            )
            n = table.lengths[row]
            assert n == len(ordinals)
            assert np.array_equal(table.ordinals[row, :n], ordinals) and np.array_equal(table.scores[row, :n], scores)
            assert np.all(table.ordinals[row, n:] == -1)
        assert replace(res).run_tables == {}

    def test_each_row_filled_once(self, monkeypatch):
        # tq1 and tq2 share a text, each row takes its own run; a second re-rank fills none
        training = {
            "tq1": Query("tq1", "delta epsilon"),
            "tq2": Query("tq2", "delta epsilon"),
            "tq3": Query("tq3", "delta rho"),
        }
        res = resources_over(training, {}, {"docX": Document("docX", "delta epsilon"), "docY": Document("docY", "rho")})
        texts = []
        real = variants.bm25_ordinals

        def counting(index, terms, *args, **kwargs):
            texts.append(" ".join(terms))
            return real(index, terms, *args, **kwargs)

        monkeypatch.setattr(variants, "bm25_ordinals", counting)
        config = QppConfig(k=1, n=5)
        merged = pool_of("T", [(qid, 1, 1.0) for qid in training], res)
        rerank_by_rbo(merged, Query("T", "delta"), config, res)
        assert sorted(texts) == ["delta", "delta epsilon", "delta epsilon", "delta rho"]
        rerank_by_rbo(merged, Query("T", "delta"), config, res)
        assert sorted(texts) == ["delta", "delta", "delta epsilon", "delta epsilon", "delta rho"]
        table = res.run_tables[config.internal_depth]
        assert table.ordinals.shape == (3, 2)  # as wide as the two documents, not the depth
        assert table.lengths.tolist() == [1, 1, 2]  # docX, docX, then docX and docY
        assert np.array_equal(table.ordinals[0], table.ordinals[1]) and np.array_equal(table.scores[0], table.scores[1])

    def test_candidate_missing_from_query_index(self, corpus, resources):
        # a dense hit that is a training query the query index lacks
        ghost = Query("ghost", "coffee beans")
        training = {**corpus.training_query_map(), ghost.id: ghost}
        ids = [*resources.embedding_store.ids, ghost.id]
        vectors = [*resources.embedding_store.matrix, corpus.embeddings[corpus.test_queries[0].id]]
        res = replace(resources, training_queries=training, embedding_store=store_from_arrays(ids, vectors))
        config = QppConfig(k=1, n=100, query_retriever="dense")
        with pytest.raises(ValueError, match="variant candidate 'ghost' is not in the query index"):
            retrieve_1hop(corpus.test_queries[0], config, res)

    def test_missing_relevant_doc_warns_once_per_command(self, corpus, resources, caplog):
        # every training query judges the same missing document, so every target's pool reaches it
        qrels = {q.id: {"not-a-doc": 1} for q in corpus.train_queries}
        res = replace(resources, training_qrels=qrels)
        config = QppConfig(k=2, n=100)
        targets = with_renamed_copies(corpus.test_queries)
        assert all(retrieve_1hop(target, config, res).candidates for target in targets)
        with caplog.at_level(logging.WARNING):
            for target in targets:
                build_qv_set(target, config, res)
        assert caplog.text.count("'not-a-doc'") == 1
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            build_qv_set(targets[0], config, replace(res))  # a new command's resources warn again
        assert caplog.text.count("'not-a-doc'") == 1


def scripted_prediction(corpus, target, run, config, k1, b):
    """The merged pool, the kept variants and the smoothed NQC estimate by hand.

    k1/b are passed to every BM25 retrieval and collection score.
    """
    training = corpus.training_query_map()
    documents = {d.id: d for d in corpus.documents}
    doc_index = build_index((d.id, d.text) for d in corpus.documents)
    query_index = build_index((q.id, q.text) for q in corpus.train_queries)
    tokens = tokenize(target.text)
    one_hop = bm25_retrieve(query_index, tokens, len(training), k1=k1, b=b).entries
    one_hop = [(qid, score) for qid, score in one_hop if qid != target.id and tokenize(training[qid].text) != tokens]
    pool = {qid: (1, score) for qid, score in one_hop[: config.n]}
    if config.use_2hop:
        for qid in list(pool):
            for doc_id in sorted(d for d, grade in corpus.train_qrels.get(qid, {}).items() if grade >= 1):
                terms = make_pseudo_query(documents[doc_id], config.pseudo_query_m).terms
                for hit, score in bm25_retrieve(query_index, terms, config.n, k1=k1, b=b).entries:
                    if hit != target.id:
                        pool.setdefault(hit, (2, score))
    target_internal = bm25_retrieve(doc_index, tokens, config.internal_depth, k1=k1, b=b)
    runs = {qid: bm25_retrieve(doc_index, tokenize(training[qid].text), config.internal_depth, k1=k1, b=b,
                               query_id=qid) for qid in pool}
    scored = sorted(
        ((rbo_ext(target_internal, runs[qid], config.rbo_params), hop, qid) for qid, (hop, _) in pool.items()),
        key=lambda row: (-row[0], row[1], row[2]),
    )
    kept = [(qid, hop, rbo) for rbo, hop, qid in scored[: config.k]]

    def phi(ranked, text):
        return nqc(PredictorInput(ranked, collection_score(doc_index, tokenize(text), k1=k1, b=b), top_k=100))

    merged = [(qid, hop, score) for qid, (hop, score) in pool.items()]
    weight_sum = sum(rbo for _, _, rbo in kept)
    if weight_sum <= 0.0 or config.lam == 0.0:
        return merged, kept, phi(run, target.text)
    smoothed = 0.0
    for qid, _, rbo in kept:
        if rbo > 0.0:
            smoothed += rbo / weight_sum * phi(runs[qid], training[qid].text)
    return merged, kept, (1.0 - config.lam) * phi(run, target.text) + config.lam * smoothed


class TestOneOwner:
    """k1/b, the document index and the predictor are read from PipelineResources alone."""

    @pytest.mark.parametrize("use_2hop", [True, False])
    def test_params_move_every_bm25_reader(self, corpus, resources, target_run, use_2hop):
        res = replace(resources, params=PredictorParams(k1=1.2, b=0.75))
        # n below the training-set size, so that the scores decide which queries each hop keeps
        config = QppConfig(lam=0.5, k=3, n=5, use_2hop=use_2hop)
        moved, hops = 0, set()
        for target in corpus.test_queries:
            run = target_run[target.id]
            merged, kept, want = scripted_prediction(corpus, target, run, config, k1=1.2, b=0.75)
            pool = retrieve_1hop(target, config, res)
            if use_2hop:
                pool = expand_2hop(pool, config, res)
            assert [(c.query.id, c.hop, c.retrieval_score) for c in pool.candidates] == merged
            qv_set = build_qv_set(target, config, res)
            assert [(c.query.id, c.hop, c.rbo) for c in qv_set.candidates] == kept
            got = variants.predict_query(target, run, config, res)
            assert got == want
            moved += got != variants.predict_query(target, run, config, replace(resources))
            hops |= {hop for _, hop, _ in kept}
        assert moved == len(corpus.test_queries)
        assert hops == ({1, 2} if use_2hop else {1})

    def test_replacing_the_index_replaces_the_predictor(self, corpus, resources, target_run):
        res = replace(resources)
        target = corpus.test_queries[0]
        run, terms = target_run[target.id], tokenize(target.text)
        variants.predict_query(target, run, QppConfig(k=2, n=100), res)
        assert res.predictor.index is res.doc_index and res.predictor._cache
        smaller = build_index((d.id, d.text) for d in corpus.documents[::2])
        swapped = replace(res, doc_index=smaller)
        assert swapped.predictor.index is smaller and swapped.predictor._cache == {}
        assert (swapped.predictor.params, swapped.predictor.seed) == (res.params, res.seed)
        got = swapped.predictor.evaluate("nqc", run, terms, target.id, RboParams())
        assert got == nqc(PredictorInput(run, collection_score(smaller, terms), top_k=100))
        assert got != res.predictor.evaluate("nqc", run, terms, target.id, RboParams())
