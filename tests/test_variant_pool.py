"""The array pool of the variant stages against a scripted composition of object stages.

``reference_qv_set`` builds the pool as the object pipeline did: a
:class:`QVCandidate` per member, the 1-hop ranking asked for in full, the
2-hop merge by a ``seen`` set, and one internal run and ``rbo_ext`` per
member. The array stages must give ``==`` pools and survivors, also when
the target and its copies use up the 1-hop margin.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvqpp import (
    Document,
    PipelineResources,
    QppConfig,
    Query,
    QVCandidate,
    QVSet,
    RankedList,
    VariantPool,
    build_index,
    build_qv_set,
    expand_2hop,
    rbo_ext,
    retrieve_1hop,
    store_from_arrays,
    tokenize,
)
from qvqpp import dense_index, variants
from qvqpp.dense_index import knn_cosine
from qvqpp.text_index import bm25_ordinals, bm25_retrieve, pseudo_query_terms, ranked_list

WORDS = ["alpha", "beta", "gamma", "delta", "omega"]


def reference_pool(target, config, res):
    """The merged pool as (query, hop, score) triples, by the object stages' loops."""
    tokens = tokenize(target.text)
    k1, b = res.params.k1, res.params.b
    training = dict(zip(res.query_index.item_ids, res.training_texts))
    if config.query_retriever == "bm25":
        ranked = bm25_retrieve(res.query_index, tokens, depth=max(config.n, res.query_index.size, 1), k1=k1, b=b)
    else:
        store = res.embedding_store
        exclude = {i for i in store.ids if i not in training} | {target.id}
        rows, sims = knn_cosine(
            store, store.vector(target.id), depth=len(store), exclude=[store.index_of[i] for i in exclude]
        )
        ranked = RankedList("", [(store.ids[row], sim) for row, sim in zip(rows.tolist(), sims.tolist())])
    pool = []
    for qid, score in ranked.entries:
        if qid == target.id or tokenize(training[qid]) == tokens:
            continue
        pool.append(QVCandidate(Query(qid, training[qid]), 1, score))
        if len(pool) == config.n:
            break
    if config.use_2hop:
        seen = {c.query.id for c in pool} | {target.id}
        for candidate in list(pool):
            judged = res.training_qrels.get(candidate.query.id, {})
            for doc_id in sorted(d for d, grade in judged.items() if grade >= 1):
                ordinal = res.doc_index.ordinal_of.get(doc_id)
                if ordinal is None:
                    continue
                terms = pseudo_query_terms(res.doc_index, ordinal, config.pseudo_query_m)
                for qid, score in bm25_retrieve(res.query_index, terms, config.n, k1=k1, b=b).entries:
                    if qid not in seen:
                        seen.add(qid)
                        pool.append(QVCandidate(Query(qid, training[qid]), 2, score))
    return pool


def reference_qv_set(target, config, res):
    """The k survivors as (id, hop, score, rbo, run ordinals, run scores), re-ranked member by member."""
    k1, b, depth = res.params.k1, res.params.b, config.internal_depth
    target_run = ranked_list(res.doc_index, bm25_ordinals(res.doc_index, tokenize(target.text), depth, k1=k1, b=b), "")
    scored = []
    for candidate in reference_pool(target, config, res):
        run = bm25_ordinals(res.doc_index, tokenize(candidate.query.text), depth, k1=k1, b=b)
        overlap = rbo_ext(target_run, ranked_list(res.doc_index, run, ""), config.rbo_params)
        scored.append((candidate, overlap, run))
    scored.sort(key=lambda row: (-row[1], row[0].hop, row[0].query.id))
    return [
        (c.query.id, c.hop, c.retrieval_score, overlap, run[0].tolist(), run[1].tolist())
        for c, overlap, run in scored[: config.k]
    ]


def snapshot(qv_set):
    return [
        (c.query.id, c.hop, c.retrieval_score, c.rbo, c.internal_run[0].tolist(), c.internal_run[1].tolist())
        for c in qv_set.candidates
    ]


def pool_triples(pool):
    return [(c.query.id, c.hop, c.retrieval_score) for c in pool]


def resources_over(training, qrels, documents, embeddings=None):
    store = None
    if embeddings is not None:
        ids = sorted(embeddings)
        store = store_from_arrays(ids, [embeddings[i] for i in ids])
    return PipelineResources(
        doc_index=build_index((d.id, d.text) for d in documents),
        query_index=build_index((q.id, q.text) for q in training.values()),
        training_texts=[q.text for q in training.values()],
        training_qrels=qrels,
        embedding_store=store,
    )


@st.composite
def workloads(draw):
    """A random corpus with copies of the target, its configuration and its resources."""
    target_words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
    text = " ".join(target_words)
    # verbatim, case-only and punctuation-only copies, enough of them to use up n + margin
    copy_forms = [text, text.upper(), ", ".join(target_words) + "!"]
    copies = draw(st.lists(st.sampled_from(copy_forms), max_size=variants.ONE_HOP_MARGIN + 6))
    others = draw(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
                           min_size=1, max_size=10))
    texts = draw(st.permutations(copies + others))
    training = {f"tq{i:02d}": Query(f"tq{i:02d}", t) for i, t in enumerate(texts)}
    target = Query("T", text)
    if draw(st.booleans()):  # the target is itself a training query
        training[target.id] = target
    documents = [
        Document(f"d{i}", " ".join(words))
        for i, words in enumerate(draw(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6),
                                                min_size=1, max_size=6)))
    ]
    # few documents and many judgments, so judged documents share hits and training queries share documents
    qrels = {
        qid: dict(draw(st.lists(st.tuples(st.sampled_from([d.id for d in documents]), st.integers(0, 2)),
                                max_size=3)))
        for qid in training
    }
    # copies share the target's vector, so in dense mode they too rank first; "x*" ids are no training queries
    vector = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
    target_vector = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
    embeddings = {target.id: target_vector}
    for qid, query in training.items():
        embeddings[qid] = target_vector if query.text in copy_forms else draw(vector)
    embeddings.update({f"x{i}": draw(vector) for i in range(draw(st.integers(0, 3)))})
    n = draw(st.integers(2, 5))
    config = QppConfig(
        k=draw(st.integers(1, n - 1)), n=n,
        query_retriever=draw(st.sampled_from(["bm25", "dense"])),
        use_2hop=draw(st.booleans()),
        pseudo_query_m=draw(st.integers(1, 3)),
        internal_depth=draw(st.integers(1, 8)),
    )
    return target, config, resources_over(training, qrels, documents, embeddings)


class TestArrayPoolMatchesObjectStages:
    @settings(max_examples=300, deadline=None)
    @given(workloads())
    def test_build_qv_set_equals_the_scripted_object_stages(self, workload):
        target, config, res = workload
        one_hop = retrieve_1hop(target, config, res)
        pool = expand_2hop(one_hop, config, res) if config.use_2hop else one_hop
        assert pool_triples(pool.candidates) == pool_triples(reference_pool(target, config, replace(res)))
        assert snapshot(build_qv_set(target, config, res)) == reference_qv_set(target, config, replace(res))

    @pytest.mark.parametrize("retriever", ["bm25", "dense"])
    def test_copies_beyond_the_margin_widen_to_the_whole_ranking(self, monkeypatch, retriever):
        target = Query("T", "alpha beta")
        copies = ["alpha beta", "ALPHA BETA", "alpha, beta!"] * variants.ONE_HOP_MARGIN
        texts = copies + ["alpha", "beta gamma", "alpha delta", "omega"]
        training = {f"tq{i:02d}": Query(f"tq{i:02d}", t) for i, t in enumerate(texts)}
        training[target.id] = target
        embeddings = {qid: [1.0, 1.0] if q.text in copies else [1.0, i] for i, (qid, q) in enumerate(training.items())}
        res = resources_over(training, {}, [Document("d1", "alpha beta gamma")], embeddings)
        config = QppConfig(k=1, n=3, query_retriever=retriever, use_2hop=False)
        depths = []
        # the dense branch imports knn_cosine from its own module when it runs
        for module, name in ((variants, "bm25_ordinals"), (dense_index, "knn_cosine")):
            real = getattr(module, name)

            def counting(index, terms, depth, *args, real=real, **kwargs):
                depths.append(depth)
                return real(index, terms, depth, *args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        pool = retrieve_1hop(target, config, res)
        whole = res.query_index.size if retriever == "bm25" else len(res.embedding_store)
        assert depths == [config.n + variants.ONE_HOP_MARGIN, whole]
        assert pool_triples(pool.candidates) == pool_triples(reference_pool(target, config, replace(res)))
        assert sorted(c.query.text for c in pool.candidates) == ["alpha", "alpha delta", "beta gamma"]

    def test_a_pool_the_margin_covers_asks_once(self, monkeypatch):
        training = {f"tq{i:02d}": Query(f"tq{i:02d}", f"alpha {w}") for i, w in enumerate(WORDS * 4)}
        res = resources_over(training, {}, [Document("d1", "alpha")])
        depths = []
        real = variants.bm25_ordinals
        monkeypatch.setattr(
            variants, "bm25_ordinals", lambda index, terms, depth, **kw: depths.append(depth) or real(index, terms, depth, **kw)
        )
        pool = retrieve_1hop(Query("T", "alpha beta"), QppConfig(k=1, n=3, use_2hop=False), res)
        assert depths == [3 + variants.ONE_HOP_MARGIN] and len(pool.ordinals) == 3


class TestPoolChecks:
    def pool(self, target_id, ids, res):
        ordinal_of = res.query_index.ordinal_of
        ordinals = np.array([ordinal_of[qid] for qid in ids], dtype=np.int64)
        return VariantPool(target_id, ordinals, np.ones(len(ids), dtype=np.int64), np.ones(len(ids)), res)

    def test_duplicate_variant_and_target_among_its_variants_raise(self):
        training = {qid: Query(qid, f"text {qid}") for qid in ("a", "b", "c")}
        res = resources_over(training, {}, [Document("d1", "text")])
        assert self.pool("T", ["a", "b", "c"], res).query_ids() == ["a", "b", "c"]
        with pytest.raises(ValueError, match="duplicate variant ids"):
            self.pool("T", ["a", "b", "a"], res)
        with pytest.raises(ValueError, match="target query must never appear"):
            self.pool("b", ["a", "b"], res)
        # the kept set checks its survivors the same way
        with pytest.raises(ValueError, match="duplicate variant ids"):
            QVSet("T", [QVCandidate(training["a"], 1, 1.0), QVCandidate(training["a"], 2, 0.5)])
        with pytest.raises(ValueError, match="target query must never appear"):
            QVSet("a", [QVCandidate(training["a"], 1, 1.0)])

    def test_training_texts_must_match_the_query_index(self):
        training = {qid: Query(qid, f"text {qid}") for qid in ("a", "b")}
        res = resources_over(training, {}, [Document("d1", "text")])
        assert [c.query for c in self.pool("T", ["b", "a"], res).candidates] == [training["b"], training["a"]]
        with pytest.raises(ValueError, match="^1 training texts for the 2 queries of the query index$"):
            replace(res, training_texts=["text a"])

    def test_candidates_are_built_only_when_read(self, corpus, resources):
        config = QppConfig(k=2, n=100)
        pool = expand_2hop(retrieve_1hop(corpus.test_queries[0], config, resources), config, resources)
        assert "candidates" not in vars(pool)
        assert [c.query.id for c in pool.candidates] == pool.query_ids()
        assert pool.candidates is pool.candidates
