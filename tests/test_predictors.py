from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qvqpp import (
    PredictorContext,
    PredictorParams,
    RankedList,
    RboParams,
    RelevanceModel,
    bm25_retrieve,
    build_index,
    build_relevance_model,
    collection_score,
    derive_seed,
    nqc,
    rbo_ext,
    rm_rerank,
    tokenize,
    uef,
)
from qvqpp import predictors
from qvqpp.predictors import DEFAULT_MU, UEF_POOL_FLOOR, _certified_order
from qvqpp.text_index import ordinal_run


def ranked(query_id, pairs):
    return RankedList.from_scores(query_id, pairs)


def scores_of(run):
    return np.asarray(run.scores(), dtype=np.float64)


class ListInput(NamedTuple):
    """A ranked list with the collection score and head size that NQC and UEF read it under."""

    ranked_list: RankedList
    collection_score: float
    top_k: int = 100


def uef_list(inp, index, rng_seed, samples, sample_size, *, rbo_params=RboParams(), mu=DEFAULT_MU):
    """``uef`` of a ranked list mapped to ``index`` ordinals as a target run is, its ids naming its documents."""
    run = inp.ranked_list
    return uef(
        ordinal_run(index, run), inp.collection_score, index, rng_seed, samples, sample_size, top_k=inp.top_k,
        rbo_params=rbo_params, mu=mu, doc_id=run.doc_ids().__getitem__, query_id=run.query_id,
    )


class TestNqc:
    def test_zero_variance(self):
        assert nqc(scores_of(ranked("q", [("a", 5.0), ("b", 5.0), ("c", 5.0)])), 3.7) == 0.0

    def test_hand_value(self):
        # sqrt(((4-2)^2 + 0 + (0-2)^2) / 3) / 2 = sqrt(8/3) / 2
        value = nqc(scores_of(ranked("q", [("a", 4.0), ("b", 2.0), ("c", 0.0)])), 2.0)
        assert value == pytest.approx(math.sqrt(8.0 / 3.0) / 2.0, abs=1e-12)
        assert value == pytest.approx(0.81650, abs=1e-5)

    def test_single_score(self):
        assert nqc(scores_of(ranked("q", [("a", 3.2)])), 1.0) == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            nqc(scores_of(RankedList("q", [])), 1.0)

    def test_nonpositive_collection_score_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            nqc(scores_of(ranked("q", [("a", 1.0)])), 0.0)

    def test_scale_invariance(self):
        rng = random.Random(31)
        for _ in range(50):
            scores = [(f"d{i}", rng.uniform(0, 10)) for i in range(rng.randint(2, 20))]
            cscore = rng.uniform(0.1, 5.0)
            c = rng.uniform(0.01, 100.0)
            base = nqc(scores_of(ranked("q", scores)), cscore)
            scaled = nqc(scores_of(ranked("q", [(d, c * s) for d, s in scores])), c * cscore)
            assert scaled == pytest.approx(base, rel=1e-12, abs=1e-15)

    def test_top_k_truncation(self):
        entries = [("a", 9.0), ("b", 8.0), ("c", 0.0)]
        full = nqc(scores_of(ranked("q", entries)), 1.0, top_k=3)
        head = nqc(scores_of(ranked("q", entries)), 1.0, top_k=2)
        assert head == pytest.approx(0.5)  # std of [9, 8]
        assert full != head


CORPUS_5 = [
    ("d1", "solar panel efficiency gains"),
    ("d2", "rooftop solar panel install"),
    ("d3", "panel wattage and inverter sizing"),
    ("d4", "grid feed in tariffs for solar"),
    ("d5", "silicon cell efficiency record"),
]


class TestCollectionScore:
    def test_single_doc_corpus_equals_doc_score(self):
        items = [("only", "solar panel wattage solar")]
        index = build_index(items)
        expected = bm25_retrieve(index, ["solar"], 1).entries[0][1]
        assert collection_score(index, ["solar"]) == pytest.approx(expected, abs=1e-12)

    def test_out_of_vocabulary_floor(self):
        index = build_index(CORPUS_5)
        assert collection_score(index, ["zzzz"]) == 1e-6

    def test_matches_virtual_doc_oracle(self):
        index = build_index(CORPUS_5)
        for terms in (["solar"], ["solar", "panel"], ["efficiency", "efficiency"]):
            got = collection_score(index, terms)
            want = oracles.collection_score_virtual_doc(CORPUS_5, terms)
            assert got == pytest.approx(want, abs=1e-12)

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            collection_score(build_index([]), ["x"])


class TestRelevanceModel:
    def test_hand_value_single_doc(self):
        # corpus: "x x y" and "y" -> p(x|C) = p(y|C) = 0.5; mu = 1000
        # p(x|dA) = 502/1003, p(y|dA) = 501/1003; they already sum to 1
        index = build_index([("dA", "x x y"), ("dB", "y")])
        model = build_relevance_model(index, ranked("q", [("dA", 5.0)]), mu=1000.0)
        assert model.term_weights["x"] == pytest.approx(502.0 / 1003.0, abs=1e-12)
        assert model.term_weights["y"] == pytest.approx(501.0 / 1003.0, abs=1e-12)

    def test_two_identical_documents_match_single(self):
        index = build_index([("dA", "apple pie crust"), ("dB", "apple pie crust"), ("dC", "other words")])
        single = build_relevance_model(index, ranked("q", [("dA", 2.0)]))
        double = build_relevance_model(index, ranked("q", [("dA", 2.0), ("dB", 2.0)]))
        for term in single.term_weights:
            assert double.term_weights[term] == pytest.approx(single.term_weights[term], abs=1e-12)

    def test_weights_sum_to_one(self):
        rng = random.Random(41)
        words = [f"w{i}" for i in range(15)]
        items = [(f"d{i}", " ".join(rng.choices(words, k=rng.randint(1, 10)))) for i in range(12)]
        index = build_index(items)
        for _ in range(20):
            sample_ids = rng.sample([i for i, _ in items], rng.randint(1, 6))
            sample = ranked("q", [(doc_id, rng.uniform(0, 8)) for doc_id in sample_ids])
            model = build_relevance_model(index, sample)
            assert sum(model.term_weights.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(w >= 0 for w in model.term_weights.values())

    def test_all_empty_sample_rejected(self):
        index = build_index([("dA", "the of and"), ("dB", "word")])
        with pytest.raises(ValueError, match="empty"):
            build_relevance_model(index, ranked("q", [("dA", 1.0)]))

    def test_unindexed_doc_rejected(self):
        index = build_index([("dA", "word")])
        with pytest.raises(ValueError, match="not in the index"):
            build_relevance_model(index, ranked("q", [("nope", 1.0)]))

    def test_empty_document_with_mu_zero_has_zero_probability(self):
        # p(w|D) = (tf + mu * p_w) / (|D| + mu) is 0/0 for an empty D when mu = 0
        index = build_index([("a", "the of"), ("b", "apple")])
        with pytest.raises(ValueError, match="zero smoothed probability in empty document 'a'"):
            build_relevance_model(index, ranked("q", [("a", 2.0), ("b", 1.0)]), mu=0.0)
        model = build_relevance_model(index, ranked("q", [("b", 1.0)]), mu=0.0)
        assert model.term_weights == {"apple": 1.0}


class TestRmRerank:
    def test_concentrated_model_promotes_unique_doc(self):
        index = build_index([("dA", "common filler text"), ("dB", "common beacon text")])
        from qvqpp import RelevanceModel

        model = RelevanceModel({"beacon": 1.0})
        base = ranked("q", [("dA", 9.0), ("dB", 1.0)])
        assert rm_rerank(model, base, index, depth=2).doc_ids()[0] == "dB"

    def test_uniform_model_ties_fall_back_to_doc_id(self):
        index = build_index([("dC", "apple banana"), ("dA", "apple banana"), ("dB", "apple banana")])
        from qvqpp import RelevanceModel

        model = RelevanceModel({"apple": 0.5, "banana": 0.5})
        base = ranked("q", [("dC", 3.0), ("dA", 2.0), ("dB", 1.0)])
        assert rm_rerank(model, base, index, depth=3).doc_ids() == ["dA", "dB", "dC"]

    def test_matches_brute_force_oracle(self):
        index = build_index(CORPUS_5)
        sample = bm25_retrieve(index, ["solar", "panel"], depth=5, query_id="q")
        model = build_relevance_model(index, sample)
        got = rm_rerank(model, sample, index, depth=5)
        want = oracles.rm_rescore(CORPUS_5, model.term_weights, sample.doc_ids())
        assert got.doc_ids() == [doc_id for doc_id, _ in want]
        for (_, g), (_, w) in zip(got.entries, want):
            assert g == pytest.approx(w, abs=1e-12)

    def test_model_term_missing_from_index_has_zero_probability(self):
        index = build_index([("dA", "apple pie"), ("dB", "apple tart")])
        model = RelevanceModel({"apple": 0.5, "zzz": 0.5})
        base = ranked("q", [("dA", 2.0), ("dB", 1.0)])
        with pytest.raises(ValueError, match="'zzz' has zero smoothed probability"):
            rm_rerank(model, base, index, depth=2)

    def test_mu_zero_needs_every_model_term_in_every_head_doc(self):
        index = build_index([("dA", "apple pie"), ("dB", "apple tart")])
        model = RelevanceModel({"apple": 0.5, "pie": 0.5})
        base = ranked("q", [("dA", 2.0), ("dB", 1.0)])
        with pytest.raises(ValueError, match="'pie' has zero smoothed probability"):
            rm_rerank(model, base, index, depth=2, mu=0.0)
        # dA holds both terms: p(w|dA) = 1/2 each, so the score is ln(1/2)
        head = rm_rerank(model, base, index, depth=1, mu=0.0)
        assert head.doc_ids() == ["dA"]
        assert head.entries[0][1] == pytest.approx(math.log(0.5), abs=1e-12)


# Small random corpora: few distinct words so that documents share terms,
# tie, repeat or tokenize to nothing ("the" is a stopword).
WORDS = ["the", "alpha", "beta", "gamma", "delta", "eps", "zeta"]
random_corpora = st.lists(
    st.lists(st.sampled_from(WORDS), max_size=8), min_size=1, max_size=7
).map(lambda texts: [(f"d{i}", " ".join(words)) for i, words in enumerate(texts)])


def assert_oracle_ranking(got, want, tol=1e-12):
    """``got`` scores every doc as the oracle ``want`` does, to ``tol``, and in its order.

    Only docs whose oracle scores lie within ``tol`` may swap: the sparse
    score and the oracle round differently, so a mathematically exact tie
    such as ln((1 + mu) / (1 + mu)) = ln(mu / mu) can come out 1e-17 apart.
    """
    want_scores = dict(want)
    assert sorted(got.doc_ids()) == sorted(want_scores)
    for doc_id, score in got.entries:
        assert score == pytest.approx(want_scores[doc_id], abs=tol)
    for (earlier, _), (later, _) in zip(got.entries, got.entries[1:]):
        assert want_scores[earlier] >= want_scores[later] - tol


@st.composite
def corpus_and_sample(draw):
    items = draw(random_corpora)
    ids = [doc_id for doc_id, _ in items]
    chosen = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids), unique=True))
    scores = draw(st.lists(st.floats(0.0, 10.0), min_size=len(chosen), max_size=len(chosen)))
    mu = draw(st.sampled_from([0.5, 10.0, 1000.0]))
    return items, RankedList.from_scores("q", zip(chosen, scores)), mu


class TestRelevanceModelProperties:
    @settings(max_examples=150, deadline=None)
    @given(corpus_and_sample())
    def test_build_matches_dense_oracle(self, case):
        items, sample, mu = case
        index = build_index(items)
        if not any(tokenize(dict(items)[doc_id]) for doc_id in sample.doc_ids()):
            with pytest.raises(ValueError, match="empty"):
                build_relevance_model(index, sample, mu=mu)
            return
        got = build_relevance_model(index, sample, mu=mu).term_weights
        want = oracles.relevance_model_dense(items, sample.entries, mu=mu)
        assert list(got) == sorted(want)
        for term, weight in want.items():
            assert got[term] == pytest.approx(weight, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(corpus_and_sample())
    def test_rerank_matches_oracle(self, case):
        items, sample, mu = case
        index = build_index(items)
        if not any(tokenize(dict(items)[doc_id]) for doc_id in sample.doc_ids()):
            return
        model = build_relevance_model(index, sample, mu=mu)
        head = ranked("q", [(doc_id, 1.0) for doc_id, _ in items])
        got = rm_rerank(model, head, index, depth=len(head), mu=mu)
        want = oracles.rm_rescore(items, model.term_weights, head.doc_ids(), mu=mu)
        assert_oracle_ranking(got, want)

    @settings(max_examples=150, deadline=None)
    @given(corpus_and_sample())
    def test_build_and_rerank_match_sparse_loops_exactly(self, case):
        items, sample, mu = case
        index = build_index(items)
        if not any(tokenize(dict(items)[doc_id]) for doc_id in sample.doc_ids()):
            return
        scores = np.asarray(sample.scores(), dtype=np.float64)
        weights = np.exp(scores - scores.max())
        model = build_relevance_model(index, sample, mu=mu)
        assert model.term_weights == oracles.relevance_model_sparse_loop(
            items, sample.entries, (weights / weights.sum()).tolist(), mu=mu
        )
        head = ranked("q", [(doc_id, 1.0) for doc_id, _ in items])
        got = rm_rerank(model, head, index, depth=len(head), mu=mu)
        assert got.entries == oracles.rm_rerank_sparse_loop(items, model.term_weights, head.doc_ids(), mu=mu)

    @settings(max_examples=100, deadline=None)
    @given(corpus_and_sample())
    def test_mu_zero_rejects_exactly_heads_missing_a_model_term(self, case):
        items, sample, _ = case
        index = build_index(items)
        if not any(tokenize(dict(items)[doc_id]) for doc_id in sample.doc_ids()):
            return
        model = build_relevance_model(index, sample)
        head = ranked("q", sample.entries)
        bags = {doc_id: set(tokenize(text)) for doc_id, text in items}
        if any(set(model.term_weights) - bags[doc_id] for doc_id in head.doc_ids()):
            with pytest.raises(ValueError, match="zero smoothed probability"):
                rm_rerank(model, head, index, depth=len(head), mu=0.0)
            return
        got = rm_rerank(model, head, index, depth=len(head), mu=0.0)
        want = oracles.rm_rescore(items, model.term_weights, head.doc_ids(), mu=0.0)
        assert_oracle_ranking(got, want)


UEF_CORPUS = [
    ("dA", "apple apple apple apple apple orchard"),
    ("dB", "banana banana banana banana banana apple"),
    ("dC", "cherry cherry grove harvest"),
    ("dD", "apple banana cherry mixed basket"),
    ("dE", "orchard grove harvest notes"),
]


def uef_fixture_input(top_k=10):
    index = build_index(UEF_CORPUS)
    run = bm25_retrieve(index, ["apple", "banana"], depth=10, query_id="q")
    cscore = collection_score(index, ["apple", "banana"])
    return index, ListInput(run, cscore, top_k=top_k)


class TestUef:
    def test_fixed_seed_reproducible(self):
        index, inp = uef_fixture_input()
        a = uef_list(inp, index, rng_seed=42, samples=3, sample_size=2)
        b = uef_list(inp, index, rng_seed=42, samples=3, sample_size=2)
        assert a == b

    def test_zero_variance_list_gives_zero(self):
        index = build_index(UEF_CORPUS)
        run = ranked("q", [("dA", 2.0), ("dB", 2.0), ("dC", 2.0)])
        inp = ListInput(run, 1.0, top_k=3)
        for seed in (1, 42, 999):
            assert uef_list(inp, index, rng_seed=seed, samples=4, sample_size=2) == 0.0

    def test_seed_42_matches_scripted_oracle(self):
        index, inp = uef_fixture_input()
        got = uef_list(inp, index, rng_seed=42, samples=3, sample_size=2)

        # script the documented protocol step by step
        pool = inp.ranked_list.entries[: max(inp.top_k, 50)]
        head = inp.ranked_list.top(min(inp.top_k, len(inp.ranked_list.entries)))
        rng = np.random.default_rng(42)
        total = 0.0
        for _ in range(3):
            chosen = sorted(rng.choice(len(pool), size=2, replace=False).tolist())
            subset = RankedList("q", [pool[i] for i in chosen])
            subset_nqc = nqc(scores_of(subset), inp.collection_score, top_k=2)
            model = build_relevance_model(index, subset)
            reranked = rm_rerank(model, head, index, depth=len(head))
            total += rbo_ext(head, reranked, RboParams()) * subset_nqc
        assert got == total / 3

    def test_full_pool_sample_is_seed_independent(self):
        index, inp = uef_fixture_input()
        pool_size = len(inp.ranked_list)
        values = {uef_list(inp, index, rng_seed=s, samples=1, sample_size=pool_size) for s in (1, 2, 99)}
        assert len(values) == 1
        # composed directly: subset == full list, so uef = rbo(head, rerank(head)) * nqc(list)
        model = build_relevance_model(index, inp.ranked_list)
        reranked = rm_rerank(model, inp.ranked_list, index, depth=len(inp.ranked_list))
        expected = rbo_ext(inp.ranked_list, reranked, RboParams()) * nqc(
            scores_of(inp.ranked_list), inp.collection_score, inp.top_k
        )
        assert values.pop() == pytest.approx(expected, abs=1e-12)

    def test_identity_rerank_boundary_equals_nqc(self):
        # dA out-scores dB on "apple" and also wins the relevance-model
        # re-ranking, so the overlap factor is 1 and uef reduces to nqc
        index = build_index(
            [
                ("dA", "apple apple apple apple apple apple apple apple"),
                ("dB", "apple filler"),
                ("dC", "filler banana banana"),
            ]
        )
        run = bm25_retrieve(index, ["apple"], depth=10, query_id="q")
        cscore = collection_score(index, ["apple"])
        inp = ListInput(run, cscore, top_k=len(run))
        model = build_relevance_model(index, run, mu=100.0)
        assert rm_rerank(model, run, index, depth=len(run), mu=100.0).doc_ids() == run.doc_ids()
        got = uef_list(inp, index, rng_seed=7, samples=1, sample_size=len(run), mu=100.0)
        assert got == pytest.approx(nqc(scores_of(run), cscore, top_k=len(run)), abs=1e-12)

    def test_sample_size_too_large_rejected(self):
        index, inp = uef_fixture_input()
        with pytest.raises(ValueError, match="exceeds"):
            uef_list(inp, index, rng_seed=1, samples=1, sample_size=len(inp.ranked_list) + 1)


def scripted_uef(inp, index, rng_seed, samples, sample_size, rbo_params, mu):
    """The documented protocol composed step by step from the public functions, one subset at a time."""
    entries = inp.ranked_list.entries
    pool = entries[: max(inp.top_k, UEF_POOL_FLOOR)]
    head = inp.ranked_list.top(min(inp.top_k, len(entries)))
    rng = np.random.default_rng(rng_seed)
    total = 0.0
    for _ in range(samples):
        chosen = sorted(rng.choice(len(pool), size=sample_size, replace=False).tolist())
        subset = RankedList(inp.ranked_list.query_id, [pool[i] for i in chosen])
        subset_nqc = nqc(scores_of(subset), inp.collection_score, top_k=sample_size)
        model = build_relevance_model(index, subset, mu=mu)
        reranked = rm_rerank(model, head, index, depth=len(head), mu=mu)
        total += rbo_ext(head, reranked, rbo_params) * subset_nqc
    return total / samples


@st.composite
def uef_cases(draw):
    """Corpora of up to 70 short documents and runs over them, long enough for a pool beyond the head.

    Scores come from a few values, so runs tie; a run may hold a document
    the index lacks, at any rank.
    """
    size = draw(st.integers(1, 70))
    texts = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=5), min_size=size, max_size=size))
    items = [(f"d{i:02d}", " ".join(words)) for i, words in enumerate(texts)]
    run_ids = draw(st.permutations([doc_id for doc_id, _ in items]))[: draw(st.integers(1, size) | st.just(size))]
    if draw(st.integers(0, 3)) == 0:
        run_ids.insert(draw(st.integers(0, len(run_ids))), "unindexed")
    scores = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 4.0]), min_size=len(run_ids), max_size=len(run_ids)))
    run = RankedList.from_scores("q", zip(run_ids, scores))
    top_k = draw(st.integers(1, UEF_POOL_FLOOR - 1) | st.integers(UEF_POOL_FLOOR, 80))
    pool_size = min(len(run), max(top_k, UEF_POOL_FLOOR))
    return dict(
        index=build_index(items),
        inp=ListInput(run, draw(st.sampled_from([0.5, 2.0])), top_k=top_k),
        rng_seed=draw(st.integers(0, 2**32)),
        samples=draw(st.integers(1, 4)),
        sample_size=draw(st.integers(1, pool_size)),
        rbo_params=draw(st.sampled_from([RboParams(), RboParams(p=0.5, eval_depth=3)])),
        mu=draw(st.sampled_from([0.0, 0.5, 10.0, 1000.0])),
    )


class TestUefProperties:
    @settings(max_examples=300, deadline=None)
    @given(uef_cases())
    def test_equals_scripted_composition(self, case):
        try:
            want = scripted_uef(**case)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                uef_list(**case)
            assert str(raised.value) == str(exc)
            return
        assert uef_list(**case) == want

    def test_exact_path_runs_and_is_not_the_only_path(self, monkeypatch):
        # a filter that never fell back, or always did, would pass the property above unseen
        exact = []
        rm_rerank_exact = predictors._rm_rerank
        monkeypatch.setattr(predictors, "_rm_rerank", lambda *args: exact.append(1) or rm_rerank_exact(*args))
        subsets = []
        exact_subsets = []

        @settings(max_examples=150, deadline=None)
        @given(uef_cases())
        def check(case):
            try:
                want = scripted_uef(**case)
            except ValueError:
                return
            before = len(exact)
            assert uef_list(**case) == want
            subsets.append(case["samples"])
            exact_subsets.append(len(exact) - before)

        check()
        assert 0 < sum(exact_subsets) < sum(subsets)

    def test_unindexed_document_beyond_the_head(self):
        # the pool reaches past the 2-document head to a document the index lacks:
        # uef fails for exactly the seeds whose subsets draw it, and returns a value otherwise
        index = build_index(UEF_CORPUS)
        run = ranked("q", [("dA", 5.0), ("dB", 4.0), ("dC", 3.0), ("unindexed", 2.0)])
        inp = ListInput(run, 1.0, top_k=2)
        outcomes = set()
        for seed in range(20):
            try:
                want = scripted_uef(inp, index, seed, 2, 1, RboParams(), 1000.0)
            except ValueError:
                outcomes.add("raised")
                with pytest.raises(ValueError, match="sampled document 'unindexed' is not in the index"):
                    uef_list(inp, index, seed, 2, 1)
                continue
            outcomes.add("value")
            assert uef_list(inp, index, seed, 2, 1) == want
        assert outcomes == {"raised", "value"}


def fsum_order(addends, id_ranks):
    """The exact path's order: fsum per document, score descending, then id rank ascending."""
    return np.lexsort((id_ranks, -np.asarray([math.fsum(terms) for terms in addends]))).tolist()


def certified(addends, id_ranks, slack=0.0):
    """``_certified_order`` fed as ``uef`` feeds it: a floating-point sum and the sum of magnitudes per document."""
    scores = np.asarray([np.sum(terms) for terms in addends])
    magnitudes = np.asarray([np.sum(np.abs(terms)) for terms in addends])
    return _certified_order(scores, magnitudes, max(map(len, addends)), slack, np.asarray(id_ranks))


ONE_ULP_BELOW_ONE = math.nextafter(1.0, 0.0)


class TestCertifiedOrder:
    @pytest.mark.parametrize(
        "addends, id_ranks",
        [
            # approximate scores 1 ulp apart, in either id order
            ([[1.0], [ONE_ULP_BELOW_ONE]], [0, 1]),
            ([[ONE_ULP_BELOW_ONE], [1.0]], [0, 1]),
            ([[0.5, 0.5], [0.5, ONE_ULP_BELOW_ONE - 0.5]], [1, 0]),
            # cancellation: the first sums to 0.0 in floating point, exactly to 1.0, a tie broken by id rank
            ([[1e16, 1.0, -1e16], [1.0]], [0, 1]),
            ([[1e16, 1.0, -1e16], [1.0]], [1, 0]),
            ([[1e16, 1.0, -1e16], [0.5]], [1, 0]),
            # exact ties between identical documents
            ([[0.5, 0.25], [0.5, 0.25], [2.0]], [1, 0, 2]),
            ([[-3.0], [-3.0], [-3.0]], [2, 0, 1]),
            # non-finite scores
            ([[np.inf], [1.0]], [0, 1]),
            ([[np.nan], [1.0]], [0, 1]),
            ([[1.0], [-np.inf]], [1, 0]),
            ([[1e308, 1e308], [1.0]], [0, 1]),
        ],
    )
    def test_adversarial_inputs_take_the_exact_path(self, addends, id_ranks):
        # None sends the caller to the exact path, whose order is fsum's
        with np.errstate(over="ignore", invalid="ignore"):
            assert certified(addends, id_ranks) is None

    def test_cancellation_misorders_the_approximate_scores(self):
        # why the cancellation case above must fall back: the floating-point sums give the wrong order
        addends, id_ranks = [[1e16, 1.0, -1e16], [1.0]], [0, 1]
        approximate = np.lexsort((id_ranks, -np.asarray([np.sum(terms) for terms in addends]))).tolist()
        assert approximate == [1, 0] != fsum_order(addends, id_ranks) == [0, 1]

    @pytest.mark.parametrize("slack", [np.inf, np.nan])
    def test_non_finite_bound_takes_the_exact_path(self, slack):
        assert certified([[3.0, 0.5], [1.0]], [0, 1], slack=slack) is None

    def test_slack_widens_the_bound(self):
        # the bound E is about 2 * slack here, and the gap of 0.5 must exceed 2E
        assert certified([[1.0], [0.5]], [1, 0], slack=0.1).tolist() == [0, 1]
        assert certified([[1.0], [0.5]], [1, 0], slack=0.13) is None

    def test_separated_scores_keep_their_order(self):
        addends = [[1e-3, 2.0], [-5.0, 0.25], [3.0], [0.0, -0.0]]
        assert certified(addends, [3, 2, 1, 0]).tolist() == fsum_order(addends, [3, 2, 1, 0]) == [2, 0, 3, 1]

    def test_single_document(self):
        assert certified([[2.0, -1.0]], [0]).tolist() == [0]
        assert certified([[np.nan]], [0]) is None

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from([1e16, -1e16, 1.0, -1.0, 0.1, 0.2, 0.3, 1e-16, ONE_ULP_BELOW_ONE, 0.0])
                | st.floats(-1e6, 1e6, allow_nan=False),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_a_certified_order_is_fsums_order(self, addends, random_):
        id_ranks = list(range(len(addends)))
        random_.shuffle(id_ranks)
        order = certified(addends, id_ranks)
        if order is not None:
            assert order.tolist() == fsum_order(addends, id_ranks)

    def test_identical_documents_reach_the_exact_path_in_uef(self, monkeypatch):
        # dA and dF hold the same text, so every model scores them alike: each subset falls back
        index = build_index([*UEF_CORPUS, ("dF", UEF_CORPUS[0][1])])
        run = bm25_retrieve(index, ["apple", "orchard"], depth=10, query_id="q")
        inp = ListInput(run, 1.0, top_k=len(run))
        exact = []
        rm_rerank_exact = predictors._rm_rerank
        monkeypatch.setattr(predictors, "_rm_rerank", lambda *args: exact.append(args) or rm_rerank_exact(*args))
        got = uef_list(inp, index, rng_seed=3, samples=4, sample_size=2)
        assert len(exact) == 4
        monkeypatch.undo()
        assert got == scripted_uef(inp, index, 3, 4, 2, RboParams(), DEFAULT_MU)


class TestPredictorParams:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("top_k", 0), ("top_k", -3), ("uef_samples", 0), ("uef_sample_size", 0), ("mu", -5.0),
            ("mu", math.inf), ("mu", math.nan), ("k1", -1.0), ("k1", math.inf), ("k1", math.nan),
            ("b", -0.5), ("b", 1.5), ("b", math.nan),
        ],
    )
    def test_out_of_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be"):
            PredictorParams(**{name: value})

    def test_smallest_values_accepted(self):
        params = PredictorParams(top_k=1, uef_samples=1, uef_sample_size=1, mu=0.0)
        assert (params.top_k, params.uef_samples, params.uef_sample_size, params.mu) == (1, 1, 1, 0.0)


@st.composite
def target_cases(draw):
    """A target's external run over a corpus of short documents, some of them empty, and predictor knobs.

    The run may hold ids the corpus lacks and ids it repeats, at any rank,
    and its scores tie.
    """
    size = draw(st.integers(1, 70))
    texts = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=5), min_size=size, max_size=size))
    index = build_index([(f"d{i:02d}", " ".join(words)) for i, words in enumerate(texts)])
    ids = draw(st.permutations(index.item_ids))[: draw(st.integers(0, size))]
    for _ in range(draw(st.integers(0, 2))):
        ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(["unindexed", *ids[:3]])))
    scores = sorted(draw(st.lists(
        st.sampled_from([0.5, 1.0, 4.0]) | st.floats(-1e3, 1e3), min_size=len(ids), max_size=len(ids),
    )), reverse=True)
    params = PredictorParams(
        top_k=draw(st.integers(1, 80)), uef_samples=draw(st.integers(1, 3)), uef_sample_size=draw(st.integers(1, 30)),
        mu=draw(st.sampled_from([0.0, 10.0, DEFAULT_MU])),
    )
    return index, RankedList("t", list(zip(ids, scores))), params


def outcome(evaluate):
    try:
        return evaluate()
    except ValueError as exc:
        return f"error: {exc}"


class TestPredictorContext:
    def test_nqc_evaluation_and_cache(self):
        index = build_index(CORPUS_5)
        run = bm25_retrieve(index, ["solar", "panel"], depth=5, query_id="q")
        ctx = PredictorContext(index=index)
        first = ctx.evaluate("nqc", ordinal_run(index, run), ["solar", "panel"], "q", RboParams())
        second = ctx.evaluate("nqc", ordinal_run(index, run), ["solar", "panel"], "q", RboParams())
        assert first == second
        expected = nqc(scores_of(run), collection_score(index, ["solar", "panel"]), top_k=100)
        assert first == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(target_cases(), st.sampled_from(["nqc", "uef"]), st.lists(st.sampled_from(WORDS), max_size=3), st.booleans())
    def test_a_target_run_evaluates_as_its_scores_and_its_ranked_list(self, case, base, terms, named):
        index, run, params = case
        ordinals, _ = ordinal_run(index, run)
        # the index names a document it holds by the same id, so only a run that holds -1 must name its own
        doc_id = run.doc_ids().__getitem__ if named or (ordinals < 0).any() else None
        ctx = PredictorContext(index, params, seed=3)

        def reference(ranked):
            cscore = collection_score(index, terms)
            pool = min(len(ranked), max(params.top_k, UEF_POOL_FLOOR))
            if base == "nqc":
                return outcome(lambda: nqc(scores_of(ranked), cscore, params.top_k))
            if params.uef_sample_size > pool:  # the scripted protocol cannot draw the sample at all
                return f"error: sample_size {params.uef_sample_size} exceeds the {pool} available documents"
            return outcome(lambda: scripted_uef(
                ListInput(ranked, cscore, params.top_k), index, derive_seed(3, "t"), params.uef_samples,
                params.uef_sample_size, RboParams(), params.mu,
            ))

        want = reference(run)
        assert outcome(lambda: ctx.evaluate(base, ordinal_run(index, run), terms, "t", RboParams(), doc_id)) == want
        if not isinstance(want, str):  # a second evaluation of an equal run is a memo hit, of other scores a miss
            assert ctx.evaluate(base, ordinal_run(index, run), terms, "t", RboParams(), doc_id) == want
            assert len(ctx._cache) == 1
            # no drawn score (within 1e3) maps to itself
            scaled = RankedList("t", [(doc, score * 2.0 - 5e3) for doc, score in run.entries])
            got = outcome(lambda: ctx.evaluate(base, ordinal_run(index, scaled), terms, "t", RboParams(), doc_id))
            assert got == reference(scaled) and len(ctx._cache) == 2

    def test_uef_seed_derivation_is_stable(self):
        index, inp = uef_fixture_input()
        params = PredictorParams(top_k=10, uef_samples=2, uef_sample_size=2)
        ctx_a = PredictorContext(index=index, params=params, seed=5)
        ctx_b = PredictorContext(index=index, params=params, seed=5)
        terms = ["apple", "banana"]
        run = ordinal_run(index, inp.ranked_list)
        assert ctx_a.evaluate("uef", run, terms, "q1", RboParams()) == ctx_b.evaluate(
            "uef", run, terms, "q1", RboParams()
        )
        assert derive_seed(5, "q1") == derive_seed(5, "q1")
        assert derive_seed(5, "q1") != derive_seed(5, "q2")

    def test_memo_is_keyed_by_rbo_params(self):
        index, inp = uef_fixture_input()
        ctx = PredictorContext(index=index, params=PredictorParams(top_k=10, uef_samples=4, uef_sample_size=2), seed=5)
        rbos = (RboParams(p=0.9), RboParams(p=0.5))
        run = ordinal_run(index, inp.ranked_list)
        values = [ctx.evaluate("uef", run, ["apple", "banana"], "q1", rbo) for rbo in rbos]
        assert values == [uef_list(inp, index, derive_seed(5, "q1"), 4, 2, rbo_params=rbo) for rbo in rbos]
        assert values[0] != values[1] and len(ctx._cache) == 2

    def test_unknown_base_rejected(self):
        index = build_index(CORPUS_5)
        run = bm25_retrieve(index, ["solar"], depth=5, query_id="q")
        with pytest.raises(ValueError, match="unknown base"):
            PredictorContext(index=index).evaluate("wig", ordinal_run(index, run), ["solar"], "q", RboParams())
