"""Query-variant retrieval and predictor smoothing.

The pipeline for one target query:

1. retrieve a candidate pool of similar training queries directly
   (1-hop), via BM25 over the indexed query collection or cosine kNN
   over precomputed query embeddings;
2. optionally expand the pool through the judged relevant documents of
   the 1-hop candidates: each relevant document becomes a pseudo-query,
   its highest-TF terms read from its document-index row, that retrieves
   further training queries (2-hop);
3. re-rank the merged pool by the rank-biased overlap between each
   candidate's document ranking and the target's, both produced by the
   internal BM25 retriever and kept as document ordinals, with the whole
   pool scored in one pass, and keep the best k;
4. evaluate the base predictor once on the target run and on each kept
   candidate's internal run (the phi table of :func:`base_predictions`),
   then blend the target's estimate with the overlap-weighted average of
   the candidates' estimates by plain arithmetic over that table, so a
   (lambda, k) grid re-runs no predictor.

Every stage reads its inputs (indexes, training queries and qrels,
embedding store, BM25 and predictor knobs, seed), both retrieval memos
and the base predictor from one :class:`PipelineResources`, which holds
each once, so no memo is read against an index or ``k1``/``b`` other
than those that filled it. RBO parameters come from :class:`QppConfig`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from .corpus_io import Qrels, Query, RankedList
from .dense_index import EmbeddingStore, knn_cosine
from .predictors import PredictorContext, PredictorParams
from .rank_sim import RboParams, rbo_pool
from .text_index import (
    InvertedIndex, OrdinalRun, bm25_ordinals, bm25_retrieve, pseudo_query_terms, ranked_list, tokenize,
)

logger = logging.getLogger(__name__)

RETRIEVER_BM25 = "bm25"
RETRIEVER_DENSE = "dense"

BASE_PREDICTORS = ("nqc", "uef")

@dataclass
class QVCandidate:
    """One retrieved variant of the target query."""

    query: Query
    hop: int
    retrieval_score: float
    rbo: Optional[float] = None
    internal_run: Optional[RankedList] = None


@dataclass
class QVSet:
    """The variant candidates of one target query, in pipeline order."""

    target_query_id: str
    candidates: list[QVCandidate]

    def __post_init__(self) -> None:
        ids = [c.query.id for c in self.candidates]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate variant ids in QV set")
        if self.target_query_id in ids:
            raise ValueError("target query must never appear among its own variants")

    def query_ids(self) -> list[str]:
        return [c.query.id for c in self.candidates]

    def top(self, k: int) -> "QVSet":
        return QVSet(self.target_query_id, list(self.candidates[:k]))


@dataclass
class QppConfig:
    """All tunables of the smoothing estimator and the variant retrieval."""

    lam: float = 0.5
    k: int = 1
    n: int = 100
    query_retriever: str = RETRIEVER_BM25
    use_2hop: bool = True
    pseudo_query_m: int = 20
    rbo_params: RboParams = field(default_factory=RboParams)
    base: str = "nqc"
    internal_depth: int = 100

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n <= self.k:
            raise ValueError(f"candidate pool n ({self.n}) must exceed k ({self.k})")
        if self.query_retriever not in (RETRIEVER_BM25, RETRIEVER_DENSE):
            raise ValueError(f"unknown query retriever {self.query_retriever!r}")
        if self.base not in BASE_PREDICTORS:
            raise ValueError(f"unknown base predictor {self.base!r}")
        if self.pseudo_query_m < 1:
            raise ValueError(f"pseudo_query_m must be >= 1, got {self.pseudo_query_m}")
        if self.internal_depth < 1:
            raise ValueError(f"internal_depth must be >= 1, got {self.internal_depth}")


@dataclass
class PipelineResources:
    """The fixed training set that every variant stage reads, its base predictor and two retrieval memos.

    Every stage takes its indexes, training queries and qrels, embedding
    store, BM25 ``params.k1``/``params.b`` and both memos from one of these
    objects, and :func:`base_predictions` its ``predictor``, the one
    :class:`PredictorContext` over ``doc_index``, ``params`` and ``seed``.
    No stage reads a document's text: a pseudo-query comes from the
    document's row in ``doc_index``.

    ``internal_runs`` maps (query text, internal_depth) to that text's
    internal BM25 run over ``doc_index``, for targets and candidates
    alike; ``pseudo_query_hits`` maps (doc id, pseudo_query_m, n) to the
    training queries that the document's pseudo-query retrieves over
    ``query_index``. An entry depends only on its key, not on the target
    being processed, so each is computed once and kept, as the index's
    ordinals (int32) plus a float64 array of scores, for the life of this
    object. Their size is bounded by the data: one entry per distinct query text and depth,
    one per judged document and (m, n). Both fill lazily and, like
    ``predictor``, are not init fields: ``dataclasses.replace`` starts all
    three empty, as it must when it swaps an index or ``params``.
    """

    doc_index: InvertedIndex
    query_index: InvertedIndex
    training_queries: Mapping[str, Query]
    training_qrels: Qrels
    embedding_store: Optional[EmbeddingStore] = None
    params: PredictorParams = field(default_factory=PredictorParams)
    seed: int = 0
    internal_runs: dict[tuple[str, int], OrdinalRun] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    pseudo_query_hits: dict[tuple[str, int, int], OrdinalRun] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    predictor: PredictorContext = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.predictor = PredictorContext(self.doc_index, self.params, self.seed)


def retrieve_1hop(target: Query, config: QppConfig, res: PipelineResources) -> QVSet:
    """Top-n training queries most similar to the target (hop 1).

    Training queries whose tokenization is identical to the target's are
    excluded (a verbatim copy would dominate the overlap re-ranking). In
    dense mode ``res.embedding_store`` must be loaded and hold a vector
    for the target id, and only ids present in ``res.training_queries``
    are eligible.
    """
    target_tokens = tokenize(target.text)
    if config.query_retriever == RETRIEVER_BM25:
        retrieved = bm25_retrieve(
            res.query_index, target_tokens, depth=max(config.n, res.query_index.size, 1),
            k1=res.params.k1, b=res.params.b, query_id=target.id,
        )
    else:
        store = res.embedding_store
        if store is None:
            raise ValueError("dense query retriever configured but no embedding store loaded")
        if target.id not in store:
            raise ValueError(f"no embedding for target query {target.id!r}")
        exclude = {i for i in store.ids if i not in res.training_queries}
        exclude.add(target.id)
        retrieved = knn_cosine(
            store, store.vector(target.id), depth=len(store), exclude=exclude, query_id=target.id,
        )
    candidates: list[QVCandidate] = []
    for qid, score in retrieved.entries:
        if qid == target.id:
            continue
        training_query = res.training_queries[qid]
        if tokenize(training_query.text) == target_tokens:
            continue
        candidates.append(QVCandidate(query=training_query, hop=1, retrieval_score=score))
        if len(candidates) == config.n:
            break
    return QVSet(target.id, candidates)


def expand_2hop(one_hop: QVSet, config: QppConfig, res: PipelineResources) -> QVSet:
    """Union the 1-hop set with queries reached through relevant documents.

    For every judged-relevant document (grade >= 1 in
    ``res.training_qrels``) of every 1-hop candidate, a highest-TF
    pseudo-query, read from the document's row in ``res.doc_index`` by
    :func:`pseudo_query_terms`, retrieves a further top-n training
    queries over ``res.query_index`` (the 2-hop path is always lexical:
    pseudo-queries have no embeddings). Duplicates keep the lowest hop
    tag; a relevant document missing from ``res.doc_index`` (which the
    CLI ties to the collection) is skipped with a warning.

    A document's retrieval does not depend on the target, so it is
    memoized in ``res.pseudo_query_hits``. Target exclusion,
    de-duplication and hop tags are applied per call, so the result does
    not depend on reuse.
    """
    merged = list(one_hop.candidates)
    seen = {c.query.id for c in merged}
    for candidate in one_hop.candidates:
        judged = res.training_qrels.get(candidate.query.id, {})
        relevant_ids = sorted(doc_id for doc_id, grade in judged.items() if grade >= 1)
        for doc_id in relevant_ids:
            doc_ordinal = res.doc_index.ordinal_of.get(doc_id)
            if doc_ordinal is None:
                logger.warning(
                    "relevant document %r of training query %r missing from collection; skipped",
                    doc_id, candidate.query.id,
                )
                continue
            key = (doc_id, config.pseudo_query_m, config.n)
            found = res.pseudo_query_hits.get(key)
            if found is None:
                terms = pseudo_query_terms(res.doc_index, doc_ordinal, config.pseudo_query_m)
                found = res.pseudo_query_hits[key] = bm25_ordinals(
                    res.query_index, terms, depth=config.n, k1=res.params.k1, b=res.params.b
                )
            ordinals, scores = found
            for ordinal, score in zip(ordinals.tolist(), scores.tolist()):
                qid = res.query_index.item_ids[ordinal]
                if qid == one_hop.target_query_id or qid in seen:
                    continue
                seen.add(qid)
                merged.append(
                    QVCandidate(query=res.training_queries[qid], hop=2, retrieval_score=score)
                )
    return QVSet(one_hop.target_query_id, merged)


def _internal_run(text: str, config: QppConfig, res: PipelineResources) -> OrdinalRun:
    """The internal BM25 run of a query text over ``res.doc_index``, memoized in ``res.internal_runs``."""
    key = (text, config.internal_depth)
    run = res.internal_runs.get(key)
    if run is None:
        run = res.internal_runs[key] = bm25_ordinals(
            res.doc_index, tokenize(text), depth=config.internal_depth, k1=res.params.k1, b=res.params.b
        )
    return run


def rerank_by_rbo(merged: QVSet, target: Query, config: QppConfig, res: PipelineResources) -> QVSet:
    """Keep the k candidates whose internal document rankings best overlap the target's.

    The target and each candidate retrieve their internal run over
    ``res.doc_index`` at ``internal_depth``, as ordinals and scores
    memoized by query text; one :func:`rbo_pool` pass then scores the
    whole pool against the target's run, and candidates with an empty
    run get overlap 0. Ties break by (hop ascending, query id
    ascending). Only the k survivors carry their run, as a RankedList.
    """
    target_ordinals, _ = _internal_run(target.text, config, res)
    pool = [_internal_run(candidate.query.text, config, res) for candidate in merged.candidates]
    overlaps = rbo_pool(target_ordinals, [ordinals for ordinals, _ in pool], res.doc_index.size, config.rbo_params)
    scored = sorted(
        zip(overlaps, merged.candidates, pool), key=lambda row: (-row[0], row[1].hop, row[1].query.id)
    )
    kept = [
        replace(candidate, rbo=overlap, internal_run=ranked_list(res.doc_index, run, candidate.query.id))
        for overlap, candidate, run in scored[: config.k]
    ]
    return QVSet(merged.target_query_id, kept)


def base_predictions(
    target: Query,
    target_run: RankedList,
    qv_set: QVSet,
    config: QppConfig,
    res: PipelineResources,
) -> dict[str, float]:
    """The phi table of one target: base predictions keyed by query id.

    Holds phi(target run) under ``target_run.query_id`` and, only when
    ``config.lam > 0``, phi of each candidate with a positive overlap
    under its query id, evaluated in candidate order on its internal run.
    A zero-weight candidate is never evaluated, so its (possibly empty)
    run is never read. Computed at the largest lambda and k of a grid,
    the table serves every smaller (lambda, k) of :func:`smooth_qpp`.
    """
    phi = {
        target_run.query_id: res.predictor.evaluate(
            config.base, target_run, tokenize(target.text), target_run.query_id, config.rbo_params
        )
    }
    if config.lam > 0.0:
        for candidate in qv_set.candidates:
            if candidate.rbo > 0.0:
                phi[candidate.query.id] = res.predictor.evaluate(
                    config.base, candidate.internal_run, tokenize(candidate.query.text), candidate.query.id,
                    config.rbo_params,
                )
    return phi


def smooth_qpp(
    target_run: RankedList,
    qv_set: QVSet,
    config: QppConfig,
    phi: Mapping[str, float],
) -> float:
    """(1 - lambda) * phi(target) + lambda * sum_i (rbo_i / sum rbo) * phi(variant_i).

    ``qv_set`` comes from :func:`rerank_by_rbo`, so every candidate
    carries its overlap; ``phi`` is a table from :func:`base_predictions`
    over the same or a longer variant set (built at a lambda > 0 unless
    this lambda is 0), so smoothing is arithmetic only. Falls back to the plain base prediction when the
    variant set is empty, every overlap weight is zero or lambda is zero.
    """
    phi_target = phi[target_run.query_id]
    weight_sum = sum(c.rbo for c in qv_set.candidates)
    if not qv_set.candidates or weight_sum <= 0.0:
        return phi_target
    if config.lam == 0.0:
        return phi_target
    smoothed = 0.0
    for candidate in qv_set.candidates:
        if candidate.rbo == 0.0:
            continue
        smoothed += candidate.rbo / weight_sum * phi[candidate.query.id]
    return (1.0 - config.lam) * phi_target + config.lam * smoothed


def build_qv_set(target: Query, config: QppConfig, res: PipelineResources) -> QVSet:
    """Run 1-hop retrieval, optional 2-hop expansion and RBO re-ranking."""
    merged = retrieve_1hop(target, config, res)
    if config.use_2hop:
        merged = expand_2hop(merged, config, res)
    return rerank_by_rbo(merged, target, config, res)


def predict_query(
    target: Query,
    target_run: RankedList,
    config: QppConfig,
    res: PipelineResources,
) -> float:
    """Full smoothed estimate for one target query and its external run."""
    qv_set = build_qv_set(target, config, res)
    return smooth_qpp(target_run, qv_set, config, base_predictions(target, target_run, qv_set, config, res))
