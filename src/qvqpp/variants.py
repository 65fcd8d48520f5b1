"""Query-variant retrieval and predictor smoothing.

The pipeline for one target query:

1. retrieve a candidate pool of similar training queries directly
   (1-hop), via BM25 over the indexed query collection or cosine kNN
   over precomputed query embeddings. The retriever is asked for n plus
   :data:`ONE_HOP_MARGIN` hits, and for its whole ranking only when the
   target and its verbatim copies leave fewer than n;
2. optionally expand the pool through the judged relevant documents of
   the 1-hop candidates: each relevant document becomes a pseudo-query,
   its highest-TF terms read from its document-index row, that retrieves
   further training queries (2-hop);
3. re-rank the merged pool by the rank-biased overlap between each
   candidate's document ranking and the target's, both produced by the
   internal BM25 retriever and kept as document ordinals, and keep the
   best k. The candidates' runs live only in one :class:`RunTable` per
   internal depth, a row per query-index ordinal, filled the first time a
   pool gathers it. :func:`~qvqpp.rank_sim.rbo_top_k` gives every row of
   the pool a closed-form approximation of its overlap with a derived
   error bound E, keeps the rows within 2E of the k-th largest (those
   that can reach the top k) and scores only them exactly, with the
   kernel of :func:`~qvqpp.rank_sim.rbo_rows`, so the k kept and their
   overlaps are those of scoring the whole pool;
4. evaluate the base predictor on the target run, and take each kept
   candidate's phi, the base prediction of its internal run (its run-table
   row), from the :class:`PhiTable` of the base and the settings it reads
   (:data:`~qvqpp.predictors.BASE_INPUTS`), evaluating it only the first
   time any target keeps that candidate (the phi table of
   :func:`base_predictions`); then blend the
   target's estimate with the overlap-weighted average of the candidates'
   estimates (:func:`variant_mean`, :func:`smooth_qpp`) by plain arithmetic
   over that table. A (lambda, k) grid re-runs no predictor and, as that
   average does not depend on lambda, takes it once per k.

Steps 1 to 3 pass the pool as one :class:`VariantPool` of arrays
(query-index ordinals, hops, retrieval scores): target exclusion,
de-duplication and the verbatim-copy filter are masks over it, a
training query's text is read by its ordinal, and a :class:`QVCandidate`
(with its :class:`Query`) is built only for each of the k survivors of
step 3.

Every stage reads its inputs (indexes, training texts and qrels,
embedding store, BM25 and predictor knobs, seed), its memo, run tables
and base predictor from one :class:`PipelineResources`, which holds each
once, so no memo or table is read against an index or ``k1``/``b`` other
than those that filled it. RBO parameters come from :class:`QppConfig`.
The target-independent memos, the run tables, the pseudo-query hits and
the phi tables, are keyed by index ordinal, as their run stores beside
the index are, so the CLI adopts and writes them across commands with no
translation of ids.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from .artifacts import StoredRuns
from .config import RETRIEVER_BM25, PredictorParams, QppConfig, RboParams
from .corpus_io import Qrels, Query, RankedList
from .predictors import BASE_INPUTS, PredictorContext
from .rank_sim import rbo_top_k
from .text_index import InvertedIndex, OrdinalRun, bm25_ordinals, pseudo_query_terms, tokenize
from .text_index import bm25_retrieve  # noqa: F401  bound here for callers that read it from this module

if TYPE_CHECKING:  # the dense layer loads only on the dense path
    from .dense_index import EmbeddingStore

logger = logging.getLogger(__name__)

# 1-hop retrieval asks for this many hits beyond n, so that the target and a few verbatim copies of it
# can be dropped without asking for the whole ranking.
ONE_HOP_MARGIN = 8

@dataclass(repr=False, eq=False)
class QVCandidate:
    """One kept variant of the target query: a survivor of :func:`rerank_by_rbo`.

    Only the k survivors are built as objects (a pool entry is a row of
    :class:`VariantPool`'s arrays), each with its overlap ``rbo`` and its
    internal run as views of its run-table row (``doc_index`` ordinals and
    scores; read it as ids with :func:`~qvqpp.text_index.ranked_list`).
    :attr:`VariantPool.candidates` also builds them, without ``rbo`` and
    run, for inspection.
    """

    query: Query
    hop: int
    retrieval_score: float
    rbo: Optional[float] = None
    internal_run: Optional[OrdinalRun] = None


class QVSet:
    """The kept variants of one target query, best first: the output of :func:`rerank_by_rbo`.

    It holds at most k candidates; the pool they were chosen from is a
    :class:`VariantPool`. A duplicate id or the target among its own
    variants is a ValueError, as in a pool.
    """

    def __init__(self, target_query_id: str, candidates: list[QVCandidate]) -> None:
        self.target_query_id, self.candidates = target_query_id, candidates
        ids = [c.query.id for c in candidates]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate variant ids in QV set")
        if target_query_id in ids:
            raise ValueError("target query must never appear among its own variants")

    def query_ids(self) -> list[str]:
        return [c.query.id for c in self.candidates]

    def top(self, k: int) -> "QVSet":
        return QVSet(self.target_query_id, list(self.candidates[:k]))


class RunTable:
    """The internal runs of the training queries at one depth, a row per query-index ordinal.

    Row ``o`` holds the run of query ``query_index.item_ids[o]``: its
    document ordinals ``ordinals[o, :lengths[o]]`` (int32, best first) and
    scores ``scores[o, :lengths[o]]`` (float64), then -1 and 0.0 up to the
    width: the depth, or the document count if smaller, as no run is longer.
    ``lengths[o]`` is -1 while the row is not yet filled. The two run arrays
    are not initialised: a row, padding included, is written when filled.
    """

    def __init__(self, rows: int, width: int) -> None:
        self.ordinals = np.empty((rows, width), dtype=np.int32)
        self.scores = np.empty((rows, width), dtype=np.float64)
        self.lengths = np.full(rows, -1, dtype=np.int64)

    @property
    def width(self) -> int:
        return self.ordinals.shape[1]

    @property
    def filled(self) -> int:
        """How many rows are filled."""
        return int(np.count_nonzero(self.lengths >= 0))

    def fill(self, row: int, run: OrdinalRun) -> None:
        """Write ``run`` (at most the width long) and its padding into ``row``."""
        ordinals, scores = run
        n = len(ordinals)
        self.ordinals[row, :n], self.ordinals[row, n:] = ordinals, -1
        self.scores[row, :n], self.scores[row, n:] = scores, 0.0
        self.lengths[row] = n

    def adopt(self, runs: StoredRuns) -> None:
        """Fill the rows ``runs.keys`` with their stored runs (each at most the width long) and padding."""
        lengths = np.diff(runs.ptr)
        self.ordinals[runs.keys] = -1
        self.scores[runs.keys] = 0.0
        # each entry's position in the flattened table: its row's start, then its place in the run
        at = np.repeat(runs.keys * self.width - runs.ptr[:-1], lengths)
        at += np.arange(len(at))
        self.ordinals.reshape(-1)[at] = runs.ordinals
        self.scores.reshape(-1)[at] = runs.scores
        self.lengths[runs.keys] = lengths

    def members(self) -> dict[str, np.ndarray]:
        """The filled rows and their runs, by ascending row, as the members of a :class:`StoredRuns`."""
        return vars(StoredRuns.of({row: self.run(row) for row in np.flatnonzero(self.lengths >= 0).tolist()}))

    def run(self, row: int) -> OrdinalRun:
        """The filled run of ``row``, as views of the table."""
        n = int(self.lengths[row])
        return self.ordinals[row, :n], self.scores[row, :n]


class PhiTable:
    """The base predictions of the training queries' internal runs under one base and the settings it reads.

    ``values[o]`` is phi of the internal run of query-index ordinal ``o``
    (float64), NaN while unknown: the array of a
    :func:`~qvqpp.artifacts.variant_phi` store. A value depends only on its
    query and those settings, never on a target, so it is evaluated once;
    only a finite value is kept, as NaN marks an unknown one and a store
    refuses an infinite one.
    """

    def __init__(self, rows: int) -> None:
        self.values = np.full(rows, np.nan)

    @property
    def filled(self) -> int:
        """How many values are known."""
        return int(np.count_nonzero(~np.isnan(self.values)))

    def adopt(self, values: np.ndarray) -> None:
        """Take ``values`` (a stored array of the same length) as the table, without a copy."""
        self.values = values

    def members(self) -> dict[str, np.ndarray]:
        return {"phi": self.values}


class HitMap(dict):
    """A judged document's ``doc_index`` ordinal -> the training queries its pseudo-query retrieves under one
    (pseudo_query_m, n), as ``query_index`` ordinals (int32) and float64 scores."""

    @property
    def filled(self) -> int:
        return len(self)

    def adopt(self, runs: StoredRuns) -> None:
        """Take the stored hits of the documents ``runs.keys``, as views of the stored arrays."""
        self.update(runs.by_row())

    def members(self) -> dict[str, np.ndarray]:
        return vars(StoredRuns.of(self))


@dataclass(repr=False, eq=False)
class PipelineResources:
    """The fixed training set that every variant stage reads, its base predictor, memo and run tables.

    Every stage takes its indexes, training texts and qrels, embedding
    store, BM25 ``params.k1``/``params.b``, memo and tables from one of
    these objects, and :func:`base_predictions` its ``predictor``, the one
    :class:`PredictorContext` over ``doc_index``, ``params`` and ``seed``.
    ``training_texts[o]`` is the text of training query
    ``query_index.item_ids[o]``: the query index names the training
    queries, so a length other than its size is a ValueError. No stage
    reads a document's text: a pseudo-query comes from the document's row
    in ``doc_index``.

    ``pseudo_query_hits[(pseudo_query_m, n)]`` is the :class:`HitMap` of
    the judged documents' pseudo-queries under (m, n). An entry depends only
    on its keys, so it is computed once: one per judged document and (m, n).

    ``run_tables`` maps internal_depth to the :class:`RunTable` of the
    training queries' internal BM25 runs over ``doc_index``, a row per
    ``query_index`` ordinal: the one store of those runs in a process.

    ``phi_tables`` maps (base, internal_depth, RBO parameters or None when
    the base reads none) to the :class:`PhiTable` that
    :func:`base_predictions` reads each kept variant's phi from, a value
    per ``query_index`` ordinal, over ``predictor``; ``phi_reads`` counts
    the values read from them.

    ``missing_documents`` holds the judged documents that 2-hop expansion
    found missing from ``doc_index``, so each is warned about once.

    The memo, tables, count and that set fill lazily and, like
    ``predictor``, are not init fields: ``dataclasses.replace`` starts them
    all empty, as it must when it swaps an index, ``params`` or ``seed``.
    A hit map or table adopts rows computed earlier over the same indexes,
    ``params`` and ``seed``, the bytes a call would compute, and gives its
    rows back as ``members()`` for a :class:`~qvqpp.artifacts.RunStore`.
    """

    doc_index: InvertedIndex
    query_index: InvertedIndex
    training_texts: Sequence[str]
    training_qrels: Qrels
    embedding_store: Optional[EmbeddingStore] = None
    params: PredictorParams = field(default_factory=PredictorParams)
    seed: int = 0
    pseudo_query_hits: dict[tuple[int, int], HitMap] = field(default_factory=dict, init=False)
    run_tables: dict[int, RunTable] = field(default_factory=dict, init=False)
    phi_tables: dict[tuple[str, int, RboParams | None], PhiTable] = field(default_factory=dict, init=False)
    phi_reads: int = field(default=0, init=False)
    missing_documents: set[str] = field(default_factory=set, init=False)
    predictor: PredictorContext = field(init=False)

    def __post_init__(self) -> None:
        if len(self.training_texts) != self.query_index.size:
            raise ValueError(
                f"{len(self.training_texts)} training texts for the {self.query_index.size} queries of the query index"
            )
        self.predictor = PredictorContext(self.doc_index, self.params, self.seed)

    def run_table(self, depth: int) -> RunTable:
        """The run table of internal depth ``depth``, empty when first asked for."""
        table = self.run_tables.get(depth)
        if table is None:
            table = self.run_tables[depth] = RunTable(self.query_index.size, min(depth, self.doc_index.size))
        return table

    def hit_map(self, m: int, n: int) -> HitMap:
        """The hit map of pseudo-queries of ``m`` terms and ``n`` hits, empty when first asked for."""
        return self.pseudo_query_hits.setdefault((m, n), HitMap())

    def phi_table(self, base: str, depth: int, rbo_params: RboParams) -> PhiTable:
        """The phi table of ``base`` over internal runs of depth ``depth``, empty when first asked for.

        ``params`` and ``seed`` are fixed here, so of its inputs (:data:`~qvqpp.predictors.BASE_INPUTS`) a base's
        table is keyed by the depth and, only if the base reads them, the RBO parameters.
        """
        key = (base, depth, rbo_params if "qpp.rbo_p" in BASE_INPUTS[base] else None)
        table = self.phi_tables.get(key)
        if table is None:
            table = self.phi_tables[key] = PhiTable(self.query_index.size)
        return table


class VariantPool:
    """The variant candidates of one target before re-ranking: parallel arrays in pipeline order.

    Entry i is the training query of ``res.query_index`` ordinal
    ``ordinals[i]`` (int64), reached at hop ``hops[i]`` (int64, 1 or 2)
    with retrieval score ``scores[i]`` (float64). The ordinals are distinct
    and never the target's: both are checked as array operations, and
    either fault is a ValueError, as in a :class:`QVSet`. No object exists
    per entry; :attr:`candidates` builds them all on first read, for
    inspection only.
    """

    def __init__(
        self, target_query_id: str, ordinals: np.ndarray, hops: np.ndarray, scores: np.ndarray, res: PipelineResources
    ) -> None:
        self.target_query_id, self.res = target_query_id, res
        self.ordinals, self.hops, self.scores = ordinals, hops, scores
        ordered = np.sort(ordinals)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("duplicate variant ids in QV set")
        target = res.query_index.ordinal_of.get(target_query_id)
        if target is not None and np.any(ordinals == target):
            raise ValueError("target query must never appear among its own variants")

    def query_ids(self) -> list[str]:
        item_ids = self.res.query_index.item_ids
        return [item_ids[ordinal] for ordinal in self.ordinals.tolist()]

    @cached_property
    def candidates(self) -> list[QVCandidate]:
        """The entries as :class:`QVCandidate` objects (no overlap or run), in pool order."""
        item_ids, texts = self.res.query_index.item_ids, self.res.training_texts
        return [
            QVCandidate(Query(item_ids[row], texts[row]), hop, score)
            for row, hop, score in zip(self.ordinals.tolist(), self.hops.tolist(), self.scores.tolist())
        ]


def _ranking(target: Query, tokens: list[str], depth: int, config: QppConfig, res: PipelineResources):
    """The first ``depth`` hits of the target's 1-hop ranking as ``res.query_index`` ordinals and scores.

    A dense hit that is no training query (not in the query index) gets ordinal -1.
    """
    if config.query_retriever == RETRIEVER_BM25:
        ordinals, scores = bm25_ordinals(res.query_index, tokens, depth=depth, k1=res.params.k1, b=res.params.b)
        return ordinals.astype(np.int64), scores
    from .dense_index import knn_cosine

    ranked = knn_cosine(
        res.embedding_store, res.embedding_store.vector(target.id), depth=depth, exclude=(target.id,),
        query_id=target.id,
    )
    ordinal_of = res.query_index.ordinal_of
    ordinals = [ordinal_of.get(qid, -1) for qid, _ in ranked.entries]
    return np.array(ordinals, dtype=np.int64), np.array(ranked.scores(), dtype=np.float64)


def _variant_positions(ordinals: np.ndarray, target: Query, tokens: list[str], res: PipelineResources) -> np.ndarray:
    """Positions of the hits that may be variants: training queries, neither the target nor a verbatim copy.

    A copy has the target's token count, so only a hit of that length is
    tokenized.
    """
    index = res.query_index
    keep = ordinals >= 0
    target_ordinal = index.ordinal_of.get(target.id)
    if target_ordinal is not None:
        keep &= ordinals != target_ordinal
    for i in np.flatnonzero(keep & (index.lengths[ordinals] == len(tokens))).tolist():
        keep[i] = tokenize(res.training_texts[ordinals[i]]) != tokens
    return np.flatnonzero(keep)


def retrieve_1hop(target: Query, config: QppConfig, res: PipelineResources) -> VariantPool:
    """Top-n training queries most similar to the target (hop 1).

    Training queries whose tokenization is identical to the target's are
    excluded (a verbatim copy would dominate the overlap re-ranking), as
    is the target itself. The retriever is asked for n +
    :data:`ONE_HOP_MARGIN` hits, and for its whole ranking only when those
    exclusions leave fewer than n; a ranking's first d hits are the same
    at every depth, so the pool is the one the whole ranking gives. In
    dense mode ``res.embedding_store`` must be loaded and hold a vector
    for the target id, and only ids of the query index are eligible.
    """
    if config.query_retriever == RETRIEVER_BM25:
        whole = res.query_index.size
    else:
        store = res.embedding_store
        if store is None:
            raise ValueError("dense query retriever configured but no embedding store loaded")
        if target.id not in store:
            raise ValueError(f"no embedding for target query {target.id!r}")
        whole = len(store)
    tokens = tokenize(target.text)
    depth = config.n + ONE_HOP_MARGIN
    ordinals, scores = _ranking(target, tokens, depth, config, res)
    kept = _variant_positions(ordinals, target, tokens, res)[: config.n]
    if len(kept) < config.n and len(ordinals) == depth < whole:
        ordinals, scores = _ranking(target, tokens, whole, config, res)
        kept = _variant_positions(ordinals, target, tokens, res)[: config.n]
    return VariantPool(target.id, ordinals[kept], np.ones(len(kept), dtype=np.int64), scores[kept], res)


def expand_2hop(one_hop: VariantPool, config: QppConfig, res: PipelineResources) -> VariantPool:
    """Union the 1-hop pool with queries reached through relevant documents.

    For every judged-relevant document (grade >= 1 in
    ``res.training_qrels``) of every 1-hop candidate, a highest-TF
    pseudo-query, read from the document's row in ``res.doc_index`` by
    :func:`pseudo_query_terms`, retrieves a further top-n training
    queries over ``res.query_index`` (the 2-hop path is always lexical:
    pseudo-queries have no embeddings). Duplicates keep the lowest hop
    tag; a relevant document missing from ``res.doc_index`` (which the
    CLI ties to the collection) is skipped, with a warning the first time
    ``res`` meets it.

    A document's retrieval does not depend on the target, so it is
    memoized in ``res.hit_map(pseudo_query_m, n)`` under the
    document's ``doc_index`` ordinal. Target exclusion,
    de-duplication and hop tags are applied per call, as masks over the
    joined hit arrays, so the result does not depend on reuse: the hit
    lists are joined in (candidate, document id) order and the first hit
    of each query that is neither the target nor a 1-hop candidate is
    kept, with its score.
    """
    hit_ordinals, hit_scores = [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
    memo = res.hit_map(config.pseudo_query_m, config.n)
    for qid in one_hop.query_ids():
        judged = res.training_qrels.get(qid, {})
        for doc_id in sorted(doc_id for doc_id, grade in judged.items() if grade >= 1):
            doc_ordinal = res.doc_index.ordinal_of.get(doc_id)
            if doc_ordinal is None:
                if doc_id not in res.missing_documents:
                    res.missing_documents.add(doc_id)
                    logger.warning(
                        "relevant document %r of training query %r missing from collection; skipped", doc_id, qid
                    )
                continue
            found = memo.get(doc_ordinal)
            if found is None:
                terms = pseudo_query_terms(res.doc_index, doc_ordinal, config.pseudo_query_m)
                found = memo[doc_ordinal] = bm25_ordinals(
                    res.query_index, terms, depth=config.n, k1=res.params.k1, b=res.params.b
                )
            hit_ordinals.append(found[0])
            hit_scores.append(found[1])
    ordinals, scores = np.concatenate(hit_ordinals), np.concatenate(hit_scores)
    excluded = np.zeros(res.query_index.size, dtype=bool)
    excluded[one_hop.ordinals] = True
    target_ordinal = res.query_index.ordinal_of.get(one_hop.target_query_id)
    if target_ordinal is not None:
        excluded[target_ordinal] = True
    unseen = np.flatnonzero(~excluded[ordinals])
    _, first = np.unique(ordinals[unseen], return_index=True)
    first = unseen[np.sort(first)]
    return VariantPool(
        one_hop.target_query_id,
        np.concatenate((one_hop.ordinals, ordinals[first])),
        np.concatenate((one_hop.hops, np.full(len(first), 2, dtype=np.int64))),
        np.concatenate((one_hop.scores, scores[first])),
        res,
    )


def _internal_run(text: str, config: QppConfig, res: PipelineResources) -> OrdinalRun:
    """The internal BM25 run of a query text over ``res.doc_index`` at ``internal_depth``."""
    return bm25_ordinals(res.doc_index, tokenize(text), depth=config.internal_depth, k1=res.params.k1, b=res.params.b)


def rerank_by_rbo(pool: VariantPool, target: Query, config: QppConfig, res: PipelineResources) -> QVSet:
    """Keep the k candidates whose internal document rankings best overlap the target's.

    The target and each candidate retrieve their internal run over
    ``res.doc_index`` at ``internal_depth``, as ordinals and scores: the
    target's per call, a candidate's into its row of the run table (its
    ``res.query_index`` ordinal) the first time a pool gathers it.
    :func:`~qvqpp.rank_sim.rbo_top_k` ranks the pool's rows against the
    target's run (a candidate with an empty run gets overlap 0): each row
    gets a closed-form approximation whose distance from its exact overlap
    is at most a derived bound E, only the rows whose approximation is at
    least the k-th largest minus 2E are scored exactly, and a row left out
    has k rows strictly above it. So the survivors, their order and their
    overlaps are ``==`` to one :func:`~qvqpp.rank_sim.rbo_rows` pass over
    the whole pool. Ties break by (hop ascending, query id ascending). Only
    the k survivors become :class:`QVCandidate` objects, each carrying its
    run as views of its row.
    """
    target_ordinals, _ = _internal_run(target.text, config, res)
    table = res.run_table(config.internal_depth)
    rows = pool.ordinals
    item_ids, texts = res.query_index.item_ids, res.training_texts
    for row in rows[table.lengths[rows] < 0].tolist():
        table.fill(row, _internal_run(texts[row], config, res))
    order, overlaps = rbo_top_k(
        target_ordinals, table.ordinals[rows], table.lengths[rows], res.doc_index.size, config.k,
        (res.query_index._id_rank[rows], pool.hops), config.rbo_params,
    )
    kept = [
        QVCandidate(Query(item_ids[row], texts[row]), hop, score, overlap, table.run(row))
        for row, hop, score, overlap in zip(
            rows[order].tolist(), pool.hops[order].tolist(), pool.scores[order].tolist(), overlaps.tolist()
        )
    ]
    return QVSet(pool.target_query_id, kept)


def base_predictions(
    target: Query,
    target_run: RankedList,
    qv_set: QVSet,
    config: QppConfig,
    res: PipelineResources,
) -> dict[str, float]:
    """The phi table of one target: base predictions keyed by query id.

    Holds phi(target run) under ``target_run.query_id``, evaluated on every
    call, and, only when ``config.lam > 0``, phi of each candidate with a
    positive overlap under its query id, taken in candidate order. A
    candidate's phi is read from ``res``' :class:`PhiTable` of the config's
    base, internal depth and (for UEF) RBO parameters, and evaluated on its
    internal run (its run-table row, which NQC reads as scores and UEF as ids) only
    when the table lacks it, so the first error raised is the one
    evaluating every candidate would raise. A zero-weight candidate is
    never evaluated, so its (possibly empty) run is never read. Computed at
    the largest lambda and k of a grid, the table serves every smaller
    (lambda, k) of :func:`smooth_qpp`.
    """
    phi = {
        target_run.query_id: res.predictor.evaluate(
            config.base, target_run, tokenize(target.text), target_run.query_id, config.rbo_params
        )
    }
    if config.lam > 0.0:
        known = res.phi_table(config.base, config.internal_depth, config.rbo_params).values
        ordinal_of = res.query_index.ordinal_of
        for candidate in qv_set.candidates:
            if candidate.rbo > 0.0:
                row = ordinal_of[candidate.query.id]
                value = float(known[row])
                if math.isnan(value):
                    value = res.predictor.evaluate(
                        config.base, candidate.internal_run, tokenize(candidate.query.text), candidate.query.id,
                        config.rbo_params,
                    )
                    if math.isfinite(value):
                        known[row] = value
                else:
                    res.phi_reads += 1
                phi[candidate.query.id] = value
    return phi


def variant_mean(candidates: Sequence[QVCandidate], phi: Mapping[str, float]) -> Optional[float]:
    """sum_i (rbo_i / sum rbo) * phi(variant_i) over ``candidates``; None when there is none or sum rbo <= 0.

    Both sums run in candidate order, and a zero weight is skipped, so
    ``phi`` needs only the candidates of positive overlap.
    """
    weight_sum = sum(c.rbo for c in candidates)
    if not candidates or weight_sum <= 0.0:
        return None
    smoothed = 0.0
    for candidate in candidates:
        if candidate.rbo == 0.0:
            continue
        smoothed += candidate.rbo / weight_sum * phi[candidate.query.id]
    return smoothed


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
    mean = None if config.lam == 0.0 else variant_mean(qv_set.candidates, phi)
    return phi_target if mean is None else (1.0 - config.lam) * phi_target + config.lam * mean


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
