"""Post-retrieval quality predictors.

Two base predictors are provided:

- ``nqc``: standard deviation of the top retrieval scores, normalized by
  the score of a whole-corpus pseudo-document for the same terms.
- ``uef``: averages, over seeded random subsets of the top documents,
  the product of (a) the rank overlap between the original head of the
  list and its relevance-model re-ranking and (b) the subset's nqc.

Both are pure given their inputs and a seed; parallel callers derive the
seed from (global seed, query id) via :func:`derive_seed` so scheduling
cannot change outputs.

UEF's relevance model and re-ranking work on arrays: a model is its
term ids and weights (``build_relevance_model`` and ``rm_rerank`` wrap
the same two cores for str-keyed models and ranked lists). What a
re-ranking needs that no model changes (the head's rows and id ranks,
one logarithm per head posting and per head document) is computed once
per head, so each of ``uef``'s subsets costs its model, one gain per
head posting of a model term and one fsum per head document.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus_io import RankedList
from .rank_sim import RboParams, rbo_pool
from .text_index import DEFAULT_B, DEFAULT_K1, InvertedIndex, bm25_idf

COLLECTION_SCORE_FLOOR = 1e-6
DEFAULT_MU = 1000.0
UEF_POOL_FLOOR = 50


@dataclass
class PredictorInput:
    """A ranked list plus the per-query normalizer and head size."""

    ranked_list: RankedList
    collection_score: float
    top_k: int = 100


def nqc(inp: PredictorInput) -> float:
    """Std-dev of the top ``top_k`` scores divided by the collection score.

    Zero iff the head scores are all equal; invariant under joint
    positive scaling of the scores and the collection score.
    """
    if not inp.ranked_list.entries:
        raise ValueError("nqc needs a non-empty ranked list")
    if inp.collection_score <= 0.0:
        raise ValueError(f"collection_score must be > 0, got {inp.collection_score}")
    scores = np.asarray(inp.ranked_list.scores()[: inp.top_k], dtype=np.float64)
    return float(np.std(scores) / inp.collection_score)


def collection_score(
    index: InvertedIndex,
    terms: Sequence[str],
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    floor: float = COLLECTION_SCORE_FLOOR,
) -> float:
    """BM25 score of the corpus treated as one virtual document.

    The virtual document's term frequencies are the corpus totals and
    its length is the total corpus token count; N, df and avgdl are
    those of the real corpus. Queries with no indexed term get the
    configured floor so downstream division stays defined.
    """
    if index.size == 0:
        raise ValueError("collection_score needs a non-empty index")
    total = index.total_tokens
    avgdl = index.avgdl
    score = 0.0
    for term, query_tf in Counter(terms).items():
        tid = index.term_id.get(term)
        if tid is None:
            continue
        cf = int(index.cf[tid])
        idf = bm25_idf(index, term)
        norm = k1 * (1.0 - b + b * total / avgdl)
        score += query_tf * idf * cf * (k1 + 1.0) / (cf + norm)
    return score if score > 0.0 else floor


@dataclass
class RelevanceModel:
    """Term distribution induced from a scored document sample; weights sum to 1."""

    term_weights: dict[str, float]


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


def _relevance_model(
    index: InvertedIndex, doc_ids: Sequence[str], ordinals: np.ndarray, scores: np.ndarray, mu: float
) -> tuple[np.ndarray, np.ndarray]:
    """The relevance model of a scored sample as its term ids (ascending) and their weights.

    ``ordinals`` holds each sampled document's index ordinal, -1 where the
    index lacks it; ``doc_ids`` name the documents in error messages.
    """
    known = ordinals >= 0
    empty = np.zeros(len(ordinals), dtype=bool)
    empty[known] = index.lengths[ordinals[known]] + mu == 0.0
    bad = np.flatnonzero(~known | empty)
    if len(bad):
        doc_id = doc_ids[bad[0]]
        if empty[bad[0]]:
            raise ValueError(f"every term has zero smoothed probability in empty document {doc_id!r}")
        raise ValueError(f"sampled document {doc_id!r} is not in the index")
    # omega_D / (|D| + mu) per sampled document
    coefs = _softmax(scores) / (index.lengths[ordinals] + mu)
    term_ids, tfs, bounds = index.rows(ordinals)
    if not len(term_ids):
        raise ValueError("all sampled documents are empty")
    # term ids ascending are the terms in sorted order; bincount adds each term's
    # coef * tf in sample order, as a running sum from 0.0 would
    model_ids = np.flatnonzero(np.bincount(term_ids, minlength=len(index.terms)))
    tf_mass = np.bincount(term_ids, weights=np.repeat(coefs, np.diff(bounds)) * tfs, minlength=len(index.terms))[model_ids]
    smoothing = mu * math.fsum(coefs.tolist()) / index.total_tokens
    masses = tf_mass + smoothing * index.cf[model_ids]
    return model_ids, masses / math.fsum(masses.tolist())


def build_relevance_model(
    index: InvertedIndex, sample: RankedList, *, mu: float = DEFAULT_MU
) -> RelevanceModel:
    """Relevance model over the sampled documents' vocabulary.

    term_weight(w) is proportional to the softmax-score-weighted sum of
    Dirichlet-smoothed document language models p(w|D) over the sample:

        mass(w) = sum_D omega_D * (tf_D(w) + mu * p_w) / (|D| + mu)
                = sum_D omega_D * tf_D(w) / (|D| + mu) + mu * p_w * sum_D omega_D / (|D| + mu)

    The first sum is non-zero only for the documents containing w and the
    second factor is shared by every term, so each sampled document costs
    its own number of distinct terms, not the model's vocabulary size.
    """
    if not sample.entries:
        raise ValueError("relevance model needs a non-empty sample")
    doc_ids = sample.doc_ids()
    ordinals = np.fromiter((index.ordinal_of.get(doc_id, -1) for doc_id in doc_ids), dtype=np.int64, count=len(doc_ids))
    model_ids, weights = _relevance_model(index, doc_ids, ordinals, np.asarray(sample.scores(), dtype=np.float64), mu)
    return RelevanceModel(dict(zip([index.terms[t] for t in model_ids.tolist()], weights.tolist())))


def _log_mu_p(index: InvertedIndex, term_ids: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Whether mu * p_w > 0 for each term id (-1: a term the index lacks), and ln(mu * p_w) where it is."""
    mu_p = np.zeros(len(term_ids))
    known = term_ids >= 0
    mu_p[known] = mu * index.cf[term_ids[known]] / index.total_tokens
    smoothed = mu_p > 0.0
    logs = np.zeros(len(term_ids))
    logs[smoothed] = list(map(math.log, mu_p[smoothed].tolist()))
    return smoothed, logs


@dataclass
class _Head:
    """What re-ranking a head takes that no relevance model changes, computed once per head.

    The arrays cover the ``known`` documents before the first one the
    index lacks; the postings are their rows, row after row.
    """

    query_id: str
    doc_ids: list[str]
    vocabulary_size: int
    known: int
    ordinals: np.ndarray
    id_ranks: np.ndarray
    term_ids: np.ndarray
    bounds: np.ndarray  # row i's postings are at bounds[i]:bounds[i + 1]
    smoothed: np.ndarray  # per posting: mu * p_w > 0
    logs: np.ndarray  # per posting: ln(1 + tf / (mu * p_w)) where smoothed, else ln(tf)
    length_args: list[float]  # |D| + mu per document
    length_logs: list[float]  # ln(|D| + mu) per document, up to the first non-positive argument
    duplicate: str | None  # the first id seen twice


def _head(index: InvertedIndex, head: RankedList, mu: float) -> _Head:
    doc_ids = head.doc_ids()
    found = [index.ordinal_of.get(doc_id) for doc_id in doc_ids]
    known = found.index(None) if None in found else len(found)
    ordinals = np.asarray(found[:known], dtype=np.int64)
    term_ids, tfs, bounds = index.rows(ordinals)
    mu_p = mu * index.cf[term_ids] / index.total_tokens
    smoothed = mu_p > 0.0
    logs = np.empty(len(term_ids))
    logs[smoothed] = list(map(math.log1p, (tfs[smoothed] / mu_p[smoothed]).tolist()))
    logs[~smoothed] = list(map(math.log, tfs[~smoothed].tolist()))
    length_args = (index.lengths[ordinals] + mu).tolist()
    positive = next((i for i, arg in enumerate(length_args) if arg <= 0.0), known)
    seen: set[str] = set()
    duplicate = next((doc_id for doc_id in doc_ids if doc_id in seen or seen.add(doc_id)), None)
    return _Head(
        head.query_id, doc_ids, len(index.terms), known, ordinals, index._id_rank[ordinals], term_ids, bounds,
        smoothed, logs, length_args, list(map(math.log, length_args[:positive])), duplicate,
    )


def _rm_rerank(
    head: _Head,
    model_ids: np.ndarray,
    weights: np.ndarray,
    smoothed: np.ndarray,
    log_mu_p: np.ndarray,
    term_name: Callable[[int], str],
) -> tuple[np.ndarray, list[float]]:
    """The head's documents re-scored by a relevance model: their order (positions in the head) and scores.

    The model is its term ids (-1 for a term the index lacks, any order),
    weights, whether mu * p_w > 0 and ln(mu * p_w) where it is;
    ``term_name`` names the term at a model position. Each document's
    score is one fsum of C, -S * ln(|D| + mu) and a gain per posting of a
    model term; the order is score descending, then doc_id ascending.
    """
    constant = math.fsum((weights[smoothed] * log_mu_p[smoothed]).tolist())
    weight_sum = math.fsum(weights.tolist())
    indexed = model_ids >= 0
    weight_of = np.zeros(head.vocabulary_size)
    weight_of[model_ids[indexed]] = weights[indexed]
    is_model_term = np.zeros(head.vocabulary_size, dtype=bool)
    is_model_term[model_ids[indexed]] = True
    in_model = is_model_term[head.term_ids]  # per posting
    running = np.zeros(len(in_model) + 1, dtype=np.int64)

    # a term with mu * p_w = 0 must occur in every document before the first unindexed one
    unsmoothed = np.flatnonzero(~smoothed)
    failing = head.known
    if len(unsmoothed):
        np.cumsum(in_model & ~head.smoothed, out=running[1:])
        short = np.flatnonzero(np.diff(running[head.bounds]) < len(unsmoothed))
        failing = int(short[0]) if len(short) else head.known
    if len(head.length_logs) < failing:
        math.log(head.length_args[len(head.length_logs)])  # raises, as the document's score would
    if failing < head.known:
        row = head.term_ids[head.bounds[failing]:head.bounds[failing + 1]]
        missing = unsmoothed[~np.isin(model_ids[unsmoothed], row)]
        raise ValueError(f"term {term_name(int(missing[0]))!r} has zero smoothed probability")
    if head.known < len(head.doc_ids):
        raise ValueError(f"document {head.doc_ids[head.known]!r} is not in the index")
    if head.duplicate is not None:
        raise ValueError(f"duplicate doc_id {head.duplicate!r} in ranked list for {head.query_id!r}")

    gains = (weight_of[head.term_ids[in_model]] * head.logs[in_model]).tolist()
    np.cumsum(in_model, out=running[1:])
    gain_bounds = running[head.bounds].tolist()
    scores = [
        math.fsum([constant, *gains[start:stop], -weight_sum * length_log])
        for start, stop, length_log in zip(gain_bounds, gain_bounds[1:], head.length_logs)
    ]
    return np.lexsort((head.id_ranks, -np.asarray(scores))), scores


def rm_rerank(
    model: RelevanceModel,
    ranked: RankedList,
    index: InvertedIndex,
    depth: int,
    *,
    mu: float = DEFAULT_MU,
) -> RankedList:
    """Reorder the top ``depth`` of ``ranked`` by sum_w model(w) * ln p(w|D).

    With p(w|D) = (tf + mu * p_w) / (|D| + mu), S = sum_w model(w) and
    C = sum_w model(w) * ln(mu * p_w), the score equals

        C - S * ln(|D| + mu) + sum_{w in D} model(w) * ln(1 + tf / (mu * p_w))

    C and S are computed once per model, so each document costs its own
    number of distinct terms. Model terms with mu * p_w = 0 (absent from
    the index, or mu = 0) have no finite ln(mu * p_w): every document must
    contain them, else the term has zero smoothed probability and a
    ValueError names it; they enter the score as model(w) * ln(tf).
    Ties are broken by doc_id ascending. Every document must be indexed.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    head = _head(index, ranked.top(depth), mu)
    terms = list(model.term_weights)
    model_ids = np.fromiter((index.term_id.get(term, -1) for term in terms), dtype=np.int64, count=len(terms))
    weights = np.fromiter(model.term_weights.values(), dtype=np.float64, count=len(terms))
    order, scores = _rm_rerank(head, model_ids, weights, *_log_mu_p(index, model_ids, mu), terms.__getitem__)
    return RankedList(ranked.query_id, [(head.doc_ids[i], scores[i]) for i in order.tolist()])


def uef(
    inp: PredictorInput,
    index: InvertedIndex,
    rng_seed: int,
    samples: int,
    sample_size: int,
    *,
    rbo_params: RboParams = RboParams(),
    mu: float = DEFAULT_MU,
) -> float:
    """Average over seeded subsets of (rank-overlap x subset nqc).

    Each subset is drawn uniformly without replacement from the top
    max(top_k, 50) documents; its relevance model re-ranks the original
    top_k head, and the RBO between the original and re-ranked head is
    multiplied by the subset's nqc. Bit-reproducible for a fixed seed.

    Everything that does not depend on the subset is computed once: the
    head's ordinals, rows and id ranks, ln(1 + tf / (mu * p_w)) for each
    of its postings, ln(|D| + mu) for each of its documents and
    ln(mu * p_w) for each term of the pool. A subset then costs its
    relevance model as term-id and weight arrays, one gain per head
    posting of a model term, one fsum per head document and a lexsort;
    the overlaps of all subsets come from one :func:`rbo_pool` pass. The
    value is ``==`` to composing :func:`build_relevance_model`,
    :func:`rm_rerank` and :func:`rbo_ext` per subset, errors included.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    entries = inp.ranked_list.entries
    pool = entries[: max(inp.top_k, UEF_POOL_FLOOR)]
    if sample_size > len(pool):
        raise ValueError(f"sample_size {sample_size} exceeds the {len(pool)} available documents")
    head = _head(index, inp.ranked_list.top(min(inp.top_k, len(entries))), mu)
    pool_ordinals = np.fromiter((index.ordinal_of.get(doc_id, -1) for doc_id, _ in pool), dtype=np.int64, count=len(pool))
    # mu * p_w > 0 and ln(mu * p_w) for every term a subset's model can hold, by term id
    pool_terms = index.rows(pool_ordinals[pool_ordinals >= 0])[0]
    vocabulary = np.flatnonzero(np.bincount(pool_terms, minlength=len(index.terms)))
    smoothed_of = np.zeros(len(index.terms), dtype=bool)
    log_mu_p_of = np.zeros(len(index.terms))
    smoothed_of[vocabulary], log_mu_p_of[vocabulary] = _log_mu_p(index, vocabulary, mu)
    rng = np.random.default_rng(rng_seed)
    subset_nqcs = []
    reranked = []
    for _ in range(samples):
        chosen = np.sort(rng.choice(len(pool), size=sample_size, replace=False))
        subset = RankedList(inp.ranked_list.query_id, [pool[i] for i in chosen.tolist()])
        subset_nqcs.append(nqc(PredictorInput(subset, inp.collection_score, top_k=sample_size)))
        scores = np.asarray(subset.scores(), dtype=np.float64)
        model_ids, weights = _relevance_model(index, subset.doc_ids(), pool_ordinals[chosen], scores, mu)
        if not head.doc_ids:  # rm_rerank's depth check, reached once a model is built
            raise ValueError("depth must be >= 1, got 0")
        order, _ = _rm_rerank(
            head, model_ids, weights, smoothed_of[model_ids], log_mu_p_of[model_ids],
            lambda position: index.terms[model_ids[position]],
        )
        reranked.append(head.ordinals[order])
    total = 0.0
    for overlap, subset_nqc in zip(rbo_pool(head.ordinals, reranked, index.size, rbo_params), subset_nqcs):
        total += overlap * subset_nqc
    return total / samples


def derive_seed(global_seed: int, query_id: str) -> int:
    """Stable per-query seed so parallel scheduling cannot change outputs."""
    digest = hashlib.sha256(f"{global_seed}:{query_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class PredictorParams:
    """Knobs shared by the base predictors."""

    top_k: int = 100
    uef_samples: int = 20
    uef_sample_size: int = 25
    mu: float = DEFAULT_MU
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    def __post_init__(self) -> None:
        for name in ("top_k", "uef_samples", "uef_sample_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("mu", "k1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass
class PredictorContext:
    """Binds an index, predictor knobs and a global seed into one evaluator.

    UEF's RBO parameters come with each call, from the caller's QppConfig.
    Results are memoized per (base, query, list, terms, RBO parameters).
    Each target's phi table evaluates every query at most once, so the
    memo only answers a training query that two targets both keep as a
    variant. The pipeline's one context is ``PipelineResources.predictor``.
    """

    index: InvertedIndex
    params: PredictorParams = field(default_factory=PredictorParams)
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    def evaluate(self, base: str, run: RankedList, terms: Sequence[str], query_id: str, rbo_params: RboParams) -> float:
        key = (base, query_id, tuple(run.entries), tuple(terms), rbo_params)
        if key in self._cache:
            return self._cache[key]
        cscore = collection_score(self.index, terms, k1=self.params.k1, b=self.params.b)
        inp = PredictorInput(run, cscore, top_k=self.params.top_k)
        if base == "nqc":
            value = nqc(inp)
        elif base == "uef":
            value = uef(
                inp,
                self.index,
                derive_seed(self.seed, query_id),
                self.params.uef_samples,
                self.params.uef_sample_size,
                rbo_params=rbo_params,
                mu=self.params.mu,
            )
        else:
            raise ValueError(f"unknown base predictor {base!r}")
        self._cache[key] = value
        return value
