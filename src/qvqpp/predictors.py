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

Both read a run as an :data:`~qvqpp.text_index.OrdinalRun` (index
ordinals, -1 for a document the index lacks, and float64 scores); UEF
names a document in an error by the caller's ``doc_id(i)``.

UEF's relevance model and re-ranking work on arrays: a model is its
columns (term ids) and weights (``build_relevance_model`` and
``rm_rerank`` map a ranked list's ids at their entry and call the same
cores for str-keyed models). What a re-ranking needs that no model
changes (the head's rows and id ranks, one logarithm per head posting
and per head document) is computed once per head. ``rm_rerank`` scores
each head document with one fsum. Only the order of a subset's re-ranked
head reaches ``uef``'s value, so ``uef`` orders it by approximate numpy
scores that carry a proven error bound and takes the exact fsum path
only where two documents come within twice that bound (a near or exact
tie), where a value is not finite, or where the exact path would raise.
Each subset holds only its own arrays, never a table of samples x
postings.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_B, DEFAULT_K1, DEFAULT_MU, UEF_POOL_FLOOR, PredictorParams, RboParams
from .corpus_io import RankedList
from .rank_sim import _UNIT_ROUNDOFF, rbo_rows
from .text_index import InvertedIndex, OrdinalRun, _segments, ordinal_run

COLLECTION_SCORE_FLOOR = 1e-6
# Bumped whenever a predictor's arithmetic changes, so no stored base prediction written before is adopted.
PREDICTOR_VERSION = 1
# The config keys that a base's value of a variant's internal run reads, dotted (one ending in "." stands for every
# key of that section). Its phi tables and their run stores are keyed by these and PREDICTOR_VERSION alone.
BASE_INPUTS = {
    "nqc": ("qpp.internal_depth", "predictor.top_k", "bm25."),
    "uef": ("qpp.internal_depth", "predictor.", "bm25.", "seed", "qpp.rbo_p", "qpp.rbo_depth"),
}


def _check_collection_score(value: float) -> None:
    if value <= 0.0:
        raise ValueError(f"collection_score must be > 0, got {value}")


def nqc(scores: np.ndarray, collection_score: float, top_k: int = 100) -> float:
    """Std-dev of the first ``top_k`` of a run's scores (float64, best first) divided by the collection score.

    Zero iff the head scores are all equal; invariant under joint
    positive scaling of the scores and the collection score.
    """
    if not len(scores):
        raise ValueError("nqc needs a non-empty ranked list")
    _check_collection_score(collection_score)
    return float(np.std(scores[:top_k]) / collection_score)


def collection_score(
    index: InvertedIndex,
    terms: Sequence[str],
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> float:
    """BM25 score of the corpus treated as one virtual document.

    The virtual document's term frequencies are the corpus totals and
    its length is the total corpus token count; N, df and avgdl are
    those of the real corpus. Queries with no indexed term get
    :data:`COLLECTION_SCORE_FLOOR` so downstream division stays defined.
    """
    if index.size == 0:
        raise ValueError("collection_score needs a non-empty index")
    total = index.total_tokens
    avgdl = index.avgdl
    score = 0.0
    for term, query_tf in Counter(terms).items():
        tid = index.term_id(term)
        if tid < 0:
            continue
        cf = int(index.cf[tid])
        idf = index.idf(tid)
        norm = k1 * (1.0 - b + b * total / avgdl)
        score += query_tf * idf * cf * (k1 + 1.0) / (cf + norm)
    return score if score > 0.0 else COLLECTION_SCORE_FLOOR


class RelevanceModel:
    """Term distribution induced from a scored document sample; weights sum to 1."""

    def __init__(self, term_weights: dict[str, float]) -> None:
        self.term_weights = term_weights


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


def _sample_coefs(
    index: InvertedIndex, ordinals: np.ndarray, scores: np.ndarray, mu: float, doc_id: Callable[[int], str]
) -> np.ndarray:
    """omega_D / (|D| + mu) per sampled document, once each is known to be indexed and to have a non-zero |D| + mu.

    ``ordinals`` holds each sampled document's index ordinal, -1 where the
    index lacks it; ``doc_id(i)`` names the i-th document in error messages.
    """
    known = ordinals >= 0
    empty = np.zeros(len(ordinals), dtype=bool)
    empty[known] = index.lengths[ordinals[known]] + mu == 0.0
    bad = np.flatnonzero(~known | empty)
    if len(bad):
        if empty[bad[0]]:
            raise ValueError(f"every term has zero smoothed probability in empty document {doc_id(bad[0])!r}")
        raise ValueError(f"sampled document {doc_id(bad[0])!r} is not in the index")
    return _softmax(scores) / (index.lengths[ordinals] + mu)


def _relevance_model(
    coefs: np.ndarray,
    columns: np.ndarray,
    tfs: np.ndarray,
    bounds: np.ndarray,
    cf: np.ndarray,
    mu: float,
    total_tokens: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The relevance model of a sample as the columns its postings fill (ascending) and their weights.

    Sampled document i has coefficient ``coefs[i]`` and the postings
    ``columns``/``tfs`` at bounds[i]:bounds[i + 1]; ``cf`` is each column's
    collection frequency. Columns are term ids, or positions in any sorted
    subset of them that holds the sample's terms: the weights are the same
    floats either way.
    """
    if not len(columns):
        raise ValueError("all sampled documents are empty")
    # bincount adds each column's coef * tf in sample order, as a running sum from 0.0 would
    model = np.flatnonzero(np.bincount(columns, minlength=len(cf)))
    tf_mass = np.bincount(columns, weights=np.repeat(coefs, np.diff(bounds)) * tfs, minlength=len(cf))[model]
    smoothing = mu * math.fsum(coefs.tolist()) / total_tokens
    masses = tf_mass + smoothing * cf[model]
    return model, masses / math.fsum(masses.tolist())


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
    ordinals, scores = ordinal_run(index, sample)
    coefs = _sample_coefs(index, ordinals, scores, mu, sample.doc_ids().__getitem__)
    model_ids, weights = _relevance_model(coefs, *index.rows(ordinals), index.cf, mu, index.total_tokens)
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


class _Head:
    """What re-ranking a head takes that no relevance model changes, computed once per head.

    The head is ``size`` index ordinals, -1 where the index lacks a
    document, named in error messages by ``query_id`` and ``doc_id(i)``.
    The arrays cover the ``known`` documents before the first one the index
    lacks; the postings are their rows, row after row.
    """

    def __init__(
        self, index: InvertedIndex, ordinals: np.ndarray, mu: float, doc_id: Callable[[int], str], query_id: str
    ) -> None:
        self.query_id, self.doc_id, self.size = query_id, doc_id, len(ordinals)
        self.vocabulary_size = len(index.terms)
        unknown = np.flatnonzero(ordinals < 0)
        self.known = known = int(unknown[0]) if len(unknown) else len(ordinals)
        self.ordinals = ordinals = np.asarray(ordinals[:known], dtype=np.int64)
        self.id_ranks = index.id_rank[ordinals]
        term_ids, tfs, self.bounds = index.rows(ordinals)  # row i's postings are at bounds[i]:bounds[i + 1]
        self.term_ids = term_ids
        mu_p = mu * index.cf[term_ids] / index.total_tokens
        self.smoothed = smoothed = mu_p > 0.0  # per posting: mu * p_w > 0
        self.logs = logs = np.empty(len(term_ids))  # per posting: ln(1 + tf / (mu * p_w)) where smoothed, else ln(tf)
        logs[smoothed] = list(map(math.log1p, (tfs[smoothed] / mu_p[smoothed]).tolist()))
        logs[~smoothed] = list(map(math.log, tfs[~smoothed].tolist()))
        self.length_args = length_args = (index.lengths[ordinals] + mu).tolist()  # |D| + mu per document
        positive = next((i for i, arg in enumerate(length_args) if arg <= 0.0), known)
        self.length_logs = list(map(math.log, length_args[:positive]))  # ln(|D| + mu), up to the first arg <= 0
        seen: set[int] = set()
        twice = next((i for i, o in enumerate(ordinals.tolist()) if o in seen or seen.add(o)), None)
        self.duplicate = None if twice is None else doc_id(twice)  # the first known document seen twice


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
    This is the one exact path: ``rm_rerank`` always takes it, and ``uef``
    takes it for a subset whose approximate order
    :func:`_certified_order` cannot certify. It raises the re-ranking's
    errors, so ``uef`` reaches them here too.
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
    if head.known < head.size:
        raise ValueError(f"document {head.doc_id(head.known)!r} is not in the index")
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
    top = ranked.top(depth)
    doc_ids = top.doc_ids()
    head = _Head(index, ordinal_run(index, top)[0], mu, doc_ids.__getitem__, ranked.query_id)
    terms = list(model.term_weights)
    model_ids = np.fromiter(map(index.term_id, terms), dtype=np.int64, count=len(terms))
    weights = np.fromiter(model.term_weights.values(), dtype=np.float64, count=len(terms))
    order, scores = _rm_rerank(head, model_ids, weights, *_log_mu_p(index, model_ids, mu), terms.__getitem__)
    return RankedList(ranked.query_id, [(doc_ids[i], scores[i]) for i in order.tolist()])


def _certified_order(
    scores: np.ndarray, magnitudes: np.ndarray, addends: int, slack: float, id_ranks: np.ndarray
) -> np.ndarray | None:
    """The order of exact scores (descending, then by id rank) read from approximations; None where they cannot tell it.

    Exact score d is the correctly rounded sum of at most ``addends``
    floats; ``scores[d]`` approximates it in floating point from terms
    whose absolute values sum to ``magnitudes[d]``, with up to ``slack``
    more error from approximated shared constants. So each approximation
    is off the exact sum by at most gamma_n * magnitude + slack, with
    gamma_n = n u / (1 - n u) and u = 2**-53. E doubles that bound, to
    cover the rounding of its own arithmetic, and adds 2 ulp of the
    largest magnitude. If every score and E are finite and every gap
    between neighbours in the approximate order exceeds 2E, the exact sums
    fall in that order with gaps above 4 ulp, so their rounded values are
    still strictly decreasing (rounding is monotone and moves each by at
    most half an ulp): the order is the exact one. This is the filter of
    Shewchuk's filter-then-exact scheme; a near or exact tie gives None.
    """
    order = np.lexsort((id_ranks, -scores))
    top = float(magnitudes.max(initial=0.0))
    gamma = addends * _UNIT_ROUNDOFF / (1.0 - addends * _UNIT_ROUNDOFF)
    error = 2.0 * (gamma * top + slack) + 2.0 * float(np.spacing(top))
    ranked = scores[order]
    if math.isfinite(error) and np.isfinite(ranked).all() and (ranked[:-1] - ranked[1:] > 2.0 * error).all():
        return order
    return None


def uef(
    run: OrdinalRun, collection_score: float, index: InvertedIndex, rng_seed: int, samples: int, sample_size: int, *,
    top_k: int = 100, rbo_params: RboParams = RboParams(), mu: float = DEFAULT_MU,
    doc_id: Callable[[int], str] | None = None, query_id: str = "",
) -> float:
    """Average over seeded subsets of (rank-overlap x subset nqc).

    Each subset is drawn uniformly without replacement from the top
    max(top_k, 50) documents of ``run``; its relevance model re-ranks the
    original top_k head, and the RBO between the original and re-ranked
    head is multiplied by the subset's nqc. Bit-reproducible for a fixed
    seed. Errors name the run ``query_id`` and its i-th document
    ``doc_id(i)``, by default its id in ``index`` (a run holding -1 passes its own).

    Everything that does not depend on the subset is computed once: the
    head's rows and logarithms (:func:`_head`), the pool's postings in the
    columns of the pool's vocabulary, the head postings of that vocabulary
    (no model holds any other term) and mu * p_w and ln(mu * p_w) per
    column. A subset then costs its model (two bincounts into those
    columns, adding each term's mass in the order
    :func:`build_relevance_model` does, so the weights are the same
    floats), and one approximate score per head document:
    C~ + sum of gains - S~ * ln(|D| + mu), from a bincount of the gains and
    ``np.sum`` for C~ and S~. :func:`_certified_order` takes that order when
    the bound proves it is the order of the exact fsum scores; on a near
    tie, a non-finite value, a model term with mu * p_w = 0 or a head that
    :func:`_rm_rerank` rejects, the subset takes :func:`_rm_rerank`, the one
    exact path, which raises its errors. Only arrays of one subset are held
    at a time, none of samples x postings. The overlaps of all subsets come
    from one :func:`rbo_rows` pass over the stacked re-ranked heads, each a
    permutation of the head's ordinals. The value is ``==`` to composing
    :func:`build_relevance_model`, :func:`rm_rerank` and :func:`rbo_ext`
    per subset, errors included.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    ordinals, run_scores = run
    doc_id = doc_id or (lambda i: index.item_ids[ordinals[i]])
    pool_ordinals = np.asarray(ordinals[: max(top_k, UEF_POOL_FLOOR)], dtype=np.int64)
    pool = len(pool_ordinals)
    if sample_size > pool:
        raise ValueError(f"sample_size {sample_size} exceeds the {pool} available documents")
    head = _Head(index, ordinals[:top_k], mu, doc_id, query_id)
    pool_scores = np.asarray(run_scores[:pool], dtype=np.float64)
    known = pool_ordinals >= 0
    # the pool's postings in the columns of its vocabulary, row by pool position (none for an unindexed document)
    pool_terms, pool_tfs, known_bounds = index.rows(pool_ordinals[known])
    vocabulary = np.flatnonzero(np.bincount(pool_terms, minlength=len(index.terms)))
    column_of = np.full(len(index.terms), -1, dtype=np.int64)
    column_of[vocabulary] = np.arange(len(vocabulary))
    pool_columns = column_of[pool_terms]
    pool_ptr = np.zeros(pool + 1, dtype=np.int64)
    pool_ptr[1:][known] = np.diff(known_bounds)
    np.cumsum(pool_ptr, out=pool_ptr)
    cf = index.cf[vocabulary]
    smoothed, log_mu_p = _log_mu_p(index, vocabulary, mu)
    # the approximate scores need every head document indexed, once, with a logarithm of |D| + mu, and mu * p_w > 0
    certify = (
        len(head.length_logs) == head.known == head.size and head.duplicate is None and bool(smoothed.all())
    )
    if certify:
        head_columns = column_of[head.term_ids]
        in_vocabulary = head_columns >= 0
        head_columns = head_columns[in_vocabulary]
        head_logs = head.logs[in_vocabulary]
        head_rows = np.repeat(np.arange(head.known), np.diff(head.bounds))[in_vocabulary]
        # per document: C, its gains (at most one per vocabulary posting) and -S * ln(|D| + mu), plus 2 roundings
        addends = int(np.bincount(head_rows, minlength=1).max()) + 4
        length_logs = np.asarray(head.length_logs)
        log_scale = float(np.abs(log_mu_p).max(initial=0.0) + np.abs(length_logs).max(initial=0.0))
    _check_collection_score(collection_score)  # nqc's check, reached at the first subset
    rng = np.random.default_rng(rng_seed)
    subset_nqcs = []
    reranked = []
    for _ in range(samples):
        chosen = np.sort(rng.choice(pool, size=sample_size, replace=False))
        scores = pool_scores[chosen]
        subset_nqcs.append(float(np.std(scores) / collection_score))
        coefs = _sample_coefs(index, pool_ordinals[chosen], scores, mu, lambda i: doc_id(int(chosen[i])))
        positions, bounds = _segments(pool_ptr, chosen)
        columns, weights = _relevance_model(
            coefs, pool_columns[positions], pool_tfs[positions], bounds, cf, mu, index.total_tokens
        )
        if not head.size:  # rm_rerank's depth check, reached once a model is built
            raise ValueError("depth must be >= 1, got 0")
        order = None
        if certify:
            weight_of = np.zeros(len(vocabulary))
            weight_of[columns] = weights
            # gains are >= 0 (weights >= 0, ln(1 + tf / (mu * p_w)) > 0), so their sum is its own magnitude
            gains = np.bincount(head_rows, weights=weight_of[head_columns] * head_logs, minlength=head.known)
            constant = float(np.sum(weights * log_mu_p[columns]))
            weight_sum = float(np.sum(weights))
            # np.sum's C~ and S~ are within gamma_m of C and S, so within gamma_m * S~ * (max |ln mu p_w| + max |L|)
            m = len(weights) + 1
            slack = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF) * weight_sum * log_scale
            order = _certified_order(
                constant + gains - weight_sum * length_logs,
                abs(constant) + gains + weight_sum * np.abs(length_logs),
                addends,
                slack,
                head.id_ranks,
            )
        if order is None:
            order, _ = _rm_rerank(
                head, vocabulary[columns], weights, smoothed[columns], log_mu_p[columns],
                lambda position: index.terms[vocabulary[columns[position]]],
            )
        reranked.append(head.ordinals[order])
    total = 0.0
    overlaps = rbo_rows(head.ordinals, np.stack(reranked), np.full(samples, head.known), index.size, rbo_params)
    for overlap, subset_nqc in zip(overlaps.tolist(), subset_nqcs):
        total += overlap * subset_nqc
    return total / samples


def derive_seed(global_seed: int, query_id: str) -> int:
    """Stable per-query seed so parallel scheduling cannot change outputs."""
    digest = hashlib.sha256(f"{global_seed}:{query_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class PredictorContext:
    """Binds an index, predictor knobs and a global seed into one evaluator.

    A run is an :data:`~qvqpp.text_index.OrdinalRun` over ``index``: a
    variant's run-table row, or a target's run as
    :func:`~qvqpp.variants.base_predictions` maps it, with ``doc_id`` for
    :func:`uef`. UEF's RBO parameters come with each call, from the
    caller's QppConfig. Results are memoized in ``_cache`` per (base,
    query, run, terms, RBO parameters), a run keyed by its arrays' bytes,
    and ``evaluations`` counts the values computed. A variant's
    value is read from ``PipelineResources``' phi table before this is
    called, so the memo answers only a repeated target call; it stays
    because the benchmark's tracer reads it to tell a hit. The pipeline's
    one context is ``PipelineResources.predictor``.
    """

    def __init__(self, index: InvertedIndex, params: PredictorParams | None = None, seed: int = 0) -> None:
        self.index, self.params, self.seed = index, PredictorParams() if params is None else params, seed
        self._cache: dict = {}
        self.evaluations = 0

    def evaluate(
        self, base: str, run: OrdinalRun, terms: Sequence[str], query_id: str, rbo_params: RboParams,
        doc_id: Callable[[int], str] | None = None,
    ) -> float:
        key = (base, query_id, run[0].tobytes(), run[1].tobytes(), tuple(terms), rbo_params)
        if key in self._cache:
            return self._cache[key]
        cscore = collection_score(self.index, terms, k1=self.params.k1, b=self.params.b)
        if base == "nqc":
            value = nqc(run[1], cscore, self.params.top_k)
        elif base == "uef":
            value = uef(
                run, cscore, self.index, derive_seed(self.seed, query_id), self.params.uef_samples,
                self.params.uef_sample_size, top_k=self.params.top_k, rbo_params=rbo_params, mu=self.params.mu,
                doc_id=doc_id, query_id=query_id,
            )
        else:
            raise ValueError(f"unknown base predictor {base!r}")
        self.evaluations += 1
        self._cache[key] = value
        return value
