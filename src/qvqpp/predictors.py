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
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus_io import RankedList
from .rank_sim import RboParams, rbo_ext
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
    ordinals = []
    for doc_id, _ in sample.entries:
        ordinal = index.ordinal_of.get(doc_id)
        if ordinal is None:
            raise ValueError(f"sampled document {doc_id!r} is not in the index")
        if index.lengths[ordinal] + mu == 0.0:
            raise ValueError(f"every term has zero smoothed probability in empty document {doc_id!r}")
        ordinals.append(ordinal)
    doc_weights = _softmax(np.asarray(sample.scores(), dtype=np.float64)).tolist()
    # omega_D / (|D| + mu) per sampled document
    coefs = [w / (length + mu) for w, length in zip(doc_weights, index.lengths[ordinals].tolist())]
    term_ids, tfs, bounds = index.rows(ordinals)
    if not len(term_ids):
        raise ValueError("all sampled documents are empty")
    # sorted term ids are the terms in sorted order; bincount adds each term's
    # coef * tf in sample order, as a running sum from 0.0 would
    model_ids, slot = np.unique(term_ids, return_inverse=True)
    tf_mass = np.bincount(slot, weights=np.repeat(coefs, np.diff(bounds)) * tfs)
    smoothing = mu * math.fsum(coefs) / index.total_tokens
    masses = tf_mass + smoothing * index.cf[model_ids]
    normalizer = math.fsum(masses.tolist())
    return RelevanceModel(dict(zip([index.terms[t] for t in model_ids.tolist()], (masses / normalizer).tolist())))


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
    total_tokens = index.total_tokens
    weight_of = np.zeros(len(index.terms))  # model weight of each smoothed term id
    mu_p_of = np.zeros(len(index.terms))  # its mu * p_w; 0 for every other term id
    unsmoothed: list[tuple[str, int | None, float]] = []  # (term, term id, model weight)
    constant_parts = []
    for term, weight in model.term_weights.items():
        tid = index.term_id.get(term)
        mu_p = 0.0 if tid is None else mu * int(index.cf[tid]) / total_tokens
        if mu_p > 0.0:
            weight_of[tid], mu_p_of[tid] = weight, mu_p
            constant_parts.append(weight * math.log(mu_p))
        else:
            unsmoothed.append((term, tid, weight))
    constant = math.fsum(constant_parts)
    weight_sum = math.fsum(model.term_weights.values())
    head = ranked.entries[:depth]
    ordinals = [index.ordinal_of.get(doc_id) for doc_id, _ in head]
    known = ordinals.index(None) if None in ordinals else len(head)
    term_ids, tfs, bounds = index.rows(ordinals[:known])
    hit = mu_p_of[term_ids] > 0.0
    hit_ids = term_ids[hit]
    logs = map(math.log1p, (tfs[hit] / mu_p_of[hit_ids]).tolist())
    gains = [weight * log for weight, log in zip(weight_of[hit_ids].tolist(), logs)]
    gain_bounds = np.zeros(len(hit) + 1, dtype=np.int64)
    np.cumsum(hit, out=gain_bounds[1:])
    gain_bounds = gain_bounds[bounds].tolist()
    rescored: list[tuple[str, float]] = []
    for i, ((doc_id, _), length) in enumerate(zip(head, index.lengths[ordinals[:known]].tolist())):
        parts = [constant, *gains[gain_bounds[i]:gain_bounds[i + 1]]]
        if unsmoothed:
            counts = dict(zip(term_ids[bounds[i]:bounds[i + 1]].tolist(), tfs[bounds[i]:bounds[i + 1]].tolist()))
            for term, tid, weight in unsmoothed:
                tf = counts.get(tid, 0)
                if tf == 0:
                    raise ValueError(f"term {term!r} has zero smoothed probability")
                parts.append(weight * math.log(tf))
        parts.append(-weight_sum * math.log(length + mu))
        rescored.append((doc_id, math.fsum(parts)))
    if known < len(head):
        raise ValueError(f"document {head[known][0]!r} is not in the index")
    return RankedList.from_scores(ranked.query_id, rescored)


def uef(
    inp: PredictorInput,
    index: InvertedIndex,
    rng_seed: int,
    samples: int,
    sample_size: int,
    *,
    rbo_params: RboParams | None = None,
    mu: float = DEFAULT_MU,
) -> float:
    """Average over seeded subsets of (rank-overlap x subset nqc).

    Each subset is drawn uniformly without replacement from the top
    max(top_k, 50) documents; its relevance model re-ranks the original
    top_k head, and the RBO between the original and re-ranked head is
    multiplied by the subset's nqc. Bit-reproducible for a fixed seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    entries = inp.ranked_list.entries
    pool = entries[: max(inp.top_k, UEF_POOL_FLOOR)]
    if sample_size > len(pool):
        raise ValueError(f"sample_size {sample_size} exceeds the {len(pool)} available documents")
    params = rbo_params if rbo_params is not None else RboParams()
    head = inp.ranked_list.top(min(inp.top_k, len(entries)))
    rng = np.random.default_rng(rng_seed)
    total = 0.0
    for _ in range(samples):
        chosen = sorted(rng.choice(len(pool), size=sample_size, replace=False).tolist())
        subset = RankedList(inp.ranked_list.query_id, [pool[i] for i in chosen])
        subset_nqc = nqc(PredictorInput(subset, inp.collection_score, top_k=sample_size))
        model = build_relevance_model(index, subset, mu=mu)
        reranked = rm_rerank(model, head, index, depth=len(head), mu=mu)
        total += rbo_ext(head, reranked, params) * subset_nqc
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
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")


@dataclass
class PredictorContext:
    """Binds an index, predictor knobs and a global seed into one evaluator.

    Results are memoized per (base, query, list) so parameter sweeps do
    not recompute base predictions.
    """

    index: InvertedIndex
    params: PredictorParams = field(default_factory=PredictorParams)
    rbo_params: RboParams = field(default_factory=RboParams)
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    def evaluate(self, base: str, run: RankedList, terms: Sequence[str], query_id: str) -> float:
        key = (base, query_id, tuple(run.entries), tuple(terms))
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
                rbo_params=self.rbo_params,
                mu=self.params.mu,
            )
        else:
            raise ValueError(f"unknown base predictor {base!r}")
        self._cache[key] = value
        return value
