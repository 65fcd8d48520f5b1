"""Ground-truth IR metrics, rank correlation, significance and tuning.

Per-query effectiveness (AP@k over binarized grades, nDCG@k over graded
labels) is correlated with predictor output via tie-aware Kendall tau.
Two correlations are compared with the Fisher r-to-z approximation
applied to tau, treating the samples as independent. Hyper-parameters
are tuned on a 2-fold split; sweeps evaluate a full (lambda, k) grid
without a split.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .corpus_io import Qrels, RankedList

logger = logging.getLogger(__name__)

# predict_fn(lambda, k, query_ids) -> {query_id: predicted score}
PredictFn = Callable[[float, int, Sequence[str]], Mapping[str, float]]


@dataclass(frozen=True)
class EvalPair:
    query_id: str
    predicted: float
    actual: float


def ap_at_k(run: RankedList, qrels: Qrels, k: int, rel_threshold: int) -> float:
    """Average precision at cutoff ``k`` with grades binarized at ``rel_threshold``.

    Unjudged documents count as non-relevant; the denominator is the
    number of relevant documents, capped at ``k``. A query absent from
    the qrels scores 0 with a warning.
    """
    judged = qrels.get(run.query_id)
    if judged is None:
        logger.warning("query %r has no relevance judgments; ap set to 0", run.query_id)
        return 0.0
    relevant = {doc_id for doc_id, grade in judged.items() if grade >= rel_threshold}
    denominator = min(len(relevant), k)
    if denominator == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for rank, (doc_id, _) in enumerate(run.entries[:k], start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / denominator


def ndcg_at_k(run: RankedList, qrels: Qrels, k: int) -> float:
    """nDCG at cutoff ``k`` with gain 2^grade - 1 and log2(rank + 1) discount.

    An ideal DCG that is not finite (it bounds every gain) is a ValueError naming the query.
    """
    judged = qrels.get(run.query_id)
    if judged is None:
        logger.warning("query %r has no relevance judgments; ndcg set to 0", run.query_id)
        return 0.0
    ideal = sorted(judged.values(), reverse=True)[:k]
    try:
        idcg = sum((2.0**grade - 1.0) / math.log2(rank + 1) for rank, grade in enumerate(ideal, start=1))
    except OverflowError:
        idcg = math.inf
    if not math.isfinite(idcg):
        raise ValueError(f"ndcg@{k} of query {run.query_id!r}: the ideal DCG of grades up to {ideal[0]} is not finite")
    dcg = 0.0
    for rank, (doc_id, _) in enumerate(run.entries[:k], start=1):
        grade = judged.get(doc_id, 0)
        dcg += (2.0**grade - 1.0) / math.log2(rank + 1)
    return dcg / idcg if idcg > 0.0 else 0.0


def _tied_pairs(values: Iterable[Hashable]) -> int:
    return sum(c * (c - 1) // 2 for c in Counter(values).values())


def _discordant_pairs(predicted: Sequence[float], actual: Sequence[float]) -> int:
    """Pairs ordered one way by ``predicted`` and strictly the other way by ``actual``."""
    seen: list[float] = []  # actual values of items with a smaller prediction, sorted
    discordant = 0
    for _, group in groupby(sorted(zip(predicted, actual)), key=lambda pair: pair[0]):
        group_actual = [a for _, a in group]
        for a in group_actual:
            discordant += len(seen) - bisect_right(seen, a)
        for a in group_actual:
            insort(seen, a)
    return discordant


def kendall_tau(pairs: Sequence[EvalPair]) -> float:
    """Tie-aware Kendall tau (tau-b) between predicted and actual values.

    Counts tied and discordant pairs exactly in O(n log n) and combines
    them with the same floating-point operations as
    ``scipy.stats.kendalltau(variant="b")``, so the values are identical.
    Raises when fewer than two pairs are given, when a value is nan, or
    when either side is constant (the tau-b denominator vanishes).
    """
    if len(pairs) < 2:
        raise ValueError(f"kendall tau needs >= 2 pairs, got {len(pairs)}")
    predicted = [p.predicted for p in pairs]
    actual = [p.actual for p in pairs]
    if any(math.isnan(v) for v in predicted + actual):
        raise ValueError("kendall tau undefined: a predicted or actual value is nan")
    total = len(pairs) * (len(pairs) - 1) // 2
    predicted_ties = _tied_pairs(predicted)
    actual_ties = _tied_pairs(actual)
    if predicted_ties == total or actual_ties == total:
        raise ValueError("kendall tau undefined: predictions or actuals are all tied")
    joint_ties = _tied_pairs(zip(predicted, actual))
    con_minus_dis = (
        total - predicted_ties - actual_ties + joint_ties - 2 * _discordant_pairs(predicted, actual)
    )
    tau = con_minus_dis / math.sqrt(total - predicted_ties) / math.sqrt(total - actual_ties)
    return min(1.0, max(-1.0, tau))


class FisherResult(NamedTuple):
    significant: bool
    z: float


# sqrt(2 / (n - 3)) needs n > 3
FISHER_MIN_N = 4


def fisher_z_compare(tau_a: float, tau_b: float, n: int, confidence: float = 0.99) -> FisherResult:
    """Two-sided Fisher r-to-z comparison of two correlations over n queries.

    Uses the independent-samples approximation
    z = (atanh(tau_a) - atanh(tau_b)) / sqrt(2 / (n - 3)).
    """
    from statistics import NormalDist  # imported on first use: nothing else in the package needs it

    if n < FISHER_MIN_N:
        raise ValueError(f"fisher z needs n >= {FISHER_MIN_N}, got {n}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    for name, tau in (("tau_a", tau_a), ("tau_b", tau_b)):
        if abs(tau) >= 1.0:
            raise ValueError(f"{name} must satisfy |tau| < 1, got {tau}")
    z = (math.atanh(tau_a) - math.atanh(tau_b)) / math.sqrt(2.0 / (n - 3))
    critical = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return FisherResult(significant=abs(z) > critical, z=z)


@dataclass(frozen=True)
class FoldSpec:
    train_ids: frozenset[str]
    test_ids: frozenset[str]

    def __post_init__(self) -> None:
        if self.train_ids & self.test_ids:
            raise ValueError("train and test query sets must be disjoint")


@dataclass(frozen=True)
class FoldOutcome:
    chosen_lambda: float
    chosen_k: int
    train_tau: float
    test_tau: float


@dataclass(frozen=True)
class TuneReport:
    folds: tuple[FoldOutcome, ...]
    mean_test_tau: float


def _grid_pairs(
    lam: float, k: int, query_ids: Iterable[str], predict_fn: PredictFn, actual: Mapping[str, float]
) -> list[EvalPair]:
    ids = sorted(query_ids)
    predictions = predict_fn(lam, k, ids)
    return [EvalPair(qid, predictions[qid], actual[qid]) for qid in ids]


def tune_2fold(
    folds: tuple[FoldSpec, FoldSpec],
    lambdas: Sequence[float],
    ks: Sequence[int],
    predict_fn: PredictFn,
    actual: Mapping[str, float],
) -> TuneReport:
    """Select (lambda, k) on each fold's train queries, report test tau.

    The train-best cell wins; ties prefer smaller k, then smaller
    lambda. Cells whose train tau is undefined are never selected; an
    error from ``predict_fn`` propagates. Only train ids flow into
    selection; test ids are touched once, with the chosen parameters.
    """
    if not lambdas or not ks:
        raise ValueError("tuning grid must be non-empty")
    outcomes = []
    for fold in folds:
        best: tuple[float, int, float] | None = None  # (lam, k, train_tau)
        for k in sorted(set(ks)):
            for lam in sorted(set(lambdas)):
                pairs = _grid_pairs(lam, k, fold.train_ids, predict_fn, actual)
                try:
                    train_tau = kendall_tau(pairs)
                except ValueError:
                    continue
                if best is None or train_tau > best[2]:
                    best = (lam, k, train_tau)
        if best is None:
            raise ValueError("no grid cell produced a defined train tau")
        test_tau = kendall_tau(_grid_pairs(best[0], best[1], fold.test_ids, predict_fn, actual))
        outcomes.append(FoldOutcome(best[0], best[1], best[2], test_tau))
    mean_test = sum(o.test_tau for o in outcomes) / len(outcomes)
    return TuneReport(tuple(outcomes), mean_test)


def sweep_grid(
    lambdas: Sequence[float],
    ks: Sequence[int],
    predict_fn: PredictFn,
    actual: Mapping[str, float],
) -> list[tuple[float, int, float]]:
    """Evaluate tau for every (lambda, k) cell over every query of ``actual`` (no folds).

    Rows are ordered by (lambda, k). An undefined tau is reported as nan
    rather than aborting the sweep; an error from ``predict_fn``
    propagates.
    """
    rows: list[tuple[float, int, float]] = []
    for lam in sorted(set(lambdas)):
        for k in sorted(set(ks)):
            pairs = _grid_pairs(lam, k, actual, predict_fn, actual)
            try:
                tau = kendall_tau(pairs)
            except ValueError:
                tau = float("nan")
            rows.append((lam, k, tau))
    return rows
