"""Ground-truth IR metrics, rank correlation, significance and tuning.

Per-query effectiveness (AP@k over binarized grades, nDCG@k over graded
labels) is correlated with predictor output via tie-aware Kendall tau.
Two correlations are compared with the Fisher r-to-z approximation
applied to tau, treating the samples as independent. Hyper-parameters
are tuned on a 2-fold split; sweeps evaluate a full (lambda, k) grid
without a split. Both read every cell's predictions from one float64
array: axis 0 the sorted distinct lambdas, axis 1 the sorted distinct ks,
axis 2 the queries of ``actual`` in sorted id order. Every tau comes from
one array kernel, :func:`kendall_tau_rows`, which scores a whole grid's
prediction matrix in one pass of exact integer pair counts (Knight's
merge count).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus_io import Qrels, RankedList

logger = logging.getLogger(__name__)


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


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dense rank of each value of row-sorted ``rows`` and each row's tied pairs, equal meaning ``==``.

    So -0.0 ties with 0.0 and inf with inf, as in a ``Counter`` of the floats. A value pairs with the
    earlier values of its run.
    """
    starts_run = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[..., 1:], rows[..., :-1], out=starts_run[..., 1:])
    positions = np.arange(rows.shape[-1])
    run_start = np.maximum.accumulate(np.where(starts_run, positions, 0), axis=-1)
    return np.cumsum(starts_run, axis=-1) - 1, (positions - run_start).sum(axis=-1)


def _inversions(ranks: np.ndarray) -> np.ndarray:
    """Per row of the cells x n ``ranks`` (integers in [0, n)), the pairs i < j with ``ranks[i] > ranks[j]``.

    A bottom-up merge count. At each level every adjacent pair of blocks is sorted within each block; a
    right block's element passes the larger elements of its left block, which one ``searchsorted`` counts
    for all rows, the values offset per block pair so that the left blocks form one sorted array.
    """
    cells, n = ranks.shape
    size = 1 << (n - 1).bit_length()
    blocks = np.full((cells, size), n, dtype=np.int64)  # padding with n at the end adds no pair
    blocks[:, :n] = ranks
    counts = np.zeros(cells, dtype=np.int64)
    width = 1
    while width < size:
        groups = cells * size // (2 * width)
        pairs = np.sort(blocks.reshape(groups, 2, width), axis=-1)
        offsets = np.arange(groups, dtype=np.int64)[:, None] * (n + 1)
        at_most = np.searchsorted((pairs[:, 0] + offsets).ravel(), pairs[:, 1] + offsets, side="right")
        left_ends = np.arange(width, (groups + 1) * width, width)[:, None]
        counts += (left_ends - at_most).reshape(cells, size // 2).sum(axis=1)
        blocks = pairs.reshape(cells, size)
        width *= 2
    return counts


def kendall_tau_rows(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Tau-b of each row of the float64 cells x n ``predicted`` against ``actual``, nan where undefined.

    Undefined, where :func:`kendall_tau` raises: n < 2, a nan in the row or in ``actual``, or either side
    all tied. Values are ranked by comparison, never by subtraction. The actual side's ties are counted
    once; a row's predicted ties come from a row-wise sort, its joint ties from a row-wise sort by (actual
    rank, predicted rank), and its discordant pairs are the inversions of the predicted ranks in that
    order. The exact counts enter ``scipy.stats.kendalltau(variant="b")``'s float operations, so each tau
    is the float it gives. Cost: O(n log^2 n) per row, in three row-wise sorts and log2(n) merge levels.
    """
    cells, n = predicted.shape
    taus = np.full(cells, np.nan)
    if np.isnan(actual).any():
        return taus
    total = n * (n - 1) // 2
    actual_order = np.argsort(actual)
    actual_rank = np.empty(n, dtype=np.int64)
    actual_rank[actual_order], actual_ties = _runs(actual[actual_order])
    if actual_ties == total:
        return taus
    order = np.argsort(predicted, axis=1)
    sorted_rank, predicted_ties = _runs(np.take_along_axis(predicted, order, axis=1))
    predicted_rank = np.empty_like(sorted_rank)
    np.put_along_axis(predicted_rank, order, sorted_rank, axis=1)
    joint = np.sort(actual_rank * n + predicted_rank, axis=1)
    con_minus_dis = total - predicted_ties - actual_ties + _runs(joint)[1] - 2 * _inversions(joint % n)
    defined = ~np.isnan(predicted).any(axis=1) & (predicted_ties < total)
    taus[defined] = con_minus_dis[defined] / np.sqrt(total - predicted_ties[defined]) / np.sqrt(total - actual_ties)
    return np.clip(taus, -1.0, 1.0)


def kendall_tau(pairs: Sequence[EvalPair]) -> float:
    """Tie-aware Kendall tau (tau-b) between predicted and actual values.

    :func:`kendall_tau_rows` on one row, O(n log^2 n): the same float as
    ``scipy.stats.kendalltau(variant="b")``. Raises when fewer than two
    pairs are given, when a value is nan, or when either side is constant
    (the tau-b denominator vanishes).
    """
    if len(pairs) < 2:
        raise ValueError(f"kendall tau needs >= 2 pairs, got {len(pairs)}")
    predicted = [p.predicted for p in pairs]
    actual = [p.actual for p in pairs]
    if any(math.isnan(v) for v in predicted + actual):
        raise ValueError("kendall tau undefined: a predicted or actual value is nan")
    tau = kendall_tau_rows(np.array([predicted], dtype=np.float64), np.array(actual, dtype=np.float64))[0]
    if math.isnan(tau):
        raise ValueError("kendall tau undefined: predictions or actuals are all tied")
    return float(tau)


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


def _grid_axes(grid: np.ndarray, lambdas: Sequence[float], ks: Sequence[int], actual: Mapping[str, float]):
    """The grid's axes: sorted distinct lambdas and ks, sorted ids; then the ids' actual values. Checks the shape."""
    lams, k_values, ids = sorted(set(lambdas)), sorted(set(ks)), sorted(actual)
    if grid.shape != (len(lams), len(k_values), len(ids)):
        raise ValueError(f"prediction grid must have shape {(len(lams), len(k_values), len(ids))}, got {grid.shape}")
    return lams, k_values, ids, np.array([actual[qid] for qid in ids], dtype=np.float64)


def tune_2fold(
    folds: tuple[FoldSpec, FoldSpec],
    lambdas: Sequence[float],
    ks: Sequence[int],
    grid: np.ndarray,
    actual: Mapping[str, float],
) -> TuneReport:
    """Select (lambda, k) on each fold's train queries, report test tau.

    ``grid`` holds every cell's predictions of the queries of ``actual``
    (see the module docstring). The train-best cell wins; ties prefer
    smaller k, then smaller lambda. Cells whose train tau is undefined are
    never selected. Only train columns flow into selection: a fold's train
    taus are one :func:`kendall_tau_rows` call over every cell. Test
    columns are read once, for the chosen cell.
    """
    if not lambdas or not ks:
        raise ValueError("tuning grid must be non-empty")
    lams, k_values, ids, values = _grid_axes(grid, lambdas, ks, actual)
    column = {qid: c for c, qid in enumerate(ids)}
    cells = [(lam, k) for k in k_values for lam in lams]
    by_k = grid.transpose(1, 0, 2).reshape(len(cells), len(ids))
    outcomes = []
    for fold in folds:
        train = [column[qid] for qid in sorted(fold.train_ids)]
        best: tuple[int, float] | None = None  # (cell, train_tau)
        for cell, train_tau in enumerate(kendall_tau_rows(by_k[:, train], values[train]).tolist()):
            if not math.isnan(train_tau) and (best is None or train_tau > best[1]):
                best = (cell, train_tau)
        if best is None:
            raise ValueError("no grid cell produced a defined train tau")
        chosen = by_k[best[0]].tolist()
        test_tau = kendall_tau([EvalPair(qid, chosen[column[qid]], actual[qid]) for qid in sorted(fold.test_ids)])
        outcomes.append(FoldOutcome(*cells[best[0]], best[1], test_tau))
    mean_test = sum(o.test_tau for o in outcomes) / len(outcomes)
    return TuneReport(tuple(outcomes), mean_test)


def sweep_grid(
    lambdas: Sequence[float],
    ks: Sequence[int],
    grid: np.ndarray,
    actual: Mapping[str, float],
) -> list[tuple[float, int, float]]:
    """Evaluate tau for every (lambda, k) cell of ``grid`` over every query of ``actual`` (no folds).

    Rows are ordered by (lambda, k), the order of ``grid``'s cells (see
    the module docstring). An undefined tau is reported as nan rather than
    aborting the sweep. The cells are scored by one
    :func:`kendall_tau_rows` call, O(n log^2 n) per cell.
    """
    lams, k_values, ids, values = _grid_axes(grid, lambdas, ks, actual)
    cells = [(lam, k) for lam in lams for k in k_values]
    taus = kendall_tau_rows(grid.reshape(len(cells), len(ids)), values)
    return [(lam, k, tau) for (lam, k), tau in zip(cells, taus.tolist())]
