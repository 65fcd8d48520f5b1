"""The scalar Kendall tau-b that ``qvqpp.evaluation.kendall_tau_rows`` must reproduce ``==``.

Counts tied pairs with a ``Counter`` and discordant pairs with a sorted
insertion list, one pair list at a time, in Python integers. Kept as the
reference for the array kernel: same counts, same float operations.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import Counter
from itertools import groupby
from typing import Hashable, Iterable, Sequence

from qvqpp import EvalPair


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
