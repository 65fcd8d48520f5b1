"""Rank-biased overlap (RBO) between two ranked lists.

Implements the extrapolated variant: the overlap observed on the seen
prefixes is assumed to continue, so two identical lists score 1.0. For
lists of unequal length the standard uneven-length extrapolation is
used. The persistence parameter ``p`` controls top-weighting: weight
mass on the first d ranks is roughly 1 - p^d.

:func:`rbo_ext` compares two id lists. :func:`rbo_rows` compares one
target ranking with every row of a table of rankings padded with -1, all
given as integer ordinals (such as an index's item ordinals), in one pass
of array operations; it serves both the variant re-ranking (rows of a
run table) and UEF (stacked re-ranked heads). Its values are ``==`` to
``rbo_ext``'s.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .config import RboParams
from .corpus_io import RankedList

ListLike = Union[RankedList, Sequence[str]]


def _ids(ranking: ListLike) -> list[str]:
    if isinstance(ranking, RankedList):
        return ranking.doc_ids()
    return list(ranking)


def rbo_ext(a: ListLike, b: ListLike, params: RboParams = RboParams()) -> float:
    """Extrapolated RBO of two rankings, in [0, 1].

    Both inputs are truncated to ``params.eval_depth`` first. Ids must be
    unique within each list. If either list is empty the overlap carries
    no evidence and the result is defined as 0.
    """
    first = _ids(a)[: params.eval_depth]
    second = _ids(b)[: params.eval_depth]
    for name, ids in (("first", first), ("second", second)):
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate id within {name} list")
    if len(first) > len(second):
        longer, shorter = first, second
    else:
        longer, shorter = second, first
    s, l = len(shorter), len(longer)
    if s == 0:
        return 0.0

    p = params.p
    # x_d = |prefix_d(longer) ∩ prefix_min(d,s)(shorter)|
    seen_short: set[str] = set()
    seen_long: set[str] = set()
    overlap = 0
    x_at = [0] * (l + 1)
    sum1 = 0.0
    p_pow = 1.0
    for d in range(1, l + 1):
        p_pow *= p
        long_elem = longer[d - 1]
        if d <= s:
            short_elem = shorter[d - 1]
            if long_elem == short_elem:
                overlap += 1
            else:
                if long_elem in seen_short:
                    overlap += 1
                if short_elem in seen_long:
                    overlap += 1
            seen_long.add(long_elem)
            seen_short.add(short_elem)
        else:
            if long_elem in seen_short:
                overlap += 1
            seen_long.add(long_elem)
        x_at[d] = overlap
        sum1 += overlap / d * p_pow

    x_s, x_l = x_at[s], x_at[l]
    sum2 = 0.0
    if s < l:
        p_pow = p**s
        for d in range(s + 1, l + 1):
            p_pow *= p
            sum2 += x_s * (d - s) / (s * d) * p_pow
    sum3 = ((x_l - x_s) / l + x_s / s) * p**l
    value = (1.0 - p) / p * (sum1 + sum2) + sum3
    return min(1.0, max(0.0, value))


def rbo_rows(
    target: np.ndarray, rows: np.ndarray, lengths: np.ndarray, size: int, params: RboParams = RboParams()
) -> np.ndarray:
    """:func:`rbo_ext` of ``target`` against each row of a padded table, as a float64 array.

    Row ``r`` of the 2-D integer array ``rows`` holds a ranking of
    ``lengths[r]`` ordinals in [0, ``size``), then -1 up to the table's
    width; ``target`` is a ranking of such ordinals. Each value is ``==``
    to ``rbo_ext`` on the same lists. As there, the target and every row
    are truncated to ``params.eval_depth`` first and an empty list gives
    0.0. The target's ordinals are checked (an ordinal outside [0,
    ``size``) or a duplicate is a ValueError); the rows' are trusted.
    A row that shares no document with the target gets 0.0 after one
    lookup pass, so the arithmetic grows with the rows that share one.
    """
    depth = params.eval_depth
    target = np.asarray(target, dtype=np.int64)[:depth]
    t = len(target)
    if t and (target.min() < 0 or target.max() >= size):
        raise ValueError(f"ordinal outside [0, {size})")
    # the extra last slot stays -1, so the rows' -1 padding finds no target rank
    position = np.full(size + 1, -1, dtype=np.int32)
    position[target] = np.arange(t)
    if np.any(position[target] != np.arange(t)):
        raise ValueError("duplicate id within target list")
    lengths = np.minimum(lengths, depth)
    values = np.zeros(len(lengths))
    # a row sharing no document with the target (an empty one included) has overlap 0.0, as in rbo_ext,
    # so only the rows with a common document are scored: live[r] is the table row of scored row r
    at_target = np.take(position, rows[:, :depth])  # faster than fancy indexing; -1 reads the last slot too
    common = np.flatnonzero(at_target >= 0)
    if not len(common):
        return values
    common_row = common // at_target.shape[1]
    first = np.empty(len(common), dtype=bool)  # common_row ascends: each live row starts where it changes
    first[0] = True
    np.not_equal(common_row[1:], common_row[:-1], out=first[1:])
    live, row = common_row[first], np.cumsum(first) - 1
    s, l = np.minimum(lengths[live], t), np.maximum(lengths[live], t)
    n, at = len(live), np.arange(len(live))

    # a document at row rank i and target rank j joins the overlap at depth max(i, j) + 1;
    # x[r, d] counts those of row r at depth <= d
    width = int(l.max()) + 1
    joined = row * width + np.maximum(common - common_row * at_target.shape[1], at_target.ravel()[common]) + 1
    x = np.bincount(joined, minlength=n * width).reshape(n, width).cumsum(axis=1)
    x_s, x_l = x[at, s], x[at, l]

    # every sum is a prefix of a row-wise cumsum, and every power of p after p**s a prefix of a
    # row-wise cumprod: both run in rbo_ext's loop order (np.sum would add pairwise), so every float
    # matches; p**s and p**l take Python int exponents (p ** np.int64(s) rounds differently)
    p = params.p
    powers = np.array([p**k for k in range(width)])
    d = np.arange(1, width)
    sum1 = np.cumsum(x[:, 1:] / d * np.cumprod(np.full(width - 1, p)), axis=1)[at, l - 1]
    sum2 = np.zeros(n)  # rbo_ext's 0.0 where s == l
    uneven = np.flatnonzero(s < l)
    if len(uneven):  # sum2 runs over d = s + 1 .. l, that is d - s = 1 .. l - s
        su, gap = s[uneven, None], (l - s)[uneven]
        steps = np.full((len(uneven), int(gap.max()) + 1), p)
        steps[:, 0] = powers[su[:, 0]]
        k = np.arange(1, steps.shape[1])
        terms = x_s[uneven, None] * k / (su * (su + k)) * np.cumprod(steps, axis=1)[:, 1:]
        sum2[uneven] = np.cumsum(terms, axis=1)[np.arange(len(uneven)), gap - 1]
    sum3 = ((x_l - x_s) / l + x_s / s) * powers[l]
    values[live] = np.minimum(1.0, np.maximum(0.0, (1.0 - p) / p * (sum1 + sum2) + sum3))
    return values
