"""Rank-biased overlap (RBO) between two ranked lists.

Implements the extrapolated variant: the overlap observed on the seen
prefixes is assumed to continue, so two identical lists score 1.0. For
lists of unequal length the standard uneven-length extrapolation is
used. The persistence parameter ``p`` controls top-weighting: weight
mass on the first d ranks is roughly 1 - p^d.

:func:`rbo_ext` compares two id lists. :func:`rbo_pool` compares one
target ranking with a whole pool of candidate rankings, all given as
integer ordinals (such as an index's item ordinals), in one pass of
array operations; its values are ``==`` to ``rbo_ext``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .corpus_io import RankedList

ListLike = Union[RankedList, Sequence[str]]


@dataclass(frozen=True)
class RboParams:
    p: float = 0.9
    eval_depth: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        if self.eval_depth < 1:
            raise ValueError(f"eval_depth must be >= 1, got {self.eval_depth}")


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


def rbo_pool(
    target: np.ndarray, candidates: Sequence[np.ndarray], size: int, params: RboParams = RboParams()
) -> list[float]:
    """:func:`rbo_ext` of ``target`` against each candidate, in one pass over the whole pool.

    Rankings are integer ordinals in [0, ``size``) that stand for ids.
    Each value is ``==`` to ``rbo_ext`` on the same lists: the floats
    come from the same operations in the same order. As there, every
    list is truncated to ``params.eval_depth`` first, an empty list
    gives 0.0 and a duplicate within a list is a ValueError; so is an
    ordinal outside [0, ``size``).
    """
    depth = params.eval_depth
    target = np.asarray(target, dtype=np.int64)[:depth]
    runs = [run[:depth] for run in candidates]
    lengths = np.fromiter(map(len, runs), dtype=np.int64, count=len(runs))
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *runs])
    for ordinals in (target, flat):
        if len(ordinals) and (ordinals.min() < 0 or ordinals.max() >= size):
            raise ValueError(f"ordinal outside [0, {size})")
    position = np.full(size, -1, dtype=np.int64)
    position[target] = np.arange(len(target))
    if np.any(position[target] != np.arange(len(target))):
        raise ValueError("duplicate id within target list")
    rows = np.repeat(np.arange(len(runs)), lengths)
    keys = np.sort(rows * size + flat)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate id within a candidate list")

    # a document at candidate rank i and target rank j joins the overlap at depth max(i, j) + 1;
    # x[r, d] counts those of row r at depth <= d
    t = len(target)
    width = max(t, int(lengths.max(initial=0))) + 1
    ranks = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    at_target = position[flat]
    common = np.flatnonzero(at_target >= 0)
    joined = rows[common] * width + np.maximum(ranks[common], at_target[common]) + 1
    x = np.bincount(joined, minlength=len(runs) * width).reshape(len(runs), width).cumsum(axis=1)

    # rows of one length share (s, l); cumprod repeats rbo_ext's `p_pow *= p` and cumsum adds in
    # its loop order (np.sum would add pairwise), so every float matches
    p = params.p
    values = np.zeros(len(runs))
    for length in sorted(set(lengths.tolist())):
        s, l = min(length, t), max(length, t)  # Python ints: p ** np.int64(s) rounds differently
        if s == 0:
            continue
        group = np.flatnonzero(lengths == length)
        d = np.arange(1, l + 1)
        sum1 = np.cumsum(x[group, 1 : l + 1] / d * np.cumprod(np.full(l, p)), axis=1)[:, -1]
        x_s, x_l = x[group, s], x[group, l]
        sum2 = 0.0
        if s < l:
            d = d[s:]
            p_pow = np.cumprod(np.concatenate(([p**s], np.full(l - s, p))))[1:]
            sum2 = np.cumsum(x_s[:, None] * (d - s) / (s * d) * p_pow, axis=1)[:, -1]
        sum3 = ((x_l - x_s) / l + x_s / s) * p**l
        values[group] = (1.0 - p) / p * (sum1 + sum2) + sum3
    return np.minimum(1.0, np.maximum(0.0, values)).tolist()
