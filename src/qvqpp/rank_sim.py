"""Rank-biased overlap (RBO) between two ranked lists.

Implements the extrapolated variant: the overlap observed on the seen
prefixes is assumed to continue, so two identical lists score 1.0. For
lists of unequal length the standard uneven-length extrapolation is
used. The persistence parameter ``p`` controls top-weighting: weight
mass on the first d ranks is roughly 1 - p^d.

:func:`rbo_ext` compares two id lists. :func:`rbo_rows` compares one
target ranking with every row of a table of rankings padded with -1, all
given as integer ordinals (such as an index's item ordinals), in one pass
of array operations; UEF scores its stacked re-ranked heads with it. Its
values are ``==`` to ``rbo_ext``'s.

The variant re-ranking keeps only the k best rows, so :func:`rbo_top_k`
scores exactly only the rows that can reach them, a filter-then-exact
scheme: :func:`_estimates` gives each row a closed-form approximation in
arithmetic per shared document (not per cell of the table) and a bound E,
derived there, on its distance from ``rbo_rows``' float. A row whose
approximation lies more than 2E below the k-th largest has k rows strictly
above it and is dropped, and ``rbo_rows``' kernel scores the survivors.
Their values and order are ``==`` to those of scoring every row with
``rbo_rows``; where E is not finite every row is scored.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence, Union

import numpy as np

from .config import RboParams
from .corpus_io import RankedList

ListLike = Union[RankedList, Sequence[str]]

_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_NORMAL = 2.0**-1022


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


def _shared(target: np.ndarray, rows: np.ndarray, lengths: np.ndarray, size: int, depth: int):
    """The documents each row of a padded table shares with ``target``, both truncated to ``depth``.

    Returns the rows that share a document (``live``, ascending), their
    s and l (the shorter and the longer of the row's and the target's
    lengths) and, per shared document in row-major order, the place of its
    row in ``live`` and the depth max(i, j) + 1 at which it joins the
    overlap (rank i in the row, j in the target). The target is checked as
    :func:`rbo_rows` states.
    """
    target = np.asarray(target, dtype=np.int64)[:depth]
    t = len(target)
    if t and (target.min() < 0 or target.max() >= size):
        raise ValueError(f"ordinal outside [0, {size})")
    # the extra last slot stays -1, so the rows' -1 padding finds no target rank
    position = np.full(size + 1, -1, dtype=np.int32)
    position[target] = np.arange(t)
    if np.any(position[target] != np.arange(t)):
        raise ValueError("duplicate id within target list")
    at_target = np.take(position, rows[:, :depth])  # faster than fancy indexing; -1 reads the last slot too
    common = np.flatnonzero(at_target >= 0)
    columns = at_target.shape[1]
    common_row = common // columns
    first = np.empty(len(common), dtype=bool)  # common_row ascends: each live row starts where it changes
    first[:1] = True
    np.not_equal(common_row[1:], common_row[:-1], out=first[1:])
    live = common_row[first]
    lengths = np.minimum(lengths[live], depth)
    join = np.maximum(common - common_row * columns, at_target.ravel()[common]) + 1
    return live, np.minimum(lengths, t), np.maximum(lengths, t), np.cumsum(first) - 1, join


@functools.lru_cache(maxsize=16)
def _python_powers(p: float, width: int) -> np.ndarray:
    """p**k for k < ``width`` with Python int exponents, as :func:`rbo_ext` takes them, read-only."""
    powers = np.array([p**k for k in range(width)])
    powers.flags.writeable = False
    return powers


def _exact(s: np.ndarray, l: np.ndarray, row: np.ndarray, join: np.ndarray, p: float) -> np.ndarray:
    """:func:`rbo_ext` of each row that shares a document with the target, from :func:`_shared`'s arrays."""
    n, at = len(s), np.arange(len(s))
    # x[r, d] counts the documents of row r that join the overlap at depth <= d
    width = int(l.max()) + 1
    x = np.bincount(row * width + join, minlength=n * width).reshape(n, width).cumsum(axis=1)
    x_s, x_l = x[at, s], x[at, l]

    # every sum is a prefix of a row-wise cumsum, and every power of p after p**s a prefix of a
    # row-wise cumprod: both run in rbo_ext's loop order (np.sum would add pairwise), so every float
    # matches; p**s and p**l take Python int exponents (p ** np.int64(s) rounds differently)
    powers = _python_powers(p, width)
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
    return np.minimum(1.0, np.maximum(0.0, (1.0 - p) / p * (sum1 + sum2) + sum3))


def rbo_rows(
    target: np.ndarray, rows: np.ndarray, lengths: np.ndarray, size: int, params: RboParams = RboParams()
) -> np.ndarray:
    """:func:`rbo_ext` of ``target`` against each row of a padded table, as a float64 array.

    Row ``r`` of the 2-D integer array ``rows`` holds a ranking of
    ``lengths[r]`` ordinals in [0, ``size``), then -1 up to the table's
    width; ``target`` is a ranking of such ordinals. Each value is ``==``
    to ``rbo_ext`` on the same lists, so it does not depend on the other
    rows passed. As there, the target and every row are truncated to
    ``params.eval_depth`` first and an empty list gives 0.0. The target's
    ordinals are checked (an ordinal outside [0, ``size``) or a duplicate
    is a ValueError); the rows' are trusted. A row that shares no document
    with the target gets 0.0 after one lookup pass, so the arithmetic grows
    with the rows that share one.
    """
    live, s, l, row, join = _shared(target, rows, lengths, size, params.eval_depth)
    values = np.zeros(len(lengths))
    if len(live):
        values[live] = _exact(s, l, row, join, params.p)
    return values


@functools.lru_cache(maxsize=16)
def _tables(p: float, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p^d, G[d] = sum p^e / e and P[d] = sum p^e over e = 1..d, for d < ``width``, read-only."""
    powers, g, big_p = np.ones(width), np.zeros(width), np.zeros(width)
    np.cumprod(np.full(width - 1, p), out=powers[1:])
    np.cumsum(powers[1:] / np.arange(1, width), out=g[1:])
    np.cumsum(powers[1:], out=big_p[1:])
    for table in (powers, g, big_p):
        table.flags.writeable = False
    return powers, g, big_p


def _estimates(s: np.ndarray, l: np.ndarray, row: np.ndarray, join: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """Closed-form approximations of :func:`_exact`'s values, and a bound E on their distance from them.

    Takes :func:`_shared`'s arrays and returns (a, E) with
    |a[r] - _exact(...)[r]| <= E for every row, or E = inf where no bound
    is proved. The arithmetic runs per shared document, never per cell of
    the table: with the m documents a row shares with the target, x_s of
    them joining the overlap by depth s, and G[d] = sum p^e / e,
    P[d] = sum p^e over e = 1..d,

        sum1 = m G[l] - sum over shared documents of G[join - 1]
        sum2 = x_s ((P[l] - P[s]) / s - (G[l] - G[s]))
        sum3 = ((m - x_s) / l + x_s / s) p^l

    and a = (1 - p) / p (sum1 + sum2) + sum3, clamped to [0, 1] as the
    exact value is. The tables run to the longest l, the longer of the
    target and a row after truncation, never to ``eval_depth``.

    The bound. With W = max l + 1, no path of this computation or of
    :func:`_exact`'s has more than N = 3W + 4 roundings (Python's ``p**e``
    counted as two), so by the standard model each is within gamma_N of
    the real value per unit of its magnitude: the same expression with
    each subtraction turned into an addition, M. ``_exact`` adds
    non-negative terms only and its real value is at most M, so
    |a - exact| <= 2 gamma_N M, with gamma_N = N u / (1 - N u) and
    u = 2**-53; clamping both to [0, 1] moves neither further apart.
    E = 4 gamma_N max M~ doubles that bound over the computed magnitudes
    M~, which covers the rounding of M~, of E and of a caller's threshold
    arithmetic. The model needs every non-zero quantity to stay in the
    normal range, which holds when min(1, (1 - p) / p) p^(W-1) / W^2 does,
    and N u < 1; failing either, or a bound that is not finite, gives
    E = inf.
    """
    width = int(l.max()) + 1
    powers, g, big_p = _tables(p, width)
    n = len(s)
    m = np.bincount(row, minlength=n).astype(np.float64)
    x_s = np.bincount(row, weights=join <= s[row], minlength=n)
    g_join = np.bincount(row, weights=g[join - 1], minlength=n)
    g_l, g_s, p_l, p_s = g[l], g[s], big_p[l], big_p[s]
    sum3 = ((m - x_s) / l + x_s / s) * powers[l]
    scale = (1.0 - p) / p
    value = scale * (m * g_l - g_join + x_s * ((p_l - p_s) / s - (g_l - g_s))) + sum3
    magnitude = scale * (m * g_l + g_join + x_s * ((p_l + p_s) / s + g_l + g_s)) + sum3
    estimates = np.minimum(1.0, np.maximum(0.0, value))
    ops = (3 * width + 4) * _UNIT_ROUNDOFF
    if ops >= 1.0 or not min(1.0, scale) * powers[-1] / width**2 >= _SMALLEST_NORMAL:
        return estimates, math.inf
    return estimates, 4.0 * ops / (1.0 - ops) * float(magnitude.max())


def rbo_top_k(
    target: np.ndarray,
    rows: np.ndarray,
    lengths: np.ndarray,
    size: int,
    k: int,
    keys: Sequence[np.ndarray],
    params: RboParams = RboParams(),
) -> tuple[np.ndarray, np.ndarray]:
    """The k rows that best overlap ``target``: their positions in the table, best first, and overlaps.

    Takes the arguments of :func:`rbo_rows` and checks the target as it
    does. The order is overlap descending, then by ``keys``, one value per
    row each, as ``np.lexsort((*keys, -overlaps))`` orders them (the last
    key the most significant); the result is ``==`` to that sort over
    :func:`rbo_rows` of the whole table, cut to k. Only the rows that can
    reach the top k are scored exactly: with the approximations a and the
    bound E of :func:`_estimates` (a = 0.0 = exact for a row that shares no
    document) and A the k-th largest a, a row with a < A - 2E has k rows
    whose exact overlaps reach A - E, strictly above its own, so it is
    dropped; as a row's exact value does not depend on the other rows, the
    survivors' values and order are those of the whole table. A table of at
    most k rows, or an E that is not finite, is scored whole.
    """
    live, s, l, row, join = _shared(target, rows, lengths, size, params.eval_depth)
    overlaps = np.zeros(len(lengths))
    kept = np.arange(len(lengths))
    if len(live) and len(kept) > k:
        estimates, error = _estimates(s, l, row, join, params.p)
        if math.isfinite(error):
            every = np.zeros(len(lengths))
            every[live] = estimates
            keep = every >= np.partition(every, -k)[-k] - 2.0 * error
            kept, scored = np.flatnonzero(keep), keep[live]
            if not scored.all():  # the shared documents of the scored rows, their rows renumbered
                documents = scored[row]
                live, s, l = live[scored], s[scored], l[scored]
                row, join = (np.cumsum(scored) - 1)[row[documents]], join[documents]
    if len(live):
        overlaps[live] = _exact(s, l, row, join, params.p)
    overlaps = overlaps[kept]
    order = np.lexsort((*(key[kept] for key in keys), -overlaps))[:k]
    return kept[order], overlaps[order]
