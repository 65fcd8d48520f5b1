from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qvqpp import RankedList, RboParams, rbo_ext
from qvqpp import rank_sim
from qvqpp.rank_sim import _estimates, _exact as exact, _shared, rbo_rows, rbo_top_k


def random_lists(rng, universe_size=40, max_len=25):
    universe = [f"i{i}" for i in range(universe_size)]
    a = rng.sample(universe, rng.randint(0, max_len))
    b = rng.sample(universe, rng.randint(0, max_len))
    return a, b


class TestRboExt:
    def test_identical_lists_give_one(self):
        for p in (0.5, 0.9, 0.99):
            ids = [f"d{i}" for i in range(7)]
            assert rbo_ext(ids, ids, RboParams(p=p)) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_lists_give_zero(self):
        assert rbo_ext(["a", "b"], ["c", "d"], RboParams(p=0.9)) == 0.0

    def test_swap_pair_hand_value(self):
        # 1 * 0.81 + (0.1 / 0.9) * (0 * 0.9 + 1 * 0.81) = 0.9
        assert rbo_ext(["x", "y"], ["y", "x"], RboParams(p=0.9)) == pytest.approx(0.9, abs=1e-9)

    def test_accepts_ranked_lists(self):
        a = RankedList.from_scores("q", [("x", 2.0), ("y", 1.0)])
        b = RankedList.from_scores("q", [("y", 2.0), ("x", 1.0)])
        assert rbo_ext(a, b, RboParams(p=0.9)) == pytest.approx(0.9, abs=1e-9)

    def test_symmetry_exact(self):
        rng = random.Random(21)
        for _ in range(300):
            a, b = random_lists(rng)
            assert rbo_ext(a, b) == rbo_ext(b, a)

    def test_bounds(self):
        rng = random.Random(22)
        for _ in range(500):
            a, b = random_lists(rng)
            p = rng.choice([0.3, 0.6, 0.9, 0.97])
            value = rbo_ext(a, b, RboParams(p=p))
            assert 0.0 <= value <= 1.0

    def test_uneven_lengths_match_prefix_set_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b = random_lists(rng)
            if not a or not b:
                continue
            p = rng.choice([0.5, 0.8, 0.9])
            got = rbo_ext(a, b, RboParams(p=p))
            want = oracles.rbo_ext_prefix_sets(a, b, p)
            assert got == pytest.approx(want, abs=1e-12)

    def test_common_head_never_decreases(self):
        rng = random.Random(24)
        for _ in range(200):
            a, b = random_lists(rng)
            base = rbo_ext(a, b)
            grown = rbo_ext(["new-head"] + a, ["new-head"] + b)
            assert grown >= base - 1e-12

    def test_full_prefix_agreement_is_one_any_p(self):
        ids = ["a", "b", "c", "d"]
        for p in (0.1, 0.5, 0.9):
            assert rbo_ext(ids, ids, RboParams(p=p)) == pytest.approx(1.0, abs=1e-12)

    def test_both_empty_is_zero(self):
        assert rbo_ext([], []) == 0.0

    def test_one_empty_is_zero(self):
        assert rbo_ext(["a", "b"], []) == 0.0

    def test_eval_depth_truncates_first(self):
        a = ["x", "y", "z"]
        b = ["x", "y", "w"]
        deep = rbo_ext(a, b, RboParams(p=0.9, eval_depth=3))
        shallow = rbo_ext(a, b, RboParams(p=0.9, eval_depth=2))
        assert shallow == pytest.approx(1.0, abs=1e-12)  # prefixes of length 2 agree
        assert deep < 1.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate id"):
            rbo_ext(["a", "a"], ["b", "c"])

    def test_params_validation(self):
        with pytest.raises(ValueError, match="p must be"):
            RboParams(p=1.0)
        with pytest.raises(ValueError, match="eval_depth"):
            RboParams(eval_depth=0)


UNIVERSE = 30
# rankings of distinct ordinals, as long as the universe at most: empty lists included
rankings = st.lists(st.integers(0, UNIVERSE - 1), unique=True, max_size=UNIVERSE)
rbo_params = st.builds(
    RboParams,
    p=st.sampled_from([0.1, 0.5, 0.8, 0.9, 0.99]) | st.floats(0.01, 0.99),
    eval_depth=st.integers(1, UNIVERSE + 5),  # often shorter than the rankings
)


def ids(ranking):
    return [f"d{i}" for i in ranking]


class TestRboProperties:
    @settings(max_examples=300, deadline=None)
    @given(rankings, rankings, rbo_params)
    def test_in_unit_interval(self, a, b, params):
        assert 0.0 <= rbo_ext(ids(a), ids(b), params) <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(rankings, rankings, rbo_params)
    def test_symmetric(self, a, b, params):
        assert rbo_ext(ids(a), ids(b), params) == rbo_ext(ids(b), ids(a), params)

    @settings(max_examples=300, deadline=None)
    @given(rankings.filter(bool), rbo_params)
    def test_identical_lists_give_one(self, a, params):
        assert rbo_ext(ids(a), ids(a), params) == pytest.approx(1.0, abs=1e-12)


def padded(pool, extra=0):
    """The rankings as a table padded with -1, ``extra`` columns wider than the longest, and their lengths."""
    table = np.full((len(pool), max(map(len, pool), default=0) + extra), -1, dtype=np.int32)
    for row, ranking in enumerate(pool):
        table[row, : len(ranking)] = ranking
    return table, np.array([len(ranking) for ranking in pool], dtype=np.int64)


class TestRboRows:
    @settings(max_examples=400, deadline=None)
    @given(
        rankings,
        st.lists(rankings, max_size=12),
        st.integers(0, 4),
        st.sampled_from([0.5, 0.9]),
        st.integers(1, UNIVERSE + 5),  # often shorter than the rows and the target
    )
    def test_each_row_equals_rbo_ext(self, target, pool, extra, p, eval_depth):
        params = RboParams(p=p, eval_depth=eval_depth)
        table, lengths = padded(pool, extra)
        got = rbo_rows(np.array(target, dtype=np.int32), table, lengths, UNIVERSE, params)
        assert got.dtype == np.float64
        assert got.tolist() == [rbo_ext(ids(target), ids(ranking), params) for ranking in pool]

    @pytest.mark.parametrize("p", [0.5, 0.9])
    @pytest.mark.parametrize("target_length", [0, 3, 8, 30])
    def test_empty_long_and_short_rows(self, p, target_length):
        # an empty row, rows longer than eval_depth and rows shorter and longer than the target
        target = list(range(0, 2 * target_length, 2))
        pool = [[], list(range(30)), [4, 1], list(range(29, 9, -1)), [2, 0, 6, 8, 3]]
        params = RboParams(p=p, eval_depth=12)
        table, lengths = padded(pool, extra=3)
        got = rbo_rows(np.array(target), table, lengths, 60, params).tolist()
        assert got == [rbo_ext(ids(target), ids(ranking), params) for ranking in pool]
        assert got[0] == 0.0 and (target_length == 0) == (max(got) == 0.0)

    def test_python_int_exponents(self):
        # s = 12, l = 23: 0.9 ** 12 and 0.9 ** 23 differ in the last bit from
        # 0.9 ** np.int64(12) and 0.9 ** np.int64(23); numpy exponents put this
        # pair 2.8e-17 below rbo_ext
        target = list(range(23))
        candidate = [4, 5] + list(range(100, 110))
        table, lengths = padded([candidate])
        got = rbo_rows(np.array(target), table, lengths, 110, RboParams(p=0.9)).tolist()
        assert got == [rbo_ext(ids(target), ids(candidate), RboParams(p=0.9))]

    def test_eval_depth_truncates_the_target_first(self):
        # the duplicate 1 lies beyond the depth, as in rbo_ext
        params = RboParams(p=0.9, eval_depth=2)
        table, lengths = padded([[0, 1, 2]])
        assert rbo_rows(np.array([0, 1, 1]), table, lengths, 3, params).tolist() == [
            rbo_ext(["0", "1", "1"], ["0", "1", "2"], params)
        ]

    @pytest.mark.parametrize(
        "target, message",
        [([0, 0], "duplicate id within target list"), ([0, 5], "ordinal outside"), ([-1], "ordinal outside")],
    )
    def test_rejects_a_bad_target(self, target, message):
        table, lengths = padded([[1, 2]])
        with pytest.raises(ValueError, match=message):
            rbo_rows(np.array(target), table, lengths, 5)


def full_top_k(target, table, lengths, size, k, keys, params):
    """The top k of rbo_rows over the whole table under the full lexsort: positions and overlaps."""
    overlaps = rbo_rows(target, table, lengths, size, params)
    order = np.lexsort((*keys, -overlaps))[:k]
    return order.tolist(), overlaps[order].tolist()


@st.composite
def top_k_cases(draw):
    """A target, a padded pool with forced ties, k, tie-break keys and RBO parameters around the row width.

    Ties come as copies of a row and as reorderings of a row of the target's deep documents: each such
    document joins the overlap at its target rank whatever its row rank, so every reordering has the
    same exact overlap, while the closed form adds its terms in another order.
    """
    target = draw(rankings)
    pool = draw(st.lists(rankings, max_size=8))
    pool += draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
    if len(target) > 9:
        deep = draw(st.lists(st.sampled_from(target[6:]), unique=True, min_size=3, max_size=6))
        pool += [draw(st.permutations(deep)) for _ in range(draw(st.integers(2, 5)))]
    pool = draw(st.permutations(pool))
    table, lengths = padded(pool, draw(st.integers(0, 3)))
    width = table.shape[1]
    eval_depth = max(1, width + draw(st.sampled_from([-3, -1, 0, 1, 5])))  # below, at and above the row width
    params = RboParams(p=draw(st.sampled_from([0.01, 0.5, 0.9, 0.999])), eval_depth=eval_depth)
    n = len(pool)
    keys = (np.array(draw(st.permutations(range(n))), dtype=np.int64),
            np.array(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)), dtype=np.int64))
    return np.array(target, dtype=np.int64), table, lengths, draw(st.integers(1, 6)), keys, params


class TestRboTopK:
    @settings(max_examples=600, deadline=None)
    @given(top_k_cases())
    def test_equals_rbo_rows_then_the_full_sort(self, case):
        target, table, lengths, k, keys, params = case
        order, overlaps = rbo_top_k(target, table, lengths, UNIVERSE, k, keys, params)
        assert (order.tolist(), overlaps.tolist()) == full_top_k(target, table, lengths, UNIVERSE, k, keys, params)

    @settings(max_examples=300, deadline=None)
    @given(rankings, st.lists(rankings, min_size=1, max_size=12), st.sampled_from([0.01, 0.5, 0.9, 0.999]),
           st.integers(1, UNIVERSE + 5))
    def test_estimates_within_their_bound(self, target, pool, p, eval_depth):
        table, lengths = padded(pool)
        live, s, l, row, join = _shared(np.array(target), table, lengths, UNIVERSE, eval_depth)
        if len(live):
            estimates, error = _estimates(s, l, row, join, p)
            assert math.isfinite(error)
            exact = rbo_rows(np.array(target), table, lengths, UNIVERSE, RboParams(p=p, eval_depth=eval_depth))
            assert np.all(np.abs(estimates - exact[live]) <= error)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_empty_target_all_zero_overlaps_and_small_pools(self, k):
        pool = [[], [1, 2, 3], [4], [3, 1], [7, 8, 9, 10]]
        keys = (np.array([4, 3, 2, 1, 0]), np.array([2, 1, 2, 1, 1]))
        for target in ([], [20, 21, 22], [1, 2, 3, 4]):
            for rows in (pool, pool[:k]):
                table, lengths = padded(rows)
                args = (np.array(target, dtype=np.int64), table, lengths, 30, k, tuple(key[: len(rows)] for key in keys))
                order, overlaps = rbo_top_k(*args)
                assert (order.tolist(), overlaps.tolist()) == full_top_k(*args, RboParams())

    @pytest.mark.parametrize(
        "target, message",
        [([0, 0], "duplicate id within target list"), ([0, 5], "ordinal outside"), ([-1], "ordinal outside")],
    )
    @pytest.mark.parametrize("rows", [1, 4])
    def test_rejects_a_bad_target_as_rbo_rows_does(self, target, message, rows):
        table, lengths = padded([[1, 2]] * rows)
        keys = (np.arange(rows),)
        with pytest.raises(ValueError, match=message) as want:
            rbo_rows(np.array(target), table, lengths, 5)
        with pytest.raises(ValueError) as got:
            rbo_top_k(np.array(target), table, lengths, 5, 2, keys)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("case", ["underflow", "operation count"])
    def test_an_unproved_bound_scores_every_row(self, case, monkeypatch):
        # p**(W - 1) underflows for p = 0.01 and rows of 200; a unit roundoff of 1/8 makes N u >= 1
        size = 400
        target = np.arange(0, 400, 2)
        pool = [list(range(shift, shift + 200)) for shift in range(0, 60, 6)]
        p = 0.01 if case == "underflow" else 0.9
        if case == "operation count":
            monkeypatch.setattr(rank_sim, "_UNIT_ROUNDOFF", 0.125)
        table, lengths = padded(pool)
        params = RboParams(p=p, eval_depth=200)
        live, s, l, row, join = _shared(target, table, lengths, size, params.eval_depth)
        assert _estimates(s, l, row, join, p)[1] == math.inf
        scored = []
        monkeypatch.setattr(rank_sim, "_exact", lambda s, *rest: scored.append(len(s)) or exact(s, *rest))
        keys = (np.arange(len(pool)),)
        order, overlaps = rbo_top_k(target, table, lengths, size, 2, keys, params)
        assert scored == [len(pool)]
        assert (order.tolist(), overlaps.tolist()) == full_top_k(target, table, lengths, size, 2, keys, params)


class TestRboRowsRowIndependence:
    @settings(max_examples=300, deadline=None)
    @given(rankings, st.lists(rankings, min_size=1, max_size=10), st.sampled_from([0.01, 0.5, 0.9, 0.999]),
           st.integers(1, UNIVERSE + 5), st.data())
    def test_a_row_scores_the_same_alone_in_a_subset_and_in_the_whole_table(self, target, pool, p, eval_depth, data):
        params = RboParams(p=p, eval_depth=eval_depth)
        table, lengths = padded(pool, extra=2)
        target = np.array(target, dtype=np.int64)
        whole = rbo_rows(target, table, lengths, UNIVERSE, params).tolist()
        subset = data.draw(st.lists(st.integers(0, len(pool) - 1), unique=True))  # any subset, in any order
        narrow = table[subset][:, : max(lengths[subset], default=0)]  # as wide as its own longest row
        assert rbo_rows(target, narrow, lengths[subset], UNIVERSE, params).tolist() == [whole[r] for r in subset]
        for r in range(len(pool)):
            assert rbo_rows(target, table[r : r + 1], lengths[r : r + 1], UNIVERSE, params).tolist() == [whole[r]]
