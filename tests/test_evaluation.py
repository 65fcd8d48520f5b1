from __future__ import annotations

import logging
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import tau_reference
from qvqpp import (
    EvalPair,
    FoldSpec,
    RankedList,
    ap_at_k,
    fisher_z_compare,
    kendall_tau,
    ndcg_at_k,
    sweep_grid,
    tune_2fold,
)
from qvqpp.evaluation import kendall_tau_rows


def ranked(query_id, doc_ids):
    n = len(doc_ids)
    return RankedList(query_id, [(d, float(n - i)) for i, d in enumerate(doc_ids)])


def pairs_from(predicted, actual):
    return [EvalPair(f"q{i}", p, a) for i, (p, a) in enumerate(zip(predicted, actual))]


class TestApAtK:
    def test_hand_value(self):
        qrels = {"q": {"d1": 3, "d3": 2, "d2": 1}}
        run = ranked("q", ["d2", "d1", "d3"])
        # relevant at threshold 2: {d1, d3}; hits at ranks 2 and 3
        assert ap_at_k(run, qrels, 100, 2) == pytest.approx((1 / 2 + 2 / 3) / 2, abs=1e-12)
        assert ap_at_k(run, qrels, 100, 2) == pytest.approx(0.58333, abs=1e-5)

    def test_single_relevant_at_rank_one(self):
        qrels = {"q": {"d1": 3}}
        assert ap_at_k(ranked("q", ["d1", "d2"]), qrels, 100, 2) == 1.0

    def test_no_relevant_under_threshold(self):
        qrels = {"q": {"d1": 1}}
        assert ap_at_k(ranked("q", ["d1"]), qrels, 100, 2) == 0.0

    def test_missing_query_warns_and_scores_zero(self, caplog):
        with caplog.at_level(logging.WARNING):
            value = ap_at_k(ranked("ghost", ["d1"]), {}, 100, 2)
        assert value == 0.0
        assert "ghost" in caplog.text

    def test_unjudged_docs_are_non_relevant(self):
        qrels = {"q": {"d9": 2}}
        run = ranked("q", ["du1", "du2", "d9"])
        assert ap_at_k(run, qrels, 100, 2) == pytest.approx(1 / 3)

    def test_denominator_capped_at_cutoff(self):
        qrels = {"q": {f"d{i}": 2 for i in range(5)}}
        run = ranked("q", ["d0", "d1"])
        # k=2: denominator min(5, 2); both retrieved docs are relevant
        assert ap_at_k(run, qrels, 2, 2) == pytest.approx(1.0)


class TestNdcgAtK:
    def test_ideal_single_doc(self):
        assert ndcg_at_k(ranked("q", ["dA"]), {"q": {"dA": 2}}, 10) == pytest.approx(1.0)

    def test_all_unjudged(self):
        assert ndcg_at_k(ranked("q", ["x", "y"]), {"q": {"dA": 2}}, 10) == 0.0

    def test_three_doc_hand_value(self):
        qrels = {"q": {"a": 3, "b": 2, "c": 1}}
        run = ranked("q", ["b", "a", "c"])
        assert ndcg_at_k(run, qrels, 10) == pytest.approx(0.8428282648809379, abs=1e-12)

    def test_all_grades_zero(self):
        assert ndcg_at_k(ranked("q", ["a"]), {"q": {"a": 0}}, 10) == 0.0

    @pytest.mark.parametrize(
        "grades",
        [
            {"a": 1100, "b": 1},  # 2.0 ** 1100 overflows
            {"a": 1023, "b": 1023, "c": 1023},  # each gain is finite, their discounted sum is not
        ],
    )
    def test_non_finite_ideal_dcg_names_the_query(self, grades):
        message = f"ndcg@10 of query 'q7': the ideal DCG of grades up to {max(grades.values())} is not finite"
        with pytest.raises(ValueError, match=message):
            ndcg_at_k(ranked("q7", ["b", "a"]), {"q7": grades}, 10)


class TestKendallTau:
    def test_perfect_concordance(self):
        assert kendall_tau(pairs_from([1, 2, 3, 4], [10, 20, 30, 40])) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert kendall_tau(pairs_from([1, 2, 3, 4], [40, 30, 20, 10])) == pytest.approx(-1.0)

    def test_one_third(self):
        assert kendall_tau(pairs_from([1, 2, 3], [1, 3, 2])) == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_pair_counting_oracle(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(2, 40)
            # coarse grids force ties on both sides
            predicted = [rng.randint(0, 6) / 2 for _ in range(n)]
            actual = [rng.randint(0, 6) / 3 for _ in range(n)]
            try:
                want = oracles.kendall_tau_pairs(predicted, actual)
            except ValueError:
                with pytest.raises(ValueError):
                    kendall_tau(pairs_from(predicted, actual))
                continue
            assert kendall_tau(pairs_from(predicted, actual)) == pytest.approx(want, abs=1e-12)

    def test_bit_identical_to_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(79)
        for _ in range(300):
            n = rng.randint(2, 60)
            predicted = [rng.randint(0, rng.randint(1, 8)) / 3 for _ in range(n)]
            actual = [rng.randint(0, rng.randint(1, 8)) / 7 for _ in range(n)]
            want = stats.kendalltau(predicted, actual, variant="b").statistic
            if math.isnan(want):
                with pytest.raises(ValueError, match="all tied"):
                    kendall_tau(pairs_from(predicted, actual))
                continue
            assert kendall_tau(pairs_from(predicted, actual)) == want

    def test_nan_value_is_error(self):
        with pytest.raises(ValueError, match="nan"):
            kendall_tau(pairs_from([1.0, float("nan"), 3.0], [1, 2, 3]))

    def test_negation_antisymmetry_without_ties(self):
        rng = random.Random(78)
        predicted = rng.sample(range(100), 25)
        actual = rng.sample(range(100), 25)
        plus = kendall_tau(pairs_from(predicted, actual))
        minus = kendall_tau(pairs_from([-p for p in predicted], actual))
        assert plus == pytest.approx(-minus, abs=1e-12)

    def test_all_tied_both_sides_is_error(self):
        with pytest.raises(ValueError, match="undefined"):
            kendall_tau(pairs_from([1, 1, 1], [2, 2, 2]))

    def test_constant_predictions_is_error(self):
        with pytest.raises(ValueError, match="undefined"):
            kendall_tau(pairs_from([1, 1, 1], [1, 2, 3]))

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match=">= 2"):
            kendall_tau(pairs_from([1], [1]))


# few distinct values, so both sides tie heavily; infinities and both zeros, which tie with each other
TAU_VALUES = st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0, math.inf, -math.inf]) | st.floats(-3.0, 3.0)


def tau_rows(n):
    """Rows of n values, drawn one by one or all tied."""
    return st.lists(TAU_VALUES, min_size=n, max_size=n) | TAU_VALUES.map(lambda value: [value] * n)


@st.composite
def tau_grids(draw, min_n=0):
    """(actual, rows): an actual vector and up to five prediction rows of its length, some all tied or with a nan."""
    n = draw(st.integers(min_n, 12))
    with_nan = st.tuples(tau_rows(n), st.integers(0, max(n - 1, 0))).map(
        lambda drawn: [math.nan if i == drawn[1] else v for i, v in enumerate(drawn[0])]
    )
    actual = draw(tau_rows(n) | with_nan) if n else []
    return actual, draw(st.lists(tau_rows(n) | with_nan, max_size=5))


def reference_tau(predicted, actual):
    """The scalar reference's tau, or nan where it raises."""
    try:
        return tau_reference.kendall_tau(pairs_from(predicted, actual))
    except ValueError:
        return math.nan


class TestKendallTauRows:
    @settings(max_examples=500, deadline=None)
    @given(tau_grids())
    @example(([1.0, 2.0], [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]))  # n = 2: +1, -1 and an all-tied row
    @example(([0.0, -0.0, 1.0], [[-0.0, 0.0, 1.0], [1.0, 2.0, 3.0]]))  # zeros tie on both sides
    @example(([math.inf, -math.inf, math.inf, 0.0], [[math.inf, math.inf, -math.inf, 0.0]]))
    @example(([0.5, 0.5, 0.5], [[1.0, 2.0, 3.0]]))  # actual side all tied
    @example(([1.0, math.nan, 2.0], [[1.0, 2.0, 3.0]]))  # nan on the actual side
    def test_rows_equal_the_scalar_reference(self, grid):
        actual, rows = grid
        taus = kendall_tau_rows(np.array(rows, dtype=np.float64).reshape(len(rows), len(actual)), np.array(actual))
        assert taus.shape == (len(rows),)
        for row, tau in zip(rows, taus.tolist()):
            pairs = pairs_from(row, actual)
            try:
                want = tau_reference.kendall_tau(pairs)
            except ValueError as exc:
                assert math.isnan(tau), (row, actual)
                with pytest.raises(ValueError) as raised:
                    kendall_tau(pairs)
                assert str(raised.value) == str(exc)
                continue
            assert tau == want and kendall_tau(pairs) == want, (row, actual)

    @settings(max_examples=150, deadline=None)
    @given(tau_grids(min_n=4), st.data())
    def test_grid_functions_equal_a_loop_over_the_reference(self, grid, data):
        actual_values, _ = grid
        n = len(actual_values)
        ids = [f"q{i}" for i in range(n)]
        actual = dict(zip(ids, actual_values))
        lambdas, ks = [0.0, 0.5, 1.0], [1, 2]
        cells = {(lam, k): dict(zip(ids, data.draw(tau_rows(n)))) for lam in lambdas for k in ks}
        split = data.draw(st.integers(2, n - 2))
        folds = (FoldSpec(frozenset(ids[:split]), frozenset(ids[split:])),
                 FoldSpec(frozenset(ids[split:]), frozenset(ids[:split])))
        predictions = grid_of(cells, ids)

        def reference(cell, query_ids):
            query_ids = sorted(query_ids)
            return reference_tau([cell[q] for q in query_ids], [actual[q] for q in query_ids])

        rows = sweep_grid(lambdas, ks, predictions, actual)
        assert [(lam, k) for lam, k, _ in rows] == sorted(cells)
        assert [repr(tau) for _, _, tau in rows] == [repr(reference(cells[cell], ids)) for cell in sorted(cells)]

        want = []
        for fold in folds:
            best = None
            for k in ks:
                for lam in lambdas:
                    tau = reference(cells[(lam, k)], fold.train_ids)
                    if not math.isnan(tau) and (best is None or tau > best[2]):
                        best = (lam, k, tau)
            want.append(best and (*best, reference(cells[best[:2]], fold.test_ids)))
        if None in want or any(math.isnan(outcome[3]) for outcome in want if outcome):
            with pytest.raises(ValueError):
                tune_2fold(folds, lambdas, ks, predictions, actual)
            return
        report = tune_2fold(folds, lambdas, ks, predictions, actual)
        assert [(o.chosen_lambda, o.chosen_k, o.train_tau, o.test_tau) for o in report.folds] == want

    def test_no_rows_and_short_rows(self):
        assert kendall_tau_rows(np.empty((0, 5)), np.arange(5.0)).shape == (0,)
        assert np.isnan(kendall_tau_rows(np.ones((3, 1)), np.ones(1))).all()


class TestFisherZ:
    def test_equal_taus_not_significant(self):
        result = fisher_z_compare(0.4, 0.4, 50)
        assert result.z == 0.0 and not result.significant

    def test_hand_value_significant(self):
        result = fisher_z_compare(0.5, 0.1, 97, confidence=0.99)
        assert result.z == pytest.approx(3.078, abs=2e-3)
        assert result.significant

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 4"):
            fisher_z_compare(0.5, 0.1, 3)

    def test_tau_magnitude_one_rejected(self):
        with pytest.raises(ValueError, match="tau_a"):
            fisher_z_compare(1.0, 0.1, 50)

    def test_critical_values(self):
        # z ~ 2.5758 is the two-sided 99% critical value, 1.96 the 95% one
        assert not fisher_z_compare(math.tanh(2.575 * math.sqrt(2 / 47)), 0.0, 50).significant
        assert fisher_z_compare(math.tanh(2.577 * math.sqrt(2 / 47)), 0.0, 50).significant
        assert not fisher_z_compare(math.tanh(1.959 * math.sqrt(2 / 47)), 0.0, 50, 0.95).significant
        assert fisher_z_compare(math.tanh(1.961 * math.sqrt(2 / 47)), 0.0, 50, 0.95).significant

    def test_confidence_changes_verdict(self):
        # z ~ 1.99: significant at 95% but not at 99%
        z_target = 1.99
        tau_a = math.tanh(z_target * math.sqrt(2 / 47))
        assert fisher_z_compare(tau_a, 0.0, 50, confidence=0.95).significant
        assert not fisher_z_compare(tau_a, 0.0, 50, confidence=0.99).significant


def grid_of(table, ids):
    """The prediction grid of a {(lam, k): {qid: value}} table: sorted lambdas x sorted ks x sorted ``ids``."""
    lambdas, ks = sorted({lam for lam, _ in table}), sorted({k for _, k in table})
    return np.array([[[table[(lam, k)][q] for q in sorted(ids)] for k in ks] for lam in lambdas], dtype=np.float64)


def wrong_shapes(grid):
    """(lambdas, ks, grid) triples that do not fit the (1 lambda, 2 ks, n queries) ``grid``: an axis off in size."""
    return [
        ([0.0, 0.5], [1, 2], grid),
        ([0.0], [1], grid),
        ([0.0], [1, 2], grid[:, :, 1:]),
        ([0.0], [1, 2], grid[0]),
        ([0.0], [1, 2], grid.transpose(1, 0, 2)),
    ]


class TestTune2Fold:
    def test_single_point_grid(self):
        actual = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        table = {(0.5, 1): {"a": 1.0, "b": 2.0, "c": 5.0, "d": 6.0}}
        folds = (
            FoldSpec(frozenset({"a", "b"}), frozenset({"c", "d"})),
            FoldSpec(frozenset({"c", "d"}), frozenset({"a", "b"})),
        )
        report = tune_2fold(folds, [0.5], [1], grid_of(table, actual), actual)
        assert all(o.chosen_lambda == 0.5 and o.chosen_k == 1 for o in report.folds)
        assert report.mean_test_tau == pytest.approx(
            (report.folds[0].test_tau + report.folds[1].test_tau) / 2
        )

    def test_mirrored_folds_with_identical_data_agree(self):
        # both folds see statistically identical halves, so the chosen
        # cell and the train-optimal tau coincide across folds
        actual = {"a": 0.1, "b": 0.2, "c": 0.1, "d": 0.2}
        good = {"a": 1.0, "b": 2.0, "c": 1.0, "d": 2.0}
        bad = {"a": 2.0, "b": 1.0, "c": 2.0, "d": 1.0}
        table = {(0.0, 1): bad, (1.0, 1): good}
        folds = (
            FoldSpec(frozenset({"a", "b"}), frozenset({"c", "d"})),
            FoldSpec(frozenset({"c", "d"}), frozenset({"a", "b"})),
        )
        report = tune_2fold(folds, [0.0, 1.0], [1], grid_of(table, actual), actual)
        assert report.folds[0].chosen_lambda == report.folds[1].chosen_lambda == 1.0
        assert report.folds[0].train_tau == report.folds[1].test_tau

    def test_2x2_grid_matches_scripted_search(self):
        rng = random.Random(5)
        ids = [f"q{i}" for i in range(8)]
        actual = {qid: rng.random() for qid in ids}
        lambdas, ks = [0.0, 1.0], [1, 2]
        table = {
            (lam, k): {qid: rng.random() for qid in ids} for lam in lambdas for k in ks
        }
        fold_a = frozenset(ids[:4])
        fold_b = frozenset(ids[4:])
        folds = (FoldSpec(fold_a, fold_b), FoldSpec(fold_b, fold_a))
        grid = grid_of(table, actual)
        report = tune_2fold(folds, lambdas, ks, grid, actual)

        for fold, outcome in zip(folds, report.folds):
            best = None
            for k in ks:
                for lam in lambdas:
                    train_ids = sorted(fold.train_ids)
                    tau = oracles.kendall_tau_pairs(
                        [table[(lam, k)][q] for q in train_ids], [actual[q] for q in train_ids]
                    )
                    if best is None or tau > best[2]:
                        best = (lam, k, tau)
            assert (outcome.chosen_lambda, outcome.chosen_k) == (best[0], best[1])
            assert outcome.train_tau == pytest.approx(best[2], abs=1e-12)

    def test_tie_prefers_smaller_k_then_lambda(self):
        actual = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
        same = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
        table = {(lam, k): same for lam in (0.0, 0.5) for k in (1, 2)}
        folds = (
            FoldSpec(frozenset({"a", "b"}), frozenset({"c", "d"})),
            FoldSpec(frozenset({"c", "d"}), frozenset({"a", "b"})),
        )
        # every cell ties at train tau = 1
        report = tune_2fold(folds, [0.5, 0.0], [2, 1], grid_of(table, actual), actual)
        for outcome in report.folds:
            assert outcome.chosen_k == 1
            assert outcome.chosen_lambda == 0.0

    def test_poisoned_test_query_cannot_flip_choice(self):
        # lambda=0 wins on clean train data; the poison query, if leaked
        # into selection, would flip the winner to lambda=1
        actual = {"q1": 1, "q2": 2, "q3": 3, "q4": 4, "p": 0, "q5": 1, "q6": 2}
        lam0 = {"q1": 1, "q2": 2, "q3": 3, "q4": 4, "p": 100, "q5": 5, "q6": 6}
        lam1 = {"q1": 1, "q2": 3, "q3": 2, "q4": 4, "p": -5, "q5": 5, "q6": 6}
        table = {(0.0, 1): lam0, (1.0, 1): lam1}
        grid = grid_of(table, actual)

        clean_train = frozenset({"q1", "q2", "q3", "q4"})
        fold_with_poisoned_test = FoldSpec(clean_train, frozenset({"p", "q5", "q6"}))
        fold_with_poisoned_train = FoldSpec(
            frozenset({"q1", "q2", "q3", "q4", "p"}), frozenset({"q5", "q6"})
        )
        report = tune_2fold(
            (fold_with_poisoned_test, fold_with_poisoned_train),
            [0.0, 1.0], [1], grid, actual,
        )
        assert report.folds[0].chosen_lambda == 0.0  # poison in test set: ignored
        assert report.folds[1].chosen_lambda == 1.0  # poison in train set: flips

    def test_empty_grid_rejected(self):
        folds = (
            FoldSpec(frozenset({"a"}), frozenset({"b"})),
            FoldSpec(frozenset({"b"}), frozenset({"a"})),
        )
        with pytest.raises(ValueError, match="non-empty"):
            tune_2fold(folds, [], [1], np.empty((0, 1, 0)), {})

    def test_grid_of_the_wrong_shape_refused(self):
        actual = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        folds = (
            FoldSpec(frozenset({"a", "b"}), frozenset({"c", "d"})),
            FoldSpec(frozenset({"c", "d"}), frozenset({"a", "b"})),
        )
        grid = grid_of({(0.0, 1): actual, (0.0, 2): actual}, actual)
        assert tune_2fold(folds, [0.0, 0.0], [2, 1, 2], grid, actual).folds[0].chosen_k == 1
        for lambdas, ks, wrong in wrong_shapes(grid):
            with pytest.raises(ValueError, match=r"prediction grid must have shape \(\d+, \d+, 4\), got"):
                tune_2fold(folds, lambdas, ks, wrong, actual)

    def test_overlapping_folds_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            FoldSpec(frozenset({"a", "b"}), frozenset({"b"}))


class TestSweepGrid:
    def test_lambda_zero_rows_constant_across_k(self):
        actual = {"a": 0.3, "b": 0.1, "c": 0.9}
        base = {"a": 0.5, "b": 0.2, "c": 0.7}
        table = {}
        rng = random.Random(1)
        for k in (1, 2, 3):
            table[(0.0, k)] = base  # lambda 0: k must not matter
            table[(0.5, k)] = {q: rng.random() for q in actual}
        rows = sweep_grid([0.0, 0.5], [1, 2, 3], grid_of(table, actual), actual)
        zero_taus = {tau for lam, k, tau in rows if lam == 0.0}
        assert len(zero_taus) == 1

    def test_single_cell_equals_direct_composition(self):
        actual = {"a": 0.3, "b": 0.1, "c": 0.9}
        cell = {"a": 0.5, "b": 0.2, "c": 0.7}
        rows = sweep_grid([0.3], [2], grid_of({(0.3, 2): cell}, actual), actual)
        want = kendall_tau([EvalPair(q, cell[q], actual[q]) for q in sorted(actual)])
        assert rows == [(0.3, 2, pytest.approx(want))]

    def test_grid_matches_cell_by_cell_recomputation(self):
        rng = random.Random(9)
        actual = {f"q{i}": rng.random() for i in range(6)}
        lambdas, ks = [0.0, 0.5, 1.0], [1, 2, 3]
        table = {(lam, k): {q: rng.random() for q in actual} for lam in lambdas for k in ks}
        rows = sweep_grid(lambdas, ks, grid_of(table, actual), actual)
        assert len(rows) == 9
        for lam, k, tau in rows:
            ids = sorted(actual)
            want = oracles.kendall_tau_pairs(
                [table[(lam, k)][q] for q in ids], [actual[q] for q in ids]
            )
            assert tau == pytest.approx(want, abs=1e-12)

    def test_grid_of_the_wrong_shape_refused(self):
        actual = {"a": 0.3, "b": 0.1, "c": 0.9}
        grid = grid_of({(0.0, 1): actual, (0.0, 2): actual}, actual)
        assert [tau for _, _, tau in sweep_grid([0.0, 0.0], [2, 1, 2], grid, actual)] == [1.0, 1.0]
        for lambdas, ks, wrong in wrong_shapes(grid):
            with pytest.raises(ValueError, match=r"prediction grid must have shape \(\d+, \d+, 3\), got"):
                sweep_grid(lambdas, ks, wrong, actual)

    def test_undefined_cell_reported_as_nan(self):
        actual = {"a": 0.3, "b": 0.1}
        cell = {"a": 1.0, "b": 1.0}  # constant predictions
        rows = sweep_grid([0.0], [1], grid_of({(0.0, 1): cell}, actual), actual)
        assert math.isnan(rows[0][2])
