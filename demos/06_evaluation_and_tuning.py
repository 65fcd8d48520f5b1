#!/usr/bin/env python3
"""Metrics, rank correlation, significance testing, tuning and sweeps.

Shows AP@k with binarized grades, graded nDCG@k, tie-aware Kendall tau
against a brute-force intuition, the Fisher z comparison of two
correlations, and how the 2-fold tuner picks (lambda, k) on train
queries only. Both read every (lambda, k) cell's predictions from one
array.
"""

import numpy as np

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


def main():
    qrels = {"q": {"d1": 3, "d3": 2, "d2": 1, "d9": 0}}
    run = RankedList("q", [("d2", 3.0), ("d1", 2.0), ("d3", 1.0)])
    print("graded judgments:", qrels["q"])
    print("ranking:", run.doc_ids())
    print(f"AP@100 (grades >= 2 count as relevant): {ap_at_k(run, qrels, 100, 2):.4f}")
    print(f"nDCG@10 (graded gains):                 {ndcg_at_k(run, qrels, 10):.4f}\n")

    pairs = [EvalPair("a", 0.9, 0.8), EvalPair("b", 0.5, 0.6), EvalPair("c", 0.2, 0.1)]
    print(f"kendall tau on 3 queries: {kendall_tau(pairs):.4f} "
          "(one discordant pair out of three)")

    result = fisher_z_compare(0.42, 0.17, n=97, confidence=0.99)
    print(f"fisher z comparing tau 0.42 vs 0.17 over 97 queries: "
          f"z={result.z:.3f}, significant at 99%: {result.significant}\n")

    # a synthetic prediction grid: lambda=1.0 is genuinely better
    actual = {f"q{i}": i / 10 for i in range(8)}
    concordant = {f"q{i}": float(i) for i in range(8)}
    noisy = {"q0": 1.0, "q1": 0.0, "q2": 3.0, "q3": 2.0, "q4": 5.0, "q5": 4.0, "q6": 7.0, "q7": 6.0}

    ids = sorted(actual)

    def grid(lambdas, ks):
        """Every cell's predictions: sorted lambdas x sorted ks x queries in sorted id order."""
        return np.array([[[(concordant if lam == 1.0 else noisy)[q] for q in ids] for _ in sorted(set(ks))]
                         for lam in sorted(set(lambdas))])

    folds = (
        FoldSpec(frozenset({"q0", "q1", "q2", "q3"}), frozenset({"q4", "q5", "q6", "q7"})),
        FoldSpec(frozenset({"q4", "q5", "q6", "q7"}), frozenset({"q0", "q1", "q2", "q3"})),
    )
    report = tune_2fold(folds, [0.0, 1.0], [1], grid([0.0, 1.0], [1]), actual)
    for number, outcome in enumerate(report.folds, start=1):
        print(f"fold {number}: chose lambda={outcome.chosen_lambda}, k={outcome.chosen_k}, "
              f"train tau {outcome.train_tau:.3f}, test tau {outcome.test_tau:.3f}")
    print(f"mean test tau: {report.mean_test_tau:.3f}\n")

    rows = sweep_grid([0.0, 1.0], [1, 2], grid([0.0, 1.0], [1, 2]), actual)
    print("sweep grid (lambda, k, tau):")
    for lam, k, tau in rows:
        print(f"  {lam:3.1f}  {k}  {tau:+.3f}")
    print("the lambda=0 rows repeat the same tau for every k by construction")


if __name__ == "__main__":
    main()
