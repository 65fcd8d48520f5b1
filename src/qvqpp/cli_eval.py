"""The bodies of ``evaluate``, ``tune`` and ``sweep``: the commands that score predictions against the test qrels.

Only those three commands import this module, from their ``cmd_*`` stubs
in :mod:`qvqpp.cli`, so ``index``, ``qv`` and ``predict`` never compile
it. It imports :mod:`qvqpp.evaluation`, which no other command loads.
Both layers are read as module attributes at each call, so a function
that is rebound in its module after this import (the benchmark's tracer
wraps them so) is the one called.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from . import corpus_io, evaluation
from .cli import (
    PipelineConfig,
    _load_resources,
    _load_target_run,
    _prediction_engine,
    _require_files,
    _save_run_stores,
    logger,
)
AP_REL_THRESHOLD = 2


def _actual_metric(cfg: PipelineConfig, run_map: Mapping[str, corpus_io.RankedList]) -> dict[str, float]:
    """The target metric of each run query against the test qrels."""
    _require_files(cfg.test_qrels)
    qrels = corpus_io.parse_qrels(cfg.test_qrels)
    values = {}
    for qid in sorted(run_map):
        if cfg.target_metric == "ap@100":
            values[qid] = evaluation.ap_at_k(run_map[qid], qrels, 100, AP_REL_THRESHOLD)
        else:
            values[qid] = evaluation.ndcg_at_k(run_map[qid], qrels, 10)
    return values


def evaluate(
    cfg: PipelineConfig,
    predictions_path: Path,
    baseline_path: Path | None = None,
    out_path: Path | None = None,
    metrics_out: Path | None = None,
) -> int:
    """Correlate a predictions file with the target metric; optional baseline comparison."""
    _require_files(predictions_path, cfg.test_qrels, cfg.target_run, baseline_path)
    _, run_map = _load_target_run(cfg)
    actual = _actual_metric(cfg, run_map)
    predictions = corpus_io.parse_score_tsv(predictions_path)
    if set(predictions) != set(run_map):
        raise ValueError("prediction file and run file must cover the same query ids")
    ids = sorted(run_map)
    pairs = [evaluation.EvalPair(qid, predictions[qid], actual[qid]) for qid in ids]
    tau = evaluation.kendall_tau(pairs)
    report = [
        f"target_metric: {cfg.target_metric}",
        f"n_queries: {len(ids)}",
        f"tau: {tau:.6f}",
    ]
    if baseline_path is not None:
        baseline = corpus_io.parse_score_tsv(baseline_path)
        if set(baseline) != set(run_map):
            raise ValueError("baseline file and run file must cover the same query ids")
        baseline_tau = evaluation.kendall_tau([evaluation.EvalPair(qid, baseline[qid], actual[qid]) for qid in ids])
        fisher = evaluation.fisher_z_compare(tau, baseline_tau, len(ids))
        report += [
            f"baseline_tau: {baseline_tau:.6f}",
            f"fisher_z: {fisher.z:.6f}",
            f"significant_at_0.99: {str(fisher.significant).lower()}",
        ]
    if metrics_out is not None:
        metrics_out.parent.mkdir(parents=True, exist_ok=True)
        corpus_io.write_score_tsv(actual, metrics_out)
    out = out_path or cfg.output_dir / "eval_report.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(report) + "\n", encoding="utf-8")
    print("\n".join(report))
    return 0


def _grid_inputs(cfg: PipelineConfig):
    """Check the (lambda, k) grid, then load the targets, run and metric of ``tune``/``sweep``, but no index.

    Kendall tau needs two run queries, so a smaller run ends here.
    """
    if not cfg.lambdas or not cfg.ks:
        raise ValueError("evaluation.lambdas and evaluation.ks must be non-empty")
    bad_lambdas = [lam for lam in cfg.lambdas if not 0.0 <= lam <= 1.0]
    if bad_lambdas:
        raise ValueError(f"evaluation.lambdas must lie in [0, 1], got {bad_lambdas[0]:g}")
    if min(cfg.ks) < 1:
        raise ValueError(f"evaluation.ks must be >= 1, got {min(cfg.ks)}")
    if max(cfg.ks) >= cfg.qpp.n:
        raise ValueError(f"largest grid k ({max(cfg.ks)}) must stay below candidate pool n ({cfg.qpp.n})")
    _require_files(cfg.test_qrels, cfg.target_run)
    targets, run_map = _load_target_run(cfg, min_queries=2)
    return targets, run_map, _actual_metric(cfg, run_map)


def tune(cfg: PipelineConfig, baseline_path: Path | None = None, out_path: Path | None = None) -> int:
    """2-fold tuning: fit (lambda, k) on each fold's train split, report test tau."""
    targets, run_map, actual = _grid_inputs(cfg)
    fold_a = frozenset(cfg.fold_a)
    if not fold_a:
        raise ValueError("evaluation.fold_a must list the query ids of the first fold")
    unknown = sorted(fold_a - set(run_map))
    if unknown:
        raise ValueError(f"fold_a contains queries absent from the run: {', '.join(unknown)}")
    fold_b = frozenset(set(run_map) - fold_a)
    if not fold_b:
        raise ValueError("fold_a covers every run query; the second fold is empty")
    if min(len(fold_a), len(fold_b)) < 2:
        sizes = f"{len(fold_a)} in fold_a and {len(fold_b)} in the other"
        raise ValueError(f"kendall tau needs 2 queries per fold, got {sizes}")
    folds = (evaluation.FoldSpec(fold_a, fold_b), evaluation.FoldSpec(fold_b, fold_a))
    baseline = None
    if baseline_path is not None:
        _require_files(baseline_path)
        baseline = corpus_io.parse_score_tsv(baseline_path)
        missing = sorted(set(run_map) - set(baseline))
        if missing:
            raise ValueError(f"baseline predictions missing queries: {', '.join(missing)}")
        smallest = min(len(fold.test_ids) for fold in folds)
        if smallest < evaluation.FISHER_MIN_N:
            raise ValueError(f"fisher z needs n >= {evaluation.FISHER_MIN_N} test queries per fold, got {smallest}")
    res, stores = _load_resources(cfg)
    grid = _prediction_engine(cfg, res, targets, run_map)
    report_data = evaluation.tune_2fold(folds, cfg.lambdas, cfg.ks, grid, actual)
    lines = [f"target_metric: {cfg.target_metric}", f"base: {cfg.qpp.base}"]
    for number, (fold, outcome) in enumerate(zip(folds, report_data.folds), start=1):
        lines += [
            f"fold_{number}_train_size: {len(fold.train_ids)}",
            f"fold_{number}_test_size: {len(fold.test_ids)}",
            f"fold_{number}_chosen_lambda: {outcome.chosen_lambda:g}",
            f"fold_{number}_chosen_k: {outcome.chosen_k}",
            f"fold_{number}_train_tau: {outcome.train_tau:.6f}",
            f"fold_{number}_test_tau: {outcome.test_tau:.6f}",
        ]
    lines.append(f"mean_test_tau: {report_data.mean_test_tau:.6f}")
    if baseline is not None:
        for number, (fold, outcome) in enumerate(zip(folds, report_data.folds), start=1):
            ids = sorted(fold.test_ids)
            base_tau = evaluation.kendall_tau([evaluation.EvalPair(q, baseline[q], actual[q]) for q in ids])
            fisher = evaluation.fisher_z_compare(outcome.test_tau, base_tau, len(ids))
            lines += [
                f"fold_{number}_baseline_test_tau: {base_tau:.6f}",
                f"fold_{number}_fisher_z: {fisher.z:.6f}",
                f"fold_{number}_significant_at_0.99: {str(fisher.significant).lower()}",
            ]
    out = out_path or cfg.output_dir / "tune_report.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    _save_run_stores(res, stores)
    return 0


def sweep(cfg: PipelineConfig, out_path: Path | None = None) -> int:
    """Evaluate tau for the full (lambda, k) grid on all run queries; emit CSV."""
    targets, run_map, actual = _grid_inputs(cfg)
    res, stores = _load_resources(cfg)
    rows = evaluation.sweep_grid(cfg.lambdas, cfg.ks, _prediction_engine(cfg, res, targets, run_map), actual)
    out = out_path or cfg.output_dir / "sweep.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["lambda,k,tau\n"]
    lines += [f"{lam:g},{k},{tau:.6f}\n" for lam, k, tau in rows]
    out.write_text("".join(lines), encoding="utf-8")
    logger.info("wrote %s (%d cells)", out, len(rows))
    _save_run_stores(res, stores)
    return 0
