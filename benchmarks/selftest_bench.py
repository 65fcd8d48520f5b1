"""Self-tests of the benchmark harness (not part of the library's test suite).

    PYTHONPATH=src python -m pytest -q benchmarks/selftest_bench.py

They use the tiny "T" corpus scale, so the whole file runs in under a minute.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import run  # noqa: E402
from gen_corpus import generate  # noqa: E402

TINY_TARGETS = 3


def test_generator_is_deterministic(tmp_path):
    first = generate(tmp_path / "a", "T", 5, TINY_TARGETS)
    second = generate(tmp_path / "b", "T", 5, TINY_TARGETS)
    other = generate(tmp_path / "c", "T", 6, TINY_TARGETS)
    assert first == second
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert (tmp_path / "a" / "collection.tsv").read_bytes() != (tmp_path / "c" / "collection.tsv").read_bytes()
    assert first["docs"] == 400 and first["targets"] == TINY_TARGETS
    assert first["doc_len_p95"] >= first["doc_len_mean"] > 0


def test_generated_queries_satisfy_uef_and_qrels_shape(tmp_path):
    generate(tmp_path, "T", 5, TINY_TARGETS)
    judged: dict[str, int] = {}
    for line in (tmp_path / "train_qrels.txt").read_text().splitlines():
        qid, _, _, grade = line.split()
        assert grade == "1"
        judged[qid] = judged.get(qid, 0) + 1
    assert set(judged.values()) <= {1, 2}
    assert len(judged) == 200
    run_depths: dict[str, int] = {}
    for line in (tmp_path / "target_run.txt").read_text().splitlines():
        run_depths[line.split()[0]] = run_depths.get(line.split()[0], 0) + 1
    assert sorted(run_depths.values()) == [100] * TINY_TARGETS


def _span(name, start, end, parent):
    return bench_trace.Span(name, start, end, parent, None)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 is covered once
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
    ]
    assert bench_trace.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def _rbo(parent, positive):
    return bench_trace.Span("rank_sim.rbo", 0.0, 0.0, parent, None, {"positive": positive})


def _bm25(parent):
    return bench_trace.Span("text_index.bm25", 0.0, 0.0, parent, None, {"entries": 1})


def test_kept_ratio_counts_positive_rbo_over_internal_runs_under_rerank():
    spans = [
        _span("variants.target", 0.0, 10.0, -1),
        _bm25(0),  # the target's own internal run: not a candidate's
        bench_trace.Span("variants.rerank", 1.0, 9.0, 0, None, {"pool": 4, "hop2": 1}),
        _bm25(2), _rbo(2, True),
        _bm25(2), _rbo(2, False),
        _bm25(2), _rbo(2, True),
        _bm25(2), _rbo(2, False),
        _span("predictors.uef", 9.0, 10.0, 0),
        _rbo(11, True),  # UEF's own RBO: not a kept candidate
    ]
    assert bench_trace.kept_ratio(spans) == 0.5
    metrics = bench_trace.layer_metrics([], spans, [], 10.0)
    assert metrics["variants.kept_ratio"] == 0.5
    assert metrics["variants.pool_size.mean"] == 4.0
    assert metrics["rank_sim.rbo.calls"] == 5 and metrics["text_index.bm25.calls"] == 5


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 46)]
    pct, _ = bench_trace.tail_percentile(values)
    assert pct == 77.0  # 45 samples: 23% of them (>= 10) lie beyond p77
    assert bench_trace.tail_percentile(values[:8])[0] == 50.0


def test_wrapper_returns_the_wrapped_result_and_closes_spans():
    tracer = bench_trace.Tracer()
    sentinel = object()
    wrapped = tracer.wrap("layer.ok", lambda x: sentinel if x else x)
    assert wrapped(1) is sentinel
    failing = tracer.wrap("layer.fail", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing()
    assert [s.name for s in tracer.spans] == ["layer.ok", "layer.fail"]
    assert all(s.end >= s.start for s in tracer.spans)


def test_trimmed_mean_drops_the_outer_tenths():
    assert run.trimmed_mean([1.0] * 18 + [100.0, 0.0]) == 1.0
    assert run.trimmed_mean([2.0, 4.0]) == 3.0  # fewer than ten values: nothing is dropped


def test_speed_probe_times_bursts_until_stopped():
    probe = run.SpeedProbe()
    time.sleep(0.3)
    burst = probe.stop()
    count = len(probe.bursts)
    assert count >= 3 and burst > 0
    time.sleep(0.1)
    assert len(probe.bursts) == count  # the thread has ended


def _cli(argv, env, traced_spans=None):
    prefix = [sys.executable, "-m", "qvqpp"]
    if traced_spans is not None:
        prefix = [sys.executable, str(HERE / "traced_cli.py"), str(traced_spans)]
    return subprocess.run(prefix + argv, env=env, capture_output=True, text=True, check=True)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_commands_write_identical_outputs(tmp_path, workload):
    spec = dict(run.WORKLOADS[workload], scale="T", targets=TINY_TARGETS)
    data = tmp_path / "data"
    generate(data, "T", 3, TINY_TARGETS)
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    # Two UEF samples instead of twenty keep the tiny run fast; the code path is the same.
    overrides = ["--set", "predictor.uef_samples=2"] if spec["qpp"]["base"] == "uef" else []
    outputs = {}
    spans = {}
    for mode in ("plain", "traced"):
        work = tmp_path / mode
        work.mkdir()
        config = run.write_config(spec, 3, data, work)
        for command in ("index", "predict", "sweep"):
            trace_path = work / f"{command}.jsonl" if mode == "traced" else None
            _cli([command, "--config", str(config), *overrides], env, trace_path)
            if trace_path is not None:
                spans[command] = bench_trace.load_spans(trace_path)
        outputs[mode] = {name: (work / "out" / name).read_bytes() for name in ("predictions.tsv", "sweep.csv")}
    assert outputs["plain"] == outputs["traced"]

    metrics = bench_trace.layer_metrics(spans["index"], spans["predict"], spans["sweep"], 1.0)
    assert metrics["variants.target.samples"] == TINY_TARGETS
    assert metrics["text_index.build.s"] > 0 and metrics["text_index.load.s"] > 0
    qpp = spec["qpp"]
    assert (metrics["variants.expand_2hop.calls"] > 0) == qpp["use_2hop"]
    assert (metrics["predictors.uef.calls"] > 0) == (qpp["base"] == "uef")
    assert (metrics["dense_index.knn.calls"] > 0) == (qpp["query_retriever"] == "dense")


def test_install_wraps_every_binding_of_a_function():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import bench_trace, qvqpp.variants, qvqpp.cli, qvqpp.text_index\n"
        "orig = qvqpp.text_index.bm25_retrieve\n"
        "bench_trace.install(bench_trace.Tracer())\n"
        "assert qvqpp.variants.bm25_retrieve is not orig\n"
        "assert qvqpp.variants.bm25_retrieve.__wrapped__ is orig\n"
        "assert qvqpp.cli.predict_query.__wrapped__ is not None\n"
        "print('ok')\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(run.ROOT / "src"), str(HERE)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "ok"


def test_workload_configs_use_real_yaml_booleans(tmp_path):
    spec = run.WORKLOADS["hop1-nqc"]
    text = run.write_config(spec, 1, tmp_path, tmp_path).read_text()
    assert "use_2hop: false" in text and '"false"' not in text
