"""The traced benchmark wraps qvqpp functions by name and reads their call arguments.

Every name it lists must exist, and a traced CLI run must succeed and
write the same bytes as a plain one.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qvqpp.cli import main as cli_main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace_under_test", BENCHMARKS / "bench_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_trace = load_bench_trace()
LAYER_TARGETS = [(name, module, attr) for name, targets in bench_trace.LAYERS.items() for module, attr in targets]


@pytest.mark.parametrize("name, module_name, attr", LAYER_TARGETS)
def test_layer_target_resolves(name, module_name, attr):
    assert module_name.split(".")[0] == "qvqpp", name
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{name}: {module_name} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {module_name}.{attr} is not callable"


DENSE_UEF = ("--set", "qpp.query_retriever=dense", "--set", "qpp.base=uef")


@pytest.mark.parametrize(
    "command, output, overrides",
    [
        pytest.param("predict", "predictions.tsv", (), id="predict-predictions.tsv"),
        pytest.param("sweep", "sweep.csv", (), id="sweep-sweep.csv"),
        pytest.param("predict", "predictions.tsv", DENSE_UEF, id="predict-predictions.tsv-dense-uef"),
        pytest.param("sweep", "sweep.csv", DENSE_UEF, id="sweep-sweep.csv-dense-uef"),
    ],
)
def test_traced_run_writes_the_plain_bytes(workspace, tmp_path, command, output, overrides):
    # the wrappers read call arguments (TARGET_OF, INSPECT) and PredictorContext._cache
    config = str(workspace["config"])
    plain, traced, spans_path = tmp_path / "plain" / output, tmp_path / "traced" / output, tmp_path / "spans.jsonl"
    assert cli_main([command, "--config", config, *overrides, "--out", str(plain)]) == 0
    result = subprocess.run(
        [sys.executable, str(BENCHMARKS / "traced_cli.py"), str(spans_path), command, "--config", config,
         *overrides, "--out", str(traced)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert traced.read_bytes() == plain.read_bytes()
    spans = bench_trace.load_spans(spans_path)
    metrics = bench_trace.layer_metrics([], spans, [], 1.0)
    assert metrics["variants.rerank.calls"] > 0 and metrics["variants.pool_size.mean"] > 0
    assert metrics["predictors.evaluate.calls"] > 0
    if overrides:
        assert metrics["predictors.uef.calls"] > 0 and metrics["dense_index.knn.calls"] > 0
    if command == "sweep":
        # one phi table per target: the target and at most max(ks) = 3 variants, never once per grid cell
        assert metrics["predictors.evaluate.calls"] <= 5 * (1 + 3)
    # predict and sweep reach each target through predict_query, once each
    assert sorted(s.target for s in spans if s.name == "variants.target") == ["dl01", "dl02", "dl03", "dl04", "dl05"]


@pytest.mark.parametrize("command", ["predict", "sweep"])
def test_traced_nqc_counts_every_evaluation_on_a_cold_index(workspace, corpus, tmp_path, command):
    # a new index directory holds no phi store, so each kept variant's phi is evaluated, through nqc as a target's is
    config, cold = str(workspace["config"]), ("--set", f"paths.index_dir={tmp_path / 'index'}")
    assert cli_main(["index", "--config", config, *cold]) == 0
    spans_path = tmp_path / "spans.jsonl"
    result = subprocess.run(
        [sys.executable, str(BENCHMARKS / "traced_cli.py"), str(spans_path), command, "--config", config, *cold,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    metrics = bench_trace.layer_metrics([], bench_trace.load_spans(spans_path), [], 1.0)
    assert metrics["predictors.nqc.calls"] == metrics["predictors.evaluate.calls"] > len(corpus.test_queries)


# Imports every qvqpp module, installs the tracer and prints each module binding that still holds an unwrapped
# function named in LAYERS; run in a fresh interpreter that writes no bytecode beside the benchmark files.
INSTALL_SCRIPT = """\
import importlib, pkgutil, sys
import qvqpp
for info in pkgutil.iter_modules(qvqpp.__path__):
    importlib.import_module(f"qvqpp.{info.name}")
sys.path.insert(0, sys.argv[1])
import bench_trace
named = {}
for name, targets in bench_trace.LAYERS.items():
    for module_name, attr in targets:
        if "." not in attr:  # a method is wrapped on its class, which every module shares
            function = getattr(sys.modules[module_name], attr)
            named[id(function)] = (function, name)
bench_trace.install(bench_trace.Tracer())
print(sorted(f"{module}.{key} ({named[id(value)][1]})" for module, namespace in list(sys.modules.items())
             if module.split(".")[0] == "qvqpp" for key, value in vars(namespace).items() if id(value) in named))
"""


def test_install_leaves_no_layer_function_unwrapped_in_any_module():
    result = subprocess.run(
        [sys.executable, "-B", "-c", INSTALL_SCRIPT, str(BENCHMARKS)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr + result.stdout
