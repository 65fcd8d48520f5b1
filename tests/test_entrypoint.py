"""The ``qvqpp`` command's entry point, ``qvqpp.__main__.entrypoint``, its garbage-collector policy and its exit.

The command turns the cyclic collector off before the layers load and
leaves by ``os._exit`` once logging is shut down and the standard streams
are flushed; importing the package or calling ``qvqpp.cli.main`` leaves
the collector alone. Every test here runs the command, or the policy, in a
fresh interpreter, so this process keeps its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qvqpp
from conftest import CONFIG_TEMPLATE
from qvqpp.cli import main
from test_bench_corpus import load_generator
from test_cli import NQC_PREDICTIONS_GOLDEN

SRC = str(Path(qvqpp.__file__).resolve().parents[1])
STORE_KINDS = ["internal_runs", "pseudo_query_hits", "variant_phi"]


def _python(*argv: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """``python argv`` with the package on the path and its output buffered, so an exit that skips the flush shows."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *argv], env={**env, "PYTHONPATH": SRC}, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_importing_the_package_and_every_layer_leaves_the_collector_alone():
    code = (
        "import gc, importlib, qvqpp\n"
        "for name in ('__main__', 'cli', *qvqpp._EXPORTS):\n"
        "    importlib.import_module(f'qvqpp.{name}')\n"
        "print(gc.isenabled(), gc.get_freeze_count())\n"
    )
    done = _python("-c", code)
    assert (done.returncode, done.stdout) == (0, "True 0\n"), done.stderr


def test_verbose_predict_writes_the_golden_and_ends_with_every_store_line(workspace, tmp_path):
    paths = ["--set", f"paths.index_dir={tmp_path}/index", "--set", f"paths.output_dir={tmp_path}/out"]
    assert main(["index", "--config", str(workspace["config"]), *paths]) == 0
    done = _python("-m", "qvqpp", "-v", "predict", "--config", str(workspace["config"]), *paths)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "predictions.tsv").read_text(encoding="utf-8") == NQC_PREDICTIONS_GOLDEN
    tail = done.stderr.splitlines()[-len(STORE_KINDS):]
    assert [line.split()[4].split("-")[0] for line in tail] == STORE_KINDS, done.stderr
    assert all(line.startswith("INFO qvqpp.artifacts: run store ") and ", wrote " in line for line in tail), \
        done.stderr


def test_evaluate_prints_all_of_the_report_it_writes(workspace, tmp_path):
    predictions, report = tmp_path / "predictions.tsv", tmp_path / "eval.txt"
    predictions.write_text(NQC_PREDICTIONS_GOLDEN, encoding="utf-8")
    done = _python("-m", "qvqpp", "evaluate", "--config", str(workspace["config"]),
                   "--predictions", str(predictions), "--out", str(report))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == report.read_text(encoding="utf-8") != ""


def _evaluate_argv(workspace, tmp_path) -> list[str]:
    predictions = tmp_path / "predictions.tsv"
    predictions.write_text(NQC_PREDICTIONS_GOLDEN, encoding="utf-8")
    return ["-m", "qvqpp", "evaluate", "--config", str(workspace["config"]), "--predictions", str(predictions),
            "--out", str(tmp_path / "eval.txt")]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_to_a_full_device_is_one_error_line_and_exit_1(workspace, tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, *_evaluate_argv(workspace, tmp_path)], env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (1, "error: [Errno 28] No space left on device\n")


def test_output_to_a_closed_pipe_is_one_error_line_and_exit_1(workspace, tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen([sys.executable, *_evaluate_argv(workspace, tmp_path)], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        child.stdout.close()  # long before the command writes its report
        stderr = child.stderr.read()
        assert child.wait(timeout=120) == 1
    assert stderr == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv, code, stream", [([], 2, "stderr"), (["--help"], 0, "stdout")], ids=["usage", "help"])
def test_argparse_exits_keep_the_normal_exit(argv, code, stream):
    done = _python("-m", "qvqpp", *argv)
    assert done.returncode == code
    assert getattr(done, stream).startswith("usage: qvqpp ") and "Traceback" not in done.stderr


def test_a_missing_config_is_one_error_line_and_exit_1(tmp_path):
    done = _python("-m", "qvqpp", "index", "--config", "missing.yaml", cwd=tmp_path)
    assert (done.returncode, done.stdout) == (1, "")
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: "), done.stderr


# Every command in one process with the collector off; prints how many objects
# in reference cycles each command left, found by one collection after it.
GARBAGE_SCRIPT = """\
import gc, sys
gc.disable()
from qvqpp.cli import main
config, predictions, *overrides = sys.argv[1:]
gc.collect()
counts = []
for command in (["index"], ["qv"], ["predict"], ["evaluate", "--predictions", predictions], ["tune"], ["sweep"]):
    assert main([*command, "--config", config, *overrides]) == 0, command
    counts.append(gc.collect())
print(*counts)
"""


@pytest.fixture(scope="module")
def scale_t_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("scale_t") / "data"
    load_generator()(data, "T", 1, 10)
    return data


@pytest.mark.parametrize(
    "overrides", [[], ["--set", "qpp.query_retriever=dense", "--set", "qpp.base=uef"]], ids=["2hop-nqc", "dense-uef"]
)
def test_cyclic_garbage_does_not_grow_with_the_corpus(workspace, scale_t_data, tmp_path, overrides):
    """The fixture (100 documents, 30 training queries) and scale T (400, 200) leave the same cyclic garbage."""
    counts = {}
    for name, data, embeddings in (
        ("fixture", workspace["data"], "query_embeddings.txt"), ("scale-T", scale_t_data, "embeddings.txt"),
    ):
        work = tmp_path / name
        work.mkdir()
        config = work / "config.yaml"
        text = CONFIG_TEMPLATE.format(data=data, work=work).replace("query_embeddings.txt", embeddings)
        config.write_text(text, encoding="utf-8")
        targets = (data / "test_queries.tsv").read_text(encoding="utf-8").splitlines()
        fold_a = ", ".join(line.split("\t", 1)[0] for line in targets[:3])
        argv = [str(config), str(work / "out" / "predictions.tsv"), "--set", f"evaluation.fold_a=[{fold_a}]"]
        done = _python("-c", GARBAGE_SCRIPT, *argv, *overrides)
        assert done.returncode == 0, done.stderr
        counts[name] = done.stdout.splitlines()[-1]
    assert counts["fixture"] == counts["scale-T"]
