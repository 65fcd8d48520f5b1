"""What the package loads at start-up: the lazy namespace and the modules each command imports."""

from __future__ import annotations

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qvqpp
from test_cli import NQC_PREDICTIONS_GOLDEN

SRC = str(Path(qvqpp.__file__).resolve().parents[1])
# The modules every command loads, and those each command adds, but for qvqpp.dense_index on the dense path.
CORE = ["qvqpp", "qvqpp.artifacts", "qvqpp.cli", "qvqpp.config", "qvqpp.corpus_io", "qvqpp.text_index"]
VARIANT_LAYERS = ["qvqpp.predictors", "qvqpp.rank_sim", "qvqpp.variants"]
EVALUATION_LAYERS = ["qvqpp.cli_eval", "qvqpp.evaluation"]
MODULES_OF = {
    "index": CORE,
    "evaluate": sorted([*CORE, *EVALUATION_LAYERS]),
    "qv": sorted([*CORE, *VARIANT_LAYERS]),
    "predict": sorted([*CORE, *VARIANT_LAYERS]),
    "tune": sorted([*CORE, *VARIANT_LAYERS, *EVALUATION_LAYERS]),
    "sweep": sorted([*CORE, *VARIANT_LAYERS, *EVALUATION_LAYERS]),
}

# index then predict in one process, into a fresh index and output directory; prints the loaded modules asked about
COMMANDS_SCRIPT = """\
import sys
from qvqpp.cli import main
config, work = sys.argv[1], sys.argv[2]
paths = ["--set", f"paths.index_dir={work}/index", "--set", f"paths.output_dir={work}/out"]
for command in ("index", "predict"):
    assert main([command, "--config", config, *paths]) == 0
print(*(name in sys.modules for name in ("qvqpp.evaluation", "statistics", "numpy.ma")))
"""


def test_index_and_predict_never_load_the_evaluation_layer(workspace, tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", COMMANDS_SCRIPT, str(workspace["config"]), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout) == (0, "False False False\n"), result.stderr
    assert (tmp_path / "out" / "predictions.tsv").exists()


# one command in a fresh process; prints the qvqpp modules it loaded
MODULES_SCRIPT = """\
import sys
from qvqpp.cli import main
assert main(sys.argv[1:]) == 0
print(*sorted(name for name in sys.modules if name.split(".")[0] == "qvqpp"))
"""


def _python(*argv: str) -> str:
    """The standard output of ``python argv`` run with the package on the path; it must exit 0."""
    result = subprocess.run([sys.executable, *argv], env={**os.environ, "PYTHONPATH": SRC},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _modules(command: str, config, work: Path, *overrides: str) -> list[str]:
    """The qvqpp modules ``command`` loads over the index and outputs in ``work``, from its last output line."""
    paths = ["--set", f"paths.index_dir={work}/index", "--set", f"paths.output_dir={work}/out"]
    return _python("-c", MODULES_SCRIPT, command, "--config", str(config), *paths, *overrides).split("\n")[-2].split()


def test_index_and_evaluate_load_no_pipeline_layer_but_their_own(workspace, tmp_path):
    predictions = tmp_path / "predictions.tsv"
    predictions.write_text(NQC_PREDICTIONS_GOLDEN, encoding="utf-8")
    assert _modules("index", workspace["config"], tmp_path) == MODULES_OF["index"]
    evaluate = _modules("evaluate", workspace["config"], tmp_path, "--predictions", str(predictions))
    assert evaluate == MODULES_OF["evaluate"]


def test_only_the_dense_path_loads_the_dense_layer(workspace, tmp_path):
    _modules("index", workspace["config"], tmp_path)
    bm25, dense = (
        _modules("predict", workspace["config"], tmp_path, "--set", f"qpp.query_retriever={retriever}")
        for retriever in ("bm25", "dense")
    )
    assert bm25 == MODULES_OF["predict"]
    assert dense == sorted([*MODULES_OF["predict"], "qvqpp.dense_index"])


@pytest.mark.parametrize("command", ["qv", "tune", "sweep"])
def test_every_other_command_loads_exactly_its_modules(workspace, tmp_path, command):
    _modules("index", workspace["config"], tmp_path)
    assert _modules(command, workspace["config"], tmp_path) == MODULES_OF[command]


# Imports the named modules with dataclasses' class processing and method generation counted; prints both counts.
DECORATIONS_SCRIPT = """\
import dataclasses, importlib, sys
counts = [0, 0]
def counted(index, function):
    def wrapper(*args, **kwargs):
        counts[index] += 1
        return function(*args, **kwargs)
    return wrapper
dataclasses._process_class = counted(0, dataclasses._process_class)
dataclasses._create_fn = counted(1, dataclasses._create_fn)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(*counts)
"""


# (dataclasses, generated methods) of each command's modules: a dataclass keeps only the generated methods that
# something reads, so most generate __init__ alone, and most record classes on predict's path are plain classes
@pytest.mark.skipif(not hasattr(dataclasses, "_create_fn"), reason="counts dataclasses' Python 3.10-3.11 internals")
@pytest.mark.parametrize("modules, counts", [
    (MODULES_OF["index"], "5 11"),
    (MODULES_OF["predict"], "7 13"),
    (MODULES_OF["evaluate"], "9 15"),
    (sorted({*MODULES_OF["sweep"], "qvqpp.dense_index"}), "12 18"),
], ids=["index", "qv-and-predict", "evaluate", "every-module"])
def test_each_command_decorates_few_classes_and_generates_few_methods(modules, counts):
    assert _python("-c", DECORATIONS_SCRIPT, *modules) == counts + "\n"


def test_the_cli_reads_predict_query_from_the_variant_layer_when_asked():
    code = (
        "import sys, qvqpp.cli; loaded = 'qvqpp.variants' in sys.modules; import qvqpp.variants; "
        "print(loaded, qvqpp.cli.predict_query is qvqpp.variants.predict_query)"
    )
    assert _python("-c", code) == "False True\n"


def test_the_parameter_objects_load_no_pipeline_layer():
    code = (
        "import sys; from qvqpp import PredictorParams, QppConfig, RboParams; "
        "print(*sorted(name for name in sys.modules if name.startswith('qvqpp')))"
    )
    assert _python("-c", code) == "qvqpp qvqpp.config\n"


def test_importing_the_package_loads_no_submodule():
    code = "import sys, qvqpp; print(sorted(m for m in sys.modules if m.startswith('qvqpp')))"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "['qvqpp']\n"), result.stderr


@pytest.mark.parametrize("name", qvqpp.__all__)
def test_every_exported_name_is_its_submodules_object(name):
    module = next(m for m, names in qvqpp._EXPORTS.items() if name in names)
    namespace = {}
    exec(f"from qvqpp import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"qvqpp.{module}"), name)
    assert getattr(qvqpp, name) is namespace[name] and name in dir(qvqpp)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qvqpp.no_such_name
    with pytest.raises(ImportError):
        exec("from qvqpp import no_such_name", {})


if __name__ == "__main__":  # each command's modules, then their (dataclasses, generated methods)
    for command, modules in MODULES_OF.items():
        print(f"{command}: {' '.join(modules)}\n  {_python('-c', DECORATIONS_SCRIPT, *modules)}", end="")
