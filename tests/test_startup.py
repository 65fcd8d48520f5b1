"""What the package loads at start-up: the lazy namespace and the modules each command imports."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qvqpp

SRC = str(Path(qvqpp.__file__).resolve().parents[1])

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
