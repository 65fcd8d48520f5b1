"""Every script under demos/ runs to completion against the library in this checkout and prints its golden output.

Each golden under ``demo_goldens/`` is a demo's standard output, with the
temporary directory a demo prints replaced by ``<tmp>``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDENS = Path(__file__).resolve().parent / "demo_goldens"


def test_demos_present():
    assert DEMOS
    assert sorted(path.stem for path in GOLDENS.glob("*.txt")) == [path.stem for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    temp = tmp_path / "temp"
    temp.mkdir()
    env = dict(os.environ, TMPDIR=str(temp))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    stdout = re.sub(re.escape(str(temp) + os.sep) + r"tmp\w+", "<tmp>", result.stdout)
    assert stdout == (GOLDENS / f"{demo.stem}.txt").read_text(encoding="utf-8")
