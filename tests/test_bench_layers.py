"""The traced benchmark wraps qvqpp functions by name; every name it lists must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_trace.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_trace_under_test", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYER_TARGETS = [(name, module, attr) for name, targets in load_layers().items() for module, attr in targets]


@pytest.mark.parametrize("name, module_name, attr", LAYER_TARGETS)
def test_layer_target_resolves(name, module_name, attr):
    assert module_name.split(".")[0] == "qvqpp", name
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{name}: {module_name} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {module_name}.{attr} is not callable"
