"""``load_config``: one golden outcome per single-fault or valid config, and a fuzz property.

Each case writes a YAML config into an empty directory and records what
``load_config`` makes of it: the exact ``error:`` line, or how the loaded
config differs from ``BASE_OUTCOME``, the config that holds only the
eight required paths. Paths are recorded relative to the config's
directory. The goldens were recorded before the loader became
table-driven and gate it byte for byte.
"""

from __future__ import annotations

import copy
import io
import dataclasses
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qvqpp
from qvqpp import PredictorParams, QppConfig, RboParams
from qvqpp import cli

from conftest import CONFIG_TEMPLATE

REQUIRED_PATHS = (
    "collection", "train_queries", "train_qrels", "test_queries", "test_qrels", "target_run", "index_dir",
    "output_dir",
)
BASE = {"paths": {name: f"data/{name}" for name in REQUIRED_PATHS}}

# Every config key: (dotted key, a valid value, a value of the wrong type, kind).
KEYS = [
    ("seed", 7, [1], "int"),
    *[(f"paths.{name}", f"other/{name}", [1, 2], "path") for name in (*REQUIRED_PATHS, "embeddings")],
    ("qpp.lambda", 0.3, "high", "float"),
    ("qpp.k", 3, "three", "int"),
    ("qpp.n", 50, [50], "int"),
    ("qpp.query_retriever", "dense", [1], "str"),
    ("qpp.use_2hop", False, "false", "bool"),
    ("qpp.pseudo_query_m", 10, {"m": 1}, "int"),
    ("qpp.rbo_p", 0.8, "p", "float"),
    ("qpp.rbo_depth", 50, [1], "int"),
    ("qpp.base", "uef", 5, "str"),
    ("qpp.internal_depth", 50, "deep", "int"),
    ("qpp.run_depth", 50, "deep", "int"),
    ("predictor.top_k", 50, "top", "int"),
    ("predictor.uef_samples", 10, [10], "int"),
    ("predictor.uef_sample_size", 10, "ten", "int"),
    ("predictor.mu", 500.0, "mu", "float"),
    ("bm25.k1", 1.2, [1.2], "float"),
    ("bm25.b", 0.75, "b", "float"),
    ("evaluation.target_metric", "ndcg@10", [1], "str"),
    ("evaluation.fold_a", ["q1", "q2"], 5, "list of str"),
    ("evaluation.lambdas", [0.2, 0.4], 5, "list of float"),
    ("evaluation.ks", [2, 3], "ks", "list of int"),
]
SECTIONS = ("paths", "qpp", "predictor", "bm25", "evaluation")


def with_value(raw: dict, dotted: str, value) -> dict:
    raw = copy.deepcopy(raw)
    *section, key = dotted.split(".")
    node = raw.setdefault(section[0], {}) if section else raw
    node[key] = value
    return raw


def without(raw: dict, dotted: str) -> dict:
    raw = copy.deepcopy(raw)
    section, key = dotted.split(".")
    del raw[section][key]
    return raw


def key_cases():
    """Per key: a valid value, null, a wrong type, a boolean for a number and a fraction for an int."""
    for dotted, valid, wrong, kind in KEYS:
        yield f"{dotted}=valid", with_value(BASE, dotted, valid), ()
        yield f"{dotted}=null", with_value(BASE, dotted, None), ()
        yield f"{dotted}=wrong-type", with_value(BASE, dotted, wrong), ()
        if kind in ("int", "float"):
            yield f"{dotted}=bool", with_value(BASE, dotted, True), ()
        if kind in ("list of float", "list of int"):
            yield f"{dotted}=bool", with_value(BASE, dotted, [1, True]), ()
        if kind == "int":
            yield f"{dotted}=fraction", with_value(BASE, dotted, 2.5), ()
            yield f"{dotted}=whole-float", with_value(BASE, dotted, 4.0), ()
        if kind == "list of int":
            yield f"{dotted}=fraction", with_value(BASE, dotted, [1, 1.5]), ()


def structure_cases():
    for section in SECTIONS:
        yield f"{section}.unknown", with_value(BASE, f"{section}.bogus", 1), ()
        yield f"{section}=null", with_value(BASE, section, None), ()
        yield f"{section}=scalar", with_value(BASE, section, 5), ()
        yield f"{section}=list", with_value(BASE, section, [1]), ()
    yield "top-level.unknown", with_value(BASE, "sed", 1), ()
    yield "top-level.dotted-name", {**BASE, "qpp.lambda": 0.3}, ()
    yield "qpp.non-string-key", with_value(BASE, "qpp", {1: 2}), ()
    for name in REQUIRED_PATHS:
        yield f"paths.{name}=missing", without(BASE, f"paths.{name}"), ()
    yield "paths.collection=absolute", with_value(BASE, "paths.collection", "/abs/collection.tsv"), ()
    yield "seed=negative", with_value(BASE, "seed", -3), ()
    yield "seed=section", with_value(BASE, "seed", {"x": 1}), ()
    yield "evaluation.fold_a=file", with_value(BASE, "evaluation.fold_a", "fold.txt"), ()
    yield "evaluation.fold_a=missing-file", with_value(BASE, "evaluation.fold_a", "nofold.txt"), ()
    yield "evaluation.fold_a=numbers", with_value(BASE, "evaluation.fold_a", [1, 2.5]), ()
    yield "evaluation.lambdas=empty", with_value(BASE, "evaluation.lambdas", []), ()
    # -0.0 reads as 0.0, so a grid of 0.0 and -0.0 is one lambda and no output spells it "-0"
    yield "evaluation.lambdas=negative-zero", with_value(BASE, "evaluation.lambdas", [-0.0, 0.5, 0.0]), ()
    yield "qpp.lambda=negative-zero", with_value(BASE, "qpp.lambda", -0.0), ()
    # a number key refuses a string, and a list key anything but a list (fold_a also takes a file path)
    yield "qpp.k=quoted-number", with_value(BASE, "qpp.k", "3"), ()
    yield "seed=quoted-number", with_value(BASE, "seed", "1_000"), ()
    yield "qpp.lambda=quoted-number", with_value(BASE, "qpp.lambda", " 0.25 "), ()
    yield "evaluation.ks=string", with_value(BASE, "evaluation.ks", "12"), ()
    yield "evaluation.fold_a=mapping", with_value(BASE, "evaluation.fold_a", {"dl01": 1}), ()
    yield "evaluation.lambdas=mapping", with_value(BASE, "evaluation.lambdas", {0.1: "x"}), ()
    yield "evaluation.target_metric=unknown", with_value(BASE, "evaluation.target_metric", "map@1000"), ()
    yield "qpp.query_retriever=unknown", with_value(BASE, "qpp.query_retriever", "neural"), ()
    yield "qpp.base=unknown", with_value(BASE, "qpp.base", "clarity"), ()
    yield "qpp.k=n", with_value(BASE, "qpp.k", 100), ()
    yield "qpp.lambda=out-of-range", with_value(BASE, "qpp.lambda", 1.5), ()
    yield "predictor.mu=huge-int", with_value(BASE, "predictor.mu", 10 ** 400), ()
    yield "predictor.top_k=zero", with_value(BASE, "predictor.top_k", 0), ()
    yield "bm25.b=out-of-range", with_value(BASE, "bm25.b", 2), ()
    yield "root=list", [1, 2], ()
    yield "root=empty", None, ()
    yield "override=valid", BASE, ("qpp.lambda=0.25", "evaluation.ks=[1, 2.0]")
    yield "override=fills-null-section", with_value(BASE, "predictor", None), ("predictor.top_k=7",)
    yield "override=new-section", BASE, ("bm25.k1=2",)
    yield "override=no-equals", BASE, ("qpp.lambda",)
    yield "override=malformed-yaml", BASE, ("qpp.lambda=[0.5, 1",)
    yield "override=into-scalar", with_value(BASE, "predictor", 5), ("predictor.top_k=7",)
    yield "override=unknown", BASE, ("qpp.lamda=0.9",)
    yield "override=section-scalar", BASE, ("qpp=5",)


CASES = {name: (raw, overrides) for name, raw, overrides in (*key_cases(), *structure_cases())}


def write_config(directory: Path, raw) -> Path:
    config = directory / "config.yaml"
    config.write_text("" if raw is None else yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    (directory / "fold.txt").write_text("q3\n\nq1\n", encoding="utf-8")
    return config


def flat(value, prefix=""):
    """A loaded config as {dotted field: value}, with nested dataclasses flattened."""
    if dataclasses.is_dataclass(value):
        out = {}
        for item in dataclasses.fields(value):
            out.update(flat(getattr(value, item.name), f"{prefix}{item.name}."))
        return out
    return {prefix[:-1]: value}


def outcome(directory: Path, raw, overrides=()):
    """The ``error:`` line of ``load_config``, or its config as {dotted field: value}."""
    config = write_config(directory, raw)
    root = directory.resolve()
    try:
        cfg = cli.load_config(config, list(overrides))
    except ValueError as exc:
        return f"error: {exc}".replace(str(root), "<dir>").replace(str(directory), "<dir>")
    values = flat(cfg)
    for name, value in values.items():
        if isinstance(value, Path):
            values[name] = str(value.relative_to(root)) if value.is_relative_to(root) else str(value)
    return values


BASE_OUTCOME = {
    **{name: f"data/{name}" for name in REQUIRED_PATHS},
    "embeddings": None,
    "seed": 0,
    "qpp.lam": 0.5, "qpp.k": 1, "qpp.n": 100, "qpp.query_retriever": "bm25", "qpp.use_2hop": True,
    "qpp.pseudo_query_m": 20, "qpp.rbo_params.p": 0.9, "qpp.rbo_params.eval_depth": 100, "qpp.base": "nqc",
    "qpp.internal_depth": 100,
    "predictor.top_k": 100, "predictor.uef_samples": 20, "predictor.uef_sample_size": 25, "predictor.mu": 1000.0,
    "predictor.k1": 0.9, "predictor.b": 0.4,
    "target_metric": "ap@100", "fold_a": [], "lambdas": [round(i / 10, 1) for i in range(11)],
    "ks": list(range(1, 11)), "run_depth": 100,
}

GOLDEN = {
    'bm25.b=bool': 'error: bm25.b: expected float, got True',
    'bm25.b=null': {},
    'bm25.b=out-of-range': 'error: b must be in [0, 1], got 2.0',
    'bm25.b=valid': {'predictor.b': 0.75},
    'bm25.b=wrong-type': "error: bm25.b: expected float, got 'b'",
    'bm25.k1=bool': 'error: bm25.k1: expected float, got True',
    'bm25.k1=null': {},
    'bm25.k1=valid': {'predictor.k1': 1.2},
    'bm25.k1=wrong-type': 'error: bm25.k1: expected float, got [1.2]',
    'bm25.unknown': "error: unknown config key 'bm25.bogus'",
    'bm25=list': "error: config section 'bm25' must be a mapping, got [1]",
    'bm25=null': {},
    'bm25=scalar': "error: config section 'bm25' must be a mapping, got 5",
    'evaluation.fold_a=file': {'fold_a': ['q3', 'q1']},
    'evaluation.fold_a=mapping': "error: evaluation.fold_a: expected a list of str, got {'dl01': 1}",
    'evaluation.fold_a=missing-file': 'error: fold_a file <dir>/nofold.txt does not exist',
    'evaluation.fold_a=null': {},
    'evaluation.fold_a=numbers': {'fold_a': ['1', '2.5']},
    'evaluation.fold_a=valid': {'fold_a': ['q1', 'q2']},
    'evaluation.fold_a=wrong-type': 'error: evaluation.fold_a: expected a list of str, got 5',
    'evaluation.ks=bool': 'error: evaluation.ks: expected a list of int, got [1, True]',
    'evaluation.ks=fraction': 'error: evaluation.ks: expected a list of int, got [1, 1.5]',
    'evaluation.ks=null': {},
    'evaluation.ks=string': "error: evaluation.ks: expected a list of int, got '12'",
    'evaluation.ks=valid': {'ks': [2, 3]},
    'evaluation.ks=wrong-type': "error: evaluation.ks: expected a list of int, got 'ks'",
    'evaluation.lambdas=bool': 'error: evaluation.lambdas: expected a list of float, got [1, True]',
    'evaluation.lambdas=empty': {'lambdas': []},
    'evaluation.lambdas=negative-zero': {'lambdas': [0.0, 0.5, 0.0]},
    'evaluation.lambdas=mapping': "error: evaluation.lambdas: expected a list of float, got {0.1: 'x'}",
    'evaluation.lambdas=null': {},
    'evaluation.lambdas=valid': {'lambdas': [0.2, 0.4]},
    'evaluation.lambdas=wrong-type': 'error: evaluation.lambdas: expected a list of float, got 5',
    'evaluation.target_metric=null': {},
    'evaluation.target_metric=unknown': "error: target_metric must be one of ('ap@100', 'ndcg@10'), got 'map@1000'",
    'evaluation.target_metric=valid': {'target_metric': 'ndcg@10'},
    'evaluation.target_metric=wrong-type': "error: target_metric must be one of ('ap@100', 'ndcg@10'), got '[1]'",
    'evaluation.unknown': "error: unknown config key 'evaluation.bogus'",
    'evaluation=list': "error: config section 'evaluation' must be a mapping, got [1]",
    'evaluation=null': {},
    'evaluation=scalar': "error: config section 'evaluation' must be a mapping, got 5",
    'override=fills-null-section': {'predictor.top_k': 7},
    'override=into-scalar': "error: override 'predictor.top_k' does not address a mapping",
    'override=malformed-yaml': 'error: override \'qpp.lambda\': malformed YAML: while parsing a flow sequence in "<unicode string>", line 1, column 1: [0.5, 1 ^ expected \',\' or \']\', but got \'<stream end>\' in "<unicode string>", line 1, column 8: [0.5, 1 ^',
    'override=new-section': {'predictor.k1': 2.0},
    'override=no-equals': "error: override 'qpp.lambda' must look like dotted.key=value",
    'override=section-scalar': "error: config section 'qpp' must be a mapping, got 5",
    'override=unknown': "error: unknown config key 'qpp.lamda'",
    'override=valid': {'qpp.lam': 0.25, 'ks': [1, 2]},
    'paths.collection=absolute': {'collection': '/abs/collection.tsv'},
    'paths.collection=missing': 'error: config is missing paths.collection',
    'paths.collection=null': 'error: config is missing paths.collection',
    'paths.collection=valid': {'collection': 'other/collection'},
    'paths.collection=wrong-type': 'error: paths.collection: expected str, got [1, 2]',
    'paths.embeddings=null': {},
    'paths.embeddings=valid': {'embeddings': 'other/embeddings'},
    'paths.embeddings=wrong-type': 'error: paths.embeddings: expected str, got [1, 2]',
    'paths.index_dir=missing': 'error: config is missing paths.index_dir',
    'paths.index_dir=null': 'error: config is missing paths.index_dir',
    'paths.index_dir=valid': {'index_dir': 'other/index_dir'},
    'paths.index_dir=wrong-type': 'error: paths.index_dir: expected str, got [1, 2]',
    'paths.output_dir=missing': 'error: config is missing paths.output_dir',
    'paths.output_dir=null': 'error: config is missing paths.output_dir',
    'paths.output_dir=valid': {'output_dir': 'other/output_dir'},
    'paths.output_dir=wrong-type': 'error: paths.output_dir: expected str, got [1, 2]',
    'paths.target_run=missing': 'error: config is missing paths.target_run',
    'paths.target_run=null': 'error: config is missing paths.target_run',
    'paths.target_run=valid': {'target_run': 'other/target_run'},
    'paths.target_run=wrong-type': 'error: paths.target_run: expected str, got [1, 2]',
    'paths.test_qrels=missing': 'error: config is missing paths.test_qrels',
    'paths.test_qrels=null': 'error: config is missing paths.test_qrels',
    'paths.test_qrels=valid': {'test_qrels': 'other/test_qrels'},
    'paths.test_qrels=wrong-type': 'error: paths.test_qrels: expected str, got [1, 2]',
    'paths.test_queries=missing': 'error: config is missing paths.test_queries',
    'paths.test_queries=null': 'error: config is missing paths.test_queries',
    'paths.test_queries=valid': {'test_queries': 'other/test_queries'},
    'paths.test_queries=wrong-type': 'error: paths.test_queries: expected str, got [1, 2]',
    'paths.train_qrels=missing': 'error: config is missing paths.train_qrels',
    'paths.train_qrels=null': 'error: config is missing paths.train_qrels',
    'paths.train_qrels=valid': {'train_qrels': 'other/train_qrels'},
    'paths.train_qrels=wrong-type': 'error: paths.train_qrels: expected str, got [1, 2]',
    'paths.train_queries=missing': 'error: config is missing paths.train_queries',
    'paths.train_queries=null': 'error: config is missing paths.train_queries',
    'paths.train_queries=valid': {'train_queries': 'other/train_queries'},
    'paths.train_queries=wrong-type': 'error: paths.train_queries: expected str, got [1, 2]',
    'paths.unknown': "error: unknown config key 'paths.bogus'",
    'paths=list': "error: config section 'paths' must be a mapping, got [1]",
    'paths=null': 'error: config is missing paths.collection',
    'paths=scalar': "error: config section 'paths' must be a mapping, got 5",
    'predictor.mu=bool': 'error: predictor.mu: expected float, got True',
    'predictor.mu=huge-int': 'error: predictor.mu: expected float, got 1' + '0' * 400,
    'predictor.mu=null': {},
    'predictor.mu=valid': {'predictor.mu': 500.0},
    'predictor.mu=wrong-type': "error: predictor.mu: expected float, got 'mu'",
    'predictor.top_k=bool': 'error: predictor.top_k: expected int, got True',
    'predictor.top_k=fraction': 'error: predictor.top_k: expected int, got 2.5',
    'predictor.top_k=null': {},
    'predictor.top_k=valid': {'predictor.top_k': 50},
    'predictor.top_k=whole-float': {'predictor.top_k': 4},
    'predictor.top_k=wrong-type': "error: predictor.top_k: expected int, got 'top'",
    'predictor.top_k=zero': 'error: top_k must be >= 1, got 0',
    'predictor.uef_sample_size=bool': 'error: predictor.uef_sample_size: expected int, got True',
    'predictor.uef_sample_size=fraction': 'error: predictor.uef_sample_size: expected int, got 2.5',
    'predictor.uef_sample_size=null': {},
    'predictor.uef_sample_size=valid': {'predictor.uef_sample_size': 10},
    'predictor.uef_sample_size=whole-float': {'predictor.uef_sample_size': 4},
    'predictor.uef_sample_size=wrong-type': "error: predictor.uef_sample_size: expected int, got 'ten'",
    'predictor.uef_samples=bool': 'error: predictor.uef_samples: expected int, got True',
    'predictor.uef_samples=fraction': 'error: predictor.uef_samples: expected int, got 2.5',
    'predictor.uef_samples=null': {},
    'predictor.uef_samples=valid': {'predictor.uef_samples': 10},
    'predictor.uef_samples=whole-float': {'predictor.uef_samples': 4},
    'predictor.uef_samples=wrong-type': 'error: predictor.uef_samples: expected int, got [10]',
    'predictor.unknown': "error: unknown config key 'predictor.bogus'",
    'predictor=list': "error: config section 'predictor' must be a mapping, got [1]",
    'predictor=null': {},
    'predictor=scalar': "error: config section 'predictor' must be a mapping, got 5",
    'qpp.base=null': {},
    'qpp.base=unknown': "error: unknown base predictor 'clarity'",
    'qpp.base=valid': {'qpp.base': 'uef'},
    'qpp.base=wrong-type': "error: unknown base predictor '5'",
    'qpp.internal_depth=bool': 'error: qpp.internal_depth: expected int, got True',
    'qpp.internal_depth=fraction': 'error: qpp.internal_depth: expected int, got 2.5',
    'qpp.internal_depth=null': {},
    'qpp.internal_depth=valid': {'qpp.internal_depth': 50},
    'qpp.internal_depth=whole-float': {'qpp.internal_depth': 4},
    'qpp.internal_depth=wrong-type': "error: qpp.internal_depth: expected int, got 'deep'",
    'qpp.k=bool': 'error: qpp.k: expected int, got True',
    'qpp.k=fraction': 'error: qpp.k: expected int, got 2.5',
    'qpp.k=n': 'error: candidate pool n (100) must exceed k (100)',
    'qpp.k=null': {},
    'qpp.k=quoted-number': "error: qpp.k: expected int, got '3'",
    'qpp.k=valid': {'qpp.k': 3},
    'qpp.k=whole-float': {'qpp.k': 4},
    'qpp.k=wrong-type': "error: qpp.k: expected int, got 'three'",
    'qpp.lambda=bool': 'error: qpp.lambda: expected float, got True',
    'qpp.lambda=null': {},
    'qpp.lambda=negative-zero': {'qpp.lam': 0.0},
    'qpp.lambda=out-of-range': 'error: lambda must be in [0, 1], got 1.5',
    'qpp.lambda=quoted-number': "error: qpp.lambda: expected float, got ' 0.25 '",
    'qpp.lambda=valid': {'qpp.lam': 0.3},
    'qpp.lambda=wrong-type': "error: qpp.lambda: expected float, got 'high'",
    'qpp.n=bool': 'error: qpp.n: expected int, got True',
    'qpp.n=fraction': 'error: qpp.n: expected int, got 2.5',
    'qpp.n=null': {},
    'qpp.n=valid': {'qpp.n': 50},
    'qpp.n=whole-float': {'qpp.n': 4},
    'qpp.n=wrong-type': 'error: qpp.n: expected int, got [50]',
    'qpp.non-string-key': "error: unknown config key 'qpp.1'",
    'qpp.pseudo_query_m=bool': 'error: qpp.pseudo_query_m: expected int, got True',
    'qpp.pseudo_query_m=fraction': 'error: qpp.pseudo_query_m: expected int, got 2.5',
    'qpp.pseudo_query_m=null': {},
    'qpp.pseudo_query_m=valid': {'qpp.pseudo_query_m': 10},
    'qpp.pseudo_query_m=whole-float': {'qpp.pseudo_query_m': 4},
    'qpp.pseudo_query_m=wrong-type': "error: qpp.pseudo_query_m: expected int, got {'m': 1}",
    'qpp.query_retriever=null': {},
    'qpp.query_retriever=unknown': "error: unknown query retriever 'neural'",
    'qpp.query_retriever=valid': {'qpp.query_retriever': 'dense'},
    'qpp.query_retriever=wrong-type': "error: unknown query retriever '[1]'",
    'qpp.rbo_depth=bool': 'error: qpp.rbo_depth: expected int, got True',
    'qpp.rbo_depth=fraction': 'error: qpp.rbo_depth: expected int, got 2.5',
    'qpp.rbo_depth=null': {},
    'qpp.rbo_depth=valid': {'qpp.rbo_params.eval_depth': 50},
    'qpp.rbo_depth=whole-float': {'qpp.rbo_params.eval_depth': 4},
    'qpp.rbo_depth=wrong-type': 'error: qpp.rbo_depth: expected int, got [1]',
    'qpp.rbo_p=bool': 'error: qpp.rbo_p: expected float, got True',
    'qpp.rbo_p=null': {},
    'qpp.rbo_p=valid': {'qpp.rbo_params.p': 0.8},
    'qpp.rbo_p=wrong-type': "error: qpp.rbo_p: expected float, got 'p'",
    'qpp.run_depth=bool': 'error: qpp.run_depth: expected int, got True',
    'qpp.run_depth=fraction': 'error: qpp.run_depth: expected int, got 2.5',
    'qpp.run_depth=null': {},
    'qpp.run_depth=valid': {'run_depth': 50},
    'qpp.run_depth=whole-float': {'run_depth': 4},
    'qpp.run_depth=wrong-type': "error: qpp.run_depth: expected int, got 'deep'",
    'qpp.unknown': "error: unknown config key 'qpp.bogus'",
    'qpp.use_2hop=null': {},
    'qpp.use_2hop=valid': {'qpp.use_2hop': False},
    'qpp.use_2hop=wrong-type': 'error: qpp.use_2hop must be true or false',
    'qpp=list': "error: config section 'qpp' must be a mapping, got [1]",
    'qpp=null': {},
    'qpp=scalar': "error: config section 'qpp' must be a mapping, got 5",
    'root=empty': 'error: config is missing paths.collection',
    'root=list': 'error: <dir>/config.yaml: config root must be a mapping',
    'seed=bool': 'error: seed: expected int, got True',
    'seed=fraction': 'error: seed: expected int, got 2.5',
    'seed=negative': {'seed': -3},
    'seed=null': {},
    'seed=quoted-number': "error: seed: expected int, got '1_000'",
    'seed=section': "error: seed: expected int, got {'x': 1}",
    'seed=valid': {'seed': 7},
    'seed=whole-float': {'seed': 4},
    'seed=wrong-type': 'error: seed: expected int, got [1]',
    'top-level.dotted-name': "error: unknown config key 'qpp.lambda'",
    'top-level.unknown': "error: unknown config key 'sed'",
}


def test_every_key_is_covered():
    # the fixture workspace's config sets every key
    template = yaml.safe_load(CONFIG_TEMPLATE.format(data="data", work="work"))
    keys = [name for name, value in template.items() if not isinstance(value, dict)]
    keys += [f"{name}.{key}" for name, value in template.items() if isinstance(value, dict) for key in value]
    assert sorted(dotted for dotted, *_ in KEYS) == sorted(keys)


def test_required_paths_alone_give_the_documented_defaults(tmp_path):
    assert repr(outcome(tmp_path, BASE)) == repr(BASE_OUTCOME)
    cfg = cli.load_config(write_config(tmp_path, BASE))
    assert cfg.qpp == QppConfig() and cfg.qpp.rbo_params == RboParams() and cfg.predictor == PredictorParams()


def documented_defaults() -> dict:
    """{dotted key: default text or None} from the key list of the ``cli`` docstring."""
    text = " ".join(cli.__doc__.split("Configuration keys", 1)[1].split())
    documented = {}
    for bullet in text.split(" - ")[1:]:
        section = re.match(r"``(\w+)``:", bullet)
        for name, default in re.findall(r"``(\w+)``(?: \(([^)]*)\))?", bullet[section.end() if section else 0:]):
            documented[f"{section.group(1)}.{name}" if section else name] = default or None
    return documented


def test_docstring_names_every_key_with_its_default(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, BASE))
    owners = {
        cli.PipelineConfig: cfg, QppConfig: cfg.qpp, RboParams: cfg.qpp.rbo_params, PredictorParams: cfg.predictor,
    }
    documented = documented_defaults()
    assert sorted(documented) == sorted(cli.CONFIG_SCHEMA)
    assert sorted(key for key, default in documented.items() if default is None) == [
        f"paths.{name}" for name in sorted(REQUIRED_PATHS)
    ]
    for key, default in documented.items():
        if default is not None:
            owner, name, _ = cli.CONFIG_SCHEMA[key]
            # "nqc | uef" lists the choices, the first being the default; "[]; ..." explains after the default
            value = yaml.safe_load(default.split(";")[0].split(" | ")[0])
            assert repr(value) == repr(getattr(owners[owner], name)), key


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_golden(tmp_path, name):
    got = outcome(tmp_path, *CASES[name])
    if isinstance(got, dict):
        got = {key: value for key, value in got.items() if repr(value) != repr(BASE_OUTCOME[key])}
    assert repr(got) == repr(GOLDEN[name])


VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from([dotted for dotted, *_ in KEYS]), VALUES, max_size=4),
    st.lists(st.sampled_from([*SECTIONS, "sed", "qpp.lamda", "bm25.k2"]), max_size=1),
    VALUES,
)
@example({"evaluation.fold_a": ""}, [], None)
def test_random_values_return_or_raise_value_error(values, odd_keys, odd_value):
    raw = copy.deepcopy(BASE)
    for dotted, value in [*values.items(), *((key, odd_value) for key in odd_keys)]:
        *section, key = dotted.split(".")
        node = raw
        if section:
            if not isinstance(raw.get(section[0]), dict):
                raw[section[0]] = {}
            node = raw[section[0]]
        node[key] = value
    with tempfile.TemporaryDirectory() as directory:
        first = outcome(Path(directory), raw)  # anything but ValueError propagates
        assert repr(outcome(Path(directory), raw)) == repr(first)


def test_two_fault_error_is_the_same_under_both_hash_seeds(tmp_path):
    # the first fault in file order is reported, whatever the string-hash order
    config = write_config(tmp_path, {**BASE, "predictor": {"topk": 1, "mu_": 2}})
    src = str(Path(qvqpp.__file__).resolve().parents[1])
    errors = []
    for seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-m", "qvqpp", "qv", "--config", str(config)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        errors.append((result.returncode, result.stderr))
    assert errors == [(1, "error: unknown config key 'predictor.topk'\n")] * 2


PATHS_TEXT = "paths:\n" + "".join(f"  {name}: data/{name}\n" for name in REQUIRED_PATHS)


def text_outcome(directory: Path, text: str, overrides=(), libyaml: bool = True):
    """:func:`outcome` of a config written as ``text``, parsed with or without libyaml."""
    config = directory / "config.yaml"
    config.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        if not libyaml:
            patch.setattr(cli, "_CSafeLoader", None)
        try:
            cfg = cli.load_config(config, list(overrides))
        except ValueError as exc:
            return f"error: {exc}".replace(str(directory), "<dir>")
    return {name: value for name, value in flat(cfg).items() if not isinstance(value, Path)}


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pyyaml"])
@pytest.mark.parametrize("text, overrides, error", [
    ("seed: 1\n" + PATHS_TEXT + "seed: 7\n", (), (
        'error: <dir>/config.yaml: malformed YAML: while constructing a mapping in "<dir>/config.yaml", line 1, '
        'column 1 found duplicate key \'seed\' in "<dir>/config.yaml", line 11, column 1'
    )),
    (PATHS_TEXT + "qpp:\n  k: 2\n  lambda: 0.3\n  k: 3\n", (), (
        'error: <dir>/config.yaml: malformed YAML: while constructing a mapping in "<dir>/config.yaml", line 11, '
        'column 3 found duplicate key \'k\' in "<dir>/config.yaml", line 13, column 3'
    )),
    (PATHS_TEXT, ("qpp={k: 2, k: 3}",), (
        "error: override 'qpp': malformed YAML: while constructing a mapping in \"<unicode string>\", line 1, "
        "column 1: {k: 2, k: 3} ^ found duplicate key 'k' in \"<unicode string>\", line 1, column 8: {k: 2, k: 3} ^"
    )),
], ids=["top-level", "in-a-section", "in-an-override"])
def test_a_key_named_twice_in_a_mapping_is_refused(tmp_path, libyaml, text, overrides, error):
    assert text_outcome(tmp_path, text, overrides, libyaml) == error


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pyyaml"])
@pytest.mark.parametrize("root", ["false", "0", "[]", "''", "[1]", "text"])
def test_a_root_that_is_no_mapping_is_refused_even_when_falsy(tmp_path, libyaml, root):
    got = text_outcome(tmp_path, f"{root}\n", libyaml=libyaml)
    assert got == "error: <dir>/config.yaml: config root must be a mapping"


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pyyaml"])
@pytest.mark.parametrize("root", ["", "null\n", "~\n", "# nothing\n"])
def test_an_empty_or_null_root_holds_no_keys(tmp_path, libyaml, root):
    assert text_outcome(tmp_path, root, libyaml=libyaml) == "error: config is missing paths.collection"
    paths = [f"paths.{name}=data/{name}" for name in REQUIRED_PATHS]
    got = text_outcome(tmp_path, root, (*paths, "seed=7"), libyaml)
    assert got["seed"] == 7 and got["qpp.k"] == 1


def test_an_override_replaces_a_key_and_a_merged_key_may_be_overridden(tmp_path):
    assert text_outcome(tmp_path, PATHS_TEXT + "seed: 1\n", ("seed=7",))["seed"] == 7
    got = text_outcome(tmp_path, PATHS_TEXT + "qpp:\n  <<: {k: 2, n: 50}\n  k: 3\n")
    assert (got["qpp.k"], got["qpp.n"]) == (3, 50)


# Config-like YAML texts: lines of an indent, a key, a separator, a value and a suffix, with characters that
# libyaml and PyYAML may read differently put anywhere.
_KEYS = st.sampled_from(["seed", "qpp", "k", "ks", "'q k'", '"d"', "? x", "<<", "1", "null", "[a]", "{a: 1}", "-"])
_VALUES = st.sampled_from([
    "", "1", "0.5", "-0.0", ".nan", "1e3", "0x1F", "0o7", "1_000", "true", "No", "null", "~", "[1, 2]", "[1,\t2]",
    "{a: 1, a: 2}", "{a: 1, b: [x, y]}", "[a:b]", "{? a}", "'s''q'", '"\\ud800"', '"\\x85\\t"', '"\\U0001F600"',
    '"\\/"', "&a 1", "*a", "!!float 1", "!!str 3", "!!set {a}", "2001-01-01", "- 1", "|\n  x", ">-\n  y", "|#",
    ">+2 #c", "=", "a: b", "'open", "x #c", "x#c", "@", "`", "\u00e9", "\U0001F600", "\xa0",
])
_ODD = st.sampled_from([
    "\t", "\r", "\r\n", "\x85", "\u2028", "\u2029", "\ufeff", "\x01", "\x7f", "\x00", "\ud800", " #c", "#", "|",
])
_LINES = st.lists(
    st.tuples(st.sampled_from(["", "", "  ", "    ", "- ", "  - ", "\t"]), _KEYS,
              st.sampled_from([":", ": ", ": ", " : ", ":\t"]), _VALUES,
              st.sampled_from(["", "", "", " # c", "\t# c", " "])).map("".join),
    max_size=6,
).map("\n".join)


@st.composite
def config_texts(draw):
    text = draw(_LINES)
    for position, odd in draw(st.lists(st.tuples(st.integers(0, 200), _ODD), max_size=2)):
        position %= len(text) + 1
        text = text[:position] + odd + text[position:]
    return text


def _safe_loader_outcome(source):
    """What SafeLoader (with the key check) makes of ``source``: ('ok', repr of the object) or ('error', message)."""
    try:
        return "ok", repr(yaml.load(source, cli._SafeLoader))
    except yaml.YAMLError as exc:
        return "error", " ".join(str(exc).split())


def _named_stream(text: str):
    stream = io.StringIO(text)
    stream.name = "config.yaml"
    return stream


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pyyaml"])
@settings(max_examples=400, deadline=None)
@given(text=config_texts())
@example(text="seed:\t1")
@example(text="seed: 1\t# c")
@example(text="ks: [1,\t2]")
@example(text="a: '\ufeffx'\r\nb: \x85")
@example(text="a: 1\n\ufeff")
@example(text="\ufeff\ufeffa: 1")
@example(text="k: >#")
def test_yaml_returns_what_safeloader_returns_or_raises_its_message(libyaml, text):
    with pytest.MonkeyPatch.context() as patch:
        if not libyaml:
            patch.setattr(cli, "_CSafeLoader", None)
        for source, reference in ((text, text), (_named_stream(text), _named_stream(text))):
            want = _safe_loader_outcome(reference)
            try:
                got = "ok", repr(cli._yaml(source, "where"))
            except ValueError as exc:
                assert str(exc).startswith("where: malformed YAML: ")
                got = "error", str(exc).removeprefix("where: malformed YAML: ")
            assert got == want
    if want[0] == "ok":  # the key check aside, SafeLoader is PyYAML's own
        assert want[1] == repr(yaml.safe_load(text))
