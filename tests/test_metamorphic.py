"""Metamorphic relations of the CLI on the fixture workspace: outputs that two inputs must share, byte for byte.

- Shuffling the lines of every input file (the embedding rows after the
  header) changes no byte of the ``qv`` report, the predictions, the
  sweep grid or the ``tune`` report. Index ordinals follow input order, so
  any tie the pipeline breaks by ordinal instead of by id shows here.
- Renaming every document id and training-query id by an order-preserving
  map (a fixed prefix) changes no number: the predictions, the sweep grid
  and the ``tune`` report keep their bytes, and the ``qv`` report differs
  only in the renamed variant ids.
- A ``--set key=value`` override writes the bytes that the same key
  written in the YAML file writes.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
import yaml

from conftest import CONFIG_TEMPLATE
from qvqpp import predictors
from qvqpp.cli import main

OUTPUTS = {"qv": "qv_report.tsv", "predict": "predictions.tsv", "sweep": "sweep.csv", "tune": "tune_report.txt"}
DENSE, UEF, ONE_HOP = "qpp.query_retriever=dense", "qpp.base=uef", "qpp.use_2hop=false"
SETTINGS = {
    "bm25-nqc-2hop": [],
    "bm25-uef-2hop": [UEF],
    "dense-nqc-2hop": [DENSE],
    "dense-uef-2hop": [DENSE, UEF],
    "bm25-nqc-1hop": [ONE_HOP],
    "bm25-uef-1hop": [UEF, ONE_HOP],
    "dense-nqc-1hop": [DENSE, ONE_HOP],
    "dense-uef-1hop": [DENSE, UEF, ONE_HOP],
}


def _workspace(data: Path, root: Path) -> Path:
    """A config over ``data`` with its own index, built, under ``root``; returns the config's path."""
    root.mkdir(parents=True)
    config = root / "config.yaml"
    config.write_text(CONFIG_TEMPLATE.format(data=data, work=root / "work"), encoding="utf-8")
    assert main(["index", "--config", str(config)]) == 0
    return config


def _outputs(config: Path, out_dir: Path, commands, *overrides: str) -> dict[str, bytes]:
    """The bytes each of ``commands`` writes under ``config`` and ``--set`` ``overrides``."""
    sets = [arg for override in overrides for arg in ("--set", override)]
    out_dir.mkdir(exist_ok=True)
    written = {}
    for command in commands:
        out = out_dir / OUTPUTS[command]
        assert main([command, "--config", str(config), *sets, "--out", str(out)]) == 0, command
        written[command] = out.read_bytes()
    return written


TWINNED = ("train_queries.tsv", "train_qrels.txt", "query_embeddings.txt")  # files keyed by training-query id


@pytest.fixture(scope="module")
def twinned(workspace, tmp_path_factory) -> Path:
    """The fixture data plus a twin of every third training query: a new id with the same text, judgments and vector.

    A twin ties its original in every ranking of training queries, so each such tie must be broken by id, not by
    input position.
    """
    data = tmp_path_factory.mktemp("metamorphic") / "twinned-data"
    data.mkdir()
    train = (workspace["data"] / "train_queries.tsv").read_text(encoding="utf-8").splitlines()
    twins = {line.split("\t", 1)[0] for line in train[::3]}
    for path in sorted(workspace["data"].iterdir()):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        head = lines[:1] if path.name == "query_embeddings.txt" else []  # the "count dim" header stays first
        body = lines[len(head):]
        if path.name in TWINNED:
            body += [f"{qid}-twin{line[len(qid):]}" for line in body if (qid := line.split(None, 1)[0]) in twins]
        if head:
            head = [f"{len(body)} {head[0].split()[1]}\n"]
        (data / path.name).write_text("".join(head + body), encoding="utf-8")
    return data


@pytest.fixture(scope="module")
def original(twinned) -> Path:
    return _workspace(twinned, twinned.parent / "original")


@pytest.fixture(scope="module")
def shuffled(twinned) -> Path:
    """A config over a copy of the twinned data with every file's lines shuffled, with its own index."""
    data = twinned.parent / "shuffled-data"
    data.mkdir()
    rng = random.Random(7)
    for path in sorted(twinned.iterdir()):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        head = lines[:1] if path.name == "query_embeddings.txt" else []
        body = lines[len(head):]
        order = body[:]
        rng.shuffle(body)
        assert body != order, path.name  # every file's order changed
        (data / path.name).write_text("".join(head + body), encoding="utf-8")
    return _workspace(data, twinned.parent / "shuffled")


@pytest.mark.parametrize("overrides", SETTINGS.values(), ids=SETTINGS.keys())
def test_input_line_order_changes_no_output(original, shuffled, tmp_path, overrides):
    expected = _outputs(original, tmp_path / "a", OUTPUTS, *overrides)
    assert _outputs(shuffled, tmp_path / "b", OUTPUTS, *overrides) == expected
    assert all(expected.values())


PREFIX = "renamed-"
# File -> the fields of a line that may hold a document or training-query id; the test queries keep theirs.
ID_FIELDS = {"collection.tsv": [0], "train_queries.tsv": [0], "train_qrels.txt": [0, 2], "test_qrels.txt": [2],
             "target_run.txt": [2], "query_embeddings.txt": [0], "test_queries.tsv": []}


@pytest.fixture(scope="module")
def renamed(twinned) -> Path:
    """A config over a copy of the twinned data with every document and training-query id prefixed, with its own index."""
    data = twinned.parent / "renamed-data"
    data.mkdir()
    ids = {line.split("\t", 1)[0] for name in ("collection.tsv", "train_queries.tsv")
           for line in (twinned / name).read_text(encoding="utf-8").splitlines()}
    for path in sorted(twinned.iterdir()):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        head = lines[:1] if path.name == "query_embeddings.txt" else []
        body = []
        for line in lines[len(head):]:
            separator = "\t" if path.suffix == ".tsv" else " "
            fields = line.split(separator)
            for field in ID_FIELDS[path.name]:
                if fields[field] in ids:
                    fields[field] = PREFIX + fields[field]
            body.append(separator.join(fields))
        assert body != lines[len(head):] or not ID_FIELDS[path.name], path.name
        (data / path.name).write_text("".join(head + body), encoding="utf-8")
    return _workspace(data, twinned.parent / "renamed")


@pytest.mark.parametrize("overrides", SETTINGS.values(), ids=SETTINGS.keys())
def test_renaming_ids_in_order_changes_no_number(original, renamed, tmp_path, monkeypatch, overrides):
    expected = _outputs(original, tmp_path / "a", OUTPUTS, *overrides)
    # UEF draws each query's subsets from a seed derived from its id, by design (derive_seed), so that seed
    # is held to the id before renaming; nothing else may read an id but to order or name it
    derive_seed = predictors.derive_seed
    monkeypatch.setattr(predictors, "derive_seed",
                        lambda seed, query_id: derive_seed(seed, query_id.removeprefix(PREFIX)))
    got = _outputs(renamed, tmp_path / "b", OUTPUTS, *overrides)
    header, *rows = expected.pop("qv").decode("utf-8").splitlines(keepends=True)
    rows = [row.split("\t") for row in rows]
    assert rows and all(row[1] for row in rows)
    renamed_rows = "".join("\t".join([row[0], PREFIX + row[1], *row[2:]]) for row in rows)
    assert got.pop("qv").decode("utf-8") == header + renamed_rows  # only the variant ids differ
    assert got == expected and all(expected.values())


# (key, value as written after "=", the commands that read it)
OVERRIDES = [
    ("seed", "7", ["predict"]),
    ("qpp.lambda", "0.3", ["predict"]),
    ("qpp.k", "3", ["predict"]),
    ("qpp.use_2hop", "false", ["qv", "predict"]),
    ("qpp.base", "nqc", ["predict"]),
    ("qpp.rbo_p", "0.8", ["qv", "predict"]),
    ("predictor.mu", "500", ["predict"]),
    ("bm25.k1", "1.2", ["qv", "predict"]),
    ("evaluation.lambdas", "[0.2, 0.7]", ["sweep", "tune"]),
    ("evaluation.target_metric", "ndcg@10", ["tune"]),
    ("evaluation.fold_a", "fold_a.txt", ["tune"]),  # a list key given as a path, relative to the config
]


@pytest.mark.parametrize("key, value, commands", OVERRIDES, ids=[key for key, _, _ in OVERRIDES])
def test_an_override_writes_the_bytes_of_the_same_key_in_the_file(workspace, tmp_path, key, value, commands):
    (tmp_path / "fold_a.txt").write_text("dl02\ndl04\ndl05\n", encoding="utf-8")
    raw = yaml.safe_load(CONFIG_TEMPLATE.format(data=workspace["data"], work=workspace["root"] / "work"))
    raw["qpp"]["base"] = "uef"  # UEF reads every key here; NQC ignores seed and predictor.mu
    base, edited = tmp_path / "base.yaml", tmp_path / "edited.yaml"
    base.write_text(yaml.safe_dump(raw), encoding="utf-8")
    *sections, name = key.split(".")
    node = raw
    for section in sections:
        node = node[section]
    node[name] = yaml.safe_load(value)
    edited.write_text(yaml.safe_dump(raw), encoding="utf-8")
    by_set = _outputs(base, tmp_path / "set", commands, f"{key}={value}")
    assert _outputs(edited, tmp_path / "file", commands) == by_set
    assert by_set != _outputs(base, tmp_path / "file", commands)  # the key changed what was written
