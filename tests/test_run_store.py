"""Run stores beside the index, and the malformed-artifact cases shared by both artifacts.

A command adopts a run store only when its header names the config's
parameters and both indexes and every check passes; otherwise it takes
the lazy path and rewrites the store. Either way its outputs are the bytes
a command with no store writes.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import qvqpp.variants
from conftest import CONFIG_TEMPLATE, write_fixture_files
from qvqpp import cli
from qvqpp.cli import main
from qvqpp.text_index import load_runs, write_artifact
from test_cli import NQC_PREDICTIONS_GOLDEN, NQC_QV_GOLDEN, NQC_SWEEP_GOLDEN, TUNE_GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"

# Each command's output file and its golden bytes on the fixture workspace.
OUTPUTS = {
    "predict": ("predictions.tsv", NQC_PREDICTIONS_GOLDEN),
    "qv": ("qv_report.tsv", NQC_QV_GOLDEN),
    "tune": ("tune_report.txt", TUNE_GOLDEN),
    "sweep": ("sweep.csv", NQC_SWEEP_GOLDEN),
}


def make_workspace(root: Path, corpus, target_run) -> dict:
    data = root / "data"
    write_fixture_files(corpus, target_run, data)
    config = root / "config.yaml"
    config.write_text(CONFIG_TEMPLATE.format(data=data, work=root / "work"), encoding="utf-8")
    assert main(["index", "--config", str(config)]) == 0
    return {"root": root, "data": data, "config": config, "index": root / "work" / "index"}


@pytest.fixture
def ws(tmp_path, corpus, target_run):
    return make_workspace(tmp_path, corpus, target_run)


def run(ws: dict, command: str, *overrides: str, out: Path | None = None) -> str:
    """Run ``command`` in-process with -v; return the text of its output file."""
    out = out or ws["root"] / "out" / OUTPUTS[command][0]
    argv = ["-v", command, "--config", str(ws["config"]), "--out", str(out)]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 0
    return out.read_text(encoding="utf-8")


def store_paths(ws: dict, *overrides: str) -> dict[str, Path]:
    """The run stores a config reads, by kind."""
    _, stores = cli._load_resources(cli.load_config(ws["config"], overrides))
    return {run_store.key["kind"]: run_store.path for run_store in stores}


def store_lines(caplog) -> dict[str, str]:
    """The -v line of each run store, by kind; cleared for the next command."""
    lines = {}
    for record in caplog.records:
        message = record.getMessage()
        if message.startswith("run store "):
            lines[message.split()[2].split("-")[0]] = message
    caplog.clear()
    return lines


def remove_stores(ws: dict) -> None:
    for path in ws["index"].glob("*.runs"):
        path.unlink()


@pytest.fixture(autouse=True)
def info_logs(caplog):
    caplog.set_level(logging.INFO, logger="qvqpp.cli")


class TestReuse:
    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_cold_partial_and_warm_runs_write_the_same_bytes(self, ws, caplog, command):
        golden = OUTPUTS[command][1]
        assert run(ws, command) == golden
        cold = store_lines(caplog)
        assert sorted(cold) == ["internal_runs", "pseudo_query_hits"]
        assert all(": not adopted: absent, filled " in line and ", wrote " in line for line in cold.values())

        # qv over one target leaves stores that hold part of the rows the full command needs
        remove_stores(ws)
        one_target = ws["root"] / "one_target.tsv"
        one_target.write_text((ws["data"] / "test_queries.tsv").read_text().splitlines()[0] + "\n")
        run(ws, "qv", f"paths.test_queries={one_target}", out=ws["root"] / "one_qv.tsv")
        caplog.clear()
        assert run(ws, command) == golden
        for line in store_lines(caplog).values():
            adopted, filled = (int(line.split(word)[1].split()[0]) for word in ("adopted ", "filled "))
            assert adopted > 0 and filled > 0 and f"wrote {adopted + filled} rows" in line, line

        assert run(ws, command) == golden
        warm = store_lines(caplog)
        assert sorted(warm) == ["internal_runs", "pseudo_query_hits"]
        assert all("filled 0 rows, not written: no new rows" in line for line in warm.values())

    def test_warm_predict_makes_no_bm25_call_for_a_stored_row(self, ws, monkeypatch):
        targets = len({line.split()[0] for line in (ws["data"] / "target_run.txt").read_text().splitlines()})
        doc_ids = {line.split("\t")[0] for line in (ws["data"] / "collection.tsv").read_text().splitlines()}
        calls = {"documents": 0, "queries": 0}
        original = qvqpp.variants.bm25_ordinals

        def counted(index, *args, **kwargs):
            calls["documents" if index.item_ids[0] in doc_ids else "queries"] += 1
            return original(index, *args, **kwargs)

        monkeypatch.setattr(qvqpp.variants, "bm25_ordinals", counted)
        run(ws, "predict")
        cold = dict(calls)
        assert cold["documents"] > targets and cold["queries"] > 0
        calls.update(documents=0, queries=0)
        assert run(ws, "predict") == NQC_PREDICTIONS_GOLDEN
        # only each target's own 1-hop ranking and internal run are computed; every pool row and pseudo-query
        # hit list is stored
        assert calls == {"documents": targets, "queries": targets}

    def test_index_writes_no_store(self, ws):
        assert sorted(path.name for path in ws["index"].iterdir()) == ["documents.idx", "queries.idx"]

    def test_stores_of_two_configs_live_side_by_side(self, ws):
        run(ws, "predict")
        run(ws, "predict", "qpp.internal_depth=50", out=ws["root"] / "depth50.tsv")
        assert len(list(ws["index"].glob("internal_runs-*.runs"))) == 2
        assert len(list(ws["index"].glob("pseudo_query_hits-*.runs"))) == 1

    def test_one_hop_config_reads_no_pseudo_query_store(self, ws, caplog):
        run(ws, "predict", "qpp.use_2hop=false")
        assert sorted(store_lines(caplog)) == ["internal_runs"]
        assert not list(ws["index"].glob("pseudo_query_hits-*"))


class TestStaleStores:
    @pytest.mark.parametrize("override, stale", [
        ("bm25.k1=1.2", {"internal_runs", "pseudo_query_hits"}),
        ("qpp.internal_depth=50", {"internal_runs"}),
        ("qpp.pseudo_query_m=10", {"pseudo_query_hits"}),
        ("qpp.n=50", {"pseudo_query_hits"}),
    ])
    def test_store_of_other_parameters_not_adopted(self, ws, caplog, override, stale):
        expected = run(ws, "predict", override)  # cold, with this config's own stores written
        remove_stores(ws)
        run(ws, "predict")
        default_paths, paths = store_paths(ws), store_paths(ws, override)
        assert {kind for kind in paths if paths[kind] != default_paths[kind]} == stale
        for kind in stale:  # the default config's store, under the name this config reads
            shutil.copyfile(default_paths[kind], paths[kind])
        caplog.clear()
        assert run(ws, "predict", override) == expected
        lines = store_lines(caplog)
        field = override.split("=")[0]
        for kind, line in lines.items():
            if kind in stale:
                assert f"not adopted: stale key ({field} differs)" in line and ", wrote " in line, line
            else:
                assert "filled 0 rows" in line, line
        # the rewritten stores hold this config's rows only: a warm run adopts them all
        assert run(ws, "predict", override) == expected
        assert all("filled 0 rows" in line for line in store_lines(caplog).values())

    def test_store_of_an_edited_collection_not_adopted(self, ws, caplog):
        run(ws, "predict")
        kept = ws["root"] / "kept"
        kept.mkdir()
        stores = sorted(ws["index"].glob("*.runs"))
        for path in stores:
            shutil.copy(path, kept / path.name)
        collection = ws["data"] / "collection.tsv"
        lines = collection.read_text(encoding="utf-8").splitlines()
        doc_id, text = lines[0].split("\t")
        collection.write_text("\n".join([f"{doc_id}\t{text} coffee crema", *lines[1:]]) + "\n", encoding="utf-8")
        assert main(["index", "--config", str(ws["config"])]) == 0
        assert not list(ws["index"].glob("*.runs"))  # index deletes the stores of the old collection
        for path in stores:  # put back, they are still refused
            shutil.copy(kept / path.name, path)
        caplog.clear()
        edited = run(ws, "predict")
        assert all("not adopted: stale key (doc_index differs)" in line for line in store_lines(caplog).values())
        remove_stores(ws)
        assert run(ws, "predict") == edited


def _cli(ws: dict, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "qvqpp", *argv, "--config", str(ws["config"])],
                          env=env, capture_output=True, text=True)


class TestIndexPrunesStores:
    def test_index_keeps_only_the_stores_of_its_indexes(self, ws, caplog):
        run(ws, "predict")
        keyed = store_paths(ws)["internal_runs"]
        planted = {
            "stale": ws["index"] / "internal_runs-stale.runs",
            "malformed": ws["index"] / "pseudo_query_hits-malformed.runs",
            "temporary": ws["index"] / f".{keyed.name}.4242.tmp",
            "rows-unread": ws["index"] / "internal_runs-rows-unread.runs",
        }
        for path in planted.values():
            shutil.copyfile(keyed, path)
        _member_fault(lambda header, members: header.update(doc_index="another collection"))(planted["stale"])
        STORE_FAULTS["truncated"](planted["malformed"])
        STORE_FAULTS["ordinals-missing"](planted["rows-unread"])  # a header keyed to the new indexes
        before = {path.name for path in ws["index"].iterdir()}
        caplog.clear()

        assert main(["-v", "index", "--config", str(ws["config"])]) == 0
        gone = {planted[name].name for name in ("stale", "malformed", "temporary")}
        assert {path.name for path in ws["index"].iterdir()} == before - gone
        removed = sorted(record.getMessage() for record in caplog.records if record.getMessage().startswith("removed "))
        assert [line.split(":")[0] for line in removed] == sorted(f"removed {name}" for name in gone)
        assert f"removed {planted['stale'].name}: stale key (doc_index differs)" in removed
        assert f"removed {planted['temporary'].name}: temporary file" in removed
        caplog.clear()
        assert run(ws, "predict") == NQC_PREDICTIONS_GOLDEN
        assert f"run store {keyed.name}: adopted " in store_lines(caplog)["internal_runs"]

    def test_a_store_that_cannot_be_removed_is_a_warning(self, ws):
        blocked = ws["index"] / "internal_runs-blocked.runs"
        blocked.mkdir()  # unreadable as a store, and unlink refuses a directory
        done = _cli(ws, "index")
        assert done.returncode == 0
        assert done.stderr.startswith(f"WARNING qvqpp.cli: could not remove {blocked}: ")
        assert blocked.is_dir()


class TestWritesAndLogs:
    def test_failed_write_is_one_warning(self, ws):
        blocked = store_paths(ws)["internal_runs"]
        blocked.mkdir()  # a directory where the store goes: os.replace onto it fails, even for root
        done = _cli(ws, "predict")
        assert done.returncode == 0
        assert (ws["root"] / "work" / "out" / "predictions.tsv").read_text() == NQC_PREDICTIONS_GOLDEN
        warnings = done.stderr.splitlines()
        assert len(warnings) == 1 and warnings[0].startswith(f"WARNING qvqpp.cli: could not write run store {blocked}")
        assert blocked.is_dir() and not list(ws["index"].glob(".*.tmp"))
        assert len(list(ws["index"].glob("pseudo_query_hits-*.runs"))) == 1

    def test_verbose_logs_every_store_and_changes_no_output(self, ws):
        out = ws["root"] / "work" / "out" / "predictions.tsv"
        quiet = _cli(ws, "predict")
        assert quiet.returncode == 0 and quiet.stderr == ""
        written = out.read_bytes()
        remove_stores(ws)
        loud = _cli(ws, "-v", "predict")
        assert out.read_bytes() == written
        lines = [line for line in loud.stderr.splitlines() if "run store" in line]
        assert len(lines) == 2 and all(": not adopted: absent, filled " in line for line in lines)
        again = _cli(ws, "-v", "predict")
        assert out.read_bytes() == written
        lines = [line for line in again.stderr.splitlines() if "run store" in line]
        assert len(lines) == 2 and all("filled 0 rows, not written: no new rows" in line for line in lines)


# ---- malformed artifacts: one generator of faults for the index and the run store ----

def read_members(path: Path) -> tuple[dict, dict]:
    with np.load(path) as archive:
        members = dict(archive)
    return json.loads(members.pop("header").tobytes()), members


def _member_fault(change):
    def fault(path: Path) -> None:
        header, members = read_members(path)
        change(header, members)
        write_artifact(path, header, members)
    return fault


def _flip_last_data_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.infolist()[-1]
    name_length, extra_length = (int.from_bytes(data[info.header_offset + at:][:2], "little") for at in (26, 28))
    data[info.header_offset + 30 + name_length + extra_length + info.compress_size - 1] ^= 0x01
    path.write_bytes(bytes(data))


def _first_run_of_two(ptr: np.ndarray) -> int:
    """Where the first segment with at least two entries starts."""
    return int(ptr[np.flatnonzero(np.diff(ptr) >= 2)[0]])


def _set(name: str, at, value):
    def change(header, members):
        members[name] = members[name].copy()
        members[name][at(members) if callable(at) else at] = value
    return change


def artifact_faults(ptr: str, ordinals: str, scores: str | None = None, keys: str | None = None):
    """(name, fault) pairs for an artifact whose CSR parts are the members named; a fault edits the file."""
    yield "truncated", lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    yield "flipped-byte", _flip_last_data_byte
    yield f"{ptr}-float", _member_fault(lambda h, m: m.update({ptr: m[ptr].astype(np.float64)}))
    yield f"{ordinals}-2d", _member_fault(lambda h, m: m.update({ordinals: m[ordinals].reshape(1, -1)}))
    yield f"{ordinals}-missing", _member_fault(lambda h, m: m.pop(ordinals))
    yield "format-foreign", _member_fault(lambda h, m: h.update(format="something-else"))
    yield "version-next", _member_fault(lambda h, m: h.update(version=h["version"] + 1))
    yield f"{ordinals}-past-range", _member_fault(_set(ordinals, 0, 2**30))
    yield f"{ordinals}-negative", _member_fault(_set(ordinals, 0, -1))
    yield f"{ordinals}-repeated-in-a-run", _member_fault(
        lambda h, m: _set(ordinals, _first_run_of_two(m[ptr]) + 1, m[ordinals][_first_run_of_two(m[ptr])])(h, m))
    yield f"{ptr}-not-monotone", _member_fault(lambda h, m: _set(ptr, 1, m[ptr][2] + 1)(h, m))
    if scores is not None:
        yield f"{scores}-nan", _member_fault(_set(scores, 0, np.nan))
        yield f"{scores}-infinite", _member_fault(_set(scores, 0, np.inf))
        yield f"{scores}-zero", _member_fault(_set(scores, -1, 0.0))
        yield f"{scores}-increasing", _member_fault(
            lambda h, m: _set(scores, _first_run_of_two(m[ptr]) + 1, m[scores][_first_run_of_two(m[ptr])] * 2)(h, m))
    if keys is not None:
        yield f"{keys}-past-range", _member_fault(_set(keys, -1, 2**40))
        yield f"{keys}-unsorted", _member_fault(lambda h, m: _set(keys, 0, m[keys][1])(h, m))


INDEX_FAULTS = dict(artifact_faults("row_ptr", "row_terms"))
STORE_FAULTS = dict(artifact_faults("ptr", "ordinals", "scores", "keys"))


def _never_unpickle(*args, **kwargs):
    raise AssertionError("an artifact was unpickled")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, corpus, target_run):
    """A workspace whose stores a cold predict wrote, with the bytes of every artifact."""
    ws = make_workspace(tmp_path_factory.mktemp("pristine"), corpus, target_run)
    assert main(["predict", "--config", str(ws["config"])]) == 0
    ws["bytes"] = {path: path.read_bytes() for path in ws["index"].iterdir()}
    return ws


class TestMalformedArtifacts:
    @pytest.mark.parametrize("name", sorted(INDEX_FAULTS))
    def test_faulty_index_is_an_error(self, pristine, capsys, monkeypatch, name):
        path = pristine["index"] / "documents.idx"
        monkeypatch.setattr(pickle, "load", _never_unpickle)
        monkeypatch.setattr(pickle, "loads", _never_unpickle)
        try:
            INDEX_FAULTS[name](path)
            assert main(["predict", "--config", str(pristine["config"]), "--out", str(pristine["root"] / "x")]) == 1
        finally:
            path.write_bytes(pristine["bytes"][path])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: not a qvqpp.inverted_index artifact (" in err, err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["internal_runs", "pseudo_query_hits"])
    @pytest.mark.parametrize("name", sorted(STORE_FAULTS))
    def test_faulty_store_is_rewritten(self, pristine, caplog, monkeypatch, kind, name):
        path = store_paths(pristine)[kind]
        path.write_bytes(pristine["bytes"][path])
        monkeypatch.setattr(pickle, "load", _never_unpickle)
        monkeypatch.setattr(pickle, "loads", _never_unpickle)
        STORE_FAULTS[name](path)
        assert path.read_bytes() != pristine["bytes"][path]
        caplog.clear()
        assert run(pristine, "predict") == NQC_PREDICTIONS_GOLDEN
        line = store_lines(caplog)[kind]
        assert ": not adopted: malformed (" in line and ", wrote " in line, line
        assert path.read_bytes() == pristine["bytes"][path]

    def test_pickled_store_member_never_runs(self, pristine, caplog):
        path = store_paths(pristine)["internal_runs"]
        marker = pristine["root"] / "ran"
        header, members = read_members(path)
        with zipfile.ZipFile(path, "w") as archive:
            for name, array in {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **members,
                                "ordinals": np.array([_Touch(marker)], dtype=object)}.items():
                with archive.open(f"{name}.npy", "w") as member:
                    np.lib.format.write_array(member, array, allow_pickle=True)
        caplog.clear()
        assert run(pristine, "predict") == NQC_PREDICTIONS_GOLDEN
        assert "not adopted: malformed (" in store_lines(caplog)["internal_runs"]
        assert not marker.exists()
        assert path.read_bytes() == pristine["bytes"][path]

    def test_unfaulted_store_loads(self, pristine):
        path = store_paths(pristine)["internal_runs"]
        _, stores = cli._load_resources(cli.load_config(pristine["config"]))
        store = next(s for s in stores if s.path == path)
        assert store.adopted > 0 and not store.refused
        runs = load_runs(path, store.key, store.rows, store.items, store.width)
        assert len(runs) == store.adopted and runs.ptr[-1] == len(runs.ordinals)


class _Touch:
    """Unpickling this object creates ``path``: a stand-in for a payload that runs code."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))
