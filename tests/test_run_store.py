"""Run stores beside the index, and the malformed-artifact cases shared by both artifacts.

A command adopts a run store only when its header names the config's
parameters and both indexes and every check passes; otherwise it takes
the lazy path and rewrites the store. Either way its outputs are the bytes
a command with no store writes.
"""

from __future__ import annotations

import io
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

import qvqpp.predictors
import qvqpp.variants
from conftest import CONFIG_TEMPLATE, write_fixture_files
from qvqpp import cli
from qvqpp.artifacts import StoredRuns, read_store, write_artifact
from qvqpp.cli import main
from test_cli import (
    NQC_PREDICTIONS_GOLDEN, NQC_QV_GOLDEN, NQC_SWEEP_GOLDEN, TUNE_GOLDEN, UEF_PREDICTIONS_GOLDEN, UEF_SWEEP_GOLDEN,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Each command's output file and its golden bytes on the fixture workspace.
OUTPUTS = {
    "predict": ("predictions.tsv", NQC_PREDICTIONS_GOLDEN),
    "qv": ("qv_report.tsv", NQC_QV_GOLDEN),
    "tune": ("tune_report.txt", TUNE_GOLDEN),
    "sweep": ("sweep.csv", NQC_SWEEP_GOLDEN),
}
# The store kinds of the fixture config (2-hop expansion on); qv evaluates no predictor, so it reads no phi store.
KINDS = ["internal_runs", "pseudo_query_hits", "variant_phi"]
KINDS_OF = {command: KINDS[:2] if command == "qv" else KINDS for command in OUTPUTS}
# Settings that UEF reads and NQC does not: each keys UEF's phi store, never NQC's.
UEF_ONLY = ["predictor.uef_samples=3", "predictor.uef_sample_size=1", "predictor.mu=500.0", "seed=7", "qpp.rbo_p=0.8",
            "qpp.rbo_depth=50"]


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


def targets_of(ws: dict) -> list[str]:
    """The query ids of the target run, in file order."""
    lines = (ws["data"] / "target_run.txt").read_text().splitlines()
    return list(dict.fromkeys(line.split()[0] for line in lines))


@pytest.fixture(autouse=True)
def info_logs(caplog):
    caplog.set_level(logging.INFO, logger="qvqpp.artifacts")


class TestReuse:
    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_cold_partial_and_warm_runs_write_the_same_bytes(self, ws, caplog, command):
        _check_reuse(ws, caplog, command, OUTPUTS[command][1])

    @pytest.mark.parametrize("command, golden", [
        ("predict", UEF_PREDICTIONS_GOLDEN), ("sweep", UEF_SWEEP_GOLDEN), ("tune", None),
    ], ids=["predict", "sweep", "tune"])
    def test_cold_partial_and_warm_uef_runs_write_the_same_bytes(self, ws, caplog, command, golden):
        _check_reuse(ws, caplog, command, golden, "qpp.base=uef")

    @pytest.mark.parametrize("command", ["predict", "sweep"])
    def test_warm_command_evaluates_the_targets_only(self, ws, monkeypatch, command):
        calls = {"uef": 0, "evaluate": 0}
        uef, evaluate = qvqpp.predictors.uef, qvqpp.predictors.PredictorContext.evaluate

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(qvqpp.predictors, "uef", counted("uef", uef))
        monkeypatch.setattr(qvqpp.predictors.PredictorContext, "evaluate", counted("evaluate", evaluate))
        cold_output = run(ws, command, "qpp.base=uef")
        assert calls["uef"] > len(targets_of(ws))
        calls.update(uef=0, evaluate=0)
        # every kept variant's phi is stored: only each target's own run is evaluated
        assert run(ws, command, "qpp.base=uef") == cold_output
        assert calls == {"uef": len(targets_of(ws)), "evaluate": len(targets_of(ws))}

    def test_warm_predict_makes_no_bm25_call_for_a_stored_row(self, ws, monkeypatch):
        targets = len(targets_of(ws))
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
        assert len(list(ws["index"].glob("variant_phi-*.runs"))) == 2

    def test_one_hop_config_reads_no_pseudo_query_store(self, ws, caplog):
        run(ws, "predict", "qpp.use_2hop=false")
        assert sorted(store_lines(caplog)) == ["internal_runs", "variant_phi"]
        assert not list(ws["index"].glob("pseudo_query_hits-*"))

    def test_store_names_and_bytes_do_not_depend_on_the_string_hash_seed(self, ws):
        written = {}
        for hashseed in ("0", "1"):
            remove_stores(ws)
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hashseed)
            for command in ("predict", "sweep"):
                subprocess.run([sys.executable, "-m", "qvqpp", command, "--config", str(ws["config"])],
                               env=env, check=True, capture_output=True)
            written[hashseed] = {path.name: path.read_bytes() for path in ws["index"].glob("*.runs")}
        assert sorted(name.split("-")[0] for name in written["0"]) == KINDS
        assert sorted(written["0"]) == sorted(written["1"])
        for name, data in written["0"].items():
            assert _header_bytes(data) == _header_bytes(written["1"][name]), name
            assert data == written["1"][name], name


def _check_reuse(ws: dict, caplog, command: str, golden: str | None, *overrides: str) -> None:
    """A cold ``command``, one after a partial predict and a warm one write ``golden`` (the cold bytes if None)."""
    output = run(ws, command, *overrides)
    golden = golden or output
    assert output == golden
    cold = store_lines(caplog)
    assert sorted(cold) == KINDS_OF[command]
    assert all(": not adopted: absent, filled " in line and ", wrote " in line for line in cold.values())

    # predict over one target leaves stores that hold part of the rows the full command needs
    remove_stores(ws)
    first = targets_of(ws)[0]
    one_target = ws["root"] / "one_target.txt"
    lines = (ws["data"] / "target_run.txt").read_text().splitlines()
    one_target.write_text("".join(f"{line}\n" for line in lines if line.split()[0] == first))
    run(ws, "predict", f"paths.target_run={one_target}", *overrides, out=ws["root"] / "one_predict.tsv")
    caplog.clear()
    assert run(ws, command, *overrides) == golden
    for line in store_lines(caplog).values():
        adopted, filled = (int(line.split(word)[1].split()[0]) for word in ("adopted ", "filled "))
        assert adopted > 0 and filled > 0 and f"wrote {adopted + filled} rows" in line, line

    assert run(ws, command, *overrides) == golden
    warm = store_lines(caplog)
    assert sorted(warm) == KINDS_OF[command]
    assert all("filled 0 rows, not written: no new rows" in line for line in warm.values())


class TestStaleStores:
    # one override per key field, over a base: each names another store of every kind whose key holds that field
    @pytest.mark.parametrize("base, override, stale", [
        ("nqc", "bm25.k1=1.2", {"internal_runs", "pseudo_query_hits", "variant_phi"}),
        ("nqc", "bm25.b=0.5", {"internal_runs", "pseudo_query_hits", "variant_phi"}),
        ("nqc", "qpp.internal_depth=50", {"internal_runs", "variant_phi"}),
        ("nqc", "qpp.pseudo_query_m=10", {"pseudo_query_hits"}),
        ("nqc", "qpp.n=50", {"pseudo_query_hits"}),
        ("nqc", "qpp.base=uef", {"variant_phi"}),
        ("nqc", "predictor.top_k=50", {"variant_phi"}),
        *(("uef", override, {"variant_phi"}) for override in UEF_ONLY),
    ])
    def test_store_of_other_parameters_not_adopted(self, ws, caplog, base, override, stale):
        base = f"qpp.base={base}"
        expected = run(ws, "predict", base, override)  # cold, with this config's own stores written
        remove_stores(ws)
        run(ws, "predict", base)
        default_paths, paths = store_paths(ws, base), store_paths(ws, base, override)
        assert {kind for kind in paths if paths[kind] != default_paths[kind]} == stale
        for kind in stale:  # the default config's store, under the name this config reads
            shutil.copyfile(default_paths[kind], paths[kind])
        caplog.clear()
        assert run(ws, "predict", base, override) == expected
        lines = store_lines(caplog)
        field = override.split("=")[0]
        for kind, line in lines.items():
            if kind in stale:
                assert f"not adopted: stale key ({field} differs)" in line and ", wrote " in line, line
            else:
                assert "filled 0 rows" in line, line
        # the rewritten stores hold this config's rows only: a warm run adopts them all
        assert run(ws, "predict", base, override) == expected
        assert all("filled 0 rows" in line for line in store_lines(caplog).values())

    @pytest.mark.parametrize("override", UEF_ONLY)
    def test_nqc_store_is_keyed_by_what_nqc_reads_alone(self, ws, caplog, monkeypatch, override):
        expected = run(ws, "predict", override)  # cold
        remove_stores(ws)
        evaluated = []
        evaluate = qvqpp.predictors.PredictorContext.evaluate

        def counted(context, base, ranking, terms, query_id, rbo_params, doc_id=None):
            evaluated.append(query_id)
            return evaluate(context, base, ranking, terms, query_id, rbo_params, doc_id)

        monkeypatch.setattr(qvqpp.predictors.PredictorContext, "evaluate", counted)
        assert run(ws, "predict") == NQC_PREDICTIONS_GOLDEN
        stored, stores = set(evaluated) - set(targets_of(ws)), sorted(ws["index"].glob("*.runs"))
        assert stored
        evaluated.clear()
        caplog.clear()
        assert run(ws, "predict", override) == expected
        # the same stores, adopted: no stored variant is evaluated again
        assert sorted(ws["index"].glob("*.runs")) == stores
        assert ": adopted " in store_lines(caplog)["variant_phi"]
        assert not stored & set(evaluated)
        if not override.startswith("qpp.rbo_"):  # the same variants survive re-ranking: only the targets run
            assert (expected, sorted(evaluated)) == (NQC_PREDICTIONS_GOLDEN, sorted(targets_of(ws)))

    def test_phi_store_of_another_predictor_version_not_adopted(self, ws, caplog):
        run(ws, "predict")
        path = store_paths(ws)["variant_phi"]
        written = path.read_bytes()
        _member_fault(lambda header, members: header.update(predictor_version=header["predictor_version"] + 1))(path)
        caplog.clear()
        assert run(ws, "predict") == NQC_PREDICTIONS_GOLDEN
        line = store_lines(caplog)["variant_phi"]
        assert "not adopted: stale key (predictor_version differs)" in line and ", wrote " in line, line
        assert path.read_bytes() == written

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


class TestStoresOfAnEarlierLayout:
    def test_sparse_phi_store_is_rewritten_and_the_run_stores_adopted(self, ws, caplog):
        cold = run(ws, "predict")
        written = {path: path.read_bytes() for path in ws["index"].glob("*.runs")}
        # the phi store as the sparse layout held it: the known values' ordinals as keys, and their values
        path = store_paths(ws)["variant_phi"]
        header, members = read_members(path)
        known = np.flatnonzero(~np.isnan(members["phi"]))
        write_artifact(path, header, {"keys": known, "values": members["phi"][known]})
        caplog.clear()
        assert run(ws, "predict") == cold
        lines = store_lines(caplog)
        assert "not adopted: malformed (" in lines["variant_phi"] and "phi.npy" in lines["variant_phi"]
        assert f"filled {len(known)} rows, wrote {len(known)} rows" in lines["variant_phi"], lines["variant_phi"]
        for kind in ("internal_runs", "pseudo_query_hits"):
            assert ": adopted " in lines[kind] and "filled 0 rows, not written: no new rows" in lines[kind]
        assert {path: path.read_bytes() for path in ws["index"].glob("*.runs")} == written


def _cli(ws: dict, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "qvqpp", *argv, "--config", str(ws["config"])],
                          env=env, capture_output=True, text=True)


class TestIndexPrunesStores:
    def test_index_keeps_only_the_stores_of_its_indexes(self, ws, caplog):
        run(ws, "predict")
        keyed = store_paths(ws)["internal_runs"]
        phi = store_paths(ws)["variant_phi"]
        planted = {
            "stale": ws["index"] / "internal_runs-stale.runs",
            "phi-stale": ws["index"] / "variant_phi-stale.runs",
            "malformed": ws["index"] / "pseudo_query_hits-malformed.runs",
            "temporary": ws["index"] / f".{keyed.name}.4242.tmp",
            "rows-unread": ws["index"] / "internal_runs-rows-unread.runs",
        }
        for name, path in planted.items():
            shutil.copyfile(phi if name == "phi-stale" else keyed, path)
        for name in ("stale", "phi-stale"):
            _member_fault(lambda header, members: header.update(doc_index="another collection"))(planted[name])
        STORE_FAULTS["truncated"](planted["malformed"])
        STORE_FAULTS["ordinals-missing"](planted["rows-unread"])  # a header keyed to the new indexes
        before = {path.name for path in ws["index"].iterdir()}
        caplog.clear()

        assert main(["-v", "index", "--config", str(ws["config"])]) == 0
        gone = {planted[name].name for name in ("stale", "phi-stale", "malformed", "temporary")}
        assert {path.name for path in ws["index"].iterdir()} == before - gone
        removed = sorted(record.getMessage() for record in caplog.records if record.getMessage().startswith("removed "))
        assert [line.split(":")[0] for line in removed] == sorted(f"removed {name}" for name in gone)
        assert f"removed {planted['stale'].name}: stale key (doc_index differs)" in removed
        assert f"removed {planted['phi-stale'].name}: stale key (doc_index differs)" in removed
        assert f"removed {planted['temporary'].name}: temporary file" in removed
        caplog.clear()
        assert run(ws, "predict") == NQC_PREDICTIONS_GOLDEN
        lines = store_lines(caplog)
        assert f"run store {keyed.name}: adopted " in lines["internal_runs"]
        assert f"run store {phi.name}: adopted " in lines["variant_phi"]

    def test_a_store_that_cannot_be_removed_is_a_warning(self, ws):
        blocked = ws["index"] / "internal_runs-blocked.runs"
        blocked.mkdir()  # unreadable as a store, and unlink refuses a directory
        done = _cli(ws, "index")
        assert done.returncode == 0
        assert done.stderr.startswith(f"WARNING qvqpp.artifacts: could not remove {blocked}: ")
        assert blocked.is_dir()


class TestWritesAndLogs:
    def test_failed_write_is_one_warning(self, ws):
        blocked = store_paths(ws)["internal_runs"]
        blocked.mkdir()  # a directory where the store goes: os.replace onto it fails, even for root
        done = _cli(ws, "predict")
        assert done.returncode == 0
        assert (ws["root"] / "work" / "out" / "predictions.tsv").read_text() == NQC_PREDICTIONS_GOLDEN
        warnings = done.stderr.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith(f"WARNING qvqpp.artifacts: could not write run store {blocked}")
        assert blocked.is_dir() and not list(ws["index"].glob(".*.tmp"))
        assert len(list(ws["index"].glob("pseudo_query_hits-*.runs"))) == 1

    def test_a_key_too_long_to_spell_out_names_its_store_by_a_digest(self, ws):
        # a seed of 200 digits makes the spelled-out key of UEF's phi store longer than a file name may be
        uef, seed = "qpp.base=uef", f"seed={'7' * 200}"
        first = _cli(ws, "predict", "--set", uef, "--set", seed)
        assert first.returncode == 0 and first.stderr == "", first.stderr
        path = store_paths(ws, uef, seed)["variant_phi"]
        assert path.exists() and len(f".{path.name}.4194304.tmp".encode()) <= 255  # the longest temporary name
        assert path.name.startswith("variant_phi-") and path.name != store_paths(ws, uef)["variant_phi"].name
        assert "seed" not in path.name and "seed" in store_paths(ws, uef)["variant_phi"].name
        written = sorted(p.name for p in ws["index"].glob("*.runs"))
        assert written == sorted(p.name for p in store_paths(ws, uef, seed).values())
        again = _cli(ws, "-v", "predict", "--set", uef, "--set", seed)
        assert again.returncode == 0
        line = next(line for line in again.stderr.splitlines() if f"run store {path.name}: " in line)
        assert ": adopted " in line and "filled 0 rows" in line, line

    @pytest.mark.parametrize("command, output", [("predict", "predictions.tsv"), ("sweep", "sweep.csv")])
    def test_verbose_logs_every_store_and_changes_no_output(self, ws, command, output):
        out = ws["root"] / "work" / "out" / output
        quiet = _cli(ws, command)
        assert quiet.returncode == 0 and quiet.stderr == ""
        written = out.read_bytes()
        remove_stores(ws)
        loud = _cli(ws, "-v", command)
        assert out.read_bytes() == written
        lines = [line for line in loud.stderr.splitlines() if "run store" in line]
        assert len(lines) == 3 and all(": not adopted: absent, filled " in line for line in lines)
        cold = _predictor_counts(loud.stderr)
        assert cold[0] > len(targets_of(ws)) and cold[1] >= 0
        again = _cli(ws, "-v", command)
        assert out.read_bytes() == written
        lines = [line for line in again.stderr.splitlines() if "run store" in line]
        assert len(lines) == 3 and all("filled 0 rows, not written: no new rows" in line for line in lines)
        # the warm command evaluates each target and reads every kept variant's phi from the table
        evaluations, reads = _predictor_counts(again.stderr)
        assert evaluations == len(targets_of(ws)) and reads == cold[0] - evaluations + cold[1]


def _predictor_counts(stderr: str) -> tuple[int, int]:
    """The base-predictor evaluations and phi-table reads of a -v command's one count line."""
    lines = [line for line in stderr.splitlines() if "base predictor: " in line]
    assert len(lines) == 1, stderr
    words = lines[0].split("base predictor: ")[1].split()
    return int(words[0]), int(words[2])


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


def _header_bytes(data: bytes) -> bytes:
    """The raw bytes of a store's header member."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return archive.read("header.npy")


def _set(name: str, at, value):
    def change(header, members):
        members[name] = members[name].copy()
        members[name][at(members) if callable(at) else at] = value
    return change


def _file_faults():
    """(name, fault) pairs that break any artifact whatever its members."""
    yield "truncated", lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    yield "flipped-byte", _flip_last_data_byte
    yield "format-foreign", _member_fault(lambda h, m: h.update(format="something-else"))
    yield "version-next", _member_fault(lambda h, m: h.update(version=h["version"] + 1))
    yield "version-previous", _member_fault(lambda h, m: h.update(version=h["version"] - 1))


def artifact_faults(ptr: str, ordinals: str, scores: str | None = None, keys: str | None = None):
    """(name, fault) pairs for an artifact whose CSR parts are the members named; a fault edits the file."""
    yield from _file_faults()
    yield f"{ptr}-float", _member_fault(lambda h, m: m.update({ptr: m[ptr].astype(np.float64)}))
    yield f"{ordinals}-2d", _member_fault(lambda h, m: m.update({ordinals: m[ordinals].reshape(1, -1)}))
    yield f"{ordinals}-missing", _member_fault(lambda h, m: m.pop(ordinals))
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


def value_faults(values: str):
    """(name, fault) pairs for an artifact of one float64 per row, the member named; a fault edits the file."""
    yield from _file_faults()
    yield f"{values}-short", _member_fault(lambda h, m: m.update({values: m[values][:-1]}))
    yield f"{values}-long", _member_fault(lambda h, m: m.update({values: np.append(m[values], 1.0)}))
    yield f"{values}-infinite", _member_fault(_set(values, 0, np.inf))
    yield f"{values}-negative-infinite", _member_fault(_set(values, -1, -np.inf))
    yield f"{values}-float32", _member_fault(lambda h, m: m.update({values: m[values].astype(np.float32)}))
    yield f"{values}-2d", _member_fault(lambda h, m: m.update({values: m[values].reshape(1, -1)}))
    yield f"{values}-missing", _member_fault(lambda h, m: m.pop(values))


def index_faults():
    """(name, fault) pairs for an index artifact: those of its postings as CSR parts, then of what spans members."""
    yield from artifact_faults("col_ptr", "col_ordinals")
    yield "col_tfs-zero", _member_fault(_set("col_tfs", 0, 0))
    yield "lengths-short", _member_fault(lambda h, m: m.update(lengths=m["lengths"][:-1]))
    yield "lengths-negative", _member_fault(lambda h, m: _set("lengths", [0, 1], m["lengths"][[0, 1]] + [-1000, 1000])(h, m))
    yield "cf-disagreeing", _member_fault(lambda h, m: _set("cf", 0, m["cf"][0] + 1)(h, m))
    yield "id_rank-out-of-id-order", _member_fault(lambda h, m: _set("id_rank", [0, 1], m["id_rank"][[1, 0]])(h, m))
    yield "id_rank-repeated", _member_fault(lambda h, m: _set("id_rank", 0, m["id_rank"][1])(h, m))


INDEX_FAULTS = dict(index_faults())
STORE_FAULTS = dict(artifact_faults("ptr", "ordinals", "scores", "keys"))
PHI_FAULTS = dict(value_faults("phi"))


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
        assert not (pristine["root"] / "x").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: not a qvqpp.inverted_index artifact (" in err, err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["internal_runs", "pseudo_query_hits"])
    @pytest.mark.parametrize("name", sorted(STORE_FAULTS))
    def test_faulty_store_is_rewritten(self, pristine, caplog, monkeypatch, kind, name):
        _check_rewritten(pristine, caplog, monkeypatch, kind, STORE_FAULTS[name])

    @pytest.mark.parametrize("name", sorted(PHI_FAULTS))
    def test_faulty_phi_store_is_rewritten(self, pristine, caplog, monkeypatch, name):
        _check_rewritten(pristine, caplog, monkeypatch, "variant_phi", PHI_FAULTS[name])

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

    def test_forgotten_phi_value_is_evaluated_again(self, pristine, caplog):
        # NaN marks a value not yet known: the store is adopted, the value evaluated again and the store rewritten
        path = store_paths(pristine)["variant_phi"]
        path.write_bytes(pristine["bytes"][path])
        _member_fault(_set("phi", lambda m: np.flatnonzero(~np.isnan(m["phi"]))[0], np.nan))(path)
        caplog.clear()
        assert run(pristine, "predict") == NQC_PREDICTIONS_GOLDEN
        line = store_lines(caplog)["variant_phi"]
        adopted = int(line.split("adopted ")[1].split()[0])
        assert f"filled 1 rows, wrote {adopted + 1} rows" in line, line
        assert path.read_bytes() == pristine["bytes"][path]

    def test_unfaulted_store_loads(self, pristine):
        res, stores = cli._load_resources(cli.load_config(pristine["config"]))
        assert [store.key["kind"] for store in stores] == KINDS
        for store in stores:
            assert store.adopted > 0 and not store.refused
            stored = read_store(store.path, store.key, store.kind.layout, *store.bounds)
            if isinstance(stored, StoredRuns):
                assert len(stored.keys) == store.adopted and stored.ptr[-1] == len(stored.ordinals)
            else:
                assert np.count_nonzero(~np.isnan(stored)) == store.adopted and not np.isinf(stored).any()
                assert stored.shape == (res.query_index.size,)


def _check_rewritten(ws: dict, caplog, monkeypatch, kind: str, fault) -> None:
    """A store of ``kind`` that ``fault`` broke is refused as malformed, never unpickled, and rewritten to its bytes
    by a predict that writes the golden output."""
    path = store_paths(ws)[kind]
    path.write_bytes(ws["bytes"][path])
    monkeypatch.setattr(pickle, "load", _never_unpickle)
    monkeypatch.setattr(pickle, "loads", _never_unpickle)
    fault(path)
    assert path.read_bytes() != ws["bytes"][path]
    caplog.clear()
    assert run(ws, "predict") == NQC_PREDICTIONS_GOLDEN
    line = store_lines(caplog)[kind]
    assert ": not adopted: malformed (" in line and ", wrote " in line, line
    assert path.read_bytes() == ws["bytes"][path]


class _Touch:
    """Unpickling this object creates ``path``: a stand-in for a payload that runs code."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))
