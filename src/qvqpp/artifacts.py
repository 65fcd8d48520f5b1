"""The artifact layer: the archive format, and the run stores beside the index and their kinds.

An artifact is an .npz archive: one .npy member per name, the first one
"header", a JSON object that names the artifact's format and version. JSON
values (the header, and the index's two string lists) are stored as their
ASCII bytes in uint8 arrays, so a string costs its own length, not the
longest one's. Both the index (:func:`qvqpp.text_index.save_index`) and the
run stores are artifacts. This module imports no pipeline layer.

A run store keeps results that depend only on the training set, one
:class:`StoreKind` per file: the training queries' internal BM25 runs, the
training queries that judged documents' pseudo-queries retrieve (with 2-hop
expansion on), and each training query's base prediction over its internal
run once it has been kept as a variant (NaN where not yet known; the key
names the predictors' version, which changes with their arithmetic). A
store's file name holds its kind and key (or, were that name too long for a
file system, the kind and a digest of the key); its header also records
both indexes' fingerprints. ``qv``, ``predict``, ``tune`` and ``sweep``
adopt each store of their config (``qv`` has no base predictions) whose
header matches and whose every check passes, so later commands skip that
BM25 and predictor work, and rewrite a store after their own output when
they computed rows it lacked; a target's own run is never stored. ``index``
writes no store; after writing the indexes it deletes every store whose
header names other index fingerprints or cannot be read, reading only the
headers, and every temporary file a killed store write left. A stale or
malformed store is ignored and rewritten, a store that cannot be written is
a warning, and outputs never depend on a store, so deleting stores is
always safe.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

logger = logging.getLogger(__name__)

# Bumped whenever the arithmetic of a stored run changes, so no store written before is adopted.
RUNS_FORMAT = "qvqpp.run_store"
RUNS_VERSION = 1
RUN_STORE_SUFFIX = ".runs"
# The longest store name whose temporary file (".NAME.PID.tmp", a pid of up to 7 digits) still fits the 255-byte
# file-name limit of common file systems; a store whose spelled-out key is longer is named by the key's digest.
RUN_STORE_NAME_LIMIT = 242

# Zip member time; a fixed one makes equal contents give equal bytes.
_MEMBER_TIME = (1980, 1, 1, 0, 0, 0)
# What reading a truncated, corrupt or foreign zip or .npy member raises.
_READ_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, KeyError, ValueError,
                NotImplementedError, RuntimeError, MemoryError, RecursionError)

# A member's schema entry: its dtype, its number of dimensions and a check that returns the member's value
# (or raises ValueError naming the flaw); a check of None keeps the array itself.
MemberSpec = tuple[type, int, Optional[Callable[[np.ndarray], object]]]


class StaleArtifactError(ValueError):
    """A well-formed artifact whose header names other inputs or parameters than the reader's."""


def _json_array(value) -> np.ndarray:
    return np.frombuffer(json.dumps(value).encode("ascii"), dtype=np.uint8)


def _json_value(array: np.ndarray):
    return json.loads(array.tobytes())


def _segment_pairs(ptr: np.ndarray, count: int) -> np.ndarray:
    """Whether entries i and i + 1 of a CSR array of ``count`` entries lie in one segment, for every i."""
    same = np.ones(max(count - 1, 0), dtype=bool)
    starts = ptr[1:-1]
    same[starts[(starts > 0) & (starts < count)] - 1] = False
    return same


def write_artifact(path, header: dict, members: Mapping[str, np.ndarray]) -> None:
    """Write ``header`` and ``members`` as one archive at ``path``.

    The archive is written through an open handle, so it keeps ``path``
    exactly (``np.savez`` would append ``.npz``), and its member times are
    fixed, so equal contents give equal bytes.
    """
    with open(path, "wb") as handle, zipfile.ZipFile(handle, "w") as archive:
        for name, array in {"header": _json_array(header), **members}.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy", _MEMBER_TIME), "w", force_zip64=True) as member:
                # np.lib.format.write_array's bytes, without its copy of the array's data
                np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(array))
                member.write(np.ascontiguousarray(array).data)


def read_artifact(path, fmt: str, version: int, schema: Mapping[str, MemberSpec], assemble,
                  *, key: Mapping | None = None, hint: str = ""):
    """Read an archive written by :func:`write_artifact` and return ``assemble(header, values)``.

    The header must name ``fmt`` and ``version`` (``hint`` follows a
    version mismatch), then hold every field of ``key`` with the same value,
    or the artifact is stale (:class:`StaleArtifactError`). Each member of
    ``schema`` must then have its dtype and dimensions and pass its check,
    in schema order; ``values`` maps each to the check's result.
    ``assemble`` checks what spans members. Any flaw is a ValueError
    ``"{path}: not a {fmt} artifact ({flaw})"``. Nothing in the file can
    run code: numpy's .npy reader refuses object arrays unless told
    otherwise, and every member is checked before use.
    """
    try:
        with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
            def member(name: str, dtype, ndim: int) -> np.ndarray:
                array = np.lib.format.read_array(archive.open(f"{name}.npy"))
                if array.dtype != dtype or array.ndim != ndim:
                    raise ValueError(f"{name} is not a {ndim}-d {np.dtype(dtype).name} array")
                return array

            header = _json_value(member("header", np.uint8, 1))
            if not isinstance(header, dict) or header.get("format") != fmt:
                raise ValueError("no format header")
            if header.get("version") != version:
                raise ValueError(f"version {header.get('version')!r}, not {version}{hint}")
            for field_name, value in (key or {}).items():
                if header.get(field_name) != value:
                    raise StaleArtifactError(f"{field_name} differs")
            values = {}
            for name, (dtype, ndim, check) in schema.items():
                array = member(name, dtype, ndim)
                values[name] = array if check is None else check(array)
            return assemble(header, values)
    except StaleArtifactError:
        raise
    except _READ_ERRORS as exc:
        raise ValueError(f"{path}: not a {fmt} artifact ({exc})") from None


@dataclass(frozen=True)
class StoredRuns:
    """Ordinal runs of some rows, in CSR form: run i, of row ``keys[i]``, is ``ordinals[ptr[i]:ptr[i + 1]]``.

    ``keys`` (int64) ascend; each run's ordinals (int32) come best first
    with their float64 ``scores``.
    """

    keys: np.ndarray
    ptr: np.ndarray
    ordinals: np.ndarray
    scores: np.ndarray

    @classmethod
    def of(cls, runs: Mapping[int, tuple[np.ndarray, np.ndarray]]) -> "StoredRuns":
        """The runs that ``runs`` maps rows to, by ascending row."""
        keys = sorted(runs)
        ptr = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum([len(runs[key][0]) for key in keys], out=ptr[1:])
        return cls(
            np.asarray(keys, dtype=np.int64), ptr,
            np.concatenate([np.zeros(0, dtype=np.int32), *(runs[key][0] for key in keys)]),
            np.concatenate([np.zeros(0), *(runs[key][1] for key in keys)]),
        )

    def by_row(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Each row's run, as views of the members."""
        bounds = self.ptr.tolist()
        return {
            key: (self.ordinals[bounds[i]:bounds[i + 1]], self.scores[bounds[i]:bounds[i + 1]])
            for i, key in enumerate(self.keys.tolist())
        }


def _in_range(bound: int, what: str) -> Callable[[np.ndarray], np.ndarray]:
    """A member check: every entry lies in [0, ``bound``)."""
    def check(array: np.ndarray) -> np.ndarray:
        if len(array) and (array.min() < 0 or array.max() >= bound):
            raise ValueError(f"a {what} is outside [0, {bound})")
        return array
    return check


def runs_layout(rows: int, items: int, width: int):
    """The members and check of a :class:`StoredRuns` within bounds; a layout, as :func:`read_store` takes.

    The keys must be distinct rows in [0, ``rows``) in ascending order, and
    ``ptr`` a monotone offset per key ending at the member length. Every run
    is at most ``width`` long and holds distinct ordinals in [0, ``items``)
    with finite scores above 0 that never increase along the run.
    """
    def assemble(header: dict, values: dict) -> StoredRuns:
        runs = StoredRuns(**values)
        keys, ptr, ordinals, scores = runs.keys, runs.ptr, runs.ordinals, runs.scores
        if np.any(np.diff(keys) <= 0):
            raise ValueError("keys are not ascending and distinct")
        if len(ptr) != len(keys) + 1 or ptr[0] != 0 or np.any(np.diff(ptr) < 0):
            raise ValueError("ptr is not a monotone offset per key")
        if ptr[-1] != len(ordinals) or len(scores) != len(ordinals):
            raise ValueError("ptr, ordinals and scores disagree in length")
        if np.any(np.diff(ptr) > width):
            raise ValueError(f"a run is longer than {width}")
        if not np.all(np.isfinite(scores) & (scores > 0.0)):
            raise ValueError("a score is not finite and above 0")
        within = _segment_pairs(ptr, len(ordinals))
        if np.any((np.diff(scores) > 0.0) & within):
            raise ValueError("a run's scores increase")
        run_of = np.repeat(np.arange(len(keys), dtype=np.int64), np.diff(ptr))
        pairs = np.sort(run_of * items + ordinals)
        if np.any(pairs[1:] == pairs[:-1]):
            raise ValueError("an ordinal repeats within a run")
        return runs

    schema = {
        "keys": (np.int64, 1, _in_range(rows, "key")),
        "ptr": (np.int64, 1, None),
        "ordinals": (np.int32, 1, _in_range(items, "ordinal")),
        "scores": (np.float64, 1, None),
    }
    return schema, assemble


def phi_layout(rows: int, items: int, width: int):
    """The layout of one ``phi`` array of ``rows`` float64 values, each finite or NaN (not yet known)."""
    def check(phi: np.ndarray) -> np.ndarray:
        if len(phi) != rows:
            raise ValueError(f"phi holds {len(phi)} values, not {rows}")
        if np.any(np.isinf(phi)):
            raise ValueError("a value is infinite")
        return phi

    return {"phi": (np.float64, 1, check)}, lambda header, values: values["phi"]


def read_store(path, key: Mapping, layout=None, rows: int = 0, items: int = 0, width: int = 0):
    """Read the run store at ``path`` written under ``key``; a ValueError names the first failed check.

    A header that differs from ``key`` in any field is a :class:`StaleArtifactError`. Without ``layout`` only the
    header is read, never the rows, and the result is None; else what ``layout(rows, items, width)`` reads and checks.
    """
    schema, assemble = layout(rows, items, width) if layout else ({}, lambda header, values: None)
    return read_artifact(path, RUNS_FORMAT, RUNS_VERSION, schema, assemble, key=key)


@dataclass(frozen=True)
class StoreKind:
    """One kind of run store: its name, the config keys its name and key spell out, in order (one ending in ``.``
    stands for every key of that section), the fields its key adds, its layout and its bounds: its rows are the
    ordinals of index ``rows``, and a run holds ordinals of index ``items`` and is at most config key ``width`` long.
    """

    name: str
    params: tuple[str, ...]
    layout: Callable
    rows: str
    items: str = ""
    width: str = ""
    extra: tuple[str, ...] = ()


INTERNAL_RUNS = StoreKind("internal_runs", ("bm25.", "qpp.internal_depth"), runs_layout,
                          "query_index", "doc_index", "qpp.internal_depth")
PSEUDO_QUERY_HITS = StoreKind("pseudo_query_hits", ("bm25.", "qpp.pseudo_query_m", "qpp.n"), runs_layout,
                              "doc_index", "query_index", "qpp.n")
VARIANT_PHI = StoreKind("variant_phi", ("qpp.base", "qpp.internal_depth", "predictor.", "bm25.", "seed", "qpp.rbo_p",
                                        "qpp.rbo_depth"), phi_layout, "query_index", extra=("predictor_version",))


@dataclass
class RunStore:
    """One run store in an index directory: its path, key and bounds, the memo it fills and what became of it.

    The memo (a run table, hit map or phi table) adopts what the store reads, and has ``filled`` and ``members()``.
    """

    kind: StoreKind
    path: Path
    key: dict
    bounds: tuple[int, int, int]  # rows, items, width
    memo: object
    adopted: int = 0
    refused: str = ""  # why the store was not adopted

    @classmethod
    def open(cls, kind: StoreKind, memo, index_dir: Path, values: Mapping, doc_index, query_index) -> RunStore:
        """The store of ``kind`` over both indexes, loaded; ``values`` has every dotted config key and extra field."""
        params = {}
        for param in kind.params:
            params.update((key, value) for key, value in values.items()
                          if key == param or param.endswith(".") and key.startswith(param))
        name = "-".join([kind.name, *(f"{key}={value!r}" for key, value in params.items())]) + RUN_STORE_SUFFIX
        if len(name.encode()) > RUN_STORE_NAME_LIMIT:
            name = f"{kind.name}-{hashlib.sha256(name.encode()).hexdigest()[:16]}{RUN_STORE_SUFFIX}"
        key = {"kind": kind.name, **params, **{field: values[field] for field in kind.extra},
               **_index_key(doc_index, query_index)}
        sizes = {"doc_index": doc_index.size, "query_index": query_index.size}
        items = sizes[kind.items] if kind.items else 0
        width = min(values[kind.width], items) if kind.width else 0
        store = cls(kind, index_dir / name, key, (sizes[kind.rows], items, width), memo)
        store.load()
        return store

    def load(self) -> None:
        """Adopt the store into its memo if its header matches and every check passes; else note why not."""
        try:
            stored = read_store(self.path, self.key, self.kind.layout, *self.bounds)
        except FileNotFoundError:
            self.refused = "absent"
        except StaleArtifactError as exc:
            self.refused = f"stale key ({exc})"
        except ValueError as exc:
            self.refused = f"malformed ({exc})"
        except OSError as exc:
            self.refused = f"unreadable ({exc})"
        else:
            self.memo.adopt(stored)
            self.adopted = self.memo.filled

    def save(self) -> None:
        """Rewrite the store when its memo gained rows; an OSError is one warning, not a failure.

        The store is written whole and atomically, its header holding the key
        after the format and version: to a temporary file beside it, which then
        replaces it, so a failed write leaves the store as it was and no
        temporary file behind. (An index is written in place: replacing both
        index files by rename made ``index`` at scale S about 20 ms slower, and
        ``index`` is rerun by hand when it fails.)
        """
        total = self.memo.filled
        if total == self.adopted:
            written = "not written: no new rows"
        else:
            temporary = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
            try:
                header = {"format": RUNS_FORMAT, "version": RUNS_VERSION, **self.key}
                write_artifact(temporary, header, self.memo.members())
                os.replace(temporary, self.path)
                written = f"wrote {total} rows"
            except OSError as exc:
                logger.warning("could not write run store %s: %s", self.path, exc)
                written = f"not written: {exc}"
            finally:
                temporary.unlink(missing_ok=True)
        adopted = f"not adopted: {self.refused}" if self.refused else f"adopted {self.adopted} rows"
        logger.info("run store %s: %s, filled %d rows, %s", self.path.name, adopted, total - self.adopted, written)


def _index_key(doc_index, query_index) -> dict:
    """The part of every run store's key that names both indexes, by the names a kind's ``rows`` and ``items`` use."""
    return {"doc_index": doc_index.fingerprint, "query_index": query_index.fingerprint}


def prune_run_stores(index_dir: Path, doc_index, query_index) -> None:
    """Delete the run stores in ``index_dir`` not keyed to these indexes, and stray temporary files.

    A store whose header names other fingerprints, or cannot be read, is
    deleted, as is every temporary file a killed store write left. Only
    each store's header is read.
    """
    key = _index_key(doc_index, query_index)
    doomed = []
    for path in sorted(index_dir.glob(f"*{RUN_STORE_SUFFIX}")):
        try:
            read_store(path, key)
        except StaleArtifactError as exc:
            doomed.append((path, f"stale key ({exc})"))
        except (ValueError, OSError) as exc:
            doomed.append((path, f"malformed ({exc})"))
    doomed += [(path, "temporary file") for path in sorted(index_dir.glob(f".*{RUN_STORE_SUFFIX}.*.tmp"))]
    for path, why in doomed:
        try:
            path.unlink()
        except OSError as exc:
            logger.warning("could not remove %s: %s", path, exc)
        else:
            logger.info("removed %s: %s", path.name, why)
