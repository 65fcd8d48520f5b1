"""Command-line pipeline: index, qv, predict, evaluate, tune, sweep.

All commands read one YAML configuration file plus optional
``--set dotted.key=value`` overrides. Every run with the same
configuration and seed produces byte-identical output files. Exit code
is 0 on success and 1 on any validation or processing error; validation
runs before any output file is touched. A key outside the list below is
an error, so a misspelt key cannot fall back to its default unnoticed.
Integer keys take integers (a float only when it is whole, as ``3.0``),
number keys never take a boolean or a string (``"3"`` is refused), list
keys take a YAML list only (``evaluation.fold_a`` also a file path), and
boolean keys take ``true``/``false`` only. A null key takes its default.
With ``qpp.base: uef``, ``predictor.uef_sample_size`` may not exceed
max(``predictor.top_k``, 50), the most documents a UEF subset is drawn
from; the config is refused before anything is loaded.

``paths.index_dir`` holds the two indexes that ``index`` writes
(``documents.idx`` and ``queries.idx``) and the run stores (``*.runs``).
A run store keeps results that depend only on the training set, one kind
per file:

- ``internal_runs-*.runs``: the training queries' internal BM25 runs,
  keyed by ``bm25.k1``, ``bm25.b`` and ``qpp.internal_depth``;
- ``pseudo_query_hits-*.runs``, with 2-hop expansion on: the training
  queries that judged documents' pseudo-queries retrieve, keyed by
  ``bm25.k1``, ``bm25.b``, ``qpp.pseudo_query_m`` and ``qpp.n``;
- ``variant_phi-*.runs``: the base prediction of each training query
  kept as a variant, over its internal run, keyed by ``qpp.base``,
  ``qpp.internal_depth``, every ``predictor.*`` and ``bm25.*`` value,
  ``seed``, ``qpp.rbo_p`` and ``qpp.rbo_depth``, and by the predictors'
  version, which changes whenever their arithmetic does.

A store's file name holds its kind and key (or, were that name too long
for a file system, the kind and a digest of the key); its header also
records both indexes' fingerprints. ``qv``, ``predict``, ``tune`` and ``sweep`` adopt
each store of their config (``qv`` has no base predictions) whose header
matches and whose every check passes, so later commands skip that BM25
and predictor work; after writing their own output they rewrite a store,
whole and atomically, when they computed rows it lacked. A target's own
run is never stored. ``index`` writes no store; after writing the indexes it
deletes every store whose header names other index fingerprints or cannot
be read, reading only the headers, and every temporary file a killed store
write left. A stale or malformed store is ignored and rewritten, a store
that cannot be written is a warning, and outputs never depend on a store,
so deleting stores is always safe; ``-v`` logs what became of each, and
how many base predictions were evaluated and how many read from a store's
table.

Each command loads only the layers it runs. Importing this module loads
``qvqpp.config``, ``corpus_io`` and ``text_index``; beyond those,

- ``index`` loads nothing more;
- ``evaluate`` loads ``evaluation``;
- ``qv`` and ``predict`` load ``variants``, ``predictors`` and ``rank_sim``;
- ``tune`` and ``sweep`` load those three and ``evaluation``;
- ``dense_index`` is loaded only with ``qpp.query_retriever: dense``.

Configuration keys, with defaults (``demos/07_cli_workflow.py`` writes a
working example):

- ``seed`` (0)
- ``paths``: ``collection``, ``train_queries``, ``train_qrels``,
  ``test_queries``, ``test_qrels``, ``target_run``, ``index_dir`` and
  ``output_dir`` are required; ``embeddings`` (null) only for the dense
  query retriever. Relative paths resolve against the config file's
  directory.
- ``qpp``: ``lambda`` (0.5), ``k`` (1), ``n`` (100), ``query_retriever``
  (bm25 | dense), ``use_2hop`` (true), ``pseudo_query_m`` (20), ``rbo_p``
  (0.9), ``rbo_depth`` (100), ``base`` (nqc | uef), ``internal_depth``
  (100), ``run_depth`` (100)
- ``predictor``: ``top_k`` (100), ``uef_samples`` (20),
  ``uef_sample_size`` (25), ``mu`` (1000.0)
- ``bm25``: ``k1`` (0.9), ``b`` (0.4)
- ``evaluation``: ``target_metric`` (ap@100 | ndcg@10), ``fold_a`` ([]; a
  list of query ids or the path of a file with one id per line),
  ``lambdas`` ([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
  ``ks`` ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import yaml

from .corpus_io import (
    Query,
    RankedList,
    open_utf8,
    parse_collection,
    parse_qrels,
    parse_queries,
    parse_run,
    parse_score_tsv,
    write_score_tsv,
)
from .config import UEF_POOL_FLOOR, PredictorParams, QppConfig, RboParams
from .text_index import (
    InvertedIndex, StaleArtifactError, StoredRuns, StoredValues, build_index, check_runs_header, file_sha256,
    load_index, load_runs, load_values, save_index, save_runs,
)

if TYPE_CHECKING:
    from .variants import PipelineResources

logger = logging.getLogger(__name__)

AP_REL_THRESHOLD = 2
TARGET_METRICS = ("ap@100", "ndcg@10")

DOC_INDEX_FILE = "documents.idx"
QUERY_INDEX_FILE = "queries.idx"
RUN_STORE_SUFFIX = ".runs"
# The longest store name whose temporary file (".NAME.PID.tmp", a pid of up to 7 digits) still fits the 255-byte
# file-name limit of common file systems; a store whose spelled-out key is longer is named by the key's digest.
RUN_STORE_NAME_LIMIT = 242

REQUIRED_PATHS = ("collection", "train_queries", "train_qrels", "test_queries", "test_qrels", "target_run",
                  "index_dir", "output_dir")


@dataclass
class PipelineConfig:
    collection: Path
    train_queries: Path
    train_qrels: Path
    test_queries: Path
    test_qrels: Path
    target_run: Path
    index_dir: Path
    output_dir: Path
    embeddings: Path | None = None
    seed: int = 0
    qpp: QppConfig = field(default_factory=QppConfig)
    predictor: PredictorParams = field(default_factory=PredictorParams)
    target_metric: str = TARGET_METRICS[0]
    fold_a: list[str] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=lambda: [round(i / 10, 1) for i in range(11)])
    ks: list[int] = field(default_factory=lambda: list(range(1, 11)))
    run_depth: int = 100

    def __post_init__(self) -> None:
        if self.target_metric not in TARGET_METRICS:
            raise ValueError(f"target_metric must be one of {TARGET_METRICS}, got {self.target_metric!r}")
        if self.run_depth < 1:
            raise ValueError(f"qpp.run_depth must be >= 1, got {self.run_depth}")


# Every config key, dotted: (owner, field, kind). The owner dataclass holds the key's default;
# a kind in brackets is a list of that kind, and a Path is a string resolved against the config's directory.
CONFIG_SCHEMA = {
    "seed": (PipelineConfig, "seed", int),
    **{f"paths.{name}": (PipelineConfig, name, Path) for name in (*REQUIRED_PATHS, "embeddings")},
    "qpp.lambda": (QppConfig, "lam", float),
    "qpp.k": (QppConfig, "k", int),
    "qpp.n": (QppConfig, "n", int),
    "qpp.query_retriever": (QppConfig, "query_retriever", str),
    "qpp.use_2hop": (QppConfig, "use_2hop", bool),
    "qpp.pseudo_query_m": (QppConfig, "pseudo_query_m", int),
    "qpp.rbo_p": (RboParams, "p", float),
    "qpp.rbo_depth": (RboParams, "eval_depth", int),
    "qpp.base": (QppConfig, "base", str),
    "qpp.internal_depth": (QppConfig, "internal_depth", int),
    "qpp.run_depth": (PipelineConfig, "run_depth", int),
    "predictor.top_k": (PredictorParams, "top_k", int),
    "predictor.uef_samples": (PredictorParams, "uef_samples", int),
    "predictor.uef_sample_size": (PredictorParams, "uef_sample_size", int),
    "predictor.mu": (PredictorParams, "mu", float),
    "bm25.k1": (PredictorParams, "k1", float),
    "bm25.b": (PredictorParams, "b", float),
    "evaluation.target_metric": (PipelineConfig, "target_metric", str),
    "evaluation.fold_a": (PipelineConfig, "fold_a", [str]),
    "evaluation.lambdas": (PipelineConfig, "lambdas", [float]),
    "evaluation.ks": (PipelineConfig, "ks", [int]),
}
SECTIONS = {dotted.split(".")[0] for dotted in CONFIG_SCHEMA if "." in dotted}


def _yaml(text, where: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"{where}: malformed YAML: {' '.join(str(exc).split())}") from None


def _as(kind, value):
    """``kind(value)``, except that a number key refuses a boolean or a string and an int key a fractional float."""
    if kind in (int, float) and isinstance(value, (bool, str)):
        raise TypeError(value)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return kind(value)


def _coerce(dotted: str, kind, value, base_dir: Path):
    """The non-null ``value`` of config key ``dotted`` as its ``kind``."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{dotted} must be true or false")
        return value
    if kind is Path:
        if not isinstance(value, str):
            raise ValueError(f"{dotted}: expected str, got {value!r}")
        return (base_dir / value).resolve() if not Path(value).is_absolute() else Path(value)
    if kind == [str] and isinstance(value, str):  # the path of a file with one item per line
        list_path = base_dir / value
        try:
            if not list_path.exists():
                raise ValueError(f"{dotted.rsplit('.', 1)[-1]} file {list_path} does not exist")
            with open_utf8(list_path) as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise ValueError(str(exc)) from None
        return [line.strip() for line in lines if line.strip()]
    many = isinstance(kind, list)
    item = kind[0] if many else kind
    try:
        if many and not isinstance(value, list):  # a string or a mapping would iterate as its items
            raise TypeError(value)
        return [_as(item, v) for v in value] if many else _as(item, value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{dotted}: expected {'a list of ' if many else ''}{item.__name__}, got {value!r}") from None


def load_config(path, overrides: Sequence[str] = ()) -> PipelineConfig:
    """Parse the YAML config and apply ``dotted.key=value`` overrides; a null or absent key takes its default."""
    with open_utf8(path) as handle:
        raw = _yaml(handle, str(path)) or {}
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config root must be a mapping")
    for override in overrides:
        if "=" not in override:
            raise ValueError(f"override {override!r} must look like dotted.key=value")
        dotted, value_text = override.split("=", 1)
        keys = dotted.split(".")
        node = raw
        for key in keys[:-1]:
            if node.get(key) is None:  # a missing or null section becomes a new mapping
                node[key] = {}
            node = node[key]
            if not isinstance(node, dict):
                raise ValueError(f"override {dotted!r} does not address a mapping")
        node[keys[-1]] = _yaml(value_text, f"override {dotted!r}")

    given = {}  # dotted key -> value, in file order
    for name, value in raw.items():
        if name in SECTIONS:
            if value is not None and not isinstance(value, dict):
                raise ValueError(f"config section {name!r} must be a mapping, got {value!r}")
            given.update((f"{name}.{key}", item) for key, item in (value or {}).items())
        elif name in CONFIG_SCHEMA and "." not in name:  # a top-level 'qpp.lambda' is no key
            given[name] = value
        else:
            raise ValueError(f"unknown config key '{name}'")
    for dotted in given:
        if dotted not in CONFIG_SCHEMA:
            raise ValueError(f"unknown config key '{dotted}'")

    base_dir = Path(path).parent
    values = {owner: {} for owner, _, _ in CONFIG_SCHEMA.values()}  # owner -> {field: value given}
    for dotted, value in given.items():
        if value is not None:
            owner, name, kind = CONFIG_SCHEMA[dotted]
            values[owner][name] = _coerce(dotted, kind, value, base_dir)
    for name in REQUIRED_PATHS:
        if name not in values[PipelineConfig]:
            raise ValueError(f"config is missing paths.{name}")
    try:
        rbo = RboParams(**values[RboParams])
    except ValueError as exc:  # the message starts with the field name; the user wrote the config key
        name, rest = str(exc).split(" ", 1)
        keys = {field_name: dotted for dotted, (owner, field_name, _) in CONFIG_SCHEMA.items() if owner is RboParams}
        raise ValueError(f"{keys[name]} {rest}") from None
    cfg = PipelineConfig(
        qpp=QppConfig(rbo_params=rbo, **values[QppConfig]),
        predictor=PredictorParams(**values[PredictorParams]),
        **values[PipelineConfig],
    )
    pool = max(cfg.predictor.top_k, UEF_POOL_FLOOR)
    if cfg.qpp.base == "uef" and cfg.predictor.uef_sample_size > pool:
        raise ValueError(
            f"predictor.uef_sample_size {cfg.predictor.uef_sample_size} exceeds max(predictor.top_k, "
            f"{UEF_POOL_FLOOR}) = {pool}, the most documents a UEF subset is drawn from"
        )
    return cfg


def _require_files(*paths: Path | None) -> None:
    missing = [str(p) for p in paths if p is not None and not p.exists()]
    if missing:
        raise ValueError("missing input file(s): " + ", ".join(missing))


@dataclass
class _RunStore:
    """One run store in ``index_dir``: its key, the memo it fills and what became of it in this command."""

    path: Path
    key: dict
    read: Callable[[Path, dict], StoredRuns | StoredValues]  # load_runs or load_values, with the memo's bounds
    adopt: Callable[[StoredRuns | StoredValues], None]
    count: Callable[[], int]  # rows in the memo now
    stored: Callable[[], StoredRuns | StoredValues]
    adopted: int = 0
    refused: str = ""  # why the store was not adopted

    def load(self) -> None:
        """Adopt the store into its memo if its header matches and every check passes; else note why not."""
        try:
            runs = self.read(self.path, self.key)
        except FileNotFoundError:
            self.refused = "absent"
        except StaleArtifactError as exc:
            self.refused = f"stale key ({exc})"
        except ValueError as exc:
            self.refused = f"malformed ({exc})"
        except OSError as exc:
            self.refused = f"unreadable ({exc})"
        else:
            self.adopt(runs)
            self.adopted = len(runs)

    def save(self) -> None:
        """Rewrite the store whole when its memo gained rows; an OSError is one warning, not a failure."""
        total = self.count()
        if total == self.adopted:
            written = "not written: no new rows"
        else:
            try:
                save_runs(self.stored(), self.path, self.key)
                written = f"wrote {total} rows"
            except OSError as exc:
                logger.warning("could not write run store %s: %s", self.path, exc)
                written = f"not written: {exc}"
        adopted = f"not adopted: {self.refused}" if self.refused else f"adopted {self.adopted} rows"
        logger.info("run store %s: %s, filled %d rows, %s", self.path.name, adopted, total - self.adopted, written)


def _index_key(doc_index: InvertedIndex, query_index: InvertedIndex) -> dict:
    """The part of every run store's key that names both indexes."""
    return {"doc_index": doc_index.fingerprint, "query_index": query_index.fingerprint}


def _prune_run_stores(index_dir: Path, key: dict) -> None:
    """Delete the run stores in ``index_dir`` not keyed to the indexes that ``key`` names, and stray temporary files.

    A store whose header names other fingerprints, or cannot be read, is
    deleted, as is every temporary file a killed store write left. Only
    each store's header is read.
    """
    doomed = []
    for path in sorted(index_dir.glob(f"*{RUN_STORE_SUFFIX}")):
        try:
            check_runs_header(path, key)
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


def _config_values(owner: type, obj) -> dict:
    """The config keys that ``owner`` holds, each with its value in ``obj``, in schema order."""
    return {dotted: getattr(obj, name) for dotted, (key_owner, name, _) in CONFIG_SCHEMA.items() if key_owner is owner}


def _run_stores(cfg: PipelineConfig, res: PipelineResources, phi: bool) -> list[_RunStore]:
    """The run stores of ``cfg``: the internal runs, the pseudo-query hits when 2-hop expansion is on, and
    the variants' base predictions when ``phi``.

    A store's file name holds its kind and parameters (a digest of them
    when spelled out they would make too long a file name); its key adds
    the fingerprints of both indexes, and the phi store's the predictors'
    version.
    """
    from .predictors import PREDICTOR_VERSION

    bm25 = {"bm25.k1": res.params.k1, "bm25.b": res.params.b}
    indexes = _index_key(res.doc_index, res.query_index)

    def run_store(kind: str, params: dict, *memo, **fixed) -> _RunStore:
        name = "-".join([kind, *(f"{key}={value!r}" for key, value in params.items())]) + RUN_STORE_SUFFIX
        if len(name.encode()) > RUN_STORE_NAME_LIMIT:
            name = f"{kind}-{hashlib.sha256(name.encode()).hexdigest()[:16]}{RUN_STORE_SUFFIX}"
        return _RunStore(cfg.index_dir / name, {"kind": kind, **params, **fixed, **indexes}, *memo)

    depth, m, n = cfg.qpp.internal_depth, cfg.qpp.pseudo_query_m, cfg.qpp.n
    table = res.run_table(depth)
    stores = [run_store(
        "internal_runs", {**bm25, "qpp.internal_depth": depth},
        partial(load_runs, rows=res.query_index.size, items=res.doc_index.size, width=table.width),
        table.adopt, lambda: table.filled, table.stored,
    )]
    if cfg.qpp.use_2hop:
        stores.append(run_store(
            "pseudo_query_hits", {**bm25, "qpp.pseudo_query_m": m, "qpp.n": n},
            partial(load_runs, rows=res.doc_index.size, items=res.query_index.size, width=min(n, res.query_index.size)),
            partial(res.adopt_pseudo_query_hits, m, n), partial(res.pseudo_query_hit_count, m, n),
            partial(res.stored_pseudo_query_hits, m, n),
        ))
    if phi:
        phi_table = res.phi_table(cfg.qpp.base, depth, cfg.qpp.rbo_params)
        params = {
            "qpp.base": cfg.qpp.base, "qpp.internal_depth": depth, **_config_values(PredictorParams, res.params),
            "seed": res.seed, **_config_values(RboParams, cfg.qpp.rbo_params),
        }
        stores.append(run_store(
            "variant_phi", params, partial(load_values, rows=res.query_index.size), phi_table.adopt,
            lambda: phi_table.filled, phi_table.stored, predictor_version=PREDICTOR_VERSION,
        ))
    return stores


def _load_resources(cfg: PipelineConfig, phi: bool = True) -> tuple[PipelineResources, list[_RunStore]]:
    """The pipeline's resources, with every run store of ``cfg`` that passes its checks adopted.

    Without ``phi`` (``qv``, which evaluates no predictor) the variants' base predictions are not loaded.
    """
    from .variants import PipelineResources

    doc_index_path = cfg.index_dir / DOC_INDEX_FILE
    query_index_path = cfg.index_dir / QUERY_INDEX_FILE
    _require_files(doc_index_path, query_index_path, cfg.collection, cfg.train_queries, cfg.train_qrels)
    embeddings = None
    if cfg.qpp.query_retriever == "dense":
        if cfg.embeddings is None:
            raise ValueError("dense query retriever configured but paths.embeddings is not set")
        _require_files(cfg.embeddings)
        from .dense_index import load_vectors

        embeddings = load_vectors(cfg.embeddings)
    training_queries = parse_queries(cfg.train_queries)
    doc_index = load_index(doc_index_path)
    query_index = load_index(query_index_path)
    # No stage reads a document's text, so the collection is parsed only when its bytes differ from the
    # indexed file's; then its items must still be the indexed ones, as for training queries that differ.
    for index, index_path, source, items in (
        (doc_index, doc_index_path, cfg.collection, lambda: parse_collection(cfg.collection)),
        (query_index, query_index_path, cfg.train_queries, lambda: training_queries),
    ):
        if not index.built_from_file(source) and not index.built_from((item.id, item.text) for item in items()):
            raise ValueError(f"{index_path}: index is stale; rerun qvqpp index (it was not built from {source})")
    res = PipelineResources(
        doc_index=doc_index,
        query_index=query_index,
        training_queries={q.id: q for q in training_queries},
        training_qrels=parse_qrels(cfg.train_qrels),
        embedding_store=embeddings,
        params=cfg.predictor,
        seed=cfg.seed,
    )
    stores = _run_stores(cfg, res, phi)
    for run_store in stores:
        run_store.load()
    return res, stores


def _save_run_stores(res: PipelineResources, stores: Sequence[_RunStore]) -> None:
    """Log the command's base-predictor work, then write each store whose memo gained rows.

    Called after the command's own outputs are written.
    """
    logger.info(
        "base predictor: %d evaluations, %d values read from a phi table", res.predictor.evaluations, res.phi_reads
    )
    for run_store in stores:
        run_store.save()


def _load_targets(cfg: PipelineConfig) -> dict[str, Query]:
    _require_files(cfg.test_queries)
    return {q.id: q for q in parse_queries(cfg.test_queries)}


def _load_target_run(cfg: PipelineConfig, min_queries: int = 0) -> tuple[dict[str, Query], dict[str, RankedList]]:
    """The target queries and their external run of at least ``min_queries`` queries, each with a text."""
    targets = _load_targets(cfg)
    _require_files(cfg.target_run)
    run_map = parse_run(cfg.target_run, depth=cfg.run_depth)
    unknown = sorted(set(run_map) - set(targets))
    if unknown:
        raise ValueError(f"run file contains queries with no text: {', '.join(unknown)}")
    if len(run_map) < min_queries:
        raise ValueError(f"{cfg.target_run}: expected at least {min_queries} run queries, got {len(run_map)}")
    return targets, run_map


def _actual_metric(cfg: PipelineConfig, run_map: Mapping[str, RankedList]) -> dict[str, float]:
    """The target metric of each run query against the test qrels."""
    from .evaluation import ap_at_k, ndcg_at_k

    _require_files(cfg.test_qrels)
    qrels = parse_qrels(cfg.test_qrels)
    values = {}
    for qid in sorted(run_map):
        if cfg.target_metric == "ap@100":
            values[qid] = ap_at_k(run_map[qid], qrels, 100, AP_REL_THRESHOLD)
        else:
            values[qid] = ndcg_at_k(run_map[qid], qrels, 10)
    return values


def cmd_index(cfg: PipelineConfig) -> int:
    """Build and persist the document index and the training-query index, then prune the run stores beside them."""
    _require_files(cfg.collection, cfg.train_queries)
    sources = (cfg.collection, cfg.train_queries)
    digests = [file_sha256(path) for path in sources]
    documents = parse_collection(cfg.collection)
    if not documents:
        raise ValueError(f"{cfg.collection}: the collection holds no documents")
    queries = parse_queries(cfg.train_queries)
    if not queries:
        raise ValueError(f"{cfg.train_queries}: the training-query file holds no queries")
    for path, digest in zip(sources, digests):  # a digest must name the bytes that were parsed
        if file_sha256(path) != digest:
            raise ValueError(f"{path} changed while it was read; rerun qvqpp index")
    cfg.index_dir.mkdir(parents=True, exist_ok=True)
    doc_index = build_index(((d.id, d.text) for d in documents), file_sha256=digests[0])
    query_index = build_index(((q.id, q.text) for q in queries), file_sha256=digests[1])
    save_index(doc_index, cfg.index_dir / DOC_INDEX_FILE)
    save_index(query_index, cfg.index_dir / QUERY_INDEX_FILE)
    _prune_run_stores(cfg.index_dir, _index_key(doc_index, query_index))
    logger.info(
        "indexed %d documents (%d terms) and %d queries (%d terms)",
        doc_index.size, len(doc_index.terms), query_index.size, len(query_index.terms),
    )
    return 0


def cmd_qv(cfg: PipelineConfig, out_path: Path | None = None) -> int:
    """Write the re-ranked variant report: qid, variant_qid, hop, rbo, variant_text."""
    from .variants import build_qv_set

    res, stores = _load_resources(cfg, phi=False)
    targets = _load_targets(cfg)
    out = out_path or cfg.output_dir / "qv_report.tsv"
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["qid\tvariant_qid\thop\trbo\tvariant_text\n"]
    for qid in sorted(targets):
        qv_set = build_qv_set(targets[qid], cfg.qpp, res)
        if not qv_set.candidates:
            print(f"note: no query variants found for {qid}", file=sys.stderr)
        for cand in qv_set.candidates:
            lines.append(f"{qid}\t{cand.query.id}\t{cand.hop}\t{cand.rbo:.6f}\t{cand.query.text}\n")
    out.write_text("".join(lines), encoding="utf-8")
    logger.info("wrote %s", out)
    _save_run_stores(res, stores)
    return 0


def cmd_predict(cfg: PipelineConfig, out_path: Path | None = None) -> int:
    """Write one smoothed prediction per query in the target run file."""
    from .variants import predict_query

    targets, run_map = _load_target_run(cfg, min_queries=1)
    res, stores = _load_resources(cfg)
    out = out_path or cfg.output_dir / "predictions.tsv"
    out.parent.mkdir(parents=True, exist_ok=True)
    predictions = {
        qid: predict_query(targets[qid], run_map[qid], cfg.qpp, res)
        for qid in sorted(run_map)
    }
    write_score_tsv(predictions, out)
    logger.info("wrote %s (%d queries)", out, len(predictions))
    _save_run_stores(res, stores)
    return 0


def cmd_evaluate(
    cfg: PipelineConfig,
    predictions_path: Path,
    baseline_path: Path | None = None,
    out_path: Path | None = None,
    metrics_out: Path | None = None,
) -> int:
    """Correlate a predictions file with the target metric; optional baseline comparison."""
    from .evaluation import EvalPair, fisher_z_compare, kendall_tau

    _require_files(predictions_path, cfg.test_qrels, cfg.target_run, baseline_path)
    _, run_map = _load_target_run(cfg)
    actual = _actual_metric(cfg, run_map)
    if metrics_out is not None:
        metrics_out.parent.mkdir(parents=True, exist_ok=True)
        write_score_tsv(actual, metrics_out)
    predictions = parse_score_tsv(predictions_path)
    if set(predictions) != set(run_map):
        raise ValueError("prediction file and run file must cover the same query ids")
    ids = sorted(run_map)
    pairs = [EvalPair(qid, predictions[qid], actual[qid]) for qid in ids]
    tau = kendall_tau(pairs)
    report = [
        f"target_metric: {cfg.target_metric}",
        f"n_queries: {len(ids)}",
        f"tau: {tau:.6f}",
    ]
    if baseline_path is not None:
        baseline = parse_score_tsv(baseline_path)
        if set(baseline) != set(run_map):
            raise ValueError("baseline file and run file must cover the same query ids")
        baseline_tau = kendall_tau([EvalPair(qid, baseline[qid], actual[qid]) for qid in ids])
        fisher = fisher_z_compare(tau, baseline_tau, len(ids))
        report += [
            f"baseline_tau: {baseline_tau:.6f}",
            f"fisher_z: {fisher.z:.6f}",
            f"significant_at_0.99: {str(fisher.significant).lower()}",
        ]
    out = out_path or cfg.output_dir / "eval_report.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(report) + "\n", encoding="utf-8")
    print("\n".join(report))
    return 0


def _grid_inputs(cfg: PipelineConfig):
    """Check the (lambda, k) grid, then load the targets, run and metric of ``tune``/``sweep``, but no index.

    Kendall tau needs two run queries, so a smaller run ends here.
    """
    if not cfg.lambdas or not cfg.ks:
        raise ValueError("evaluation.lambdas and evaluation.ks must be non-empty")
    bad_lambdas = [lam for lam in cfg.lambdas if not 0.0 <= lam <= 1.0]
    if bad_lambdas:
        raise ValueError(f"evaluation.lambdas must lie in [0, 1], got {bad_lambdas[0]:g}")
    if min(cfg.ks) < 1:
        raise ValueError(f"evaluation.ks must be >= 1, got {min(cfg.ks)}")
    if max(cfg.ks) >= cfg.qpp.n:
        raise ValueError(f"largest grid k ({max(cfg.ks)}) must stay below candidate pool n ({cfg.qpp.n})")
    _require_files(cfg.test_qrels, cfg.target_run)
    targets, run_map = _load_target_run(cfg, min_queries=2)
    return targets, run_map, _actual_metric(cfg, run_map)


def _prediction_engine(cfg: PipelineConfig, res: PipelineResources, targets, run_map):
    """Build each target's variant set and phi table once, at the largest grid lambda and k.

    The overlap-weighted mean of the first k variants' phi does not
    depend on lambda, so each target takes it once per grid k
    (:func:`variant_mean`, the sums :func:`smooth_qpp` makes), and a
    (lambda, k) cell is one :func:`blend` of the target's phi with it: no
    cell runs a predictor or builds a variant set, so a predictor error
    ends the command before the grid starts. The cells are ``==`` to
    :func:`smooth_qpp` over the first k variants.
    """
    from .variants import base_predictions, blend, build_qv_set, variant_mean

    widest = replace(cfg.qpp, lam=max(cfg.lambdas), k=max(cfg.ks))
    phi_targets = {}
    means = {}
    for qid in sorted(run_map):
        qv_set = build_qv_set(targets[qid], widest, res)
        phi = base_predictions(targets[qid], run_map[qid], qv_set, widest, res)
        phi_targets[qid] = phi[run_map[qid].query_id]
        # with every grid lambda 0, phi holds the target only and every cell is phi(target)
        means[qid] = {
            k: variant_mean(qv_set.candidates[:k], phi) if widest.lam > 0.0 else None for k in set(cfg.ks)
        }

    def predict_fn(lam: float, k: int, ids: Sequence[str]) -> dict[str, float]:
        return {qid: blend(phi_targets[qid], lam, means[qid][k]) for qid in ids}

    return predict_fn


def cmd_tune(cfg: PipelineConfig, baseline_path: Path | None = None, out_path: Path | None = None) -> int:
    """2-fold tuning: fit (lambda, k) on each fold's train split, report test tau."""
    from .evaluation import FISHER_MIN_N, EvalPair, FoldSpec, fisher_z_compare, kendall_tau, tune_2fold

    targets, run_map, actual = _grid_inputs(cfg)
    fold_a = frozenset(cfg.fold_a)
    if not fold_a:
        raise ValueError("evaluation.fold_a must list the query ids of the first fold")
    unknown = sorted(fold_a - set(run_map))
    if unknown:
        raise ValueError(f"fold_a contains queries absent from the run: {', '.join(unknown)}")
    fold_b = frozenset(set(run_map) - fold_a)
    if not fold_b:
        raise ValueError("fold_a covers every run query; the second fold is empty")
    if min(len(fold_a), len(fold_b)) < 2:
        sizes = f"{len(fold_a)} in fold_a and {len(fold_b)} in the other"
        raise ValueError(f"kendall tau needs 2 queries per fold, got {sizes}")
    folds = (FoldSpec(fold_a, fold_b), FoldSpec(fold_b, fold_a))
    baseline = None
    if baseline_path is not None:
        _require_files(baseline_path)
        baseline = parse_score_tsv(baseline_path)
        missing = sorted(set(run_map) - set(baseline))
        if missing:
            raise ValueError(f"baseline predictions missing queries: {', '.join(missing)}")
        smallest = min(len(fold.test_ids) for fold in folds)
        if smallest < FISHER_MIN_N:
            raise ValueError(f"fisher z needs n >= {FISHER_MIN_N} test queries per fold, got {smallest}")
    res, stores = _load_resources(cfg)
    report_data = tune_2fold(folds, cfg.lambdas, cfg.ks, _prediction_engine(cfg, res, targets, run_map), actual)
    lines = [f"target_metric: {cfg.target_metric}", f"base: {cfg.qpp.base}"]
    for number, (fold, outcome) in enumerate(zip(folds, report_data.folds), start=1):
        lines += [
            f"fold_{number}_train_size: {len(fold.train_ids)}",
            f"fold_{number}_test_size: {len(fold.test_ids)}",
            f"fold_{number}_chosen_lambda: {outcome.chosen_lambda:g}",
            f"fold_{number}_chosen_k: {outcome.chosen_k}",
            f"fold_{number}_train_tau: {outcome.train_tau:.6f}",
            f"fold_{number}_test_tau: {outcome.test_tau:.6f}",
        ]
    lines.append(f"mean_test_tau: {report_data.mean_test_tau:.6f}")
    if baseline is not None:
        for number, (fold, outcome) in enumerate(zip(folds, report_data.folds), start=1):
            ids = sorted(fold.test_ids)
            base_tau = kendall_tau([EvalPair(q, baseline[q], actual[q]) for q in ids])
            fisher = fisher_z_compare(outcome.test_tau, base_tau, len(ids))
            lines += [
                f"fold_{number}_baseline_test_tau: {base_tau:.6f}",
                f"fold_{number}_fisher_z: {fisher.z:.6f}",
                f"fold_{number}_significant_at_0.99: {str(fisher.significant).lower()}",
            ]
    out = out_path or cfg.output_dir / "tune_report.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    _save_run_stores(res, stores)
    return 0


def cmd_sweep(cfg: PipelineConfig, out_path: Path | None = None) -> int:
    """Evaluate tau for the full (lambda, k) grid on all run queries; emit CSV."""
    from .evaluation import sweep_grid

    targets, run_map, actual = _grid_inputs(cfg)
    res, stores = _load_resources(cfg)
    rows = sweep_grid(cfg.lambdas, cfg.ks, _prediction_engine(cfg, res, targets, run_map), actual)
    out = out_path or cfg.output_dir / "sweep.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["lambda,k,tau\n"]
    lines += [f"{lam:g},{k},{tau:.6f}\n" for lam, k, tau in rows]
    out.write_text("".join(lines), encoding="utf-8")
    logger.info("wrote %s (%d cells)", out, len(rows))
    _save_run_stores(res, stores)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvqpp",
        description="Query performance prediction smoothed over retrieved query variants.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the YAML pipeline config")
        cmd.add_argument(
            "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
            help="override a config entry, e.g. --set qpp.lambda=0.3",
        )
        return cmd

    add("index", "build and persist the document and query indexes")
    qv = add("qv", "write the per-target variant report")
    qv.add_argument("--out", type=Path, default=None)
    predict = add("predict", "write smoothed predictions for the target run")
    predict.add_argument("--out", type=Path, default=None)
    evaluate = add("evaluate", "correlate predictions with the target metric")
    evaluate.add_argument("--predictions", type=Path, required=True)
    evaluate.add_argument("--baseline", type=Path, default=None)
    evaluate.add_argument("--out", type=Path, default=None)
    evaluate.add_argument(
        "--metrics-out", type=Path, default=None,
        help="also write the per-query ground-truth metric values as id<TAB>value",
    )
    tune = add("tune", "2-fold hyper-parameter tuning")
    tune.add_argument("--baseline", type=Path, default=None)
    tune.add_argument("--out", type=Path, default=None)
    sweep = add("sweep", "full (lambda, k) grid sweep as CSV")
    sweep.add_argument("--out", type=Path, default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = load_config(args.config, args.overrides)
        if args.command == "index":
            return cmd_index(cfg)
        if args.command == "qv":
            return cmd_qv(cfg, args.out)
        if args.command == "predict":
            return cmd_predict(cfg, args.out)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.predictions, args.baseline, args.out, args.metrics_out)
        if args.command == "tune":
            return cmd_tune(cfg, args.baseline, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


def __getattr__(name: str):
    """``predict_query``, the function ``predict`` runs per target, for callers that read it from this module.

    It is looked up in :mod:`qvqpp.variants` on each read, so importing
    this module loads no pipeline layer.
    """
    if name == "predict_query":
        from .variants import predict_query

        return predict_query
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    entrypoint()
