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
``index`` reads the collection and the training queries once each and
records in each index the SHA-256 of the bytes it parsed. Every other
command refuses an index whose source file now holds other bytes, even
bytes that parse to the same items (CRLF line ends, say), with "rerun qvqpp
index"; staleness has this one rule, and no command but ``index`` parses
the collection.
:mod:`qvqpp.artifacts` says what the run stores hold and when each is read,
rewritten and deleted; ``-v`` logs what became of each, and how many base
predictions were evaluated and how many read from a store's table.

``main`` leaves Python's cyclic garbage collector as the caller set it;
the ``qvqpp`` command turns it off around ``main`` (see
:mod:`qvqpp.__main__`).

Each command loads only the layers it runs. Importing this module loads
``qvqpp.config``, ``corpus_io``, ``text_index`` and ``artifacts``; beyond
those,

- ``index`` loads nothing more;
- ``qv`` and ``predict`` load ``variants``, ``predictors`` and ``rank_sim``;
- ``evaluate`` loads ``cli_eval``, which holds the bodies of ``evaluate``,
  ``tune`` and ``sweep``, and ``evaluation``;
- ``tune`` and ``sweep`` load all five;
- ``dense_index`` is loaded only with ``qpp.query_retriever: dense``.

``cmd_evaluate``, ``cmd_tune`` and ``cmd_sweep`` stay here as stubs that
import :mod:`qvqpp.cli_eval` when they run: callers find every command in
this module by name (the benchmark's tracer wraps ``cmd_*`` here), and the
other commands never compile those bodies.

The config is parsed as ``yaml.safe_load`` parses it, but a mapping that
names a key twice is malformed YAML, and a root that is neither a mapping
nor empty (or null) is refused.

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
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import yaml

from .corpus_io import Query, RankedList, iter_tsv, open_utf8, parse_qrels, parse_queries, parse_run, write_score_tsv
from .config import UEF_POOL_FLOOR, PredictorParams, QppConfig, RboParams
from .text_index import InvertedIndex, build_index, load_index, save_index
# after text_index: with no bytecode cache, a module compiled once numpy is resident raised peak RSS by about 1 MB
from .artifacts import INTERNAL_RUNS, PSEUDO_QUERY_HITS, RunStore, prune_run_stores, variant_phi

if TYPE_CHECKING:
    from .variants import PipelineResources

logger = logging.getLogger(__name__)

TARGET_METRICS = ("ap@100", "ndcg@10")

DOC_INDEX_FILE = "documents.idx"
QUERY_INDEX_FILE = "queries.idx"

REQUIRED_PATHS = ("collection", "train_queries", "train_qrels", "test_queries", "test_qrels", "target_run",
                  "index_dir", "output_dir")


@dataclass(repr=False, eq=False)
class PipelineConfig:
    """A loaded config: its paths, seed, parameter objects and evaluation grid (``CONFIG_SCHEMA`` maps each key)."""

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


class _UniqueKeys:
    """A constructor check shared by both loaders: a mapping that names a key twice is an error, not its last value."""

    def construct_mapping(self, node, deep=False):
        pairs = node.value if isinstance(node, yaml.MappingNode) else []
        explicit = [key for key, _ in pairs if key.tag != "tag:yaml.org,2002:merge"]  # a merged key may be overridden
        mapping = super().construct_mapping(node, deep)  # every key is now constructed, and hashable
        seen = set()
        for key_node in explicit:
            key = self.construct_object(key_node, deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark, f"found duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return mapping


class _SafeLoader(_UniqueKeys, yaml.SafeLoader):
    pass


if yaml.__with_libyaml__:
    class _CSafeLoader(_UniqueKeys, yaml.CSafeLoader):
        pass
else:
    _CSafeLoader = None

# A text that holds one of these is left to PyYAML, as libyaml reads it otherwise: it accepts a tab where PyYAML
# refuses one (``seed:\t1``, ``seed: 1\t# c``, ``ks: [1,\t2]``), skips byte-order marks that PyYAML reads as text,
# and accepts a comment right after a block scalar's header (``key: |#``). A config seldom holds a block scalar.
_LIBYAML_DIFFERS = frozenset("\t\ufeff|>")


def _yaml(source, where: str):
    """``source``, a str or a seekable text file, parsed as ``yaml.safe_load`` would, but refusing a repeated key.

    libyaml (``CSafeLoader``), several times faster, parses a text that
    holds none of :data:`_LIBYAML_DIFFERS`. PyYAML's own parser parses the
    others, and re-parses a text that libyaml fails on, as libyaml words
    its errors otherwise; so every object and message is SafeLoader's.
    """
    try:
        if _CSafeLoader is not None:
            try:
                text = source if isinstance(source, str) else source.read()
                if _LIBYAML_DIFFERS.isdisjoint(text):
                    return yaml.load(text, _CSafeLoader)
            except Exception:  # SafeLoader reports it, and a file's first error as before: it reads the file lazily
                pass
            if not isinstance(source, str):
                source.seek(0)
        return yaml.load(source, _SafeLoader)
    except yaml.YAMLError as exc:
        raise ValueError(f"{where}: malformed YAML: {' '.join(str(exc).split())}") from None


def _as(kind, value):
    """``kind(value)``, except that a number key refuses a boolean or a string and an int key a fractional float."""
    if kind in (int, float) and isinstance(value, (bool, str)):
        raise TypeError(value)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return kind(value) + 0.0 if kind is float else kind(value)  # -0.0 reads as 0.0: no output spells "-0"


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
        raw = _yaml(handle, str(path))
    if raw is None:  # an empty file, or null: no keys
        raw = {}
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


def _load_resources(cfg: PipelineConfig, phi: bool = True) -> tuple[PipelineResources, list[RunStore]]:
    """The pipeline's resources and the run stores of ``cfg``, each that passes its checks adopted into its memo.

    The stores are the internal runs, the pseudo-query hits when 2-hop expansion is on, and, with ``phi`` (not
    ``qv``, which evaluates no predictor), the variants' base predictions.
    """
    from .predictors import BASE_INPUTS, PREDICTOR_VERSION
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
    training = parse_queries(cfg.train_queries)  # in query-index order once the index is found fresh
    doc_index = load_index(doc_index_path)
    query_index = load_index(query_index_path)
    for index, index_path, source in (
        (doc_index, doc_index_path, cfg.collection), (query_index, query_index_path, cfg.train_queries),
    ):
        if not index.built_from_file(source):
            raise ValueError(f"{index_path}: index is stale; rerun qvqpp index (it was not built from {source})")
    res = PipelineResources(
        doc_index=doc_index,
        query_index=query_index,
        training_texts=[q.text for q in training],
        training_qrels=parse_qrels(cfg.train_qrels) if cfg.qpp.use_2hop else {},  # read by 2-hop expansion only
        embedding_store=embeddings,
        params=cfg.predictor,
        seed=cfg.seed,
    )
    depth = cfg.qpp.internal_depth
    memos = {INTERNAL_RUNS: res.run_table(depth)}
    if cfg.qpp.use_2hop:
        memos[PSEUDO_QUERY_HITS] = res.hit_map(cfg.qpp.pseudo_query_m, cfg.qpp.n)
    if phi:
        memos[variant_phi(BASE_INPUTS[cfg.qpp.base])] = res.phi_table(cfg.qpp.base, depth, cfg.qpp.rbo_params)
    # every config key, dotted, with its value in cfg, in schema order; the phi store's key adds the predictors' version
    holders = {PipelineConfig: cfg, QppConfig: cfg.qpp, RboParams: cfg.qpp.rbo_params, PredictorParams: cfg.predictor}
    values = {dotted: getattr(holders[owner], name) for dotted, (owner, name, _) in CONFIG_SCHEMA.items()}
    values["predictor_version"] = PREDICTOR_VERSION
    stores = [RunStore.open(kind, memo, cfg.index_dir, values, doc_index, query_index) for kind, memo in memos.items()]
    return res, stores


def _save_run_stores(res: PipelineResources, stores: Sequence[RunStore]) -> None:
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


def _index_file(path: Path, empty: str, *, require_text: bool) -> InvertedIndex:
    """The index of the ``id<TAB>text`` file at ``path``, read once, named by the SHA-256 of the bytes it was built from.

    The records are indexed as they are parsed, and the digest is fed the
    same bytes as the decoder, so it names the parsed bytes even if the
    file changes meanwhile; a later command then finds the index stale.
    """
    digest = hashlib.sha256()
    index = build_index(iter_tsv(path, require_text, digest))
    if not index.size:
        raise ValueError(f"{path}: {empty}")
    return replace(index, file_sha256=digest.hexdigest())


def cmd_index(cfg: PipelineConfig) -> int:
    """Build and persist the document index and the training-query index, then prune the run stores beside them."""
    _require_files(cfg.collection, cfg.train_queries)
    doc_index = _index_file(cfg.collection, "the collection holds no documents", require_text=False)
    query_index = _index_file(cfg.train_queries, "the training-query file holds no queries", require_text=True)
    cfg.index_dir.mkdir(parents=True, exist_ok=True)
    save_index(doc_index, cfg.index_dir / DOC_INDEX_FILE)
    save_index(query_index, cfg.index_dir / QUERY_INDEX_FILE)
    prune_run_stores(cfg.index_dir, doc_index, query_index)
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


def _prediction_engine(cfg: PipelineConfig, res: PipelineResources, targets, run_map):
    """Every grid cell's prediction of every run query: the float64 array :mod:`qvqpp.evaluation` reads.

    Each target's variant set and phi table are built once, at the largest
    grid lambda and k, so a predictor error ends the command before any
    cell is formed. The overlap-weighted mean of the first k variants' phi
    does not depend on lambda, so each target takes it once per grid k
    (:func:`variant_mean`), and one broadcast of the blend of
    :func:`smooth_qpp` forms every cell: the same bytes as it.
    """
    import numpy as np

    from .variants import base_predictions, build_qv_set, variant_mean

    widest = replace(cfg.qpp, lam=max(cfg.lambdas), k=max(cfg.ks))
    ks = sorted(set(cfg.ks))
    ids = sorted(run_map)
    phi_targets = np.empty(len(ids))
    means = np.zeros((len(ks), len(ids)))
    has_mean = np.zeros(means.shape, dtype=bool)
    for column, qid in enumerate(ids):
        qv_set = build_qv_set(targets[qid], widest, res)
        phi = base_predictions(targets[qid], run_map[qid], qv_set, widest, res)
        phi_targets[column] = phi[run_map[qid].query_id]
        if widest.lam > 0.0:  # with every grid lambda 0, phi holds the target only and every cell is phi(target)
            for row, k in enumerate(ks):
                mean = variant_mean(qv_set.candidates[:k], phi)
                if mean is not None:
                    means[row, column], has_mean[row, column] = mean, True
    lams = np.array(sorted(set(cfg.lambdas)))[:, None, None]
    with np.errstate(all="ignore"):  # Python float arithmetic: an infinite phi makes nan, silently
        return np.where((lams != 0.0) & has_mean, (1.0 - lams) * phi_targets + lams * means, phi_targets)


def cmd_evaluate(
    cfg: PipelineConfig,
    predictions_path: Path,
    baseline_path: Path | None = None,
    out_path: Path | None = None,
    metrics_out: Path | None = None,
) -> int:
    """Correlate a predictions file with the target metric; optional baseline comparison."""
    from .cli_eval import evaluate

    return evaluate(cfg, predictions_path, baseline_path, out_path, metrics_out)


def cmd_tune(cfg: PipelineConfig, baseline_path: Path | None = None, out_path: Path | None = None) -> int:
    """2-fold tuning: fit (lambda, k) on each fold's train split, report test tau."""
    from .cli_eval import tune

    return tune(cfg, baseline_path, out_path)


def cmd_sweep(cfg: PipelineConfig, out_path: Path | None = None) -> int:
    """Evaluate tau for the full (lambda, k) grid on all run queries; emit CSV."""
    from .cli_eval import sweep

    return sweep(cfg, out_path)


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


def __getattr__(name: str):
    """``predict_query``, the function ``predict`` runs per target, for callers that read it from this module.

    It is looked up in :mod:`qvqpp.variants` on each read, so importing
    this module loads no pipeline layer.
    """
    if name == "predict_query":
        from .variants import predict_query

        return predict_query
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
