"""In-memory span tracing of the qvqpp layers, installed from outside the library.

:func:`install` wraps the public functions of each ``qvqpp`` module in
every module namespace where callers look them up (``from .x import f``
copies ``f`` into the importing module, so each copy is replaced). A
wrapper records one span per call: name, start, end, parent span and the
target query being processed. Spans stay in memory until :meth:`Tracer.dump`.

:func:`layer_metrics` turns the spans of one traced ``index``/``predict``/
``sweep`` sequence into the per-layer metrics of the benchmark. A span's
self time is its duration minus the part of its interval that child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# Span name -> (module, attribute). "Class.method" attributes are wrapped on the class.
LAYERS = {
    "corpus_io.parse": [("qvqpp.corpus_io", f) for f in (
        "parse_collection", "parse_queries", "parse_qrels", "parse_run", "parse_score_tsv")],
    "corpus_io.from_scores": [("qvqpp.corpus_io", "RankedList.from_scores")],
    "text_index.tokenize": [("qvqpp.text_index", "tokenize")],
    "text_index.build": [("qvqpp.text_index", "build_index")],
    "text_index.save": [("qvqpp.text_index", "save_index")],
    "text_index.load": [("qvqpp.text_index", "load_index")],
    "text_index.bm25": [("qvqpp.text_index", "bm25_retrieve")],
    "text_index.pseudo_query": [("qvqpp.text_index", "make_pseudo_query")],
    "dense_index.load": [("qvqpp.dense_index", "load_vectors")],
    "dense_index.knn": [("qvqpp.dense_index", "knn_cosine")],
    "rank_sim.rbo": [("qvqpp.rank_sim", "rbo_ext")],
    "predictors.nqc": [("qvqpp.predictors", "nqc")],
    "predictors.collection_score": [("qvqpp.predictors", "collection_score")],
    "predictors.rm_build": [("qvqpp.predictors", "build_relevance_model")],
    "predictors.rm_rerank": [("qvqpp.predictors", "rm_rerank")],
    "predictors.uef": [("qvqpp.predictors", "uef")],
    "predictors.evaluate": [("qvqpp.predictors", "PredictorContext.evaluate")],
    "variants.retrieve_1hop": [("qvqpp.variants", "retrieve_1hop")],
    "variants.expand_2hop": [("qvqpp.variants", "expand_2hop")],
    "variants.rerank": [("qvqpp.variants", "rerank_by_rbo")],
    "variants.smooth": [("qvqpp.variants", "smooth_qpp")],
    "variants.build_qv_set": [("qvqpp.variants", "build_qv_set")],
    "variants.target": [("qvqpp.variants", "predict_query")],
    "evaluation.kendall_tau": [("qvqpp.evaluation", "kendall_tau")],
    "evaluation.sweep_grid": [("qvqpp.evaluation", "sweep_grid")],
    "cli.command": [("qvqpp.cli", f) for f in ("cmd_index", "cmd_predict", "cmd_sweep")],
}

# Spans that start work on one target query, and how to read its id from the call.
TARGET_OF = {
    "variants.target": lambda args, kwargs: args[0].id,
    "variants.build_qv_set": lambda args, kwargs: args[0].id,
    "variants.smooth": lambda args, kwargs: args[0].query_id,
}


class Span:
    """One traced call; ``parent`` indexes the span list (-1 for a root), ``info`` holds counts."""

    __slots__ = ("name", "start", "end", "parent", "target", "info")

    def __init__(self, name, start, end, parent, target, info=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.target, self.info = parent, target, info if info is not None else {}

    def to_row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.target, self.info]


class Tracer:
    """Collects spans in call order; one tracer per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, inspect=None):
        """Return ``fn`` wrapped in a span; ``inspect(span_info, args, kwargs, result)`` adds counts."""
        target_of = TARGET_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if target_of is not None:
                target = target_of(args, kwargs)
            else:
                target = self.spans[parent].target if parent >= 0 else None
            span = Span(name, time.perf_counter(), 0.0, parent, target)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if inspect is not None:
                inspect(span.info, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_row()) + "\n")


def load_spans(path) -> list[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(*json.loads(line)) for line in handle if line.strip()]


def _inspect_bm25(info, args, kwargs, result):
    info["entries"] = len(result.entries)


def _inspect_rerank(info, args, kwargs, result):
    merged = args[0]
    info["pool"] = len(merged.candidates)
    info["hop2"] = sum(1 for c in merged.candidates if c.hop == 2)


def _inspect_rbo(info, args, kwargs, result):
    info["positive"] = result > 0.0


def _inspect_smooth(info, args, kwargs, result):
    qv_set, config = args[1], args[2]
    weight = sum(c.rbo for c in qv_set.candidates)
    info["fallback"] = not qv_set.candidates or weight <= 0.0 or config.lam == 0.0


INSPECT = {
    "text_index.bm25": _inspect_bm25,
    "rank_sim.rbo": _inspect_rbo,
    "variants.rerank": _inspect_rerank,
    "variants.smooth": _inspect_smooth,
}


def _wrap_evaluate(tracer: Tracer, fn):
    """PredictorContext.evaluate memoizes into ``self._cache``; a call that adds no entry was a hit."""
    inner = tracer.wrap("predictors.evaluate", fn)

    @functools.wraps(fn)
    def evaluate(self, *args, **kwargs):
        before = len(self._cache)
        index = len(tracer.spans)
        value = inner(self, *args, **kwargs)
        tracer.spans[index].info["hit"] = len(self._cache) == before
        return value

    return evaluate


def install(tracer: Tracer) -> None:
    """Replace every qvqpp function named in LAYERS with a traced wrapper, wherever it is bound."""
    modules = [importlib.import_module(m) for m in (
        "qvqpp", "qvqpp.corpus_io", "qvqpp.text_index", "qvqpp.dense_index", "qvqpp.rank_sim",
        "qvqpp.predictors", "qvqpp.variants", "qvqpp.evaluation", "qvqpp.cli")]
    for name, targets in LAYERS.items():
        for module_name, attr in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):  # RankedList.from_scores
                    setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
                else:  # PredictorContext.evaluate, the only traced plain method
                    setattr(cls, method, _wrap_evaluate(tracer, raw))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(name, original, INSPECT.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile with >= 10 samples beyond it, else the median."""
    n = len(values)
    if n < 2:
        return 50.0, values[0] if values else 0.0
    pct = max(50, 100 * (n - 10) // n)
    return float(pct), statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def kept_ratio(spans: list[Span]) -> float:
    """Internal runs with RBO > 0 over internal runs computed, both counted under ``variants.rerank``."""
    reranks = {i for i, s in enumerate(spans) if s.name == "variants.rerank"}
    runs = sum(1 for s in spans if s.name == "text_index.bm25" and s.parent in reranks)
    kept = sum(1 for s in spans if s.name == "rank_sim.rbo" and s.parent in reranks and s.info["positive"])
    return kept / runs if runs else 0.0


def layer_metrics(index_spans: list[Span], predict_spans: list[Span], sweep_spans: list[Span],
                  predict_wall_s: float) -> dict[str, float]:
    """Per-layer counts, self seconds and ratios over one traced index/predict/sweep sequence.

    Per-target latency, fallbacks, the kept ratio and the shares of ``predict_wall_s``
    (the traced ``predict`` command timed from outside) come from the
    ``predict`` spans alone; everything else sums all three commands.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    by_name: dict[str, list[Span]] = {}
    predict_self: dict[str, float] = {}
    for spans in (index_spans, predict_spans, sweep_spans):
        for span, own in zip(spans, self_times(spans)):
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + own
            by_name.setdefault(span.name, []).append(span)
            if spans is predict_spans:
                predict_self[span.name] = predict_self.get(span.name, 0.0) + own

    m: dict[str, float] = {}
    for name in LAYERS:
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".s"] = self_s.get(name, 0.0)

    bm25 = by_name.get("text_index.bm25", [])
    m["text_index.bm25.p50_us"] = _median([(s.end - s.start) * 1e6 for s in bm25])
    m["text_index.bm25.entries_mean"] = statistics.fmean([s.info["entries"] for s in bm25]) if bm25 else 0.0

    evaluate = by_name.get("predictors.evaluate", [])
    m["predictors.cache_hit_ratio"] = (
        sum(1 for s in evaluate if s.info.get("hit")) / len(evaluate) if evaluate else 0.0)
    predict_wall_s = max(predict_wall_s, 1e-9)
    m["predictors.self_share"] = sum(
        t for name, t in predict_self.items() if name.startswith("predictors.")) / predict_wall_s

    reranks = by_name.get("variants.rerank", [])
    pooled = sum(s.info["pool"] for s in reranks)
    m["variants.pool_size.mean"] = pooled / len(reranks) if reranks else 0.0
    m["variants.hop2_share"] = sum(s.info["hop2"] for s in reranks) / pooled if pooled else 0.0
    m["variants.kept_ratio"] = kept_ratio(predict_spans)
    m["variants.fallback_targets"] = sum(
        1 for s in predict_spans if s.name == "variants.smooth" and s.info["fallback"])
    stage_s = sum(s.end - s.start for s in predict_spans
                  if s.name in ("variants.expand_2hop", "variants.rerank"))
    m["variants.expand_rerank_share"] = stage_s / predict_wall_s

    per_target = [s.end - s.start for s in predict_spans if s.name == "variants.target"]
    pct, tail = tail_percentile(per_target)
    m["variants.target.samples"] = len(per_target)
    m["variants.target.p50_s"] = _median(per_target)
    m["variants.target.tail_pct"] = pct
    m["variants.target.tail_s"] = tail
    return m
