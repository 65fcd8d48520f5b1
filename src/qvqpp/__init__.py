"""Query performance prediction smoothed over retrieved query variants.

The package bundles a small lexical retrieval stack (tokenizer, inverted
index, BM25), exact dense kNN over precomputed embeddings, rank-biased
overlap, the NQC/UEF post-retrieval predictors, the variant-retrieval
smoothing pipeline, and a TREC-style evaluation harness with 2-fold
tuning and grid sweeps.

Every name below is re-exported from its submodule, which is imported on
the first access (PEP 562), so importing the package loads no submodule.
The parameter objects (``QppConfig``, ``PredictorParams``, ``RboParams``)
live in ``qvqpp.config``, which imports no pipeline layer. ``import
qvqpp.cli`` loads only ``config``, ``corpus_io``, ``text_index`` and
``artifacts``; each command imports the other layers it runs when it
starts: ``qv`` and ``predict`` load ``variants``, ``predictors`` and
``rank_sim``; ``evaluate`` loads ``cli_eval`` and ``evaluation``; ``tune``
and ``sweep`` load all five; ``dense_index`` loads only on the dense path.
``cli_eval`` holds the bodies of ``evaluate``, ``tune`` and ``sweep``, and
their ``cmd_*`` stubs stay in :mod:`qvqpp.cli`, where callers (the
benchmark's tracer among them) find every command by name.
"""

import importlib

_EXPORTS = {
    "config": ("PredictorParams", "QppConfig", "RboParams"),
    "corpus_io": (
        "Document", "Qrels", "Query", "RankedList", "parse_collection", "parse_qrels", "parse_queries",
        "parse_run", "parse_score_tsv", "write_run", "write_score_tsv",
    ),
    "dense_index": ("knn_cosine", "load_vectors", "store_from_arrays"),
    "evaluation": (
        "EvalPair", "FoldSpec", "ap_at_k", "fisher_z_compare", "kendall_tau", "ndcg_at_k", "sweep_grid", "tune_2fold",
    ),
    "predictors": (
        "PredictorContext", "RelevanceModel", "build_relevance_model",
        "collection_score", "derive_seed", "nqc", "rm_rerank", "uef",
    ),
    "rank_sim": ("rbo_ext",),
    "text_index": ("bm25_retrieve", "build_index", "load_index", "make_pseudo_query", "save_index", "tokenize"),
    "variants": (
        "PipelineResources", "QVCandidate", "QVSet", "VariantPool", "base_predictions", "build_qv_set",
        "expand_2hop", "rerank_by_rbo", "retrieve_1hop", "smooth_qpp",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
