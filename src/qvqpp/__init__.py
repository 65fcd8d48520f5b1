"""Query performance prediction smoothed over retrieved query variants.

The package bundles a small lexical retrieval stack (tokenizer, inverted
index, BM25), exact dense kNN over precomputed embeddings, rank-biased
overlap, the NQC/UEF post-retrieval predictors, the variant-retrieval
smoothing pipeline, and a TREC-style evaluation harness with 2-fold
tuning and grid sweeps.
"""

from .corpus_io import (
    Document,
    Qrels,
    Query,
    RankedList,
    parse_collection,
    parse_qrels,
    parse_queries,
    parse_run,
    parse_score_tsv,
    write_run,
    write_score_tsv,
)
from .dense_index import knn_cosine, load_vectors, store_from_arrays
from .evaluation import (
    EvalPair,
    FoldSpec,
    ap_at_k,
    fisher_z_compare,
    kendall_tau,
    ndcg_at_k,
    sweep_grid,
    tune_2fold,
)
from .predictors import (
    PredictorContext,
    PredictorInput,
    PredictorParams,
    RelevanceModel,
    build_relevance_model,
    collection_score,
    derive_seed,
    nqc,
    rm_rerank,
    uef,
)
from .rank_sim import RboParams, rbo_ext
from .text_index import (
    bm25_retrieve,
    build_index,
    load_index,
    make_pseudo_query,
    save_index,
    tokenize,
)
from .variants import (
    PipelineResources,
    QppConfig,
    QVCandidate,
    QVSet,
    base_predictions,
    build_qv_set,
    expand_2hop,
    rerank_by_rbo,
    retrieve_1hop,
    smooth_qpp,
)

__version__ = "0.1.0"
