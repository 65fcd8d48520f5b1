"""The pipeline's parameter objects and the constants they are checked against.

:class:`RboParams`, :class:`PredictorParams` and :class:`QppConfig` hold
every tunable of the RBO re-ranking, the base predictors and the variant
pipeline. This module imports no pipeline layer, so a command reads and
checks its configuration without loading the variant, predictor, RBO or
dense layers. Each layer imports from here the names it uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4
DEFAULT_MU = 1000.0
# A UEF subset is drawn from the first max(top_k, UEF_POOL_FLOOR) documents of a run.
UEF_POOL_FLOOR = 50

RETRIEVER_BM25 = "bm25"
RETRIEVER_DENSE = "dense"

BASE_PREDICTORS = ("nqc", "uef")


@dataclass(frozen=True, repr=False)
class RboParams:
    """Rank-biased overlap's persistence ``p`` and evaluation depth; hashed as part of the phi-table keys."""

    p: float = 0.9
    eval_depth: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        if self.eval_depth < 1:
            raise ValueError(f"eval_depth must be >= 1, got {self.eval_depth}")


@dataclass(repr=False)
class PredictorParams:
    """Knobs shared by the base predictors."""

    top_k: int = 100
    uef_samples: int = 20
    uef_sample_size: int = 25
    mu: float = DEFAULT_MU
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    def __post_init__(self) -> None:
        for name in ("top_k", "uef_samples", "uef_sample_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("mu", "k1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass(repr=False)
class QppConfig:
    """All tunables of the smoothing estimator and the variant retrieval."""

    lam: float = 0.5
    k: int = 1
    n: int = 100
    query_retriever: str = RETRIEVER_BM25
    use_2hop: bool = True
    pseudo_query_m: int = 20
    rbo_params: RboParams = field(default_factory=RboParams)
    base: str = "nqc"
    internal_depth: int = 100

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n <= self.k:
            raise ValueError(f"candidate pool n ({self.n}) must exceed k ({self.k})")
        if self.query_retriever not in (RETRIEVER_BM25, RETRIEVER_DENSE):
            raise ValueError(f"unknown query retriever {self.query_retriever!r}")
        if self.base not in BASE_PREDICTORS:
            raise ValueError(f"unknown base predictor {self.base!r}")
        if self.pseudo_query_m < 1:
            raise ValueError(f"pseudo_query_m must be >= 1, got {self.pseudo_query_m}")
        if self.internal_depth < 1:
            raise ValueError(f"internal_depth must be >= 1, got {self.internal_depth}")
