"""Federated vector search with a learned per-shard relevance router."""

from .datasets import (
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    import_shards,
    kmeans_shard,
    split_by_query,
)
from .features import ScalerParams, assemble_features, feature_dim, fit_scaler, transform
from .federation import (
    FederatedResult,
    RoutingDecision,
    federated_search,
    generate_labels,
    naive_search,
    route,
)
from .metrics import (
    ClassifierMetrics,
    EvalReport,
    classifier_metrics,
    efficiency_summary,
    retrieval_recall,
)
from .router import (
    ModelFormatError,
    RouterModel,
    TrainConfig,
    load_model,
    predict_batch,
    train,
)
from .store import ScoredHit, ShardIndex, ShardStats, build_index, search_top_k

__version__ = "0.1.0"

__all__ = [
    "ClassifierMetrics",
    "EvalReport",
    "FederatedResult",
    "ModelFormatError",
    "RouterModel",
    "RoutingDecision",
    "ScalerParams",
    "ScoredHit",
    "ShardIndex",
    "ShardStats",
    "SplitSpec",
    "SyntheticSpec",
    "TrainConfig",
    "assemble_features",
    "build_index",
    "classifier_metrics",
    "efficiency_summary",
    "feature_dim",
    "federated_search",
    "fit_scaler",
    "generate_labels",
    "generate_synthetic",
    "import_shards",
    "kmeans_shard",
    "load_model",
    "naive_search",
    "predict_batch",
    "retrieval_recall",
    "route",
    "search_top_k",
    "split_by_query",
    "train",
    "transform",
]
