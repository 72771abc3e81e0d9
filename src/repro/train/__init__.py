"""Training harness: trainers, negative sampling, evaluation, snapshots."""

from .checkpoint import (Snapshot, SnapshotError, SnapshotManager,
                         nc_dataset_fingerprint)
from .evaluation import (EpochRecord, RankingMetrics, TripleFilter,
                         filtered_ranks, multiclass_accuracy, ranking_metrics,
                         ranks_from_scores)
from .link_prediction import (DiskConfig, DiskLinkPredictionTrainer,
                              LinkPredictionConfig, LinkPredictionModel,
                              LinkPredictionTrainer, TrainResult,
                              evaluate_model, score_edges_offline)
from .negative_sampling import (DegreeWeightedNegativeSampler,
                                NegativeSampleBatch, UniformNegativeSampler)
from .node_classification import (DiskNodeClassificationConfig,
                                  DiskNodeClassificationTrainer,
                                  NodeClassificationConfig,
                                  NodeClassificationResult,
                                  NodeClassificationTrainer, NodeClassifier,
                                  evaluate_classifier,
                                  relabel_for_training_cache)

__all__ = [
    "LinkPredictionConfig", "LinkPredictionTrainer", "LinkPredictionModel",
    "DiskConfig", "DiskLinkPredictionTrainer", "TrainResult", "evaluate_model",
    "NodeClassificationConfig", "NodeClassificationTrainer", "NodeClassifier",
    "DiskNodeClassificationConfig", "DiskNodeClassificationTrainer",
    "NodeClassificationResult", "evaluate_classifier", "relabel_for_training_cache",
    "UniformNegativeSampler", "DegreeWeightedNegativeSampler", "NegativeSampleBatch",
    "RankingMetrics", "EpochRecord", "ranking_metrics", "ranks_from_scores",
    "multiclass_accuracy",
    "TripleFilter", "filtered_ranks",
    "Snapshot", "SnapshotManager", "SnapshotError", "nc_dataset_fingerprint",
    "score_edges_offline",
]
