"""Partition replacement policies: BETA, COMET, node caching, bias, tuning."""

from .autotune import (AutotuneResult, GraphSpec, HardwareSpec, autotune,
                       autotune_from_dataset)
from .base import (EpochPlan, EpochStep, PartitionPolicy,
                   greedy_one_swap_cover, in_memory_plan)
from .beta import BetaPolicy
from .bias import edge_permutation_bias, workload_balance
from .comet import CometPolicy
from .hilbert import HilbertOrderingPolicy, hilbert_bucket_order
from .node_cache import (NodeClassificationPlan, NodeClassificationStep,
                         TrainingNodeCachePolicy)

__all__ = [
    "EpochPlan", "EpochStep", "PartitionPolicy", "greedy_one_swap_cover",
    "in_memory_plan", "BetaPolicy", "CometPolicy", "HilbertOrderingPolicy",
    "hilbert_bucket_order",
    "TrainingNodeCachePolicy", "NodeClassificationPlan", "NodeClassificationStep",
    "edge_permutation_bias", "workload_balance",
    "autotune", "autotune_from_dataset", "GraphSpec", "HardwareSpec", "AutotuneResult",
]
