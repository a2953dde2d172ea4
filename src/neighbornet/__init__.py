"""Circular split systems by agglomeration: orderings, trees, split weights,
balanced length, Kalmanson checks, and a greedy tour heuristic."""

from .agglomerate import (
    AgglomerationTrace,
    BalancedTSP,
    BlockState,
    NeighborNetResult,
    OriginalBM,
    TreeWeighting,
    WeightingScheme,
    adjust_weights,
    merge_blocks,
    neighbor_joining,
    q_criterion,
    q_hat_criterion,
    run_neighbor_net,
)
from .core import (
    CircularOrdering,
    DissimilarityMap,
    PartialCircularOrdering,
    Split,
    WeightedSplitSystem,
    all_circular_splits,
    canonical_orderings,
    count_associahedron_vertices,
    count_distinct_orderings,
    count_nnet_outputs,
    is_circular_split,
    is_pairwise_compatible,
    metric_from_splits,
    split_metric,
)
from .kalmanson import (
    find_kalmanson_ordering,
    is_kalmanson,
    radius_perturbation_check,
    satisfies_four_point,
)
from .length import EtaTable, balanced_length, count_consistent_orderings, eta_table, z_criterion
from .tsp import Tour, greedy_tsp, read_tsplib_euc2d, tour_length
from .weights import DesignMatrix, clamp_nonnegative, lambda_formula, nnls_fit

__version__ = "0.1.0"
