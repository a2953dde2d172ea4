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
    CircularSplits,
    DissimilarityMap,
    PartialCircularOrdering,
    Split,
    WeightedSplitSystem,
    count_associahedron_vertices,
    count_distinct_orderings,
    count_nnet_outputs,
    metric_from_splits,
)
from .kalmanson import find_kalmanson_ordering, is_kalmanson
from .length import EtaTable, balanced_length, count_consistent_orderings, eta_table
from .tsp import Tour, greedy_tsp, read_tsplib_euc2d, tour_length
from .weights import DesignMatrix, lambda_formula, nnls_fit

__version__ = "0.1.0"
