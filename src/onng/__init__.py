"""Ordered nearest-neighbor graphs over ranked metrics.

Insert points one at a time; each new point sends a single directed edge to
its nearest already-present point.  The insertion order is the only control
knob, and the quantity of interest is the largest indegree the order can
force.  Everything downstream of a metric is ordinal: only the rank order
of pairwise distances matters, so the core type is a total order on pairs.
"""

from .core import (
    GuardError,
    Order,
    OrderedNNG,
    PointSet,
    RankedMetric,
    as_permutation,
    build_onng,
    max_indegree,
    metric_from_points,
    pair_index,
    path_order,
    random_rank_metric,
)
from .euclid import (
    diameter_pair,
    grid_cell_bound,
    grid_guarantee,
    halfspace_split,
    log_guarantee,
    order_euclid,
)
from .line import LinePointSet, gen_hard_line, order_line, truncate_hard_line
from .oracle import (
    Problem1Report,
    best_order_exhaustive,
    degree_profile_exhaustive,
    enumerate_rank_metrics,
    problem1_search,
    problem1_sum,
)
from .ramsey import (
    MonoStructure,
    StructureKind,
    TripleColor,
    color_triple,
    coloring_from_metric,
    order_metric,
    run_process,
    run_process_traced,
    synthesize_order,
    verify_structure,
)

__all__ = [
    "GuardError",
    "Order",
    "OrderedNNG",
    "PointSet",
    "RankedMetric",
    "as_permutation",
    "build_onng",
    "max_indegree",
    "metric_from_points",
    "pair_index",
    "path_order",
    "random_rank_metric",
    "diameter_pair",
    "grid_cell_bound",
    "grid_guarantee",
    "halfspace_split",
    "log_guarantee",
    "order_euclid",
    "LinePointSet",
    "gen_hard_line",
    "order_line",
    "truncate_hard_line",
    "Problem1Report",
    "best_order_exhaustive",
    "degree_profile_exhaustive",
    "enumerate_rank_metrics",
    "problem1_search",
    "problem1_sum",
    "MonoStructure",
    "StructureKind",
    "TripleColor",
    "color_triple",
    "coloring_from_metric",
    "order_metric",
    "run_process",
    "run_process_traced",
    "synthesize_order",
    "verify_structure",
]

__version__ = "0.1.0"
