"""Feasibility queries for a square robot among rectangular obstacles.

Preprocess a world of possibly-overlapping axis-aligned obstacles once,
then answer "can a square of side d travel from s to t?" online.  All
internal coordinates are half-units (external integers doubled) so every
derived quantity stays integral.
"""

from .circles import GabrielEdge, fold_radius, gabriel_edges
from .dsu import PersistentDsu
from .engine import FeasibilityIndex, Query, Verdict, build_index, preprocess
from .geometry import (
    GapVector,
    Obstacle,
    Rect,
    SYMMETRIES,
    Symmetry,
    capacity,
    gaps,
    ingest_world,
    placement_free,
    thin_edge_rect,
)
from .oracle import oracle_feasible, oracle_relevant_edges
from .partition import RegionPartition, build_partition
from .polygons import decompose, point_in_polygon, polygon_area
from .sweep import (
    GapEdge,
    build_candidates,
    build_gap_edges,
    minimum_pathway,
    relevance_filter,
    shadow_sweep_pass,
)

__all__ = [
    "FeasibilityIndex",
    "GabrielEdge",
    "GapEdge",
    "GapVector",
    "Obstacle",
    "PersistentDsu",
    "Query",
    "Rect",
    "RegionPartition",
    "SYMMETRIES",
    "Symmetry",
    "Verdict",
    "build_candidates",
    "build_gap_edges",
    "build_index",
    "build_partition",
    "capacity",
    "decompose",
    "fold_radius",
    "gabriel_edges",
    "gaps",
    "ingest_world",
    "minimum_pathway",
    "oracle_feasible",
    "oracle_relevant_edges",
    "placement_free",
    "point_in_polygon",
    "polygon_area",
    "preprocess",
    "relevance_filter",
    "shadow_sweep_pass",
    "thin_edge_rect",
]

__version__ = "0.1.0"
