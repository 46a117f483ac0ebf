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
    gaps,
    ingest_world,
    placement_free,
)
from .oracle import oracle_feasible, oracle_relevant_edges
from .partition import RegionPartition, build_partition
from .polygons import decompose, point_in_polygon, polygon_area
from .sweep import GapEdges, build_candidates, gap_edges, relevance_filter

__all__ = [
    "FeasibilityIndex",
    "GabrielEdge",
    "GapEdges",
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
    "build_index",
    "build_partition",
    "decompose",
    "fold_radius",
    "gabriel_edges",
    "gap_edges",
    "gaps",
    "ingest_world",
    "oracle_feasible",
    "oracle_relevant_edges",
    "placement_free",
    "point_in_polygon",
    "polygon_area",
    "preprocess",
    "relevance_filter",
]

__version__ = "0.1.0"
