"""Network substrate: graphs, geometry, topology generation, energy, mobility.

This subpackage is the paper's "ad hoc network" model: unit-disk graphs over
uniform random placements in a 100 x 100 area, hop-distance machinery, and
the auxiliary physical models (battery, mobility/churn) used by the
power-aware and maintenance discussions of §3.3.
"""

from .energy import EnergyModel, EnergyParams
from .generators import (
    caterpillar,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    ring_of_cliques,
    star_graph,
    topology_from_graph,
    toroidal_grid,
    two_cliques_bridge,
)
from .geometry import PAPER_AREA, pairwise_distances, random_positions
from .graph import UNREACHABLE, Graph
from .labeling import LandmarkDistanceOracle
from .mobility import ChurnProcess, RandomWaypoint
from .oracle import (
    BATCH_BITS,
    DIST_DTYPE,
    MAX_ORACLE_NODES,
    ByteBudgetLRU,
    DistanceOracle,
    LazyDistanceOracle,
    OracleStats,
    build_distance_oracle,
    multi_source_bfs,
)
from .paths import PathOracle, canonical_path, path_interior
from .topology import (
    Topology,
    calibrate_radius,
    radius_for_degree,
    random_topology,
    unit_disk_graph,
)

__all__ = [
    "Graph",
    "UNREACHABLE",
    "DistanceOracle",
    "LazyDistanceOracle",
    "LandmarkDistanceOracle",
    "OracleStats",
    "ByteBudgetLRU",
    "build_distance_oracle",
    "multi_source_bfs",
    "MAX_ORACLE_NODES",
    "DIST_DTYPE",
    "BATCH_BITS",
    "PathOracle",
    "canonical_path",
    "path_interior",
    "Topology",
    "random_topology",
    "unit_disk_graph",
    "radius_for_degree",
    "calibrate_radius",
    "random_positions",
    "pairwise_distances",
    "PAPER_AREA",
    "EnergyModel",
    "EnergyParams",
    "RandomWaypoint",
    "ChurnProcess",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "toroidal_grid",
    "two_cliques_bridge",
    "ring_of_cliques",
    "caterpillar",
    "topology_from_graph",
]
