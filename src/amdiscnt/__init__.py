"""Round-based simulator for clustered circular wireless sensor networks.

The package models a disk-shaped field with the sink at the centre,
ringed by an annulus cut into eight equal wedges. It implements a
deterministic per-sector max-energy clustering protocol alongside two
classic rotating-election baselines, a first-order radio energy model,
and multi-run aggregation with confidence bands.
"""

from .deployment import (
    DegenerateDeploymentError,
    DeploymentResult,
    OutOfFieldError,
    deploy,
    region_of,
    theoretical_total_energy,
)
from .energy import aggregation_cost, crossover_distance, rx_cost, tx_cost
from .engine import RoundMetrics, SimulationResult, run_round, run_simulation
from .model import (
    ConfigurationError,
    DelayModel,
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    Node,
    Position,
    RadioParams,
    RegionId,
    validate_config,
)
from .experiment import (
    ExperimentSpec,
    emit_tables,
    parse_config,
    read_tables,
    run_experiment,
    write_config,
)
from .protocols import (
    BS_ID,
    DistanceCache,
    ProtocolKind,
    build_plan,
    elect_chs_amdiscnt,
    elect_chs_deec,
    elect_chs_leach,
)
from .stats import (
    MilestoneSummary,
    MultiRunStats,
    aggregate_runs,
    confidence_interval,
    population_stddev,
)

__version__ = "0.1.0"

__all__ = [
    "BS_ID",
    "ConfigurationError",
    "DegenerateDeploymentError",
    "DelayModel",
    "DeploymentResult",
    "DistanceCache",
    "ExperimentSpec",
    "Geometry",
    "HeterogeneitySpec",
    "MilestoneSummary",
    "MultiRunStats",
    "NetworkConfig",
    "Node",
    "OutOfFieldError",
    "Position",
    "ProtocolKind",
    "RadioParams",
    "RegionId",
    "RoundMetrics",
    "SimulationResult",
    "aggregation_cost",
    "aggregate_runs",
    "build_plan",
    "confidence_interval",
    "crossover_distance",
    "deploy",
    "elect_chs_amdiscnt",
    "elect_chs_deec",
    "elect_chs_leach",
    "emit_tables",
    "parse_config",
    "population_stddev",
    "read_tables",
    "region_of",
    "run_experiment",
    "run_round",
    "run_simulation",
    "rx_cost",
    "theoretical_total_energy",
    "tx_cost",
    "validate_config",
    "write_config",
]
