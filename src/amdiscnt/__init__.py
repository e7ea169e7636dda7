"""Round-based simulator for clustered circular wireless sensor networks.

The package models a disk-shaped field with the sink at the centre,
ringed by an annulus cut into eight equal wedges. It implements a
deterministic per-sector max-energy clustering protocol alongside two
classic rotating-election baselines, a first-order radio energy model,
and multi-run aggregation with confidence bands.
"""

from .deployment import deploy
from .engine import run_simulation
from .experiment import ExperimentSpec, run_experiment
from .model import NetworkConfig, RadioParams, RegionId, crossover_distance, rx_cost, tx_cost

__version__ = "0.1.0"

__all__ = [
    "ExperimentSpec",
    "NetworkConfig",
    "RadioParams",
    "RegionId",
    "crossover_distance",
    "deploy",
    "run_experiment",
    "run_simulation",
    "rx_cost",
    "tx_cost",
]
