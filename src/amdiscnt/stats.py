"""Multi-run aggregation: per-round means with normal confidence bands.

Spread is the population standard deviation (divide by N, not N-1), and
the band is ``mean +/- z * sigma / sqrt(n)`` with the two-sided normal
quantile for the requested confidence. That quantile comes from the C
function that ``statistics.NormalDist().inv_cdf`` itself calls, so z is
bit-identical to it and a run never loads the ``statistics`` module.
Runs of different lengths are aligned by padding the shorter histories
with their terminal state: the alive/dead census and residual energy
freeze at their final values while per-round traffic, head counts and
delay pad as zero.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, repeat

# statistics.NormalDist.inv_cdf calls this same C function
from _statistics import _normal_dist_inv_cdf

from .engine import SimulationResult

# RoundMetrics field behind each metric, and whether it freezes at its last
# value (True) or pads as zero (False) past the end of a shorter run
_COLUMNS = {
    "alive": ("alive", True),
    "dead": ("dead", True),
    "sent": ("packets_sent_to_bs", False),
    "received": ("packets_received_by_bs", False),
    "ch": ("ch_count", False),
    "delay": ("mean_delay", False),
    "energy": ("total_residual_energy", True),
}
METRIC_NAMES = tuple(_COLUMNS)
# the columns of each <name>.csv; after "round", each is a MultiRunStats.series key
SERIES_HEADER = ("round", *(f"{m}_{band}" for m in METRIC_NAMES for band in ("mean", "lo", "hi")))


def population_stddev(values: list[float]) -> float:
    """Standard deviation with the full-population normaliser."""
    if not values:
        raise ValueError("population_stddev needs at least one value")
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / n
    return math.sqrt(variance)


def confidence_interval(values: list[float], confidence: float = 0.95) -> tuple[float, float]:
    """Two-sided normal interval around the sample mean."""
    z = _normal_quantile(confidence)
    if not values:
        raise ValueError("confidence_interval needs at least one value")
    mean = math.fsum(values) / len(values)
    half = z * population_stddev(values) / math.sqrt(len(values))
    return (mean - half, mean + half)


def _normal_quantile(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    upper = 0.5 + confidence / 2.0
    if upper == 1.0:  # the largest float below 1 rounds up here; its lower tail is exact
        return -_normal_dist_inv_cdf((1.0 - confidence) / 2.0, 0.0, 1.0)
    return _normal_dist_inv_cdf(upper, 0.0, 1.0)


@dataclass(frozen=True)
class MultiRunStats:
    """The aggregated runs' per-round means and bands and their five summary
    means, each under its ``<name>.csv`` or ``summary.csv`` column name.

    Milestones a run never reached enter the mean at the aggregation
    horizon, so the three milestone means are lower bounds when any run
    outlived the horizon.
    """

    runs: int
    rounds: int
    confidence: float
    series: dict[str, array]
    fnd_mean: float
    hnd_mean: float
    lnd_mean: float
    sent_mean: float
    received_mean: float


# the columns of summary.csv; after "protocol", each is a MultiRunStats attribute
SUMMARY_HEADER = ("protocol", "fnd_mean", "hnd_mean", "lnd_mean", "sent_mean", "received_mean")


def _column(run: SimulationResult, field: str, freezes: bool, rounds: int) -> Iterable[float]:
    """One metric of one run, round by round, padded to ``rounds``.

    Counts stay ints: every sum and difference taken on them is exact, as
    it would be on their float values.
    """
    values = run.per_round.column(field)
    missing = rounds - len(values)
    if not missing:
        return values
    return chain(values, repeat(values[-1] if freezes else 0.0, missing))


def aggregate_runs(results: list[SimulationResult], confidence: float = 0.95) -> MultiRunStats:
    """Combine same-experiment runs into per-round means and bands."""
    if not results:
        raise ValueError("aggregate_runs needs at least one run")
    if len({r.config.max_rounds for r in results}) > 1:
        raise ValueError("runs were made with different horizons; they cannot be aggregated")
    if len({r.protocol for r in results}) > 1:
        raise ValueError("runs were made with different protocols; they cannot be aggregated")
    rounds = max(r.rounds for r in results)
    if rounds > 0 and any(r.rounds == 0 for r in results):
        raise ValueError("cannot pad a zero-round run to a longer horizon")

    n = len(results)
    z = _normal_quantile(confidence)
    root_n = math.sqrt(n)
    bands: list[array] = []  # each metric's mean, lo and hi, in SERIES_HEADER order
    for field, freezes in _COLUMNS.values():
        bands += (means := array("d"), los := array("d"), his := array("d"))
        for values in zip(*[_column(run, field, freezes, rounds) for run in results]):
            # confidence_interval's arithmetic, with the mean taken once
            mean = math.fsum(values) / n
            half = z * math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n) / root_n
            means.append(mean)
            los.append(mean - half)
            his.append(mean + half)

    def milestone_mean(pick) -> float:
        return math.fsum(float(rounds if m is None else m) for m in map(pick, results)) / n

    return MultiRunStats(
        runs=n,
        rounds=rounds,
        confidence=confidence,
        series=dict(zip(SERIES_HEADER[1:], bands, strict=True)),
        fnd_mean=milestone_mean(lambda r: r.first_node_death),
        hnd_mean=milestone_mean(lambda r: r.half_nodes_death),
        lnd_mean=milestone_mean(lambda r: r.last_node_death),
        sent_mean=math.fsum(float(r.cumulative_sent) for r in results) / n,
        received_mean=math.fsum(float(r.cumulative_received) for r in results) / n,
    )
