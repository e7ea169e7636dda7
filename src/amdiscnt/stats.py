"""Multi-run aggregation: per-round means with normal confidence bands.

Spread is the population standard deviation (divide by N, not N-1), and
the band is ``mean +/- z * sigma / sqrt(n)`` with the two-sided normal
quantile for the requested confidence. That quantile is Wichura's AS241
rational approximation, written as the ``statistics`` module writes it,
so z is bit-identical to ``statistics.NormalDist().inv_cdf`` and a run
never loads that module. Runs of different lengths are aligned by
padding the shorter histories with their terminal state: the alive/dead
census and residual energy freeze at their final values while per-round
traffic, head counts and delay pad as zero.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, repeat

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


def _standard_normal_inv_cdf(p: float) -> float:
    """The standard normal quantile of ``p`` in (0, 1), by Wichura's AS241.

    Wichura, M.J. (1988). "Algorithm AS241: The Percentage Points of the
    Normal Distribution". Applied Statistics 37 (3): 477-484. The
    arithmetic is ``statistics.NormalDist().inv_cdf``'s, step for step,
    so the result is the same float.
    """
    q = p - 0.5
    if math.fabs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.50908_09287_30122_6727e+3 * r +
                     3.34305_75583_58812_8105e+4) * r +
                     6.72657_70927_00870_0853e+4) * r +
                     4.59219_53931_54987_1457e+4) * r +
                     1.37316_93765_50946_1125e+4) * r +
                     1.97159_09503_06551_4427e+3) * r +
                     1.33141_66789_17843_7745e+2) * r +
                     3.38713_28727_96366_6080e+0) * q
        den = (((((((5.22649_52788_52854_5610e+3 * r +
                     2.87290_85735_72194_2674e+4) * r +
                     3.93078_95800_09271_0610e+4) * r +
                     2.12137_94301_58659_5867e+4) * r +
                     5.39419_60214_24751_1077e+3) * r +
                     6.87187_00749_20579_0830e+2) * r +
                     4.23133_30701_60091_1252e+1) * r +
                     1.0)
        return num / den
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    if r <= 5.0:
        r = r - 1.6
        num = (((((((7.74545_01427_83414_07640e-4 * r +
                     2.27238_44989_26918_45833e-2) * r +
                     2.41780_72517_74506_11770e-1) * r +
                     1.27045_82524_52368_38258e+0) * r +
                     3.64784_83247_63204_60504e+0) * r +
                     5.76949_72214_60691_40550e+0) * r +
                     4.63033_78461_56545_29590e+0) * r +
                     1.42343_71107_49683_57734e+0)
        den = (((((((1.05075_00716_44416_84324e-9 * r +
                     5.47593_80849_95344_94600e-4) * r +
                     1.51986_66563_61645_71966e-2) * r +
                     1.48103_97642_74800_74590e-1) * r +
                     6.89767_33498_51000_04550e-1) * r +
                     1.67638_48301_83803_84940e+0) * r +
                     2.05319_16266_37758_82187e+0) * r +
                     1.0)
    else:
        r = r - 5.0
        num = (((((((2.01033_43992_92288_13265e-7 * r +
                     2.71155_55687_43487_57815e-5) * r +
                     1.24266_09473_88078_43860e-3) * r +
                     2.65321_89526_57612_30930e-2) * r +
                     2.96560_57182_85048_91230e-1) * r +
                     1.78482_65399_17291_33580e+0) * r +
                     5.46378_49111_64114_36990e+0) * r +
                     6.65790_46435_01103_77720e+0)
        den = (((((((2.04426_31033_89939_78564e-15 * r +
                     1.42151_17583_16445_88870e-7) * r +
                     1.84631_83175_10054_68180e-5) * r +
                     7.86869_13114_56132_59100e-4) * r +
                     1.48753_61290_85061_48525e-2) * r +
                     1.36929_88092_27358_05310e-1) * r +
                     5.99832_20655_58879_37690e-1) * r +
                     1.0)
    x = num / den
    return -x if q < 0.0 else x


def _normal_quantile(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    upper = 0.5 + confidence / 2.0
    if upper == 1.0:  # the largest float below 1 rounds up here; its lower tail is exact
        return -_standard_normal_inv_cdf((1.0 - confidence) / 2.0)
    return _standard_normal_inv_cdf(upper)


@dataclass(frozen=True)
class MilestoneSummary:
    """Mean milestones and totals across the aggregated runs.

    Milestones a run never reached enter the mean at the aggregation
    horizon, so these are lower bounds when any run outlived the horizon.
    """

    fnd_mean: float
    hnd_mean: float
    lnd_mean: float
    sent_total_mean: float
    received_total_mean: float


@dataclass(frozen=True)
class MultiRunStats:
    runs: int
    rounds: int
    confidence: float
    per_round_mean: dict[str, array]
    per_round_lo: dict[str, array]
    per_round_hi: dict[str, array]
    milestones: MilestoneSummary


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
    per_round_mean, per_round_lo, per_round_hi = {}, {}, {}
    for name, (field, freezes) in _COLUMNS.items():
        means = per_round_mean[name] = array("d")
        los = per_round_lo[name] = array("d")
        his = per_round_hi[name] = array("d")
        for values in zip(*[_column(run, field, freezes, rounds) for run in results]):
            # confidence_interval's arithmetic, with the mean taken once
            mean = math.fsum(values) / n
            half = z * math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n) / root_n
            means.append(mean)
            los.append(mean - half)
            his.append(mean + half)

    def milestone_mean(pick) -> float:
        return math.fsum(float(pick(r) if pick(r) is not None else rounds) for r in results) / n

    milestones = MilestoneSummary(
        fnd_mean=milestone_mean(lambda r: r.first_node_death),
        hnd_mean=milestone_mean(lambda r: r.half_nodes_death),
        lnd_mean=milestone_mean(lambda r: r.last_node_death),
        sent_total_mean=math.fsum(float(r.cumulative_sent) for r in results) / n,
        received_total_mean=math.fsum(float(r.cumulative_received) for r in results) / n,
    )
    return MultiRunStats(
        runs=n,
        rounds=rounds,
        confidence=confidence,
        per_round_mean=per_round_mean,
        per_round_lo=per_round_lo,
        per_round_hi=per_round_hi,
        milestones=milestones,
    )
