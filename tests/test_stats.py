import _statistics
import gc
import math
import statistics
import tracemalloc
from random import Random
from statistics import NormalDist

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amdiscnt.engine import RoundHistory, RoundMetrics, SimulationResult, run_simulation
from amdiscnt.model import NetworkConfig
from amdiscnt.stats import (
    METRIC_NAMES,
    _normal_quantile,
    aggregate_runs,
    confidence_interval,
    population_stddev,
)


def make_metrics(i, alive, sent=5, received=4, energy=50.0):
    return RoundMetrics(round_index=i, alive=alive, dead=100 - alive,
                        packets_sent_to_bs=sent, packets_received_by_bs=received,
                        ch_count=2, mean_delay=1.5, total_residual_energy=energy,
                        energy_spent=0.1)


def make_result(alives, fnd=None, hnd=None, lnd=None, max_rounds=10, protocol="amdiscnt"):
    per = RoundHistory(make_metrics(i, a) for i, a in enumerate(alives))
    return SimulationResult(config=NetworkConfig(max_rounds=max_rounds),
                            protocol=protocol, per_round=per, first_node_death=fnd,
                            half_nodes_death=hnd, last_node_death=lnd)


class TestPopulationStddev:
    def test_three_point_fixture(self):
        assert population_stddev([2.0, 4.0, 6.0]) == pytest.approx(
            math.sqrt(8.0 / 3.0), rel=1e-12)

    def test_constant_samples(self):
        assert population_stddev([5.0, 5.0, 5.0]) == 0.0

    def test_single_sample(self):
        assert population_stddev([3.7]) == 0.0

    def test_history_retains_under_100_bytes_per_round(self):
        tracemalloc.start()
        try:
            history = run_simulation(NetworkConfig(max_rounds=2400),
                                     "amdiscnt").per_round
            rounds = len(history)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del history
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rounds == 2400
        assert retained < 100 * rounds

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            population_stddev([])


class TestConfidenceInterval:
    def test_three_point_fixture(self):
        lo, hi = confidence_interval([2.0, 4.0, 6.0], 0.95)
        assert lo == pytest.approx(2.1522, abs=1e-3)
        assert hi == pytest.approx(5.8478, abs=1e-3)

    def test_constant_samples_collapse(self):
        assert confidence_interval([4.0, 4.0, 4.0], 0.95) == (4.0, 4.0)

    def test_tiny_confidence_collapses(self):
        lo, hi = confidence_interval([2.0, 4.0, 6.0], 1e-9)
        assert hi - lo < 1e-8

    def test_invalid_confidence_rejected(self):
        for bad in (0.0, 1.0, -0.5, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                confidence_interval([1.0, 2.0], bad)

    def test_every_confidence_below_one_has_a_finite_band(self):
        confidence = math.nextafter(1.0, 0.0)  # 0.5 + confidence / 2 rounds to 1.0
        lo, hi = confidence_interval([1.0, 2.0, 4.0], confidence)
        assert -math.inf < lo < 1.0 and 4.0 < hi < math.inf
        assert aggregate_runs([make_result([90]), make_result([94])], confidence).runs == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([], 0.95)

    def test_symmetry_about_mean(self):
        rng = Random(17)
        for _ in range(1000):
            values = [rng.uniform(-50, 50) for _ in range(rng.randint(2, 8))]
            mean = math.fsum(values) / len(values)
            lo, hi = confidence_interval(values, 0.95)
            assert hi - mean == pytest.approx(mean - lo, rel=1e-9, abs=1e-12)

    def test_affine_equivariance(self):
        rng = Random(23)
        for _ in range(1000):
            values = [rng.uniform(0, 10) for _ in range(rng.randint(2, 6))]
            shift = rng.uniform(-5, 5)
            scale = rng.uniform(0.1, 4.0)
            lo, hi = confidence_interval(values, 0.95)
            slo, shi = confidence_interval([v + shift for v in values], 0.95)
            assert slo == pytest.approx(lo + shift, rel=1e-9, abs=1e-9)
            assert shi == pytest.approx(hi + shift, rel=1e-9, abs=1e-9)
            klo, khi = confidence_interval([v * scale for v in values], 0.95)
            width = hi - lo
            assert khi - klo == pytest.approx(width * scale, rel=1e-9, abs=1e-12)


def normal_dist_quantile(confidence):
    """The oracle: the standard library's quantile, with the same lower-tail rule."""
    upper = 0.5 + confidence / 2.0
    if upper == 1.0:
        return -NormalDist().inv_cdf((1.0 - confidence) / 2.0)
    return NormalDist().inv_cdf(upper)


# the central branch, both tail branches and their edges, and 0.5 + c / 2
# rounding to 1.0 for the largest c
_CONFIDENCE_GRID = sorted(
    {i / 1000 for i in range(1, 1000)} | {0.8 + i * 0.0002 for i in range(1000)}
    | {1.0 - 10.0 ** -k for k in range(1, 17)} | {10.0 ** -k for k in range(1, 308)}
    | {0.075, 0.925, 0.85, 0.849999999999999, 0.850000000000001, 2e-11, 3e-11, 1.0 - 6e-11,
       math.exp(-25.0), math.nextafter(math.exp(-25.0), 0.0), 0.9999999999999999, 5e-324,
       math.nextafter(1.0, 0.0)})


class TestNormalQuantile:
    def test_equals_normal_dist_bitwise_on_a_grid(self):
        for confidence in _CONFIDENCE_GRID:
            assert _normal_quantile(confidence).hex() == normal_dist_quantile(confidence).hex()

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_equals_normal_dist_bitwise(self, confidence):
        assert _normal_quantile(confidence).hex() == normal_dist_quantile(confidence).hex()

    def test_statistics_calls_the_c_quantile(self):
        # stats.py calls the C function directly, so z tracks NormalDist only while this holds
        assert statistics._normal_dist_inv_cdf is _statistics._normal_dist_inv_cdf


class TestAggregateRuns:
    def test_identical_runs_have_zero_width(self):
        runs = [make_result([100, 99, 98]) for _ in range(5)]
        stats = aggregate_runs(runs, 0.95)
        assert stats.runs == 5
        assert stats.rounds == 3
        assert stats.per_round_mean["alive"].tolist() == [100.0, 99.0, 98.0]
        for metric in METRIC_NAMES:
            for lo, mean, hi in zip(stats.per_round_lo[metric], stats.per_round_mean[metric],
                                    stats.per_round_hi[metric]):
                assert lo == mean == hi

    def test_alive_fixture_matches_ci_oracle(self):
        runs = [make_result([a]) for a in (90, 92, 94)]
        stats = aggregate_runs(runs, 0.95)
        assert stats.per_round_mean["alive"][0] == 92.0
        assert (stats.per_round_lo["alive"][0], stats.per_round_hi["alive"][0]) == \
            confidence_interval([90.0, 92.0, 94.0], 0.95)

    def test_order_independent(self):
        runs = [make_result([100 - i, 98 - i], fnd=i + 1) for i in range(5)]
        assert aggregate_runs(runs, 0.95) == aggregate_runs(runs[::-1], 0.95)

    def test_terminal_padding(self):
        short = make_result([100, 0], lnd=2)
        long = make_result([100, 99, 99, 98])
        stats = aggregate_runs([short, long], 0.95)
        assert stats.rounds == 4
        # census and energy freeze at the final state, traffic pads as zero
        assert stats.per_round_mean["alive"][3] == (0.0 + 98.0) / 2.0
        assert stats.per_round_mean["sent"][3] == (0.0 + 5.0) / 2.0
        assert stats.per_round_mean["energy"][3] == 50.0

    def test_unreached_milestones_use_horizon(self):
        runs = [make_result([100, 100], fnd=1), make_result([100, 100])]
        stats = aggregate_runs(runs, 0.95)
        assert stats.fnd_mean == (1.0 + 2.0) / 2.0
        assert stats.sent_mean == 10.0
        assert stats.received_mean == 8.0

    def test_zero_round_run_cannot_pad(self):
        assert aggregate_runs([make_result([]), make_result([])], 0.95).rounds == 0
        with pytest.raises(ValueError, match="cannot pad a zero-round run"):
            aggregate_runs([make_result([]), make_result([100])], 0.95)

    def test_single_run_has_zero_width(self):
        stats = aggregate_runs([make_result([100, 99])], 0.95)
        for metric in METRIC_NAMES:
            for lo, hi in zip(stats.per_round_lo[metric], stats.per_round_hi[metric]):
                assert lo == hi

    def test_stats_retain_under_32_bytes_per_value(self):
        rounds = 2400
        runs = [make_result([100 - (i + shift) // 30 for i in range(rounds)], max_rounds=rounds)
                for shift in (0, 7)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stats = aggregate_runs(runs, 0.95)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert stats.rounds == rounds
        assert retained < 32 * len(METRIC_NAMES) * rounds

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([], 0.95)

    def test_mixed_horizons_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([make_result([100], max_rounds=10),
                            make_result([100], max_rounds=20)], 0.95)

    def test_mixed_protocols_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([make_result([100]),
                            make_result([100], protocol="leach")], 0.95)
