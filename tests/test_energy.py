import math

import pytest

from amdiscnt.model import RadioParams, aggregation_cost, crossover_distance, rx_cost, tx_cost

RADIO = RadioParams()


def test_crossover_distance_value():
    assert crossover_distance(RADIO) == pytest.approx(87.7058, abs=5e-5)


def test_tx_cost_below_crossover():
    # 4000 * (50e-9 + 10e-12 * 50^2) = 3.0e-4
    assert tx_cost(4000, 50.0, RADIO) == pytest.approx(3.0e-4, rel=1e-12)


def test_tx_cost_above_crossover():
    # 4000 * (50e-9 + 0.0013e-12 * 100^4) = 7.2e-4
    assert tx_cost(4000, 100.0, RADIO) == pytest.approx(7.2e-4, rel=1e-12)


def test_rx_cost_value():
    assert rx_cost(4000, RADIO) == pytest.approx(2.0e-4, rel=1e-12)


def test_rx_equals_zero_distance_tx():
    assert rx_cost(4000, RADIO) == tx_cost(4000, 0.0, RADIO)


def test_continuity_at_crossover():
    d0 = crossover_distance(RADIO)
    below = 4000 * (RADIO.e_elec + RADIO.e_fs * d0 * d0)
    at = tx_cost(4000, d0, RADIO)
    assert at == pytest.approx(below, rel=1e-12)


def test_tx_cost_monotone_in_distance():
    distances = [0.0, 10.0, 50.0, 87.0, crossover_distance(RADIO), 90.0, 150.0, 300.0]
    costs = [tx_cost(4000, d, RADIO) for d in distances]
    assert all(a < b for a, b in zip(costs, costs[1:]))


def test_tx_cost_exactly_linear_in_bits():
    for d in (0.0, 17.5, 50.0, 87.0, 90.0, 200.0):
        assert tx_cost(8000, d, RADIO) == 2.0 * tx_cost(4000, d, RADIO)


def test_aggregation_cost_scales_with_signals():
    one = aggregation_cost(4000, 1, RADIO)
    assert one == pytest.approx(2.0e-5, rel=1e-12)
    assert aggregation_cost(4000, 12, RADIO) == 12.0 * one
