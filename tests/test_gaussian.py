"""Closed-form Gaussian example: frozen optimal gains and costs for both
covariance signs, grid and Monte Carlo cross-checks, and the optimality
property over random linear strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamdp import gaussian
from teamdp.gaussian import (
    GaussianInstance,
    LinearStrategy,
    closed_form,
    dp_walkthrough,
    expected_cost,
    linear_search,
    mc_estimate,
)
from teamdp.gaussian import _cost_grid


def test_closed_form_negative_covariance():
    sol = closed_form(GaussianInstance(-0.5))
    assert sol.strategy == LinearStrategy(0.5, 0.5, -0.25)
    assert sol.optimal_cost == 0.1875


def test_closed_form_positive_covariance():
    sol = closed_form(GaussianInstance(0.5))
    assert sol.strategy == LinearStrategy(1.5, 0.5, -0.75)
    assert sol.optimal_cost == 0.1875


def test_closed_form_independent_components():
    sol = closed_form(GaussianInstance(0.0))
    assert sol.strategy == LinearStrategy(1.0, 0.5, -0.5)
    assert sol.optimal_cost == 0.25


def test_expected_cost_of_closed_form_equals_reported_optimum():
    for c in (-0.9, -0.5, 0.0, 0.3, 0.8):
        sol = closed_form(GaussianInstance(c))
        assert abs(expected_cost(GaussianInstance(c), sol.strategy) - sol.optimal_cost) <= 1e-15


def test_doing_nothing_costs_the_total_variance():
    for c in (-0.5, 0.0, 0.5):
        idle = LinearStrategy(0.0, 0.0, 0.0)
        assert abs(expected_cost(GaussianInstance(c), idle) - (1.0 + c)) <= 1e-15


def test_grid_search_recovers_closed_form():
    for c in (-0.5, 0.5):
        inst = GaussianInstance(c)
        sol = closed_form(inst)
        strat, cost = linear_search(
            inst,
            np.linspace(0.0, 2.0, 201),
            np.linspace(0.0, 1.0, 101),
            np.linspace(-1.0, 0.0, 101),
        )
        assert abs(strat.first_gain - sol.strategy.first_gain) <= 1e-2 + 1e-12
        assert abs(strat.pooled_gain - sol.strategy.pooled_gain) <= 1e-2 + 1e-12
        assert abs(strat.correction_gain - sol.strategy.correction_gain) <= 1e-2 + 1e-12
        assert abs(cost - sol.optimal_cost) <= 1e-3


def full_grid_search(instance, first, pooled, correction):
    """The grid search as one argmin over the whole meshgrid product."""
    A, B, D = np.meshgrid(first, pooled, correction, indexing="ij")
    costs = _cost_grid(instance, A, B, D)
    i = np.unravel_index(int(np.argmin(costs)), costs.shape)
    return LinearStrategy(float(A[i]), float(B[i]), float(D[i])), float(costs[i])


def bits(result):
    strat, cost = result
    return tuple(
        float(v).hex()
        for v in (strat.first_gain, strat.pooled_gain, strat.correction_gain, cost)
    )


# (covariance, first, pooled, correction)
SEARCH_GRIDS = [
    (-0.5, np.linspace(0.0, 2.0, 23), np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 0.0, 3)),
    (0.3, np.linspace(-1.0, 3.0, 7), np.linspace(0.0, 1.0, 4), np.linspace(-1.0, 1.0, 9)),
    # pooled gain 1 and correction gain 0 leave a cost even in the first
    # gain, so -0.5 and 0.5 tie exactly and the first (-0.5) must win
    (0.0, np.array([-1.0, -0.5, 0.5, 1.0]), np.array([1.0]), np.array([0.0])),
    (0.2, np.array([0.0, np.nan, 1.0, np.nan]), np.linspace(0.0, 1.0, 3), np.array([-1.0, 0.0])),
    # one first gain, so only the pooled axis can be split: 11 pooled rows
    # are a multiple of neither 5 (40 points) nor 1
    (0.4, np.array([0.7]), np.linspace(0.0, 1.0, 11), np.linspace(-1.0, 1.0, 7)),
    # with c = 0 and the first and correction gains 0 the cost is
    # (1 - B)^2 + B^2, so pooled gains 0.25 and 0.75 tie exactly and the
    # first must win; and a nan in a later pooled slab beats every number
    (0.0, np.array([0.0]), np.array([0.0, 0.25, 0.75, 1.0]), np.array([0.0])),
    (0.2, np.array([0.5]), np.array([0.0, np.nan, 1.0, np.nan]), np.array([-1.0, 0.0])),
]


@pytest.mark.parametrize("slab", [1, 40, 100, 1 << 16])
def test_slabbed_search_matches_full_grid(slab, monkeypatch):
    """Slabs of 1, 2 and 6 first-gain rows (23 is a multiple of none),
    slabs of 1 and 5 pooled rows within one first gain, exact ties across
    slabs of either axis, and nan, which argmin takes first."""
    monkeypatch.setattr(gaussian, "SLAB_POINTS", slab)
    for c, first, pooled, correction in SEARCH_GRIDS:
        inst = GaussianInstance(c)
        found = linear_search(inst, first, pooled, correction)
        assert bits(found) == bits(full_grid_search(inst, first, pooled, correction))
    tie = SEARCH_GRIDS[2]
    assert linear_search(GaussianInstance(tie[0]), *tie[1:])[0].first_gain == -0.5
    tie = SEARCH_GRIDS[5]
    assert linear_search(GaussianInstance(tie[0]), *tie[1:])[0].pooled_gain == 0.25


def test_mc_estimate_within_three_std_errors():
    for c in (-0.5, 0.5):
        inst = GaussianInstance(c)
        sol = closed_form(inst)
        mean, se = mc_estimate(inst, sol.strategy, samples=200_000, seed=11)
        assert abs(mean - sol.optimal_cost) <= 3.0 * se


def test_mc_estimate_reproducible():
    inst = GaussianInstance(-0.5)
    strat = closed_form(inst).strategy
    assert mc_estimate(inst, strat, samples=1000, seed=3) == mc_estimate(
        inst, strat, samples=1000, seed=3
    )


@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(-0.99, 0.99),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    d=st.floats(-3.0, 3.0),
)
def test_closed_form_is_a_global_minimum(c, a, b, d):
    inst = GaussianInstance(c)
    sol = closed_form(inst)
    assert expected_cost(inst, LinearStrategy(a, b, d)) >= sol.optimal_cost - 1e-12


def test_covariance_domain_is_open():
    with pytest.raises(ValueError):
        GaussianInstance(1.0)
    with pytest.raises(ValueError):
        GaussianInstance(-1.0)
    with pytest.raises(ValueError):
        GaussianInstance(2.5)


def test_walkthrough_numbers_assemble_the_solution():
    for c in (-0.5, 0.0, 0.5):
        steps = dp_walkthrough(c)
        assert len(steps) == 3
        sol = closed_form(GaussianInstance(c))
        final = steps[-1]
        assert final["first_gain"] == sol.strategy.first_gain
        assert final["pooled_gain"] == sol.strategy.pooled_gain
        assert final["correction_gain"] == sol.strategy.correction_gain
        assert final["optimal_cost"] == sol.optimal_cost
