"""Rollout and Monte Carlo estimator tests: reproducibility, per-sample
seeding, and agreement with the exact outcome law."""

import numpy as np
from conftest import HashedCentralizedStrategy, HashedMemberStrategy

from teamdp import DecentralizedStrategy, SimConfig, estimate_cost, rollout
from teamdp import oracle


def test_rollout_reproducible(toy2):
    model, structure = toy2
    g = HashedCentralizedStrategy(model, salt=1)
    a = rollout(model, g, seed=42)
    b = rollout(model, g, seed=42)
    assert a.trajectory == b.trajectory
    assert a.cost == b.cost
    assert a.probability is None


def test_rollout_trajectory_is_consistent(toy2):
    model, structure = toy2
    g = HashedCentralizedStrategy(model, salt=1)
    for seed in range(20):
        out = rollout(model, g, seed=seed)
        traj = out.trajectory
        assert len(traj.states) == model.horizon + 1
        assert len(traj.actions) == model.horizon
        assert len(traj.observations) == model.horizon
        # recorded actions replay the strategy on the recorded history
        for t, u in enumerate(traj.actions):
            assert u == g.joint_action(traj.observations[:t], traj.actions[:t], t)
        # realized cost matches the tables along the path
        cost = sum(
            float(model.stage_cost[t, traj.states[t], model.flat_action(u)])
            for t, u in enumerate(traj.actions)
        ) + float(model.terminal_cost[traj.states[-1]])
        assert abs(cost - out.cost) <= 1e-12


def test_estimate_matches_manual_per_sample_rollouts(toy2):
    """Sample i depends only on seed+i, so the estimate equals the mean of
    individually replayed rollouts."""
    model, structure = toy2
    g = HashedCentralizedStrategy(model, salt=4)
    est = estimate_cost(model, g, SimConfig(samples=64, seed=100))
    singles = [rollout(model, g, seed=100 + i).cost for i in range(64)]
    assert est.mean == float(np.sum(singles) / 64)
    assert est.samples == 64 and est.seed == 100


def test_estimate_single_sample_has_zero_std_error(toy2):
    model, structure = toy2
    g = HashedCentralizedStrategy(model, salt=4)
    est = estimate_cost(model, g, SimConfig(samples=1, seed=9))
    assert est.std_error == 0.0
    assert est.mean == rollout(model, g, seed=9).cost


def test_estimate_within_three_std_errors_of_exact(toy2):
    model, structure = toy2
    profile = DecentralizedStrategy(
        model,
        structure,
        [HashedMemberStrategy(model, structure, k, salt=7 + k) for k in range(2)],
    )
    exact = oracle.exact_cost(model, structure, profile)
    est = estimate_cost(model, profile, SimConfig(samples=4000, seed=123))
    assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_seed_wraps_at_uint64(toy2):
    model, structure = toy2
    g = HashedCentralizedStrategy(model, salt=2)
    big = 2**64 - 1
    est = estimate_cost(model, g, SimConfig(samples=2, seed=big))
    wrapped = [
        rollout(model, g, seed=big).cost,
        rollout(model, g, seed=0).cost,
    ]
    assert est.mean == float(np.sum(wrapped) / 2)
