"""Rollout and Monte Carlo estimator tests: reproducibility, per-sample
seeding, agreement with the exact outcome law, the inverse-CDF sampler
against ``Generator.choice``, the per-history action memo, and the
batched kernel: its uniforms against ``default_rng``, its blocks and its
rows against single rollouts."""

import dataclasses
import math
from bisect import bisect_right

import numpy as np
import pytest
from conftest import (
    HashedCentralizedStrategy,
    HashedMemberStrategy,
    flip_transition,
    random_model,
    symmetric_kernel,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from teamdp import DecentralizedStrategy, InformationStructure, SimConfig, estimate_cost, rollout
from teamdp import oracle, sim


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("initial_dist", np.array([1.2, -0.2]), "Probabilities are not non-negative"),
        ("initial_dist", np.array([0.6, 0.5]), "Probabilities do not sum to 1"),
        ("initial_dist", np.array([np.nan, 1.0]), "Probabilities contain NaN"),
        ("transition", flip_transition(-0.1, 4), "Probabilities are not non-negative"),
        ("observation_kernels", (np.array([[0.8, 0.3], [0.3, 0.8]]),) * 2,
         "Probabilities do not sum to 1"),
    ],
)
def test_rollout_rejects_rows_that_choice_rejects(toy2, field, value, message):
    """An unvalidated model with a bad row raises numpy's ValueError.  Every
    row of the field is bad, so the first draw from it fails either way."""
    model, structure = toy2
    bad = dataclasses.replace(model, **{field: value})
    g = HashedCentralizedStrategy(bad, salt=1)
    with pytest.raises(ValueError, match=message):
        rollout(bad, g, seed=0)


def _sampler_rows():
    r = np.random.default_rng(31)
    rows = [r.dirichlet(np.ones(n)) for n in (2, 3, 4, 5, 6) for _ in range(30)]
    rows += [
        np.array([0.0, 0.3, 0.7]),  # leading zero
        np.array([0.4, 0.0, 0.6]),  # interior zero
        np.array([0.5, 0.5, 0.0]),  # trailing zero
        np.array([0.0, 0.0, 1.0, 0.0]),
        np.array([0.2, 0.0, 0.0, 0.3, 0.0, 0.5]),
        np.array([0.3, 0.7 + 1e-9]),  # off 1 by less than choice's tolerance
        np.array([1.0]),  # single entry
    ]
    for n in (3, 5):  # random rows with random zeros
        for _ in range(22):
            p = r.dirichlet(np.ones(n)) * (r.uniform(size=n) < 0.6)
            p[r.integers(n)] += 0.5
            rows.append(p / p.sum())
    return rows


def test_inverse_cdf_draw_matches_generator_choice():
    """bisect_right over a table row takes the same index from the same
    stream position as ``Generator.choice(n, p=row)``, and never an index
    of probability zero."""
    draws = 0
    for j, row in enumerate(_sampler_rows()):
        n = len(row)
        cdf = sim._cdf(row, n)
        ours, theirs = np.random.default_rng(1000 + j), np.random.default_rng(1000 + j)
        for _ in range(200):
            idx = bisect_right(cdf, ours.random())
            assert idx == theirs.choice(n, p=row)
            assert row[idx] > 0.0
            assert ours.bit_generator.state == theirs.bit_generator.state
            draws += 1
    assert draws >= 40_000


class _CountingProfile(DecentralizedStrategy):
    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0

    def joint_action(self, obs_seq, act_seq, t):
        self.calls += 1
        return super().joint_action(obs_seq, act_seq, t)


def _zero_entry_model():
    model = random_model(5, num_states=3, horizon=3, obs_sizes=(2, 3), positive=False)
    return model, InformationStructure("delayed_sharing", delays=(1, 1))


@pytest.mark.parametrize("case", ["toy2", "zero_entry"])
def test_memoized_estimate_equals_plain_rollouts(case, request):
    """The strategy is asked once per distinct realized observation path,
    and the estimate is, to the bit, the mean of fresh per-sample rollouts."""
    model, structure = request.getfixturevalue("toy2") if case == "toy2" else _zero_entry_model()
    assert case == "toy2" or (model.transition == 0).any()
    members = [HashedMemberStrategy(model, structure, k, salt=3 + k) for k in range(2)]
    profile = _CountingProfile(model, structure, members)
    n, seed = 400, 77
    est = estimate_cost(model, profile, SimConfig(samples=n, seed=seed))
    fresh = DecentralizedStrategy(model, structure, members)
    outs = [rollout(model, fresh, seed=seed + i) for i in range(n)]
    singles = [o.cost for o in outs]
    assert est.mean == float(np.sum(singles) / n)
    paths = {o.trajectory.observations[:t] for o in outs for t in range(model.horizon)}
    assert profile.calls == len(paths) < n * model.horizon


def test_estimate_bits_are_pinned():
    """Mean and standard error of one seeded zero-entry scenario, as the
    per-draw ``Generator.choice`` sampler gave them."""
    model, structure = _zero_entry_model()
    profile = DecentralizedStrategy(
        model, structure, [HashedMemberStrategy(model, structure, k, salt=3 + k) for k in range(2)]
    )
    est = estimate_cost(model, profile, SimConfig(samples=2000, seed=2024))
    assert est.mean.hex() == "0x1.18254a3c64347p+1"
    assert est.std_error.hex() == "0x1.0bb928b663521p-7"


def _default_rng_uniforms(seeds, m):
    return np.array([np.random.default_rng(int(s)).random(m) for s in seeds])


@pytest.mark.parametrize("m", [1, 10, 33])
def test_uniforms_equal_default_rng(m):
    """Seeds of one and two uint32 words, the word and sign boundaries,
    and the block seeds of an estimate that wraps at 2**64."""
    seeds = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    wrapped = np.uint64(2**64 - 3) + np.arange(6, dtype=np.uint64)
    assert wrapped.tolist() == [(2**64 - 3 + i) % 2**64 for i in range(6)]
    for block in (seeds, wrapped):
        ours = sim._uniforms(block, m)
        assert ours.dtype == np.float64 and ours.shape == (len(block), m)
        assert (ours == _default_rng_uniforms(block, m)).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8), st.integers(1, 12))
def test_uniforms_equal_default_rng_on_any_seeds(seeds, m):
    block = np.array(seeds, dtype=np.uint64)
    assert (sim._uniforms(block, m) == _default_rng_uniforms(seeds, m)).all()


def test_draw_counts_cdf_entries_at_or_below_u():
    """The count of entries ``<= u`` is ``bisect_right``, also when u is
    exactly an entry of the row, as after a zero-probability index."""
    r = np.random.default_rng(5)
    for row in _sampler_rows():
        cdf = sim._cdf(row, len(row))
        u = np.concatenate([cdf[cdf < 1.0], r.random(20)])
        assert sim._draw(cdf, u).tolist() == [bisect_right(cdf.tolist(), v) for v in u]


def _blocked_estimate(monkeypatch, block):
    monkeypatch.setattr(sim, "_BLOCK", block)
    model, structure = _zero_entry_model()
    members = [HashedMemberStrategy(model, structure, k, salt=3 + k) for k in range(2)]
    profile = _CountingProfile(model, structure, members)
    est = estimate_cost(model, profile, SimConfig(samples=300, seed=2**64 - 100))
    return est.mean.hex(), est.std_error.hex(), profile.calls


def test_blocks_do_not_change_the_estimate(monkeypatch):
    """Blocks of 1, 7 and the default size give the same bits from the
    same number of strategy calls: the path trie is shared by blocks."""
    default = _blocked_estimate(monkeypatch, sim._BLOCK)
    assert _blocked_estimate(monkeypatch, 1) == default
    assert _blocked_estimate(monkeypatch, 7) == default


def _choice_rollout_cost(model, strategy, rng):
    """One rollout's cost as a plain per-sample loop: every draw a
    ``Generator.choice`` on the model row, the strategy asked at every
    stage, the costs added in stage order."""
    S = model.num_states
    x = rng.choice(S, p=model.initial_dist)
    obs_seq, act_seq, cost = (), (), 0.0
    for t in range(model.horizon):
        u = tuple(int(v) for v in strategy.joint_action(obs_seq, act_seq, t))
        a = model.flat_action(u)
        cost += float(model.stage_cost[t, x, a])
        x = rng.choice(S, p=model.transition[x, a])
        y = tuple(
            int(rng.choice(n, p=k[x]))
            for k, n in zip(model.observation_kernels, model.observation_sizes)
        )
        obs_seq, act_seq = obs_seq + (y,), act_seq + (u,)
    return cost + float(model.terminal_cost[x])


@pytest.mark.parametrize("case", ["toy2", "zero_entry"])
def test_estimate_equals_a_choice_loop(case, request, monkeypatch):
    """The batched estimate, over several blocks and across the 2**64
    seed wrap, has the bits of the per-sample ``Generator.choice`` loop."""
    model, structure = request.getfixturevalue("toy2") if case == "toy2" else _zero_entry_model()
    members = [HashedMemberStrategy(model, structure, k, salt=3 + k) for k in range(2)]
    profile = DecentralizedStrategy(model, structure, members)
    monkeypatch.setattr(sim, "_BLOCK", 64)
    n, seed = 300, 2**64 - 150
    est = estimate_cost(model, profile, SimConfig(samples=n, seed=seed))
    costs = np.array([
        _choice_rollout_cost(model, profile, np.random.default_rng((seed + i) % 2**64))
        for i in range(n)
    ])
    assert est.mean.hex() == float(np.sum(costs) / n).hex()
    assert est.std_error.hex() == float(np.std(costs, ddof=1) / math.sqrt(n)).hex()


@pytest.mark.parametrize("case", ["toy2", "zero_entry"])
def test_rollout_is_a_kernel_row(case, request):
    """Row i of one kernel pass over a block equals ``rollout`` with the
    seed of row i: cost, states, observations and actions."""
    model, structure = request.getfixturevalue("toy2") if case == "toy2" else _zero_entry_model()
    g = HashedCentralizedStrategy(model, salt=6)
    seeds = np.arange(2**32 - 20, 2**32 + 20, dtype=np.uint64)
    m = 1 + model.horizon * (1 + model.num_members)
    paths = sim._Paths(model, g)
    costs, states, nodes = sim._run(model, sim._tables(model), paths, sim._uniforms(seeds, m))
    for i, seed in enumerate(seeds.tolist()):
        one = rollout(model, g, seed=seed)
        assert one.cost == costs[i]
        assert one.trajectory.states == tuple(states[i].tolist())
        assert (one.trajectory.observations, one.trajectory.actions) == paths.histories[nodes[i]]
