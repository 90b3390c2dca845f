"""Consistency checks for the enumeration oracles.

Everything else in the package is validated against these functions, so
here they are checked against each other and against direct recomputation
from trajectory tables, never against the solvers they certify.
"""

import ast
import dataclasses
from functools import partial

import numpy as np
import pytest
from conftest import HashedCentralizedStrategy, HashedMemberStrategy, random_model

from teamdp import (
    BudgetExceededError,
    CentralizedTableStrategy,
    DecentralizedStrategy,
    InformationStructure,
    InvariantError,
    MemberTableStrategy,
    extract_views,
)
from teamdp import oracle
from teamdp.model import view_known
from teamdp.sim import rollout

POOLED_VARIANTS = [
    InformationStructure("delayed_sharing", delays=(1, 1)),
    InformationStructure("periodic_sharing", period=1),
    InformationStructure("delayed_observation_sharing", delays=(1, 1)),
    InformationStructure("delayed_control_sharing", delays=(1, 1)),
]


def trajectory_cost(model, traj) -> float:
    """Realized cost recomputed straight from the cost tables."""
    total = 0.0
    for t, u in enumerate(traj.actions):
        total += float(model.stage_cost[t, traj.states[t], model.flat_action(u)])
    return total + float(model.terminal_cost[traj.states[-1]])


def hashed_profile(model, structure, salt):
    return DecentralizedStrategy(
        model,
        structure,
        [
            HashedMemberStrategy(model, structure, k, salt=salt + 31 * k)
            for k in range(model.num_members)
        ],
    )


# ---------------------------------------------------------------------------
# outcome expansion


def test_outcomes_conserve_probability(toy2):
    model, structure = toy2
    outs = oracle.enumerate_outcomes(model, HashedCentralizedStrategy(model, salt=3))
    assert len(outs) == 128  # 2 initial states x (2 states x 4 joint obs)^2
    assert all(o.probability > 0.0 for o in outs)
    assert abs(sum(o.probability for o in outs) - 1.0) <= 1e-12


def test_outcome_costs_match_cost_tables(toy2):
    model, structure = toy2
    outs = oracle.enumerate_outcomes(model, HashedCentralizedStrategy(model, salt=3))
    for o in outs:
        assert abs(o.cost - trajectory_cost(model, o.trajectory)) <= 1e-12


def test_exact_cost_equals_outcome_expectation(toy2):
    model, structure = toy2
    for salt in range(5):
        g = HashedCentralizedStrategy(model, salt=salt)
        outs = oracle.enumerate_outcomes(model, g)
        expected = sum(o.probability * o.cost for o in outs)
        assert abs(expected - oracle.exact_cost(model, structure, g)) <= 1e-12


def test_exact_cost_equals_outcome_expectation_random_instances():
    for seed in range(4):
        model = random_model(seed, num_states=2)
        structure = POOLED_VARIANTS[seed % len(POOLED_VARIANTS)]
        g = hashed_profile(model, structure, salt=seed)
        outs = oracle.enumerate_outcomes(model, g)
        assert abs(sum(o.probability for o in outs) - 1.0) <= 1e-12
        expected = sum(o.probability * o.cost for o in outs)
        assert abs(expected - oracle.exact_cost(model, structure, g)) <= 1e-12


# ---------------------------------------------------------------------------
# conditional cost-to-go


def test_cost_to_go_from_empty_prefix_is_total_cost(toy2):
    model, structure = toy2
    g = HashedCentralizedStrategy(model, salt=7)
    assert oracle.exact_cost_to_go(model, g, (), (), 0) == oracle.exact_cost(
        model, structure, g
    )


def test_cost_to_go_tower_property(toy2):
    """Stage cost at t=0 plus the prefix-weighted average of the t=1
    conditional costs-to-go recovers the total expected cost."""
    model, structure = toy2
    g = HashedCentralizedStrategy(model, salt=9)
    u0 = g.joint_action((), (), 0)
    a0 = model.flat_action(u0)
    stage0 = float(model.initial_dist @ model.stage_cost[0, :, a0])
    pred = model.initial_dist @ model.transition[:, a0, :]
    total = stage0
    for y in model.joint_observations:
        like = np.array(
            [
                np.prod([model.observation_kernels[k][x, y[k]] for k in range(2)])
                for x in range(model.num_states)
            ]
        )
        p_y = float(pred @ like)
        if p_y == 0.0:
            continue
        total += p_y * oracle.exact_cost_to_go(model, g, (y,), (u0,), 1)
    assert abs(total - oracle.exact_cost(model, structure, g)) <= 1e-12


def _default_profile():
    """random_model(1, horizon=2) under delayed sharing (1, 1), with a
    profile of two empty member tables that answer 0 everywhere."""
    model = random_model(1, horizon=2)
    structure = InformationStructure("delayed_sharing", delays=(1, 1))
    members = [MemberTableStrategy(model, structure, k, {}, default=0) for k in range(2)]
    g = DecentralizedStrategy(model, structure, members)
    assert oracle.exact_cost(model, structure, g) == 1.4868931919010824
    return model, g


def test_cost_to_go_refuses_a_negative_time():
    # once 2.333521519265733, from three stages, the first at stage_cost[-1]
    model, g = _default_profile()
    with pytest.raises(ValueError, match="time -1 outside 0..2"):
        oracle.exact_cost_to_go(model, g, (), (), -1)


def test_cost_to_go_refuses_prefixes_longer_than_the_time():
    # once 1.1377879782490687, the value of the length-1 prefix
    model, g = _default_profile()
    y, u = model.joint_observations[0], (0, 0)
    assert oracle.exact_cost_to_go(model, g, (y,), (u,), 1) == 1.1377879782490687
    with pytest.raises(ValueError, match="prefixes of 2 observations and 2 actions at time 1"):
        oracle.exact_cost_to_go(model, g, (y, y), (u, u), 1)


def test_cost_to_go_refuses_prefixes_shorter_than_the_time():
    # once an IndexError
    model, g = _default_profile()
    with pytest.raises(ValueError, match="prefixes of 0 observations and 0 actions at time 2"):
        oracle.exact_cost_to_go(model, g, (), (), 2)


# ---------------------------------------------------------------------------
# posterior oracle vs. conditioned outcome law


def test_posterior_matches_conditioned_outcomes(toy2):
    model, structure = toy2
    g = HashedCentralizedStrategy(model, salt=5)
    outs = oracle.enumerate_outcomes(model, g)
    traj = rollout(model, g, seed=4).trajectory
    views = extract_views(structure, traj, 2, None)
    known = view_known(views)

    def consistent(o):
        for (time, k, kind), v in known.items():
            recorded = (
                o.trajectory.observations[time - 1][k]
                if kind == "obs"
                else o.trajectory.actions[time][k]
            )
            if recorded != v:
                return False
        return True

    mass = np.zeros(model.num_states)
    for o in outs:
        if consistent(o):
            mass[o.trajectory.states[2]] += o.probability
    post = oracle.exact_posterior(model, g, views)
    assert np.max(np.abs(mass / mass.sum() - post)) <= 1e-12


# ---------------------------------------------------------------------------
# exhaustive strategy searches


def test_toy2_enumeration_frozen(toy2):
    model, structure = toy2
    rc = oracle.enumerate_centralized(model, structure)
    rd = oracle.enumerate_decentralized(model, structure)
    assert rc.num_strategies == 1024
    assert rd.num_strategies == 64
    assert rc.optimal_cost == pytest.approx(1.14664, abs=1e-12)
    assert rd.optimal_cost == pytest.approx(1.15432, abs=1e-12)
    # re-evaluating the returned strategies reproduces the reported optima
    assert oracle.exact_cost(model, structure, rc.strategy) == rc.optimal_cost
    assert oracle.exact_cost(model, structure, rd.strategy) == rd.optimal_cost


def test_single_member_classes_coincide(chain1):
    """With one member the view is the full history, so both searches rank
    the same candidate set."""
    model, structure = chain1
    rc = oracle.enumerate_centralized(model, structure)
    rd = oracle.enumerate_decentralized(model, structure)
    assert rc.num_strategies == rd.num_strategies == 8
    assert rc.optimal_cost == rd.optimal_cost


def test_centralized_dominates_decentralized(toy2):
    model, structure = toy2
    base = oracle.enumerate_centralized(model, structure).optimal_cost
    for structure2 in POOLED_VARIANTS:
        rd = oracle.enumerate_decentralized(model, structure2)
        assert base <= rd.optimal_cost + 1e-12


def test_enumeration_dominates_arbitrary_strategies(toy2):
    model, structure = toy2
    rc = oracle.enumerate_centralized(model, structure)
    rd = oracle.enumerate_decentralized(model, structure)
    for salt in range(10):
        cen = oracle.exact_cost(model, structure, HashedCentralizedStrategy(model, salt=salt))
        dec = oracle.exact_cost(model, structure, hashed_profile(model, structure, salt))
        assert rc.optimal_cost <= cen + 1e-12
        assert rc.optimal_cost <= dec + 1e-12  # profiles are a subset
        assert rd.optimal_cost <= dec + 1e-12


def test_enumeration_is_deterministic(toy2):
    model, structure = toy2
    first = oracle.enumerate_decentralized(model, structure)
    second = oracle.enumerate_decentralized(model, structure)
    assert first.optimal_cost == second.optimal_cost
    for a, b in zip(first.strategy.members, second.strategy.members):
        assert a.table == b.table


def test_budget_guard(toy2):
    model, structure = toy2
    with pytest.raises(BudgetExceededError) as info:
        oracle.enumerate_centralized(model, structure, budget=10)
    assert info.value.budget == 10
    assert info.value.observed > 10
    with pytest.raises(BudgetExceededError) as info:
        oracle.enumerate_decentralized(model, structure, budget=3)
    assert info.value.budget == 3
    assert info.value.observed > 3


# ---------------------------------------------------------------------------
# the decentralized search, pinned


PIN_STRUCTURES = POOLED_VARIANTS + [
    InformationStructure("delayed_sharing", delays=(2, 2)),
    InformationStructure("delayed_sharing", delays=(2, 1)),
    InformationStructure("delayed_sharing", delays=(1, 1, 1)),
]
PIN_SHAPES = {
    "k2": {},
    "y3": {"obs_sizes": (3, 2)},
    "k3": {"num_members": 3},
    "a32": {"action_sizes": (3, 2)},
}

# (seed, shape, horizon, positive, structure index) -> (num_strategies,
# optimal_cost.hex(), winning member tables), as recorded before the
# decentralized search scored profiles in one pass.
PINNED_DECENTRALIZED = {
    (41, "k2", 1, True, 0): (4, "0x1.9b6051b6283d4p-1", (
        {"t=0;k=0;c[];p[]": 1},
        {"t=0;k=1;c[];p[]": 1},
    )),
    (51, "k2", 1, True, 1): (4, "0x1.a0ebafc6f66c8p-1", (
        {"t=0;k=0;c[];p[]": 1},
        {"t=0;k=1;c[];p[]": 1},
    )),
    (61, "k2", 1, True, 2): (4, "0x1.2c2bdbb686d37p+0", (
        {"t=0;k=0;c[];p[]": 1},
        {"t=0;k=1;c[];p[]": 0},
    )),
    (71, "k2", 1, True, 3): (4, "0x1.3ab8c2aadc029p-1", (
        {"t=0;k=0;c[];p[]": 1},
        {"t=0;k=1;c[];p[]": 0},
    )),
    (81, "k2", 1, True, 4): (4, "0x1.6ebd0e6c8e2dcp-1", (
        {"t=0;k=0;c[];p[]": 0},
        {"t=0;k=1;c[];p[]": 0},
    )),
    (91, "k2", 1, True, 5): (4, "0x1.a32b5dc7b4c00p-1", (
        {"t=0;k=0;c[];p[]": 0},
        {"t=0;k=1;c[];p[]": 0},
    )),
    (42, "k2", 2, True, 0): (64, "0x1.ab0e1e881646ep-1", (
        {"t=0;k=0;c[];p[]": 0, "t=1;k=0;c[a0^0:0,a0^1:0];p[o1:0]": 1,
         "t=1;k=0;c[a0^0:0,a0^1:0];p[o1:1]": 1},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[a0^0:0,a0^1:0];p[o1:0]": 1,
         "t=1;k=1;c[a0^0:0,a0^1:0];p[o1:1]": 1},
    )),
    (52, "k2", 2, True, 1): (64, "0x1.cf62909ff4b64p-1", (
        {"t=0;k=0;c[];p[]": 0, "t=1;k=0;c[];p[a0:0,o1:0]": 0, "t=1;k=0;c[];p[a0:0,o1:1]": 0},
        {"t=0;k=1;c[];p[]": 1, "t=1;k=1;c[];p[a0:1,o1:0]": 1, "t=1;k=1;c[];p[a0:1,o1:1]": 1},
    )),
    (62, "k2", 2, True, 2): (64, "0x1.292848c9d25fbp+0", (
        {"t=0;k=0;c[];p[]": 0, "t=1;k=0;c[];p[a0:0,o1:0]": 0, "t=1;k=0;c[];p[a0:0,o1:1]": 0},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[];p[a0:0,o1:0]": 0, "t=1;k=1;c[];p[a0:0,o1:1]": 0},
    )),
    (72, "k2", 2, True, 3): (64, "0x1.5ed9a1b8168b9p-1", (
        {"t=0;k=0;c[];p[]": 1, "t=1;k=0;c[a0^0:1,a0^1:0];p[o1:0]": 1,
         "t=1;k=0;c[a0^0:1,a0^1:0];p[o1:1]": 0},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[a0^0:1,a0^1:0];p[o1:0]": 1,
         "t=1;k=1;c[a0^0:1,a0^1:0];p[o1:1]": 1},
    )),
    (82, "k2", 2, True, 4): (64, "0x1.06179ce43cd41p+0", (
        {"t=0;k=0;c[];p[]": 0, "t=1;k=0;c[];p[a0:0,o1:0]": 1, "t=1;k=0;c[];p[a0:0,o1:1]": 1},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[];p[a0:0,o1:0]": 0, "t=1;k=1;c[];p[a0:0,o1:1]": 1},
    )),
    (92, "k2", 2, True, 5): (64, "0x1.761956eba60eap+0", (
        {"t=0;k=0;c[];p[]": 0, "t=1;k=0;c[a0^1:0];p[a0:0,o1:0]": 0,
         "t=1;k=0;c[a0^1:0];p[a0:0,o1:1]": 1},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[a0^1:0];p[o1:0]": 1, "t=1;k=1;c[a0^1:0];p[o1:1]": 1},
    )),
    (141, "k2", 1, False, 0): (4, "0x1.198b9a144bb92p-1", (
        {"t=0;k=0;c[];p[]": 0},
        {"t=0;k=1;c[];p[]": 0},
    )),
    (151, "k2", 1, False, 1): (4, "0x1.6afd5c98e7184p-1", (
        {"t=0;k=0;c[];p[]": 1},
        {"t=0;k=1;c[];p[]": 0},
    )),
    (161, "k2", 1, False, 2): (4, "0x1.bd96a5aa21ba5p-1", (
        {"t=0;k=0;c[];p[]": 1},
        {"t=0;k=1;c[];p[]": 1},
    )),
    (171, "k2", 1, False, 3): (4, "0x1.49c9985aee344p-1", (
        {"t=0;k=0;c[];p[]": 1},
        {"t=0;k=1;c[];p[]": 1},
    )),
    (181, "k2", 1, False, 4): (4, "0x1.41f5785b22f38p+0", (
        {"t=0;k=0;c[];p[]": 0},
        {"t=0;k=1;c[];p[]": 1},
    )),
    (191, "k2", 1, False, 5): (4, "0x1.41f1d836b784cp+0", (
        {"t=0;k=0;c[];p[]": 1},
        {"t=0;k=1;c[];p[]": 0},
    )),
    (142, "k2", 2, False, 0): (64, "0x1.358392b24a330p+0", (
        {"t=0;k=0;c[];p[]": 1, "t=1;k=0;c[a0^0:1,a0^1:1];p[o1:0]": 1,
         "t=1;k=0;c[a0^0:1,a0^1:1];p[o1:1]": 1},
        {"t=0;k=1;c[];p[]": 1, "t=1;k=1;c[a0^0:1,a0^1:1];p[o1:0]": 0,
         "t=1;k=1;c[a0^0:1,a0^1:1];p[o1:1]": 0},
    )),
    (152, "k2", 2, False, 1): (64, "0x1.707d36a4781eap+0", (
        {"t=0;k=0;c[];p[]": 0, "t=1;k=0;c[];p[a0:0,o1:0]": 0, "t=1;k=0;c[];p[a0:0,o1:1]": 0},
        {"t=0;k=1;c[];p[]": 1, "t=1;k=1;c[];p[a0:1,o1:0]": 1, "t=1;k=1;c[];p[a0:1,o1:1]": 1},
    )),
    (162, "k2", 2, False, 2): (44, "0x1.b71be79db13ccp-1", (
        {"t=0;k=0;c[];p[]": 1, "t=1;k=0;c[];p[a0:1,o1:0]": 0, "t=1;k=0;c[];p[a0:1,o1:1]": 0},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[];p[a0:0,o1:0]": 1, "t=1;k=1;c[];p[a0:0,o1:1]": 1},
    )),
    (172, "k2", 2, False, 3): (64, "0x1.c9b2341aabff7p-1", (
        {"t=0;k=0;c[];p[]": 0, "t=1;k=0;c[a0^0:0,a0^1:0];p[o1:0]": 0,
         "t=1;k=0;c[a0^0:0,a0^1:0];p[o1:1]": 0},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[a0^0:0,a0^1:0];p[o1:0]": 0,
         "t=1;k=1;c[a0^0:0,a0^1:0];p[o1:1]": 0},
    )),
    (182, "k2", 2, False, 4): (64, "0x1.567025ba8b965p+0", (
        {"t=0;k=0;c[];p[]": 1, "t=1;k=0;c[];p[a0:1,o1:0]": 0, "t=1;k=0;c[];p[a0:1,o1:1]": 0},
        {"t=0;k=1;c[];p[]": 1, "t=1;k=1;c[];p[a0:1,o1:0]": 1, "t=1;k=1;c[];p[a0:1,o1:1]": 1},
    )),
    (192, "k2", 2, False, 5): (40, "0x1.2ff6a4c1086dfp+0", (
        {"t=0;k=0;c[];p[]": 0, "t=1;k=0;c[a0^1:1];p[a0:0,o1:0]": 1,
         "t=1;k=0;c[a0^1:1];p[a0:0,o1:1]": 1},
        {"t=0;k=1;c[];p[]": 1, "t=1;k=1;c[a0^1:1];p[o1:0]": 0},
    )),
    (322, "a32", 2, True, 5): (216, "0x1.37195c1518876p+0", (
        {"t=0;k=0;c[];p[]": 1, "t=1;k=0;c[a0^1:0];p[a0:1,o1:0]": 0,
         "t=1;k=0;c[a0^1:0];p[a0:1,o1:1]": 0},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[a0^1:0];p[o1:0]": 1, "t=1;k=1;c[a0^1:0];p[o1:1]": 1},
    )),
    (310, "k3", 2, True, 6): (512, "0x1.3e94e4f75dc05p+0", (
        {"t=0;k=0;c[];p[]": 1, "t=1;k=0;c[a0^0:1,a0^1:0,a0^2:1];p[o1:0]": 1,
         "t=1;k=0;c[a0^0:1,a0^1:0,a0^2:1];p[o1:1]": 0},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[a0^0:1,a0^1:0,a0^2:1];p[o1:0]": 1,
         "t=1;k=1;c[a0^0:1,a0^1:0,a0^2:1];p[o1:1]": 1},
        {"t=0;k=2;c[];p[]": 1, "t=1;k=2;c[a0^0:1,a0^1:0,a0^2:1];p[o1:0]": 1,
         "t=1;k=2;c[a0^0:1,a0^1:0,a0^2:1];p[o1:1]": 1},
    )),
    (300, "y3", 2, False, 0): (64, "0x1.b390e578414bap-1", (
        {"t=0;k=0;c[];p[]": 1, "t=1;k=0;c[a0^0:1,a0^1:0];p[o1:1]": 1,
         "t=1;k=0;c[a0^0:1,a0^1:0];p[o1:2]": 1},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[a0^0:1,a0^1:0];p[o1:0]": 0,
         "t=1;k=1;c[a0^0:1,a0^1:0];p[o1:1]": 0},
    )),
    (320, "a32", 2, False, 0): (216, "0x1.12f782f9b9ce4p+0", (
        {"t=0;k=0;c[];p[]": 1, "t=1;k=0;c[a0^0:1,a0^1:1];p[o1:0]": 1,
         "t=1;k=0;c[a0^0:1,a0^1:1];p[o1:1]": 1},
        {"t=0;k=1;c[];p[]": 1, "t=1;k=1;c[a0^0:1,a0^1:1];p[o1:0]": 1,
         "t=1;k=1;c[a0^0:1,a0^1:1];p[o1:1]": 1},
    )),
    (301, "y3", 2, False, 1): (128, "0x1.c85360929d7ecp-1", (
        {"t=0;k=0;c[];p[]": 0, "t=1;k=0;c[];p[a0:0,o1:0]": 0, "t=1;k=0;c[];p[a0:0,o1:1]": 0,
         "t=1;k=0;c[];p[a0:0,o1:2]": 1},
        {"t=0;k=1;c[];p[]": 1, "t=1;k=1;c[];p[a0:1,o1:0]": 1, "t=1;k=1;c[];p[a0:1,o1:1]": 1},
    )),
    (321, "a32", 2, False, 1): (186, "0x1.28bbc80df47e4p+0", (
        {"t=0;k=0;c[];p[]": 2, "t=1;k=0;c[];p[a0:2,o1:0]": 1, "t=1;k=0;c[];p[a0:2,o1:1]": 2},
        {"t=0;k=1;c[];p[]": 1, "t=1;k=1;c[];p[a0:1,o1:0]": 1, "t=1;k=1;c[];p[a0:1,o1:1]": 0},
    )),
    (302, "y3", 2, False, 2): (64, "0x1.9ba82b2dc8231p+0", (
        {"t=0;k=0;c[];p[]": 0, "t=1;k=0;c[];p[a0:0,o1:0]": 1, "t=1;k=0;c[];p[a0:0,o1:2]": 1},
        {"t=0;k=1;c[];p[]": 0, "t=1;k=1;c[];p[a0:0,o1:0]": 1, "t=1;k=1;c[];p[a0:0,o1:1]": 0},
    )),
    (303, "y3", 2, False, 3): (112, "0x1.bd5ab14b79fb2p-1", (
        {"t=0;k=0;c[];p[]": 1, "t=1;k=0;c[a0^0:1,a0^1:1];p[o1:0]": 0,
         "t=1;k=0;c[a0^0:1,a0^1:1];p[o1:1]": 0, "t=1;k=0;c[a0^0:1,a0^1:1];p[o1:2]": 0},
        {"t=0;k=1;c[];p[]": 1, "t=1;k=1;c[a0^0:1,a0^1:1];p[o1:0]": 0,
         "t=1;k=1;c[a0^0:1,a0^1:1];p[o1:1]": 1},
    )),
    (311, "k3", 2, False, 6): (512, "0x1.480fd4fed9d40p+0", (
        {"t=0;k=0;c[];p[]": 1, "t=1;k=0;c[a0^0:1,a0^1:1,a0^2:1];p[o1:0]": 0,
         "t=1;k=0;c[a0^0:1,a0^1:1,a0^2:1];p[o1:1]": 0},
        {"t=0;k=1;c[];p[]": 1, "t=1;k=1;c[a0^0:1,a0^1:1,a0^2:1];p[o1:0]": 1,
         "t=1;k=1;c[a0^0:1,a0^1:1,a0^2:1];p[o1:1]": 1},
        {"t=0;k=2;c[];p[]": 1, "t=1;k=2;c[a0^0:1,a0^1:1,a0^2:1];p[o1:0]": 0,
         "t=1;k=2;c[a0^0:1,a0^1:1,a0^2:1];p[o1:1]": 0},
    )),
}


@pytest.mark.parametrize(
    "case", list(PINNED_DECENTRALIZED), ids=lambda c: "-".join(str(v) for v in c)
)
def test_decentralized_enumeration_pinned(case):
    seed, shape, horizon, positive, s = case
    model = random_model(seed, horizon=horizon, positive=positive, **PIN_SHAPES[shape])
    structure = PIN_STRUCTURES[s]
    rd = oracle.enumerate_decentralized(model, structure)
    count, cost, tables = PINNED_DECENTRALIZED[case]
    assert rd.num_strategies == count
    assert float(rd.optimal_cost).hex() == cost
    assert tuple(m.table for m in rd.strategy.members) == tables
    assert oracle.exact_cost(model, structure, rd.strategy) == rd.optimal_cost


def count_scored_profiles(monkeypatch) -> list:
    """Record every complete profile the decentralized search scores."""
    scored = []
    real = oracle._scored_profiles

    def counting(model, slots_at, nodes, t):
        for item in real(model, slots_at, nodes, t):
            if t == 0:
                scored.append(item)
            yield item

    monkeypatch.setattr(oracle, "_scored_profiles", counting)
    return scored


@pytest.mark.parametrize(
    "name, count",
    [
        ("toy2", 64),
        ("zero_entry", 44),
        ("zero_entry_uneven_actions", 186),
        ("delayed_control", 1536),
    ],
)
def test_decentralized_budget_pinned(name, count, toy2, monkeypatch):
    """Budget errors carry the observed counts recorded before the search
    stopped building last-stage children.  The count depends on the
    actions with zero-entry kernels, and under delayed control sharing,
    where a member sees a co-member's action without the observation
    behind it (that count once factorized to 1,024 and the search stopped
    on its own check)."""
    model, structure = {
        "toy2": toy2,
        "zero_entry": (random_model(162, positive=False), POOLED_VARIANTS[2]),
        "zero_entry_uneven_actions": (
            random_model(321, positive=False, action_sizes=(3, 2)),
            POOLED_VARIANTS[1],
        ),
        "delayed_control": (
            random_model(0, num_states=2, horizon=3, obs_sizes=(1, 2)),
            POOLED_VARIANTS[3],
        ),
    }[name]
    for budget, observed in ((1, 2), (count - 1, count)):
        with pytest.raises(BudgetExceededError) as info:
            oracle.enumerate_decentralized(model, structure, budget=budget)
        assert (info.value.budget, info.value.observed) == (budget, observed)
    scored = count_scored_profiles(monkeypatch)
    rd = oracle.enumerate_decentralized(model, structure, budget=count)
    assert rd.num_strategies == len(scored) == count


# support masks of the benchmark's compare scenario: the zero pattern
# depends on the joint action, so observation branches are pruned
MASK_TRANSITION = [
    [[0, 0, 1], [1, 1, 1], [1, 0, 1], [1, 1, 1]],
    [[0, 1, 0], [1, 0, 1], [0, 1, 0], [1, 1, 1]],
    [[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 0, 0]],
]
MASK_OBSERVATION = (
    [[0, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1]],
    [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]],
)


def masked_model(seed):
    base = random_model(seed, obs_sizes=(4, 4))

    def masked(kernel, mask):
        m = kernel * np.array(mask, dtype=float)
        return m / m.sum(axis=-1, keepdims=True)

    return dataclasses.replace(
        base,
        transition=masked(base.transition, MASK_TRANSITION),
        observation_kernels=tuple(
            masked(k, mask) for k, mask in zip(base.observation_kernels, MASK_OBSERVATION)
        ),
    )


def test_decentralized_search_work_is_bounded(monkeypatch):
    """The last stage builds no children and only the winner is re-walked
    by exact_cost (before: 33,800 branch splits and 1,024 exact_cost calls
    on this instance)."""
    model = masked_model(5)
    structure = POOLED_VARIANTS[0]
    occ0 = {x: float(p) for x, p in enumerate(model.initial_dist) if p > 0.0}
    stage0_children = len(list(oracle._split_by_obs(model, oracle._predict_occ(model, occ0, 0))))
    calls = {"split": 0, "exact_cost": 0}
    split, exact_cost = oracle._split_by_obs, oracle.exact_cost

    def counted_split(*args):
        calls["split"] += 1
        return split(*args)

    def counted_exact_cost(*args):
        calls["exact_cost"] += 1
        return exact_cost(*args)

    monkeypatch.setattr(oracle, "_split_by_obs", counted_split)
    monkeypatch.setattr(oracle, "exact_cost", counted_exact_cost)
    rd = oracle.enumerate_decentralized(model, structure)
    assert rd.num_strategies == 1024
    assert rd.optimal_cost.hex() == "0x1.1cd4eaa782959p+0"
    assert calls["exact_cost"] == 1
    assert calls["split"] <= stage0_children


def test_decentralized_search_checks_itself(toy2, monkeypatch):
    """The one-pass optimum must equal exact_cost of the winning tables to
    the bit, and the profiles scored must match the count."""
    model, structure = toy2
    exact_cost = oracle.exact_cost
    monkeypatch.setattr(
        oracle, "exact_cost", lambda *args: np.nextafter(exact_cost(*args), np.inf)
    )
    with pytest.raises(InvariantError, match="differs from exact_cost"):
        oracle.enumerate_decentralized(model, structure)
    monkeypatch.setattr(oracle, "exact_cost", exact_cost)
    monkeypatch.setattr(oracle, "_count_profiles", lambda *args: 63)
    with pytest.raises(InvariantError, match="scored 64"):
        oracle.enumerate_decentralized(model, structure)


def test_centralized_search_checks_itself(toy2, monkeypatch):
    """The centralized twin: the winning table's exact_cost must reproduce
    the one-pass optimum to the bit, and the tables scored must match the
    count."""
    model, structure = toy2
    exact_cost = oracle.exact_cost
    monkeypatch.setattr(
        oracle, "exact_cost", lambda *args: np.nextafter(exact_cost(*args), np.inf)
    )
    with pytest.raises(InvariantError, match="differs from exact_cost"):
        oracle.enumerate_centralized(model, structure)
    monkeypatch.setattr(oracle, "exact_cost", exact_cost)
    monkeypatch.setattr(oracle, "_count_profiles", lambda *args: 1023)
    with pytest.raises(InvariantError, match="scored 1024"):
        oracle.enumerate_centralized(model, structure)


@pytest.mark.parametrize("centralized", [True, False], ids=["centralized", "decentralized"])
@pytest.mark.parametrize("name, counts", [("toy2", (1024, 64)), ("zero_entry", (532, 44))])
def test_every_scored_profile_costs_its_exact_cost(centralized, name, counts, toy2):
    """The one-pass scorer agrees to the bit with exact_cost walking each
    profile's own tables, for every profile of both classes."""
    model, structure = {
        "toy2": toy2,
        "zero_entry": (random_model(162, positive=False), POOLED_VARIANTS[2]),
    }[name]
    slots_at = oracle._history_slots if centralized else partial(oracle._view_slots, structure)
    occ0 = {x: float(p) for x, p in enumerate(model.initial_dist) if p > 0.0}
    scored = 0
    for path, (cost,) in oracle._scored_profiles(model, slots_at, [((), (), occ0)], 0):
        table = {
            key: choices[c] for slots, combo in path for (key, choices), c in zip(slots, combo)
        }
        if centralized:
            strategy = CentralizedTableStrategy(model, table)
        else:
            strategy = oracle._member_profile(model, structure, table)
        assert float(cost).hex() == float(oracle.exact_cost(model, structure, strategy)).hex()
        scored += 1
    assert scored == counts[not centralized]


def test_budget_counts_delayed_control_sharing_before_scoring(monkeypatch):
    """The budget guard sees all 139,264 profiles (once counted as 16,384)
    and refuses before anything is scored."""
    model = random_model(0, num_states=3, horizon=3)
    structure = InformationStructure("delayed_control_sharing", delays=(1, 2))
    calls = []

    def not_scored(*args):
        calls.append(args)
        return iter(())

    monkeypatch.setattr(oracle, "_scored_profiles", not_scored)
    with pytest.raises(BudgetExceededError) as info:
        oracle.enumerate_decentralized(model, structure, budget=139_263)
    assert (info.value.budget, info.value.observed) == (139_263, 139_264)
    assert calls == []
    with pytest.raises(InvariantError, match="scored 0 decentralized profiles, counted 139264"):
        oracle.enumerate_decentralized(model, structure, budget=139_264)


def test_decentralized_ties_go_to_the_first_profile():
    """When member 1's action changes nothing, every profile ties with the
    one that differs only in member 1's table, and the first in enumeration
    order (member 1 playing 0 everywhere) wins."""
    base = random_model(7, positive=False)
    transition, stage_cost = base.transition.copy(), base.stage_cost.copy()
    transition[:, 1::2] = transition[:, 0::2]
    stage_cost[:, :, 1::2] = stage_cost[:, :, 0::2]
    model = dataclasses.replace(base, transition=transition, stage_cost=stage_cost)
    structure = POOLED_VARIANTS[0]
    rd = oracle.enumerate_decentralized(model, structure)
    assert rd.num_strategies == 64
    assert set(rd.strategy.members[1].table.values()) == {0}
    assert rd.strategy.members[0].table == {
        "t=0;k=0;c[];p[]": 1,
        "t=1;k=0;c[a0^0:1,a0^1:0];p[o1:0]": 0,
        "t=1;k=0;c[a0^0:1,a0^1:0];p[o1:1]": 0,
    }


def test_centralized_ties_go_to_the_first_table():
    """When member 1's action changes nothing, every table ties with the
    ones that differ only in member 1's components, and the first in
    enumeration order (member 1 playing 0 at every history) wins."""
    base = random_model(7, positive=False)
    transition, stage_cost = base.transition.copy(), base.stage_cost.copy()
    transition[:, 1::2] = transition[:, 0::2]
    stage_cost[:, :, 1::2] = stage_cost[:, :, 0::2]
    model = dataclasses.replace(base, transition=transition, stage_cost=stage_cost)
    rc = oracle.enumerate_centralized(model, POOLED_VARIANTS[0])
    assert rc.num_strategies == 1024
    assert rc.strategy.table == {
        "": (1, 0),
        "u0=1,0;y1=0,0": (0, 0),
        "u0=1,0;y1=0,1": (0, 0),
        "u0=1,0;y1=1,0": (0, 0),
        "u0=1,0;y1=1,1": (0, 0),
    }


def test_oracle_imports_no_solver_module():
    """The oracle is the trusted side: it must not reuse the filters, the
    dynamic programs or the sampler it certifies, nor the key format the
    member solver and member tables share; its view keys come from
    ``view_key(prefix_view(...))``."""
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    solvers = {"dp", "filters", "sim"}
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            imported.update(parts)
            used.update(alias.name for alias in node.names)
            if (node.level and not node.module) or parts == ["teamdp"]:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(p for alias in node.names for p in alias.name.split("."))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert imported & solvers == set()
    assert "view_key_format" not in used
    assert {"prefix_view", "view_key"} <= used
