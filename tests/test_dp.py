"""Dynamic-program tests.

The manager solve is checked against the exhaustive strategy search and
against per-history conditional costs of arbitrary strategies; the member
solve against the conditional-law oracle and the single-member degenerate
case.  The structural probes (positive scaling, concavity in the belief
or conditional weights) certify the backup operators themselves.
"""

import numpy as np
import pytest
from conftest import HashedCentralizedStrategy, HashedMemberStrategy, random_model

from teamdp import (
    BudgetExceededError,
    DecentralizedStrategy,
    IncompleteHistoryError,
    InformationStructure,
    ManagerProjectionStrategy,
    backup,
    compare_solutions,
    evaluate_member_value,
    evaluate_value,
    member_conditional,
    solve_manager,
    solve_member,
)
from teamdp import oracle
from teamdp.model import history_key, view_known

POOLED_VARIANTS = [
    InformationStructure("delayed_sharing", delays=(1, 1)),
    InformationStructure("periodic_sharing", period=1),
    InformationStructure("delayed_observation_sharing", delays=(1, 1)),
    InformationStructure("delayed_control_sharing", delays=(1, 1)),
]


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
# manager solve vs. exhaustive search


def test_manager_matches_exhaustive_search_on_fixture(toy2):
    model, structure = toy2
    mgr = solve_manager(model, structure)
    best = oracle.enumerate_centralized(model, structure)
    assert abs(mgr.root_value - best.optimal_cost) <= 1e-9
    assert mgr.root_value == pytest.approx(1.14664, abs=1e-9)


def test_manager_matches_exhaustive_search_random_instances():
    for seed in range(6):
        model = random_model(seed, num_states=2)
        structure = POOLED_VARIANTS[seed % len(POOLED_VARIANTS)]
        mgr = solve_manager(model, structure)
        best = oracle.enumerate_centralized(model, structure)
        assert abs(mgr.root_value - best.optimal_cost) <= 1e-9


def test_manager_strategy_replays_to_root_value(toy2):
    model, structure = toy2
    mgr = solve_manager(model, structure)
    assert abs(oracle.exact_cost(model, structure, mgr.strategy) - mgr.root_value) <= 1e-12


def test_evaluate_value_matches_solver(toy2):
    model, structure = toy2
    mgr = solve_manager(model, structure)
    assert evaluate_value(model, structure, 0, model.initial_dist) == mgr.root_value


def test_manager_is_deterministic(toy2):
    model, structure = toy2
    a = solve_manager(model, structure)
    b = solve_manager(model, structure)
    assert a.root_value == b.root_value
    assert a.strategy.table == b.strategy.table
    assert a.value_function.to_json_dict() == b.value_function.to_json_dict()


def test_manager_node_budget(toy2):
    model, structure = toy2
    with pytest.raises(BudgetExceededError) as info:
        solve_manager(model, structure, node_budget=2)
    assert info.value.budget == 2
    assert info.value.observed > 2


def test_manager_refuses_without_pooled_stream(toy2):
    model, _ = toy2
    with pytest.raises(IncompleteHistoryError):
        solve_manager(model, InformationStructure("no_sharing"))


# ---------------------------------------------------------------------------
# comparison principle: the value function lower-bounds every strategy


def test_root_value_dominates_arbitrary_strategies(toy2):
    model, structure = toy2
    root = solve_manager(model, structure).root_value
    for salt in range(100):
        cost = oracle.exact_cost(model, structure, HashedCentralizedStrategy(model, salt=salt))
        assert root <= cost + 1e-9


def test_node_values_dominate_conditional_costs(toy2):
    """At every history the optimal cost-to-go is at most the conditional
    cost-to-go of an arbitrary strategy, with equality at the horizon."""
    model, structure = toy2
    mgr = solve_manager(model, structure)
    for salt in range(10):
        g = HashedCentralizedStrategy(model, salt=salt)
        for out in oracle.enumerate_outcomes(model, structure, g):
            traj = out.trajectory
            for t in range(model.horizon + 1):
                obs_seq = traj.observations[:t]
                act_seq = traj.actions[:t]
                node = mgr.value_function.stages[t][history_key(act_seq, obs_seq)]
                ctg = oracle.exact_cost_to_go(model, structure, g, obs_seq, act_seq, t)
                if t == model.horizon:
                    assert abs(node.value - ctg) <= 1e-12
                else:
                    assert node.value <= ctg + 1e-9


# ---------------------------------------------------------------------------
# backup operator structure


def _random_value_next(r, num_states):
    coefs = r.uniform(0.0, 2.0, size=(3, num_states))
    return lambda vec: min(float(c @ vec) for c in coefs)


def test_backup_positive_scaling():
    r = np.random.default_rng(17)
    model = random_model(40, num_states=3)
    vnext = _random_value_next(r, model.num_states)
    for _ in range(100):
        t = int(r.integers(model.horizon))
        b = r.uniform(0.05, 1.0, size=model.num_states)
        b /= b.sum()
        base, arg = backup(model, vnext, b, t)
        for rho in (0.5, 2.0):
            scaled, arg2 = backup(model, vnext, rho * b, t)
            assert scaled == rho * base  # power-of-two scaling is exact
            assert arg2 == arg
        scaled, arg2 = backup(model, vnext, 7.3 * b, t)
        assert abs(scaled - 7.3 * base) <= 1e-12 * max(1.0, abs(base))
        assert arg2 == arg


def test_team_value_concavity():
    r = np.random.default_rng(23)
    model = random_model(41, num_states=3)
    structure = InformationStructure("delayed_sharing", delays=(1, 1))
    for t in range(model.horizon):
        for _ in range(25):
            b1 = r.uniform(0.05, 1.0, size=model.num_states)
            b2 = r.uniform(0.05, 1.0, size=model.num_states)
            b1, b2 = b1 / b1.sum(), b2 / b2.sum()
            lam = float(r.uniform())
            mixed = evaluate_value(model, structure, t, lam * b1 + (1.0 - lam) * b2)
            split = lam * evaluate_value(model, structure, t, b1) + (1.0 - lam) * evaluate_value(
                model, structure, t, b2
            )
            assert mixed >= split - 1e-9


# ---------------------------------------------------------------------------
# member solve


def test_member_root_never_beats_manager(toy2):
    model, _ = toy2
    for structure in POOLED_VARIANTS:
        mgr = solve_manager(model, structure)
        for k in range(model.num_members):
            others = {
                j: ManagerProjectionStrategy(j, mgr.strategy)
                for j in range(model.num_members)
                if j != k
            }
            sol = solve_member(model, structure, k, others)
            assert sol.root_value >= mgr.root_value - 1e-12


def test_member_nodes_carry_exact_conditionals(toy2):
    model, structure = toy2
    co = {1: HashedMemberStrategy(model, structure, 1, salt=2)}
    sol = solve_member(model, structure, 0, co)
    checked = 0
    for t in range(model.horizon + 1):
        for node in sol.nodes[t].values():
            ref = member_conditional(model, structure, co, node.view)
            assert node.particles == ref.entries
            checked += 1
    assert checked == sum(sol.node_counts)


class ReplayOwnActions:
    """Member strategy that plays the own actions a view records."""

    def __init__(self, view):
        self.known = view_known(view)
        self.member = view.member

    def member_action(self, obs_seq, act_seq, t):
        return self.known[(t, self.member, "act")]


@pytest.mark.parametrize(
    "structure",
    [
        InformationStructure("delayed_sharing", delays=(2, 2)),
        InformationStructure("periodic_sharing", period=2),
        InformationStructure("delayed_observation_sharing", delays=(1, 1)),
        InformationStructure("delayed_control_sharing", delays=(2, 1)),
        InformationStructure("no_sharing"),
    ],
    ids=lambda s: s.variant,
)
def test_member_nodes_match_oracle_on_zero_entry_kernels(structure):
    """Member DP nodes on kernels with zero entries: the state marginal of
    every node equals the oracle's posterior under the co-strategy plus an
    own component that replays the node's recorded own actions."""
    checked = 0
    for seed in range(2):
        model = random_model(300 + seed, num_states=3, horizon=3, positive=False)
        assert np.any(model.transition == 0.0)
        for k in range(model.num_members):
            co = HashedMemberStrategy(model, structure, 1 - k, salt=seed + 4 * k)
            sol = solve_member(model, structure, k, {1 - k: co})
            for stage in sol.nodes:
                for node in stage.values():
                    members = [co, co]
                    members[k] = ReplayOwnActions(node.view)
                    profile = DecentralizedStrategy(model, structure, members)
                    want = oracle.exact_posterior(model, structure, profile, node.view)
                    got = node.state_marginal(model.num_states)
                    assert np.max(np.abs(got - want)) <= 1e-12
                    checked += 1
    assert checked > 100


def test_member_value_matches_direct_recursion(toy2):
    model, structure = toy2
    co = {1: HashedMemberStrategy(model, structure, 1, salt=6)}
    sol = solve_member(model, structure, 0, co)
    root = next(iter(sol.nodes[0].values()))
    direct = evaluate_member_value(model, structure, 0, co, (0, root.particles))
    assert abs(direct - sol.root_value) <= 1e-12


def test_member_is_deterministic(toy2):
    model, structure = toy2
    co = {1: HashedMemberStrategy(model, structure, 1, salt=8)}
    a = solve_member(model, structure, 0, co)
    b = solve_member(model, structure, 0, co)
    assert a.root_value == b.root_value
    assert a.strategy.table == b.strategy.table


def test_member_node_budget(toy2):
    model, structure = toy2
    co = {1: HashedMemberStrategy(model, structure, 1, salt=1)}
    with pytest.raises(BudgetExceededError) as info:
        solve_member(model, structure, 0, co, node_budget=1)
    assert info.value.budget == 1
    assert info.value.observed > 1


def test_single_member_solves_agree(chain1):
    """One member, so manager and member dynamic programs answer the same
    question and the exhaustive search certifies both."""
    model, structure = chain1
    mgr = solve_manager(model, structure)
    sol = solve_member(model, structure, 0, {})
    best = oracle.enumerate_centralized(model, structure)
    assert abs(mgr.root_value - sol.root_value) <= 1e-12
    assert abs(mgr.root_value - best.optimal_cost) <= 1e-9
    profile = DecentralizedStrategy(model, structure, [sol.strategy])
    assert abs(oracle.exact_cost(model, structure, profile) - sol.root_value) <= 1e-12


def test_member_value_scaling_and_concavity(toy2):
    model, structure = toy2
    co = {1: HashedMemberStrategy(model, structure, 1, salt=3)}
    sol = solve_member(model, structure, 0, co)
    r = np.random.default_rng(5)
    for t in range(model.horizon):
        nodes = list(sol.nodes[t].values())
        vals = {i: evaluate_member_value(model, structure, 0, co, (t, n.particles)) for i, n in enumerate(nodes)}
        for _ in range(25):
            i, j = r.integers(len(nodes)), r.integers(len(nodes))
            lam = float(r.uniform())
            mix = tuple(
                (x, o, a, lam * w) for x, o, a, w in nodes[i].particles
            ) + tuple((x, o, a, (1.0 - lam) * w) for x, o, a, w in nodes[j].particles)
            mixed = evaluate_member_value(model, structure, 0, co, (t, mix))
            assert mixed >= lam * vals[int(i)] + (1.0 - lam) * vals[int(j)] - 1e-9
        for rho in (0.5, 2.0, 7.3):
            scaled = tuple((x, o, a, rho * w) for x, o, a, w in nodes[0].particles)
            got = evaluate_member_value(model, structure, 0, co, (t, scaled))
            assert abs(got - rho * vals[0]) <= 1e-12 * max(1.0, abs(vals[0]))


# ---------------------------------------------------------------------------
# side-by-side comparison


def test_compare_solutions_classical_instance(classical2):
    """Perfectly and symmetrically informed members recover the manager's
    decisions node for node."""
    model, structure = classical2
    report = compare_solutions(model, structure)
    assert abs(report.manager_cost - report.manager_root_value) <= 1e-12
    assert report.profile_fallback_views == 0
    assert abs(report.member_profile_cost - report.manager_cost) <= 1e-9
    for m in report.members:
        assert m.agreement_fraction == 1.0
        assert abs(m.root_gap) <= 1e-12


def test_compare_solutions_report_consistency(toy2):
    model, structure = toy2
    report = compare_solutions(model, structure)
    # manager lower-bounds everything; the exhaustive decentralized optimum
    # lower-bounds the member profile
    assert report.manager_root_value <= report.decentralized_optimal_cost + 1e-12
    assert report.decentralized_optimal_cost <= report.member_profile_cost + 1e-12
    assert report.decentralized_num_strategies == 64
    for m in report.members:
        assert m.root_gap >= -1e-12
        assert 0.0 <= m.agreement_fraction <= 1.0
        assert m.nodes  # per-node detail is present
    d = report.to_json_dict()
    assert set(d) == {
        "manager_root_value",
        "manager_cost",
        "member_profile_cost",
        "profile_fallback_views",
        "decentralized_optimal_cost",
        "decentralized_num_strategies",
        "members",
    }
