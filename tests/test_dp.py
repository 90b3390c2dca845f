"""Dynamic-program tests.

The manager solve is checked against the exhaustive strategy search and
against per-history conditional costs of arbitrary strategies; the member
solve against the conditional-law oracle and the single-member degenerate
case.  The structural probes (positive scaling, concavity in the belief
or conditional weights) certify the backup operators themselves.
"""

import hashlib

import numpy as np
import pytest
from conftest import HashedCentralizedStrategy, HashedMemberStrategy, random_model

from teamdp import (
    BudgetExceededError,
    DecentralizedStrategy,
    IncompleteHistoryError,
    InformationStructure,
    ManagerProjectionStrategy,
    MemberTableStrategy,
    UndefinedCoStrategyError,
    backup,
    compare_solutions,
    evaluate_member_value,
    evaluate_value,
    member_conditional,
    solve_manager,
    solve_member,
)
from teamdp import oracle
from teamdp.model import history_key, prefix_view, tiebreak_joint_actions, view_key, view_known

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


def test_manager_node_budget_is_checked_per_stage(toy2):
    """The budget check runs before a stage's children are built, but it
    admits a tree of exactly ``node_budget`` nodes and reports an overrun
    as ``node_budget + 1``, as a node-by-node check would."""
    model, structure = toy2
    total = sum(solve_manager(model, structure).node_counts)
    assert solve_manager(model, structure, node_budget=total).node_counts[-1] > 0
    for budget in (1, 2, total - 1):
        with pytest.raises(BudgetExceededError) as info:
            solve_manager(model, structure, node_budget=budget)
        assert (info.value.budget, info.value.observed) == (budget, budget + 1)


def _oracle_prefixes(model):
    """Positive-probability full-history prefixes per stage, as
    (obs_seq, act_seq), found by the oracle's own occupancy propagation
    under every joint action."""
    occ0 = {x: float(p) for x, p in enumerate(model.initial_dist) if p > 0.0}
    stages = [[((), (), occ0)]]
    for _ in range(model.horizon):
        nxt = []
        for obs_seq, act_seq, occ in stages[-1]:
            for u in tiebreak_joint_actions(model):
                occp = oracle._predict_occ(model, occ, model.flat_action(u))
                for y, occy in oracle._split_by_obs(model, occp):
                    nxt.append((obs_seq + (y,), act_seq + (u,), occy))
        stages.append(nxt)
    return [[(o, a) for o, a, _ in stage] for stage in stages]


@pytest.mark.parametrize("structure", POOLED_VARIANTS, ids=lambda s: s.variant)
def test_manager_tree_matches_oracle_on_zero_entry_kernels(structure):
    """On kernels with zero entries the solver prunes zero-probability
    branches: its tree holds exactly the prefixes the oracle reaches, and
    every node's value is the oracle's conditional cost-to-go of the
    solved strategy."""
    model = random_model(310, num_states=3, horizon=3, positive=False)
    mgr = solve_manager(model, structure)
    prefixes = _oracle_prefixes(model)
    assert mgr.node_counts == tuple(len(stage) for stage in prefixes)
    full = (len(tiebreak_joint_actions(model)) * len(model.joint_observations)) ** model.horizon
    assert mgr.node_counts[-1] < full  # branches were pruned
    for t, stage in enumerate(prefixes):
        assert set(mgr.value_function.stages[t]) == {history_key(a, o) for o, a in stage}
        for obs_seq, act_seq in stage:
            node = mgr.value_function.stages[t][history_key(act_seq, obs_seq)]
            ctg = oracle.exact_cost_to_go(model, structure, mgr.strategy, obs_seq, act_seq, t)
            assert abs(node.value - ctg) <= 1e-12


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


@pytest.mark.parametrize("seed, positive", [(320, True), (310, False)], ids=["dense", "pruned"])
def test_node_values_do_not_depend_on_batch_size(seed, positive):
    """A node's numbers are the same whether its stage is solved as one
    batch, alone from its belief (evaluate_value), or as a single-row
    backup whose next values are read off the solved tree by belief."""
    model = random_model(seed, num_states=3, horizon=3, positive=positive)
    structure = POOLED_VARIANTS[0]
    mgr = solve_manager(model, structure)
    assert (mgr.node_counts[-1] < 4096) == (not positive)
    stages = mgr.value_function.stages
    by_belief = [{} for _ in stages]
    for lookup, stage in zip(by_belief, stages):
        for node in stage.values():
            # equal beliefs at one time have equal values
            assert lookup.setdefault(node.belief.tobytes(), node.value) == node.value
    for t, stage in enumerate(stages):
        for node in stage.values():
            assert evaluate_value(model, structure, t, node.belief) == node.value
            if t < model.horizon:
                vnext = lambda b, t=t: by_belief[t + 1][b.tobytes()]
                assert backup(model, vnext, node.belief, t) == (node.value, node.argmin)


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


# (seed, shape, positive, structure index) -> (root_value.hex(),
# node_counts, argmins in sorted view-key order, table digest), recorded
# before the member tree was held as arrays
PIN_MEMBER_STRUCTURES = POOLED_VARIANTS + [
    InformationStructure("delayed_sharing", delays=(2, 2)),
    InformationStructure("delayed_sharing", delays=(2, 1)),
    InformationStructure("periodic_sharing", period=2),
    InformationStructure("no_sharing"),
]
PINNED_MEMBER = {
    (600, "k2", True, 0): (
        "0x1.7d7b97cca90b6p+0", (1, 4, 32, 256),
        "1000010110000000010110011001111110011", "3a667eea74af6857",
    ),
    (601, "k2", False, 0): (
        "0x1.957a0af2668c6p+0", (1, 3, 21, 142),
        "0011000000000100000000100", "e27585ba55d9c295",
    ),
    (602, "k2", True, 1): (
        "0x1.301df51fe5530p+1", (1, 4, 32, 256),
        "0111010111000101010101011101010101010", "a41b77854e2302c6",
    ),
    (603, "k2", False, 1): (
        "0x1.ab2acade931fep+0", (1, 4, 32, 216),
        "0111100110011111100111011001111000011", "0865c91bc3bdf74c",
    ),
    (604, "k2", True, 2): (
        "0x1.e77a6ad922c20p+0", (1, 4, 32, 256),
        "1111100100010001100101010101010101010", "25a7119c34f54b72",
    ),
    (605, "k2", False, 2): (
        "0x1.35dcde431a820p+0", (1, 4, 22, 110),
        "100000010001001001000000000", "46305d0b802bc3d2",
    ),
    (606, "k2", True, 3): (
        "0x1.b98e975a378a2p+0", (1, 4, 16, 128),
        "111110000000000000000", "49b6279e73a3b2f7",
    ),
    (607, "k2", False, 3): (
        "0x1.8ba3aa6b80e8dp+0", (1, 4, 13, 70),
        "110010100000000100", "89dcef587f21b877",
    ),
    (608, "k2", True, 4): (
        "0x1.ca5b3e2f0f0fap+0", (1, 4, 16, 128),
        "100000000000000000000", "aa89b669a6cec546",
    ),
    (609, "k2", False, 4): (
        "0x1.4532943c7cf66p+0", (1, 4, 16, 112),
        "011110000000000000000", "d1699a1e2722780c",
    ),
    (610, "k2", True, 5): (
        "0x1.a89a58d9a8416p+0", (1, 4, 32, 256),
        "0010100010000000000000000000000000000", "d8097d660a9094b0",
    ),
    (611, "k2", False, 5): (
        "0x1.98053a112586bp+0", (1, 4, 16, 96),
        "101010011000000010000", "d9e3ef5679224924",
    ),
    (612, "k2", True, 6): (
        "0x1.af0d71e93b983p+0", (1, 4, 16, 256),
        "001010000000000000000", "59ed7c3d1f509c0d",
    ),
    (613, "k2", False, 6): (
        "0x1.7d808945fd7d7p+0", (1, 4, 16, 236),
        "010000101010101010101", "51bf1adeb145a316",
    ),
    (614, "k2", True, 7): (
        "0x1.795db36355124p+0", (1, 4, 16, 64),
        "000001111111111111111", "57db5bb0e63bc7fd",
    ),
    (615, "k2", False, 7): (
        "0x1.6c8a3b95dbfe8p+0", (1, 4, 16, 64),
        "101011011101011111110", "2689ec8a1d6478b2",
    ),
    (700, "k3", True, 0): ("0x1.52591d6325856p+0", (1, 4, 64), "10001", "503e9d19c86f12ca"),
    (702, "a32", False, 5): ("0x1.1f11594d50ea3p+0", (1, 6, 60), "2121020", "9a9c764f316fd92e"),
}


def table_digest(table):
    text = "\n".join(f"{k}={v}" for k, v in sorted(table.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(PINNED_MEMBER), ids=str)
def test_member_solve_pinned(case):
    """Member solves on positive and zero-entry kernels, three members
    and uneven action counts reproduce recorded bits; the member value
    from the root's conditional is the root value exactly."""
    seed, shape, positive, index = case
    if shape == "k3":
        model = random_model(seed, num_members=3, positive=positive)
        structure = InformationStructure("delayed_sharing", delays=(1, 2, 1))
    else:
        kw = {"action_sizes": (3, 2)} if shape == "a32" else {"horizon": 3}
        model = random_model(seed, positive=positive, **kw)
        structure = PIN_MEMBER_STRUCTURES[index]
    k = seed % model.num_members
    co = {
        j: HashedMemberStrategy(model, structure, j, salt=seed + j)
        for j in range(model.num_members)
        if j != k
    }
    sol = solve_member(model, structure, k, co)
    table = sol.strategy.table
    argmins = "".join(str(v) for _, v in sorted(table.items()))
    got = (sol.root_value.hex(), sol.node_counts, argmins, table_digest(table))
    assert got == PINNED_MEMBER[case]
    root = next(iter(sol.nodes[0].values()))
    assert evaluate_member_value(model, structure, k, co, (0, root.particles)) == sol.root_value


class RecordingMemberStrategy(HashedMemberStrategy):
    """Hashed member strategy that records its action at every view key."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.table = {}

    def member_action(self, obs_seq, act_seq, t):
        action = super().member_action(obs_seq, act_seq, t)
        view = prefix_view(self.structure, self.model.num_members, obs_seq, act_seq, t, self.member)
        self.table[view_key(view)] = action
        return action


# the co-strategy error of a member-1 table holding only the root view,
# recorded before the member tree was held as arrays
FIRST_UNDEFINED_VIEW = {
    "toy2": "member 1 has no action for view 't=1;k=1;c[a0^0:0,a0^1:0];p[o1:0]'",
    "zero_entry": "member 1 has no action for view 't=1;k=1;c[a0^0:0,a0^1:0];p[o1:1]'",
}


@pytest.mark.parametrize("instance", ["toy2", "zero_entry"])
def test_member_node_budget_is_checked_per_stage(instance, toy2):
    """A budget of the tree size passes; smaller budgets report the first
    node past the budget, as when nodes were counted one at a time; a
    co-strategy table missing views names the view first reached."""
    model, structure = {
        "toy2": toy2,
        "zero_entry": (random_model(601, horizon=3, positive=False), POOLED_VARIANTS[0]),
    }[instance]
    co = {1: RecordingMemberStrategy(model, structure, 1, salt=5)}
    sol = solve_member(model, structure, 0, co)
    size = sum(sol.node_counts)
    assert solve_member(model, structure, 0, co, node_budget=size).node_counts == sol.node_counts
    for budget in (1, size - 1):
        with pytest.raises(BudgetExceededError) as info:
            solve_member(model, structure, 0, co, node_budget=budget)
        assert (info.value.budget, info.value.observed) == (budget, budget + 1)

    table = dict(co[1].table)
    missing = sorted(table)[len(table) // 2]
    del table[missing]
    with pytest.raises(UndefinedCoStrategyError) as info:
        solve_member(model, structure, 0, {1: MemberTableStrategy(model, structure, 1, table)})
    assert str(info.value) == f"member 1 has no action for view {missing!r}"
    only_root = {"t=0;k=1;c[];p[]": 0}
    with pytest.raises(UndefinedCoStrategyError) as info:
        solve_member(model, structure, 0, {1: MemberTableStrategy(model, structure, 1, only_root)})
    assert str(info.value) == FIRST_UNDEFINED_VIEW[instance]


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
