"""Dynamic-program tests.

The manager solve is checked against the exhaustive strategy search and
against per-history conditional costs of arbitrary strategies; the member
solve against the conditional-law oracle and the single-member degenerate
case.  The structural probes (positive scaling, concavity in the belief
or conditional weights) certify the backup operators themselves.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from conftest import (
    HashedCentralizedStrategy,
    HashedMemberStrategy,
    compare_nodes_reference,
    manager_stages,
    random_model,
    sharing_structures,
    value_function_reference,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamdp import (
    BudgetExceededError,
    CentralizedTableStrategy,
    ConstantMemberStrategy,
    DecentralizedStrategy,
    IncompleteHistoryError,
    InformationStructure,
    InvariantError,
    ManagerProjectionStrategy,
    MemberTableStrategy,
    StrategyUndefinedError,
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
from teamdp.dp import _view_keys
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
    assert evaluate_value(model, 0, model.initial_dist) == mgr.root_value


def test_manager_is_deterministic(toy2):
    model, structure = toy2
    a = solve_manager(model, structure)
    b = solve_manager(model, structure)
    assert a.root_value == b.root_value
    assert value_function_reference(a.value_function) == value_function_reference(
        b.value_function
    )


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


def _history(key: str):
    """``(obs_seq, act_seq)`` of a history key, read off the key text
    ``u0=..;y1=..;u1=..``."""
    fields = [tuple(map(int, part.split("=")[1].split(","))) for part in key.split(";") if key]
    return tuple(fields[1::2]), tuple(fields[0::2])


# instances of the walk checks: pruned branches, labels past 10, 3 members
_WALK_MODELS = {
    "toy2": None,
    "zero_entry": lambda: random_model(310, num_states=3, horizon=3, positive=False),
    "last_eleven_obs": lambda: random_model(333, horizon=2, obs_sizes=(2, 11)),
    "k3": lambda: random_model(23, num_members=3, num_states=2, positive=False),
}


def _walk_instance(name, toy2):
    if _WALK_MODELS[name] is None:
        return toy2
    model = _WALK_MODELS[name]()
    return model, InformationStructure("delayed_sharing", delays=(1,) * model.num_members)


@pytest.mark.parametrize("instance", list(_WALK_MODELS))
def test_stage_mappings_match_eager_dicts(instance, toy2):
    """``ValueFunction.row`` walks every node's history, read off the
    keys of the keyed reference, to that node's row; the arrays read there
    hold the beliefs (same bytes), values (same bits) and argmin tuples
    (None past the last decision stage) of a fresh ``_solve_tree``, and
    histories off the tree walk to -1.  The horizon is read through
    ``horizon_stage``; the solve folds its beliefs into values, so the
    fresh horizon beliefs are the whole last stage's ``_stage`` children."""
    from teamdp.dp import _solve_tree, _stage

    model, structure = _walk_instance(instance, toy2)
    K, T = model.num_members, model.horizon
    vf = solve_manager(model, structure).value_function
    beliefs, _, values, argmins = _solve_tree(model, model.initial_dist, 0)
    beliefs.append(_stage(model, beliefs[-1], T - 1)[3])
    held = [*zip(vf.beliefs, vf.values), vf.horizon_stage()]
    stages = manager_stages(vf)
    assert len(stages) == T + 1
    for t, ref in enumerate(stages):
        rows = [vf.row(model, *_history(key)) for key in ref]
        assert rows == list(range(len(ref)))
        for i, (row, node) in enumerate(zip(rows, ref.values())):
            assert held[t][0][row].tobytes() == beliefs[t][i].tobytes()
            assert held[t][1][row].hex() == values[t][i].hex() == node.value.hex()
            argmin = vf.actions[vf.argmins[t][row]] if t < T else None
            want = tiebreak_joint_actions(model)[argmins[t][i]] if t < T else None
            assert argmin == want == node.argmin
        if t:
            unknown = ((9,) * K,) * t
            assert vf.row(model, unknown, unknown) == -1


def test_rows_walk_refuses_off_tree_histories(toy2):
    """The walk gives -1 for a history through a zero-weight branch and
    for a label out of its member's range, such as an action label equal
    to its member's action count or a negative one, even where the
    unchecked position would be a live branch's; the empty history is the
    root, and a history longer than T is refused."""
    model = _WALK_MODELS["zero_entry"]()
    vf = solve_manager(model, toy2[1]).value_function
    assert vf.row(model, (), ()) == 0
    parent, a, y = np.argwhere(vf.index[1] < 0)[0]
    obs, act = _history(list(manager_stages(vf)[1])[parent])
    u1, y2 = tiebreak_joint_actions(model)[a], model.joint_observations[y]
    assert vf.row(model, obs + (y2,), act + (u1,)) == -1
    joint, ys = tiebreak_joint_actions(model), model.joint_observations
    live = np.argwhere(vf.index[0][0] >= 0).tolist()
    walk = lambda u, y: vf.row(model, (y,), (u,))
    # a live branch of action (0, 1), observation (1, y_1)
    a, y = next((a, y) for a, y in live if joint[a] == (0, 1) and ys[y][0])
    y1 = ys[y]
    assert walk((0, 1), y1) == vf.index[0][0, a, y]
    # unchecked, each of these would land on that live branch: u's
    # tie-break position is u_0 + 2 u_1, y's flat position 2 y_0 + y_1
    for u, y in [((2, 0), y1), ((-2, 2), y1), ((0, 1), (0, y1[1] + 2)), ((0, 1), (2, y1[1] - 2))]:
        assert walk(u, y) == -1
    # a live branch of action (1, 0), observation (0, y_1), which a
    # negative label alone would reach: -1 + 2 * 1 = 1 and 2 * 1 + (y_1 - 2)
    a, y = next((a, y) for a, y in live if joint[a] == (1, 0) and not ys[y][0])
    y1 = ys[y]
    assert walk((1, 0), y1) == vf.index[0][0, a, y]
    for u, y in [((-1, 1), y1), ((1, 0), (1, y1[1] - 2))]:
        assert walk(u, y) == -1
    too_long = ((0, 0),) * (model.horizon + 1)
    with pytest.raises(ValueError, match="history length"):
        vf.row(model, too_long, too_long)


def test_table_strategies_refuse_prefixes_not_of_length_t():
    """A keyed team table and a solved member table refuse a prefix
    whose length is not t, whatever their default, as the manager
    strategy does: on ``random_model(1, horizon=2)`` under delays (1,1)
    the one-step prefix at t = 0 was answered with the t = 1 node's (team)
    or the t = 0 node's (member) action, and the empty prefix at t = 1
    raised IndexError (member).  The member table also refuses a joint
    label that is not K values: it answered ``((0, 1, 7),)`` and
    ``((0,),)`` as ``((0, 1),)``, reading only the slots its key needs."""
    model = random_model(1, horizon=2)
    structure = InformationStructure("delayed_sharing", delays=(1, 1))
    mgr = solve_manager(model, structure)
    stages = manager_stages(mgr.value_function)[: model.horizon]
    table = {key: node.argmin for stage in stages for key, node in stage.items()}
    member = solve_member(model, structure, 0, {1: ManagerProjectionStrategy(1, mgr.strategy)})
    strategy = member.strategy
    assert strategy.default == 0
    one = ((0, 0),)
    (root,) = member.nodes[0].values()
    answer = strategy.member_action((), (), 0)
    assert answer == root.argmin and type(answer) is int
    for default in (None, (0, 0)):
        team = CentralizedTableStrategy(model, table, default=default)
        assert team.joint_action(one, one, 1) == mgr.strategy.joint_action(one, one, 1)
        with pytest.raises(StrategyUndefinedError, match=r"history 'u0=0,0;y1=0,0' at t=0"):
            team.joint_action(one, one, 0)
        with pytest.raises(StrategyUndefinedError, match=r"history '' at t=1"):
            team.joint_action((), (), 1)
    with pytest.raises(StrategyUndefinedError, match="1 observations and 1 actions at t=0"):
        strategy.member_action(one, one, 0)
    with pytest.raises(StrategyUndefinedError, match="0 observations and 0 actions at t=1"):
        strategy.member_action((), (), 1)
    with pytest.raises(StrategyUndefinedError, match="1 observations and 0 actions at t=1"):
        strategy.member_action(one, (), 1)
    for obs, act in [(((0, 1, 7),), one), (one, ((0,),))]:
        with pytest.raises(StrategyUndefinedError, match="a joint label is not 2 values"):
            strategy.member_action(obs, act, 1)
    assert strategy.fallbacks == 0


def test_solve_manager_keeps_no_horizon_keys(toy2):
    """solve_manager builds no history key and holds no array of the
    horizon stage: on a T = 4 tree of 69,905 nodes (65,536 at the horizon)
    the solution retains under 0.75 MB as tracemalloc counts it (0.74 MB
    measured: the stage arrays of t < T and the child indices), against
    2.8 MB when it held the horizon's beliefs (1.6 MB) and values
    (0.5 MB), 3.4 MB with the decision keys and a strategy table too, and
    10.2 MB when every horizon key was kept.  The keyed reference's
    horizon keys walk to the horizon rows in order."""
    import tracemalloc

    model = random_model(41, num_states=3, horizon=4, obs_sizes=(2, 2))
    T = model.horizon
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = solve_manager(model, toy2[1])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    vf = sol.value_function
    assert retained < 0.75 * 10**6
    horizon = list(manager_stages(vf)[T])
    assert len(horizon) == len(vf.horizon_stage()[1]) == sol.node_counts[T] == 65536
    assert [vf.row(model, *_history(key)) for key in horizon] == list(range(65536))


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
    stages = manager_stages(mgr.value_function)
    for t, stage in enumerate(prefixes):
        assert set(stages[t]) == {history_key(a, o) for o, a in stage}
        for obs_seq, act_seq in stage:
            node = stages[t][history_key(act_seq, obs_seq)]
            ctg = oracle.exact_cost_to_go(model, mgr.strategy, obs_seq, act_seq, t)
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
    stages = manager_stages(mgr.value_function)
    for salt in range(10):
        g = HashedCentralizedStrategy(model, salt=salt)
        for out in oracle.enumerate_outcomes(model, g):
            traj = out.trajectory
            for t in range(model.horizon + 1):
                obs_seq = traj.observations[:t]
                act_seq = traj.actions[:t]
                node = stages[t][history_key(act_seq, obs_seq)]
                ctg = oracle.exact_cost_to_go(model, g, obs_seq, act_seq, t)
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
    stages = manager_stages(mgr.value_function)
    by_belief = [{} for _ in stages]
    for lookup, stage in zip(by_belief, stages):
        for node in stage.values():
            # equal beliefs at one time have equal values
            assert lookup.setdefault(node.belief.tobytes(), node.value) == node.value
    for t, stage in enumerate(stages):
        for node in stage.values():
            assert evaluate_value(model, t, node.belief) == node.value
            if t < model.horizon:
                vnext = lambda b, t=t: by_belief[t + 1][b.tobytes()]
                assert backup(model, vnext, node.belief, t) == (node.value, node.argmin)


def _whole_stage_children(model, beliefs, t):
    """``_stage``'s children built for the whole stage at once: one
    fancy-indexed ``pred * like / weight`` over every positive branch."""
    from teamdp.dp import _state_sum
    from teamdp.filters import _likelihood_vec

    order = [model.flat_action(u) for u in tiebreak_joint_actions(model)]
    like = np.array([_likelihood_vec(model, y) for y in model.joint_observations])
    pred = _state_sum(beliefs, model.transition[:, order, :])
    weights = _state_sum(pred.reshape(-1, model.num_states), like.T).reshape(
        pred.shape[:2] + (len(like),)
    )
    live = weights != 0.0
    nodes, actions, obs = np.nonzero(live)
    return pred[nodes, actions] * like[obs] / weights[live][:, None]


@pytest.mark.parametrize(
    "seed, positive", [(320, True), (310, False), (311, False)], ids=["dense", "pruned", "pruned2"]
)
def test_stage_does_not_depend_on_node_block(monkeypatch, seed, positive):
    """``_stage`` builds the same bits whatever its node block: one node,
    three, or more than the stage holds (the whole stage at once), and
    the children equal those of one whole-stage product.  Zero rows,
    three leading and one trailing, make blocks with no live branch."""
    import teamdp.dp

    model = random_model(seed, num_states=3, horizon=3, positive=positive)
    solved = solve_manager(model, POOLED_VARIANTS[0]).value_function.beliefs
    zeros = np.zeros((3, model.num_states))
    for t in range(model.horizon):
        beliefs = np.concatenate([zeros, solved[t], zeros[:1]])
        expected = teamdp.dp._stage(model, beliefs, t)
        assert (expected[2][:3] == -1).all() and (expected[2][-1] == -1).all()
        assert np.array_equal(expected[3], _whole_stage_children(model, beliefs, t))
        for block in (1, 3, len(beliefs) + 1):
            monkeypatch.setattr(teamdp.dp, "_NODE_BLOCK", block)
            got = teamdp.dp._stage(model, beliefs, t)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert a.tobytes() == b.tobytes()
            monkeypatch.undo()


def test_stage_memory_is_the_result_and_one_block():
    """``_stage`` at t = 3 of a dense T = 4 model (4,096 nodes, 65,536
    children) peaks, as tracemalloc counts it, at the result plus what is
    held next to it while the children are built: the stage's predicted
    beliefs and live mask and one block's temporaries (the branch
    positions, their (node, action) and observation split and the two
    gathered ``(branches, S)`` factors), which scale with ``_NODE_BLOCK``.
    Measured with 256-node blocks: a 2.75 MB result, 0.76 MB above it
    against a bound of 0.83 MB (1.64 MB against 1.80 MB with 1,024-node
    blocks); the whole stage at once took 4.20 MB above it."""
    import tracemalloc

    import teamdp.dp

    model = random_model(5, num_states=3, horizon=4)
    t, S = 3, model.num_states
    beliefs = solve_manager(model, POOLED_VARIANTS[0]).value_function.beliefs[t]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = teamdp.dp._stage(model, beliefs, t)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    weights = result[1]
    N, A, Y = weights.shape
    assert N == 4096
    block = teamdp.dp._NODE_BLOCK * A * Y * 8 * (3 + 2 * S)
    held = N * A * S * 8 + weights.size + block
    assert peak <= sum(a.nbytes for a in result) + 1.1 * held


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
            mixed = evaluate_value(model, t, lam * b1 + (1.0 - lam) * b2)
            split = lam * evaluate_value(model, t, b1) + (1.0 - lam) * evaluate_value(
                model, t, b2
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
    """Every node's particles are the conditional at its view, and the
    strategy's node beliefs are the nodes' state marginals, one per node
    of every stage, in stage and row order."""
    model, structure = toy2
    co = {1: HashedMemberStrategy(model, structure, 1, salt=2)}
    sol = solve_member(model, structure, 0, co)
    beliefs = sol.strategy.node_beliefs
    assert list(beliefs) == [key for stage in sol.nodes for key in stage]
    checked = 0
    for t in range(model.horizon + 1):
        for key, node in sol.nodes[t].items():
            ref = member_conditional(model, structure, co, node.view)
            assert node.particles == ref.entries
            assert np.array_equal(beliefs[key], node.state_marginal(model.num_states))
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
                    want = oracle.exact_posterior(model, profile, node.view)
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


def test_member_ties_go_to_the_smallest_own_action():
    """Member 0's two actions move the state and cost alike, so every
    Q-value of its dynamic program ties exactly and the tie-break alone
    picks action 0, at every node of every stage."""
    model = random_model(5, horizon=3)
    transition, stage_cost = model.transition.copy(), model.stage_cost.copy()
    for u in model.joint_actions:
        if u[0] == 0:
            a, twin = model.flat_action(u), model.flat_action((1, *u[1:]))
            transition[:, twin] = transition[:, a]
            stage_cost[:, :, twin] = stage_cost[:, :, a]
    model = dataclasses.replace(model, transition=transition, stage_cost=stage_cost)
    structure = InformationStructure("delayed_sharing", delays=(1, 2))
    sol = solve_member(model, structure, 0, {1: ConstantMemberStrategy(1, 0)})
    assert sum(map(len, sol.argmins)) == sum(sol.node_counts[:-1]) > 20
    assert all(not a.any() for a in sol.argmins)
    assert set(sol.strategy.table.values()) == {0}


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
# member view keys


@st.composite
def member_histories(draw):
    """A structure for K = 2 or 3 members and N joint histories of length
    T; values reach 12, so keys hold two-digit values."""
    K = draw(st.sampled_from((2, 3)))
    structure = draw(sharing_structures(K))
    T = draw(st.integers(1, 4))
    N = draw(st.integers(1, 3))
    cells = st.lists(st.integers(0, 12), min_size=N * T * K, max_size=N * T * K)
    obs = np.array(draw(cells), dtype=np.intp).reshape(N, T, K)
    act = np.array(draw(cells), dtype=np.intp).reshape(N, T, K)
    return structure, obs, act


KEY_MODELS = {K: random_model(0, num_members=K) for K in (2, 3)}


@given(case=member_histories())
@example(
    case=(
        InformationStructure("delayed_sharing", delays=(3, 1, 2)),
        np.arange(10, 37, dtype=np.intp).reshape(3, 3, 3),
        np.arange(37, 64, dtype=np.intp).reshape(3, 3, 3),
    )
)
@settings(max_examples=300, deadline=None)
def test_view_key_format_matches_view_key(case):
    """Keys formatted by slot column from history arrays (the member DP's
    nodes) and from history tuples (a member table's lookups) equal
    ``view_key(prefix_view(...))`` for every member and every t in 0..T,
    the empty ``c[]``/``p[]`` of t = 0 included."""
    structure, obs, act = case
    N, T, K = obs.shape
    for t in range(T + 1):
        for k in range(K):
            keys = _view_keys(structure, k, obs[:, :t], act[:, :t])
            assert len(keys) == N
            for row, key in enumerate(keys):
                obs_seq = tuple(map(tuple, obs[row, :t].tolist()))
                act_seq = tuple(map(tuple, act[row, :t].tolist()))
                want = view_key(prefix_view(structure, K, obs_seq, act_seq, t, k))
                assert key == want
                table = MemberTableStrategy(KEY_MODELS[K], structure, k, {want: 1})
                assert table.member_action(obs_seq, act_seq, t) == 1


@pytest.mark.parametrize(
    "structure",
    [
        InformationStructure("delayed_sharing", delays=(1, 3, 2)),
        InformationStructure("periodic_sharing", period=2),
        InformationStructure("delayed_observation_sharing", delays=(2, 1, 1)),
        InformationStructure("delayed_control_sharing", delays=(3, 2, 1)),
        InformationStructure("no_sharing"),
    ],
    ids=lambda s: s.variant,
)
def test_member_node_views_are_prefix_views(structure):
    """A node's lazily built view is the prefix view of each of its
    particles' histories, and its key is that view's key."""
    model = random_model(41, num_members=3, positive=False)
    co = {j: HashedMemberStrategy(model, structure, j, salt=9 + j) for j in (0, 2)}
    sol = solve_member(model, structure, 1, co)
    for t, stage in enumerate(sol.nodes):
        for key, node in stage.items():
            for _, obs_seq, act_seq, _ in node.particles:
                assert node.view == prefix_view(structure, 3, obs_seq, act_seq, t, 1)
            assert view_key(node.view) == key


def test_member_path_builds_no_view(monkeypatch):
    """Member solves and member-table lookups format their keys without
    building a view: with ``prefix_view`` and ``view_key`` failing in the
    ``dp`` and ``strategies`` namespaces, two best responses and the exact
    cost of the profile they give run and reproduce the unpatched run."""
    model = random_model(17, horizon=3)
    structure = InformationStructure("delayed_sharing", delays=(2, 1))

    def best_responses():
        current = [ConstantMemberStrategy(k, 0) for k in range(2)]
        roots = []
        for k in (0, 1):
            sol = solve_member(model, structure, k, {1 - k: current[1 - k]})
            current[k] = sol.strategy
            roots.append(sol.root_value)
        profile = DecentralizedStrategy(model, structure, current)
        return roots, [s.table for s in current], oracle.exact_cost(model, structure, profile)

    want = best_responses()

    def fail(*args, **kwargs):
        raise AssertionError("a view was built on the member path")

    for module in ("teamdp.dp", "teamdp.strategies"):
        for name in ("prefix_view", "view_key"):
            monkeypatch.setattr(f"{module}.{name}", fail, raising=False)
    assert best_responses() == want


def _batch_stages(toy2):
    """Stages of solved member trees, with the instance each comes from:
    toy2, a zero-entry model at T = 3, and a three-member model."""
    zero = random_model(601, horizon=3, positive=False), POOLED_VARIANTS[0]
    three = (
        random_model(41, num_members=3, positive=False),
        InformationStructure("delayed_sharing", delays=(1, 3, 2)),
    )
    out = []
    for model, structure in (toy2, zero, three):
        K = model.num_members
        co = {j: HashedMemberStrategy(model, structure, j, salt=7 + j) for j in range(1, K)}
        for stage in solve_member(model, structure, 0, co).stages:
            out.append((model, structure, stage))
    return out


def test_horizon_views_are_keyed_on_first_read(monkeypatch, toy2):
    """A solve formats no horizon-stage key: with every horizon view
    given one key, the solve and its table are as before, and the
    duplicate view is refused where the keys are first built, by
    ``nodes`` and by the strategy's ``node_beliefs``."""
    model, structure = toy2
    co = {1: ConstantMemberStrategy(1, 1)}
    want = solve_member(model, structure, 0, co)

    def horizon_collides(structure, member, obs, act):
        if obs.shape[1] == model.horizon:
            return ["same"] * len(obs)
        return _view_keys(structure, member, obs, act)

    monkeypatch.setattr("teamdp.dp._view_keys", horizon_collides)
    sol = solve_member(model, structure, 0, co)
    assert sol.strategy.table == want.strategy.table
    assert sol.root_value == want.root_value
    with pytest.raises(InvariantError, match="two member-tree paths reach view 'same'"):
        sol.nodes
    with pytest.raises(InvariantError, match="two member-tree paths reach view 'same'"):
        sol.strategy.node_beliefs


def test_batch_lookups_match_per_history_lookups(toy2):
    """``member_actions`` on a stage's history arrays answers, raises and
    counts fallbacks as ``member_action`` over the stage's histories, for
    the constant form, keyed tables with and without a default (some of
    their views dropped) and the member solver's output, on every stage
    of solved member trees."""
    stages = _batch_stages(toy2)
    solved = {}

    def answers(lookup):
        try:
            return lookup(), None
        except StrategyUndefinedError as e:
            return None, str(e)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        model, structure, stage = data.draw(st.sampled_from(stages))
        K, t, H = model.num_members, stage.time, len(stage.obs)
        m = data.draw(st.integers(0, K - 1))
        form = data.draw(st.sampled_from(["constant", "table", "default", "solver"]))
        if form == "constant":
            strategy = ConstantMemberStrategy(m, data.draw(st.integers(0, 1)))
        elif form == "solver":
            key = (id(model), structure, m)
            if key not in solved:
                co = {j: ConstantMemberStrategy(j, 0) for j in range(K) if j != m}
                solved[key] = solve_member(model, structure, m, co).strategy
            strategy = solved[key]
        else:
            hashed = HashedMemberStrategy(model, structure, m, salt=t)
            table = {}
            for obs_seq, act_seq in stage.sequences:
                view = prefix_view(structure, K, obs_seq, act_seq, t, m)
                table[view_key(view)] = hashed.member_action(obs_seq, act_seq, t)
            dropped = data.draw(st.sets(st.sampled_from(sorted(table)), max_size=3))
            table = {k: v for k, v in table.items() if k not in dropped}
            default = data.draw(st.integers(0, 1)) if form == "default" else None
            strategy = MemberTableStrategy(model, structure, m, table, default=default)
        before = getattr(strategy, "fallbacks", 0)
        one = answers(lambda: [strategy.member_action(o, a, t) for o, a in stage.sequences])
        middle = getattr(strategy, "fallbacks", 0)
        batch = answers(lambda: strategy.member_actions(stage.obs, stage.act, t))
        after = getattr(strategy, "fallbacks", 0)
        if batch[0] is not None:
            assert batch[0].dtype == np.intp and batch[0].shape == (H,)
            batch = batch[0].tolist(), None
        assert batch == one
        if one[0] is not None:
            assert after - middle == middle - before

    check()


def _member_solutions(model, structure):
    """The manager solution, and each member's solution against the
    manager's projections, as compare_solutions makes them."""
    mgr = solve_manager(model, structure)
    projections = {j: ManagerProjectionStrategy(j, mgr.strategy) for j in range(model.num_members)}
    return mgr, [
        solve_member(model, structure, k, {j: s for j, s in projections.items() if j != k})
        for k in projections
    ]


def test_compare_joins_stage_arrays(monkeypatch, toy2):
    """compare_solutions reads the member and manager stage arrays: with
    the particle tuples failing, it reproduces the unpatched reports, and
    it builds no history key anywhere: the manager rows, for the join and
    for the co-strategy lookups, come from the walk.  (A refused manager
    lookup spells its history's key, which shows the counter is live.)"""
    import sys

    import teamdp.dp
    import teamdp.strategies
    k3 = random_model(23, num_members=3, num_states=2, positive=False)
    cases = [toy2, (k3, InformationStructure("delayed_sharing", delays=(1, 1, 1)))]
    want = [compare_solutions(model, structure).to_json_dict() for model, structure in cases]
    raised = []

    def fail(*args, **kwargs):
        raised.append(args)
        raise AssertionError("a particle tuple was built")

    callers = []

    def counted_key(actions, observations):
        callers.append(sys._getframe(1).f_code.co_filename)
        return history_key(actions, observations)

    monkeypatch.setattr("teamdp.filters._MemberStage.particles", fail)
    assert not hasattr(teamdp.dp, "history_key")
    for module in ("model", "strategies", "oracle"):
        monkeypatch.setattr(f"teamdp.{module}.history_key", counted_key)
    for (model, structure), report in zip(cases, want):
        assert compare_solutions(model, structure).to_json_dict() == report
    assert callers == [] and raised == []
    off_tree = ((9, 9),)
    with pytest.raises(StrategyUndefinedError, match="'u0=9,9;y1=9,9' at t=1"):
        solve_manager(*toy2).strategy.joint_action(off_tree, off_tree, 1)
    assert callers == [teamdp.strategies.__file__]


def test_compare_refuses_a_member_history_off_the_manager_tree(monkeypatch, toy2):
    """A -1 from the walk is a broken invariant, never a read of the last
    row.  Only the join's value function walks off the tree; the manager
    strategy's, which the co-strategies read, is left as it is."""
    import copy

    import teamdp.dp

    solve = teamdp.dp.solve_manager

    def off_tree(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.value_function = copy.copy(sol.value_function)
        sol.value_function.row = lambda model, obs_seq, act_seq: -1
        return sol

    monkeypatch.setattr(teamdp.dp, "solve_manager", off_tree)
    with pytest.raises(InvariantError, match="stage 0 is off the manager tree"):
        compare_solutions(*toy2)


# ---------------------------------------------------------------------------
# out-of-range input
#
# random_model(1, horizon=2) has S = 3 states and T = 2.  Unchecked, each
# case below gave a silent wrong answer or an unrelated error: t = -1 ran
# three stages from stage_cost[-1], t = 3 gave the terminal value, a
# one-state belief a number, member 2 an IndexError, member -1 an
# InvariantError, a time-5 conditional a reshape error.

_RANGE_STRUCTURE = InformationStructure("delayed_sharing", delays=(1, 1))
_BOTH = {0: ConstantMemberStrategy(0, 0), 1: ConstantMemberStrategy(1, 0)}
_ROOT_PARTICLE = [(0, (), (), 1.0)]
_HORIZON_PARTICLE = [(0, ((0, 0), (1, 0)), ((0, 1), (1, 1)), 1.0)]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda m: evaluate_value(m, -1, m.initial_dist), ValueError, "time -1 outside 0..2"),
        (lambda m: evaluate_value(m, 3, m.initial_dist), ValueError, "time 3 outside 0..2"),
        (lambda m: evaluate_value(m, 0, [1.0]), ValueError, r"belief of shape \(1,\), not \(3,\)"),
        (
            lambda m: evaluate_value(m, 0, [0.2] * 5),
            ValueError,
            r"belief of shape \(5,\), not \(3,\)",
        ),
        (
            lambda m: backup(m, lambda b: 0.0, m.initial_dist, -1),
            ValueError,
            "time -1 outside 0..1",
        ),
        (lambda m: backup(m, lambda b: 0.0, m.initial_dist, 2), ValueError, "time 2 outside 0..1"),
        (lambda m: backup(m, lambda b: 0.0, [0.5, 0.5], 0), ValueError, r"belief of shape \(2,\)"),
        (
            lambda m: solve_member(m, _RANGE_STRUCTURE, 2, _BOTH),
            ValueError,
            "member 2 outside 0..1",
        ),
        (
            lambda m: solve_member(m, _RANGE_STRUCTURE, -1, _BOTH),
            ValueError,
            "member -1 outside 0..1",
        ),
        (
            lambda m: evaluate_member_value(m, _RANGE_STRUCTURE, 0, _BOTH, (5, _ROOT_PARTICLE)),
            ValueError,
            "time 5 outside 0..2",
        ),
        (
            lambda m: evaluate_member_value(m, _RANGE_STRUCTURE, 2, _BOTH, (0, _ROOT_PARTICLE)),
            ValueError,
            "member 2 outside 0..1",
        ),
        # strategies in the wrong member's slot, which a profile scored
        # (1.97739... against 1.97999... in member order) and a member
        # solve took without a complaint
        (
            lambda m: DecentralizedStrategy(
                m, _RANGE_STRUCTURE, [ConstantMemberStrategy(1, 1), ConstantMemberStrategy(0, 0)]
            ),
            ValueError,
            "the strategy for member 0 is member 1's",
        ),
        (
            lambda m: solve_member(m, _RANGE_STRUCTURE, 0, {1: ConstantMemberStrategy(0, 1)}),
            ValueError,
            "the strategy for member 1 is member 0's",
        ),
        (
            lambda m: evaluate_member_value(
                m, _RANGE_STRUCTURE, 0, {1: ConstantMemberStrategy(0, 1)}, (0, _ROOT_PARTICLE)
            ),
            ValueError,
            "the strategy for member 1 is member 0's",
        ),
        # a missing co-member at t = T, where no co-strategy is asked: the
        # terminal cost came back
        (
            lambda m: evaluate_member_value(m, _RANGE_STRUCTURE, 0, {}, (2, _HORIZON_PARTICLE)),
            UndefinedCoStrategyError,
            "no strategy supplied for co-member 1",
        ),
    ],
    ids=[
        "evaluate_value-t-1", "evaluate_value-t3", "evaluate_value-1-state",
        "evaluate_value-5-states", "backup-t-1", "backup-t2", "backup-2-states",
        "solve_member-k2", "solve_member-k-1", "evaluate_member_value-t5",
        "evaluate_member_value-k2", "profile-swapped", "solve_member-wrong-co-member",
        "evaluate_member_value-wrong-co-member", "evaluate_member_value-t2-no-co-member",
    ],
)
def test_dp_entry_points_refuse_out_of_range_input(call, error, message):
    with pytest.raises(error, match=message):
        call(random_model(1, horizon=2))


def test_evaluate_value_at_the_horizon_is_the_terminal_cost():
    m = random_model(1, horizon=2)
    terminal = sum(c * p for c, p in zip(m.terminal_cost.tolist(), m.initial_dist.tolist()))
    assert evaluate_value(m, 2, m.initial_dist) == terminal


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


# profile_fallback_views and the member profile's exact cost of two
# instances where the member profile reaches views its tables do not hold,
# recorded when the fallback views were still kept as a list of keys
PINNED_FALLBACKS = {
    (10, (1, 2)): (4, "0x1.45bbdc5df583cp+0"),
    (11, (1, 1)): (2, "0x1.f77a817c8b254p-1"),
}


@pytest.mark.parametrize("case", sorted(PINNED_FALLBACKS), ids=str)
def test_compare_solutions_counts_fallback_views(case):
    seed, delays = case
    model = random_model(seed, num_states=4, positive=False)
    structure = InformationStructure("delayed_sharing", delays=delays)
    report = compare_solutions(model, structure)
    got = (report.profile_fallback_views, report.member_profile_cost.hex())
    assert got == PINNED_FALLBACKS[case]


def _hexed(obj):
    """``obj`` with every float spelled by ``float.hex``."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {key: _hexed(v) for key, v in obj.items()}
    if isinstance(obj, list):
        return [_hexed(v) for v in obj]
    return obj


def _pooled(variant: str, K: int) -> InformationStructure:
    if variant == "periodic_sharing":
        return InformationStructure(variant, period=1)
    return InformationStructure(variant, delays=(1,) * K)


# (members, action sizes, states, positive kernels) of the per-node join
# checks
JOIN_SHAPES = [
    (2, (2, 3), 3, True),
    (2, (3, 2), 2, False),
    (3, (2, 2, 2), 3, True),
    (3, (2, 2, 2), 2, False),
]


@pytest.mark.parametrize("shape", JOIN_SHAPES, ids=str)
@pytest.mark.parametrize("variant", [s.variant for s in POOLED_VARIANTS])
def test_compare_nodes_match_the_particle_join(variant, shape):
    """Every per-node row of compare_solutions, floats compared bit for
    bit, equals the particle-by-particle join of the member nodes with
    the manager's value function."""
    K, action_sizes, num_states, positive = shape
    model = random_model(
        len(variant) + K, num_members=K, num_states=num_states,
        action_sizes=action_sizes, positive=positive,
    )
    structure = _pooled(variant, K)
    report = compare_solutions(model, structure)
    mgr, sols = _member_solutions(model, structure)
    for k, sol in enumerate(sols):
        want = compare_nodes_reference(mgr, sol, k)
        assert _hexed(report.members[k].nodes) == _hexed(want)
