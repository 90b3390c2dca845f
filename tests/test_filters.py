"""Exact filtering: elementary updates, history replays, the member-side
conditional, and recombination — each pinned against hand numbers and the
brute-force posterior oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamdp import (
    Belief,
    ConstantMemberStrategy,
    DecentralizedStrategy,
    HistoryView,
    IncompleteHistoryError,
    InformationStructure,
    MemberTableStrategy,
    TeamModel,
    Trajectory,
    UndefinedCoStrategyError,
    ZeroLikelihoodError,
    correct,
    extract_views,
    member_belief,
    member_conditional,
    predict,
    recombine,
    team_belief_from_history,
    team_update,
    view_key,
)
from teamdp import oracle
from teamdp.sim import rollout

from conftest import (
    HashedCentralizedStrategy,
    HashedMemberStrategy,
    random_model,
    symmetric_kernel,
)


def b(probs, time=0):
    return Belief(probs=np.asarray(probs, dtype=float), time=time)


# ---------------------------------------------------------------------------
# predict


def test_predict_frozen_flip_point_three(toy2):
    model, _ = toy2
    out = predict(model, b([0.6, 0.4]), (1, 1))
    assert out.time == 1
    np.testing.assert_allclose(out.probs, [0.54, 0.46], atol=1e-15)


def test_predict_deterministic_moves_delta():
    # 2 states, one member, transition x -> 1-x surely
    t = np.zeros((2, 2, 2))
    t[0, :, 1] = 1.0
    t[1, :, 0] = 1.0
    model = TeamModel(
        num_members=1, horizon=1, states=("a", "b"), actions=(("u",),),
        observations=(("o", "p"),), initial_dist=np.array([1.0, 0.0]),
        transition=t, observation_kernels=(symmetric_kernel(0.9),),
        stage_cost=np.zeros((1, 2, 1)), terminal_cost=np.zeros(2),
    )
    out = predict(model, b([1.0, 0.0]), (0,))
    np.testing.assert_array_equal(out.probs, [0.0, 1.0])


def test_predict_doubly_stochastic_fixes_uniform(toy2):
    model, _ = toy2
    out = predict(model, b([0.5, 0.5]), (0, 1))
    np.testing.assert_allclose(out.probs, [0.5, 0.5], atol=1e-15)


# ---------------------------------------------------------------------------
# correct


def test_correct_frozen_sixteen_seventeenths(toy2):
    model, _ = toy2
    out = correct(model, b([0.5, 0.5]), (0, 0))
    np.testing.assert_allclose(out.probs, [16 / 17, 1 / 17], atol=1e-15)


def test_correct_uninformative_kernel_is_identity():
    half = np.full((2, 2), 0.5)
    model = TeamModel(
        num_members=2, horizon=1, states=("a", "b"),
        actions=(("u",), ("u",)), observations=(("y0", "y1"), ("y0", "y1")),
        initial_dist=np.array([0.3, 0.7]),
        transition=np.tile(np.eye(2)[:, None, :], (1, 1, 1)),
        observation_kernels=(half, half.copy()),
        stage_cost=np.zeros((1, 2, 1)), terminal_cost=np.zeros(2),
    )
    out = correct(model, b([0.3, 0.7]), (1, 0))
    np.testing.assert_allclose(out.probs, [0.3, 0.7], atol=1e-15)


def test_correct_impossible_observation_raises():
    eye = np.eye(2)
    model = TeamModel(
        num_members=1, horizon=1, states=("a", "b"), actions=(("u",),),
        observations=(("ya", "yb"),), initial_dist=np.array([1.0, 0.0]),
        transition=np.tile(np.eye(2)[:, None, :], (1, 1, 1)),
        observation_kernels=(eye,),
        stage_cost=np.zeros((1, 2, 1)), terminal_cost=np.zeros(2),
    )
    with pytest.raises(ZeroLikelihoodError):
        correct(model, b([1.0, 0.0]), (1,))


def test_correct_factorizes_across_members(toy2):
    model, _ = toy2
    # correcting with both observations at once == member-by-member, done by
    # making the other member's kernel uninformative
    half = np.full((2, 2), 0.5)

    def with_kernels(k0, k1):
        return TeamModel(
            num_members=2, horizon=2, states=model.states, actions=model.actions,
            observations=model.observations, initial_dist=model.initial_dist,
            transition=model.transition, observation_kernels=(k0, k1),
            stage_cost=model.stage_cost, terminal_cost=model.terminal_cost,
        )

    belief = b([0.35, 0.65])
    y = (0, 1)
    joint = correct(model, belief, y)
    only0 = with_kernels(model.observation_kernels[0], half)
    only1 = with_kernels(half, model.observation_kernels[1])
    sequential = correct(only1, correct(only0, belief, y), y)
    np.testing.assert_allclose(joint.probs, sequential.probs, atol=1e-15)


# ---------------------------------------------------------------------------
# team_update and history replay


def test_team_update_is_correct_after_predict(toy2):
    model, _ = toy2
    belief = b([0.6, 0.4])
    step = team_update(model, belief, (1, 1), (0, 0))
    two = correct(model, predict(model, belief, (1, 1)), (0, 0))
    np.testing.assert_array_equal(step.probs, two.probs)
    assert step.time == 1


def test_team_update_identity_model_is_identity():
    half = np.full((2, 2), 0.5)
    model = TeamModel(
        num_members=2, horizon=1, states=("a", "b"),
        actions=(("u",), ("u",)), observations=(("y0", "y1"), ("y0", "y1")),
        initial_dist=np.array([0.3, 0.7]),
        transition=np.tile(np.eye(2)[:, None, :], (1, 1, 1)),
        observation_kernels=(half, half.copy()),
        stage_cost=np.zeros((1, 2, 1)), terminal_cost=np.zeros(2),
    )
    out = team_update(model, b([0.3, 0.7]), (0, 0), (1, 1))
    np.testing.assert_allclose(out.probs, [0.3, 0.7], atol=1e-15)


def test_team_update_matches_posterior_oracle(toy2):
    model, structure = toy2
    traj = Trajectory(states=(0, 0, 0), observations=((0, 0), (1, 0)), actions=((1, 1), (0, 1)))
    belief = b(model.initial_dist)
    for t in range(2):
        belief = team_update(model, belief, traj.actions[t], traj.observations[t])
        views = extract_views(structure, traj, t + 1, None)
        post = oracle.exact_posterior(model, None, views)
        np.testing.assert_allclose(belief.probs, post, atol=1e-12)


def test_team_belief_empty_history_is_prior(toy2):
    model, structure = toy2
    traj = Trajectory(states=(0, 0, 0), observations=((0, 0), (1, 0)), actions=((1, 1), (0, 1)))
    views = extract_views(structure, traj, 0, None)
    out = team_belief_from_history(model, structure, views)
    np.testing.assert_array_equal(out.probs, model.initial_dist)


def test_team_belief_matches_oracle_across_variants():
    structures = [
        InformationStructure("delayed_sharing", delays=(1, 2)),
        InformationStructure("delayed_sharing", delays=(2, 2)),
        InformationStructure("periodic_sharing", period=2),
        InformationStructure("delayed_observation_sharing", delays=(1, 1)),
        InformationStructure("delayed_control_sharing", delays=(1, 1)),
    ]
    for seed in range(6):
        model = random_model(seed, num_members=2, num_states=3, horizon=3)
        g = HashedCentralizedStrategy(model, salt=seed)
        traj = rollout(model, g, seed=seed).trajectory
        for structure in structures:
            for t in range(model.horizon + 1):
                views = extract_views(structure, traj, t, None)
                got = team_belief_from_history(model, structure, views)
                want = oracle.exact_posterior(model, None, views)
                assert np.max(np.abs(got.probs - want)) <= 1e-12


def test_team_belief_no_sharing_refuses(toy2):
    model, _ = toy2
    ns = InformationStructure("no_sharing")
    traj = Trajectory(states=(0, 0, 0), observations=((0, 0), (1, 0)), actions=((1, 1), (0, 1)))
    views = extract_views(ns, traj, 1, None)
    with pytest.raises(IncompleteHistoryError):
        team_belief_from_history(model, ns, views)


def test_team_filter_ignores_which_strategy_made_the_history(toy2):
    model, structure = toy2
    traj = Trajectory(states=(0, 0, 0), observations=((0, 0), (1, 0)), actions=((1, 1), (0, 1)))
    views = extract_views(structure, traj, 2, None)
    base = team_belief_from_history(model, structure, views)
    # conditioning on any strategy consistent with the recorded actions gives
    # one and the same posterior: identical bits across strategies, and equal
    # to the incremental filter up to arithmetic order
    from teamdp import CentralizedTableStrategy

    table = {"": traj.actions[0], "u0=1,1;y1=0,0": traj.actions[1]}
    posts = []
    for salt in range(3):
        g = HashedCentralizedStrategy(model, salt=salt)
        consistent = CentralizedTableStrategy(model, table, default=g.joint_action((), (), 0))
        posts.append(oracle.exact_posterior(model, consistent, views))
    for post in posts[1:]:
        np.testing.assert_array_equal(posts[0], post)
    assert np.max(np.abs(base.probs - posts[0])) <= 1e-13


# ---------------------------------------------------------------------------
# member-side filter


def test_member_belief_k1_equals_team_belief(chain1):
    model, structure = chain1
    g = HashedCentralizedStrategy(model, salt=9)
    traj = rollout(model, g, seed=4).trajectory
    for t in range(model.horizon + 1):
        team = team_belief_from_history(model, structure, extract_views(structure, traj, t, None))
        member = member_belief(model, structure, {}, extract_views(structure, traj, t, 0))
        np.testing.assert_allclose(member.probs, team.probs, atol=1e-14)


def test_member_belief_frozen_toy_t1(toy2):
    """Member 0 acted 0, other acted 1, then member 0 observed 0: the
    conditional over states folds the prior, the action-dependent flip, and
    only member 0's likelihood."""
    model, structure = toy2
    co = {1: ConstantMemberStrategy(1, 1)}
    traj = Trajectory(states=(0, 0, 0), observations=((0, 1), (1, 1)), actions=((0, 1), (1, 1)))
    view = extract_views(structure, traj, 1, 0)
    out = member_belief(model, structure, co, view)
    # prior (.6,.4) -> flip .3 -> (.54,.46); likelihood member 0 obs 0: (.8,.2)
    want = np.array([0.54 * 0.8, 0.46 * 0.2])
    want /= want.sum()
    np.testing.assert_allclose(out.probs, want, atol=1e-15)


def test_member_belief_matches_oracle(toy2):
    model, structure = toy2
    profile = DecentralizedStrategy(
        model,
        structure,
        [HashedMemberStrategy(model, structure, 0, salt=1),
         HashedMemberStrategy(model, structure, 1, salt=2)],
    )
    for seed in range(8):
        traj = rollout(model, profile, seed=seed).trajectory
        for t in range(model.horizon + 1):
            for k in range(2):
                view = extract_views(structure, traj, t, k)
                co = {j: profile.members[j] for j in range(2) if j != k}
                got = member_belief(model, structure, co, view)
                want = oracle.exact_posterior(model, profile, view)
                assert np.max(np.abs(got.probs - want)) <= 1e-12


def test_member_belief_oracle_across_variants_and_sizes():
    structures = [
        InformationStructure("delayed_sharing", delays=(1, 1)),
        InformationStructure("delayed_sharing", delays=(2, 1)),
        InformationStructure("periodic_sharing", period=2),
        InformationStructure("delayed_observation_sharing", delays=(1, 1)),
        InformationStructure("delayed_control_sharing", delays=(2, 2)),
        InformationStructure("no_sharing"),
    ]
    for seed, structure in enumerate(structures):
        model = random_model(100 + seed, num_members=2, num_states=4, horizon=3)
        profile = DecentralizedStrategy(
            model,
            structure,
            [HashedMemberStrategy(model, structure, 0, salt=7),
             HashedMemberStrategy(model, structure, 1, salt=8)],
        )
        traj = rollout(model, profile, seed=seed).trajectory
        for t in range(model.horizon + 1):
            for k in range(2):
                view = extract_views(structure, traj, t, k)
                co = {j: profile.members[j] for j in range(2) if j != k}
                got = member_belief(model, structure, co, view)
                want = oracle.exact_posterior(model, profile, view)
                assert np.max(np.abs(got.probs - want)) <= 1e-12, (structure.variant, t, k)


def test_member_belief_invariant_to_own_strategy(toy2):
    """The member's own actions enter as recorded values: swapping the own
    component of the conditioning profile cannot change the posterior."""
    model, structure = toy2
    co = HashedMemberStrategy(model, structure, 1, salt=12)
    seed_profile = DecentralizedStrategy(
        model, structure, [HashedMemberStrategy(model, structure, 0, salt=10), co]
    )
    traj = rollout(model, seed_profile, seed=21).trajectory
    # two own-strategies that replay the recorded actions on the realized
    # views but disagree everywhere off the realized path
    own_table = {
        view_key(extract_views(structure, traj, t, 0)): traj.actions[t][0]
        for t in range(model.horizon)
    }
    own_a = MemberTableStrategy(model, structure, 0, dict(own_table), default=0)
    own_b = MemberTableStrategy(model, structure, 0, dict(own_table), default=1)
    profile_a = DecentralizedStrategy(model, structure, [own_a, co])
    profile_b = DecentralizedStrategy(model, structure, [own_b, co])
    for t in range(model.horizon + 1):
        view = extract_views(structure, traj, t, 0)
        got = member_belief(model, structure, {1: co}, view)
        post_a = oracle.exact_posterior(model, profile_a, view)
        post_b = oracle.exact_posterior(model, profile_b, view)
        np.testing.assert_array_equal(post_a, post_b)
        assert np.max(np.abs(got.probs - post_a)) <= 1e-12


def test_member_belief_missing_co_strategy(toy2):
    model, structure = toy2
    traj = Trajectory(states=(0, 0, 0), observations=((0, 1), (1, 1)), actions=((0, 1), (1, 1)))
    view = extract_views(structure, traj, 2, 0)
    with pytest.raises(UndefinedCoStrategyError):
        member_belief(model, structure, {}, view)


class RaisingKeyError:
    """Co-strategy whose lookup fails with a ``KeyError`` of its own."""

    def member_action(self, obs_seq, act_seq, t):
        raise KeyError("inside member_action")


def test_co_strategy_key_error_propagates(toy2):
    """Only a missing co-member is reported as one; a ``KeyError`` raised
    inside a supplied co-strategy reaches the caller unchanged."""
    from teamdp import solve_member

    model, structure = toy2
    traj = Trajectory(states=(0, 0, 0), observations=((0, 1), (1, 1)), actions=((0, 1), (1, 1)))
    view = extract_views(structure, traj, 2, 0)
    with pytest.raises(KeyError) as info:
        member_belief(model, structure, {1: RaisingKeyError()}, view)
    assert info.value.args == ("inside member_action",)
    with pytest.raises(KeyError) as info:
        solve_member(model, structure, 0, {1: RaisingKeyError()})
    assert info.value.args == ("inside member_action",)


def _stage_tables(model, structure, k, co):
    """Per co-member, the table of its actions at every view it is asked
    at in member ``k``'s solve against ``co``, keyed by ``view_key``."""
    from teamdp import solve_member
    from teamdp.model import prefix_view

    sol = solve_member(model, structure, k, co)
    tables = {j: {} for j in co}
    for stage in sol.stages[:-1]:
        for obs_seq, act_seq in stage.sequences:
            for j, strategy in co.items():
                view = prefix_view(structure, model.num_members, obs_seq, act_seq, stage.time, j)
                tables[j][view_key(view)] = strategy.member_action(obs_seq, act_seq, stage.time)
    return sol, tables


def test_first_undefined_co_action_in_history_order():
    """Two co-members' tables each miss a view of stage 1: member 0's at
    the stage's last history and member 2's at its first.  The error
    names the first (history, member) in history-major order, member 2's,
    as when co-strategies were asked history by history."""
    from teamdp import solve_member
    from teamdp.model import prefix_view

    model = random_model(700, num_members=3)
    structure = InformationStructure("delayed_sharing", delays=(1, 2, 1))
    hashed = {j: HashedMemberStrategy(model, structure, j, salt=j) for j in (0, 2)}
    sol, tables = _stage_tables(model, structure, 1, hashed)
    first, *_, last = sol.stages[1].sequences
    del tables[0][view_key(prefix_view(structure, 3, *last, 1, 0))]
    del tables[2][view_key(prefix_view(structure, 3, *first, 1, 2))]
    co = {j: MemberTableStrategy(model, structure, j, tables[j]) for j in (0, 2)}
    with pytest.raises(UndefinedCoStrategyError) as info:
        solve_member(model, structure, 1, co)
    # recorded before co-strategies answered a whole stage at once
    assert str(info.value) == (
        "member 2 has no action for view 't=1;k=2;c[a0^0:1,a0^2:0];p[o1:0]'"
    )
    with pytest.raises(UndefinedCoStrategyError) as info:
        solve_member(model, structure, 1, {**co, 2: hashed[2]})
    assert str(info.value) == (
        "member 0 has no action for view 't=1;k=0;c[a0^0:1,a0^2:0];p[o1:1]'"
    )


def test_batch_co_strategies_build_no_history_tuples():
    """Against co-strategies that answer a whole stage (a constant and a
    keyed table), no stage builds its per-history tuples, neither in the
    solve nor when its nodes, their views' keys or its beliefs are read;
    the solve matches the one against per-history co-strategies."""
    from teamdp import solve_member

    model = random_model(700, num_members=3)
    structure = InformationStructure("delayed_sharing", delays=(1, 2, 1))
    hashed = {0: HashedMemberStrategy(model, structure, 0, salt=3), 2: ConstantMemberStrategy(2, 1)}
    want, tables = _stage_tables(model, structure, 1, hashed)
    co = {0: MemberTableStrategy(model, structure, 0, tables[0]), 2: hashed[2]}
    sol = solve_member(model, structure, 1, co)
    assert [list(stage) for stage in sol.nodes] == [list(stage) for stage in want.nodes]
    assert sol.strategy.node_beliefs.keys() == want.strategy.node_beliefs.keys()
    assert sol.strategy.table == want.strategy.table
    assert sol.root_value == want.root_value
    assert all("sequences" not in stage.__dict__ for stage in sol.stages)


def test_member_belief_zero_probability_view(toy2):
    model, structure = toy2
    co = {1: ConstantMemberStrategy(1, 0)}
    # recorded pooled co-action is 1, contradicting the fixed co-strategy
    traj = Trajectory(states=(0, 0, 0), observations=((0, 1), (1, 1)), actions=((0, 1), (1, 1)))
    view = extract_views(structure, traj, 2, 0)
    with pytest.raises(ZeroLikelihoodError):
        member_belief(model, structure, co, view)


def test_member_side_filters_refuse_out_of_range_members_and_times():
    """A member outside 0..K-1, a time outside 0..T or a co-strategy in
    another member's slot is a ValueError before any index is taken:
    member 5 used to raise IndexError from ``structure.delays[5]``, and
    member -1 (K - 1's delay), time -1 and, with K = 1, any member or
    time given to recombine were answered."""
    model = random_model(1, horizon=2)
    structure = InformationStructure("delayed_sharing", delays=(1, 1))
    co = {k: ConstantMemberStrategy(k, 0) for k in range(2)}
    traj = Trajectory(states=(0, 0, 0), observations=((0, 0), (0, 0)), actions=((0, 0), (0, 0)))
    one, zero = extract_views(structure, traj, 1, 0), extract_views(structure, traj, 0, 1)
    views = {
        "member 5 outside 0..1": HistoryView(1, 5, one.common, one.private),
        "member -1 outside 0..1": HistoryView(0, -1, zero.common, zero.private),
        "time -1 outside 0..2": HistoryView(-1, 0, (), ()),
    }
    for message, view in views.items():
        for query in (member_conditional, member_belief):
            with pytest.raises(ValueError, match=message):
                query(model, structure, co, view)
    belief = member_belief(model, structure, co, extract_views(structure, traj, 0, 0))
    team = extract_views(structure, traj, 0, None)
    for member in (5, -1):
        with pytest.raises(ValueError, match=f"member {member} outside 0..1"):
            recombine(model, structure, member, belief, co, team)
    with pytest.raises(ValueError, match="time -1 outside 0..2"):
        recombine(model, structure, 0, belief, co, HistoryView(-1, None, (), ((), ())))
    # a co-strategy in the wrong member's slot, which was answered
    wrong = {1: ConstantMemberStrategy(0, 0)}
    for query in (member_conditional, member_belief):
        with pytest.raises(ValueError, match="the strategy for member 1 is member 0's"):
            query(model, structure, wrong, extract_views(structure, traj, 1, 0))
    with pytest.raises(ValueError, match="the strategy for member 1 is member 0's"):
        recombine(model, structure, 0, belief, wrong, team)
    # K = 1 returns the belief unread, so it must check first
    chain = random_model(1, num_members=1, horizon=2)
    alone = InformationStructure("delayed_sharing", delays=(1,))
    prior = b(chain.initial_dist)
    with pytest.raises(ValueError, match="member 1 outside 0..0"):
        recombine(chain, alone, 1, prior, {}, HistoryView(0, None, (), ((),)))
    with pytest.raises(ValueError, match="time 3 outside 0..2"):
        recombine(chain, alone, 0, prior, {}, HistoryView(3, None, (), ((),)))


def test_member_conditional_weights_and_marginal(toy2):
    model, structure = toy2
    co = {1: ConstantMemberStrategy(1, 1)}
    traj = Trajectory(states=(0, 0, 0), observations=((0, 1), (1, 1)), actions=((0, 1), (1, 1)))
    view = extract_views(structure, traj, 2, 0)
    cond = member_conditional(model, structure, co, view)
    total = sum(w for *_, w in cond.entries)
    assert abs(total - 1.0) <= 1e-12
    marg = cond.state_marginal(model.num_states)
    mb = member_belief(model, structure, co, view)
    np.testing.assert_array_equal(marg.probs, mb.probs)
    # every entry's own components must replay the view's recorded data
    for _, obs_seq, act_seq, _ in cond.entries:
        assert [o[0] for o in obs_seq] == [o[0] for o in traj.observations]
        assert [a[0] for a in act_seq] == [a[0] for a in traj.actions]


# ---------------------------------------------------------------------------
# recombination


def test_recombine_k1_is_identity(chain1):
    model, structure = chain1
    g = HashedCentralizedStrategy(model, salt=5)
    traj = rollout(model, g, seed=11).trajectory
    views = extract_views(structure, traj, 2, None)
    mb = member_belief(model, structure, {}, extract_views(structure, traj, 2, 0))
    out = recombine(model, structure, 0, mb, {}, views)
    np.testing.assert_array_equal(out.probs, mb.probs)


def test_recombine_reconstructs_team_belief(toy2):
    model, structure = toy2
    co = {1: ConstantMemberStrategy(1, 1)}
    traj = Trajectory(states=(0, 0, 0), observations=((0, 1), (1, 1)), actions=((0, 1), (1, 1)))
    for t in range(model.horizon + 1):
        views = extract_views(structure, traj, t, None)
        own = extract_views(structure, traj, t, 0)
        mb = member_belief(model, structure, co, own)
        got = recombine(model, structure, 0, mb, co, views)
        want = team_belief_from_history(model, structure, views)
        assert np.max(np.abs(got.probs - want.probs)) <= 1e-12


def test_recombine_scaling_invariance(toy2):
    """Feeding a rescaled member belief cannot change the normalized
    output (the recombination renormalizes)."""
    model, structure = toy2
    co = {1: ConstantMemberStrategy(1, 1)}
    traj = Trajectory(states=(0, 0, 0), observations=((0, 1), (1, 1)), actions=((0, 1), (1, 1)))
    views = extract_views(structure, traj, 2, None)
    own = extract_views(structure, traj, 2, 0)
    mb = member_belief(model, structure, co, own)
    base = recombine(model, structure, 0, mb, co, views)
    # a belief mixed towards uniform has the same support; recombining a
    # differently-weighted belief changes the output, but rescaling by a
    # constant (here: passing the identical belief again) does not
    again = recombine(model, structure, 0, mb, co, views)
    np.testing.assert_array_equal(base.probs, again.probs)


# ---------------------------------------------------------------------------
# normalization properties


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_filter_outputs_are_normalized(seed):
    model = random_model(seed % 50, num_members=2, num_states=3, horizon=2)
    structure = InformationStructure("delayed_sharing", delays=(1, 1))
    profile = DecentralizedStrategy(
        model,
        structure,
        [HashedMemberStrategy(model, structure, 0, salt=seed),
         HashedMemberStrategy(model, structure, 1, salt=seed + 1)],
    )
    traj = rollout(model, profile, seed=seed).trajectory
    t = seed % (model.horizon + 1)
    team = team_belief_from_history(model, structure, extract_views(structure, traj, t, None))
    assert abs(float(team.probs.sum()) - 1.0) <= 1e-10
    assert np.all(team.probs >= 0.0)
    k = seed % 2
    co = {j: profile.members[j] for j in range(2) if j != k}
    member = member_belief(model, structure, co, extract_views(structure, traj, t, k))
    assert abs(float(member.probs.sum()) - 1.0) <= 1e-10
    assert np.all(member.probs >= 0.0)


def test_belief_validation():
    with pytest.raises(ValueError):
        Belief(probs=np.array([0.5, 0.6]), time=0)
    with pytest.raises(ValueError):
        Belief(probs=np.array([-0.1, 1.1]), time=0)
    ok = Belief(probs=np.array([0.25, 0.75]), time=3)
    assert ok.time == 3
    with pytest.raises(ValueError):
        ok.probs[0] = 1.0  # read-only
