"""Model validation, view extraction, and canonical-key behavior."""

import dataclasses
import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamdp import (
    InformationStructure,
    TeamModel,
    Trajectory,
    extract_views,
    validate_model,
    view_known,
)
from teamdp.model import (
    _slot_values,
    _value_at,
    history_key,
    prefix_view,
    tiebreak_joint_actions,
    validate_structure,
    view_key,
    view_slots,
)

from conftest import flip_transition, random_model, sharing_structures, symmetric_kernel


# ---------------------------------------------------------------------------
# validation


def test_wellformed_toy_validates(toy2):
    model, structure = toy2
    assert validate_model(model, structure) == []


def test_transition_row_sum_violation_names_the_row(toy2):
    model, _ = toy2
    bad = model.transition.copy()
    bad[1, 2] = [0.6, 0.3]  # sums to 0.9
    broken = TeamModel(
        num_members=model.num_members,
        horizon=model.horizon,
        states=model.states,
        actions=model.actions,
        observations=model.observations,
        initial_dist=model.initial_dist,
        transition=bad,
        observation_kernels=model.observation_kernels,
        stage_cost=model.stage_cost,
        terminal_cost=model.terminal_cost,
    )
    violations = validate_model(broken)
    assert len(violations) == 1
    assert "transition" in violations[0].path
    assert "x=1" in violations[0].path and "u=2" in violations[0].path


def test_negative_costs_are_allowed(toy2):
    model, _ = toy2
    negative = TeamModel(
        num_members=model.num_members,
        horizon=model.horizon,
        states=model.states,
        actions=model.actions,
        observations=model.observations,
        initial_dist=model.initial_dist,
        transition=model.transition,
        observation_kernels=model.observation_kernels,
        stage_cost=model.stage_cost - 5.0,
        terminal_cost=model.terminal_cost,
    )
    assert validate_model(negative) == []


@pytest.mark.parametrize(
    "stage, terminal, valid",
    [(1e307, 1e307, True), (1e308, 0.0, False), (-1e308, 0.0, False), (0.0, 1e308, True)],
)
def test_costs_whose_value_bound_overflows_are_a_violation(stage, terminal, valid):
    """Every value is bounded by the sum over the stages of the largest
    |stage cost| plus the largest |terminal cost|; costs each finite whose
    bound is not are refused, so no value can overflow."""
    model = random_model(1, horizon=2)
    model = dataclasses.replace(
        model,
        stage_cost=np.full_like(model.stage_cost, stage),
        terminal_cost=np.full_like(model.terminal_cost, terminal),
    )
    violations = validate_model(model)
    assert [v.path for v in violations] == ([] if valid else ["stage_cost"])


@pytest.mark.parametrize(
    "edit, path, message",
    [
        ({"num_members": 0}, "num_members", "must be >= 1"),
        ({"horizon": 0}, "horizon", "must be >= 1"),
        ({"states": ()}, "states", "must be nonempty"),
        ({"actions": ((), ("0", "1"))}, "actions[0]", "must be nonempty"),
    ],
)
def test_size_violations_the_schema_refuses_first(edit, path, message):
    """Sizes that a scenario document cannot carry past its schema are
    still refused by the library, first in the list."""
    violations = validate_model(dataclasses.replace(random_model(1, horizon=2), **edit))
    assert (violations[0].path, violations[0].message) == (path, message)


def test_structure_parameter_checks():
    assert validate_structure(InformationStructure("delayed_sharing", delays=(1, 1)), 2) == []
    out = validate_structure(InformationStructure("delayed_sharing"), 2)
    assert any("delays" in v.path for v in out)
    out = validate_structure(InformationStructure("delayed_sharing", delays=(0, 1)), 2)
    assert any("delays" in v.path for v in out)
    out = validate_structure(InformationStructure("periodic_sharing"), 2)
    assert any("period" in v.path for v in out)
    out = validate_structure(InformationStructure("no_sharing", period=2), 2)
    assert out
    out = validate_structure(InformationStructure("telepathy"), 2)
    assert any("variant" in v.path for v in out)


# ---------------------------------------------------------------------------
# view extraction: pinned examples


def _traj3() -> Trajectory:
    # T=3, 2 members: actions at 0..2, observations at 1..3
    return Trajectory(
        states=(0, 1, 0, 1),
        observations=((0, 1), (1, 1), (1, 0)),
        actions=((0, 0), (1, 0), (0, 1)),
    )


def test_delayed_sharing_two_step_delay_at_t3():
    st2 = InformationStructure("delayed_sharing", delays=(2, 2))
    view = extract_views(st2, _traj3(), 3, 0)
    # pool: everything that existed by time 1 = joint u0, joint y1, joint u1
    assert set(view.common) == {
        (0, 0, "act", 0),
        (0, 1, "act", 0),
        (1, 0, "obs", 0),
        (1, 1, "obs", 1),
        (1, 0, "act", 1),
        (1, 1, "act", 0),
    }
    # own recent data: y2, y3 and u2 for member 0
    assert set(view.private) == {(2, "obs", 1), (3, "obs", 1), (2, "act", 0)}


def test_no_sharing_view_is_own_stream_only():
    ns = InformationStructure("no_sharing")
    view = extract_views(ns, _traj3(), 2, 1)
    assert view.common == ()
    assert set(view.private) == {(1, "obs", 1), (2, "obs", 1), (0, "act", 0), (1, "act", 0)}


def test_delay_longer_than_horizon_leaves_pool_empty():
    st5 = InformationStructure("delayed_sharing", delays=(5, 5))
    view = extract_views(st5, _traj3(), 3, 0)
    assert view.common == ()


def test_periodic_sharing_pools_in_batches():
    per = InformationStructure("periodic_sharing", period=2)
    # before the first boundary has been passed nothing is pooled
    v1 = extract_views(per, _traj3(), 2, 0)
    assert v1.common == ()
    assert set(v1.private) == {(1, "obs", 0), (2, "obs", 1), (0, "act", 0), (1, "act", 1)}
    # at t=3 the time-2 boundary has passed: all data through time 2 pooled
    v2 = extract_views(per, _traj3(), 3, 0)
    assert set(view_known(v1)) < set(view_known(v2))
    pooled_times = {(s, kind) for s, _, kind, _ in v2.common}
    assert pooled_times == {(1, "obs"), (2, "obs"), (0, "act"), (1, "act"), (2, "act")}


def test_observation_only_sharing_keeps_all_own_actions():
    s = InformationStructure("delayed_observation_sharing", delays=(1, 1))
    view = extract_views(s, _traj3(), 3, 0)
    kinds_common = {kind for _, _, kind, _ in view.common}
    assert kinds_common == {"obs"}
    own_acts = {(t, v) for t, kind, v in view.private if kind == "act"}
    assert own_acts == {(0, 0), (1, 1), (2, 0)}


def test_control_only_sharing_keeps_all_own_observations():
    s = InformationStructure("delayed_control_sharing", delays=(1, 1))
    view = extract_views(s, _traj3(), 3, 1)
    kinds_common = {kind for _, _, kind, _ in view.common}
    assert kinds_common == {"act"}
    own_obs = {(t, v) for t, kind, v in view.private if kind == "obs"}
    assert own_obs == {(1, 1), (2, 1), (3, 0)}


# sha256 over the repr of every layout below, one line each, as the slot
# tables of the earlier model gave them
_LAYOUT_SHA256 = "bc74fc97a9dbca53b5c2c04fbe840cbc13bbd903243807acd6494a07c013461f"


def test_view_layouts_are_pinned():
    """Every view layout for K <= 3 up to t = 8: no sharing, periods 1..4
    and each delayed variant under every delay tuple in {1, 2, 3}^K, for
    the team and each member."""
    digest = hashlib.sha256()
    for K in (1, 2, 3):
        structures = [InformationStructure("no_sharing")]
        structures += [InformationStructure("periodic_sharing", period=w) for w in range(1, 5)]
        for variant in (
            "delayed_sharing", "delayed_observation_sharing", "delayed_control_sharing"
        ):
            structures += [
                InformationStructure(variant, delays=d) for d in product((1, 2, 3), repeat=K)
            ]
        for s in structures:
            for t in range(9):
                for m in (None, *range(K)):
                    digest.update(repr(view_slots(s, K, t, m)).encode() + b"\n")
    assert digest.hexdigest() == _LAYOUT_SHA256


def test_slot_values_read_every_layout_as_value_at():
    """``_slot_values`` reads every slot of every view layout above, the
    team's and each member's, from ``(H, t, K)`` history arrays as
    ``_value_at`` reads it from one history's sequences."""
    rng = np.random.default_rng(3)
    for K in (1, 2, 3):
        structures = [InformationStructure("no_sharing")]
        structures += [InformationStructure("periodic_sharing", period=w) for w in range(1, 5)]
        for variant in (
            "delayed_sharing", "delayed_observation_sharing", "delayed_control_sharing"
        ):
            structures += [
                InformationStructure(variant, delays=d) for d in product((1, 2, 3), repeat=K)
            ]
        for t in range(9):
            obs, act = rng.integers(0, 13, size=(2, 3, t, K))
            histories = list(zip(obs.tolist(), act.tolist()))
            for s in structures:
                for m in (None, *range(K)):
                    common, privates = view_slots(s, K, t, m)
                    slots = common + sum(privates, ())
                    want = [[_value_at(o, a, slot) for slot in slots] for o, a in histories]
                    assert _slot_values(obs, act, slots).tolist() == want


def test_time_and_member_range_errors():
    st1 = InformationStructure("delayed_sharing", delays=(1, 1))
    with pytest.raises(ValueError, match=r"^time 4 outside 0\.\.3$"):
        extract_views(st1, _traj3(), 4, 0)
    with pytest.raises(ValueError):
        extract_views(st1, _traj3(), 2, 5)
    with pytest.raises(ValueError, match=r"^unknown variant 'bogus'$"):
        view_slots(InformationStructure("bogus"), 2, 1, 0)


# ---------------------------------------------------------------------------
# view extraction: properties


@st.composite
def trajectories(draw, num_members=2, horizon=3):
    T = draw(st.integers(1, horizon))
    acts = tuple(
        tuple(draw(st.integers(0, 1)) for _ in range(num_members)) for _ in range(T)
    )
    obs = tuple(
        tuple(draw(st.integers(0, 1)) for _ in range(num_members)) for _ in range(T)
    )
    states = tuple(draw(st.integers(0, 1)) for _ in range(T + 1))
    return Trajectory(states=states, observations=obs, actions=acts)


@given(traj=trajectories(), delays=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       t=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_delayed_sharing_union_reconstructs_everything(traj, delays, t):
    t = min(t, len(traj.actions))
    s = InformationStructure("delayed_sharing", delays=delays)
    known = {}
    for k in range(2):
        for slot, val in view_known(extract_views(s, traj, t, k)).items():
            if slot in known:
                assert known[slot] == val, "duplicate slot with conflicting value"
            known[slot] = val
    expected = {}
    for i in range(t):
        for k in range(2):
            expected[(i, k, "act")] = traj.actions[i][k]
    for i in range(1, t + 1):
        for k in range(2):
            expected[(i, k, "obs")] = traj.observations[i - 1][k]
    assert known == expected


@given(traj=trajectories(), structure=sharing_structures(), t=st.integers(0, 3),
       member=st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_extract_views_is_pure(traj, structure, t, member):
    t = min(t, len(traj.actions))
    a = extract_views(structure, traj, t, member)
    b = extract_views(structure, traj, t, member)
    assert a == b


@given(traj=trajectories(horizon=4), structure=sharing_structures(), member=st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_common_pool_grows_as_a_prefix(traj, structure, member):
    T = len(traj.actions)
    for t in range(T):
        now = extract_views(structure, traj, t, member).common
        nxt = extract_views(structure, traj, t + 1, member).common
        assert nxt[: len(now)] == now


@given(traj=trajectories(horizon=4), structure=sharing_structures(), member=st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_member_knowledge_never_shrinks(traj, structure, member):
    T = len(traj.actions)
    for t in range(T):
        now = view_known(extract_views(structure, traj, t, member))
        nxt = view_known(extract_views(structure, traj, t + 1, member))
        assert set(now) <= set(nxt)
        for slot, val in now.items():
            assert nxt[slot] == val


# ---------------------------------------------------------------------------
# canonical keys and orderings


def test_history_key_layout():
    assert history_key((), ()) == ""
    assert history_key(((0, 1),), ()) == "u0=0,1"
    assert history_key(((0, 1), (1, 1)), ((1, 0),)) == "u0=0,1;y1=1,0;u1=1,1"


def test_view_key_distinguishes_member_and_time():
    s = InformationStructure("delayed_sharing", delays=(1, 1))
    traj = _traj3()
    keys = {
        view_key(extract_views(s, traj, t, m)) for t in range(4) for m in (0, 1, None)
    }
    assert len(keys) == 12  # all distinct


def test_wire_order_vs_tiebreak_order():
    model = TeamModel(
        num_members=2,
        horizon=1,
        states=("x",),
        actions=(("a", "b"), ("c", "d", "e")),
        observations=(("o",), ("o",)),
        initial_dist=np.array([1.0]),
        transition=np.ones((1, 6, 1)),
        observation_kernels=(np.ones((1, 1)), np.ones((1, 1))),
        stage_cost=np.zeros((1, 1, 6)),
        terminal_cost=np.zeros(1),
    )
    # wire order: member 2 varies fastest (row-major)
    assert model.joint_actions == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert [model.flat_action(u) for u in model.joint_actions] == list(range(6))
    # tie-break order: member 1 varies fastest
    assert tiebreak_joint_actions(model) == ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))


def test_prefix_view_matches_extract_views():
    s = InformationStructure("periodic_sharing", period=2)
    traj = _traj3()
    for t in range(4):
        for m in (0, 1, None):
            via_traj = extract_views(s, traj, t, m)
            via_prefix = prefix_view(s, 2, traj.observations[:t], traj.actions[:t], t, m)
            assert via_traj == via_prefix


def test_random_model_generator_is_valid():
    for seed in range(5):
        m = random_model(seed, num_members=2, num_states=4, horizon=3)
        assert validate_model(m) == []


def test_flip_transition_and_kernel_helpers():
    t = flip_transition(0.3, 4)
    assert t.shape == (2, 4, 2)
    assert np.allclose(t.sum(axis=-1), 1.0)
    k = symmetric_kernel(0.8)
    assert np.allclose(k.sum(axis=-1), 1.0)
