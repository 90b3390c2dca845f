"""Shared fixtures: small hand-built models, random instance generators,
deterministic pseudo-random strategies, and mutated scenario documents.

"Random" strategies hash their decision key, so a (salt, key) pair always
produces the same action without storing tables; this keeps property
tests reproducible without fixture files.
"""

import copy
import hashlib
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from teamdp import InformationStructure, TeamModel
from teamdp.model import history_key, prefix_view, view_key
from teamdp.scenario import scenario_to_dict

# ---------------------------------------------------------------------------
# hand-built models


def flip_transition(flip: float, num_joint_actions: int) -> np.ndarray:
    """2-state kernel: the state flips with the same chance under every
    joint action."""
    t = np.empty((2, num_joint_actions, 2))
    t[0, :, :] = [1.0 - flip, flip]
    t[1, :, :] = [flip, 1.0 - flip]
    return t


def symmetric_kernel(p_correct: float) -> np.ndarray:
    return np.array([[p_correct, 1.0 - p_correct], [1.0 - p_correct, p_correct]])


@pytest.fixture
def toy2():
    """2 members, 2 states, binary everything, T=2, one-step delayed
    sharing.  Flip chance 0.3, observation accuracy 0.8, fixed costs."""
    stage = np.array(
        [
            [[0.0, 1.0, 0.2, 0.8], [1.0, 0.0, 0.7, 0.3]],
            [[0.3, 0.9, 0.1, 0.5], [0.6, 0.2, 0.8, 0.4]],
        ]
    )
    model = TeamModel(
        num_members=2,
        horizon=2,
        states=("lo", "hi"),
        actions=(("stay", "go"), ("stay", "go")),
        observations=(("dim", "bright"), ("dim", "bright")),
        initial_dist=np.array([0.6, 0.4]),
        transition=flip_transition(0.3, 4),
        observation_kernels=(symmetric_kernel(0.8), symmetric_kernel(0.8)),
        stage_cost=stage,
        terminal_cost=np.array([0.0, 1.0]),
    )
    structure = InformationStructure("delayed_sharing", delays=(1, 1))
    return model, structure


@pytest.fixture
def chain1():
    """Single member, 2 states, T=2: the degenerate team."""
    model = TeamModel(
        num_members=1,
        horizon=2,
        states=("a", "b"),
        actions=(("u0", "u1"),),
        observations=(("y0", "y1"),),
        initial_dist=np.array([0.5, 0.5]),
        transition=flip_transition(0.25, 2),
        observation_kernels=(symmetric_kernel(0.85),),
        stage_cost=np.array([[[0.0, 0.6], [0.9, 0.1]], [[0.2, 0.7], [0.5, 0.0]]]),
        terminal_cost=np.array([0.0, 2.0]),
    )
    return model, InformationStructure("delayed_sharing", delays=(1,))


@pytest.fixture
def classical2():
    """2 members who both observe the state perfectly with one-step
    sharing: informationally classical, so the member solves must
    reproduce the manager's decisions exactly."""
    eye = np.eye(2)
    stage = np.array(
        [
            [[0.0, 0.8, 0.3, 1.0], [0.9, 0.2, 1.0, 0.4]],
            [[0.5, 0.1, 0.6, 0.2], [0.3, 0.7, 0.0, 0.9]],
        ]
    )
    model = TeamModel(
        num_members=2,
        horizon=2,
        states=("s0", "s1"),
        actions=(("l", "r"), ("l", "r")),
        observations=(("s0", "s1"), ("s0", "s1")),
        initial_dist=np.array([0.7, 0.3]),
        transition=flip_transition(0.4, 4),
        observation_kernels=(eye, eye.copy()),
        stage_cost=stage,
        terminal_cost=np.array([1.0, 0.0]),
    )
    return model, InformationStructure("delayed_sharing", delays=(1, 1))


# ---------------------------------------------------------------------------
# random instances


def random_model(
    seed: int,
    num_members: int = 2,
    num_states: int = 3,
    horizon: int = 2,
    obs_sizes=None,
    positive: bool = True,
    action_sizes=None,
) -> TeamModel:
    """Reproducible random instance; ``positive`` keeps every kernel entry
    off zero so all observation branches stay reachable.  Otherwise every
    draw below half of its row's largest is set to zero, so the kernels
    and the initial distribution have zero entries (each row keeps at
    least its largest).  Actions are binary unless ``action_sizes`` says
    otherwise."""
    r = np.random.default_rng(seed)
    K, S, T = num_members, num_states, horizon
    obs_sizes = tuple(obs_sizes or (2,) * K)
    action_sizes = tuple(action_sizes or (2,) * K)
    A = int(np.prod(action_sizes))

    def dist(shape):
        m = r.uniform(0.05 if positive else 0.0, 1.0, size=shape)
        if not positive:
            m[m < 0.5 * m.max(axis=-1, keepdims=True)] = 0.0
        return m / m.sum(axis=-1, keepdims=True)

    return TeamModel(
        num_members=K,
        horizon=T,
        states=tuple(f"s{i}" for i in range(S)),
        actions=tuple(tuple(str(v) for v in range(n)) for n in action_sizes),
        observations=tuple(tuple(str(v) for v in range(n)) for n in obs_sizes),
        initial_dist=dist((S,)),
        transition=dist((S, A, S)),
        observation_kernels=tuple(dist((S, n)) for n in obs_sizes),
        stage_cost=r.uniform(0.0, 1.0, size=(T, S, A)).round(3),
        terminal_cost=r.uniform(0.0, 1.0, size=(S,)).round(3),
    )


@st.composite
def sharing_structures(draw, num_members=2):
    """Any of the five variants, with delays 1-3 per member or a period
    1-3."""
    variant = draw(
        st.sampled_from(
            ["delayed_sharing", "periodic_sharing", "delayed_observation_sharing",
             "delayed_control_sharing", "no_sharing"]
        )
    )
    if variant == "periodic_sharing":
        return InformationStructure(variant, period=draw(st.integers(1, 3)))
    if variant == "no_sharing":
        return InformationStructure(variant)
    delays = tuple(draw(st.integers(1, 3)) for _ in range(num_members))
    return InformationStructure(variant, delays=delays)


# ---------------------------------------------------------------------------
# reference forms of report sections


class ManagerNode(NamedTuple):
    """A manager tree node: the team belief reached there, the optimal
    value, and the minimizing joint action (None at the horizon)."""

    belief: np.ndarray
    value: float
    argmin: tuple | None


def manager_histories(vf) -> list:
    """Per stage t = 0..horizon, the ``(obs_seq, act_seq)`` of each row of
    the manager value function ``vf`` in row order, recovered from the
    child indices: row r of stage t+1 is the r-th live branch ``(parent,
    action, observation)`` of ``index[t]`` in flat order."""
    histories = [[((), ())]]
    for index in vf.index:
        parents = histories[-1]
        histories.append(
            [
                (parents[p][0] + (vf.observations[y],), parents[p][1] + (vf.actions[a],))
                for p, a, y in np.argwhere(index >= 0).tolist()
            ]
        )
    return histories


def manager_stages(vf) -> list:
    """A manager value function read by history key: per stage t =
    0..horizon, a dict from key to :class:`ManagerNode` in row order.  The
    keys are ``model.history_key`` of the :func:`manager_histories`, so the
    reference shares no code with the report writer and does not go
    through ``ValueFunction.row``.  The horizon stage, which the value
    function does not hold, is ``vf.horizon_stage()`` (the root at
    horizon 0)."""
    stages = []
    for t, stage in enumerate(manager_histories(vf)):
        argmins = vf.argmins[t].tolist() if t < vf.horizon else [None] * len(stage)
        if t < len(vf.values):
            beliefs, values = vf.beliefs[t], vf.values[t]
        else:
            beliefs, values = vf.horizon_stage()
        stages.append(
            {
                history_key(act_seq, obs_seq): ManagerNode(
                    b, v, None if a is None else vf.actions[a]
                )
                for (obs_seq, act_seq), b, v, a in zip(stage, beliefs, values.tolist(), argmins)
            }
        )
    return stages


def value_function_reference(vf) -> dict:
    """The ``value_function`` of a solve-manager report as plain data,
    built node by node from :func:`manager_stages`: the writers of both
    report formats must write exactly what ``json.dumps`` and the generic
    CSV walk write for it."""
    return {
        "horizon": vf.horizon,
        "stages": [
            {
                key: {
                    "argmin": None if node.argmin is None else list(node.argmin),
                    "belief": node.belief.tolist(),
                    "value": float(node.value),
                }
                for key, node in sorted(stage.items())
            }
            for stage in manager_stages(vf)
        ],
    }


def compare_nodes_reference(mgr, sol, k) -> list:
    """The per-node rows of ``compare_solutions`` for member ``k``, built
    particle by particle: each particle's full history is looked up in the
    manager's :func:`manager_stages` by its history key, and the manager's
    action weights and value mixture are added in particle order."""
    stages = manager_stages(mgr.value_function)
    rows = []
    for t in range(mgr.value_function.horizon):
        for key, node in sol.nodes[t].items():
            weights: dict[int, float] = {}
            mixture = 0.0
            for _, obs_seq, act_seq, w in node.particles:
                mnode = stages[t][history_key(act_seq, obs_seq)]
                weights[mnode.argmin[k]] = weights.get(mnode.argmin[k], 0.0) + w
                mixture += w * mnode.value
            rows.append(
                {
                    "node": key,
                    "time": t,
                    "member_argmin": int(node.argmin),
                    "member_value": float(node.value),
                    "manager_action_weights": {str(a): w for a, w in sorted(weights.items())},
                    "manager_value_mixture": mixture,
                    "value_gap": float(node.value - mixture),
                    "argmin_agrees": set(weights) == {node.argmin},
                }
            )
    return rows


# ---------------------------------------------------------------------------
# deterministic pseudo-random strategies


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


class HashedCentralizedStrategy:
    """Full-history strategy whose actions are a hash of the history."""

    variant = "hashed"
    scope = "team"

    def __init__(self, model: TeamModel, salt: int):
        self.model = model
        self.salt = salt

    def joint_action(self, obs_seq, act_seq, t):
        d = _digest(f"{self.salt}|{t}|{history_key(act_seq, obs_seq)}")
        return tuple(d[i] % n for i, n in enumerate(self.model.action_sizes))


class HashedMemberStrategy:
    """View-measurable member strategy whose action hashes the view."""

    variant = "hashed"
    scope = "member"

    def __init__(self, model: TeamModel, structure: InformationStructure, member: int, salt: int):
        self.model = model
        self.structure = structure
        self.member = member
        self.salt = salt

    def member_action(self, obs_seq, act_seq, t):
        v = prefix_view(self.structure, self.model.num_members, obs_seq, act_seq, t, self.member)
        d = _digest(f"{self.salt}|{view_key(v)}")
        return d[0] % self.model.action_sizes[self.member]


# ---------------------------------------------------------------------------
# mutated scenario documents


def _scenario_documents() -> list[dict]:
    structures = (
        InformationStructure("delayed_sharing", delays=(1, 2)),
        InformationStructure("periodic_sharing", period=2),
        InformationStructure("no_sharing"),
    )
    return [
        scenario_to_dict(random_model(seed, horizon=2, num_states=2), structure, name="m")
        for seed, structure in enumerate(structures)
    ]


SCENARIO_DOCUMENTS = _scenario_documents()

# values put in place of a scenario's entries: bools where numbers go,
# integral floats, NaN and infinities, empty and nested containers, and
# labels that are, or nearly are, structure variants
ODD_VALUES = st.one_of(
    st.sampled_from(
        [True, False, None, 0, -1, 1, 2, 1.0, 2.0, 0.5, -0.0, 10**20, 1e300,
         float("nan"), float("inf"), -float("inf"), "", "x", "delayed_sharing",
         "Delayed_sharing", [], {}, [[]], [1.5], [True], [0], [1.0, 2], ["a", 1],
         [None], {"variant": "no_sharing"}, {"variant": "telepathy"}, {"": 1}]
    ),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=3),
)


def _paths(doc, prefix=(), out=None) -> list:
    """Every (path, value) below ``doc``, containers before their items."""
    out = [] if out is None else out
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((prefix + (key,), value))
        _paths(value, prefix + (key,), out)
    return out


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_scenarios(draw):
    """A valid scenario document with one to three entries deleted, added,
    replaced by an odd value or emptied, at the root or at any depth, or
    with an odd variant, delays or period."""

    def pick(options):  # cheaper than sampled_from on a fresh list
        return options[draw(st.integers(0, len(options) - 1))]

    def odd():  # a copy: the pool's containers are shared
        return copy.deepcopy(draw(ODD_VALUES))

    doc = copy.deepcopy(pick(SCENARIO_DOCUMENTS))
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths(doc)
        op = pick(["delete", "add", "replace", "empty", "structure"])
        if op == "structure":  # most paths are array entries: aim at the structure too
            structure = doc.get("information_structure")
            if isinstance(structure, dict):
                structure[pick(["variant", "delays", "period"])] = odd()
            continue
        if op == "add":
            target = pick([doc] + [v for _, v in paths if isinstance(v, dict)])
            target[pick(["discount", "delays", "period", "zz", ""])] = odd()
            continue
        if op == "empty":
            paths = [(p, v) for p, v in paths if isinstance(v, list)]
        elif op == "delete":
            paths = [(p, v) for p, v in paths if isinstance(_parent(doc, p), dict)]
        if not paths:
            continue
        path, _ = pick(paths)
        parent = _parent(doc, path)
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = [] if op == "empty" else odd()
    return doc
