"""Monte Carlo rollouts with reproducible, order-independent seeding.

Sample i of an estimate uses its own generator seeded with
``(seed + i) mod 2**64``, so estimates are independent of evaluation
order and individual samples can be replayed in isolation.  Within a
rollout the draw order is fixed: initial state, then per decision epoch
the state transition followed by each member's observation in member
order.

Each draw takes one ``Generator.random()`` double ``u`` and returns
``bisect_right(cdf, u)``, where ``cdf`` is the row's cumulative sum
divided by its last entry.  This is the inverse CDF that
``Generator.choice(n, p=row)`` builds, so every draw returns the index
``choice`` would return from the same stream.  A rollout takes all its
doubles in one ``random(n)`` call, which gives the same doubles as n
scalar calls.  The CDF rows are built, and each gets ``choice``'s
probability check, once per estimate rather than once per draw.

Within one estimate a strategy is asked for its action once per
distinct realized observation path; later samples that reach the same
path reuse the answer.  This relies on every strategy being
deterministic: the same observation prefix then gives the same earlier
actions, by induction, and so the same history.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import TeamModel, Trajectory
from .oracle import WeightedOutcome

__all__ = ["SimConfig", "CostEstimate", "rollout", "estimate_cost"]

# Generator.choice's tolerance on the sum of a float64 row
_ATOL = math.sqrt(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SimConfig:
    samples: int = 1000
    seed: int = 0


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "mean": float(self.mean),
            "std_error": float(self.std_error),
            "samples": int(self.samples),
            "seed": int(self.seed),
        }


def _kahan_sum(row: list[float]) -> float:
    """The compensated sum ``Generator.choice`` checks a row's total by."""
    if not row:
        return 0.0
    total, c = row[0], 0.0
    for v in row[1:]:
        y = v - c
        t = total + y
        c = (t - total) - y
        total = t
    return total


def _cdf(row, n: int) -> list[float]:
    """Inverse-CDF table of a distribution over ``range(n)``, checked and
    built as ``Generator.choice(n, p=row)`` checks and builds it."""
    p = np.asarray(row, dtype=float)
    if p.shape != (n,):
        raise ValueError("a and p must have same size")
    total = _kahan_sum(p.tolist())
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _ATOL:
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of docstring for more information."
        )
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclass(frozen=True)
class _Tables:
    """A model's CDF rows and costs as nested lists, built once per estimate."""

    initial: list  # CDF of x_0
    transition: list  # [x][a] -> CDF of the next state
    observation: list  # [x][m] -> CDF of member m's observation in state x
    stage_cost: list  # [t][x][a]
    terminal_cost: list  # [x]


def _tables(model: TeamModel) -> _Tables:
    S = model.num_states
    return _Tables(
        initial=_cdf(model.initial_dist, S),
        transition=[[_cdf(row, S) for row in rows] for rows in model.transition],
        observation=[
            [_cdf(k[x], n) for k, n in zip(model.observation_kernels, model.observation_sizes)]
            for x in range(S)
        ],
        stage_cost=model.stage_cost.tolist(),
        terminal_cost=model.terminal_cost.tolist(),
    )


def _rollout(model: TeamModel, tables: _Tables, strategy, memo: dict,
             rng: np.random.Generator) -> WeightedOutcome:
    """One trajectory from ``rng``.  ``memo`` maps an observation-path trie
    node (``()`` at the root, ``(parent, y)`` below it) to the joint action
    and its flat index there; it may be shared by rollouts of one
    strategy."""
    K = model.num_members
    draws = rng.random(1 + model.horizon * (1 + K)).tolist()
    x = bisect_right(tables.initial, draws[0])
    states = [x]
    obs_seq: tuple = ()
    act_seq: tuple = ()
    node: tuple = ()
    cost = 0.0
    i = 1
    for t in range(model.horizon):
        hit = memo.get(node)
        if hit is None:
            u = tuple(int(v) for v in strategy.joint_action(obs_seq, act_seq, t))
            hit = memo[node] = (u, model.flat_action(u))
        u, a = hit
        cost += tables.stage_cost[t][x][a]
        x = bisect_right(tables.transition[x][a], draws[i])
        y = tuple(map(bisect_right, tables.observation[x], draws[i + 1:i + 1 + K]))
        i += 1 + K
        act_seq += (u,)
        obs_seq += (y,)
        states.append(x)
        node = (node, y)
    cost += tables.terminal_cost[x]
    traj = Trajectory(states=tuple(states), observations=obs_seq, actions=act_seq)
    return WeightedOutcome(trajectory=traj, probability=None, cost=cost)


def rollout(model: TeamModel, strategy, seed: int) -> WeightedOutcome:
    """Simulate one trajectory under a joint strategy.

    The returned outcome carries the realized cost; its probability field
    is None (a draw, not an enumeration atom).
    """
    return _rollout(model, _tables(model), strategy, {}, np.random.default_rng(seed))


def estimate_cost(model: TeamModel, strategy, config: SimConfig) -> CostEstimate:
    """Sample-mean estimate of the expected total cost of a strategy.

    The standard error uses the n-1 normalization and is 0.0 for a single
    sample.
    """
    n = int(config.samples)
    if n < 1:
        raise ValueError("samples must be >= 1")
    tables = _tables(model)
    memo: dict = {}
    costs = np.empty(n)
    for i in range(n):
        rng = np.random.default_rng((config.seed + i) % 2**64)
        costs[i] = _rollout(model, tables, strategy, memo, rng).cost
    mean = float(np.sum(costs) / n)
    if n > 1:
        se = float(np.std(costs, ddof=1) / math.sqrt(n))
    else:
        se = 0.0
    return CostEstimate(mean=mean, std_error=se, samples=n, seed=config.seed)
