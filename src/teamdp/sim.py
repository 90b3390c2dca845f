"""Monte Carlo rollouts with reproducible, order-independent seeding.

Sample i of an estimate uses its own generator seeded with
``(seed + i) mod 2**64``, so estimates are independent of evaluation
order and individual samples can be replayed in isolation.  Within a
rollout the draw order is fixed: initial state, then per decision epoch
the state transition followed by each member's observation in member
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TeamModel, Trajectory
from .oracle import WeightedOutcome

__all__ = ["SimConfig", "CostEstimate", "rollout", "estimate_cost"]


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


def rollout(model: TeamModel, strategy, seed: int) -> WeightedOutcome:
    """Simulate one trajectory under a joint strategy.

    The returned outcome carries the realized cost; its probability field
    is None (a draw, not an enumeration atom).
    """
    rng = np.random.default_rng(seed)
    S = model.num_states
    x = int(rng.choice(S, p=model.initial_dist))
    states = [x]
    obs_seq: tuple = ()
    act_seq: tuple = ()
    cost = 0.0
    for t in range(model.horizon):
        u = tuple(int(v) for v in strategy.joint_action(obs_seq, act_seq, t))
        a = model.flat_action(u)
        cost += float(model.stage_cost[t, x, a])
        x = int(rng.choice(S, p=model.transition[x, a]))
        y = tuple(
            int(rng.choice(model.observation_sizes[m], p=model.observation_kernels[m][x]))
            for m in range(model.num_members)
        )
        act_seq += (u,)
        obs_seq += (y,)
        states.append(x)
    cost += float(model.terminal_cost[x])
    traj = Trajectory(states=tuple(states), observations=obs_seq, actions=act_seq)
    return WeightedOutcome(trajectory=traj, probability=None, cost=cost)


def estimate_cost(model: TeamModel, strategy, config: SimConfig) -> CostEstimate:
    """Sample-mean estimate of the expected total cost of a strategy.

    The standard error uses the n-1 normalization and is 0.0 for a single
    sample.
    """
    n = int(config.samples)
    if n < 1:
        raise ValueError("samples must be >= 1")
    costs = np.empty(n)
    for i in range(n):
        costs[i] = rollout(model, strategy, (config.seed + i) % 2**64).cost
    mean = float(np.sum(costs) / n)
    if n > 1:
        se = float(np.std(costs, ddof=1) / math.sqrt(n))
    else:
        se = 0.0
    return CostEstimate(mean=mean, std_error=se, samples=n, seed=config.seed)
