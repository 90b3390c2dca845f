"""Closed-form two-member Gaussian example with one-step sharing.

The hidden state is a pair (x1, x2), jointly Gaussian, zero mean, unit
variances, covariance ``c``.  The team must cancel the sum s = x1 + x2 in
two moves: a first move chosen knowing only x2, then a second move chosen
after the pair has been pooled (so the chooser knows s and x2, hence also
the first move) and charged for its own magnitude.  Total cost

    J = 1/2 * E[ (s - u_first - u_second)^2 + u_second^2 ].

Within linear strategies u_first = first_gain * x2 and
u_second = pooled_gain * s + correction_gain * x2, the cost is an exact
quadratic in the three gains (second moments E[s^2] = 2 + 2c,
E[s*x2] = 1 + c, E[x2^2] = 1) and the optimum has a closed form:

    first_gain = 1 + c,  pooled_gain = 1/2,  correction_gain = -(1 + c)/2,
    optimal cost (1 - c^2) / 4.

The same recipe in words: the second mover splits the remaining gap in
half (its own magnitude is charged, so cancelling fully is too greedy),
which leaves a quarter of E[(s - u_first)^2]; the first mover then makes
u_first the best linear estimate of s from x2.  :func:`dp_walkthrough`
returns these steps with the numbers filled in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianInstance",
    "LinearStrategy",
    "GaussianSolution",
    "closed_form",
    "expected_cost",
    "linear_search",
    "mc_estimate",
    "dp_walkthrough",
]


@dataclass(frozen=True)
class GaussianInstance:
    """Covariance c of the two unit-variance components; |c| < 1."""

    covariance: float

    def __post_init__(self):
        if not -1.0 < float(self.covariance) < 1.0:
            raise ValueError("covariance must lie strictly between -1 and 1")

    @property
    def second_moments(self) -> tuple[float, float, float]:
        """(E[s^2], E[s*x2], E[x2^2])."""
        c = self.covariance
        return 2.0 + 2.0 * c, 1.0 + c, 1.0


@dataclass(frozen=True)
class LinearStrategy:
    """u_first = first_gain * x2; u_second = pooled_gain * s + correction_gain * x2."""

    first_gain: float
    pooled_gain: float
    correction_gain: float


@dataclass(frozen=True)
class GaussianSolution:
    covariance: float
    strategy: LinearStrategy
    optimal_cost: float

    def to_json_dict(self) -> dict:
        return {
            "covariance": float(self.covariance),
            "first_gain": float(self.strategy.first_gain),
            "pooled_gain": float(self.strategy.pooled_gain),
            "correction_gain": float(self.strategy.correction_gain),
            "optimal_cost": float(self.optimal_cost),
        }


def closed_form(instance: GaussianInstance) -> GaussianSolution:
    """Exact optimal linear strategy and cost."""
    c = float(instance.covariance)
    a = 1.0 + c
    strat = LinearStrategy(first_gain=a, pooled_gain=0.5, correction_gain=-a / 2.0)
    return GaussianSolution(covariance=c, strategy=strat, optimal_cost=(1.0 - c * c) / 4.0)


def expected_cost(instance: GaussianInstance, strategy: LinearStrategy) -> float:
    """Exact expected cost of a linear strategy via second moments."""
    ess, esx, exx = instance.second_moments
    a, b, d = strategy.first_gain, strategy.pooled_gain, strategy.correction_gain
    gap = (1.0 - b) ** 2 * ess - 2.0 * (1.0 - b) * (a + d) * esx + (a + d) ** 2 * exx
    move = b * b * ess + 2.0 * b * d * esx + d * d * exx
    return 0.5 * (gap + move)


# Points of the product grid that linear_search evaluates at once.
SLAB_POINTS = 1 << 16


def _cost_grid(instance: GaussianInstance, A, B, D) -> np.ndarray:
    ess, esx, exx = instance.second_moments
    gap = (1.0 - B) ** 2 * ess - 2.0 * (1.0 - B) * (A + D) * esx + (A + D) ** 2 * exx
    move = B * B * ess + 2.0 * B * D * esx + D * D * exx
    return 0.5 * (gap + move)


def linear_search(
    instance: GaussianInstance,
    first_grid,
    pooled_grid,
    correction_grid,
) -> tuple[LinearStrategy, float]:
    """Brute-force minimum of :func:`expected_cost` over a gain grid.

    Vectorized over slabs of the product grid holding at most
    ``SLAB_POINTS`` points where a correction row fits: runs of whole
    (pooled, correction) planes when a plane fits, else runs of pooled
    rows within one first gain, so memory grows with neither the first
    nor the pooled axis.  Slabs are visited in flat order, so ties go to
    the first flat index (first_gain varies slowest, correction_gain
    fastest), as one argmin over the full product grid would give.
    """
    a = np.asarray(first_grid, dtype=float)
    b = np.asarray(pooled_grid, dtype=float)[:, None]
    d = np.asarray(correction_grid, dtype=float)
    plane = b.size * d.size
    if plane <= SLAB_POINTS:
        rows, cols = max(1, SLAB_POINTS // max(1, plane)), max(1, b.size)
    else:
        rows, cols = 1, max(1, SLAB_POINTS // max(1, d.size))
    best = None
    for lo in range(0, max(a.size, 1), rows):
        for mid in range(0, max(b.size, 1), cols):
            costs = _cost_grid(instance, a[lo : lo + rows, None, None], b[mid : mid + cols], d)
            flat = int(np.argmin(costs))
            cost = costs.flat[flat]
            # np.argmin takes the first nan, so a later slab's nan beats a number
            if best is None or cost < best[0] or (np.isnan(cost) and not np.isnan(best[0])):
                best = (cost, lo, mid, costs.shape, flat)
    cost, lo, mid, shape, flat = best
    ia, ib, id_ = np.unravel_index(flat, shape)
    strat = LinearStrategy(
        first_gain=float(a[lo + ia]),
        pooled_gain=float(b[mid + ib, 0]),
        correction_gain=float(d[id_]),
    )
    return strat, float(cost)


def mc_estimate(
    instance: GaussianInstance,
    strategy: LinearStrategy,
    samples: int = 200_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo check of :func:`expected_cost`: (mean, standard error)."""
    c = instance.covariance
    rng = np.random.default_rng(seed)
    xs = rng.multivariate_normal([0.0, 0.0], [[1.0, c], [c, 1.0]], size=int(samples))
    x1, x2 = xs[:, 0], xs[:, 1]
    s = x1 + x2
    u_first = strategy.first_gain * x2
    u_second = strategy.pooled_gain * s + strategy.correction_gain * x2
    cost = 0.5 * ((s - u_first - u_second) ** 2 + u_second**2)
    mean = float(np.sum(cost) / len(cost))
    se = float(np.std(cost, ddof=1) / math.sqrt(len(cost)))
    return mean, se


def dp_walkthrough(covariance: float) -> list[dict]:
    """The two-stage backward solution as explicit steps with numbers.

    Step 1 (last move): for any realized gap g = s - u_first, minimizing
    (g - u)^2 + u^2 over u gives u = g/2 with residual g^2/2, so the total
    cost collapses to E[(s - u_first)^2] / 4.
    Step 2 (first move): the best linear u_first = gain * x2 is the least
    squares estimate of s, gain = E[s*x2]/E[x2^2] = 1 + c, leaving
    residual E[s^2] - (1+c)^2 * E[x2^2] = 1 - c^2.
    Step 3: assemble the optimal cost (1 - c^2)/4 and the second-move
    gains pooled_gain = 1/2, correction_gain = -(1 + c)/2.
    """
    inst = GaussianInstance(covariance)
    c = inst.covariance
    ess, esx, exx = inst.second_moments
    first = esx / exx
    residual = ess - first * first * exx
    sol = closed_form(inst)
    return [
        {
            "step": "last_move",
            "description": (
                "minimize (gap - u)^2 + u^2 pointwise: split the gap in half; "
                "total cost becomes E[(s - u_first)^2] / 4"
            ),
            "half_split": 0.5,
        },
        {
            "step": "first_move",
            "description": (
                "least squares estimate of s from x2: gain = E[s*x2]/E[x2^2], "
                "residual E[s^2] - gain^2 * E[x2^2]"
            ),
            "gain": float(first),
            "residual": float(residual),
            "moments": {"E[s^2]": float(ess), "E[s*x2]": float(esx), "E[x2^2]": float(exx)},
        },
        {
            "step": "assemble",
            "description": "optimal cost = residual / 4; unfold the last move against u_first",
            "covariance": float(c),
            "first_gain": float(sol.strategy.first_gain),
            "pooled_gain": float(sol.strategy.pooled_gain),
            "correction_gain": float(sol.strategy.correction_gain),
            "optimal_cost": float(sol.optimal_cost),
        },
    ]
