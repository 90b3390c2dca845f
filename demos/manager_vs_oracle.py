"""The pooled-information dynamic program against brute force.

A desk-scale team problem is solved twice: once by the belief dynamic
program over the reachable history tree, and once by scoring every
possible full-history strategy.  The two answers must agree to floating
point noise, and the tree's value function must lower-bound the exact
cost of any strategy anyone proposes -- both facts are demonstrated here
rather than assumed.

Run:  python3 demos/manager_vs_oracle.py [--seed N] [--probes M]
"""

import argparse
import hashlib

import numpy as np

from teamdp import InformationStructure, TeamModel, solve_manager
from teamdp import oracle
from teamdp.model import history_key


def build_model(seed: int) -> TeamModel:
    r = np.random.default_rng(seed)

    def rows(shape):
        m = r.uniform(0.1, 1.0, size=shape)
        return m / m.sum(axis=-1, keepdims=True)

    return TeamModel(
        num_members=2,
        horizon=2,
        states=("s0", "s1", "s2"),
        actions=(("a", "b"), ("a", "b")),
        observations=(("lo", "hi"), ("lo", "hi")),
        initial_dist=rows((3,)),
        transition=rows((3, 4, 3)),
        observation_kernels=(rows((3, 2)), rows((3, 2))),
        stage_cost=r.uniform(0.0, 1.0, size=(2, 3, 4)).round(3),
        terminal_cost=r.uniform(0.0, 1.0, size=(3,)).round(3),
    )


class HashedStrategy:
    """Arbitrary but reproducible full-history strategy: hash the history,
    read actions off the digest.  A stand-in for 'any strategy at all'."""

    def __init__(self, model, salt):
        self.model = model
        self.salt = salt

    def joint_action(self, obs_seq, act_seq, t):
        d = hashlib.sha256(f"{self.salt}|{t}|{history_key(act_seq, obs_seq)}".encode()).digest()
        return tuple(d[i] % n for i, n in enumerate(self.model.action_sizes))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--probes", type=int, default=50, help="random strategies to test")
    args = ap.parse_args()

    model = build_model(args.seed)
    structure = InformationStructure("delayed_sharing", delays=(1, 1))

    sol = solve_manager(model, structure)
    print(f"dynamic program: nodes per stage {list(sol.node_counts)}, "
          f"root value {sol.root_value:.9f}")
    vf = sol.value_function
    print(f"  root belief {np.round(vf.beliefs[0][0], 4)}, "
          f"first joint action {vf.actions[vf.argmins[0][0]]}")

    best = oracle.enumerate_centralized(model, structure)
    print(f"brute force: scored {best.num_strategies} strategies, "
          f"optimum {best.optimal_cost:.9f}")
    gap = abs(sol.root_value - best.optimal_cost)
    print(f"  |dp - brute force| = {gap:.2e}\n")
    assert gap <= 1e-9

    print(f"comparison principle: dp root vs {args.probes} arbitrary strategies")
    margins = []
    for salt in range(args.probes):
        cost = oracle.exact_cost(model, structure, HashedStrategy(model, salt))
        margins.append(cost - sol.root_value)
        assert sol.root_value <= cost + 1e-9
    margins = np.array(margins)
    print(f"  every strategy costs at least the root value; excess over the "
          f"optimum ranges {margins.min():.4f}..{margins.max():.4f} "
          f"(mean {margins.mean():.4f})")

    # the same dominance holds node by node: pick one history and compare
    g = HashedStrategy(model, 0)
    outs = oracle.enumerate_outcomes(model, g)
    traj = outs[0].trajectory
    t = 1
    key = history_key(traj.actions[:t], traj.observations[:t])
    # the node's row in the value function's stage-t arrays, found by a
    # walk over the tree's child indices
    (row,) = vf.rows(model, np.array([traj.observations[:t]]), np.array([traj.actions[:t]]))
    ctg = oracle.exact_cost_to_go(model, g, traj.observations[:t], traj.actions[:t], t)
    print(f"\nat one realized history ({key!r}):")
    print(f"  optimal cost-to-go {vf.values[t][row]:.6f} <= strategy's cost-to-go {ctg:.6f}")


if __name__ == "__main__":
    main()
