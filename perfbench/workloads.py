"""The benchmark workloads: their seeded scenario files and command lines.

Usage: python3 perfbench/workloads.py --workload NAME --seed N --out FILE
writes the scenario of one workload.

Every scenario is K=2 members with binary actions, drawn with the recipe
of ``tests/conftest.py::random_model``: one ``numpy.random.default_rng``
stream, rows drawn from uniform(0.05, 1) and normalised, stage costs
uniform(0, 1) rounded to 3 places.  For dense kernels the draws are
identical to ``random_model(seed, 2, S, T, obs_sizes)``.  The compare
workload multiplies the draws by a fixed 0/1 support mask before
normalising, so its zero pattern, and with it the size of every tree and
enumeration, does not depend on the seed.

The program under test sees nothing but the JSON file written here.
This module imports numpy only inside ``scenario`` so that the stdlib-only
``run.py`` can import the command table without growing its own memory.
"""

from __future__ import annotations

import argparse
import json

WORKLOADS = ("manager-t4", "compare-t2", "simulate-t3", "member-br")

SIM_SAMPLES = 5000

# teamdp subcommand and arguments of the CLI workloads; member-br runs
# member_br.py instead.
CLI_ARGS = {
    "manager-t4": ["solve-manager"],
    "compare-t2": ["compare"],
    "simulate-t3": ["simulate", "--samples", str(SIM_SAMPLES), "--seed", "0"],
}

# spans whose tracemalloc peak the traced run's memory pass reports
PEAK_SPANS = ("cli.run", "dp.solve_manager", "dp.solve_member",
              "oracle.enumerate_decentralized", "sim.estimate_cost")

# name -> (states, horizon, observations per member, delays)
SHAPES = {
    "manager-t4": (3, 4, 2, (1, 1)),
    "compare-t2": (3, 2, 4, (1, 1)),
    "simulate-t3": (3, 3, 2, (1, 1)),
    "member-br": (3, 4, 2, (2, 2)),
}

# Support masks of the compare-t2 kernels (1 = entry may be positive),
# indexed like the scenario arrays: transition [x][joint u][x'], kernels
# [member][x][y].  The zero pattern depends on the joint action, so the
# manager tree prunes observation branches (3,904 of the 4,096 stage-2
# nodes survive) and the oracle's profile count cannot factorise.
COMPARE_TRANSITION_MASK = [
    [[0, 0, 1], [1, 1, 1], [1, 0, 1], [1, 1, 1]],
    [[0, 1, 0], [1, 0, 1], [0, 1, 0], [1, 1, 1]],
    [[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 0, 0]],
]
COMPARE_OBSERVATION_MASKS = (
    [[0, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1]],
    [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]],
)


def scenario(workload: str, seed: int) -> dict:
    """The scenario document of ``workload`` drawn from ``seed``."""
    import numpy as np

    S, T, Y, delays = SHAPES[workload]
    masked = workload == "compare-t2"
    K, A = 2, 4
    r = np.random.default_rng(seed % 2**64)

    def dist(shape, mask=None):
        m = r.uniform(0.05, 1.0, size=shape)
        if mask is not None:
            m = m * np.array(mask, dtype=float)
        return m / m.sum(axis=-1, keepdims=True)

    initial = dist((S,))
    transition = dist((S, A, S), COMPARE_TRANSITION_MASK if masked else None)
    kernels = [dist((S, Y), COMPARE_OBSERVATION_MASKS[k] if masked else None) for k in range(K)]
    return {
        "name": f"{workload}-seed{seed}",
        "num_members": K,
        "horizon": T,
        "states": [f"s{i}" for i in range(S)],
        "actions": [["0", "1"] for _ in range(K)],
        "observations": [[str(v) for v in range(Y)] for _ in range(K)],
        "initial_dist": initial.tolist(),
        "transition": transition.tolist(),
        "observation_kernels": [k.tolist() for k in kernels],
        "stage_cost": r.uniform(0.0, 1.0, size=(T, S, A)).round(3).tolist(),
        "terminal_cost": r.uniform(0.0, 1.0, size=(S,)).round(3).tolist(),
        "information_structure": {"variant": "delayed_sharing", "delays": list(delays)},
    }


def main() -> None:
    p = argparse.ArgumentParser(description="write the scenario file of one workload")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open(args.out, "w") as f:
        json.dump(scenario(args.workload, args.seed), f)


if __name__ == "__main__":
    main()
