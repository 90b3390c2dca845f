"""The member-br library workload: person-by-person best responses.

Usage: python3 perfbench/member_br.py --scenario FILE --out REPORT

Starting from constant co-strategies (every member plays action 0), the
two members take turns solving their member dynamic program against the
other's latest strategy, four solves in all.  The exact cost of the
final profile, computed by the enumeration oracle, is written next to
the root values and both strategy tables.  The report holds no timing,
so repeated runs must be byte-identical.

Library functions are looked up on their modules at call time, so the
tracer in ``trace.py`` sees every call.
"""

from __future__ import annotations

import argparse
import json

from teamdp import model as tmodel
from teamdp import dp, oracle, scenario, strategies

BEST_RESPONSES = 4


def run(scenario_path: str, out_path: str) -> None:
    model, structure = scenario.load_scenario(scenario_path)
    violations = tmodel.validate_model(model, structure)
    if violations:
        raise SystemExit(f"invalid scenario: {violations[0].path}: {violations[0].message}")
    K = model.num_members
    current = [strategies.ConstantMemberStrategy(k, 0) for k in range(K)]
    root_values, node_counts = [], []
    for step in range(BEST_RESPONSES):
        k = step % K
        others = {j: current[j] for j in range(K) if j != k}
        sol = dp.solve_member(model, structure, k, others)
        current[k] = sol.strategy
        root_values.append(sol.root_value)
        node_counts.append(list(sol.node_counts))
    profile = strategies.DecentralizedStrategy(model, structure, current)
    report = {
        "root_values": root_values,
        "member_node_counts": node_counts,
        "exact_cost": oracle.exact_cost(model, structure, profile),
        "strategies": [s.to_json_dict() for s in current],
    }
    with open(out_path, "w") as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    run(args.scenario, args.out)


if __name__ == "__main__":
    main()
