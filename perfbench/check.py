"""Correctness gate: check one workload report against the oracle.

Usage: python3 perfbench/check.py --workload NAME --scenario FILE --report FILE

Exits 0 when the report is right and 1, with the reason on stderr, when
it is not.  The references come from ``teamdp.oracle`` (exhaustive
enumeration), never from the dynamic programs under test:

* manager-t4: the exact cost of the reported strategy table equals the
  reported root value, and the tree has the full (1, 16, 256, 4096,
  65536) stages that positive kernels imply;
* simulate-t3: the exact cost equals the root value and the Monte Carlo
  estimate lies within three standard errors of it;
* compare-t2: the decentralized optimum is no worse than the profile of
  member solutions;
* member-br: the exact cost of the final profile, rebuilt from the
  reported tables, equals the last best response's root value.
"""

from __future__ import annotations

import argparse
import json
import sys

from teamdp import oracle, scenario, strategies
from teamdp.errors import TeamDPError

TOL = 1e-9
MANAGER_T4_NODE_COUNTS = [1, 16, 256, 4096, 65536]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def problems(workload: str, model, structure, report: dict) -> list[str]:
    """Everything wrong with ``report``; empty when it is right."""
    out = []
    if workload == "member-br":
        members = [
            strategies.MemberTableStrategy(
                model, structure, d["member"], d["table"], default=d["default"]
            )
            for d in report["strategies"]
        ]
        profile = strategies.DecentralizedStrategy(model, structure, members)
        cost = oracle.exact_cost(model, structure, profile)
        if not _close(cost, report["root_values"][-1]):
            out.append(f"exact cost {cost!r} != last root value {report['root_values'][-1]!r}")
        if not _close(cost, report["exact_cost"]):
            out.append(f"exact cost {cost!r} != reported {report['exact_cost']!r}")
        return out
    if "error" in report:
        return [f"error report: {report['error']}"]
    res = report["results"]
    if workload == "manager-t4":
        table = {k: tuple(v) for k, v in res["strategy"]["table"].items()}
        cost = oracle.exact_cost(
            model, structure, strategies.CentralizedTableStrategy(model, table)
        )
        if not _close(cost, res["root_value"]):
            out.append(f"exact cost {cost!r} != root value {res['root_value']!r}")
        counts = report["diagnostics"]["node_counts"]
        if counts != MANAGER_T4_NODE_COUNTS:
            out.append(f"node counts {counts} != {MANAGER_T4_NODE_COUNTS}")
    elif workload == "simulate-t3":
        if not _close(res["exact_cost"], res["root_value"]):
            out.append(f"exact cost {res['exact_cost']!r} != root value {res['root_value']!r}")
        if not res["within_three_std_errors"]:
            out.append("Monte Carlo estimate is not within three standard errors")
    elif workload == "compare-t2":
        if res["decentralized_optimal_cost"] > res["member_profile_cost"] + TOL:
            out.append(
                f"decentralized optimum {res['decentralized_optimal_cost']!r} exceeds "
                f"member profile cost {res['member_profile_cost']!r}"
            )
    return out


def main() -> None:
    p = argparse.ArgumentParser(description="check one workload report against the oracle")
    p.add_argument("--workload", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--report", required=True)
    args = p.parse_args()
    model, structure = scenario.load_scenario(args.scenario)
    try:
        with open(args.report) as f:
            report = json.load(f)
        found = problems(args.workload, model, structure, report)
    except (OSError, KeyError, TypeError, ValueError, TeamDPError) as e:
        found = [f"unusable report: {type(e).__name__}: {e}"]
    for line in found:
        print(f"{args.workload}: {line}", file=sys.stderr)
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main()
