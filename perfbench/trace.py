"""Traced run of one workload: spans and counts at teamdp's public functions.

Usage: python3 perfbench/trace.py --workload NAME --scenario FILE --out REPORT
       --trace-out TRACE [--memory]

Runs the workload in this process exactly as the untraced run does
(``teamdp.cli.run`` with the same arguments, or ``member_br.run``), after
replacing each traced function by a wrapper under every name a teamdp
module looks it up by.  Nothing in the package changes on disk.

Timing pass (default): every wrapped call is a span.  A span's self time
is its duration minus the time of the wrapped calls it made; its total
counts only the outermost call of a name, so recursion and nested
lookups are not counted twice.  Calls of the coarse functions are also
kept as individual spans (name, start, end, parent).  Counts of tree
nodes, particles and profiles are read off the returned solutions.

Memory pass (``--memory``): only the coarse functions are wrapped, and
each one's tracemalloc peak above its entry level is recorded.  The pass
is separate so that tracemalloc does not distort the times.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

import member_br
from teamdp import cli, dp, model, oracle, scenario, sim, strategies
from workloads import CLI_ARGS, PEAK_SPANS

# span name -> (module, function); calls are counted and timed, and the
# coarse ones are also recorded one by one (PEAK_SPANS of them get a
# memory peak in the memory pass).
COARSE = {
    "cli.run": (cli, "run"),
    "scenario.load_scenario": (scenario, "load_scenario"),
    "model.validate_model": (model, "validate_model"),
    "dp.solve_manager": (dp, "solve_manager"),
    "dp.solve_member": (dp, "solve_member"),
    "dp.compare_solutions": (dp, "compare_solutions"),
    "oracle.enumerate_decentralized": (oracle, "enumerate_decentralized"),
    "sim.estimate_cost": (sim, "estimate_cost"),
    "member_br.run": (member_br, "run"),
}
HOT = {
    "model.history_key": (model, "history_key"),
    "model.prefix_view": (model, "prefix_view"),
    "model.view_key": (model, "view_key"),
    "oracle.exact_cost": (oracle, "exact_cost"),
}
# strategy lookups: every class that defines joint_action or member_action
LOOKUP_METHODS = (
    (strategies.CentralizedTableStrategy, "joint_action"),
    (strategies.DecentralizedStrategy, "joint_action"),
    (strategies.MemberTableStrategy, "member_action"),
    (strategies.ConstantMemberStrategy, "member_action"),
    (strategies.ManagerProjectionStrategy, "member_action"),
)


def _count_solution(counts: dict, name: str, result) -> None:
    if name == "dp.solve_manager":
        counts["dp.manager_nodes"] = counts.get("dp.manager_nodes", 0) + sum(result.node_counts)
    elif name == "dp.solve_member":
        counts["dp.member_nodes"] = counts.get("dp.member_nodes", 0) + sum(result.node_counts)
        particles = sum(len(n.particles) for stage in result.nodes for n in stage.values())
        counts["dp.member_particles"] = counts.get("dp.member_particles", 0) + particles
    elif name == "oracle.enumerate_decentralized":
        counts["oracle.profiles"] = counts.get("oracle.profiles", 0) + result.num_strategies


class Tracer:
    """Spans kept in memory: per-name aggregates plus coarse span records."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, depth]
        self.records: list[tuple] = []  # (name, start, end, parent)
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child_s]

    def wrap(self, name: str, fn, record: bool):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, records, counts = self._stack, self.records, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            stat[3] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[3] -= 1
                duration = end - frame[1]
                stat[0] += 1
                stat[2] += duration - frame[2]
                if stat[3] == 0:
                    stat[1] += duration
                if stack:
                    stack[-1][2] += duration
                if record:
                    records.append((name, frame[1], end, stack[-1][0] if stack else None))
            if record:
                _count_solution(counts, name, result)
            return result

        return traced

    def to_json_dict(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": tot, "self_s": own}
                for name, (c, tot, own, _) in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "records": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.records
            ],
        }


class MemoryTracer:
    """tracemalloc peak of each span above the traced memory at its entry."""

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self._stack: list[list] = []  # [name, entry bytes, peak bytes so far]

    def wrap(self, name: str, fn, record: bool):
        stack, peaks = self._stack, self.peaks

        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            for frame in stack:  # the reset below must not lose the enclosing peaks
                frame[2] = max(frame[2], peak)
            tracemalloc.reset_peak()
            frame = [name, current, current]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                own_peak = max(frame[2], tracemalloc.get_traced_memory()[1])
                if stack:
                    stack[-1][2] = max(stack[-1][2], own_peak)
                peaks[name] = max(peaks.get(name, 0), own_peak - frame[1])

        return traced

    def to_json_dict(self) -> dict:
        return {"peak_mb": {n: b / 2**20 for n, b in sorted(self.peaks.items())}}


def _packages():
    return [m for n, m in sorted(sys.modules.items()) if n == "teamdp" or n.startswith("teamdp.")]


def install(tracer, memory: bool) -> None:
    """Replace every traced function under each name it is looked up by."""
    targets = {n: t for n, t in COARSE.items() if not memory or n in PEAK_SPANS}
    if not memory:
        targets.update(HOT)
    namespaces = _packages() + [member_br]
    for name, (module, attr) in targets.items():
        original = getattr(module, attr, None)
        if original is None:  # gone from the package: its span reads zero calls
            continue
        wrapper = tracer.wrap(name, original, record=name in COARSE)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
    if not memory:
        for cls, attr in LOOKUP_METHODS:
            if attr in vars(cls):
                setattr(cls, attr, tracer.wrap("strategies.lookup", vars(cls)[attr], record=False))


def main() -> None:
    p = argparse.ArgumentParser(description="traced in-process run of one workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", required=True)
    p.add_argument("--memory", action="store_true", help="tracemalloc peaks instead of times")
    args = p.parse_args()
    tracer = MemoryTracer() if args.memory else Tracer()
    install(tracer, args.memory)
    if args.memory:
        tracemalloc.start()
    if args.workload == "member-br":
        member_br.run(args.scenario, args.out)
        code = 0
    else:
        code = cli.run(CLI_ARGS[args.workload] + ["--scenario", args.scenario, "--out", args.out])
    if args.memory:
        tracemalloc.stop()
    with open(args.trace_out, "w") as f:
        json.dump(tracer.to_json_dict(), f)
    sys.exit(code)


if __name__ == "__main__":
    main()
