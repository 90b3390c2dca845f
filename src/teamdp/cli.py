"""Command line front end.

Every run emits a single JSON report {metadata, results, diagnostics}
(plus an ``error`` object on failure) on stdout or to ``--out``; with
``--format csv`` a flat plot-friendly export is emitted instead.  Reports
with identical inputs and seeds are byte-identical except for
``diagnostics.wall_time_s``.

Exit codes: 0 success; 2 validation failure (or a solver refusing an
undefined problem, e.g. pooled solves under no_sharing); 3 budget
exceeded; 4 malformed scenario file; 64 usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time

import numpy as np

from . import __version__
from .dp import (
    DEFAULT_NODE_BUDGET,
    compare_solutions,
    solve_manager,
    solve_member,
)
from .errors import (
    BudgetExceededError,
    ScenarioFormatError,
    TeamDPError,
)
from .gaussian import (
    GaussianInstance,
    closed_form,
    dp_walkthrough,
    expected_cost,
    linear_search,
    mc_estimate,
)
from .model import validate_model
from .oracle import (
    DEFAULT_STRATEGY_BUDGET,
    enumerate_centralized,
    enumerate_decentralized,
    exact_cost,
)
from .scenario import load_scenario
from .sim import SimConfig, estimate_cost
from .strategies import ManagerProjectionStrategy

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_MALFORMED = 4
EXIT_USAGE = 64

# exit codes of package errors; any other TeamDPError (an undefined problem,
# e.g. a pooled solve under no_sharing, or degenerate data) is a
# validation failure
_ERROR_EXITS = {BudgetExceededError: EXIT_BUDGET, ScenarioFormatError: EXIT_MALFORMED}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); we reserve 2
        raise _UsageError(message)


# argparse types; argparse names them in its message for unparsable text
def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def covariance(text: str) -> float:
    value = float(text)
    if not abs(value) < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between -1 and 1, got {text}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="teamdp", description="exact solvers for small team decision problems")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scenario=True):
        if scenario:
            sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    common(sub.add_parser("validate", help="check a scenario file"))

    sp = sub.add_parser("solve-manager", help="pooled-information dynamic program")
    common(sp)
    sp.add_argument("--node-budget", type=positive_int, default=DEFAULT_NODE_BUDGET)

    sp = sub.add_parser("solve-member", help="one member's dynamic program, co-strategies "
                        "fixed to the manager solution's projections")
    common(sp)
    sp.add_argument("--member", type=int, required=True, help="member index, 0-based")
    sp.add_argument("--node-budget", type=positive_int, default=DEFAULT_NODE_BUDGET)

    sp = sub.add_parser("oracle-centralized", help="exhaustive full-history strategy search")
    common(sp)
    sp.add_argument("--node-budget", type=positive_int, default=DEFAULT_STRATEGY_BUDGET,
                    help="strategy-count budget for the enumeration")

    sp = sub.add_parser("oracle-decentralized", help="exhaustive member-profile search")
    common(sp)
    sp.add_argument("--node-budget", type=positive_int, default=DEFAULT_STRATEGY_BUDGET,
                    help="strategy-count budget for the enumeration")

    sp = sub.add_parser("compare", help="manager vs member solves vs decentralized oracle")
    common(sp)
    sp.add_argument("--node-budget", type=positive_int, default=DEFAULT_NODE_BUDGET)

    sp = sub.add_parser("simulate", help="Monte Carlo estimate of the manager strategy's cost")
    common(sp)
    sp.add_argument("--samples", type=positive_int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--node-budget", type=positive_int, default=DEFAULT_NODE_BUDGET)

    sp = sub.add_parser("gaussian-example", help="closed-form two-member Gaussian example")
    common(sp, scenario=False)
    sp.add_argument("--covariance", type=covariance, default=-0.5)
    sp.add_argument("--samples", type=positive_int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", default="0:2:0.01,0:1:0.01,-1:0:0.01",
                    help="gain grids lo:hi:step for first, pooled, correction")
    return p


def _scenario_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _metadata(command: str, args, digest: str | None) -> dict:
    arguments = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "out", "format") and v is not None
    }
    return {
        "command": command,
        "version": __version__,
        "scenario_sha256": digest,
        "seed": getattr(args, "seed", None),
        "arguments": arguments,
    }


def _parse_grid(spec: str):
    parts = spec.split(",")
    if len(parts) != 3:
        raise _UsageError("--grid needs three lo:hi:step ranges separated by commas")
    grids = []
    for part in parts:
        pieces = part.split(":")
        if len(pieces) != 3:
            raise _UsageError(f"bad grid range {part!r}, expected lo:hi:step")
        try:
            lo, hi, step = (float(v) for v in pieces)
        except ValueError:
            raise _UsageError(f"bad grid range {part!r}, expected numbers") from None
        if step <= 0 or hi < lo:
            raise _UsageError(f"bad grid range {part!r}, need step > 0 and hi >= lo")
        n = int(round((hi - lo) / step)) + 1
        grids.append(np.linspace(lo, hi, n))
    return grids


# ---------------------------------------------------------------------------
# subcommand bodies: return (results, diagnostics, exit_code)


def _validation(model, structure):
    """The validate subcommand's body; every other scenario subcommand
    returns it instead of running when the scenario is invalid."""
    violations = validate_model(model, structure)
    results = {
        "valid": not violations,
        "violations": [{"path": v.path, "message": v.message} for v in violations],
    }
    return results, {}, EXIT_OK if not violations else EXIT_VALIDATION


def _cmd_solve_manager(model, structure, args):
    sol = solve_manager(model, structure, node_budget=args.node_budget)
    results = {
        "root_value": sol.root_value,
        "value_function": sol.value_function.to_json_dict(),
        "strategy": sol.strategy.to_json_dict(),
    }
    return results, {"node_counts": list(sol.node_counts)}, EXIT_OK


def _cmd_solve_member(model, structure, args):
    mgr = solve_manager(model, structure, node_budget=args.node_budget)
    others = {
        j: ManagerProjectionStrategy(j, mgr.strategy)
        for j in range(model.num_members)
        if j != args.member
    }
    sol = solve_member(model, structure, args.member, others, node_budget=args.node_budget)
    results = {
        "member": args.member,
        "root_value": sol.root_value,
        "manager_root_value": mgr.root_value,
        "strategy": sol.strategy.to_json_dict(),
    }
    diag = {
        "node_counts": list(mgr.node_counts),
        "member_node_counts": [list(sol.node_counts)],
    }
    return results, diag, EXIT_OK


def _cmd_oracle_centralized(model, structure, args):
    res = enumerate_centralized(model, structure, budget=args.node_budget)
    results = {
        "num_strategies": res.num_strategies,
        "optimal_cost": res.optimal_cost,
        "strategy": res.strategy.to_json_dict(),
    }
    return results, {"num_strategies": res.num_strategies}, EXIT_OK


def _cmd_oracle_decentralized(model, structure, args):
    res = enumerate_decentralized(model, structure, budget=args.node_budget)
    results = {
        "num_strategies": res.num_strategies,
        "optimal_cost": res.optimal_cost,
        "strategy": res.strategy.to_json_dict(),
    }
    return results, {"num_strategies": res.num_strategies}, EXIT_OK


def _cmd_compare(model, structure, args):
    report = compare_solutions(model, structure, node_budget=args.node_budget)
    return report.to_json_dict(), {}, EXIT_OK


def _cmd_simulate(model, structure, args):
    mgr = solve_manager(model, structure, node_budget=args.node_budget)
    est = estimate_cost(
        model, structure, mgr.strategy, SimConfig(samples=args.samples, seed=args.seed)
    )
    exact = exact_cost(model, structure, mgr.strategy)
    abs_error = abs(est.mean - exact)
    results = {
        "estimate": est.to_json_dict(),
        "exact_cost": exact,
        "abs_error": abs_error,
        "within_three_std_errors": bool(abs_error <= 3.0 * est.std_error),
        "root_value": mgr.root_value,
    }
    return results, {"node_counts": list(mgr.node_counts)}, EXIT_OK


def _cmd_gaussian(args):
    inst = GaussianInstance(args.covariance)
    sol = closed_form(inst)
    companion = closed_form(GaussianInstance(-args.covariance))
    grids = _parse_grid(args.grid)
    search_strategy, search_cost = linear_search(inst, *grids)
    mc_mean, mc_se = mc_estimate(inst, sol.strategy, samples=args.samples, seed=args.seed)
    abs_error = abs(mc_mean - sol.optimal_cost)
    results = {
        "closed_form": sol.to_json_dict(),
        "companion_sign": companion.to_json_dict(),
        "sign_note": (
            "the first-move gain equals 1 + covariance, so the two covariance signs "
            "give different gains (0.5 vs 1.5 at |c| = 0.5) but the same optimal cost "
            "(1 - c^2)/4; both runs are reported"
        ),
        "grid_search": {
            "first_gain": search_strategy.first_gain,
            "pooled_gain": search_strategy.pooled_gain,
            "correction_gain": search_strategy.correction_gain,
            "cost": search_cost,
            "gap_to_closed_form": search_cost - sol.optimal_cost,
        },
        "monte_carlo": {
            "mean": mc_mean,
            "std_error": mc_se,
            "samples": args.samples,
            "seed": args.seed,
            "abs_error": abs_error,
            "within_three_std_errors": bool(abs_error <= 3.0 * mc_se),
        },
        "walkthrough": dp_walkthrough(args.covariance),
    }
    return results, {}, EXIT_OK


# ---------------------------------------------------------------------------
# emission


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def _csv_text(report: dict, args) -> str:
    command = report["metadata"]["command"]
    lines = []
    if command == "gaussian-example" and "error" not in report:
        # plot-ready sections: cost along the first-move gain axis with the
        # other two gains pinned at each sign's closed-form optimum
        lines.append("covariance,first_gain,cost")
        first_grid = _parse_grid(args.grid)[0]
        for c in (args.covariance, -args.covariance):
            best = closed_form(GaussianInstance(c))
            for a in first_grid:
                probe = type(best.strategy)(
                    first_gain=float(a),
                    pooled_gain=best.strategy.pooled_gain,
                    correction_gain=best.strategy.correction_gain,
                )
                j = expected_cost(GaussianInstance(c), probe)
                lines.append(f"{c!r},{float(a)!r},{j!r}")
    else:
        lines.append("key,value")
        rows: list = []
        _flatten("", report, rows)
        for key, value in rows:
            lines.append(f"{key},{json.dumps(value)}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    if getattr(args, "format", "json") == "csv":
        chunks = [_csv_text(report, args)]
    else:
        # streamed, so the whole report text is never held in memory at once
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        chunks = itertools.chain(encoder.iterencode(report), ["\n"])
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


_HANDLERS = {
    "solve-manager": _cmd_solve_manager,
    "solve-member": _cmd_solve_member,
    "oracle-centralized": _cmd_oracle_centralized,
    "oracle-decentralized": _cmd_oracle_decentralized,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
}


def _error_report(metadata: dict, kind: str, message: str, **details) -> dict:
    return {
        "metadata": metadata,
        "results": {},
        "diagnostics": {},
        "error": {"type": kind, "message": message, **details},
    }


def run(argv=None) -> int:
    """Parse arguments, dispatch, emit exactly one report.  Returns the
    process exit status (see the module docstring for the contract)."""
    started = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        metadata = {"command": "usage", "version": __version__}
        report = _error_report(metadata, "UsageError", str(e))
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE

    digest = None
    try:
        if args.command == "gaussian-example":
            metadata = _metadata(args.command, args, None)
            results, diagnostics, code = _cmd_gaussian(args)
        else:
            model, structure = load_scenario(args.scenario)
            digest = _scenario_digest(args.scenario)
            metadata = _metadata(args.command, args, digest)
            if args.command == "solve-member" and not 0 <= args.member < model.num_members:
                raise _UsageError(f"--member must be in 0..{model.num_members - 1}")
            results, diagnostics, code = _validation(model, structure)
            if args.command != "validate" and code == EXIT_OK:
                results, diagnostics, code = _HANDLERS[args.command](model, structure, args)
    except _UsageError as e:
        _emit(_error_report(_metadata(args.command, args, digest), "UsageError", str(e)), args)
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TeamDPError as e:
        details = {}
        if isinstance(e, BudgetExceededError):
            details = {"budget": e.budget, "observed": e.observed}
        metadata = _metadata(args.command, args, digest)
        _emit(_error_report(metadata, type(e).__name__, str(e), **details), args)
        return _ERROR_EXITS.get(type(e), EXIT_VALIDATION)

    diagnostics = dict(diagnostics)
    diagnostics["wall_time_s"] = time.perf_counter() - started
    report = {"metadata": metadata, "results": results, "diagnostics": diagnostics}
    _emit(report, args)
    return code


def main() -> None:
    sys.exit(run())
