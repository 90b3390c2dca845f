"""Command line front end.

Every run emits a single JSON report {metadata, results, diagnostics}
(plus an ``error`` object on failure) on stdout or to ``--out``; with
``--format csv`` a flat plot-friendly export is emitted instead.  Reports
with identical inputs and seeds are byte-identical except for
``diagnostics.wall_time_s``.

The ``json`` module writes every report: ``_encode`` writes each chunk
of ``json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)`` into
the output's ``write`` method as it comes, so the whole text is never
held in memory and the bytes are those of ``json.dumps(report, indent=2,
sort_keys=True)``.  The CSV export is streamed the same way:
``_flatten`` writes one ``key,value`` line per leaf in the same sorted
walk, each value spelled by ``json.dumps``.

A manager solution's two large tables, the value function (a
``dp.ValueFunction``) and the strategy table (the strategy itself, under
``table`` in its report dict), are written in place by this module's
writers (``_writers``), in both formats, with those bytes.  A writer cuts
its rows, in key order, into blocks of at most ``_BLOCK_ROWS`` rows and
renders each block as bytes with one kernel, ``_rows``: the row
template's segments and the block's fields (keys, argmin texts and
``floattext.texts`` of the floats, each an ``(n, w)`` uint8 matrix
padded with NUL) side by side, every template byte kept and every field
byte but NUL.  Only this module spells history keys: ``_keys`` builds
the decision stages' keys once per written value function, and
``_check_key_texts`` makes sure before any of the report is written that
JSON writes them between quotes as they are.  A stage's rows are
written parent by parent, parents in key order and each parent's rows in
branch-suffix order (``_write_stage``), so no horizon key is built and
no stage is sorted whole; the horizon stage, which the value function
does not hold, is built again for each group of parents as the writer
reaches it (``dp.ValueFunction.horizon_stage``).

The ``teamdp`` process renders the blocks in order and writes each
one's text as soon as it is rendered, so no block outlives its write:
the value-function writers order a stage's parents when they reach it
(``_write_stage``), the strategy-table writers sort every key at once
(``_write_table_rows``).

``--out`` is opened before any scenario work; one that cannot be opened,
or that names the ``--scenario`` file (which opening would destroy), is a
usage error, reported on stdout, and so is one whose write or close
fails (a full disk).  A stdout that cannot be written (a full disk, a
closed pipe) is a usage error too, told by one line on stderr, since no
report can be written.  The scenario file is read once: the
bytes parsed are the bytes hashed into ``metadata.scenario_sha256``, by
the interpreter's own SHA-256 module (``_scenario_digest``), so no run
loads OpenSSL's libcrypto through ``hashlib``.

Start-up pays only for what a subcommand runs.  This module imports
``errors``, ``model`` and ``scenario`` (and with them numpy); each handler
imports the rest when it runs: ``validate`` nothing more,
``solve-manager`` ``dp`` and ``strategies`` (``filters`` is the member
side's), ``solve-member`` these and ``filters``, ``oracle-centralized``
and ``oracle-decentralized`` ``oracle`` (with ``strategies``), ``compare``
``dp`` (whose ``compare_solutions`` imports ``oracle``), ``simulate``
``dp``, ``oracle`` and ``sim``, and ``gaussian-example`` ``gaussian``.
``floattext`` is imported only where a value function is written, and
writing a report imports no solver.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the
environment already sets it or numpy is already loaded, so when this
module loads numpy OpenBLAS starts no idle worker threads whose start
would take the CPU from the import; that holds for ``run`` and the
command alike.  The command (``python -m teamdp`` and the installed
``teamdp``, both through ``teamdp.__main__``) also does one thing at the
process level that ``run`` does not: ``main`` ends the process with
``os._exit`` once the report is out and the standard streams that exist
are flushed, with no interpreter teardown, so no atexit hook runs
(profile or trace ``run``, as ``perfbench/trace.py`` does).  A closed
stdout counts as one that cannot be written; a closed or failing stderr
is not written to and changes no exit code.

``-h``/``--help`` is a run too: its report has ``metadata.command``
"help" and the parser's help text in ``results.usage``.

Exit codes: 0 success; 2 validation failure (or a solver refusing an
undefined problem, e.g. pooled solves under no_sharing, or a broken
solver invariant); 3 budget exceeded; 4 malformed scenario file; 64
usage errors.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import (
    BudgetExceededError,
    InvariantError,
    ScenarioFormatError,
    TeamDPError,
)
from .model import DEFAULT_NODE_BUDGET, DEFAULT_STRATEGY_BUDGET, validate_model
from .scenario import read_scenario, scenario_from_bytes

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_MALFORMED = 4
EXIT_USAGE = 64

# largest --grid (product of the three range sizes); the default grid has
# 201 * 101 * 101 = 2,050,401 points
MAX_GRID_POINTS = 10**7

# largest --samples of simulate and gaussian-example; both hold one float
# per sample, so 10**7 samples are 80 MB
MAX_SAMPLES = 10**7

# exit codes of package errors; any other TeamDPError (an undefined problem,
# e.g. a pooled solve under no_sharing, or degenerate data) is a
# validation failure
_ERROR_EXITS = {BudgetExceededError: EXIT_BUDGET, ScenarioFormatError: EXIT_MALFORMED}


class _UsageError(Exception):
    pass


class _Help(Exception):
    """-h or --help was given; the argument is the parser's help text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); we reserve 2
        raise _UsageError(message)

    def print_help(self, file=None):  # argparse prints and exits; we report
        raise _Help(self.format_help())


# argparse types; argparse names them in its message for unparsable text
def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def sample_count(text: str) -> int:
    value = positive_int(text)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_SAMPLES}, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
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
    sp.add_argument("--samples", type=sample_count, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--node-budget", type=positive_int, default=DEFAULT_NODE_BUDGET)

    sp = sub.add_parser("gaussian-example", help="closed-form two-member Gaussian example")
    common(sp, scenario=False)
    sp.add_argument("--covariance", type=covariance, default=-0.5)
    sp.add_argument("--samples", type=sample_count, default=1_000_000)
    sp.add_argument("--seed", type=nonnegative_int, default=0)
    sp.add_argument("--grid", default="0:2:0.01,0:1:0.01,-1:0:0.01",
                    help="gain grids lo:hi:step for first, pooled, correction")
    return p


def _metadata(command: str, args, digest: str | None) -> dict:
    arguments = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "out", "format") and v is not None
    }
    return {
        "command": command,
        "version": __version__,
        "scenario_sha256": digest,
        "seed": getattr(args, "seed", None),
        "arguments": arguments,
    }


def _scenario_digest(data: bytes) -> str:
    """The hex SHA-256 digest of ``data``, from the interpreter's own
    SHA-256 module where there is one (``_sha2`` from CPython 3.12,
    ``_sha256`` before), as ``random`` takes its ``sha512``: importing
    ``hashlib`` loads OpenSSL's libcrypto, megabytes that every run would
    carry for one digest."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _parse_grid(spec: str):
    parts = spec.split(",")
    if len(parts) != 3:
        raise _UsageError("--grid needs three lo:hi:step ranges separated by commas")
    ranges = []
    for part in parts:
        pieces = part.split(":")
        if len(pieces) != 3:
            raise _UsageError(f"bad grid range {part!r}, expected lo:hi:step")
        try:
            lo, hi, step = (float(v) for v in pieces)
        except ValueError:
            raise _UsageError(f"bad grid range {part!r}, expected numbers") from None
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
            raise _UsageError(f"bad grid range {part!r}, need finite numbers")
        if step <= 0 or hi < lo:
            raise _UsageError(f"bad grid range {part!r}, need step > 0 and hi >= lo")
        steps = (hi - lo) / step
        if not math.isfinite(steps):
            raise _UsageError(
                f"bad grid range {part!r}, more points than the limit of {MAX_GRID_POINTS}"
            )
        ranges.append((lo, hi, int(round(steps)) + 1))
    points = math.prod(n for _, _, n in ranges)
    if points > MAX_GRID_POINTS:
        raise _UsageError(f"--grid has {points} points, more than the limit of {MAX_GRID_POINTS}")
    return [np.linspace(lo, hi, n) for lo, hi, n in ranges]


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
    from .dp import solve_manager

    sol = solve_manager(model, structure, node_budget=args.node_budget)
    _check_key_texts(sol.value_function)
    results = {
        "root_value": sol.root_value,
        "value_function": sol.value_function,
        "strategy": {**sol.strategy.to_json_dict(), "table": sol.strategy},
    }
    return results, {"node_counts": list(sol.node_counts)}, EXIT_OK


def _cmd_solve_member(model, structure, args):
    from .dp import solve_manager, solve_member
    from .strategies import ManagerProjectionStrategy

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


def _cmd_oracle(search, model, structure, args):
    """oracle-centralized and oracle-decentralized: ``search`` names the
    oracle's enumeration for the class."""
    from . import oracle

    res = getattr(oracle, search)(model, structure, budget=args.node_budget)
    results = {
        "num_strategies": res.num_strategies,
        "optimal_cost": res.optimal_cost,
        "strategy": res.strategy.to_json_dict(),
    }
    return results, {"num_strategies": res.num_strategies}, EXIT_OK


def _cmd_compare(model, structure, args):
    from .dp import compare_solutions

    report = compare_solutions(model, structure, node_budget=args.node_budget)
    return report.to_json_dict(), {}, EXIT_OK


def _cmd_simulate(model, structure, args):
    from .dp import solve_manager
    from .oracle import exact_cost
    from .sim import SimConfig, estimate_cost

    mgr = solve_manager(model, structure, node_budget=args.node_budget)
    est = estimate_cost(model, mgr.strategy, SimConfig(samples=args.samples, seed=args.seed))
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
    from .gaussian import GaussianInstance, closed_form, dp_walkthrough, linear_search, mc_estimate

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


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(o, _repr=float.__repr__, _nonfinite=_NONFINITE.get) -> str:
    text = _repr(o)
    return _nonfinite(text, text)


def _encode(obj, write) -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)``
    writes it, one encoder chunk at a time, each table of ``_writers`` in
    it written in place by its writer."""
    line = ""  # the last chunk written that holds a newline
    skip = False

    def default(o):
        nonlocal skip
        writers = _writers(o)
        if writers is None:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        # the encoder writes no newline inside a string, so the text after
        # the last one written is the value's line, led by its indent
        tail = line.rpartition("\n")[2]
        writers[0](o, "\n" + tail[: len(tail) - len(tail.lstrip(" "))], write)
        skip = True  # the chunk the encoder yields next is the null of our None

    for chunk in json.JSONEncoder(indent=2, sort_keys=True, default=default).iterencode(obj):
        if skip:
            skip = False
            continue
        write(chunk)
        if "\n" in chunk:
            line = chunk


def _writers(obj):
    """The JSON and CSV writers of a manager strategy, written as its
    table, or of a ``dp.ValueFunction``, else None (as for anything before
    ``dp`` is imported)."""
    dp = sys.modules.get(f"{__package__}.dp")
    if dp is not None and isinstance(obj, dp.SeparatedTeamStrategy):
        return _write_table, _flatten_table
    if dp is not None and isinstance(obj, dp.ValueFunction):
        return _write_value_function, _flatten_value_function
    return None


# most rows of one block, and most key text of one strategy-table block
_BLOCK_ROWS = 1024
_BLOCK_BYTES = 1 << 14


def _branch_suffixes(vf, t: int) -> list[str]:
    """The key suffix ``u{t}=..;y{t+1}=..`` of each branch of a time-t
    node of ``vf``, in flat (tie-break action, joint observation) order,
    led by ``;`` for t >= 1."""
    sep = ";" if t else ""
    return [
        f"{sep}u{t}={','.join(map(str, u))};y{t + 1}={','.join(map(str, y))}"
        for u in vf.actions
        for y in vf.observations
    ]


def _child_keys(keys: list[str], index: np.ndarray, suffixes: list[str]) -> list[str]:
    """History keys of a stage's children: each parent key extended by
    its branch's suffix, in the children's row order."""
    parent, branch = np.divmod(np.flatnonzero(index >= 0), len(suffixes))
    heads = map(keys.__getitem__, parent.tolist())
    return list(map(str.__add__, heads, map(suffixes.__getitem__, branch.tolist())))


@lru_cache(maxsize=1)
def _keys(vf) -> list:
    """Per decision stage t < T of ``vf``, its history keys in row order
    and its branch suffixes, kept for the last value function asked for:
    its two writers and the check share them."""
    suffixes = [_branch_suffixes(vf, t) for t in range(vf.horizon)]
    keys = [[""]]
    for t in range(vf.horizon - 1):
        keys.append(_child_keys(keys[t], vf.index[t], suffixes[t]))
    return list(zip(keys, suffixes))


def _check_key_texts(vf) -> None:
    """Raise InvariantError unless JSON writes every branch suffix of
    ``vf``, and so every key, between quotes as it is."""
    for t, (_, suffixes) in enumerate(_keys(vf)):
        text = "".join(suffixes)
        if encode_basestring_ascii(text) != '"' + text + '"':
            raise InvariantError(f"a history key suffix of stage {t} needs escaping in JSON")


def _chars(texts: list) -> np.ndarray:
    """The ASCII ``texts`` as the NUL-padded rows of a uint8 matrix."""
    array = np.array(texts, dtype=bytes)
    return array.view(np.uint8).reshape(len(texts), array.itemsize)


def _rows(n: int, parts: list) -> np.ndarray:
    """The bytes of ``n`` rows, each the concatenation of ``parts``, in a
    uint8 array: a str's UTF-8 bytes (lone surrogates passed through), all
    kept, and an ``(n, w)`` uint8 field's i-th row but its NUL padding."""
    columns, nul, width = [], [], 0
    for part in parts:
        if isinstance(part, str):
            part = np.frombuffer(part.encode("utf-8", "surrogatepass"), dtype=np.uint8)
            nul.extend(width + np.flatnonzero(part == 0))
            part = np.broadcast_to(part, (n, len(part)))
        columns.append(part)
        width += part.shape[1]
    chars = np.concatenate(columns, axis=1)
    keep = chars != 0
    keep[:, nul] = True
    return chars[keep]


def _text(chars: np.ndarray) -> str:
    """The text of the UTF-8 bytes ``chars``, as ``_rows`` encodes it."""
    return str(chars, "utf-8", "surrogatepass")


def _stage_block(render, t: int, keys: list, argmins, x: np.ndarray) -> str:
    """The text of ``render(t, keys, argmins, floats)`` of a block of
    stage ``t`` (see ``_write_stage``): its keys as parent and suffix
    matrices, its argmins (None at the horizon), and the texts of ``x``,
    its beliefs and values side by side (``floattext.texts`` where repr
    writes them all in fixed notation, else ``_float``'s).  No field
    outlives the call."""
    from . import floattext

    if floattext.fixed(x):
        floats = floattext.texts(x)
    else:
        floats = _chars(list(map(_float, x.ravel().tolist()))).reshape(*x.shape, -1)
    return _text(render(t, keys, argmins, floats))


def _write_stage(vf, t: int, render, write, sep: str = "") -> None:
    """Write stage ``t`` of ``vf`` in key order, a ``_stage_block`` of at
    most ``_BLOCK_ROWS`` rows at a time, ``sep`` between two blocks.  Row
    r of stage t >= 1 is the r-th live branch ``p * len(tails) + s`` of
    ``index[t - 1]``, with key ``heads[p] + tails[s]``; the root is the one
    branch of a parent "" with suffix "".  Rows go parent by parent,
    parents in the order of their key plus ``;`` (as every suffix of t >= 1
    starts: ``...;y1=0,1`` is a proper prefix of ``...;y1=0,10``, and ``;``
    sorts after the digits), a parent's rows in suffix order, so no stage
    is sorted whole.  Parents are taken four blocks' rows at a time (one
    parent at least): a stage below the horizon gives their rows from the
    arrays of ``vf``, and the horizon, which ``vf`` does not hold, is built
    again for each group, in branch order (``vf.horizon_stage``)."""
    if t:
        heads, tails = _keys(vf)[t - 1]
        index = vf.index[t - 1].reshape(len(heads), len(tails))
    else:
        heads, tails, index = [""], [""], np.zeros((1, 1), dtype=np.intp)
    suffixes = np.argsort(np.array(tails, dtype=bytes))
    heads, tails = _chars(heads), _chars(tails)
    # a key plus ";" sorts as the key padded with ";" in place of NUL, since
    # no key of a stage plus ";" is a prefix of another's
    parents = np.argsort(
        np.where(heads, heads, np.uint8(ord(";"))).view(f"S{heads.shape[1]}").ravel()
    )
    step = max(1, 4 * _BLOCK_ROWS // len(suffixes))
    written = False
    for lo in range(0, len(parents), step):
        group = parents[lo : lo + step]
        branches = index[group]
        if t < len(vf.values):
            beliefs, values = vf.beliefs[t], vf.values[t]
        else:  # the group's children, in branch order
            beliefs, values = vf.horizon_stage(group)
            live = branches >= 0
            branches = np.where(live, np.cumsum(live).reshape(live.shape) - 1, -1)
        parent, suffix = np.nonzero(branches[:, suffixes] >= 0)
        suffix = suffixes[suffix]
        rows = branches[parent, suffix]
        for a in range(0, len(rows), _BLOCK_ROWS):
            if written and sep:
                write(sep)
            written = True
            block = rows[a : a + _BLOCK_ROWS]
            keys = [heads[group[parent[a : a + _BLOCK_ROWS]]], tails[suffix[a : a + _BLOCK_ROWS]]]
            argmins = None if t == vf.horizon else vf.argmins[t][block]
            x = np.column_stack([beliefs[block], values[block]])
            write(_stage_block(render, t, keys, argmins, x))


def _write_table_rows(vf, render, write, sep: str = "") -> None:
    """Write the strategy table of ``vf``, its keys sorted over all stages
    (as ``sort_keys`` sorts them), a block of at most ``_BLOCK_ROWS`` keys
    and ``_BLOCK_BYTES`` of key text, or one key, at a time, as the text
    of ``render(keys, argmins)``, ``sep`` between two blocks."""
    keys = [key for stage, _ in _keys(vf) for key in stage]
    argmins = np.concatenate([np.zeros(0, dtype=np.intp), *vf.argmins])
    order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
    ends = np.cumsum([len(keys[i]) for i in order.tolist()])
    lo = 0
    while lo < len(order):
        hi = np.searchsorted(ends, ends[lo] - len(keys[order[lo]]) + _BLOCK_BYTES, "right")
        hi = min(max(hi, lo + 1), lo + _BLOCK_ROWS)
        if lo and sep:
            write(sep)
        rows = order[lo:hi]
        write(_text(render(_chars([keys[i] for i in rows.tolist()]), argmins[rows])))
        lo = hi


def _write_value_function(vf, indent: str, write) -> None:
    """Write the value function ``vf`` as ``json.dumps(indent=2,
    sort_keys=True)`` writes its reference form ``{"horizon", "stages":
    [{key: {"argmin", "belief", "value"}}]}`` on a line led by ``indent``
    (a newline and the line's spaces)."""
    i1 = indent + "  "
    i2, i3, i4 = i1 + "  ", i1 + "    ", i1 + "      "
    forms = _chars([json.dumps(u, indent=2).replace("\n", i4) for u in vf.actions])
    S = vf.beliefs[0].shape[1]

    def render(t, keys, argmins, floats) -> np.ndarray:
        argmin = "null" if argmins is None else forms[argmins]
        parts = [i3 + '"', *keys, '": {' + i4 + '"argmin": ', argmin, "," + i4 + '"belief": [']
        for x in range(S):
            parts += [i4 + "  ", floats[:, x], "," if x + 1 < S else i4 + "]," + i4 + '"value": ']
        return _rows(len(floats), [*parts, floats[:, S], i3 + "},"])[:-1]

    write("{" + i1 + f'"horizon": {vf.horizon},' + i1 + '"stages": [')
    # one text each, shared by every stage
    after, close = "," + i2, i2 + "}"
    for t in range(vf.horizon + 1):
        write(after if t else i2)
        if t and vf.index[t - 1].max(initial=-1) < 0:  # no live branch
            write("{}")
        else:
            write("{")
            _write_stage(vf, t, render, write, ",")
            write(close)
    write(i1 + "]" + indent + "}")


def _flatten_value_function(prefix: str, vf, write) -> None:
    """Write the CSV rows of the value function ``vf`` as ``_flatten``
    writes its reference form, one line per leaf."""
    lead = prefix + "." if prefix else ""
    digits = [_chars(list(map(str, column))) for column in zip(*vf.actions)]
    leaves = [*(f".belief[{x}]," for x in range(vf.beliefs[0].shape[1])), ".value,"]

    def render(t, keys, argmins, floats) -> np.ndarray:
        key = [f"{lead}stages[{t}].", *keys]
        if argmins is None:
            parts = [*key, ".argmin,null\n"]
        else:
            parts = []
            for k, column in enumerate(digits):
                parts += [*key, f".argmin[{k}],", column[argmins], "\n"]
        for x, leaf in enumerate(leaves):
            parts += [*key, leaf, floats[:, x], "\n"]
        return _rows(len(floats), parts)

    write(f"{lead}horizon,{vf.horizon}\n")
    for t in range(vf.horizon + 1):
        _write_stage(vf, t, render, write)


def _write_table(strategy, indent: str, write) -> None:
    """Write the table of the manager ``strategy`` as ``json.dumps(indent=2,
    sort_keys=True)`` writes its dict, on a line led by ``indent``."""
    i1 = indent + "  "
    vf = strategy.value_function
    forms = _chars([json.dumps(u, indent=2).replace("\n", i1) for u in vf.actions])

    def render(keys, argmins) -> np.ndarray:
        return _rows(len(keys), [i1 + '"', keys, '": ', forms[argmins], ","])[:-1]

    rows = sum(map(len, vf.argmins))
    write("{" if rows else "{}")
    if rows:
        _write_table_rows(vf, render, write, ",")
        write(indent + "}")


def _flatten_table(prefix: str, strategy, write) -> None:
    """Write the CSV rows of the manager ``strategy``'s table as
    ``_flatten`` writes its dict."""
    lead = prefix + "." if prefix else ""
    vf = strategy.value_function
    digits = [_chars(list(map(str, column))) for column in zip(*vf.actions)]

    def render(keys, argmins) -> np.ndarray:
        parts = []
        for k, column in enumerate(digits):
            parts += [lead, keys, f"[{k}],", column[argmins], "\n"]
        return _rows(len(keys), parts)

    _write_table_rows(vf, render, write)


def _flatten(prefix: str, value, write) -> None:
    """Write one ``key,value`` line per leaf of ``value``, dict keys in
    sorted order, each value as ``json.dumps`` spells it."""
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], write)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, write)
    elif (writers := _writers(value)) is not None:
        writers[1](prefix, value, write)
    else:
        write(f"{prefix},{json.dumps(value)}\n")


def _write_csv(report: dict, args, write) -> None:
    if report["metadata"]["command"] == "gaussian-example" and "error" not in report:
        from .gaussian import GaussianInstance, closed_form, expected_cost

        # plot-ready sections: cost along the first-move gain axis with the
        # other two gains pinned at each sign's closed-form optimum
        write("covariance,first_gain,cost\n")
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
                write(f"{c!r},{float(a)!r},{j!r}\n")
    else:
        write("key,value\n")
        _flatten("", report, write)


def _emit(report: dict, args, f) -> None:
    """Write the report to the open output ``f``; ``args`` is None when
    the command line did not parse."""
    try:
        if getattr(args, "format", "json") == "csv":
            _write_csv(report, args, f.write)
        else:
            _encode(report, f.write)
            f.write("\n")
    finally:
        _keys.cache_clear()  # no value function outlives its report


_HANDLERS = {
    "solve-manager": _cmd_solve_manager,
    "solve-member": _cmd_solve_member,
    "oracle-centralized": partial(_cmd_oracle, "enumerate_centralized"),
    "oracle-decentralized": partial(_cmd_oracle, "enumerate_decentralized"),
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
    """Parse arguments, open ``--out``, dispatch, emit exactly one report.
    Returns the process exit status (see the module docstring for the
    contract)."""
    started = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        report = _error_report({"command": "usage", "version": __version__}, "UsageError", str(e))
        return _to_stdout(partial(_usage_error, report, None, str(e)))
    except _Help as e:
        metadata = {"command": "help", "version": __version__}
        report = {"metadata": metadata, "results": {"usage": str(e)}, "diagnostics": {}}
        return _to_stdout(partial(_help, report))
    if not args.out:
        return _to_stdout(partial(_dispatch, args, started=started))
    if _same_file(args.out, getattr(args, "scenario", None)):
        message = "--out names the --scenario file"
    else:
        try:
            out = open(args.out, "w")
        except OSError as e:
            message = f"cannot open --out: {e}"
        else:
            try:
                with out as f:
                    return _dispatch(args, f, started)
            # read_scenario raises ScenarioFormatError for an unreadable
            # scenario, so an OSError here is a failed write or close of out
            except OSError as e:
                message = f"cannot write --out: {e}"
    report = _error_report(_metadata(args.command, args, None), "UsageError", message)
    return _to_stdout(partial(_usage_error, report, args, message))


def _help(report: dict, f) -> int:
    _emit(report, None, f)
    return EXIT_OK


def _usage_error(report: dict, args, message: str, f) -> int:
    """Write the usage-error ``report`` to ``f`` and, once it is flushed,
    the usage line to stderr."""
    _emit(report, args, f)
    f.flush()
    _usage_line(message)
    return EXIT_USAGE


def _usage_line(message: str) -> None:
    """Write the usage line to stderr, best effort: a stderr that is
    closed or cannot be written changes neither the report nor the exit
    status."""
    if sys.stderr is None:  # fd 2 was closed when the interpreter started
        return
    try:
        sys.stderr.write(f"usage error: {message}\n")
        sys.stderr.flush()
    except (OSError, ValueError):
        pass


def _to_stdout(emit) -> int:
    """Run ``emit(sys.stdout)``, which writes a report and returns the
    exit status, and flush stdout.  A stdout that cannot be written (a
    full disk, a pipe whose reader is gone, fd 1 closed) is a usage error
    told on stderr alone; fd 1 is then pointed at ``os.devnull``, so that
    a later flush has nothing left to fail on."""
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        code = emit(sys.stdout)
        sys.stdout.flush()
        return code
    except OSError as e:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # no stdout, or no fd (a captured one)
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        _usage_line(f"cannot write stdout: {e}")
        return EXIT_USAGE


def _same_file(out: str, scenario: str | None) -> bool:
    """Whether ``out`` names the existing file ``scenario``: opening it
    for writing would destroy the scenario before it is read."""
    if scenario is None:
        return False
    try:
        return os.path.samefile(out, scenario)
    except OSError:  # either one missing or unreadable
        return False


def _dispatch(args, f, started: float) -> int:
    digest = None
    try:
        if args.command == "gaussian-example":
            metadata = _metadata(args.command, args, None)
            results, diagnostics, code = _cmd_gaussian(args)
        else:
            raw = read_scenario(args.scenario)
            model, structure = scenario_from_bytes(raw, args.scenario)
            digest = _scenario_digest(raw)
            metadata = _metadata(args.command, args, digest)
            if args.command == "solve-member" and not 0 <= args.member < model.num_members:
                raise _UsageError(f"--member must be in 0..{model.num_members - 1}")
            results, diagnostics, code = _validation(model, structure)
            if args.command != "validate" and code == EXIT_OK:
                results, diagnostics, code = _HANDLERS[args.command](model, structure, args)
    except _UsageError as e:
        report = _error_report(_metadata(args.command, args, digest), "UsageError", str(e))
        return _usage_error(report, args, str(e), f)
    except TeamDPError as e:
        details = {}
        if isinstance(e, BudgetExceededError):
            details = {"budget": e.budget, "observed": e.observed}
        metadata = _metadata(args.command, args, digest)
        _emit(_error_report(metadata, type(e).__name__, str(e), **details), args, f)
        return _ERROR_EXITS.get(type(e), EXIT_VALIDATION)

    diagnostics = dict(diagnostics)
    diagnostics["wall_time_s"] = time.perf_counter() - started
    report = {"metadata": metadata, "results": results, "diagnostics": diagnostics}
    _emit(report, args, f)
    return code


def main() -> None:
    """The ``teamdp`` command: run, flush the standard streams that exist
    and end at once, with no interpreter teardown, ``--out`` closed by
    ``run``.  Freeing an untouched 4 MiB buffer first raises glibc's mmap
    and trim thresholds: blocks rendered here reuse pages, not fault in
    new ones."""
    bytes(1 << 22)  # allocated untouched and freed at once
    code = run()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except (OSError, ValueError):  # best effort, as in _usage_line
                pass
    os._exit(code)
