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

A manager value function is the one thing the json module does not
write: its report form would hold one dict per node, so both formats
write it in place, straight from its stage arrays, with
``_write_value_function`` (JSON) and ``_flatten_value_function`` (CSV).
The encoder's ``default`` hook hands each ``dp.ValueFunction`` to
``_write_value_function``, which writes it at the indent of the line the
value starts on, in place of the ``null`` the encoder yields for the
hook's ``None``.  Only this module knows how a value function looks in
a report.  One walk, ``_stage_blocks``, puts a stage's rows in key order
and makes one render job per ``_BLOCK_ROWS`` rows, which hands the
block's keys, argmin action indices and floats to the render function of
the format.  Each lays out its row template and the block's argument
columns in slot order, and ``_fill_rows`` fills the template repeated
with one ``%``: the JSON row has slots for the key, the argmin text (one
precomputed text per joint action; ``null`` at the horizon is in the
template), each belief float and the value; the CSV row has one line per
leaf, each with slots for the key and the leaf's text.  So the largest
write is one block, whatever the tree size.

The solver keeps key strings for the decision stages only; a key of
stage t >= 1 is its parent's key plus the suffix ``;u{t-1}=..;y{t}=..``
of its branch, and only this module splits it so (``_stage_blocks``).
So the rows are put in key order with ``np.lexsort`` on the parent's
rank, then the suffix's, with parents ranked by their key plus ``;``, as
a parent key can be a proper prefix of another (``...;y1=0,1`` and
``...;y1=0,10``, when the last member has 11 or more labels) and ``;``
sorts after the digits.  The JSON row takes a key as two ``%s``
arguments between quotes, the parent key and the suffix, unescaped:
``_cmd_solve_manager`` checks once per suffix table, before any of the
report is written, that JSON writes the suffixes as they are
(``_check_key_texts``), and raises InvariantError if not.  The CSV
writer joins a block's keys once and frees them with the block.  Row
counts come from the value arrays, so nothing on the write path builds
the horizon keys.

A float's text is always that of ``float.__repr__``.  Where ``repr``
writes every float of a block in fixed notation, the digits come from
``floattext``, which finds the shortest round-trip digits of a whole
column at once with integer arithmetic in numpy; each float slot is then
``floattext.SLOT``, whose four arguments (sign, integer part, the zeros
that lead the fraction and the fraction's other digits) are ints and
short strings, so the block's ``%`` formats no float.  A block that
holds a value ``repr`` writes in exponent notation (0 < |x| < 1e-4 or
|x| >= 1e16) or a non-finite one keeps one ``%s`` slot per float, filled
with the text of ``repr``, or of ``_float`` (as the json module spells
non-finite numbers) when the block holds a non-finite value.

``_write_blocks`` writes a value function's texts and blocks in order,
and spreads the rendering over the CPUs this process may run on
(``os.sched_getaffinity``): block j, counted over the whole value
function, goes to process j mod P, with P the CPU count but at most the
block count.  Process 0 is this one, which writes every block.  The
others are forked once every stage's rows are sorted, and each sends its
blocks in order over its own pipe, as length-prefixed frames, which this
process reads and decodes whole, one block at a time.  A value
function of no more than ``_BLOCK_ROWS`` rows in all, or a platform
without ``os.fork`` or ``os.sched_getaffinity``, is written by this
process alone.  If a renderer dies (its frame comes short), this process
renders that block and every later one itself, with the same render
function, so the bytes depend neither on the CPU count nor on a fault.
Every renderer is reaped before the writer returns, also when a write
fails.

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
``solve-manager`` ``dp`` (which brings ``filters`` and ``strategies``),
``solve-member`` ``dp`` and ``strategies``, ``oracle-centralized`` and
``oracle-decentralized`` ``oracle`` (with ``strategies``), ``compare``
``dp`` (whose ``compare_solutions`` imports ``oracle``), ``simulate``
``dp``, ``oracle`` and ``sim``, and ``gaussian-example`` ``gaussian``.
``floattext`` is imported only where a value function is written, before
any renderer is forked.
``_encode`` and ``_flatten`` recognise a ``dp.ValueFunction`` only when
``dp`` is already imported, as it must be for one to exist, so writing a
report, in either format, imports no solver.

Exit codes: 0 success; 2 validation failure (or a solver refusing an
undefined problem, e.g. pooled solves under no_sharing, or a broken
solver invariant); 3 budget exceeded; 4 malformed scenario file; 64
usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); we reserve 2
        raise _UsageError(message)


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
        "strategy": sol.strategy.to_json_dict(),
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
    writes it, one encoder chunk at a time, each ``dp.ValueFunction`` in
    it written in place by ``_write_value_function``."""
    line = ""  # the last chunk written that holds a newline
    skip = False

    def default(o):
        nonlocal skip
        if not _is_value_function(o):
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        # the encoder writes no newline inside a string, so the text after
        # the last one written is the value's line, led by its indent
        tail = line.rpartition("\n")[2]
        _write_value_function(o, "\n" + tail[: len(tail) - len(tail.lstrip(" "))], write)
        skip = True  # the chunk the encoder yields next is the null of our None

    for chunk in json.JSONEncoder(indent=2, sort_keys=True, default=default).iterencode(obj):
        if skip:
            skip = False
            continue
        write(chunk)
        if "\n" in chunk:
            line = chunk


def _is_value_function(obj) -> bool:
    """Whether ``obj`` is a ``dp.ValueFunction``; one can exist only once
    ``dp`` is imported, so a report without one imports nothing."""
    dp = sys.modules.get(f"{__package__}.dp")
    return dp is not None and isinstance(obj, dp.ValueFunction)


# rows of a value-function stage written by one ``%`` of the row template
_BLOCK_ROWS = 1024


def _check_key_texts(vf) -> None:
    """Raise InvariantError unless JSON writes every branch suffix of
    ``vf`` (a ``dp.ValueFunction``) between quotes as it is, one check
    per suffix table.  Every history key is a run of suffixes, and
    ``_write_value_function`` puts each key's parent key and suffix
    between quotes with no escaping, so a suffix that needs escaping
    would make it write invalid JSON."""
    for t, suffixes in enumerate(vf.suffixes):
        text = "".join(suffixes)
        if encode_basestring_ascii(text) != '"' + text + '"':
            raise InvariantError(f"a history key suffix of stage {t} needs escaping in JSON")


def _ranks(texts: list) -> np.ndarray:
    """The position of each of ``texts`` in sorted order."""
    ranks = np.empty(len(texts), dtype=np.intp)
    ranks[sorted(range(len(texts)), key=texts.__getitem__)] = np.arange(len(texts))
    return ranks


def _stage_blocks(vf, t: int, render) -> list:
    """The render jobs of stage ``t`` of ``vf`` (a ``dp.ValueFunction``):
    its rows are put in key order here, once, in one ``order`` array; each
    job is ``_block`` for its next ``_BLOCK_ROWS`` rows, sliced in the
    process that runs it.  ``floattext`` is imported before any fork.

    Row r of stage t >= 1 is the r-th live branch of ``index[t - 1]``;
    its flat position ``p * len(tails) + s`` gives its parent key
    ``heads[p]`` (``decision_keys[t - 1]``) and suffix ``tails[s]``
    (``suffixes[t - 1]``), and its key is the two joined.  The root is the
    parent "" plus the suffix "", on branch 0.  So the rows are ordered by
    ``np.lexsort`` on the parent's rank, then the suffix's, and no key is
    built.  Suffixes rank by their text; at t >= 1 each starts with ``;``,
    so two keys of different parents compare as their parent keys plus
    ``;`` do, which is how parents rank.  That differs from the parent
    keys alone where one is a proper prefix of another (``...;y1=0,1`` and
    ``...;y1=0,10``, when the last member has 11 or more labels), since
    ``;`` sorts after the digits."""
    from . import floattext  # noqa: F401

    if t:
        heads, tails = vf.decision_keys[t - 1], vf.suffixes[t - 1]
        branches = np.flatnonzero(vf.index[t - 1] >= 0)
    else:
        heads, tails, branches = [""], [""], np.zeros(1, dtype=np.intp)
    width = len(tails)
    order = np.lexsort(
        (_ranks(tails)[branches % width], _ranks([h + ";" for h in heads])[branches // width])
    )
    return [
        partial(_block, render, vf, t, heads, tails, order, branches, lo)
        for lo in range(0, len(order), _BLOCK_ROWS)
    ]


def _block(render, vf, t: int, heads: list, tails: list, order, branches, lo: int) -> str:
    """``render(t, heads, tails, argmins, slot, floats)`` for the
    ``_BLOCK_ROWS`` rows from ``lo`` on of ``order``: their parent keys
    and suffixes, found from ``branches[rows]`` (``_stage_blocks``), argmin
    action indices (None at the horizon), and the float slot and each
    float's argument columns, the belief components then the value:
    ``floattext.SLOT`` and ``floattext.fields`` where ``repr`` writes every
    float of the block in fixed notation, else ``%s`` and the texts of
    ``repr``, or of ``_float`` in a block holding a non-finite value."""
    from . import floattext

    rows = order[lo : lo + _BLOCK_ROWS]
    b, v = vf.beliefs[t][rows], vf.values[t][rows]
    columns = [*b.T, v]
    if floattext.fixed(b) and floattext.fixed(v):
        slot, floats = floattext.SLOT, list(map(floattext.fields, columns))
    else:
        fmt = float.__repr__ if np.isfinite(b).all() and np.isfinite(v).all() else _float
        slot, floats = "%s", [[list(map(fmt, c.tolist()))] for c in columns]
    argmins = None if t == vf.horizon else vf.argmins[t][rows].tolist()
    parent, suffix = np.divmod(branches[rows], len(tails))
    heads = list(map(heads.__getitem__, parent.tolist()))
    tails = list(map(tails.__getitem__, suffix.tolist()))
    return render(t, heads, tails, argmins, slot, floats)


def _fill_rows(row: str, n: int, columns: list, sep: str = "") -> str:
    """``n`` copies of the row template ``row`` joined by ``sep``, filled
    by one ``%``: ``columns`` are the block's argument columns in slot
    order, and row i takes entry i of each."""
    width = len(columns)
    args = [None] * (n * width)
    for j, column in enumerate(columns):
        args[j::width] = column
    return sep.join([row] * n) % tuple(args)


def _write_value_function(vf, indent: str, write) -> None:
    """Write the value function ``vf`` as ``json.dumps(indent=2,
    sort_keys=True)`` writes its reference form ``{"horizon", "stages":
    [{key: {"argmin", "belief", "value"}}]}`` on a line led by ``indent``
    (a newline and the line's spaces): each block of ``_stage_blocks`` is
    one ``%`` over the row template repeated (``_fill_rows``), whose
    arguments are the key's parent key and suffix, the argmin text
    (``null`` is in the template at the horizon) and the float texts,
    rendered by ``_write_blocks``.  The key goes between the quotes as it is, which
    ``_check_key_texts`` makes sure is its JSON text."""
    i1 = indent + "  "
    i2, i3, i4 = i1 + "  ", i1 + "    ", i1 + "      "
    i5 = i4 + "  "
    forms = ["[" + i5 + ("," + i5).join(map(int.__repr__, u)) + i4 + "]" for u in vf.actions]
    S = vf.beliefs[0].shape[1]

    def render(t, heads, tails, argmins, slot, floats) -> str:
        texts = [] if argmins is None else [map(forms.__getitem__, argmins)]
        argmin = "%s" if texts else "null"
        row = (
            i3 + '"%s%s": {' + i4 + '"argmin": ' + argmin + "," + i4 + '"belief": ['
            + i5 + (slot + "," + i5) * (S - 1) + slot + i4 + "]," + i4 + '"value": ' + slot
            + i3 + "}"
        )
        columns = [heads, tails, *texts, *(c for args in floats for c in args)]
        return _fill_rows(row, len(heads), columns, ",")

    pieces = ["{" + i1 + f'"horizon": {vf.horizon},' + i1 + '"stages": [']
    # one text each, shared by every stage
    after, close = "," + i2, i2 + "}"
    for t, values in enumerate(vf.values):
        pieces.append(after if t else i2)
        if not len(values):
            pieces.append("{}")
            continue
        for n, job in enumerate(_stage_blocks(vf, t, render)):
            pieces += ["," if n else "{", job]
        pieces.append(close)
    pieces.append(i1 + "]" + indent + "}")
    _write_blocks(pieces, sum(map(len, vf.values)), write)


def _flatten_value_function(prefix: str, vf, write) -> None:
    """Write the CSV rows of the value function ``vf`` as ``_flatten``
    writes its reference form: each block of ``_stage_blocks`` is one
    ``%`` over the stage's row template repeated (``_fill_rows``), one
    line per leaf (``<key>.argmin[k]``, or ``<key>.argmin,null`` at the
    horizon, then ``<key>.belief[x]`` and ``<key>.value``), whose
    arguments are the key and the leaf's text, leaf by leaf, rendered by
    ``_write_blocks``.  A block's keys are joined from their parent keys
    and suffixes once, and freed with the block."""
    lead = prefix + "." if prefix else ""
    digits = [[int.__repr__(a) for a in column] for column in zip(*vf.actions)]
    leaves = [*(f"belief[{x}]" for x in range(vf.beliefs[0].shape[1])), "value"]

    def render(t, heads, tails, argmins, slot, floats) -> str:
        stage = f"{lead}stages[{t}].".replace("%", "%%")
        names = list(map(str.__add__, heads, tails))
        if argmins is None:
            row, columns = f"{stage}%s.argmin,null\n", [names]
        else:
            row = "".join(f"{stage}%s.argmin[{k}],%s\n" for k in range(len(digits)))
            columns = [c for texts in digits for c in (names, map(texts.__getitem__, argmins))]
        row += "".join(f"{stage}%s.{leaf},{slot}\n" for leaf in leaves)
        columns += [c for args in floats for c in (names, *args)]
        return _fill_rows(row, len(names), columns)

    pieces = [f"{lead}horizon,{vf.horizon}\n"]
    for t in range(len(vf.values)):
        pieces += _stage_blocks(vf, t, render)
    _write_blocks(pieces, sum(map(len, vf.values)), write)


def _renderers(jobs: int, rows: int) -> int:
    """How many processes render the ``jobs`` blocks of a value function
    of ``rows`` rows: one per CPU this process may run on, but no more
    than there are blocks, and this one alone for rows that fit in one
    block or where ``os.fork`` or ``os.sched_getaffinity`` is missing."""
    if rows <= _BLOCK_ROWS or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), jobs)


def _write_blocks(pieces: list, rows: int, write) -> None:
    """Write ``pieces`` in order: a str as it is, any other piece (a
    render job: a function that returns the text of one block of a value
    function of ``rows`` rows) as the text it returns.

    Render job j goes to process j mod P, P from ``_renderers``.  Process
    0 is this one, which writes every text; each other process is forked
    once the jobs are listed and sends its texts in order over its own
    pipe (``_fork_renderer``).  If a frame comes short (its renderer died)
    or no renderer can be forked, this process renders that job and every
    later one itself, so the bytes do not depend on P.  Every renderer is
    reaped on every path: its pipe is closed first, so one blocked on a
    full pipe gets EPIPE and exits."""
    jobs = [piece for piece in pieces if not isinstance(piece, str)]
    processes = _renderers(len(jobs), rows)
    pids, readers = [], []
    try:
        try:
            for c in range(1, processes):
                pid, reader = _fork_renderer(jobs[c::processes], readers)
                pids.append(pid)
                readers.append(reader)
        except OSError:  # no pipe or no process to be had
            _close_all(readers)
        j = 0
        for piece in pieces:
            if isinstance(piece, str):
                write(piece)
            else:
                write(_job_text(piece, j % processes, readers))
                j += 1
    finally:
        _close_all(readers)
        for pid in pids:
            os.waitpid(pid, 0)


def _job_text(job, c: int, readers: list) -> str:
    """The text of ``job``, received from renderer ``c`` while renderers
    run (``readers`` is not empty) and ``c`` is not 0, else rendered here.
    A frame that comes short stops every renderer."""
    if c and readers:
        text = _receive(readers[c - 1])
        if text is not None:
            return text
        _close_all(readers)
    return job()


def _close_all(readers: list) -> None:
    for reader in readers:
        reader.close()
    readers.clear()


def _fork_renderer(jobs: list, readers: list):
    """Fork a process that renders ``jobs`` in order and sends each text
    over its own pipe as one frame: the length of its UTF-8 bytes (lone
    surrogates passed through) in 8 bytes, then the bytes.  ``readers``
    are the read ends of the renderers forked before it, which it closes.
    Returns its pid and the pipe's read end.  The pipe's capacity keeps
    it at most one block ahead of the reader.  It ends in ``os._exit``, so
    it runs no atexit handler and flushes none of the stdio buffers it
    inherited."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            for reader in readers:
                reader.close()
            for job in jobs:
                _send(w, job().encode("utf-8", "surrogatepass"))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _send(fd: int, data: bytes) -> None:
    for chunk in (len(data).to_bytes(8, "little"), data):
        view = memoryview(chunk)
        while view:
            view = view[os.write(fd, view) :]


def _receive(reader) -> str | None:
    """The text of the next frame on ``reader``, or None when the frame
    comes short: its renderer died.  The length is trusted: our own child
    sent it in one 8-byte write, which a pipe writes whole."""
    head = reader.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    if len(data) < size:
        return None
    return data.decode("utf-8", "surrogatepass")


def _flatten(prefix: str, value, write) -> None:
    """Write one ``key,value`` line per leaf of ``value``, dict keys in
    sorted order, each value as ``json.dumps`` spells it."""
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], write)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, write)
    elif _is_value_function(value):
        _flatten_value_function(prefix, value, write)
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
    if getattr(args, "format", "json") == "csv":
        _write_csv(report, args, f.write)
    else:
        _encode(report, f.write)
        f.write("\n")


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


def _usage_error(report: dict, args, message: str, f) -> int:
    """Write the usage-error ``report`` to ``f`` and, once it is flushed,
    the usage line to stderr."""
    _emit(report, args, f)
    f.flush()
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _to_stdout(emit) -> int:
    """Run ``emit(sys.stdout)``, which writes a report and returns the
    exit status, and flush stdout.  A stdout that cannot be written (a
    full disk, a pipe whose reader is gone) is a usage error told on
    stderr alone; fd 1 is then pointed at ``os.devnull``, so that the
    flush at interpreter exit has nothing left to fail on."""
    try:
        code = emit(sys.stdout)
        sys.stdout.flush()
        return code
    except OSError as e:
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # no file descriptor, e.g. a captured stdout
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print(f"usage error: cannot write stdout: {e}", file=sys.stderr)
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
    sys.exit(run())
