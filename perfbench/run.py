"""teamdp benchmark: measure one workload, or trace every workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are listed in ``workloads.py``.  This script imports only the
standard library and starts one child process at a time, so a child's
``ru_maxrss`` (which includes the image of the process it was forked from)
is not inflated by this one.  Children run teamdp from ``src/`` of the
checkout; intermediate files go to ``.perfbench/``.

``--trace 0`` measures the workload for S seconds in rounds.  Each round
makes one ``teamdp validate`` run on the scenario (the set-up cost:
interpreter start, imports, parse, schema check, ``validate_model``) and
one run of the workload, each in a fresh process; set-up is topped up to
five runs when there were fewer rounds.  These timed children are paused
every ``SLICE_S`` seconds for a host-speed probe, and ``wall_s`` and
``setup_s`` are their running times (spawn to exit, pauses left out) with
each slice rescaled to the reference host speed; the unscaled times are
printed beside them and kept in ``details.json``.  The first report is
checked against the oracle by ``check.py`` after the loop, and every later
report must be byte-identical to it apart from ``diagnostics.wall_time_s``.

``--trace 1`` makes, for every workload in turn, one untraced run and one
run under ``trace.py``, and one ``trace.py --memory`` run of the selected
workload; ``--seconds`` does not apply.  Per-layer times are reported for
every workload, so each one is measured in every traced run; the
tracemalloc pass is 7-10x slower than the workload, so it covers the
selected workload only.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when a result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median

from workloads import CLI_ARGS, PEAK_SPANS, SIM_SAMPLES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
PY = sys.executable
DEADLINE_S = 170.0  # every child is killed and the run abandoned past this
MIN_SETUP_SAMPLES = 5

# Host-speed probe.  The speed of this shared host moves by 20-60% over
# fractions of a second to minutes, as other tenants come and go; a timed
# child is therefore paused every SLICE_S seconds while the probe runs,
# and each slice of its running time is rescaled by the probes on either
# side.  PROBE_REF_S is the probe's median time on the machine in
# baseline.json, so the rescaled times read as seconds on that machine.
PROBE_N = 300_000
PROBE_REF_S = 0.019
SLICE_S = 0.3

# Per-layer metrics: the spans each workload reports in a traced run.
# Times are named per workload; tracemalloc peaks (PEAK_SPANS) are named
# per span and come from the selected workload's memory pass.
TRACED_SPANS = {
    "manager-t4": ("cli.run", "scenario.load_scenario", "model.validate_model",
                   "model.history_key", "dp.solve_manager"),
    "compare-t2": ("cli.run", "scenario.load_scenario", "model.validate_model",
                   "model.history_key", "model.prefix_view", "model.view_key",
                   "dp.solve_manager", "dp.solve_member", "dp.compare_solutions",
                   "oracle.enumerate_decentralized", "oracle.exact_cost",
                   "strategies.lookup"),
    "simulate-t3": ("cli.run", "scenario.load_scenario", "model.validate_model",
                    "model.history_key", "dp.solve_manager", "oracle.exact_cost",
                    "strategies.lookup", "sim.estimate_cost"),
    "member-br": ("scenario.load_scenario", "model.validate_model", "model.prefix_view",
                  "model.view_key", "dp.solve_member", "oracle.exact_cost",
                  "strategies.lookup"),
}


class BenchError(Exception):
    """The benchmark itself cannot go on; no result is printed."""


def _probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_N):
        total += i * i
    return time.perf_counter() - start


def report_digest(path: str) -> str | None:
    """sha256 of a report without its ``wall_time_s`` line, read line by
    line so that a large report never sits in this process's memory."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for line in f:
                if not line.lstrip().startswith(b'"wall_time_s":'):
                    h.update(line)
    except OSError:
        return None
    return h.hexdigest()


@dataclass
class Child:
    """One finished child process, as measured from outside."""

    wall_s: float  # spawn to exit, pauses included
    rss_mb: float
    code: int
    ref_s: float = 0.0  # running time rescaled to the reference host speed
    probes_s: list = field(default_factory=list)


class Runner:
    """Starts children one at a time and measures each from outside."""

    def __init__(self, root: str, work: str):
        self.work = work
        self.started = time.perf_counter()
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        self.log = os.path.join(work, "children.log")

    def spawn(self, argv: list[str], probed: bool = False) -> Child:
        """Run ``argv`` to completion.  With ``probed``, pause it every
        SLICE_S seconds to probe the host speed and fill in ``ref_s``."""
        deadline = self.started + DEADLINE_S
        if time.perf_counter() >= deadline:
            raise BenchError("out of time before starting a child")
        probes = [_probe()] if probed else []
        ref = 0.0
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=log)
            running_since = start
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    poller = select.poll()
                    poller.register(pidfd, select.POLLIN)
                    while True:
                        left = deadline - time.perf_counter()
                        if poller.poll(max(0.0, min(left, SLICE_S) if probed else left) * 1000):
                            _, status, usage = os.wait4(proc.pid, 0)
                            proc.returncode = os.waitstatus_to_exitcode(status)
                            break
                        if time.perf_counter() >= deadline:
                            raise BenchError(f"child ran past the {DEADLINE_S:.0f} s deadline: {argv}")
                        os.kill(proc.pid, signal.SIGSTOP)
                        _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                        if not os.WIFSTOPPED(status):  # it exited first
                            proc.returncode = os.waitstatus_to_exitcode(status)
                            break
                        paused = time.perf_counter()
                        probes.append(_probe())
                        ref += (paused - running_since) * 2 / (probes[-2] + probes[-1])
                        os.kill(proc.pid, signal.SIGCONT)
                        running_since = time.perf_counter()
                finally:
                    os.close(pidfd)
            except BaseException:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                raise
            end = time.perf_counter()
        child = Child(end - start, usage.ru_maxrss / 1024.0, proc.returncode, probes_s=probes)
        if probed:
            probes.append(_probe())
            ref += (end - running_since) * 2 / (probes[-2] + probes[-1])
            child.ref_s = ref * PROBE_REF_S
        return child

    def must(self, argv: list[str], probed: bool = False) -> Child:
        child = self.spawn(argv, probed)
        if child.code != 0:
            raise BenchError(f"exit code {child.code} from {argv}; see {self.log}")
        return child


def _on_term(signum, frame):
    # unwinds through Runner.spawn, which kills the child it is waiting on,
    # so a stopped child is never left behind
    raise SystemExit(128 + signum)


def workload_argv(workload: str, scenario: str, out: str) -> list[str]:
    if workload == "member-br":
        return [PY, os.path.join(HERE, "member_br.py"), "--scenario", scenario, "--out", out]
    return [PY, "-m", "teamdp"] + CLI_ARGS[workload] + ["--scenario", scenario, "--out", out]


def validate_argv(scenario: str, out: str) -> list[str]:
    return [PY, "-m", "teamdp", "validate", "--scenario", scenario, "--out", out]


class Workload:
    """One workload's scenario and reports inside the work directory."""

    def __init__(self, runner: Runner, name: str, seed: int):
        self.runner, self.name = runner, name
        self.scenario = os.path.join(runner.work, f"{name}.scenario.json")
        self.ref = os.path.join(runner.work, f"{name}.ref.json")
        self.out = os.path.join(runner.work, f"{name}.out.json")
        self.setup_out = os.path.join(runner.work, f"{name}.validate.json")
        runner.must([PY, os.path.join(HERE, "workloads.py"), "--workload", name,
                     "--seed", str(seed), "--out", self.scenario])
        # untimed warm-up: bytecode compiled, files cached
        runner.must(validate_argv(self.scenario, self.setup_out))

    def setup_sample(self, probed: bool = False) -> Child:
        return self.runner.must(validate_argv(self.scenario, self.setup_out), probed)

    def run(self, argv: list[str] | None = None, probed: bool = False) -> dict:
        """One run into ``self.out``; the first one becomes the reference."""
        first = not os.path.exists(self.ref)
        child = self.runner.spawn(argv or workload_argv(self.name, self.scenario, self.out), probed)
        sample = {"wall_s": child.wall_s, "ref_s": child.ref_s, "probes_s": child.probes_s,
                  "peak_rss_mb": child.rss_mb, "exit_code": child.code,
                  "report_bytes": os.path.getsize(self.out) if os.path.exists(self.out) else 0,
                  "digest": report_digest(self.out)}
        if os.path.exists(self.out):
            if first:
                os.replace(self.out, self.ref)
            else:
                os.remove(self.out)
        return sample

    def check_reference(self) -> bool:
        """The oracle check of the first report (outside any timed region)."""
        if not os.path.exists(self.ref):
            return False
        child = self.runner.spawn([PY, os.path.join(HERE, "check.py"), "--workload", self.name,
                                   "--scenario", self.scenario, "--report", self.ref])
        return child.code == 0

    def failures(self, samples: list[dict]) -> int:
        """Runs with a wrong exit code, or whose report differs from a
        reference that passed the oracle check."""
        ref_ok = samples[0]["exit_code"] == 0 and self.check_reference()
        ref_digest = samples[0]["digest"]
        return sum(
            1 for s in samples
            if s["exit_code"] != 0 or not ref_ok or s["digest"] is None or s["digest"] != ref_digest
        )


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten runs beyond it, with the run count."""
    n = len(values)
    if n < 11:
        return f"n={n} (fewer than 11 runs: no tail percentile)"
    k = n - 11
    return f"p{100.0 * (k + 1) / n:.0f}={sorted(values)[k]:.4f} n={n}"


def measure(runner: Runner, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    w = Workload(runner, name, seed)
    samples, setup = [], []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        setup.append(w.setup_sample(probed=True))
        samples.append(w.run(probed=True))
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(w.setup_sample(probed=True))
    failed = w.failures(samples)
    walls = [s["ref_s"] for s in samples]
    raw_walls = [s["wall_s"] for s in samples]
    metrics = {
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (median([s["peak_rss_mb"] for s in samples]), "MB"),
        "report_bytes": (median([s["report_bytes"] for s in samples]), "bytes"),
        "setup_s": (median([c.ref_s for c in setup]), "s"),
        "ok_frac": (1.0 - failed / len(samples), "fraction"),
    }
    probes = [p for s in samples for p in s["probes_s"]]
    print(f"{name} seed {seed}: wall median {metrics['wall_s'][0]:.4f} s, {tail(walls)}; "
          f"unscaled wall median {median(raw_walls):.4f} s, {tail(raw_walls)}; "
          f"setup median {metrics['setup_s'][0]:.4f} s over {len(setup)}; "
          f"probe median {median(probes) * 1e3:.2f} ms over {len(probes)}; failed {failed}")
    details = {"samples": samples, "setup": [vars(c) for c in setup], "failed": failed}
    return {"attempted": len(samples), "failed": failed, "metrics": metrics}, details


def _load(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"no usable trace in {path}: {e}") from None


def _span(trace: dict, name: str) -> dict:
    return trace["spans"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})


def span_metrics(name: str, trace: dict) -> dict:
    """Per-layer time and count metrics of one span in one timing trace."""
    s, counts = _span(trace, name), trace["counts"]
    if name in ("scenario.load_scenario", "model.validate_model", "model.view_key"):
        return {f"{name}_s": s["total_s"]}
    if name in ("model.history_key", "model.prefix_view", "oracle.exact_cost", "strategies.lookup"):
        return {f"{name}_calls": s["calls"], f"{name}_s": s["total_s"]}
    out = {f"{name}.self_s": s["self_s"]}
    if name == "dp.solve_manager":
        out["dp.manager_nodes"] = counts.get("dp.manager_nodes", 0)
        out["dp.manager_nodes_per_s"] = out["dp.manager_nodes"] / s["total_s"] if s["total_s"] else 0.0
    elif name == "dp.solve_member":
        out["dp.member_nodes"] = counts.get("dp.member_nodes", 0)
        out["dp.member_particles"] = counts.get("dp.member_particles", 0)
    elif name == "oracle.enumerate_decentralized":
        out["oracle.profiles"] = counts.get("oracle.profiles", 0)
    elif name == "sim.estimate_cost":
        out["sim.rollouts_per_s"] = SIM_SAMPLES / s["total_s"] if s["total_s"] else 0.0
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def layer_self_times(trace: dict) -> dict:
    """Self time per module (the span name up to its first dot)."""
    layers: dict[str, float] = {}
    for name, s in trace["spans"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s["self_s"]
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]))


def trace_all(runner: Runner, selected: str, seed: int) -> tuple[dict, dict]:
    metrics, details = {}, {}
    attempted = failed = 0
    tracer = os.path.join(HERE, "trace.py")
    for name in WORKLOADS:
        w = Workload(runner, name, seed)
        probe = _probe()
        setup = w.setup_sample().wall_s
        untraced = w.run()
        trace_file = os.path.join(runner.work, f"{name}.trace.json")
        base = [PY, tracer, "--workload", name, "--scenario", w.scenario, "--out", w.out]
        runs = [untraced, w.run(base + ["--trace-out", trace_file])]
        if name == selected:
            memory_file = os.path.join(runner.work, f"{name}.memory.json")
            runs.append(w.run(base + ["--trace-out", memory_file, "--memory"]))
        bad = w.failures(runs)
        attempted += len(runs)
        failed += bad
        trace = _load(trace_file)
        overhead = runs[1]["wall_s"] - untraced["wall_s"]
        for span in TRACED_SPANS[name]:
            for metric, value in span_metrics(span, trace).items():
                metrics[f"{name}.{metric}"] = (value, unit_of(metric))
        metrics[f"{name}.trace.overhead_s"] = (overhead, "s")
        layers = layer_self_times(trace)
        accounted = sum(layers.values()) + setup
        print(f"{name}: traced wall {runs[1]['wall_s']:.4f} s, untraced {untraced['wall_s']:.4f} s, "
              f"overhead {overhead:.4f} s; self times + setup {accounted:.4f} s; "
              f"layers " + ", ".join(f"{k} {v:.3f}" for k, v in layers.items())
              + f"; failed {bad}")
        details[name] = {"untraced_wall_s": untraced["wall_s"], "traced_wall_s": runs[1]["wall_s"],
                         "setup_s": setup, "probe_s": probe,
                         "layer_self_s": layers, "trace": trace, "failed": bad}
        if name == selected:
            peaks = _load(memory_file)["peak_mb"]
            for span in PEAK_SPANS:
                metrics[f"{span}.peak_mb"] = (peaks.get(span, 0.0), "MB")
            details[name]["peak_mb"] = peaks
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, details


def main() -> int:
    p = argparse.ArgumentParser(description="teamdp benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "teamdp", "__init__.py")):
        print("perfbench: run from the root of a teamdp checkout (src/teamdp not found)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    signal.signal(signal.SIGTERM, _on_term)
    runner = Runner(root, work)
    try:
        if args.trace:
            result, details = trace_all(runner, args.workload, args.seed)
        else:
            result, details = measure(runner, args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    with open(os.path.join(work, "details.json"), "w") as f:
        json.dump(details, f, indent=1)
    for path in os.listdir(work):  # drop the reports, keep scenarios and traces
        if path.endswith((".out.json", ".ref.json")):
            os.remove(os.path.join(work, path))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
