#!/usr/bin/env python3
"""stabcat benchmark: CLI construct -> verify -> distance, timed per command.

    python3 perfbench/run.py --workload pipeline_m3 --seed 0 --seconds 55 \\
        --trace 0

Run from a source checkout; the program is imported from ``src/``.  One
benchmark process runs each command as one child process and starts the
next only after the previous one exits (closed loop, one client, at
most one busy core).  Every output is checked (see ``workloads.py``).

Set-up (interpreter start, import and argument parser via ``--help``,
plus the workload's untimed input files) is repeated seven times; the
median of its quiet time (below) is ``setup_s``.  Then whole passes
over the timed commands run until the next pass would end after
``--seconds``; at least one pass runs, and each metric is the median
over passes.

The host's speed swings by up to a factor of two within seconds, so
wall times alone spread too widely to compare two runs.  Each child
therefore times a fixed probe every 50 ms while it runs (``child.py``).
A command's quiet time is its wall time times the mean of
``PROBE_QUIET_S`` / probe over its probes: the time it would have taken
on a host that runs the probe in ``PROBE_QUIET_S`` throughout.
``total_s`` (wall) and ``total_quiet_s`` are both reported, and
``host_slowdown`` is their ratio.  Peak RSS is each child's own (see
``child.py``).

With ``--trace 1`` the run then drives ``stabcat.cli.main`` in process
once more with the same commands, layer functions wrapped by
``layertrace``, and reports the per-layer metrics; the spans are written
to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report (environment, every metric, per-pass values).  The exit code is
0 when every check passed, 1 when one failed, and 2 when the benchmark
could not run (for example, no ``src/stabcat`` next to it).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import counting
import layertrace
from child import HostProbe
from workloads import SMOKE_WORKLOADS, WORKLOADS, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 7
HARD_LIMIT_S = 175.0  # no child may outlive this many seconds of the run

# end-to-end metrics gated by BENCHMARK.json, in its order
GATED = ("setup_s", "total_quiet_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "setup_wall_s": "s", "construct_s": "s",
         "verify_s": "s", "distance_s": "s", "counting_s": "s",
         "total_s": "s",
         "construct_quiet_s": "s", "verify_quiet_s": "s",
         "distance_quiet_s": "s", "counting_quiet_s": "s",
         "total_quiet_s": "s", "host_slowdown": "ratio",
         "peak_rss_mb": "MB", "fail_rate": "ratio"}

# Quiet times are given at this probe time: the probe's time on the host
# above (see README.md) at the fastest of the speeds it switches between.
PROBE_QUIET_S = 150e-6

# per-layer metrics reported by a traced run, with their units
PER_LAYER = {
    "field.setup_s": "s",
    "rs.pair_s": "s",
    "concat.expand_s": "s",
    "concat.expand_calls": "count",
    "concat.injectivity_s": "s",
    "concat.injectivity_blocks": "count",
    "symplectic.rref_insert_s": "s",
    "symplectic.rows_inserted": "count",
    "symplectic.rank": "count",
    "symplectic.is_rref_s": "s",
    "symplectic.duality_s": "s",
    "symplectic.products": "count",
    "symplectic.in_span_s": "s",
    "symplectic.in_span_calls": "count",
    "codefile.dumps_s": "s",
    "codefile.bytes_written": "bytes",
    "codefile.loads_s": "s",
    "codefile.bytes_read": "bytes",
    "distance.scan_s": "s",
    "distance.combinations": "count",
    "distance.combos_per_s": "1/s",
    "distance.sample_s": "s",
    "distance.trials": "count",
    "distance.span_tests_per_trial": "ratio",
    "distance.counting_s": "s",
    "distance.counting_examined": "count",
    "cli.self_s": "s",
    "cli.self_frac_max": "ratio",
    "trace.overhead_frac": "ratio",
}

_PROBE = ("import json, platform, stabcat.distance as d; "
          "print(json.dumps({'python': platform.python_version(), "
          "'kernel': 'compiled' if d.HAVE_COMPILED else 'pure'}))")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


class Runner:
    """Runs child processes one at a time and checks every operation."""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.probes: list[float] = []  # of every child in the run
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (
            os.pathsep + path if path else ""))

    def child(self, argv: list[str]) -> tuple[int, str, str, float]:
        """Run one child to completion: (exit code, stdout, stderr, wall)."""
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() -
                                            self.started))
        out_path = self.workdir / "child.out"
        err_path = self.workdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env)
            # a blocking wait; Popen.wait(timeout) would poll with sleeps
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
                if proc.returncode is None:  # interrupted
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t
        return (code, out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"), wall)

    def operation(self, entry: str, args: list[str]
                  ) -> tuple[int, str, str, float, list[float]]:
        """Run ``child.py`` on one operation and keep its peak RSS.

        Returns the child's exit code, output, wall time and probes.
        """
        stats_path = self.workdir / "child.json"
        stats_path.unlink(missing_ok=True)
        code, out, err, wall = self.child(
            [sys.executable, str(HERE / "child.py"), str(stats_path), entry,
             *args])
        probes = []
        if stats_path.exists():
            stats = json.loads(stats_path.read_text())
            self.peak_rss_kb = max(self.peak_rss_kb,
                                   stats["peak_rss_kb"] or 0)
            probes = stats["probes"]
            self.probes += probes
        return code, out, err, wall, probes

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                print(f"perfbench: FAIL {label}: {e}", file=sys.stderr)

    def run_step(self, step: Step) -> tuple[float, list[float]]:
        code, out, err, wall, probes = self.operation(
            "counting" if step.kind == "counting" else "cli",
            step.argv(self.workdir, self.seed))
        errors = step.check(code, out, self.workdir, self.seed)
        if errors and err.strip():
            errors.append("stderr: " + err.strip().splitlines()[-1])
        self.record(step.label, errors)
        return wall, probes

    def setup(self, steps) -> tuple[float, list[float]]:
        """One set-up: the --help run, then the untimed input files.

        Returns its wall time and the probes its children took.
        """
        first = len(self.probes)
        t = time.perf_counter()
        code, out, _, _, _ = self.operation("cli", ["--help"])
        self.record("--help", [] if code == 0 and out.startswith(
            "usage: stabcat") else [f"--help exit {code}"])
        for step in steps:
            self.run_step(step)
        return time.perf_counter() - t, self.probes[first:]

    def timed_pass(self, steps) -> list[tuple[str, float, list[float]]]:
        """Run every timed step once: (metric, wall time, probes) each."""
        return [(step.metric, *self.run_step(step)) for step in steps]


def quiet_factor(probes: list[float], fallback: float) -> float:
    """Quiet time over wall time for an operation with these probes.

    The program's work done per second tracks the probe's, so the mean
    of ``PROBE_QUIET_S`` / probe scales the wall time to what it would
    have been had every probe taken ``PROBE_QUIET_S``.  An operation
    without probes gets ``fallback``.
    """
    return statistics.fmean(PROBE_QUIET_S / p for p in probes) \
        if probes else fallback


def pass_metrics(timed: list[tuple[str, float, list[float]]],
                 fallback: float) -> dict[str, float]:
    """Wall and quiet time per metric for one pass."""
    sums: dict[str, float] = {}
    for metric, wall, probes in timed:
        quiet = metric.removesuffix("_s") + "_quiet_s"
        sums[metric] = sums.get(metric, 0.0) + wall
        sums[quiet] = sums.get(quiet, 0.0) + \
            wall * quiet_factor(probes, fallback)
    sums["total_s"] = sum(v for k, v in sums.items()
                          if not k.endswith("_quiet_s"))
    sums["total_quiet_s"] = sum(v for k, v in sums.items()
                                if k.endswith("_quiet_s"))
    return sums


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

def traced_pass(runner: Runner, steps, untraced_quiet: float,
                fallback: float, trace_path: Path) -> tuple[dict, list]:
    """Run the timed steps in process with the layers wrapped.

    The host probe runs here too, so that the traced commands' quiet
    time can be set against the untraced ``total_quiet_s``.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stabcat.cli

    tracer = layertrace.Tracer()
    commands = []
    with layertrace.installed(tracer):
        for step in steps:
            argv = step.argv(runner.workdir, runner.seed)
            before = dict(tracer.groups)
            out = io.StringIO()
            name = "bench.counting" if step.kind == "counting" else \
                "cli." + argv[0]
            span = tracer.span(name)
            probe = HostProbe()
            probe.start()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()), span:
                    if step.kind == "counting":
                        print(counting.run(step.m, step.big_k, step.mode,
                                           step.trials or None,
                                           runner.seed if step.trials
                                           else None))
                        code = 0
                    else:
                        code = stabcat.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, reported
                code = 1
                traceback.print_exc()
            finally:
                probes = probe.stop()
            runner.record("traced " + step.label, step.check(
                code, out.getvalue(), runner.workdir, runner.seed))
            commands.append({
                "step": step.label, "span": name,
                "dur_s": span.record["dur_s"],
                "quiet_s": span.record["dur_s"] *
                quiet_factor(probes, fallback),
                "self_s": span.record["self_s"],
                "layers": {layertrace.GROUP_METRIC[g]: tracer.groups[g] -
                           before[g] for g in tracer.groups
                           if tracer.groups[g] > before[g]}})

    metrics = layer_metrics(tracer, commands, untraced_quiet)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps(
        {"commands": commands, "metrics": metrics, **tracer.dump()},
        indent=1))
    return metrics, commands


def layer_metrics(tracer, commands: list, untraced_quiet: float) -> dict:
    out = {metric: tracer.groups[g]
           for g, metric in layertrace.GROUP_METRIC.items()}
    calls: dict[str, int] = {}
    for (_parent, name), (count, _t, _s) in tracer.aggregates.items():
        calls[name] = calls.get(name, 0) + count
    c = tracer.counters
    sample_ids = {s["id"] for s in tracer.spans
                  if s["name"] == "distance.sampled_distance_upper"}
    span_tests = sum(count for (parent, name), (count, _t, _s)
                     in tracer.aggregates.items()
                     if parent in sample_ids and name == "symplectic.in_span")
    trials = c.get("distance.trials", 0)
    combos = c.get("distance.combinations", 0)
    cli = [s for s in commands if s["span"].startswith("cli.")]
    traced_quiet = sum(s["quiet_s"] for s in commands)
    out.update({
        "concat.expand_calls": calls.get("concat.expand_block", 0),
        "concat.injectivity_blocks": c.get("concat.injectivity_blocks", 0),
        "symplectic.rows_inserted": calls.get("symplectic.Rref.add", 0),
        "symplectic.rank": c.get("symplectic.rank", 0),
        "symplectic.products": c.get("symplectic.products", 0),
        "symplectic.in_span_calls": calls.get("symplectic.in_span", 0),
        "codefile.bytes_written": c.get("codefile.bytes_written", 0),
        "codefile.bytes_read": c.get("codefile.bytes_read", 0),
        "distance.combinations": combos,
        "distance.combos_per_s": combos / out["distance.scan_s"]
        if out["distance.scan_s"] else 0.0,
        "distance.trials": trials,
        "distance.span_tests_per_trial": span_tests / trials
        if trials else 0.0,
        "distance.counting_examined": c.get("distance.counting_examined", 0),
        "cli.self_s": sum(s["self_s"] for s in cli),
        "cli.self_frac_max": max((s["self_s"] / s["dur_s"] for s in cli),
                                 default=0.0),
        "trace.overhead_frac": traced_quiet / untraced_quiet - 1.0,
    })
    return {name: out[name] for name in PER_LAYER}


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_sha256() -> str:
    """Digest of the package sources, which identifies a non-git checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "stabcat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(runner: Runner) -> dict:
    code, out, err, _ = runner.child([sys.executable, "-c", _PROBE])
    if code != 0:
        raise BenchError("cannot import stabcat from src/: " +
                         (err.strip().splitlines() or ["no output"])[-1])
    probe = json.loads(out)
    return {"python": probe["python"], "kernel": probe["kernel"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "git_commit": git_commit(), "src_sha256": src_sha256(),
            "seed": runner.seed}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def measure(args, workdir: Path) -> dict:
    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    workload = table[args.workload]
    runner = Runner(workdir, args.seed)
    env = environment(runner)

    setups = [runner.setup(workload.setup) for _ in range(SETUP_REPEATS)]

    timed = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        timed.append(runner.timed_pass(workload.steps))
        last = time.perf_counter() - t
        now = time.perf_counter()
        if now - start + last > args.seconds or \
                now - runner.started + last > HARD_LIMIT_S:
            break

    # for a step without probes: the run's mean, or 1 if no child probed
    fallback = quiet_factor(runner.probes, 1.0)
    passes = [pass_metrics(t, fallback) for t in timed]
    metrics = {"setup_s": statistics.median(
        wall * quiet_factor(probes, fallback) for wall, probes in setups),
        "setup_wall_s": statistics.median(wall for wall, _ in setups)}
    for name in passes[0]:
        metrics[name] = statistics.median(p[name] for p in passes)
    metrics["host_slowdown"] = metrics["total_s"] / metrics["total_quiet_s"]
    metrics["peak_rss_mb"] = runner.peak_rss_kb / 1024.0

    layers, commands = None, None
    if args.trace:
        tag = "smoke-" if args.smoke else ""
        layers, commands = traced_pass(
            runner, workload.steps, metrics["total_quiet_s"], fallback,
            OUT_DIR / f"trace-{tag}{args.workload}-seed{args.seed}.json")
    metrics["fail_rate"] = runner.failed / runner.attempted

    return {"workload": args.workload, "smoke": args.smoke, "env": env,
            "passes": passes,
            "setup_wall_samples": [wall for wall, _ in setups],
            "probe_count": len(runner.probes),
            "metrics": metrics,
            "layers": layers, "commands": commands,
            "attempted": runner.attempted, "failed": runner.failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="stabcat end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="passed only to the sampler's --seed")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measure whole passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the same workload shape on m=1 inputs")
    args = parser.parse_args(argv)

    if not (SRC / "stabcat" / "cli.py").is_file():
        print(f"perfbench: no stabcat sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        report = measure(args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    m = report["metrics"]
    env = report["env"]
    print(f"# workload={args.workload}{' (smoke)' if args.smoke else ''} "
          f"seed={args.seed} passes={len(report['passes'])} "
          f"python={env['python']} kernel={env['kernel']} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"commit={env['git_commit']}")
    for name, value in m.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    for name, value in (report["layers"] or {}).items():
        print(f"{name} {value:.6g} {PER_LAYER[name]}")
    print(json.dumps({"report": report}))

    if args.trace:
        chosen = {k: (v, PER_LAYER[k]) for k, v in report["layers"].items()}
    else:
        chosen = {k: (m[k], UNITS[k]) for k in GATED if k in m}
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in chosen.items()}}))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
