"""Tests of the benchmark itself: smoke runs, negative checks, tracing.

    python3 -m pytest -q perfbench

The smoke runs use the m=1 shapes of the workloads and take a few
seconds in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
from child import HostProbe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


@pytest.mark.parametrize("workload", ["pipeline_m3", "scale_m4",
                                      "search_small"])
def test_smoke_shape_passes(workload):
    code, result, err = run_bench("--workload", workload, "--smoke",
                                  "--seed", "0")
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_result_names_match_benchmark_json(workload):
    code, result, err = run_bench("--workload", workload, "--smoke",
                                  "--seed", "3")
    assert code == 0, err
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())

    code, result, err = run_bench("--workload", workload, "--smoke",
                                  "--seed", "3", "--trace", "1")
    assert code == 0, err
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def _wrong_digests(monkeypatch):
    monkeypatch.setattr(workloads, "CODE_SHA256", {
        key: "0" * 64 for key in workloads.CODE_SHA256})


def _wrong_ds(monkeypatch):
    monkeypatch.setattr(workloads, "EXACT_D", {
        key: (d + 1, e) for key, (d, e) in workloads.EXACT_D.items()})
    monkeypatch.setattr(workloads, "SAMPLED_D_SEED0", {
        key: d + 1 for key, d in workloads.SAMPLED_D_SEED0.items()})


@pytest.mark.parametrize("corrupt,workload", [
    (_wrong_digests, "pipeline_m3"), (_wrong_ds, "pipeline_m3"),
    (_wrong_ds, "search_small")])
def test_wrong_pin_fails_the_run(corrupt, workload, monkeypatch, capsys):
    corrupt(monkeypatch)
    code = run.main(["--workload", workload, "--smoke", "--seed", "0",
                     "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, err = run_bench(
        "--workload", "pipeline_m3", "--seed", "0", cwd=tmp_path,
        script=tmp_path / "perfbench" / "run.py")
    assert code not in (0, 1)
    assert result is None and "no stabcat sources" in err


def test_group_time_counts_outermost_calls_once():
    tracer = layertrace.Tracer()

    def inner():
        time.sleep(0.01)

    inner_w = tracer.wrap(inner, "x.inner", "expand", hot=True)

    def outer():
        inner_w()
        inner_w()

    outer_w = tracer.wrap(outer, "x.outer", "expand", hot=True)
    with tracer.span("cli.test"):
        outer_w()
    agg = {name: v for (_p, name), v in tracer.aggregates.items()}
    assert agg["x.inner"][0] == 2 and agg["x.outer"][0] == 1
    # the group holds the outer call only, not outer + inner
    assert tracer.groups["expand"] == pytest.approx(agg["x.outer"][1])
    assert agg["x.outer"][2] < 0.5 * agg["x.outer"][1]  # self excludes inner
    (span,) = tracer.spans
    assert span["self_s"] < 0.5 * span["dur_s"]


def test_installed_restores_every_lookup():
    import stabcat.cli
    import stabcat.symplectic

    before = (stabcat.cli.is_rref, stabcat.symplectic.Rref.add)
    with layertrace.installed(layertrace.Tracer()):
        assert stabcat.cli.is_rref is not before[0]
    assert (stabcat.cli.is_rref, stabcat.symplectic.Rref.add) == before


def test_quiet_factor_scales_by_probe_time():
    quiet = run.PROBE_QUIET_S
    assert run.quiet_factor([quiet, quiet], 0.3) == pytest.approx(1.0)
    assert run.quiet_factor([2 * quiet, 4 * quiet], 0.3) == \
        pytest.approx((0.5 + 0.25) / 2)
    assert run.quiet_factor([], 0.3) == 0.3
    timed = [("distance_s", 2.0, [2 * quiet]), ("distance_s", 1.0, [quiet]),
             ("counting_s", 3.0, [])]
    sums = run.pass_metrics(timed, fallback=0.5)
    assert sums["distance_s"] == pytest.approx(3.0)
    assert sums["distance_quiet_s"] == pytest.approx(2.0)
    assert sums["counting_quiet_s"] == pytest.approx(1.5)
    assert sums["total_s"] == pytest.approx(6.0)
    assert sums["total_quiet_s"] == pytest.approx(3.5)


def test_host_probe_samples_from_the_start_and_stops():
    probe = HostProbe()
    probe.start()
    samples = probe.stop()
    assert len(samples) >= 1 and all(s > 0 for s in samples)
    assert not probe.is_alive()
