"""Self-tests of the benchmark (kept out of the repository's tier-1
suite, which collects ``test_*.py`` files only).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

They make a shrunk run of every workload, check that a tampered count
and a time-capped solver point fail the output checks, that the speed
gauge rescales cell times as documented, and that ``BENCHMARK.json``
names exactly the metrics the code reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gauge  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SHRUNK_PROGRAMS = ("BV4", "HS2", "Toffoli")


def shrink_cells(cells, passes):
    return [[c for c in row if c.key[0] in SHRUNK_PROGRAMS]
            for row in cells[:passes]]


@pytest.fixture()
def compile_workload():
    workload = workloads.CompileWorkload()
    workload.prepare(1)
    keep = {"BV4/qiskit", "BV4/r-smt*", "BV4/t-smt", "HS2/t-smt*(1bp)",
            "Toffoli/greedye*", "r-smt*@4x128", "greedyv*@8x128"}
    workload.jobs = [j for j in workload.jobs if j.label in keep]
    assert len(workload.jobs) == len(keep)
    return workload


def test_compile_shrunk_run_passes_checks(compile_workload):
    measured = compile_workload.run(0.0, 2, 2)
    assert len(measured.signatures) == 2 and measured.failed == 0
    assert compile_workload.check(measured) == []
    quality = compile_workload.quality(measured)
    assert quality["swaps_total"] > 0
    assert 0 < quality["est_reliability_geomean"] <= 1


def test_tampered_compile_output_fails(compile_workload):
    measured = compile_workload.run(0.0, 2, 2)
    later = measured.signatures[1]
    later[0] = later[0][:2] + (later[0][2] + 1,) + later[0][3:]
    assert any("differs" in e for e in compile_workload.check(measured))


def test_compile_timing_is_rescaled_by_the_gauge(compile_workload):
    compile_workload.gauge = gauge.SpeedGauge()
    with compile_workload.gauge.in_cells():
        measured = compile_workload.run(0.0, 2, 2)
    scaled, raw, cells = compile_workload.timing(measured, None)
    assert cells == len(compile_workload.jobs)
    assert len(measured.scaled) == len(measured.latencies) == 2 * cells
    ratio = scaled["cells_per_s"] / raw["cells_per_s"]
    assert ratio == pytest.approx(compile_workload.gauge.slowdown(),
                                  rel=0.5)


def test_gauge_rescales_a_cell_by_the_kernel_around_it(monkeypatch):
    # The kernel runs twice as long as on the reference machine.
    monkeypatch.setattr(gauge, "measure",
                        lambda times: [2 * gauge.NOMINAL_S] * times)
    speed = gauge.SpeedGauge()
    mark = speed.mark()
    speed.sample()  # as the timer signal does inside a cell
    work, scaled = speed.rescale(1.0 + 2 * gauge.NOMINAL_S, mark)
    assert work == pytest.approx(1.0)
    assert scaled == pytest.approx(0.5)
    assert speed.slowdown() == pytest.approx(2.0)
    assert speed.spent_s == pytest.approx(3 * 2 * gauge.NOMINAL_S)


def test_gauge_samples_inside_a_long_cell():
    speed = gauge.SpeedGauge()
    with speed.in_cells():
        mark = speed.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * gauge.SIGNAL_PERIOD_S:
            pass
        seconds = time.perf_counter() - start
        inside = len(speed.samples) - mark
        work, _scaled = speed.rescale(seconds, mark)
    assert inside >= 2
    assert work == pytest.approx(seconds - sum(speed.samples[mark:-1]))


def test_time_capped_solver_point_fails(compile_workload):
    ladder = workloads.CompileWorkload()
    ladder.prepare(1)
    job = next(j for j in ladder.jobs if j.label == "r-smt*@8x512")
    compile_workload.jobs = [replace(
        job, options=job.options.with_(solver_time_limit=0.01))]
    measured = compile_workload.run(0.0, 1, 1)
    errors = compile_workload.check(measured)
    assert any("not optimal" in e for e in errors)


def test_sample_shrunk_run_and_tampered_count(tmp_path):
    workload = workloads.SampleWorkload()
    workload.trials = 128
    workload.prepare(1)
    workload.cells = shrink_cells(workload.cells, 4)
    measured = workload.run(0.0, 4, 4)
    assert measured.attempted == 36 and measured.failed == 0
    assert workload.check(measured) == []
    assert workload.quality(measured)["success_geomean_x"] > 0
    counts = measured.passes[0][0].execution.counts
    outcome = next(iter(counts))
    counts[outcome] += 1
    assert any("differs" in e for e in workload.check(measured))


def test_zne_shrunk_run_repeats(tmp_path):
    workload = workloads.ZneWorkload(tmp_path)
    workload.benchmarks = ("BV4", "HS2")
    workload.trials = 128
    workload.prepare(1)
    measured = workload.run(0.0, 2, 2)
    assert measured.attempted == 2 * 2 * 12 and measured.failed == 0
    assert workload.check(measured) == []
    quality = workload.quality(measured)
    assert 0 <= quality["mitigated_abs_err"] <= 1
    executions = sum(r.mitigation.executions for r in measured.passes[0])
    assert executions > 0


def test_served_shrunk_run_matches_in_process(tmp_path):
    workload = workloads.ServedWorkload()
    workload.trials = 64
    workload.prepare(1)
    workload.cells = shrink_cells(workload.cells, 4)
    workload.server = workloads.ServerProcess(
        tmp_path, gauge_out=tmp_path / "gauge.json")
    try:
        measured = workload.run(0.0, 4, 4)
    finally:
        workload.server.stop()
    assert workload.server.process.returncode == 0
    assert len(measured.signatures) == 4 and measured.failed == 0
    assert len(measured.latencies) == 36
    scaled, raw, cells = workload.timing(measured, None)
    assert cells == 3 * 9  # passes 1-3; pass 0 is the cold one
    assert scaled["cells_per_s"] > 0 and raw["cells_per_s"] > 0
    assert workload.check(measured) == []
    measured.passes[0][0] = measured.passes[0][1]
    assert any("differs" in e for e in workload.check(measured))


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("runtime.outer"):
        with tracer.span("simulator.inner"):
            pass
    outer, inner = tracer.spans
    self_times = tracer.self_times()
    assert self_times["simulator.inner"] == pytest.approx(inner[2] - inner[1])
    assert self_times["runtime.outer"] == pytest.approx(
        (outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert inner[3] == 0 and outer[3] == -1


def test_probes_are_removed():
    from repro.runtime import sweep

    original = sweep.run_cell
    tracer = layers.LayerTracer()
    layers.install(tracer)
    assert sweep.run_cell is not original
    tracer.remove()
    assert sweep.run_cell is original


def test_repeat_and_exact_checks():
    assert checks.check_repeat([("a", 1)], [("a", 1)], "x") == []
    assert checks.check_repeat([("a", 1)], [("a", 2)], "x")
    assert checks.check_exact({"m": 1}, {"m": 1}, "x") == []
    assert checks.check_exact({"m": 1}, {"m": 2}, "x")


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _u, _b in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _u, _b in layers.PER_LAYER]
    for entry, (_name, unit, better) in zip(
            spec["end_to_end"] + spec["per_layer"],
            run.END_TO_END + layers.PER_LAYER):
        assert (entry["unit"], entry["better"]) == (unit, better)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
