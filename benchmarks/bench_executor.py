"""Executor engine throughput: legacy per-trial vs vectorized batched.

Tracks the batched-engine speedup in the perf trajectory. The batched
engine must stay >= 10x faster than ``engine="trial"`` at 4096 trials
on BV4 (the headline acceptance bar for the vectorized engine).
"""

import statistics
import time

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.programs import build_benchmark, expected_output
from repro.simulator import execute

from conftest import SMOKE, pedantic_median, record


@pytest.fixture(scope="module")
def bv4_program(calibration, tables):
    return compile_circuit(build_benchmark("BV4"), calibration,
                           CompilerOptions.r_smt_star(), tables=tables)


@pytest.mark.parametrize("trials", [512, 4096])
@pytest.mark.parametrize("engine", ["trial", "batched"])
def test_execute_bv4(benchmark, bv4_program, calibration, engine, trials):
    result = benchmark.pedantic(
        execute, args=(bv4_program, calibration),
        kwargs={"trials": trials, "seed": 0,
                "expected": expected_output("BV4"), "engine": engine},
        rounds=3, iterations=1, warmup_rounds=1)
    assert sum(result.counts.values()) == trials


def test_batched_speedup_bv4_4096(benchmark, bv4_program, calibration):
    """Median batched speedup over the per-trial engine at 4096 trials."""
    kwargs = {"trials": 4096, "seed": 0,
              "expected": expected_output("BV4")}

    def timed(engine, rounds=3):
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            execute(bv4_program, calibration, engine=engine, **kwargs)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    execute(bv4_program, calibration, engine="batched", **kwargs)  # warm
    legacy = timed("trial")
    batched, batched_median = pedantic_median(
        benchmark, execute, args=(bv4_program, calibration),
        kwargs={**kwargs, "engine": "batched"}, rounds=5)
    speedup = legacy / batched_median
    benchmark.extra_info["speedup"] = speedup
    record(benchmark,
           f"BV4 @4096 trials: trial={legacy * 1e3:.1f} ms  "
           f"batched={batched_median * 1e3:.1f} ms  "
           f"speedup={speedup:.1f}x")
    assert sum(batched.counts.values()) == 4096
    if not SMOKE:
        assert speedup >= 10.0
