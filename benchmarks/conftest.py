"""Shared fixtures for the figure-regeneration benchmark suite.

Each ``bench_*`` module regenerates one table or figure of the paper,
asserts its qualitative shape, and records the rendered rows/series in
``benchmark.extra_info["result"]`` (also echoed to stdout with ``-s``).
"""

import os
import statistics
import time

import pytest

from repro.hardware import ReliabilityTables, default_ibmq16_calibration

#: CI smoke mode (REPRO_BENCH_SMOKE=1): benches shrink their grids and
#: skip the perf-bar assertions, keeping only shape/identity checks —
#: enough to catch import rot and contract drift without perf variance.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Trials per execution in the bench suite. Smaller than the paper's
#: 8192 hardware shots but enough to resolve the multi-x effects.
BENCH_TRIALS = 128 if SMOKE else 512


@pytest.fixture(scope="session")
def calibration():
    """The repo-wide default synthetic IBMQ16 snapshot."""
    return default_ibmq16_calibration()


@pytest.fixture(scope="session")
def tables(calibration):
    return ReliabilityTables(calibration)


def record(benchmark, result_text: str) -> None:
    """Attach a rendered figure/table to the benchmark record."""
    benchmark.extra_info["result"] = result_text
    print("\n" + result_text)


def measure(benchmark, fn, *args, **kwargs):
    """Run a micro-benchmark subject, honoring smoke mode.

    In smoke mode one measured round suffices (CI only checks the
    subject still runs and its assertions hold); otherwise defer to
    pytest-benchmark's own calibration for stable statistics.
    """
    if SMOKE:
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)
    return benchmark(fn, *args, **kwargs)


def pedantic_median(benchmark, fn, args=(), kwargs=None, rounds=1,
                    warmup_rounds=0):
    """Run *fn* through ``benchmark.pedantic``; return (result, median s).

    Each call is timed with ``time.perf_counter`` here rather than read
    back from ``benchmark.stats``, which is ``None`` under
    ``--benchmark-disable`` (pytest-benchmark then calls the subject
    exactly once, and that one call is the median).
    """
    samples = []

    def timed(*call_args, **call_kwargs):
        start = time.perf_counter()
        result = fn(*call_args, **call_kwargs)
        samples.append(time.perf_counter() - start)
        return result

    result = benchmark.pedantic(timed, args=args, kwargs=kwargs or {},
                                rounds=rounds, iterations=1,
                                warmup_rounds=warmup_rounds)
    return result, statistics.median(samples[-rounds:])
