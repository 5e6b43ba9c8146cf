"""Sweep-runtime throughput: the parallel cached path vs serial recompiles.

The acceptance bar for the sweep runtime: a combined fig5+fig6 scenario
grid (benchmark x variant x calibration-day, several executor seeds per
configuration — the repo's standard error-bar sweep) must run >= 2x
faster through ``run_sweep(..., workers=4)`` than through the pre-sweep
serial path that recompiles and re-lowers every cell, and the parallel
results must be bit-identical to both the serial sweep and the
uncached baseline.

The win is by construction: the grid has ``len(SEEDS)`` cells per
distinct configuration, so the compile and trace caches cut the
compile/lower work to ``1/len(SEEDS)``, and compile-key-aware
scheduling keeps that true at any worker count (workers add scale-out
on multi-core hosts on top).
"""

import time

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import CalibrationGenerator, ibmq16_topology
from repro.programs import get_benchmark
from repro.runtime import CompileCache, SweepCell, run_sweep
from repro.simulator import execute

from conftest import SMOKE, pedantic_median, record

#: Executor seeds per configuration (the error-bar replication that
#: makes cross-cell caching pay). Smoke mode shrinks the grid to an
#: import-and-run check (perf bars skipped).
SEEDS = (7, 8) if SMOKE else (7, 8, 9, 10)
TRIALS = 64 if SMOKE else 256

FIG5_BENCHMARKS = ("BV4", "HS4") if SMOKE \
    else ("BV4", "HS4", "HS6", "Toffoli", "Peres", "QFT")
FIG6_BENCHMARKS = ("BV4",) if SMOKE else ("BV4", "HS6", "Toffoli")
FIG6_DAYS = 2 if SMOKE else 3


def combined_grid():
    """fig5 (day 0, three variants) + fig6 (three days, two variants)."""
    generator = CalibrationGenerator(ibmq16_topology(), seed=2019)
    calibrations = [generator.snapshot(day) for day in range(FIG6_DAYS)]
    specs = {name: get_benchmark(name)
             for name in set(FIG5_BENCHMARKS) | set(FIG6_BENCHMARKS)}
    circuits = {name: spec.build() for name, spec in specs.items()}

    cells = []
    fig5_variants = [CompilerOptions.qiskit(),
                     CompilerOptions.t_smt_star(routing="1bp"),
                     CompilerOptions.r_smt_star(omega=0.5)]
    for name in FIG5_BENCHMARKS:
        for options in fig5_variants:
            for seed in SEEDS:
                cells.append(SweepCell(
                    circuit=circuits[name], calibration=calibrations[0],
                    options=options, expected=specs[name].expected_output,
                    trials=TRIALS, seed=seed,
                    key=("fig5", name, options.variant, seed)))
    fig6_variants = [CompilerOptions.t_smt_star(routing="1bp"),
                     CompilerOptions.r_smt_star(omega=0.5)]
    for day in range(FIG6_DAYS):
        for name in FIG6_BENCHMARKS:
            for options in fig6_variants:
                for seed in SEEDS:
                    cells.append(SweepCell(
                        circuit=circuits[name],
                        calibration=calibrations[day], options=options,
                        expected=specs[name].expected_output,
                        trials=TRIALS, seed=seed + day,
                        key=("fig6", name, options.variant, day, seed)))
    return cells


def run_serial_uncached(cells):
    """The pre-sweep harness loop: recompile + re-lower every cell.

    Reliability tables are still shared per calibration (the old
    harnesses did that too), so the comparison isolates exactly what
    the sweep runtime adds: compile/trace caching and the pool.
    """
    tables = CompileCache()  # reused purely as the per-calibration
    counts = []              # tables memo the old loops kept by hand
    for cell in cells:
        compiled = compile_circuit(cell.circuit, cell.calibration,
                                   cell.options,
                                   tables=tables.tables_for(cell.calibration))
        result = execute(compiled, cell.calibration, trials=cell.trials,
                         seed=cell.seed, expected=cell.expected)
        counts.append(result.counts)
    return counts


def test_sweep_speedup_and_identity(benchmark):
    """>= 2x vs the serial uncached path; bit-identical at any width."""
    cells = combined_grid()
    distinct = len({c.compile_key() for c in cells})

    start = time.perf_counter()
    baseline_counts = run_serial_uncached(cells)
    baseline_seconds = time.perf_counter() - start

    parallel, sweep_seconds = pedantic_median(
        benchmark, run_sweep, args=(cells,), kwargs={"workers": 4},
        rounds=3, warmup_rounds=1)
    serial_sweep = run_sweep(cells, workers=0)

    # Bit-identity: uncached baseline == serial sweep == parallel sweep.
    for cell, base, ser, par in zip(cells, baseline_counts,
                                    serial_sweep, parallel):
        assert base == ser.execution.counts, cell.key
        assert base == par.execution.counts, cell.key

    # Cache behavior is grid-determined: one miss per distinct
    # configuration, a hit for every replicated cell, identical at
    # every worker count.
    for sweep in (serial_sweep, parallel):
        assert sweep.compile_stats.misses == distinct
        assert sweep.compile_stats.hits == len(cells) - distinct
        assert sweep.trace_stats.hits == len(cells) - distinct
    hit_rate = parallel.compile_stats.hit_rate
    if not SMOKE:
        assert hit_rate >= 0.6

    speedup = baseline_seconds / sweep_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["compile_hit_rate"] = hit_rate
    record(benchmark,
           f"fig5+fig6 grid: {len(cells)} cells ({distinct} distinct "
           f"configs), serial uncached={baseline_seconds:.2f}s  "
           f"sweep(workers=4)={sweep_seconds:.2f}s  "
           f"speedup={speedup:.1f}x  compile hit rate={hit_rate:.0%}")
    if not SMOKE:
        assert speedup >= 2.0


def test_sweep_scales_with_replication(benchmark):
    """Marginal cost of extra seeds is sampling-only (cache amortized)."""
    base_cells = combined_grid()
    # Keep exactly one seed per distinct configuration.
    seen, one_seed = set(), []
    for cell in base_cells:
        config = cell.compile_key()
        if config not in seen:
            seen.add(config)
            one_seed.append(cell)

    start = time.perf_counter()
    run_sweep(one_seed)
    single = time.perf_counter() - start

    full, replicated = pedantic_median(benchmark, run_sweep,
                                       args=(base_cells,), rounds=3,
                                       warmup_rounds=1)
    ratio = replicated / single
    benchmark.extra_info["replication_cost_ratio"] = ratio
    record(benchmark,
           f"1 seed/config: {single:.2f}s; {len(SEEDS)} seeds/config: "
           f"{replicated:.2f}s ({ratio:.2f}x for {len(SEEDS)}x the cells)")
    assert len(full) == len(base_cells)
    if not SMOKE:
        # Tripling the cells must cost far less than tripling the work.
        assert ratio < 2.0
