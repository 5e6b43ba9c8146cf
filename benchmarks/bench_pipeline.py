"""Stage-prefix cache throughput: post-mapping sweeps reuse mappings.

The acceptance bar for the pass-manager pipeline's stage cache: a
fig10-style grid that sweeps scheduling/peephole knobs (routing policy
x peephole) over a *fixed* R-SMT* mapping must compile >= 1.5x faster
through the sweep runtime (whose compile cache keeps a stage tier in
its :class:`~repro.runtime.Store`) than through per-cell whole-program
compilation, and the outputs must be bit-identical.

The win is by construction: the SMT mapping dominates compile time
(~90% on these benchmarks) and every option combo shares one mapping
artifact, so the cached path pays the solver once per benchmark instead
of once per cell.
"""

import time

from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import ReliabilityTables
from repro.programs import get_benchmark
from repro.runtime import SweepCell, run_sweep

from conftest import SMOKE, pedantic_median, record

BENCHMARKS = ("BV4",) if SMOKE else ("BV4", "HS6", "Toffoli", "Peres")
ROUTINGS = ("1bp", "rr") if SMOKE else ("1bp", "rr", "best", "shortest")
PEEPHOLE = (False, True)


def knob_grid(calibration):
    """benchmark x routing x peephole, all on the R-SMT*(w=0.5) mapping.

    Compile-only cells: the bench isolates the compile stage the stage
    cache accelerates.
    """
    return [SweepCell(circuit=get_benchmark(name).build(),
                      calibration=calibration,
                      options=CompilerOptions.r_smt_star().with_(
                          routing=routing, peephole=peephole),
                      simulate=False,
                      key=(name, routing, peephole))
            for name in BENCHMARKS
            for routing in ROUTINGS
            for peephole in PEEPHOLE]


def compile_whole_programs(cells, calibration):
    """The pre-pipeline path: one full compilation per distinct cell.

    Reliability tables are shared per snapshot (PR 2 did that too), so
    the comparison isolates exactly what the stage-prefix cache adds.
    """
    tables = ReliabilityTables(calibration)
    return [compile_circuit(cell.circuit, cell.calibration, cell.options,
                            tables=tables)
            for cell in cells]


def test_stage_prefix_cache_speedup(benchmark, calibration):
    """>= 1.5x on the knob grid; outputs bit-identical to full compiles."""
    cells = knob_grid(calibration)
    combos = len(ROUTINGS) * len(PEEPHOLE)

    start = time.perf_counter()
    baseline = compile_whole_programs(cells, calibration)
    baseline_seconds = time.perf_counter() - start

    swept, swept_seconds = pedantic_median(benchmark, run_sweep,
                                           args=(cells,), rounds=3,
                                           warmup_rounds=1)

    # Bit-identity: every cell's compiled artifact matches the
    # whole-program path.
    for cell, ref, result in zip(cells, baseline, swept):
        assert ref.fingerprint() == result.compiled.fingerprint(), cell.key

    # Cache behavior is grid-determined: all compile keys are distinct
    # (no whole-program hits), the mapping is solved once per benchmark,
    # and schedule/swap-insert once per (benchmark, routing).
    assert swept.compile_stats.misses == len(cells)
    assert swept.compile_stats.hits == 0
    per_bench_hits = (combos - 1) + 2 * (combos - len(ROUTINGS))
    assert swept.stage_stats.hits == len(BENCHMARKS) * per_bench_hits

    mapping_cached = sum(
        1 for result in swept
        for timing in result.compiled.pass_timings
        if timing.name.startswith("mapping[") and timing.cached)
    assert mapping_cached == len(BENCHMARKS) * (combos - 1)

    speedup = baseline_seconds / swept_seconds
    benchmark.extra_info["speedup"] = speedup
    record(benchmark,
           f"fig10-style knob grid: {len(cells)} cells "
           f"({len(BENCHMARKS)} mappings x {combos} knob combos), "
           f"whole-program={baseline_seconds:.2f}s  "
           f"stage-cached={swept_seconds:.2f}s  speedup={speedup:.1f}x  "
           f"stage hit rate={swept.stage_stats.hit_rate:.0%}")
    if not SMOKE:
        assert speedup >= 1.5


def test_stage_cache_scales_with_knob_count(benchmark, calibration):
    """Marginal cost of extra knob combos excludes the mapping solve."""
    cells = knob_grid(calibration)
    # One combo per benchmark: the irreducible mapping + one lowering.
    one_combo = [cell for cell in cells
                 if cell.key[1:] == (ROUTINGS[0], False)]

    start = time.perf_counter()
    run_sweep(one_combo)
    single = time.perf_counter() - start

    full, replicated = pedantic_median(benchmark, run_sweep,
                                       args=(cells,), rounds=3,
                                       warmup_rounds=1)
    ratio = replicated / single
    combos = len(ROUTINGS) * len(PEEPHOLE)
    benchmark.extra_info["knob_cost_ratio"] = ratio
    record(benchmark,
           f"1 combo/benchmark: {single:.2f}s; {combos} combos/benchmark: "
           f"{replicated:.2f}s ({ratio:.2f}x for {combos}x the cells)")
    assert len(full) == len(cells)
    if not SMOKE:
        # 8x the cells must cost far less than 8x the work.
        assert ratio < combos / 2
