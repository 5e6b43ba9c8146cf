"""Mitigation-runtime cost: trace-level noise scaling vs fold-and-recompile.

The acceptance bar for the ZNE fast path: sweeping noise scales by
rescaling the lowered trace (``ZneStrategy(amplifier="trace")`` through
the sweep runtime) must run >= 5x faster than the naive
fold-and-recompile loop that rebuilds a folded physical program through
a fresh pipeline for every (seed, scale) point — because the trace path
compiles exactly **once** for the whole sweep (asserted on the compile
counters) and amplifies noise with a clipped numpy multiply, while
folding re-pays the SMT mapping and a from-scratch trace lowering of a
3x-longer circuit per scale.

Also pinned here (mirrors tests/test_mitigation.py): scaled-noise cells
show nonzero trace-cache hits — replicated cells reuse each scale's
lowered trace — and ZNE lifts mean success over the raw baseline.
"""

import time

from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import default_ibmq16_calibration
from repro.mitigation import ZneStrategy, folded_pipeline
from repro.programs import get_benchmark
from repro.runtime import SweepCell, run_sweep
from repro.simulator import execute

from conftest import BENCH_TRIALS, SMOKE, pedantic_median, record

#: Executor seeds (error-bar replication, as the harnesses run it).
SEEDS = (7, 8) if SMOKE else (7, 8, 9)

#: The noise-scale schedule under test. Non-integer scales are exact
#: for the trace amplifier and partially folded by the naive loop.
SCALES = (1.0, 2.0, 3.0) if SMOKE else (1.0, 1.5, 2.0, 2.5, 3.0)

#: HS6 has the suite's most expensive SMT mapping (~0.4s) against a
#: ~10ms execution, so the compile-vs-rescale contrast is what this
#: bench actually measures rather than sampling noise.
BENCHMARK = "HS6"


def trace_sweep(circuit, expected, cal, options):
    """The fast path: one compile, rescaled traces, shared caches."""
    strategy = ZneStrategy(scales=SCALES, amplifier="trace")
    cells = [SweepCell(circuit=circuit, calibration=cal, options=options,
                       expected=expected, trials=BENCH_TRIALS, seed=seed,
                       mitigation=strategy, key=(BENCHMARK, seed))
             for seed in SEEDS]
    return run_sweep(cells)


def fold_and_recompile(circuit, expected, cal, options):
    """The naive loop: a fresh folded compilation per (seed, scale)."""
    successes = []
    for seed in SEEDS:
        compiled = compile_circuit(circuit, cal, options)
        baseline = execute(compiled, cal, trials=BENCH_TRIALS, seed=seed,
                           expected=expected)
        points = [(1.0, baseline.success_rate)]
        for scale in SCALES[1:]:
            program = folded_pipeline(options, scale).run(circuit, cal,
                                                          options)
            result = execute(program, cal, trials=BENCH_TRIALS, seed=seed,
                             expected=expected)
            points.append((scale, result.success_rate))
        successes.append(points)
    return successes


def test_trace_scaling_beats_fold_and_recompile(benchmark):
    """>= 5x for the scale sweep; zero recompiles on the trace path."""
    cal = default_ibmq16_calibration()
    spec = get_benchmark(BENCHMARK)
    circuit = spec.build()
    options = CompilerOptions.r_smt_star()

    start = time.perf_counter()
    fold_points = fold_and_recompile(circuit, spec.expected_output, cal,
                                     options)
    fold_seconds = time.perf_counter() - start

    sweep, trace_seconds = pedantic_median(
        benchmark, trace_sweep,
        args=(circuit, spec.expected_output, cal, options),
        rounds=3, warmup_rounds=1)

    # Trace-level scaling avoids recompilation entirely: one compile
    # for the whole (seed x scale) sweep, served from cache thereafter.
    assert sweep.compile_stats.misses == 1
    assert sweep.compile_stats.hits == len(SEEDS) - 1
    # Scaled-noise cells share each scale's lowered trace: the later
    # seeds' scaled executions are all cache hits.
    assert sweep.trace_stats.hits >= (len(SEEDS) - 1) * len(SCALES)

    # ZNE does its job on the trace path (deterministic, seeded).
    mean_raw = sum(r.mitigation.raw_success for r in sweep) / len(sweep)
    mean_mit = sum(r.mitigation.mitigated_success
                   for r in sweep) / len(sweep)
    assert mean_mit > mean_raw
    # And both amplifiers saw a decaying success curve to extrapolate.
    for points in fold_points:
        assert points[0][1] > points[-1][1]

    speedup = fold_seconds / trace_seconds
    benchmark.extra_info["speedup"] = speedup
    record(benchmark,
           f"ZNE scale sweep on {BENCHMARK} ({len(SEEDS)} seeds x "
           f"{len(SCALES)} scales): fold-and-recompile="
           f"{fold_seconds:.2f}s  trace-scaling={trace_seconds:.2f}s  "
           f"speedup={speedup:.1f}x  "
           f"(compiles: {len(SEEDS) * len(SCALES[1:]) + len(SEEDS)} vs "
           f"{sweep.compile_stats.misses})")
    if not SMOKE:
        assert speedup >= 5.0


def test_mitigated_sweep_amortizes_like_plain_cells(benchmark):
    """Marginal cost of mitigation replicas is sampling-only."""
    cal = default_ibmq16_calibration()
    spec = get_benchmark(BENCHMARK)
    circuit = spec.build()
    options = CompilerOptions.r_smt_star()
    strategy = ZneStrategy(scales=SCALES, amplifier="trace")

    def grid(seeds):
        return [SweepCell(circuit=circuit, calibration=cal,
                          options=options, expected=spec.expected_output,
                          trials=BENCH_TRIALS, seed=seed,
                          mitigation=strategy, key=(BENCHMARK, seed))
                for seed in seeds]

    start = time.perf_counter()
    run_sweep(grid(SEEDS[:1]))
    single = time.perf_counter() - start

    sweep, replicated = pedantic_median(benchmark, run_sweep,
                                        args=(grid(SEEDS),), rounds=3,
                                        warmup_rounds=1)
    assert len(sweep) == len(SEEDS)
    ratio = replicated / single
    benchmark.extra_info["replication_cost_ratio"] = ratio
    record(benchmark,
           f"1 mitigated cell: {single * 1000:.0f}ms; {len(SEEDS)} cells: "
           f"{replicated * 1000:.0f}ms ({ratio:.2f}x for {len(SEEDS)}x "
           f"the cells)")
    if not SMOKE:
        # The compile and every scaled lowering amortize across cells.
        assert ratio < len(SEEDS)
