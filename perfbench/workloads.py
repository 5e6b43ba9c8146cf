"""The four workloads: seeded inputs, measured loops, quality, checks.

Every workload follows one shape:

* ``prepare(seed)`` builds every input from the seed (set-up, untimed
  by the measured loop);
* ``run(seconds, min_passes, max_passes)`` repeats whole *passes* over
  the inputs until ``seconds`` have elapsed and at least
  ``min_passes`` are done, and returns a :class:`Measured`;
* ``timing(measured, timer)`` gives the timed end-to-end metrics,
  rescaled to the reference machine by the run's speed gauge
  (:mod:`gauge`), and the same metrics unscaled. ``cells_per_s``
  covers the whole loop. The latency percentiles cover the cells of
  passes ``cold_passes`` to ``min_passes - 1``, a population that does
  not change with the number of passes a run fits in: the first pass
  of ``sample`` and ``served`` starts with cold caches, and its share
  of a run would move their 90th percentile;
* ``quality(measured)`` gives the exact end-to-end metrics, which are
  a pure function of the seed;
* ``signatures(pass)`` lists what each cell of a pass produced, for the
  repeat gate;
* ``check(measured)`` runs the output checks (:mod:`checks`).

The program receives only the generated inputs, through its public
entry points: ``compile_circuit``, ``run_sweep``,
``run_mitigation_study`` and a ``repro serve`` process.
"""

from __future__ import annotations

import json
import math
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from checks import (
    cell_signature,
    check_optimal,
    check_repeat,
    lowered,
    program_checks,
)
from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import ReproError, ServiceError
from repro.experiments.fig_mitigation import run_mitigation_study
from repro.hardware import (
    CalibrationGenerator,
    default_ibmq16_calibration,
    square_topology,
)
from repro.programs import BENCHMARK_ORDER, all_benchmarks, random_circuit
from repro.runtime import CompileCache, SweepCell, TraceCache, run_sweep
from repro.service import ServiceClient
from spans import CellTimer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seed of the paper's Fig.-11 harness. The random programs of
#: ``compile`` are the harness's own instances on its own calibrations:
#: another instance can push a ladder point over the solver's time cap
#: (a capped point measures the machine, not the program), and would
#: move the latency percentiles between seeds by more than the
#: benchmark's bounds. The seed of ``compile`` orders its jobs instead.
FIG11_SEED = 2019

#: Table-2 compiles: every variant of Table 1, on IBMQ16 day 0.
TABLE2_VARIANTS = (
    ("qiskit", CompilerOptions.qiskit()),
    ("t-smt", CompilerOptions.t_smt()),
    ("t-smt*(rr)", CompilerOptions.t_smt_star(routing="rr")),
    ("t-smt*(1bp)", CompilerOptions.t_smt_star(routing="1bp")),
    ("r-smt*", CompilerOptions.r_smt_star()),
    ("greedyv*", CompilerOptions.greedy_v()),
    ("greedye*", CompilerOptions.greedy_e()),
)
#: The uncapped fig11 points: (variant label, qubits, gates).
LADDER = (
    ("r-smt*", 4, 128), ("r-smt*", 8, 128), ("r-smt*", 8, 256),
    ("r-smt*", 8, 512), ("t-smt*(1bp)", 4, 128), ("t-smt*(1bp)", 8, 128),
)
GREEDY_QUBITS = (8, 32, 128)
GREEDY_GATES = (128, 512, 2048)

#: The fig5 configurations: Qiskit, T-SMT*(1bp), R-SMT*(omega=0.5).
FIG5_VARIANTS = (
    ("qiskit", CompilerOptions.qiskit()),
    ("t-smt*(1bp)", CompilerOptions.t_smt_star(routing="1bp")),
    ("r-smt*", CompilerOptions.r_smt_star(omega=0.5)),
)

#: Passes of ``sample`` and ``served`` whose results feed the quality
#: metrics; every run makes at least this many. ``served`` runs a
#: quarter of the trials per cell, so it pools twice the passes.
SAMPLE_QUALITY_PASSES = 4
SERVED_QUALITY_PASSES = 8
#: Closed-loop clients of ``served``, one thread and one connection
#: each.
SERVED_CLIENTS = 2


def fig11_circuit(n_qubits: int, n_gates: int):
    """The Fig.-11 harness's random program for one grid point."""
    return random_circuit(n_qubits, n_gates,
                          seed=FIG11_SEED + n_qubits * 10000 + n_gates)


def pass_seed(seed: int, index: int) -> int:
    """The executor seed of pass *index* of a run at *seed*."""
    return seed * 1000 + index


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timed_metrics(busy_s: float, cells: int,
                  latencies: Sequence[float]) -> Dict[str, float]:
    """``cells_per_s`` of *cells* done in *busy_s* seconds, and the
    median and 90th percentile of *latencies* (seconds) in ms."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {"cells_per_s": cells / busy_s, "cell_p50_ms": deciles[4] * 1e3,
            "cell_p90_ms": deciles[8] * 1e3}


@dataclass
class Measured:
    """What one measured loop produced.

    Attributes:
        passes: Outputs of the first passes (as many as the workload's
            ``keep``), in pass order; later passes keep only their
            signatures, so memory does not grow with the pass count.
        signatures: :func:`checks.cell_signature`-style outputs of every
            pass, in pass order.
        wall: Seconds the loop took.
        latencies: Seconds per cell, in completion order (``compile``
            and ``served``; the sweep workloads take theirs from the
            caller's :class:`spans.CellTimer`).
        scaled: ``latencies`` rescaled by the speed gauge, one by one
            (``compile``).
        sent: ``time.perf_counter()`` when each cell of ``latencies``
            was sent (``served``).
        pass_of: The pass of each cell of ``latencies`` (``served``).
        started: ``time.perf_counter()`` when the loop started.
        attempted: Cells attempted.
        failed: Cells failed, shed or errored.
        extra: Workload-specific facts (server health, memory).
    """

    passes: List[list]
    signatures: List[list]
    wall: float
    latencies: List[float]
    attempted: int
    failed: int
    extra: Dict[str, float] = field(default_factory=dict)
    scaled: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    pass_of: List[int] = field(default_factory=list)
    started: float = 0.0


def timed_passes(run_pass: Callable[[int], list], seconds: float,
                 min_passes: int, max_passes: int, keep: int,
                 signatures: Callable[[list], list]
                 ) -> Tuple[List[list], List[list], float]:
    """Whole passes until *seconds* are up and *min_passes* are done.

    Returns the outputs of the first *keep* passes, the signatures of
    every pass (taken after the clock stops) and the elapsed seconds.
    """
    start = time.perf_counter()
    outputs: List[list] = []
    while len(outputs) < max_passes and (
            len(outputs) < min_passes
            or time.perf_counter() - start < seconds):
        outputs.append(run_pass(len(outputs)))
        if len(outputs) > keep:
            outputs[-1] = signatures(outputs[-1])
    wall = time.perf_counter() - start
    sigs = [signatures(o) for o in outputs[:keep]] + outputs[keep:]
    return outputs[:keep], sigs, wall


def failures(measured: Measured) -> List[str]:
    """One error per failed sweep cell of any pass."""
    return [f"pass {index}: cell {sig[0]} failed ({sig[2]})"
            for index, sigs in enumerate(measured.signatures)
            for sig in sigs if sig[1] == "failed"]


def repeats(signatures: List[list], what: str) -> List[str]:
    """Every pass reproduced pass 0 — for workloads whose passes repeat
    the same inputs."""
    errors: List[str] = []
    for index, sigs in enumerate(signatures[1:], start=1):
        errors += check_repeat(signatures[0], sigs,
                               f"{what} pass {index} vs pass 0")
    return errors


# ---------------------------------------------------------------- compile


@dataclass(frozen=True)
class CompileJob:
    kind: str            # "table2", "ladder" or "greedy"
    label: str
    circuit: object
    calibration: object
    options: CompilerOptions
    expected: Optional[str] = None


class CompileWorkload:
    """Direct ``compile_circuit`` calls; no cache and no simulator."""

    name = "compile"
    gauge = None
    min_passes = 2
    max_passes = 40
    trace_passes = 1
    keep = 1

    def prepare(self, seed: int) -> None:
        ibmq16 = default_ibmq16_calibration()
        grids = {n: CalibrationGenerator(square_topology(max(n, 4)),
                                         seed=FIG11_SEED).snapshot(0)
                 for n in sorted({q for _, q, _ in LADDER}
                                 | set(GREEDY_QUBITS))}
        options = dict(TABLE2_VARIANTS)
        jobs = [CompileJob("table2", f"{name}/{label}", circuit, ibmq16,
                           opts, expected)
                for name, circuit, expected in all_benchmarks()
                for label, opts in TABLE2_VARIANTS]
        for label, n_qubits, n_gates in LADDER:
            jobs.append(CompileJob("ladder",
                                   f"{label}@{n_qubits}x{n_gates}",
                                   fig11_circuit(n_qubits, n_gates),
                                   grids[n_qubits], options[label]))
        for n_qubits in GREEDY_QUBITS:
            for n_gates in GREEDY_GATES:
                for label in ("greedyv*", "greedye*"):
                    jobs.append(CompileJob(
                        "greedy", f"{label}@{n_qubits}x{n_gates}",
                        fig11_circuit(n_qubits, n_gates),
                        grids[n_qubits], options[label]))
        random.Random(seed).shuffle(jobs)
        self.jobs = jobs

    def run(self, seconds: float, min_passes: int,
            max_passes: int) -> Measured:
        latencies: List[float] = []
        scaled: List[float] = []
        failed = 0

        def one_pass(_index: int) -> list:
            nonlocal failed
            programs = []
            for job in self.jobs:
                mark = self.gauge.mark() if self.gauge is not None else 0
                start = time.perf_counter()
                try:
                    program = compile_circuit(job.circuit, job.calibration,
                                              job.options)
                except ReproError:
                    program = None
                    failed += 1
                elapsed = time.perf_counter() - start
                if self.gauge is not None:
                    elapsed, rescaled = self.gauge.rescale(elapsed, mark)
                    scaled.append(rescaled)
                latencies.append(elapsed)
                programs.append(program)
            return programs

        passes, sigs, wall = timed_passes(one_pass, seconds, min_passes,
                                          max_passes, self.keep,
                                          self.signatures)
        return Measured(passes, sigs, wall, latencies,
                        attempted=len(self.jobs) * len(sigs),
                        failed=failed, scaled=scaled)

    def timing(self, measured: Measured, timer: CellTimer
               ) -> Tuple[Dict[str, float], Dict[str, float], int]:
        """A job's latency is its median over the passes."""
        width = len(self.jobs)
        first = width * self.min_passes

        def metrics(seconds: List[float]) -> Dict[str, float]:
            return timed_metrics(sum(seconds), len(seconds), [
                statistics.median(seconds[j:first:width])
                for j in range(width)])

        return metrics(measured.scaled), metrics(measured.latencies), width

    def signatures(self, programs: list) -> List[Tuple]:
        return [(job.label, None) if program is None else
                (job.label, program.fingerprint(), program.mapping.nodes,
                 repr(program.estimated_success))
                for job, program in zip(self.jobs, programs)]

    def quality(self, measured: Measured) -> Dict[str, float]:
        programs = measured.passes[0]
        table2 = {(job.circuit.name, job.options.variant): program
                  for job, program in zip(self.jobs, programs)
                  if job.kind == "table2"}
        errors = [abs(program.estimated_success
                      - lowered(program, job.calibration)
                      .ideal_distribution.get(job.expected, 0.0))
                  for job, program in zip(self.jobs, programs)
                  if job.kind == "table2"]
        return {
            "swaps_total": sum(p.swap_count for p in programs),
            "est_reliability_geomean": geomean(
                [p.estimated_success for job, p in zip(self.jobs, programs)
                 if job.options.variant == "r-smt*"]),
            "success_geomean_x": geomean(
                [table2[(name, "r-smt*")].estimated_success
                 / table2[(name, "qiskit")].estimated_success
                 for name in BENCHMARK_ORDER
                 if (name, "r-smt*") in table2
                 and (name, "qiskit") in table2]),
            "mitigated_abs_err": sum(errors) / len(errors),
        }

    def check(self, measured: Measured) -> List[str]:
        errors = [f"{job.label}: compile failed"
                  for job, program in zip(self.jobs, measured.passes[0])
                  if program is None]
        if errors:
            return errors
        errors += repeats(measured.signatures, "compile")
        programs = measured.passes[0]
        errors += check_optimal((job.label, program) for job, program
                                in zip(self.jobs, programs)
                                if job.kind == "ladder")
        errors += program_checks(
            [(job.label, program, job.calibration, job.expected)
             for job, program in zip(self.jobs, programs)
             if job.kind == "table2"])
        return errors


# ------------------------------------------------------- sweep workloads


def fig5_cells(calibration, seed: int, trials: int) -> List[SweepCell]:
    return [SweepCell(circuit=circuit, calibration=calibration,
                      options=options, expected=expected, trials=trials,
                      seed=seed, key=(name, label))
            for name, circuit, expected in all_benchmarks()
            for label, options in FIG5_VARIANTS]


def fig5_quality(passes: List[list]) -> Dict[str, float]:
    """Quality of the kept passes of a fig5-grid workload (``sample``
    and ``served``)."""
    success: Dict[Tuple[str, str], List[float]] = {}
    errors = []
    for results in passes:
        for result in results:
            execution = result.execution
            success.setdefault(result.key, []).append(
                execution.success_rate)
            errors.append(abs(execution.success_rate
                              - execution.ideal_distribution.get(
                                  execution.expected, 0.0)))
    mean = {key: sum(v) / len(v) for key, v in success.items()}
    first = passes[0]
    return {
        "swaps_total": sum(r.compiled.swap_count for r in first),
        "est_reliability_geomean": geomean(
            [r.compiled.estimated_success for r in first
             if r.key[1] == "r-smt*"]),
        "success_geomean_x": geomean(
            [mean[(name, "r-smt*")] / mean[(name, "qiskit")]
             for name in BENCHMARK_ORDER
             if mean.get((name, "qiskit"), 0) > 0
             and (name, "r-smt*") in mean]),
        "mitigated_abs_err": sum(errors) / len(errors),
    }


class SweepWorkload:
    """What the workloads built on sweep cells share."""

    cold_passes = 1

    def signatures(self, results: list) -> List[Tuple]:
        return [cell_signature(result) for result in results]

    def timing(self, measured: Measured, timer: CellTimer
               ) -> Tuple[Dict[str, float], Dict[str, float], int]:
        """From the ``run_cell`` times, each rescaled as it is taken;
        the loop's time outside the cells is rescaled by the run's
        mean slowdown."""
        gauge = timer.gauge
        outside = max(measured.wall - sum(timer.seconds) - gauge.spent_s,
                      0.0)
        cells = len(timer.seconds)
        width = cells // len(measured.signatures)
        low, high = width * self.cold_passes, width * self.min_passes
        scaled = timed_metrics(sum(timer.scaled)
                               + outside / gauge.slowdown(),
                               cells, timer.scaled[low:high])
        raw = timed_metrics(measured.wall - gauge.spent_s, cells,
                            timer.seconds[low:high])
        return scaled, raw, high - low


class SampleWorkload(SweepWorkload):
    """The fig5 grid under successive seeds through ``run_sweep``, with
    shared in-memory caches, serially."""

    name = "sample"
    trials = 1024
    min_passes = SAMPLE_QUALITY_PASSES
    max_passes = 120
    trace_passes = 8
    keep = SAMPLE_QUALITY_PASSES

    def prepare(self, seed: int) -> None:
        self.calibration = default_ibmq16_calibration()
        self.cells = [fig5_cells(self.calibration, pass_seed(seed, k),
                                 self.trials)
                      for k in range(self.max_passes)]

    def run(self, seconds: float, min_passes: int,
            max_passes: int) -> Measured:
        self.compile_cache, self.trace_cache = CompileCache(), TraceCache()
        failed = 0

        def one_pass(index: int) -> list:
            nonlocal failed
            sweep = run_sweep(self.cells[index],
                              compile_cache=self.compile_cache,
                              trace_cache=self.trace_cache)
            failed += len(sweep.failures)
            return sweep.results

        passes, sigs, wall = timed_passes(one_pass, seconds, min_passes,
                                          max_passes, self.keep,
                                          self.signatures)
        return Measured(passes, sigs, wall, [],
                        attempted=sum(len(p) for p in sigs),
                        failed=failed)

    def quality(self, measured: Measured) -> Dict[str, float]:
        return fig5_quality(measured.passes)

    def check(self, measured: Measured) -> List[str]:
        first = measured.passes[0]
        errors = failures(measured)
        if errors:
            return errors
        # Warm caches must serve exactly what the cold pass computed.
        again = run_sweep(self.cells[0], compile_cache=self.compile_cache,
                          trace_cache=self.trace_cache)
        errors += check_repeat(self.signatures(first),
                               self.signatures(again.results),
                               "sample pass 0 re-run on warm caches")
        errors += program_checks(_programs(first, self.calibration))
        return errors


def _programs(results, calibration
              ) -> List[Tuple[str, object, object, str]]:
    """``(label, program, calibration, expected)`` per distinct
    (program, compiler options) among sweep results."""
    out, seen = [], set()
    for result in results:
        key = (result.compiled.logical.name,
               result.compiled.options.fingerprint())
        if key not in seen:
            seen.add(key)
            out.append((repr(result.key), result.compiled, calibration,
                        result.execution.expected))
    return out


class ZneWorkload(SweepWorkload):
    """``run_mitigation_study`` on all twelve programs x {T-SMT*(1bp),
    R-SMT*} x {zne, readout, readout+zne}, under two seeds per pass with
    one fresh ``cache_dir`` per pass: the first seed writes the disk
    tier, the second reads it back. Every pass repeats the same two
    seeds, so every pass must reproduce the first exactly."""

    name = "zne"
    cold_passes = 0  # every pass starts from its own empty cache_dir
    min_passes = 3
    max_passes = 40
    trace_passes = 1
    keep = 1
    trials = 1024

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.benchmarks = BENCHMARK_ORDER

    @property
    def cells_per_study(self) -> int:
        return len(self.benchmarks) * 6

    def prepare(self, seed: int) -> None:
        self.calibration = default_ibmq16_calibration()
        self.seeds = (pass_seed(seed, 0), pass_seed(seed, 1))
        self.runs = 0

    def run(self, seconds: float, min_passes: int,
            max_passes: int) -> Measured:
        failed = 0
        self.runs += 1
        tag = self.runs

        def one_pass(index: int) -> list:
            nonlocal failed
            cache_dir = self.workdir / f"zne-{tag}-{index}"
            results = []
            for seed in self.seeds:
                try:
                    study = run_mitigation_study(
                        benchmarks=self.benchmarks,
                        calibration=self.calibration, trials=self.trials,
                        seed=seed, cache_dir=cache_dir)
                except ReproError:
                    failed += self.cells_per_study
                    continue
                results.extend(study.sweep.results)
            return results

        passes, sigs, wall = timed_passes(one_pass, seconds, min_passes,
                                          max_passes, self.keep,
                                          self.signatures)
        return Measured(passes, sigs, wall, [],
                        attempted=2 * self.cells_per_study * len(sigs),
                        failed=failed)

    def quality(self, measured: Measured) -> Dict[str, float]:
        results = measured.passes[0]
        first = results[:self.cells_per_study]
        raw: Dict[Tuple[str, str], List[float]] = {}
        for result in results:
            name, variant, _strategy = result.key
            raw.setdefault((name, variant), []).append(
                result.mitigation.raw_success)
        mean = {key: sum(v) / len(v) for key, v in raw.items()}
        errors = [abs(r.mitigation.mitigated_success
                      - r.execution.ideal_distribution.get(
                          r.execution.expected, 0.0)) for r in results]
        programs = {(r.key[0], r.key[1]): r.compiled for r in first}
        return {
            "swaps_total": sum(p.swap_count for p in programs.values()),
            "est_reliability_geomean": geomean(
                [p.estimated_success for (n, v), p in programs.items()
                 if v == "r-smt*"]),
            "success_geomean_x": geomean(
                [mean[(name, "r-smt*")] / mean[(name, "t-smt*")]
                 for name in self.benchmarks
                 if mean[(name, "t-smt*")] > 0]),
            "mitigated_abs_err": sum(errors) / len(errors),
        }

    def check(self, measured: Measured) -> List[str]:
        errors = failures(measured)
        if measured.failed or errors:
            return errors or ["a mitigation study failed"]
        errors += repeats(measured.signatures, "zne")
        errors += program_checks(_programs(
            measured.passes[0][:self.cells_per_study], self.calibration))
        return errors


# ----------------------------------------------------------------- served


class ServerProcess:
    """A ``repro serve`` child on an OS-picked loopback port (workers=0,
    default ``ServerConfig``); optionally traced or timing its cells
    with a speed gauge (``serve_proc.py``)."""

    def __init__(self, workdir: Path, trace_out: Optional[Path] = None,
                 gauge_out: Optional[Path] = None,
                 timeout: float = 60.0) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        log_path = workdir / f"serve-{time.monotonic_ns()}.log"
        command = [sys.executable, str(HERE / "serve_proc.py"),
                   "--src", str(SRC)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        if gauge_out is not None:
            command += ["--gauge-out", str(gauge_out)]
        self.gauge_out = gauge_out
        start = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, cwd=str(ROOT), stdout=subprocess.DEVNULL,
                stderr=log)
        try:
            self.host, self.port = self._await_port(log_path, timeout)
            with ServiceClient(self.host, self.port) as client:
                client.health()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - start

    def _await_port(self, log_path: Path, timeout: float
                    ) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on ([0-9.]+):(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(log_path.read_text(encoding="utf-8"))
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}: "
                    f"{log_path.read_text(encoding='utf-8')[-2000:]}")
            time.sleep(0.005)
        raise RuntimeError("repro serve did not announce its port")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully (SIGTERM); kill if the drain overruns."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def peak_rss_mb(pid: object = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class ServedWorkload(SweepWorkload):
    """The ``sample`` cells at 256 trials, submitted to ``repro serve``
    by :data:`SERVED_CLIENTS` closed-loop clients."""

    name = "served"
    trials = 256
    min_passes = SERVED_QUALITY_PASSES
    max_passes = 120
    trace_passes = SERVED_QUALITY_PASSES
    keep = SERVED_QUALITY_PASSES
    join_timeout = 150.0

    def prepare(self, seed: int) -> None:
        self.calibration = default_ibmq16_calibration()
        self.cells = [fig5_cells(self.calibration, pass_seed(seed, k),
                                 self.trials)
                      for k in range(self.max_passes)]
        self.server: Optional[ServerProcess] = None

    def run(self, seconds: float, min_passes: int,
            max_passes: int) -> Measured:
        server = self.server
        width = len(self.cells[0])
        order = [(k, i) for k in range(max_passes) for i in range(width)]
        lock = threading.Lock()
        cursor = 0
        results: Dict[Tuple[int, int], object] = {}
        latencies: List[float] = []
        sent_at: List[float] = []
        pass_of: List[int] = []
        client_stats: List[dict] = []
        crashes: List[BaseException] = []
        failed = 0

        def take() -> Optional[Tuple[int, int]]:
            nonlocal cursor
            with lock:
                if cursor >= len(order) or (
                        cursor >= min_passes * width
                        and time.perf_counter() - start >= seconds):
                    return None
                cursor += 1
                return order[cursor - 1]

        def client_loop(number: int) -> None:
            nonlocal failed
            try:
                with ServiceClient(server.host, server.port,
                                   tenant=f"client-{number}",
                                   deadline=120.0,
                                   jitter_seed=number) as client:
                    while (item := take()) is not None:
                        sent = time.perf_counter()
                        cell = self.cells[item[0]][item[1]]
                        try:
                            result = client.submit(cell)
                        except ServiceError as exc:
                            result = (repr(cell.key), "failed",
                                      type(exc).__name__)
                        elapsed = time.perf_counter() - sent
                        bad = isinstance(result, tuple) or \
                            result.failure is not None
                        if not bad and item[0] >= self.keep:
                            result = cell_signature(result)
                        with lock:
                            latencies.append(elapsed)
                            sent_at.append(sent)
                            pass_of.append(item[0])
                            results[item] = result
                            failed += bad
                    with lock:
                        client_stats.append(dict(client.stats))
            except BaseException as exc:  # re-raised in the main thread
                crashes.append(exc)

        start = time.perf_counter()
        threads = [threading.Thread(target=client_loop, args=(n,),
                                    name=f"perfbench-client-{n}",
                                    daemon=True)
                   for n in range(SERVED_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.join_timeout)
        wall = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a served client did not finish in time")
        if crashes:
            raise crashes[0]
        passes, sigs = [], []
        for k in range(max_passes):
            row = [results.get((k, i)) for i in range(width)]
            if any(r is None for r in row):
                break
            if k < self.keep:
                passes.append(row)
                row = [r if isinstance(r, tuple) else cell_signature(r)
                       for r in row]
            sigs.append(row)
        with ServiceClient(server.host, server.port) as client:
            health = client.health()
        extra = {
            "server_peak_rss_mb": server.peak_rss_mb(),
            "cells_per_batch": (health["served"] / health["batches"]
                                if health["batches"] else 0.0),
            "shed": health["shed"] + sum(s["sheds"] for s in client_stats),
            "retries": sum(s["retries"] for s in client_stats),
        }
        return Measured(passes, sigs, wall, latencies,
                        attempted=len(results), failed=failed, extra=extra,
                        sent=sent_at, pass_of=pass_of, started=start)

    def timing(self, measured: Measured, timer: CellTimer
               ) -> Tuple[Dict[str, float], Dict[str, float], int]:
        """The cells run in the server, which times each batch with its
        own speed gauge (``ServerProcess(gauge_out=...)``). The seconds
        the reference machine would have saved on a batch, its gauge
        runs included, come off every round trip and off the loop, in
        proportion to how much of the batch they overlap."""
        server = json.loads(self.server.gauge_out.read_text(
            encoding="utf-8"))
        saving = [(start, end, end - start - scaled) for (start, end), scaled
                  in zip(server["spans"], server["scaled"])]

        def saved(low: float, high: float) -> float:
            return sum(gain * (min(end, high) - max(start, low))
                       / (end - start)
                       for start, end, gain in saving
                       if start < high and end > low)

        cells = len(measured.latencies)
        population = [
            (sent, seconds) for sent, seconds, k
            in zip(measured.sent, measured.latencies, measured.pass_of)
            if self.cold_passes <= k < self.min_passes]
        scaled = timed_metrics(
            measured.wall - saved(measured.started,
                                  measured.started + measured.wall),
            cells, [seconds - saved(sent, sent + seconds)
                    for sent, seconds in population])
        raw = timed_metrics(measured.wall, cells,
                            [seconds for _sent, seconds in population])
        return scaled, raw, len(population)

    def quality(self, measured: Measured) -> Dict[str, float]:
        return fig5_quality(measured.passes)

    def check(self, measured: Measured) -> List[str]:
        if measured.failed:
            return [f"{measured.failed} served cells failed"]
        first = measured.passes[0]
        local = run_sweep(self.cells[0])
        errors = check_repeat(self.signatures(local.results),
                              self.signatures(first),
                              "served pass 0 vs in-process run_sweep")
        errors += program_checks(_programs(first, self.calibration))
        return errors


def make(name: str, workdir: Path):
    """The workload called *name*."""
    if name == "compile":
        return CompileWorkload()
    if name == "sample":
        return SampleWorkload()
    if name == "zne":
        return ZneWorkload(workdir)
    if name == "served":
        return ServedWorkload()
    raise ValueError(f"unknown workload {name!r}")

