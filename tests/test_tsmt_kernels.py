"""Differential tests for the T-SMT array kernels.

Each kernel is checked against a verbatim copy of the scalar loop it
replaced, kept here as the oracle:

* ``MakespanObjective.bound`` / ``bound_values`` (the batched
  critical-path bound) against per-gate optimistic durations fed to
  ``DependencyDAG.longest_path_length``; the values must be equal, not
  approximately equal, because the search orders and prunes on them;
* the heap-driven list scheduler against the ready-set scan, on gate
  order, start times, makespan and coherence violations.

Circuits are the Fig.-11 random programs with barriers and mid-circuit
measurements spliced in.
"""

import functools
import math
import random
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, schedule_circuit
from repro.compiler.mapping.smt import (
    MakespanObjective,
    _interacting_qubits,
    _var,
)
from repro.compiler.routing.policies import Router
from repro.compiler.scheduling.list_scheduler import (
    ScheduledGate,
    _coherence_violations,
    gate_durations,
    makespan_of,
)
from repro.hardware import (
    CalibrationGenerator,
    ReliabilityTables,
    default_ibmq16_calibration,
    square_topology,
)
from repro.hardware.calibration import READOUT_SLOTS, SINGLE_QUBIT_SLOTS
from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG
from repro.programs import random_circuit

VARIANTS = {
    "qiskit": CompilerOptions.qiskit(),
    "t-smt": CompilerOptions.t_smt(),
    "t-smt*": CompilerOptions.t_smt_star(),
    "r-smt*": CompilerOptions.r_smt_star(),
    "greedyv*": CompilerOptions.greedy_v(),
    "greedye*": CompilerOptions.greedy_e(),
}


@functools.lru_cache(maxsize=None)
def _machine(name: str):
    if name == "ibmq16":
        calibration = default_ibmq16_calibration()
    else:
        calibration = CalibrationGenerator(
            square_topology(int(name)), seed=2019).snapshot(0)
    return calibration, ReliabilityTables(calibration)


def _circuit(n_qubits: int, n_gates: int, seed: int) -> Circuit:
    """A random program with barriers and measurements spliced in."""
    rng = random.Random(seed)
    base = random_circuit(n_qubits, n_gates, seed=seed, measure=False)
    circuit = Circuit(n_qubits, n_qubits, name=base.name)
    for gate in base.gates:
        roll = rng.random()
        if roll < 0.08:
            circuit.barrier(*rng.sample(range(n_qubits),
                                        rng.randint(1, n_qubits)))
        elif roll < 0.14:
            circuit.measure(rng.randrange(n_qubits))
        circuit.append(gate)
    if rng.random() < 0.5:
        circuit.measure_all()
    return circuit


# ---------------------------------------------------------------- oracles


def _optimistic_durations(circuit: Circuit, assignment: Dict[str, int],
                          tables: ReliabilityTables,
                          options: CompilerOptions,
                          min_cnot_slots: float,
                          min_from: Dict[int, float]) -> List[float]:
    """Admissible per-gate durations: the scalar bound's weights."""
    uniform = options.variant == "t-smt"
    weights: List[float] = []
    for gate in circuit.gates:
        if gate.name == "barrier":
            weights.append(0.0)
        elif gate.is_measure:
            weights.append(float(READOUT_SLOTS))
        elif gate.is_two_qubit:
            hc = assignment.get(_var(gate.qubits[0]))
            ht = assignment.get(_var(gate.qubits[1]))
            if hc is None and ht is None:
                weights.append(min_cnot_slots)
            elif hc is None or ht is None or hc == ht:
                placed = ht if hc is None else hc
                weights.append(min_from[placed])
            elif uniform:
                weights.append(tables.uniform_duration(
                    hc, ht, tau_cnot=options.uniform_cnot_slots))
            else:
                weights.append(tables.delta(hc, ht))
        else:
            weights.append(float(SINGLE_QUBIT_SLOTS))
    return weights


def _scalar_bound(circuit, assignment, calibration, tables, options):
    """The scalar critical-path bound of a partial placement."""
    hw = list(calibration.topology.iter_qubits())
    if options.variant == "t-smt":
        min_cnot_slots = options.uniform_cnot_slots
        min_from = {h: options.uniform_cnot_slots for h in hw}
    else:
        min_cnot_slots = min(e.cnot_duration_slots
                             for e in calibration.edges.values())
        min_from = {h: min(tables.delta(h, h2) for h2 in hw if h2 != h)
                    for h in hw}
    weights = _optimistic_durations(circuit, assignment, tables, options,
                                    min_cnot_slots, min_from)
    return -DependencyDAG.from_circuit(circuit).longest_path_length(weights)


def _scan_schedule(circuit, placement, calibration, tables, options):
    """The ready-set scan list scheduler: (gates, makespan, violations)."""
    if options.variant in ("t-smt", "qiskit"):
        prefer = "fixed"
    elif options.variant == "t-smt*":
        prefer = "duration"
    else:
        prefer = "reliability"
    router = Router(tables, options.routing, prefer=prefer)
    uniform = (options.uniform_cnot_slots
               if options.variant == "t-smt" or options.variant == "qiskit"
               else None)
    per_gate = gate_durations(circuit, placement, router, calibration,
                              uniform_cnot_slots=uniform)
    dag = DependencyDAG.from_circuit(circuit)

    n = len(circuit.gates)
    free_at = {h: 0.0 for h in calibration.topology.iter_qubits()}
    finish = [0.0] * n
    unscheduled_preds = [len(p) for p in dag.preds]
    ready = [i for i in range(n) if unscheduled_preds[i] == 0]
    scheduled = []
    while ready:
        def start_of(i):
            release = max((finish[p] for p in dag.preds[i]), default=0.0)
            region = per_gate[i][1]
            resource = max((free_at[h] for h in region), default=0.0)
            return max(release, resource)

        best = min(ready, key=lambda i: (start_of(i), i))
        ready.remove(best)
        duration, region, route = per_gate[best]
        start = start_of(best)
        finish[best] = start + duration
        for h in region:
            free_at[h] = finish[best]
        scheduled.append(ScheduledGate(index=best, start=start,
                                       duration=duration,
                                       hw_qubits=region, route=route))
        for succ in dag.succs[best]:
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] == 0:
                ready.append(succ)
    makespan = max((g.finish for g in scheduled), default=0.0)
    violations = _coherence_violations(
        ((g.index, g.finish, g.hw_qubits) for g in scheduled),
        calibration, options)
    scheduled.sort(key=lambda g: (g.start, g.index))
    return scheduled, makespan, violations


# ------------------------------------------------------------------ bound


class TestBatchedBound:
    @settings(max_examples=60, deadline=None)
    @given(machine=st.sampled_from(["4", "6", "9", "ibmq16"]),
           flavor=st.sampled_from(["t-smt", "t-smt*"]),
           n_qubits=st.integers(2, 6),
           n_gates=st.integers(0, 48),
           seed=st.integers(0, 10 ** 6),
           data=st.data())
    def test_bound_values_equal_scalar_oracle(self, machine, flavor,
                                              n_qubits, n_gates, seed,
                                              data):
        calibration, tables = _machine(machine)
        n_hw = calibration.topology.n_qubits
        n_qubits = min(n_qubits, n_hw)
        circuit = _circuit(n_qubits, n_gates, seed)
        options = VARIANTS[flavor]
        search = _interacting_qubits(circuit)
        objective = MakespanObjective(circuit, calibration, tables,
                                      options, search)
        hw = st.integers(0, n_hw - 1)
        # Random partial placements; values may collide, which the
        # search's probes can do before forward checking rejects them.
        placed = data.draw(st.lists(st.booleans(), min_size=len(search),
                                    max_size=len(search)))
        assignment = {_var(q): data.draw(hw)
                      for q, on in zip(search, placed) if on}
        domains = {_var(q): set(range(n_hw)) for q in search}

        expected = _scalar_bound(circuit, assignment, calibration, tables,
                                 options)
        assert objective.bound(assignment, domains) == expected

        free = [_var(q) for q in search if _var(q) not in assignment]
        if not free:
            return
        var = data.draw(st.sampled_from(free))
        values = data.draw(st.lists(hw, min_size=1, max_size=n_hw))
        before = dict(assignment)
        got = objective.bound_values(assignment, var, values, domains)
        assert assignment == before
        assert got == [_scalar_bound(circuit, {**assignment, var: v},
                                     calibration, tables, options)
                       for v in values]

    @pytest.mark.parametrize("flavor", ["t-smt", "t-smt*"])
    def test_every_probe_of_a_full_domain(self, flavor):
        calibration, tables = _machine("ibmq16")
        circuit = random_circuit(5, 60, seed=7)
        options = VARIANTS[flavor]
        search = _interacting_qubits(circuit)
        objective = MakespanObjective(circuit, calibration, tables,
                                      options, search)
        hw = list(range(calibration.topology.n_qubits))
        domains = {_var(q): set(hw) for q in search}
        assignment: Dict[str, int] = {}
        for depth, q in enumerate(search):
            got = objective.bound_values(assignment, _var(q), hw, domains)
            assert got == [_scalar_bound(circuit, {**assignment, _var(q): v},
                                         calibration, tables, options)
                           for v in hw]
            assignment[_var(q)] = hw[(3 * depth + 1) % len(hw)]

    def test_empty_circuit_bounds_to_zero(self):
        calibration, tables = _machine("4")
        circuit = Circuit(2, 2)
        objective = MakespanObjective(circuit, calibration, tables,
                                      VARIANTS["t-smt*"], [0])
        assert objective.bound({}, {"loc_q0": {0, 1}}) == 0.0
        assert objective.bound_values({}, "loc_q0", [0, 1],
                                      {"loc_q0": {0, 1}}) == [0.0, 0.0]


# -------------------------------------------------------------- scheduler


def _placement(rng: random.Random, n_qubits: int, n_hw: int):
    return dict(zip(range(n_qubits), rng.sample(range(n_hw), n_qubits)))


class TestHeapScheduler:
    @settings(max_examples=40, deadline=None)
    @given(machine=st.sampled_from(["6", "9", "ibmq16"]),
           variant=st.sampled_from(sorted(VARIANTS)),
           routing=st.sampled_from(["1bp", "rr"]),
           n_qubits=st.integers(2, 6),
           n_gates=st.integers(0, 64),
           seed=st.integers(0, 10 ** 6),
           coherence=st.floats(5.0, 400.0))
    def test_schedule_matches_scan_oracle(self, machine, variant, routing,
                                          n_qubits, n_gates, seed,
                                          coherence):
        calibration, tables = _machine(machine)
        n_qubits = min(n_qubits, calibration.topology.n_qubits)
        circuit = _circuit(n_qubits, n_gates, seed)
        placement = _placement(random.Random(seed), n_qubits,
                               calibration.topology.n_qubits)
        options = VARIANTS[variant].with_(routing=routing,
                                          coherence_slots=coherence)

        gates, makespan, violations = _scan_schedule(
            circuit, placement, calibration, tables, options)
        schedule = schedule_circuit(circuit, placement, calibration,
                                    tables, options)
        assert [(g.index, g.start, g.duration, g.hw_qubits)
                for g in schedule.gates] == \
            [(g.index, g.start, g.duration, g.hw_qubits) for g in gates]
        assert [g.route for g in schedule.gates] == [g.route for g in gates]
        assert schedule.makespan == makespan
        assert schedule.coherence_violations == violations

        assert makespan_of(circuit, placement, calibration, tables,
                           options) == makespan
        enforced = makespan_of(circuit, placement, calibration, tables,
                               options.with_(enforce_coherence=True))
        assert enforced == (math.inf if violations else makespan)

    @pytest.mark.parametrize("routing", ["1bp", "rr"])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_fig11_program_matches_scan_oracle(self, variant, routing):
        calibration, tables = _machine("9")
        circuit = random_circuit(8, 128, seed=2019 + 8 * 10000 + 128)
        placement = _placement(random.Random(5), 8, 9)
        options = VARIANTS[variant].with_(routing=routing)
        gates, makespan, violations = _scan_schedule(
            circuit, placement, calibration, tables, options)
        schedule = schedule_circuit(circuit, placement, calibration,
                                    tables, options)
        assert [(g.index, g.start) for g in schedule.gates] == \
            [(g.index, g.start) for g in gates]
        assert schedule.makespan == makespan
        assert schedule.coherence_violations == violations
