"""List scheduling with spatial reservations.

Implements the paper's "earliest ready gate first" policy (§5, citing
[27]) under the routing policies' resource model: a routed CNOT blocks
its reserved region (the one-bend path, or the whole bounding rectangle
under RR) for its duration; CNOTs that overlap in space may not overlap
in time (Constraints 7-9). Data dependencies give each gate a release
time (Constraint 3); coherence deadlines (Constraints 4/6) are checked
on the result.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.compiler.options import CompilerOptions
from repro.compiler.routing.policies import Route, Router
from repro.exceptions import SchedulingError
from repro.hardware.calibration import (
    READOUT_SLOTS,
    SINGLE_QUBIT_SLOTS,
    Calibration,
)
from repro.hardware.reliability import ReliabilityTables
from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG


@dataclass(frozen=True, slots=True)
class ScheduledGate:
    """One scheduled program gate.

    Attributes:
        index: Gate index in the logical circuit.
        start: Start timeslot.
        duration: Duration in timeslots (includes swap time for CNOTs).
        hw_qubits: Hardware qubits reserved for the gate.
        route: Routing decision for CNOTs (``None`` otherwise).
    """

    index: int
    start: float
    duration: float
    hw_qubits: Tuple[int, ...]
    route: Optional[Route] = None

    @property
    def finish(self) -> float:
        return self.start + self.duration


@dataclass
class Schedule:
    """A complete schedule of the logical circuit on hardware.

    Attributes:
        gates: Scheduled gates in start-time order.
        makespan: Finish time of the last gate.
        coherence_violations: (gate index, hw qubit, finish, deadline)
            tuples where a gate finishes past a qubit's coherence time.
    """

    gates: List[ScheduledGate]
    makespan: float
    coherence_violations: List[Tuple[int, int, float, float]] = field(
        default_factory=list)

    @property
    def coherence_ok(self) -> bool:
        return not self.coherence_violations

    def swap_count(self) -> int:
        """Total one-way SWAPs across all routed CNOTs."""
        return sum(g.route.n_swaps for g in self.gates if g.route is not None)

    def by_index(self) -> Dict[int, ScheduledGate]:
        return {g.index: g for g in self.gates}


def gate_durations(circuit: Circuit, placement: Dict[int, int],
                   router: Router, calibration: Calibration,
                   uniform_cnot_slots: Optional[float] = None
                   ) -> List[Tuple[float, Tuple[int, ...], Optional[Route]]]:
    """Per-gate (duration, reserved hw qubits, route) under *placement*.

    Args:
        uniform_cnot_slots: When given, CNOT durations use the paper's
            noise-unaware formula ``2 (d-1) 3 tau + tau`` with this tau,
            instead of calibrated per-edge times.
    """
    out: List[Tuple[float, Tuple[int, ...], Optional[Route]]] = []
    for gate in circuit.gates:
        if gate.name == "barrier":
            hw = tuple(sorted(placement[q] for q in gate.qubits))
            out.append((0.0, hw, None))
        elif gate.is_measure:
            out.append((float(READOUT_SLOTS),
                        (placement[gate.qubits[0]],), None))
        elif gate.is_two_qubit:
            control, target = (placement[gate.qubits[0]],
                               placement[gate.qubits[1]])
            route = router.route(control, target)
            if uniform_cnot_slots is not None:
                duration = router.tables.uniform_duration(
                    control, target, tau_cnot=uniform_cnot_slots)
                cost = route.cost
                route = Route(cost=type(cost)(
                    path=cost.path, reliability=cost.reliability,
                    round_trip_reliability=cost.round_trip_reliability,
                    duration=duration), reserved=route.reserved)
            out.append((route.duration, route.reserved, route))
        else:
            out.append((float(SINGLE_QUBIT_SLOTS),
                        (placement[gate.qubits[0]],), None))
    return out


def _list_schedule(circuit: Circuit, placement: Dict[int, int],
                   calibration: Calibration, tables: ReliabilityTables,
                   options: CompilerOptions,
                   dag: Optional[DependencyDAG]):
    """Earliest-ready-gate-first list scheduling.

    Gates become ready when all dependencies finish; among ready gates
    the one that can start earliest (given its reserved region) is
    committed first, ties broken by program order.

    Ready gates wait in a heap keyed by ``(start, index)`` with lazily
    refreshed keys. A gate's release time is fixed once it is ready and
    ``free_at`` only grows, so a gate's true start never drops below
    its key. A popped entry whose recomputed start equals its key is
    therefore no later than every other ready gate's true
    ``(start, index)`` — exactly the argmin a scan of the ready set
    would pick; a stale entry goes back with its fresh key.

    Returns:
        ``(order, starts, per_gate)``: gate indices in commit order,
        their start times, and :func:`gate_durations` for every gate.
    """
    if options.variant in ("t-smt", "qiskit"):
        prefer = "fixed"  # noise-blind variants
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
    if dag is None:
        dag = DependencyDAG.from_circuit(circuit)

    n = len(circuit.gates)
    free_at = [0.0] * calibration.topology.n_qubits
    finish = [0.0] * n
    release = [0.0] * n
    unscheduled_preds = [len(p) for p in dag.preds]
    heap = [(0.0, i) for i in range(n) if not unscheduled_preds[i]]
    order: List[int] = []
    starts: List[float] = []

    def start_of(i: int) -> float:
        # Earliest start: after the release and the reserved region.
        start = release[i]
        for h in per_gate[i][1]:
            if free_at[h] > start:
                start = free_at[h]
        return start

    while heap:
        key, best = heapq.heappop(heap)
        start = start_of(best)
        if start != key:
            heapq.heappush(heap, (start, best))
            continue
        finish[best] = start + per_gate[best][0]
        for h in per_gate[best][1]:
            free_at[h] = finish[best]
        order.append(best)
        starts.append(start)
        for succ in dag.succs[best]:
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] == 0:
                release[succ] = max(finish[p] for p in dag.preds[succ])
                heapq.heappush(heap, (start_of(succ), succ))

    if len(order) != n:
        raise SchedulingError("dependency cycle detected")  # pragma: no cover
    return order, starts, per_gate


def schedule_circuit(circuit: Circuit, placement: Dict[int, int],
                     calibration: Calibration, tables: ReliabilityTables,
                     options: CompilerOptions,
                     dag: Optional[DependencyDAG] = None) -> Schedule:
    """Schedule *circuit* under *placement* with the options' policy.

    Earliest-ready-gate-first: gates become ready when all dependencies
    finish; among ready gates the one that can start earliest (given its
    reserved region) is committed first.

    Raises:
        SchedulingError: If ``options.enforce_coherence`` and a gate
            finishes after a participating qubit's coherence deadline.
    """
    order, starts, per_gate = _list_schedule(
        circuit, placement, calibration, tables, options, dag)
    scheduled: List[ScheduledGate] = []
    for i, start in zip(order, starts):
        duration, region, route = per_gate[i]
        scheduled.append(ScheduledGate(index=i, start=start,
                                       duration=duration,
                                       hw_qubits=region, route=route))

    makespan = max((g.finish for g in scheduled), default=0.0)
    violations = _coherence_violations(
        ((g.index, g.finish, g.hw_qubits) for g in scheduled),
        calibration, options)
    if violations and options.enforce_coherence:
        i, h, fin, deadline = violations[0]
        raise SchedulingError(
            f"gate {i} finishes at {fin:.1f} past coherence deadline "
            f"{deadline:.1f} of hardware qubit {h}")
    scheduled.sort(key=lambda g: (g.start, g.index))
    return Schedule(gates=scheduled, makespan=makespan,
                    coherence_violations=violations)


def _coherence_violations(finished: Iterable[Tuple[int, float,
                                                   Tuple[int, ...]]],
                          calibration: Calibration,
                          options: CompilerOptions):
    """Constraint 4 (static bound) or 6 (per-qubit calibrated bound).

    Args:
        finished: ``(gate index, finish time, hw qubits)`` per gate, in
            commit order.
    """
    violations = []
    noise_aware = options.is_noise_aware or options.variant == "t-smt*"
    for index, fin, hw_qubits in finished:
        for h in hw_qubits:
            deadline = (calibration.coherence_slots(h) if noise_aware
                        else options.coherence_slots)
            if fin > deadline + 1e-9:
                violations.append((index, h, fin, deadline))
    return violations


def makespan_of(circuit: Circuit, placement: Dict[int, int],
                calibration: Calibration, tables: ReliabilityTables,
                options: CompilerOptions,
                dag: Optional[DependencyDAG] = None) -> float:
    """Makespan of the list schedule — the T-SMT leaf objective.

    Under ``options.enforce_coherence`` a schedule that misses a
    coherence deadline is infeasible and its makespan is ``inf``;
    otherwise deadlines are not checked at all.
    """
    order, starts, per_gate = _list_schedule(
        circuit, placement, calibration, tables, options, dag)
    finishes = [start + per_gate[i][0] for i, start in zip(order, starts)]
    if options.enforce_coherence and _coherence_violations(
            ((i, fin, per_gate[i][1]) for i, fin in zip(order, finishes)),
            calibration, options):
        return math.inf
    return max(finishes, default=0.0)
