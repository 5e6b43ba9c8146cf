"""Greedy noise-aware mapping heuristics (paper §5).

Both heuristics work on the program graph (a node per qubit, an edge per
interacting CNOT pair, weighted by CNOT multiplicity) and on the
most-reliable-path table computed with Dijkstra over the calibration's
CNOT error rates ("Best Path").

* :class:`GreedyVertexMapper` (GreedyV*): qubits in descending degree
  order; seeds go to the best-readout high-degree location, then every
  qubit sharing a CNOT with a placed qubit goes to the free location
  maximizing total path reliability to its placed neighbors.
* :class:`GreedyEdgeMapper` (GreedyE*): edges in descending weight
  order; each program-graph component is seeded on the most reliable
  free hardware edge (CNOT x readout score), then edges with exactly one
  placed endpoint extend the placement greedily.

Program graphs can be disconnected (the HS benchmarks are perfect
matchings), so both heuristics re-seed per component.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.compiler.mapping.base import Mapper, MappingResult
from repro.compiler.options import CompilerOptions
from repro.exceptions import MappingError
from repro.hardware.calibration import Calibration
from repro.hardware.reliability import ReliabilityTables
from repro.ir.circuit import Circuit

_LOG_FLOOR = 1e-12


def _log(x: float) -> float:
    return math.log(max(x, _LOG_FLOOR))


def _program_adjacency(circuit: Circuit) -> Dict[int, Set[int]]:
    """Program-graph adjacency sets."""
    adjacency: Dict[int, Set[int]] = {}
    for (a, b) in circuit.interaction_graph():
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    return adjacency


def _best_path_logrel(tables: ReliabilityTables) -> np.ndarray:
    """``log`` of every best-path reliability, ``[candidate, placed]``."""
    rel = np.maximum(tables.best_path_table().reliability, _LOG_FLOOR)
    return np.array(list(map(math.log, rel.ravel().tolist()))).reshape(
        rel.shape)


def _best_attach(logrel: np.ndarray, calibration: Calibration,
                 used: Set[int], placed_neighbors: List[int]) -> int:
    """The free location maximizing ``(attach score, readout
    reliability, -h)``.

    A candidate's attach score is its sum of best-path log reliabilities
    to the already-placed neighbors, accumulated neighbor by neighbor
    from 0.0 (the order Python's ``sum`` adds in), for all free
    candidates at once.
    """
    taken = np.zeros(len(logrel), dtype=bool)
    taken[list(used)] = True
    free = np.flatnonzero(~taken)
    if not len(free):
        raise MappingError("machine exhausted during placement")
    score = np.zeros(len(free))
    for h in placed_neighbors:
        score = score + logrel[free, h]
    ties = free[score == score.max()].tolist()
    return max(ties, key=lambda h: (calibration.readout_reliability(h), -h))


def _fill_isolated(circuit: Circuit, calibration: Calibration,
                   placement: Dict[int, int], used: Set[int]) -> None:
    """Give CNOT-free qubits the most reliable remaining readouts."""
    free = sorted((h for h in calibration.topology.iter_qubits()
                   if h not in used),
                  key=lambda h: (-calibration.readout_reliability(h), h))
    rest = [q for q in range(circuit.n_qubits) if q not in placement]
    for q, h in zip(rest, free):
        placement[q] = h
        used.add(h)
    if len(placement) < circuit.n_qubits:
        raise MappingError("machine too small for program")


class GreedyVertexMapper(Mapper):
    """GreedyV*: greatest-vertex-degree-first placement."""

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions.greedy_v()

    def run(self, circuit: Circuit, calibration: Calibration,
            tables: ReliabilityTables) -> MappingResult:
        self.check_fits(circuit, calibration)
        start = time.perf_counter()
        topology = calibration.topology
        degrees = circuit.qubit_degrees()
        adjacency = _program_adjacency(circuit)
        interacting = sorted(adjacency, key=lambda q: (-degrees[q], q))
        logrel: Optional[np.ndarray] = None  # built on the first attach
        placement: Dict[int, int] = {}
        used: Set[int] = set()
        # Unplaced qubits adjacent to a placed one, maintained
        # incrementally as qubits are placed (the frontier never needs
        # an O(V^2) rescan per step).
        frontier: Set[int] = set()

        while len(placement) < len(interacting):
            if frontier:
                # Highest-degree frontier qubit next (ties: program order).
                q = min(frontier, key=lambda q: (-degrees[q], q))
                placed_neighbors = [placement[p] for p in adjacency[q]
                                    if p in placement]
                if logrel is None:
                    logrel = _best_path_logrel(tables)
                choice = _best_attach(logrel, calibration, used,
                                      placed_neighbors)
            else:
                # New component: seed its heaviest qubit on the best
                # readout among the highest-degree free locations.
                q = next(p for p in interacting if p not in placement)
                free = [h for h in topology.iter_qubits() if h not in used]
                max_deg = max(sum(nb not in used
                                  for nb in topology.neighbors(h))
                              for h in free)
                pool = [h for h in free
                        if sum(nb not in used
                               for nb in topology.neighbors(h)) == max_deg]
                choice = max(pool, key=lambda h: (
                    calibration.readout_reliability(h), -h))
            placement[q] = choice
            used.add(choice)
            frontier.discard(q)
            frontier.update(nb for nb in adjacency[q]
                            if nb not in placement)

        _fill_isolated(circuit, calibration, placement, used)
        result = MappingResult(placement=placement, optimal=False,
                               solve_time=time.perf_counter() - start)
        result.validate(circuit, calibration)
        return result


class GreedyEdgeMapper(Mapper):
    """GreedyE*: greatest-weighted-edge-first placement."""

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions.greedy_e()

    def run(self, circuit: Circuit, calibration: Calibration,
            tables: ReliabilityTables) -> MappingResult:
        self.check_fits(circuit, calibration)
        start = time.perf_counter()
        topology = calibration.topology
        weights = circuit.interaction_graph()
        edges = sorted(weights, key=lambda e: (-weights[e], e))
        adjacency = _program_adjacency(circuit)
        logrel: Optional[np.ndarray] = None  # built on the first attach
        placement: Dict[int, int] = {}
        used: Set[int] = set()

        pending = list(edges)
        while pending:
            # Prefer the heaviest edge with exactly one placed endpoint.
            chosen = None
            for e in pending:
                placed = (e[0] in placement) + (e[1] in placement)
                if placed == 1:
                    chosen = e
                    break
            if chosen is None:
                # All pending edges have 0 or 2 placed endpoints; drop the
                # satisfied ones, then seed a fresh component.
                pending = [e for e in pending
                           if e[0] not in placement or e[1] not in placement]
                if not pending:
                    break
                chosen = pending[0]
                self._seed_edge(chosen, placement, used, calibration)
                pending.remove(chosen)
                continue
            qa, qb = chosen
            unmapped = qb if qa in placement else qa
            placed_neighbors = [placement[p] for p in adjacency[unmapped]
                                if p in placement]
            if logrel is None:
                logrel = _best_path_logrel(tables)
            choice = _best_attach(logrel, calibration, used,
                                  placed_neighbors)
            placement[unmapped] = choice
            used.add(choice)
            pending.remove(chosen)

        _fill_isolated(circuit, calibration, placement, used)
        result = MappingResult(placement=placement, optimal=False,
                               solve_time=time.perf_counter() - start)
        result.validate(circuit, calibration)
        return result

    @staticmethod
    def _seed_edge(edge: Tuple[int, int], placement: Dict[int, int],
                   used: Set[int], calibration: Calibration) -> None:
        """Place both endpoints of *edge* on the best free hardware edge.

        Score: CNOT reliability of the hardware edge times both endpoint
        readout reliabilities (the paper's "maximum CNOT and readout
        reliability" seeding), plus the best free *adjacent* edge from
        each endpoint — the expansion potential that keeps seeds off
        dead-end corners when the component has more qubits to attach.
        """
        topo = calibration.topology
        candidates = [(a, b) for a, b in topo.edges()
                      if a not in used and b not in used]
        if not candidates:
            raise MappingError("no free hardware edge left for seeding")

        def expansion(h: int, other: int) -> float:
            options = [calibration.cnot_reliability(h, nb)
                       for nb in topo.neighbors(h)
                       if nb not in used and nb != other]
            return _log(max(options)) if options else _log(_LOG_FLOOR)

        def score(hw_edge: Tuple[int, int]) -> float:
            a, b = hw_edge
            return (_log(calibration.cnot_reliability(a, b))
                    + _log(calibration.readout_reliability(a))
                    + _log(calibration.readout_reliability(b))
                    + 0.5 * (expansion(a, b) + expansion(b, a)))

        ha, hb = max(candidates, key=score)
        qa, qb = edge
        # Orient the better-readout end toward the more-measured qubit.
        if calibration.readout_reliability(hb) > \
                calibration.readout_reliability(ha):
            ha, hb = hb, ha
        placement[qa], placement[qb] = ha, hb
        used.update((ha, hb))
