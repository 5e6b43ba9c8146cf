"""Scalar routing-cost oracle for :mod:`repro.hardware.reliability`.

Production builds each calibration's routing tables as dense arrays
(prefix products down the Dijkstra tree and along the one-bend
L-paths). This module keeps the entry-at-a-time reference they
replaced: :func:`route_cost` scores one explicit path, and
:func:`best_paths_from` runs the per-source dict Dijkstra and scores
every path it finds with :func:`route_cost`. The differential tests
require the arrays to equal these values exactly.
"""

import heapq
import math
from typing import Dict, List, Tuple

from repro.exceptions import TopologyError
from repro.hardware import Calibration, RoutedCnot, edge_key


def route_cost(calibration: Calibration, path: List[int]) -> RoutedCnot:
    """Evaluate a routed CNOT along *path* (control first, target last).

    The control state is swapped along ``path[0:-1]``; the CNOT executes
    on the final edge; afterwards the state is swapped back.

    Raises:
        TopologyError: If the path is not a chain of coupled qubits.
    """
    if len(path) < 2:
        raise TopologyError("path must contain at least control and target")
    topo = calibration.topology
    for a, b in zip(path, path[1:]):
        if not topo.is_adjacent(a, b):
            raise TopologyError(f"path step {a}->{b} is not a coupling edge")
    swap_rel = 1.0
    swap_dur = 0.0
    for a, b in zip(path[:-2], path[1:-1]):
        swap_rel *= calibration.swap_reliability(a, b)
        swap_dur += calibration.swap_duration(a, b)
    cnot_rel = calibration.cnot_reliability(path[-2], path[-1])
    cnot_dur = calibration.cnot_duration(path[-2], path[-1])
    return RoutedCnot(
        path=tuple(path),
        reliability=swap_rel * cnot_rel,
        round_trip_reliability=swap_rel * swap_rel * cnot_rel,
        duration=2.0 * swap_dur + cnot_dur,
    )


def one_bend(calibration: Calibration, control: int, target: int,
             junction: int) -> RoutedCnot:
    """EC entry: the routed CNOT along the L-path via *junction*."""
    path = calibration.topology.one_bend_path(control, target, junction)
    return route_cost(calibration, path)


def best_paths_from(calibration: Calibration,
                    source: int) -> Dict[int, RoutedCnot]:
    """Max-reliability paths from *source*: Dijkstra over
    ``-log(swap reliability)`` edge weights, each found path then
    scored by :func:`route_cost` (its last hop as a plain CNOT)."""
    topo = calibration.topology
    weights: Dict[Tuple[int, int], float] = {
        edge_key(a, b): -math.log(
            max(calibration.swap_reliability(a, b), 1e-12))
        for a, b in topo.edges()}
    dist = {source: 0.0}
    prev: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v in topo.neighbors(u):
            nd = d + weights[edge_key(u, v)]
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    result: Dict[int, RoutedCnot] = {}
    for target in topo.iter_qubits():
        if target == source:
            continue
        path = [target]
        while path[-1] != source:
            path.append(prev[path[-1]])
        path.reverse()
        result[target] = route_cost(calibration, path)
    return result
