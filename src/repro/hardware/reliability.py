"""Reliability and duration tables derived from calibration data.

Implements the precomputations of §4.4 and §5 of the paper as dense
arrays over hardware qubits, built once per calibration and only when
a consumer first asks for that kind of table:

* the one-bend table — for every (control, target, junction), the
  reliability, round-trip reliability and duration of the routed CNOT
  along that L-path. Its reliability is the paper's ``EC`` matrix; the
  per-pair minimum duration over the two junctions is ``Delta``
  (Constraint 5);
* the best-path table — most-reliable paths between all pairs via
  Dijkstra with edge weights ``-log(swap reliability)``, the "Best
  Path" policy of the heuristics, with the same three costs and a
  predecessor matrix.

Routing model (paper §2, §4.2): a CNOT between qubits at grid distance d
needs d-1 SWAPs to bring the states adjacent, each SWAP being 3 CNOTs;
the state is swapped back afterwards, so the *duration* counts
``2 (d-1) tau_swap + tau_cnot`` while the paper's *reliability* example
(footnote 3) charges the one-way swaps plus the CNOT. Both conventions
are tabled; the optimizer uses the paper's.

Exactness: a path's costs are prefix products (and sums) from the
control outwards — ``S[v] = S[prev[v]] * swap_rel(prev[v], v)`` down the
Dijkstra tree in settle order, or hop by hop along an L-path — then
``S[p] * cnot_rel(p, t)``, ``S[p] * S[p] * cnot_rel(p, t)`` and
``2.0 * D[p] + cnot_dur(p, t)`` for the last hop ``p -> t``. That is the
operation sequence of scoring each path on its own (the scalar oracle
in the tests), so every entry is bit-identical to it. Elementwise
numpy ``*`` and ``+`` round exactly like Python floats; logs that feed
a score are taken with :func:`math.log`.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import TopologyError
from repro.hardware.calibration import Calibration
from repro.hardware.topology import GridTopology

_LOG_FLOOR = 1e-12


@functools.lru_cache(maxsize=8)
def _one_bend_hops(mx: int, my: int) -> Tuple[np.ndarray, np.ndarray]:
    """The hops of every one-bend path on an ``mx x my`` grid.

    Paths are flattened over ``[control, target, junction]`` and a hop
    ``a -> b`` is the flat index ``a * n + b`` into an ``(n, n)`` array.
    Returns ``(swap_hops, cnot_hops)``: row k of ``swap_hops`` is each
    path's k-th SWAP hop, or the stay-put hop ``a -> a`` once the path
    has made its last SWAP; ``cnot_hops`` is each path's final hop. After
    k hops an L-path has moved ``min(k, lead)`` steps along its first
    leg (x for junction 0, y for junction 1) and the rest along its
    second. Geometry only, so it is cached per grid shape, read-only.
    """
    n = mx * my
    q = np.arange(n)
    x, y = q % mx, q // mx
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    step_x, step_y = np.sign(dx), np.sign(dy) * mx
    lead = np.stack([np.abs(dx), np.abs(dy)], axis=2)
    first_step = np.stack([step_x, step_y], axis=2)
    second_step = np.stack([step_y, step_x], axis=2)
    last_swap = np.maximum(np.abs(dx) + np.abs(dy) - 1, 0)[..., None]
    start = np.broadcast_to(q[:, None, None], lead.shape)
    at = start
    swap_hops = []
    for k in range(1, int(last_swap.max()) + 1):
        hops = np.minimum(k, last_swap)
        first = np.minimum(hops, lead)
        nxt = start + first * first_step + (hops - first) * second_step
        swap_hops.append((at * n + nxt).ravel())
        at = nxt
    cnot_hops = (at * n + q[None, :, None]).ravel()
    swap_hops = np.array(swap_hops, dtype=np.intp).reshape(-1, n * n * 2)
    swap_hops.flags.writeable = cnot_hops.flags.writeable = False
    return swap_hops, cnot_hops


@dataclass(frozen=True)
class RoutedCnot:
    """Cost summary of performing a CNOT along a specific swap path.

    Attributes:
        path: Hardware qubits from control to target, inclusive.
        reliability: One-way-swap reliability times CNOT reliability
            (the paper's objective convention).
        round_trip_reliability: Reliability including the return swaps
            actually executed on hardware.
        duration: ``2 (d-1) tau_swap + tau_cnot`` in timeslots.
    """

    path: Tuple[int, ...]
    reliability: float
    round_trip_reliability: float
    duration: float

    @property
    def n_swaps(self) -> int:
        """One-way SWAP count along the path."""
        return max(0, len(self.path) - 2)


class RouteTable(NamedTuple):
    """Routed-CNOT costs indexed ``[control, target]`` (best paths) or
    ``[control, target, junction]`` (one-bend paths).

    Diagonal (control == target) entries are 0 and mean nothing: a CNOT
    needs two qubits.
    """

    reliability: np.ndarray
    round_trip_reliability: np.ndarray
    duration: np.ndarray


class ReliabilityTables:
    """All-pairs routing tables for one calibration snapshot.

    Each kind of table (one-bend, best-path) is built on first use, so
    a compile pays only for the kinds its variant reads. A
    :class:`RoutedCnot`, with its path, is built only when asked for
    and is memoized per pair.

    Args:
        calibration: The snapshot to precompute from.
    """

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.topology: GridTopology = calibration.topology
        self._coupling: Optional[Tuple[np.ndarray, ...]] = None
        self._one_bend: Optional[RouteTable] = None
        self._best: Optional[RouteTable] = None
        self._best_prev: Optional[np.ndarray] = None
        self._one_bend_routes: Dict[Tuple[int, int, int], RoutedCnot] = {}
        self._best_routes: Dict[Tuple[int, int], RoutedCnot] = {}

    def _coupling_arrays(self) -> Tuple[np.ndarray, ...]:
        """Dense ``[a, b]`` swap reliability, swap duration, CNOT
        reliability and CNOT duration, read once per coupling edge from
        the calibration accessors.

        Off-coupling entries are 0, except that the swap arrays hold
        the neutral 1.0 (reliability) and 0.0 (duration) on the
        diagonal: a path walker that stays put multiplies by 1.0 and
        adds 0.0, which leaves its products exactly unchanged.
        """
        if self._coupling is None:
            cal = self.calibration
            n = self.topology.n_qubits
            edges = list(cal.edges)
            a, b = np.array(edges, dtype=np.intp).reshape(-1, 2).T
            arrays = (np.eye(n), np.zeros((n, n)), np.zeros((n, n)),
                      np.zeros((n, n)))
            for array, read in zip(arrays, (cal.swap_reliability,
                                            cal.swap_duration,
                                            cal.cnot_reliability,
                                            cal.cnot_duration)):
                # A calibration keeps one record per undirected edge.
                array[a, b] = array[b, a] = [read(u, v) for u, v in edges]
            self._coupling = arrays
        return self._coupling

    # ------------------------------------------------------------------
    # One-bend (1BP) tables: the EC and Delta matrices of §4.4
    # ------------------------------------------------------------------
    def one_bend_table(self) -> RouteTable:
        """Costs of every one-bend route, ``[control, target, junction]``.

        Junction 0 travels x first, junction 1 y first (see
        :meth:`GridTopology.one_bend_path`). All L-paths advance one hop
        per step, so each step is one gather and one multiply (or add)
        over every path.
        """
        if self._one_bend is None:
            n = self.topology.n_qubits
            swap_hops, cnot_hops = _one_bend_hops(self.topology.mx,
                                                  self.topology.my)
            swap_rel, swap_dur, cnot_rel, cnot_dur = (
                array.ravel() for array in self._coupling_arrays())
            swaps = np.ones(cnot_hops.shape)
            swap_time = np.zeros(cnot_hops.shape)
            for hop in swap_hops:
                swaps = swaps * swap_rel[hop]
                swap_time = swap_time + swap_dur[hop]
            cnot = cnot_rel[cnot_hops]
            shape = (n, n, 2)
            self._one_bend = RouteTable(
                reliability=(swaps * cnot).reshape(shape),
                round_trip_reliability=(swaps * swaps * cnot).reshape(shape),
                duration=(2.0 * swap_time
                          + cnot_dur[cnot_hops]).reshape(shape))
        return self._one_bend

    def one_bend(self, control: int, target: int,
                 junction: int) -> RoutedCnot:
        """EC entry: routed-CNOT cost via the given junction (0 or 1)."""
        key = (control, target, junction)
        route = self._one_bend_routes.get(key)
        if route is None:
            if control == target:
                raise TopologyError("control and target coincide")
            path = self.topology.one_bend_path(control, target, junction)
            table = self.one_bend_table()
            route = self._one_bend_routes[key] = RoutedCnot(
                path=tuple(path),
                reliability=float(table.reliability[key]),
                round_trip_reliability=float(
                    table.round_trip_reliability[key]),
                duration=float(table.duration[key]))
        return route

    def best_one_bend(self, control: int, target: int) -> RoutedCnot:
        """Most reliable of the (at most) two one-bend routes; junction 0
        on ties (collinear pairs have one route, tabled twice)."""
        if control == target:
            raise TopologyError("control and target coincide")
        rel = self.one_bend_table().reliability[control, target]
        return self.one_bend(control, target, int(rel[1] > rel[0]))

    def delta(self, control: int, target: int) -> float:
        """Delta matrix entry: minimum routed-CNOT duration (1BP)."""
        if control == target:
            raise TopologyError("control and target coincide")
        return float(self.one_bend_table().duration[control, target].min())

    def log_reliability(self, control: int, target: int) -> float:
        """log of the best 1BP reliability — an objective term of Eq. 12."""
        return math.log(max(self.best_one_bend(control, target).reliability,
                            _LOG_FLOOR))

    # ------------------------------------------------------------------
    # Most-reliable paths (heuristics' "Best Path" policy, §5)
    # ------------------------------------------------------------------
    def best_path_table(self) -> RouteTable:
        """Costs of the most reliable route between every pair,
        ``[control, target]``."""
        if self._best is None:
            self._build_best_paths()
        return self._best

    def best_path(self, control: int, target: int) -> RoutedCnot:
        """Most reliable swap path between any pair (Dijkstra)."""
        key = (control, target)
        route = self._best_routes.get(key)
        if route is None:
            if control == target:
                raise TopologyError("control and target coincide")
            table = self.best_path_table()
            prev = self._best_prev[control]
            path = [target]
            while path[-1] != control:
                path.append(int(prev[path[-1]]))
            route = self._best_routes[key] = RoutedCnot(
                path=tuple(reversed(path)),
                reliability=float(table.reliability[key]),
                round_trip_reliability=float(
                    table.round_trip_reliability[key]),
                duration=float(table.duration[key]))
        return route

    def _build_best_paths(self) -> None:
        """Dijkstra from every source under ``-log(swap reliability)``.

        The search settles qubits from a ``(dist, qubit)`` heap with
        stale entries skipped, relaxing neighbours in
        :meth:`GridTopology.neighbors` order, so ties resolve as they
        always have. A qubit's swap prefix ``S`` and duration prefix
        ``D`` are final when it settles (its predecessor settled
        first); the last hop is then rescored as a plain CNOT.
        """
        topo = self.topology
        n = topo.n_qubits
        swap_rel, swap_dur, cnot_rel, cnot_dur = self._coupling_arrays()
        rel_rows, dur_rows = swap_rel.tolist(), swap_dur.tolist()
        adjacency = [[(v, -math.log(max(rel_rows[u][v], _LOG_FLOOR)))
                      for v in topo.neighbors(u)] for u in range(n)]
        prev_rows: List[List[int]] = []
        s_rows: List[List[float]] = []
        d_rows: List[List[float]] = []
        for source in range(n):
            dist = [math.inf] * n
            dist[source] = 0.0
            prev = [source] * n
            s = [1.0] * n
            d_sum = [0.0] * n
            heap: List[Tuple[float, int]] = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                if u != source:
                    p = prev[u]
                    s[u] = s[p] * rel_rows[p][u]
                    d_sum[u] = d_sum[p] + dur_rows[p][u]
                for v, w in adjacency[u]:
                    nd = d + w
                    if nd < dist[v]:
                        dist[v] = nd
                        prev[v] = u
                        heapq.heappush(heap, (nd, v))
            prev_rows.append(prev)
            s_rows.append(s)
            d_rows.append(d_sum)
        prev = np.array(prev_rows, dtype=np.intp)
        rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
        swaps = np.array(s_rows)[rows, prev]
        cnot = cnot_rel[prev, cols]
        self._best_prev = prev
        self._best = RouteTable(
            reliability=swaps * cnot,
            round_trip_reliability=swaps * swaps * cnot,
            duration=2.0 * np.array(d_rows)[rows, prev] + cnot_dur[prev, cols])

    # ------------------------------------------------------------------
    # Noise-unaware counterparts (used by T-SMT)
    # ------------------------------------------------------------------
    def uniform_duration(self, control: int, target: int,
                         tau_cnot: float = 3.0) -> float:
        """Duration with identical gate times: 2 (d-1) tau_swap + tau_cnot."""
        d = self.topology.distance(control, target)
        if d == 0:
            raise TopologyError("control and target coincide")
        return 2.0 * (d - 1) * 3.0 * tau_cnot + tau_cnot
