"""Vectorized batched Monte-Carlo sampling over a precompiled trace.

Executes all trials of a noisy run as array-level operations instead
of a per-trial Python loop:

1. the full ``(trials, sites)`` Bernoulli occurrence matrix is drawn in
   one RNG call against the trace's per-site firing probabilities;
2. every error-free trial is routed through a **single** vectorized
   draw from the ideal output distribution;
3. the noisy trials' Pauli choices are drawn in one batch and the
   trials are deduplicated by error plan (their ``(site, choice)``
   pattern, as one byte row each), so each *distinct* noisy trajectory
   is simulated exactly once. The plans become one flat event table
   (plan, gate, dense qubit, Pauli, layer) with no per-plan Python.
   All plans share the gate sequence, so each gate is applied to a
   ``(plans, 2, ..., 2)`` state tensor in one tensordot. After a gate,
   the rows that inject there are gathered once, each (layer, qubit)
   slot applies its Paulis as one exact signed permutation (X and Y
   swap the qubit's two slices, Y and Z multiply them by ±1 or ±i),
   and the rows are scattered back once. The noisy outcomes are then
   one ``rng.random`` searched in each plan's CDF, with the arithmetic
   and the RNG stream of one ``Generator.choice`` call per plan;
4. readout bit flips are applied as one vectorized operation over the
   whole ``(trials, measures)`` outcome array.

The statevector contraction of step 3 runs on a pluggable
:class:`~repro.simulator.xp.ArrayBackend` (numpy by default; torch or
cupy when installed) — all RNG draws stay in numpy on the host, so
counts are **bit-identical** across array backends for the same seeds.
Chunking is sized by the backend's device-memory-aware
:meth:`~repro.simulator.xp.ArrayBackend.amplitude_budget` (64 MiB of
complex128 on host backends, a fraction of free device memory on CUDA,
``REPRO_CHUNK_MIB`` override everywhere) instead of the fixed
``1 << 22`` amplitude constant it replaced.

Each step matches the per-trial engine's sampling law exactly (two
conditionally independent trials with the same error plan are i.i.d.
draws from the same trajectory distribution), so the batched engine is
distribution-identical to ``engine="trial"`` while replacing O(trials)
statevector runs with one batched run over the distinct noisy plans.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.simulator.noise import _PAULIS_1Q, _PAULIS_2Q
from repro.simulator.trace import ProgramTrace
from repro.simulator.xp import ArrayBackend, resolve_array_backend

#: What run_batched/batch_plan_probabilities accept as a backend
#: selector: a registered name, an instance, or None (process default).
ArrayBackendLike = Union[str, ArrayBackend, None]

#: Event-table Pauli codes.
_PAULI_CODE = {"i": 0, "x": 1, "y": 2, "z": 3}

#: ``[two_qubit, choice]`` -> Pauli codes on the site's first and second
#: dense qubit (0 = identity; one-qubit sites have no second qubit).
_CHOICE_PAULIS = np.array([
    [[_PAULI_CODE[p], 0] for p in _PAULIS_1Q]
    + [[0, 0]] * (len(_PAULIS_2Q) - len(_PAULIS_1Q)),
    [[_PAULI_CODE[a], _PAULI_CODE[b]] for a, b in _PAULIS_2Q],
], dtype=np.int64)

#: A Pauli as a signed permutation of one qubit's two slices, per code:
#: X and Y swap them, then slice k is multiplied by ``_PHASES[code, k]``
#: (Y = [[0, -i], [i, 0]], Z = diag(1, -1)). Every entry of a Pauli
#: matrix is 0, ±1 or ±i, so this gives the values a tensordot with the
#: matrix gives, up to the sign of zeros.
_SWAPS = np.array([False, True, True, False])
_PHASES = np.array([[1, 1], [1, 1], [-1j, 1j], [1, -1]],
                   dtype=np.complex128)

#: ``Generator.choice``'s tolerance on the sum of ``p``.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def run_batched(trace: ProgramTrace, trials: int,
                rng: np.random.Generator,
                array_backend: ArrayBackendLike = None) -> Dict[str, int]:
    """Sample *trials* shots from *trace*; returns string counts.

    Args:
        trace: The lowered program.
        trials: Shot count.
        rng: Host RNG — every draw comes from it, whatever the array
            backend, which is what makes counts backend-independent.
        array_backend: Registered array-backend name (or instance) for
            the statevector contraction; ``None`` uses the process
            default (numpy unless
            :func:`~repro.simulator.xp.set_default_array_backend`
            says otherwise). Unavailable backends warn once and fall
            back to numpy.
    """
    xb = resolve_array_backend(array_backend)
    codes = np.zeros(trials, dtype=np.int64)
    if trace.n_sites:
        occurred = rng.random((trials, trace.n_sites)) < \
            trace.site_prob[np.newaxis, :]
        noisy = occurred.any(axis=1)
    else:
        occurred = None
        noisy = np.zeros(trials, dtype=bool)

    clean_rows = np.nonzero(~noisy)[0]
    if clean_rows.size:
        draws = rng.choice(trace.ideal_codes.size, size=clean_rows.size,
                           p=trace.ideal_probs)
        codes[clean_rows] = trace.ideal_codes[draws]

    noisy_rows = np.nonzero(noisy)[0]
    if noisy_rows.size:
        _sample_noisy(trace, occurred[noisy_rows], noisy_rows, codes, rng,
                      xb)

    rendered = _apply_readout_flips(trace, codes, rng)
    outcomes, counts = np.unique(rendered, return_counts=True)
    return {trace.outcome_string(int(c)): int(n)
            for c, n in zip(outcomes, counts)}


def _sample_noisy(trace: ProgramTrace, occurred: np.ndarray,
                  noisy_rows: np.ndarray, codes: np.ndarray,
                  rng: np.random.Generator, xb: ArrayBackend) -> None:
    """Fill ``codes[noisy_rows]`` by deduplicated trajectory simulation."""
    table, row_plan = _noisy_plans(trace, occurred, rng)
    patterns = batch_plan_probabilities(trace, table, array_backend=xb)
    # One vectorized row-normalize instead of a per-plan divide: each
    # row's sum is the same contiguous pairwise reduction the per-plan
    # `probs / probs.sum()` performed, so the draws are bit-identical.
    patterns /= patterns.sum(axis=1, keepdims=True)
    codes[noisy_rows] = _draw_patterns(patterns, row_plan, rng)


def _noisy_plans(trace: ProgramTrace, occurred: np.ndarray,
                 rng: np.random.Generator
                 ) -> Tuple["EventTable", np.ndarray]:
    """Draw the Pauli choice of every fired site and deduplicate rows.

    *occurred* is the noisy rows' ``(rows, sites)`` firing matrix. A
    row's plan is its (site, choice) pattern; plans are numbered in
    order of first appearance. Returns the plans' event table and
    each row's plan.
    """
    trial_idx, site_idx = np.nonzero(occurred)  # row-major: sorted by trial
    uniforms = rng.random(trial_idx.size)
    choices = (uniforms[:, np.newaxis]
               >= trace.site_cum[site_idx, :]).sum(axis=1).astype(np.int64)
    # One byte per site (0 = silent, else choice + 1), deduplicated as
    # opaque byte rows.
    key = np.zeros(occurred.shape, dtype=np.uint8)
    key[trial_idx, site_idx] = choices + 1
    _, first, inverse = np.unique(
        key.view(np.dtype((np.void, key.shape[1])))[:, 0],
        return_index=True, return_inverse=True)
    by_appearance = np.argsort(first)
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(by_appearance.size)
    row_plan = rank[inverse]
    # Each plan's events are those of its first row.
    is_first = np.zeros(occurred.shape[0], dtype=bool)
    is_first[first] = True
    keep = is_first[trial_idx]
    table = event_table(trace, row_plan[trial_idx[keep]], site_idx[keep],
                        choices[keep], n_plans=first.size)
    return table, row_plan


def _draw_patterns(patterns: np.ndarray, row_plan: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """One pattern code per row, row *r* drawn from ``patterns[row_plan[r]]``.

    The arithmetic and the RNG stream of one
    ``rng.choice(width, size=rows, p=patterns[plan])`` call per plan, in
    plan order: the uniforms are one ``rng.random`` over the rows sorted
    by plan, then by row, each searched (``side="right"``) in its plan's
    ``cumsum`` CDF divided by its last entry. Rows are checked the way
    ``Generator.choice`` checks ``p`` before any uniform is drawn.
    Overwrites *patterns* with the CDFs.
    """
    sums = patterns.sum(axis=1)
    if np.isnan(sums).any():
        raise ValueError("Probabilities contain NaN")
    if (patterns < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if (np.abs(sums - 1.0) > _CHOICE_ATOL).any():
        raise ValueError("Probabilities do not sum to 1")
    order = np.argsort(row_plan, kind="stable")
    uniforms = rng.random(order.size)
    cdf = np.cumsum(patterns, axis=1, out=patterns)
    cdf /= cdf[:, -1:]
    drawn = np.empty(order.size, dtype=np.int64)
    drawn[order] = _bisect_right(cdf, row_plan[order], uniforms)
    return drawn


def _bisect_right(cdf: np.ndarray, rows: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf[rows[k]], values[k], side="right")`` for
    every *k* at once, by binary lifting over the (non-decreasing)
    rows: the count of entries ``<= value`` grows by each power of two
    whose probe entry is still ``<= value``."""
    width = cdf.shape[1]
    flat = cdf.reshape(-1)
    base = rows * width - 1
    found = np.zeros(rows.size, dtype=np.int64)
    step = 1 << (width.bit_length() - 1)
    while step:
        probe = found + step
        fits = probe <= width
        below = flat[base + np.where(fits, probe, 1)] <= values
        found = np.where(fits & below, probe, found)
        step >>= 1
    return found


class EventTable(NamedTuple):
    """The Pauli injections of many error plans, one entry per event.

    Entries are sorted by plan, then gate, then dense qubit, then
    layer. An event is applied right after its gate; ``layer`` counts
    the plan's earlier events on the same qubit after the same gate
    (an idle window and the gate's own error can both hit one qubit),
    which fixes the order in which they are applied.

    Attributes:
        n_plans: Number of plans (a plan may have no entries).
        plan, gate, qubit, pauli, layer: ``(E,)`` int64 columns;
            ``pauli`` is 1, 2 or 3 for X, Y or Z.
    """

    n_plans: int
    plan: np.ndarray
    gate: np.ndarray
    qubit: np.ndarray
    pauli: np.ndarray
    layer: np.ndarray


def event_table(trace: ProgramTrace, plan: np.ndarray, site: np.ndarray,
                choice: np.ndarray, n_plans: int) -> EventTable:
    """Expand ``(plan, site, choice)`` triples into an :class:`EventTable`.

    Triple *k* fires error site ``site[k]`` of *trace* with Pauli
    choice ``choice[k]`` in plan ``plan[k]``. Within a plan, triples
    are applied in the order given (the per-trial engine's order is
    ascending site); a two-qubit choice applies its first qubit's Pauli,
    then its second's, and identity halves are dropped.
    """
    site = np.asarray(site, dtype=np.int64)
    pair = trace.site_pair[site]
    kind = (pair[:, 1] >= 0).astype(np.int64)
    paulis = _CHOICE_PAULIS[kind, np.asarray(choice, dtype=np.int64)]
    plan = np.repeat(np.asarray(plan, dtype=np.int64), 2)
    gate = np.repeat(trace.site_gate[site], 2)
    qubit = pair.reshape(-1)
    pauli = paulis.reshape(-1)
    live = pauli != 0
    plan, gate, qubit, pauli = plan[live], gate[live], qubit[live], \
        pauli[live]
    # Stable sort by (plan, gate, qubit): equal keys keep their given
    # order, and a run of equal keys is numbered by layer.
    slot = (plan * len(trace.ops) + gate) * trace.n_qubits + qubit
    order = np.argsort(slot, kind="stable")
    slot = slot[order]
    index = np.arange(slot.size, dtype=np.int64)
    starts = np.ones(slot.size, dtype=bool)
    starts[1:] = slot[1:] != slot[:-1]
    layer = index - np.maximum.accumulate(np.where(starts, index, 0))
    return EventTable(int(n_plans), plan[order], gate[order], qubit[order],
                      pauli[order], layer)


def batch_plan_probabilities(trace: ProgramTrace, table: EventTable,
                             array_backend: ArrayBackendLike = None,
                             chunk: Optional[int] = None) -> np.ndarray:
    """Measured-pattern distributions of many error plans, batched.

    Returns a ``(table.n_plans, 2**n_measures)`` matrix; row *p* is the
    outcome distribution of the trajectory that injects plan *p*'s
    events of *table* (see :func:`event_table`).

    Args:
        trace: The lowered program.
        table: The plans' Pauli events.
        array_backend: Backend for the contraction (name, instance, or
            ``None`` for the process default).
        chunk: Plans per simulation chunk. Defaults to the backend's
            :meth:`~repro.simulator.xp.ArrayBackend.amplitude_budget`
            divided by the state size. Chunks bound peak memory; the
            test suite pins the result at chunk sizes 1, 3 and default
            on BV4. The BLAS contraction may round differently per
            batch shape, so on other programs (QFT) the matrix can
            differ in the last bit between chunk sizes.
    """
    xb = resolve_array_backend(array_backend)
    total = table.n_plans
    width = 1 << trace.n_measures
    out = np.empty((total, width), dtype=np.float64)
    if chunk is None:
        chunk = max(1, xb.amplitude_budget() >> trace.n_qubits)
    elif chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    bounds = np.searchsorted(table.plan, np.arange(0, total + chunk, chunk))
    for k, lo in enumerate(range(0, total, chunk)):
        hi = min(lo + chunk, total)
        events = slice(bounds[k], bounds[k + 1])
        part = EventTable(hi - lo, table.plan[events] - lo,
                          *(column[events] for column in table[2:]))
        out[lo:hi] = _simulate_chunk(trace, part, xb)
    return out


def _simulate_chunk(trace: ProgramTrace, table: EventTable,
                    xb: ArrayBackend) -> np.ndarray:
    """One batched statevector pass over all of *table*'s plans."""
    n = trace.n_qubits
    state = xb.zeros((table.n_plans,) + (2,) * n)
    state[(slice(None),) + (0,) * n] = 1.0
    injections = _injections(table)
    for i, op in enumerate(trace.ops):
        if op is not None:
            matrix, dense = op
            if len(dense) == 1:
                state = _apply_1q(xb, state, xb.stage(matrix), dense[0])
            else:
                state = _apply_2q(xb, state, xb.stage(matrix), dense)
        injection = injections.get(i)
        if injection is not None:
            rows, slots = injection
            sub = xb.take_rows(state, rows)
            for q, swap, phases in slots:
                sub = xb.signed_permute(sub, q + 1, swap, phases)
            xb.put_rows(state, rows, sub)
    # Measured qubits are distinct, so after ordering the basis by
    # pattern code every code owns an equal contiguous block: collapse
    # to pattern distributions with one reshape+sum (the chunk's single
    # device-to-host transfer).
    return xb.pattern_reduce(state, trace.pattern_order,
                             1 << trace.n_measures)


def _injections(table: EventTable
                ) -> Dict[int, Tuple[np.ndarray, List[Tuple]]]:
    """Per gate: the rows that inject after it, and per (layer, qubit)
    slot in layer order, the qubit and each row's slice swap and
    phases (identity for rows without an event in the slot)."""
    _, plan, gate, qubit, pauli, layer = table
    if not plan.size:
        return {}
    # The rows of gate g are the sorted plans of its (g, plan) pairs.
    pairs, pair_index = np.unique(gate * table.n_plans + plan,
                                  return_inverse=True)
    gates, gate_start, gate_rows = np.unique(
        pairs // table.n_plans, return_index=True, return_counts=True)
    position = pair_index - gate_start[np.searchsorted(gates, gate)]
    # Slots sort by (gate, layer, qubit); each owns one code per row of
    # its gate, laid end to end in one flat array.
    layers, width = int(layer.max()) + 1, int(qubit.max()) + 1
    slots, slot_of = np.unique((gate * layers + layer) * width + qubit,
                               return_inverse=True)
    slot_gate = slots // (layers * width)
    slot_rows = gate_rows[np.searchsorted(gates, slot_gate)]
    slot_end = np.cumsum(slot_rows)
    codes = np.zeros(int(slot_end[-1]), dtype=np.int64)
    codes[slot_end[slot_of] - slot_rows[slot_of] + position] = pauli
    swaps, phases = _SWAPS[codes], _PHASES[codes]
    out: Dict[int, Tuple[np.ndarray, List[Tuple]]] = {
        g: (pairs[lo:lo + n] % table.n_plans, [])
        for g, lo, n in zip(gates.tolist(), gate_start.tolist(),
                            gate_rows.tolist())}
    for g, q, hi, n in zip(slot_gate.tolist(), (slots % width).tolist(),
                           slot_end.tolist(), slot_rows.tolist()):
        out[g][1].append((q, swaps[hi - n:hi], phases[hi - n:hi]))
    return out


def _apply_1q(xb: ArrayBackend, state, matrix, q: int):
    """Apply a 2x2 unitary to qubit *q* of a batched state tensor."""
    out = xb.tensordot(matrix, state, axes=([1], [q + 1]))
    return xb.moveaxis(out, 0, q + 1)


def _apply_2q(xb: ArrayBackend, state, matrix, qs: Tuple[int, int]):
    """Apply a 4x4 unitary to qubits *qs* of a batched state tensor."""
    gate = xb.reshape(matrix, (2, 2, 2, 2))
    out = xb.tensordot(gate, state,
                       axes=([2, 3], [qs[0] + 1, qs[1] + 1]))
    return xb.moveaxis(out, (0, 1), (qs[0] + 1, qs[1] + 1))


def render_readout_bits(trace: ProgramTrace, bits: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Flip measured bits with the calibrated asymmetric probabilities.

    Args:
        trace: The lowered program.
        bits: ``(trials, n_measures)`` 0/1 array of true measured
            values (column *m* = measure *m*'s outcome).
        rng: Host RNG; the draw sequence (one ``rng.random(trials)``
            per measure, grouped by cbit slot in slot order) is the
            readout law shared by every trace-consuming engine.

    Returns:
        ``(trials, n_slots)`` rendered classical bits (column *j* =
        final value of ``trace.measured_cbits[j]``). Each classical
        bit starts from its last writer's measured value, then every
        measure aliasing that cbit flips it in program order against
        the *current* value — matching the per-trial engine even when
        measures share a cbit.
    """
    trials = bits.shape[0]
    rendered = np.zeros((trials, len(trace.measured_cbits)),
                        dtype=np.int64)
    for j in range(len(trace.measured_cbits)):
        bit = bits[:, trace.last_measure_for_cbit[j]].astype(np.int64)
        for m in trace.measures_for_cbit[j]:
            flip_p = np.where(bit == 1, trace.readout_p1[m],
                              trace.readout_p0[m])
            bit = bit ^ (rng.random(bit.shape) < flip_p)
        rendered[:, j] = bit
    return rendered


def _apply_readout_flips(trace: ProgramTrace, codes: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Readout law over pattern *codes* (the dense engines' encoding).

    Unpacks the codes into a measured-bit matrix, applies
    :func:`render_readout_bits` (bit-identical RNG sequence to the
    pre-refactor in-place loop), and repacks into rendered-cbit codes
    (bit *j* = final value of ``trace.measured_cbits[j]``).
    """
    bits = (codes[:, np.newaxis]
            >> np.arange(trace.n_measures, dtype=np.int64)) & 1
    rendered_bits = render_readout_bits(trace, bits, rng)
    shifts = np.arange(rendered_bits.shape[1], dtype=np.int64)
    return (rendered_bits << shifts).sum(axis=1, dtype=np.int64)
