"""The batched engine's previous noisy half, kept as a test oracle.

:mod:`repro.simulator.batch` injects sampled Pauli errors as signed
permutations over an event table and draws every noisy outcome with
one ``rng.random``. This module keeps the kernel that did the same with
per-plan Python: ``(site, choice)`` rows deduplicated into
gate -> events dicts, one ``take_rows``/``tensordot``/``put_rows``
round per distinct (gate, events) group, and one ``rng.choice`` per
plan. Production must match it exactly: equal plan matrices and equal
counts for the same seed.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.simulator.batch import _apply_1q, _apply_2q, _apply_readout_flips
from repro.simulator.statevector import cached_unitary
from repro.simulator.trace import DenseEvent, ProgramTrace
from repro.simulator.xp import resolve_array_backend

Plan = Dict[int, List[DenseEvent]]


def plan_events(trace: ProgramTrace, sites, choices) -> Plan:
    """Expand (site, choice) pairs into per-gate Pauli event lists."""
    by_gate: Plan = {}
    for s, c in zip(sites, choices):
        gate = int(trace.site_gate[s])
        by_gate.setdefault(gate, []).extend(trace.site_events[s][int(c)])
    return by_gate


def plan_probabilities(trace: ProgramTrace, plans: List[Plan],
                       array_backend=None, chunk=None) -> np.ndarray:
    """``(len(plans), 2**n_measures)`` pattern distributions."""
    xb = resolve_array_backend(array_backend)
    width = 1 << trace.n_measures
    out = np.empty((len(plans), width), dtype=np.float64)
    if chunk is None:
        chunk = max(1, xb.amplitude_budget() >> trace.n_qubits)
    for lo in range(0, len(plans), chunk):
        part = plans[lo:lo + chunk]
        out[lo:lo + len(part)] = simulate_plans(trace, part, xb)
    return out


def simulate_plans(trace: ProgramTrace, plans: List[Plan], xb) -> np.ndarray:
    """One batched statevector pass, injecting per (gate, events) group."""
    n = trace.n_qubits
    state = xb.zeros((len(plans),) + (2,) * n)
    state[(slice(None),) + (0,) * n] = 1.0
    per_gate: Dict[int, Dict[Tuple[DenseEvent, ...], List[int]]] = {}
    for row, plan in enumerate(plans):
        for gate, events in plan.items():
            per_gate.setdefault(gate, {}).setdefault(
                tuple(events), []).append(row)
    for i, op in enumerate(trace.ops):
        if op is not None:
            matrix, dense = op
            if len(dense) == 1:
                state = _apply_1q(xb, state, xb.stage(matrix), dense[0])
            else:
                state = _apply_2q(xb, state, xb.stage(matrix), dense)
        for events, rows in per_gate.get(i, {}).items():
            idx = np.asarray(rows)
            sub = xb.take_rows(state, idx)
            for dense_q, pauli in events:
                sub = _apply_1q(xb, sub, xb.stage(cached_unitary(pauli)),
                                dense_q)
            xb.put_rows(state, idx, sub)
    return xb.pattern_reduce(state, trace.pattern_order,
                             1 << trace.n_measures)


def noisy_plans(trace: ProgramTrace, occurred: np.ndarray,
                rng: np.random.Generator):
    """Draw the Pauli choices and dedup rows into plans.

    Returns ``(plans, plan_rows)``: dict plans in first-appearance
    order and, per plan, its rows in row order.
    """
    trial_idx, site_idx = np.nonzero(occurred)
    uniforms = rng.random(trial_idx.size)
    choices = (uniforms[:, np.newaxis]
               >= trace.site_cum[site_idx, :]).sum(axis=1).astype(np.int64)
    starts = np.searchsorted(trial_idx, np.arange(occurred.shape[0] + 1))
    plan_index: Dict[bytes, int] = {}
    plans: List[Plan] = []
    plan_rows: List[List[int]] = []
    for row in range(occurred.shape[0]):
        lo, hi = starts[row], starts[row + 1]
        key = site_idx[lo:hi].tobytes() + b"|" + choices[lo:hi].tobytes()
        index = plan_index.get(key)
        if index is None:
            index = plan_index[key] = len(plans)
            plans.append(plan_events(trace, site_idx[lo:hi],
                                     choices[lo:hi]))
            plan_rows.append([])
        plan_rows[index].append(row)
    return plans, plan_rows


def run_batched(trace: ProgramTrace, trials: int, rng: np.random.Generator,
                array_backend=None) -> Dict[str, int]:
    """The batched engine with the per-plan noisy half."""
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
        plans, plan_rows = noisy_plans(trace, occurred[noisy_rows], rng)
        patterns = plan_probabilities(trace, plans, array_backend=xb)
        patterns /= patterns.sum(axis=1, keepdims=True)
        for index, rows in enumerate(plan_rows):
            drawn = rng.choice(patterns.shape[1], size=len(rows),
                               p=patterns[index])
            codes[noisy_rows[np.asarray(rows)]] = drawn
    rendered = _apply_readout_flips(trace, codes, rng)
    outcomes, counts = np.unique(rendered, return_counts=True)
    return {trace.outcome_string(int(c)): int(n)
            for c, n in zip(outcomes, counts)}
