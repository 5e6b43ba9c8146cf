"""The batched engine's noisy half against its per-plan oracle.

Production (:mod:`repro.simulator.batch`) deduplicates noisy rows into
an event table, injects Paulis as signed permutations and draws every
noisy outcome with one ``rng.random``. :mod:`batch_oracle` keeps the
per-plan kernel it replaced. Both must agree exactly — equal plan
matrices (``assert_array_equal``) and equal counts — on every Table-2
program under Qiskit, T-SMT*(1bp) and R-SMT* mappings, on each trace as
lowered, at scale 0 and at scale 3 (readout too), for seeds 1 and 2 and
chunk sizes 1, 3 and the default, and on hand-built corner cases. The
tests run on every installed array backend. Matrices are compared at
equal chunk sizes: the BLAS contraction may round differently per
batch shape (QFT's matrices differ in the last bit between chunk 1 and
the default chunk, in both kernels).
"""

import math

import numpy as np
import pytest

import batch_oracle
from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import default_ibmq16_calibration
from repro.ir.circuit import Circuit
from repro.programs import benchmark_names, build_benchmark
from repro.simulator import (
    CompactProgram,
    NoiseModel,
    ProgramTrace,
    ideal_noise_model,
)
from repro.simulator import batch
from repro.simulator.batch import (
    _draw_patterns,
    _noisy_plans,
    batch_plan_probabilities,
    event_table,
    run_batched,
)
from repro.simulator.xp import NumpyBackend, array_backend_available

VARIANTS = {
    "qiskit": CompilerOptions.qiskit(),
    "t-smt*(1bp)": CompilerOptions.t_smt_star(routing="1bp"),
    "r-smt*": CompilerOptions.r_smt_star(),
}
SEEDS = (1, 2)
CHUNKS = (1, 3, None)
BACKENDS = [name for name in ("numpy", "torch", "cupy")
            if array_backend_available(name)]
COUNT_TRIALS = 1024
PLAN_TRIALS = 64


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


def lower(program, cal, noise=None):
    compact = CompactProgram(program.physical.circuit,
                             program.physical.times,
                             topology=cal.topology)
    return ProgramTrace(compact, noise or NoiseModel(cal))


def scaled(trace):
    """The trace as lowered, at scale 0, and at scale 3 with readout."""
    return {"lowered": trace, "x0": trace.rescaled(0.0),
            "x3": trace.rescaled(3.0, scale_readout=True)}


@pytest.fixture(scope="module")
def traces(cal):
    return {(name, variant): lower(compile_circuit(build_benchmark(name),
                                                   cal, options), cal)
            for name in benchmark_names() for variant, options in
            VARIANTS.items()}


def noisy_occurred(trace, trials, rng):
    """The noisy rows' firing matrix, drawn the way run_batched does."""
    occurred = rng.random((trials, trace.n_sites)) < trace.site_prob
    return occurred[occurred.any(axis=1)]


def test_covers_table2(traces):
    assert len(benchmark_names()) == 12
    assert len(traces) == 36


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", benchmark_names())
class TestAgainstOracle:
    def test_counts(self, traces, name, backend):
        for variant in VARIANTS:
            for label, trace in scaled(traces[name, variant]).items():
                for seed in SEEDS:
                    expected = batch_oracle.run_batched(
                        trace, COUNT_TRIALS, np.random.default_rng(seed),
                        array_backend="numpy")
                    got = run_batched(trace, COUNT_TRIALS,
                                      np.random.default_rng(seed),
                                      array_backend=backend)
                    assert got == expected, (variant, label, seed)

    def test_plans_and_matrices(self, traces, name, backend):
        for variant in VARIANTS:
            for label, trace in scaled(traces[name, variant]).items():
                if not trace.n_sites:
                    continue
                for seed in SEEDS:
                    where = (variant, label, seed)
                    occurred = noisy_occurred(
                        trace, PLAN_TRIALS, np.random.default_rng(seed))
                    plans, plan_rows = batch_oracle.noisy_plans(
                        trace, occurred, np.random.default_rng(seed))
                    table, row_plan = _noisy_plans(
                        trace, occurred, np.random.default_rng(seed))
                    assert table.n_plans == len(plans), where
                    for p, rows in enumerate(plan_rows):
                        np.testing.assert_array_equal(
                            np.flatnonzero(row_plan == p), rows)
                    for chunk in CHUNKS:
                        expected = batch_oracle.plan_probabilities(
                            trace, plans, array_backend=backend,
                            chunk=chunk)
                        got = batch_plan_probabilities(
                            trace, table, array_backend=backend,
                            chunk=chunk)
                        np.testing.assert_array_equal(
                            got, expected, err_msg=str(where + (chunk,)))


@pytest.mark.parametrize("backend", BACKENDS)
class TestHandBuilt:
    @pytest.fixture(scope="class")
    def trace(self, traces):
        return traces["Toffoli", "r-smt*"]

    def compare(self, trace, triples, backend):
        """Plan matrices of explicit (plan, site, choice) triples."""
        plan, site, choice = (np.array(column, dtype=np.int64)
                              for column in zip(*triples))
        n_plans = int(plan.max()) + 1
        plans = [batch_oracle.plan_events(trace, site[plan == p],
                                          choice[plan == p])
                 for p in range(n_plans)]
        table = event_table(trace, plan, site, choice, n_plans)
        for chunk in CHUNKS:
            np.testing.assert_array_equal(
                batch_plan_probabilities(trace, table,
                                         array_backend=backend,
                                         chunk=chunk),
                batch_oracle.plan_probabilities(trace, plans,
                                                array_backend=backend,
                                                chunk=chunk))
        return table

    def test_idle_and_gate_error_on_one_qubit(self, trace, backend):
        # An idle window before a gate and the gate's own error both
        # inject on the same qubit after that gate: the second is
        # layer 1, applied after the first.
        pairs = [(s, t) for s in range(trace.n_sites)
                 for t in range(s + 1, trace.n_sites)
                 if trace.site_gate[s] == trace.site_gate[t]
                 and trace.site_pair[s, 1] < 0
                 and trace.site_pair[s, 0] in trace.site_pair[t]]
        assert pairs
        s, t = pairs[0]
        widths = [len(trace.site_events[s]), len(trace.site_events[t])]
        triples = []
        for p, (a, b) in enumerate(np.ndindex(*widths)):
            triples += [(p, s, a), (p, t, b)]
        table = self.compare(trace, triples, backend)
        assert table.layer.max() == 1

    def test_two_qubit_error_with_two_paulis(self, trace, backend):
        site = next(s for s in range(trace.n_sites)
                    if trace.site_pair[s, 1] >= 0)
        both = [c for c, events in enumerate(trace.site_events[site])
                if len(events) == 2]
        assert len(both) == 9
        table = self.compare(
            trace, [(p, site, c) for p, c in enumerate(both)], backend)
        assert table.plan.size == 18

    def test_aliased_cbits(self, cal, backend):
        circuit = Circuit(2, 1).h(0).x(1).measure(0, 0).measure(1, 0)
        trace = lower(compile_circuit(circuit, cal,
                                      CompilerOptions.greedy_e()), cal)
        for seed in SEEDS:
            assert run_batched(trace, 2048, np.random.default_rng(seed),
                               array_backend=backend) == \
                batch_oracle.run_batched(trace, 2048,
                                         np.random.default_rng(seed))

    def test_trace_with_zero_sites(self, cal, backend):
        program = compile_circuit(build_benchmark("BV4"), cal,
                                  CompilerOptions.r_smt_star())
        trace = lower(program, cal, ideal_noise_model(cal))
        assert trace.n_sites == 0
        for seed in SEEDS:
            assert run_batched(trace, 512, np.random.default_rng(seed),
                               array_backend=backend) == \
                batch_oracle.run_batched(trace, 512,
                                         np.random.default_rng(seed))
        empty = event_table(trace, [], [], [], n_plans=0)
        assert batch_plan_probabilities(trace, empty).shape == \
            (0, 1 << trace.n_measures)


class CountingBackend(NumpyBackend):
    """Numpy with a fixed chunk of *plans* plans, counting contractions
    and chunks."""

    def __init__(self, n_qubits, plans):
        self.budget = plans << n_qubits
        self.contractions = 0
        self.chunks = 0

    def native_amplitude_budget(self):
        return self.budget

    def zeros(self, shape):
        self.chunks += 1
        return super().zeros(shape)

    def tensordot(self, a, b, axes):
        self.contractions += 1
        return super().tensordot(a, b, axes)


def test_contractions_are_one_per_unitary_per_chunk(traces):
    """Injections add no contraction: ``tensordot`` runs once per
    unitary per chunk, however many Pauli events the plans carry."""
    trace = traces["Adder", "r-smt*"].rescaled(3.0)
    trials, seed, chunk = 512, 1, 3
    # The oracle's plan count for the same draws.
    rng = np.random.default_rng(seed)
    occurred = rng.random((trials, trace.n_sites)) < trace.site_prob
    noisy = occurred.any(axis=1)
    rng.choice(trace.ideal_codes.size, size=int((~noisy).sum()),
               p=trace.ideal_probs)
    plans, _ = batch_oracle.noisy_plans(trace, occurred[noisy], rng)
    unitaries = sum(op is not None for op in trace.ops)
    xb = CountingBackend(trace.n_qubits, chunk)
    run_batched(trace, trials, np.random.default_rng(seed), array_backend=xb)
    assert xb.chunks == math.ceil(len(plans) / chunk) > 1
    assert xb.contractions == xb.chunks * unitaries


class TestChoiceChecks:
    """The vectorized draw keeps ``Generator.choice``'s checks on ``p``
    and raises before drawing anything."""

    def good(self):
        return np.array([[0.25, 0.75], [0.5, 0.5]])

    @pytest.mark.parametrize("row, message", [
        ([-0.5, 1.5], "non-negative"),
        ([np.nan, 1.0], "NaN"),
        ([0.5, 0.5 + 1e-6], "sum to 1"),
    ])
    def test_corrupted_row_raises_without_drawing(self, row, message):
        patterns = self.good()
        patterns[1] = row
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            _draw_patterns(patterns, np.array([0, 1, 1, 0]), rng)
        assert rng.bit_generator.state == before

    def test_within_tolerance_draws(self):
        patterns = self.good()
        patterns[1, 1] += 1e-9
        _draw_patterns(patterns, np.array([0, 1]), np.random.default_rng(0))

    def test_corrupted_plan_matrix_fails_the_run(self, traces, monkeypatch):
        contract = batch.batch_plan_probabilities

        def corrupted(*args, **kwargs):
            patterns = contract(*args, **kwargs)
            patterns[0, 0] = np.nan
            return patterns

        monkeypatch.setattr(batch, "batch_plan_probabilities", corrupted)
        with pytest.raises(ValueError, match="NaN"):
            run_batched(traces["BV4", "r-smt*"], 256,
                        np.random.default_rng(1))

    def test_matches_generator_choice(self):
        rng = np.random.default_rng(5)
        patterns = rng.random((7, 16))
        patterns /= patterns.sum(axis=1, keepdims=True)
        row_plan = rng.integers(0, 7, size=300)
        expected = np.empty(row_plan.size, dtype=np.int64)
        reference = np.random.default_rng(6)
        for p in range(7):
            rows = np.flatnonzero(row_plan == p)
            expected[rows] = reference.choice(16, size=rows.size,
                                              p=patterns[p])
        got = _draw_patterns(patterns.copy(), row_plan,
                             np.random.default_rng(6))
        np.testing.assert_array_equal(got, expected)


def site_pair_from_events(trace):
    """The per-site dense qubit pair, re-derived from ``site_events``
    the way the npz writer used to: one-qubit sites carry 3 one-event
    choices, two-qubit sites 15 pairs, the last being (da, z), (db, z)."""
    pair = np.full((trace.n_sites, 2), -1, dtype=np.int64)
    for s, choices in enumerate(trace.site_events):
        if len(choices) == 3:
            pair[s, 0] = choices[0][0][0]
        else:
            pair[s, 0] = choices[-1][0][0]
            pair[s, 1] = choices[-1][1][0]
    return pair


@pytest.mark.parametrize("name", benchmark_names())
def test_site_pair_is_lowered_once_and_round_trips(traces, name):
    trace = traces[name, "t-smt*(1bp)"]
    np.testing.assert_array_equal(trace.site_pair,
                                  site_pair_from_events(trace))
    arrays = trace.to_arrays()
    assert arrays["site_pair"].dtype == np.int64
    restored = ProgramTrace.from_arrays(arrays)
    np.testing.assert_array_equal(restored.site_pair, trace.site_pair)
    assert restored.site_events == trace.site_events
    again = restored.to_arrays()
    assert again.keys() == arrays.keys()
    for key, value in arrays.items():
        assert again[key].tobytes() == value.tobytes(), key
    assert run_batched(restored, 512, np.random.default_rng(1)) == \
        run_batched(trace, 512, np.random.default_rng(1))
