"""Tests for the batched execution engine (trace + vectorized sampler).

The batched engine must be distribution-identical (in law) to the
legacy per-trial engine: fixed-seed runs of both are compared under a
TVD bound, batched runs must be deterministic per seed, and the
error-plan dedup cache must reproduce uncached trajectory simulation
exactly.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import SimulationError
from repro.hardware import default_ibmq16_calibration
from repro.programs import build_benchmark, expected_output
from repro.simulator import (
    CompactProgram,
    NoiseModel,
    ProgramTrace,
    empirical_distribution,
    execute,
    total_variation_distance,
)
from repro.simulator.batch import (
    batch_plan_probabilities,
    event_table,
    run_batched,
)
from repro.simulator.executor import _run_state

from batch_oracle import plan_events

TRIALS = 4096
BENCHMARKS = ["BV4", "Toffoli", "HS2"]


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def programs(cal):
    return {name: compile_circuit(build_benchmark(name), cal,
                                  CompilerOptions.r_smt_star())
            for name in BENCHMARKS}


class TestEngineAgreement:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_tvd_bound(self, cal, programs, name):
        """Batched and legacy engines agree within TVD <= 0.05."""
        kwargs = {"trials": TRIALS, "seed": 11,
                  "expected": expected_output(name)}
        legacy = execute(programs[name], cal, engine="trial", **kwargs)
        batched = execute(programs[name], cal, engine="batched", **kwargs)
        tvd = total_variation_distance(
            empirical_distribution(legacy.counts),
            empirical_distribution(batched.counts))
        assert tvd <= 0.05
        assert abs(legacy.success_rate - batched.success_rate) <= 0.05

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_ideal_distribution_matches_legacy(self, cal, programs, name):
        a = execute(programs[name], cal, trials=8, seed=0, engine="trial")
        b = execute(programs[name], cal, trials=8, seed=0, engine="batched")
        assert set(a.ideal_distribution) == set(b.ideal_distribution)
        for outcome, p in a.ideal_distribution.items():
            assert b.ideal_distribution[outcome] == pytest.approx(p)

    def test_unknown_engine_rejected(self, cal, programs):
        with pytest.raises(SimulationError):
            execute(programs["BV4"], cal, trials=8, engine="bogus")

    def test_custom_sampling_hooks_fall_back_to_trial(self, cal, programs):
        """A NoiseModel overriding the per-trial sampling hooks must be
        honored (the batched lowering only reads the accessors)."""

        class SilentGates(NoiseModel):
            def sample_gate_error(self, gate, rng,
                                  concurrent_neighbors=0):
                return []

        noise = SilentGates(cal, decoherence=False, readout_errors=False)
        with pytest.warns(RuntimeWarning, match="engine='trial'"):
            result = execute(programs["BV4"], cal, trials=128, seed=0,
                             expected=expected_output("BV4"),
                             noise_model=noise, engine="batched")
        # gate_error_probability still reports nonzero rates, but the
        # overridden sampler never fires an error.
        assert result.success_rate == pytest.approx(1.0)


class TestDeterminism:
    def test_batched_reproducible(self, cal, programs):
        kwargs = {"trials": 512, "seed": 23,
                  "expected": expected_output("BV4")}
        a = execute(programs["BV4"], cal, engine="batched", **kwargs)
        b = execute(programs["BV4"], cal, engine="batched", **kwargs)
        assert a.counts == b.counts

    def test_seeds_differ(self, cal, programs):
        a = execute(programs["BV4"], cal, trials=512, seed=1,
                    engine="batched")
        b = execute(programs["BV4"], cal, trials=512, seed=2,
                    engine="batched")
        assert a.counts != b.counts

    def test_counts_sum_to_trials(self, cal, programs):
        result = execute(programs["Toffoli"], cal, trials=777, seed=5,
                         engine="batched")
        assert sum(result.counts.values()) == 777


class TestPlanDedup:
    """The dedup cache must equal uncached per-plan simulation."""

    @pytest.fixture(scope="class")
    def trace(self, cal, programs):
        compiled = programs["BV4"]
        compact = CompactProgram(compiled.physical.circuit,
                                 compiled.physical.times,
                                 topology=cal.topology)
        return ProgramTrace(compact, NoiseModel(cal))

    def test_batched_plans_match_single_plan_simulation(self, trace):
        rng = np.random.default_rng(3)
        plans, triples = [], []
        for p in range(6):
            k = int(rng.integers(1, 4))
            sites = np.sort(rng.choice(trace.n_sites, size=k, replace=False))
            choices = np.array([
                rng.integers(len(trace.site_events[s])) for s in sites])
            plans.append(plan_events(trace, sites, choices))
            triples.extend((p, s, c) for s, c in zip(sites, choices))
        plan_of, site, choice = np.array(triples).T
        batched = batch_plan_probabilities(
            trace, event_table(trace, plan_of, site, choice, len(plans)))
        for row, plan in enumerate(plans):
            single = trace.plan_probabilities(plan)
            assert np.allclose(batched[row], single)

    def test_plan_simulation_matches_legacy_run_state(self, trace):
        """Trace-level trajectory sim equals the legacy _run_state path."""
        rng = np.random.default_rng(4)
        sites = np.sort(rng.choice(trace.n_sites, size=3, replace=False))
        choices = np.array([
            rng.integers(len(trace.site_events[s])) for s in sites])
        plan = plan_events(trace, sites, choices)
        legacy_plan = [list(plan.get(i, []))
                       for i in range(len(trace.compact.gates))]
        state = _run_state(trace.compact, legacy_plan)
        probs = state.probabilities()
        legacy_pattern = np.bincount(
            trace.basis_codes, weights=probs,
            minlength=1 << trace.n_measures)
        assert np.allclose(trace.plan_probabilities(plan), legacy_pattern)

    def test_sampling_does_not_build_site_events(self, cal, programs):
        """``site_events`` is derived on demand; the batched engine
        injects from ``site_pair`` and never materializes it."""
        compiled = programs["Toffoli"]
        compact = CompactProgram(compiled.physical.circuit,
                                 compiled.physical.times,
                                 topology=cal.topology)
        trace = ProgramTrace(compact, NoiseModel(cal))
        run_batched(trace, 256, np.random.default_rng(5))
        assert "site_events" not in vars(trace)
        assert len(trace.site_events) == trace.n_sites
        assert "site_events" in vars(trace)

    def test_duplicate_plans_share_one_distribution(self, trace):
        table = event_table(trace, plan=[0, 1, 2], site=[0, 0, 0],
                            choice=[0, 0, 0], n_plans=3)
        batched = batch_plan_probabilities(trace, table)
        assert np.allclose(batched[0], batched[1])
        assert np.allclose(batched[1], batched[2])


class TestNoiseMechanisms:
    def test_readout_asymmetry_honored(self, cal, programs):
        """Batched readout flips respect the per-bit probabilities."""
        from repro.hardware import (Calibration, QubitCalibration,
                                    ibmq16_topology, uniform_calibration)
        topo = ibmq16_topology()
        base = uniform_calibration(topo, cnot_error=0.0,
                                   single_qubit_error=0.0)
        skewed = {q: QubitCalibration(t1_us=90, t2_us=70, readout_error=0.1,
                                      single_qubit_error=0.0,
                                      readout_asymmetry=0.9)
                  for q in topo.iter_qubits()}
        asym = Calibration(topology=topo, qubits=skewed, edges=base.edges)
        from repro.ir.circuit import Circuit
        circuit = Circuit(2, 2).x(0).x(1).measure_all()
        program = compile_circuit(circuit, asym, CompilerOptions.greedy_e())
        noise = NoiseModel(asym, gate_errors=False, decoherence=False)
        result = execute(program, asym, trials=4000, seed=1, expected="11",
                         noise_model=noise, engine="batched")
        assert result.success_rate == pytest.approx(0.81 ** 2, abs=0.04)

    def test_aliased_cbits_keep_all_trials(self, cal):
        """Two measures writing the same cbit must not drop counts."""
        from repro.ir.circuit import Circuit
        circuit = Circuit(2, 1).h(0).x(1).measure(0, 0).measure(1, 0)
        program = compile_circuit(circuit, cal, CompilerOptions.greedy_e())
        legacy = execute(program, cal, trials=1000, seed=0, engine="trial")
        batched = execute(program, cal, trials=1000, seed=0,
                          engine="batched")
        assert sum(batched.counts.values()) == 1000
        assert sum(batched.ideal_distribution.values()) == \
            pytest.approx(1.0)
        assert batched.ideal_distribution == legacy.ideal_distribution
        tvd = total_variation_distance(
            empirical_distribution(legacy.counts),
            empirical_distribution(batched.counts))
        assert tvd <= 0.06

    def test_ideal_noise_gives_perfect_success(self, cal, programs):
        from repro.simulator import ideal_noise_model
        result = execute(programs["BV4"], cal, trials=256, seed=0,
                         expected=expected_output("BV4"),
                         noise_model=ideal_noise_model(cal),
                         engine="batched")
        assert result.success_rate == pytest.approx(1.0)
