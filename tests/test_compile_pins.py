"""Pinned compiles: routing-table changes must not move a single bit.

Every compile below is pinned on its placement, SWAP count,
``repr(estimated_success)`` and artifact fingerprint, as recorded in
``compile_pins.json``:

* GreedyV* and GreedyE* on the Fig.-11 grids (8, 32 and 128 qubits at
  128, 512 and 2048 gates), which read the all-pairs best-path tables;
* the 12 Table-2 programs under Qiskit, T-SMT, T-SMT*(RR), T-SMT*(1BP)
  and R-SMT* on IBMQ16 day 0, which read the one-bend EC/Delta tables
  (and, through R-SMT*'s greedy warm start, the best paths too).

A changed pin means the compiler's output changed. Refresh the file
(``PYTHONPATH=src python tests/test_compile_pins.py``) only for a
change that is meant to alter compiled programs, and say so.
"""

import json
from pathlib import Path

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import (
    CalibrationGenerator,
    default_ibmq16_calibration,
    square_topology,
)
from repro.programs import all_benchmarks, random_circuit

PINS = Path(__file__).with_name("compile_pins.json")

FIG11_SEED = 2019
GREEDY_QUBITS = (8, 32, 128)
GREEDY_GATES = (128, 512, 2048)
GREEDY_VARIANTS = (
    ("greedyv*", CompilerOptions.greedy_v()),
    ("greedye*", CompilerOptions.greedy_e()),
)
TABLE2_VARIANTS = (
    ("qiskit", CompilerOptions.qiskit()),
    ("t-smt", CompilerOptions.t_smt()),
    ("t-smt*(rr)", CompilerOptions.t_smt_star(routing="rr")),
    ("t-smt*(1bp)", CompilerOptions.t_smt_star(routing="1bp")),
    ("r-smt*", CompilerOptions.r_smt_star()),
)


def _jobs():
    """(label, build) per pinned compile; build() returns the inputs."""
    jobs = []
    for n in GREEDY_QUBITS:
        for g in GREEDY_GATES:
            for label, options in GREEDY_VARIANTS:
                def build(n=n, g=g, options=options):
                    calibration = CalibrationGenerator(
                        square_topology(max(n, 4)),
                        seed=FIG11_SEED).snapshot(0)
                    circuit = random_circuit(
                        n, g, seed=FIG11_SEED + n * 10000 + g)
                    return circuit, calibration, options
                jobs.append((f"{label}@{n}x{g}", build))
    for name, circuit, _ in all_benchmarks():
        for label, options in TABLE2_VARIANTS:
            def build(circuit=circuit, options=options):
                return circuit, default_ibmq16_calibration(), options
            jobs.append((f"{name}/{label}", build))
    return jobs


JOBS = _jobs()


def _pin(build) -> dict:
    program = compile_circuit(*build())
    return {
        "placement": [program.placement[q]
                      for q in range(len(program.placement))],
        "swap_count": program.swap_count,
        "estimated_success": repr(program.estimated_success),
        "fingerprint": program.fingerprint(),
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_pins_cover_every_job(pins):
    assert sorted(pins) == sorted(label for label, _ in JOBS)


@pytest.mark.parametrize("label,build", JOBS, ids=[j[0] for j in JOBS])
def test_compile_pinned(pins, label, build):
    assert _pin(build) == pins[label]


if __name__ == "__main__":
    PINS.write_text(json.dumps({label: _pin(build) for label, build in JOBS},
                               indent=1, sort_keys=True) + "\n")
