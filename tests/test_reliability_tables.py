"""The array routing tables against the scalar oracle, exactly.

For every ordered pair of hardware qubits, the one-bend table (both
junctions, with :meth:`ReliabilityTables.best_one_bend` and
:meth:`ReliabilityTables.delta` derived from it) and the best-path table
must equal :mod:`reliability_oracle` — path, reliability, round-trip
reliability and duration — with ``==``, never ``approx``. Calibrations:
the seven Fig.-6 IBMQ16 days, day 0 of every registered backend, a
uniform IBMQ16 calibration (ties everywhere) and the 3x3 and 12x11
Fig.-11 grids.
"""

import pytest

import reliability_oracle as oracle
from repro.hardware import (
    CalibrationGenerator,
    ReliabilityTables,
    device_calibration,
    device_names,
    ibmq16_topology,
    square_topology,
    uniform_calibration,
)


def _calibrations():
    week = CalibrationGenerator(ibmq16_topology(), seed=2019)
    cases = [(f"ibmq16-day{day}", lambda day=day: week.snapshot(day))
             for day in range(7)]
    cases += [(f"{name}-day0", lambda name=name: device_calibration(name))
              for name in device_names()]
    cases.append(("ibmq16-uniform",
                  lambda: uniform_calibration(ibmq16_topology())))
    cases += [(f"fig11-grid{n}", lambda n=n: CalibrationGenerator(
        square_topology(n), seed=2019).snapshot(0)) for n in (8, 128)]
    return cases


CASES = _calibrations()


def _same(route, reference):
    return (route.path == reference.path
            and route.reliability == reference.reliability
            and route.round_trip_reliability
            == reference.round_trip_reliability
            and route.duration == reference.duration)


@pytest.mark.parametrize("make", [m for _, m in CASES],
                         ids=[name for name, _ in CASES])
def test_one_bend_table_equals_oracle(make):
    cal = make()
    tables = ReliabilityTables(cal)
    qubits = list(cal.topology.iter_qubits())
    mismatches = []
    for c in qubits:
        for t in qubits:
            if c == t:
                continue
            options = [oracle.one_bend(cal, c, t, j) for j in (0, 1)]
            for j, reference in enumerate(options):
                if not _same(tables.one_bend(c, t, j), reference):
                    mismatches.append((c, t, j))
            best = max(options, key=lambda r: r.reliability)
            if not _same(tables.best_one_bend(c, t), best):
                mismatches.append((c, t, "best"))
            if tables.delta(c, t) != min(r.duration for r in options):
                mismatches.append((c, t, "delta"))
    assert not mismatches


@pytest.mark.parametrize("make", [m for _, m in CASES],
                         ids=[name for name, _ in CASES])
def test_best_path_table_equals_oracle(make):
    cal = make()
    tables = ReliabilityTables(cal)
    mismatches = []
    for c in cal.topology.iter_qubits():
        for t, reference in oracle.best_paths_from(cal, c).items():
            if not _same(tables.best_path(c, t), reference):
                mismatches.append((c, t))
    assert not mismatches


def test_tables_are_lazy_per_kind():
    tables = ReliabilityTables(uniform_calibration(ibmq16_topology()))
    tables.one_bend(0, 10, 1)
    assert tables._best is None
    tables.best_path(0, 10)
    assert tables._best is not None
