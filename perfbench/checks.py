"""Output checks, run outside the timed region.

Each check returns a list of error strings; an empty list means the
outputs are correct. ``run.py`` reports ``"correct": false`` when any
check of the workload returns an error.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.compiler import verify_compiled
from repro.simulator import NoiseModel
from repro.simulator.stabilizer import stabilizer_program
from repro.simulator.trace import CompactProgram, ProgramTrace

#: Variants whose mapping is an optimal solve. A solve that stops on a
#: time or node limit is not optimal, and its answer depends on the
#: machine, so the benchmark refuses it.
SMT_VARIANTS = frozenset({"t-smt", "t-smt*", "r-smt*"})

#: Table-2 programs made of Clifford gates only: the dense and the
#: stabilizer engines must agree exactly on their ideal distribution.
CLIFFORD_PROGRAMS = ("BV4", "BV6", "BV8", "HS2", "HS4", "HS6")

#: Largest difference tolerated between two ideal probabilities, which
#: the dense engine computes in float64 and the stabilizer engine
#: exactly.
PROBABILITY_TOLERANCE = 1e-9


def lowered(program, calibration) -> ProgramTrace:
    """The noisy-simulator lowering of a compiled program."""
    compact = CompactProgram(program.physical.circuit,
                             program.physical.times,
                             topology=calibration.topology)
    return ProgramTrace(compact, NoiseModel(calibration))


def check_optimal(items: Iterable[Tuple[str, object]]) -> List[str]:
    """Every SMT compile among ``(label, program)`` proved optimality."""
    return [f"{label}: {program.options.variant} mapping is not optimal "
            f"(solver limit hit after {program.mapping.nodes} nodes)"
            for label, program in items
            if program.options.variant in SMT_VARIANTS
            and not program.mapping.optimal]


def check_verified(items: Iterable[Tuple[str, object, object]]
                   ) -> List[str]:
    """``verify_compiled`` (structural and semantic) passes on every
    ``(label, program, calibration)``."""
    errors = []
    for label, program, calibration in items:
        report = verify_compiled(program, calibration)
        if not report.ok:
            errors.append(f"{label}: verify_compiled failed: "
                          f"{'; '.join(report.errors)}")
    return errors


def check_expected(items: Iterable[Tuple[str, dict, str]]) -> List[str]:
    """The ideal top outcome of each ``(label, ideal distribution,
    expected output)`` is the program's hand-written answer."""
    errors = []
    for label, ideal, expected in items:
        top = max(ideal, key=lambda outcome: (ideal[outcome], outcome))
        if top != expected:
            errors.append(f"{label}: ideal top outcome {top!r} != "
                          f"expected {expected!r}")
    return errors


def check_clifford(items: Iterable[Tuple[str, object, object]]
                   ) -> List[str]:
    """Dense and stabilizer ideal distributions agree on every
    ``(label, program, calibration)`` of a Clifford program."""
    errors = []
    for label, program, calibration in items:
        trace = lowered(program, calibration)
        dense = trace.ideal_distribution
        exact = stabilizer_program(trace).ideal_distribution(trace)
        outcomes = set(dense) | set(exact)
        worst = max(abs(dense.get(o, 0.0) - exact.get(o, 0.0))
                    for o in outcomes)
        if worst > PROBABILITY_TOLERANCE:
            errors.append(f"{label}: dense and stabilizer ideal "
                          f"distributions differ by {worst:.3g}")
    return errors


def check_repeat(reference: Sequence, other: Sequence,
                 what: str) -> List[str]:
    """Two signature lists of the same inputs are identical."""
    if len(reference) != len(other):
        return [f"{what}: {len(other)} outputs, expected "
                f"{len(reference)}"]
    for mine, theirs in zip(reference, other):
        if mine != theirs:
            return [f"{what}: output {theirs[0]} differs "
                    f"({theirs[1:]!r} != {mine[1:]!r})"]
    return []


def check_exact(reference: dict, other: dict, what: str) -> List[str]:
    """Two exact-metric dicts of the same inputs are identical."""
    return [f"{what}: {name} = {other.get(name)!r}, expected {value!r}"
            for name, value in reference.items()
            if other.get(name) != value]


def cell_signature(result) -> Tuple:
    """Everything a sweep cell produced that must repeat exactly."""
    label = repr(result.key)
    if result.failure is not None:
        return (label, "failed", result.failure.error_type)
    mitigation: Optional[Tuple] = None
    if result.mitigation is not None:
        mitigation = (repr(result.mitigation.mitigated_success),
                      result.mitigation.executions)
    return (label, result.compiled.fingerprint(),
            tuple(sorted(result.execution.counts.items())), mitigation)


def program_checks(entries: Sequence[Tuple[str, object, object, str]]
                   ) -> List[str]:
    """The per-program checks over ``(label, program, calibration,
    expected)`` entries of Table-2 programs."""
    errors = check_optimal((label, program)
                           for label, program, _c, _e in entries)
    errors += check_verified((label, program, cal)
                             for label, program, cal, _e in entries)
    errors += check_expected((label, lowered(program, cal)
                              .ideal_distribution, expected)
                             for label, program, cal, expected in entries)
    errors += check_clifford(
        (label, program, cal) for label, program, cal, _e in entries
        if program.logical.name in CLIFFORD_PROGRAMS)
    return errors
