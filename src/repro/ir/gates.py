"""Gate definitions for the quantum IR.

The gate set mirrors what ScaffCC emits after decomposition for the IBMQ
targets used in the paper: the single-qubit Clifford+T set plus arbitrary
Z-rotations, the two-qubit CNOT, SWAP (a macro expanded by the compiler
into three CNOTs), measurement, and barriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

from repro.exceptions import CircuitError

#: Names of single-qubit unitary gates understood by the IR.
SINGLE_QUBIT_GATES = frozenset(
    {"id", "h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz"}
)

#: Names of two-qubit gates understood by the IR.
TWO_QUBIT_GATES = frozenset({"cx", "swap", "cz"})

#: Gates that take one real rotation parameter.
PARAMETRIC_GATES = frozenset({"rx", "ry", "rz"})

#: Non-unitary / pseudo operations.
NON_UNITARY_OPS = frozenset({"measure", "barrier", "reset"})

#: All operation names the IR accepts.
ALL_OPERATIONS = SINGLE_QUBIT_GATES | TWO_QUBIT_GATES | NON_UNITARY_OPS

#: The universal set sampled by the paper's synthetic benchmark generator.
RANDOM_BENCHMARK_GATE_SET = ("h", "x", "y", "z", "s", "t", "cx")


@dataclass(frozen=True, slots=True)
class Gate:
    """One operation in a quantum program.

    Attributes:
        name: Lower-case operation name (see :data:`ALL_OPERATIONS`).
        qubits: Program-qubit indices the operation acts on. For ``cx``
            the order is ``(control, target)``.
        param: Rotation angle in radians for parametric gates.
        cbit: Classical bit index receiving the result of a ``measure``.
    """

    name: str
    qubits: Tuple[int, ...]
    param: Optional[float] = None
    cbit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.name not in ALL_OPERATIONS:
            raise CircuitError(f"unknown operation {self.name!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubit in {self.name}{self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise CircuitError(f"negative qubit index in {self.name}{self.qubits}")
        if self.name in SINGLE_QUBIT_GATES and len(self.qubits) != 1:
            raise CircuitError(f"{self.name} takes 1 qubit, got {self.qubits}")
        if self.name in TWO_QUBIT_GATES and len(self.qubits) != 2:
            raise CircuitError(f"{self.name} takes 2 qubits, got {self.qubits}")
        if self.name in PARAMETRIC_GATES and self.param is None:
            raise CircuitError(f"{self.name} requires a rotation parameter")
        if self.name not in PARAMETRIC_GATES and self.param is not None:
            raise CircuitError(f"{self.name} takes no parameter")
        if self.name == "measure":
            if len(self.qubits) != 1:
                raise CircuitError("measure takes exactly 1 qubit")
            if self.cbit is None or self.cbit < 0:
                raise CircuitError("measure requires a non-negative cbit")
        elif self.cbit is not None:
            raise CircuitError(f"{self.name} takes no classical bit")
        if self.name == "reset" and len(self.qubits) != 1:
            raise CircuitError("reset takes exactly 1 qubit")

    @property
    def is_unitary(self) -> bool:
        """Whether the operation is a unitary gate."""
        return self.name not in NON_UNITARY_OPS

    @property
    def is_two_qubit(self) -> bool:
        """Whether the operation acts on two qubits."""
        return self.name in TWO_QUBIT_GATES

    @property
    def is_cnot(self) -> bool:
        """Whether the operation is a CNOT."""
        return self.name == "cx"

    @property
    def is_measure(self) -> bool:
        """Whether the operation is a measurement."""
        return self.name == "measure"

    @property
    def control(self) -> int:
        """Control qubit of a CNOT."""
        if self.name != "cx":
            raise CircuitError(f"{self.name} has no control qubit")
        return self.qubits[0]

    @property
    def target(self) -> int:
        """Target qubit of a CNOT."""
        if self.name != "cx":
            raise CircuitError(f"{self.name} has no target qubit")
        return self.qubits[1]

    def remap(self, mapping) -> "Gate":
        """Return a copy of the gate with qubits renamed through *mapping*.

        Args:
            mapping: A dict-like or callable from old index to new index.
        """
        if callable(mapping):
            new_qubits = tuple(mapping(q) for q in self.qubits)
        else:
            new_qubits = tuple(mapping[q] for q in self.qubits)
        return Gate(self.name, new_qubits, param=self.param, cbit=self.cbit)

    def __str__(self) -> str:
        args = ", ".join(f"q{q}" for q in self.qubits)
        if self.param is not None:
            return f"{self.name}({self.param:g}) {args}"
        if self.cbit is not None:
            return f"{self.name} {args} -> c{self.cbit}"
        return f"{self.name} {args}"


def inverse_gate(gate: Gate) -> Gate:
    """Return the inverse of a unitary gate.

    Used by the QFT round-trip benchmark and by circuit inversion.

    Raises:
        CircuitError: If the gate is not unitary.
    """
    if not gate.is_unitary:
        raise CircuitError(f"cannot invert non-unitary op {gate.name}")
    inverses = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
    if gate.name in inverses:
        return Gate(inverses[gate.name], gate.qubits)
    if gate.name in PARAMETRIC_GATES:
        assert gate.param is not None
        return Gate(gate.name, gate.qubits, param=-gate.param)
    # h, x, y, z, id, cx, cz, swap are self-inverse.
    return gate


@lru_cache(maxsize=4096)
def gate_matrix(name: str, param: Optional[float] = None):
    """Return the unitary matrix of a 1- or 2-qubit gate as nested tuples.

    The simulator converts these to numpy arrays; keeping this module free
    of numpy keeps the IR importable anywhere. Results are cached per
    ``(name, param)`` and returned as (immutable) tuples so the shared
    cache entries cannot be corrupted by callers.
    """
    return tuple(tuple(row) for row in _gate_matrix_rows(name, param))


def _gate_matrix_rows(name: str, param: Optional[float]):
    i = 1j
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if name == "id":
        return [[1, 0], [0, 1]]
    if name == "h":
        return [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]]
    if name == "x":
        return [[0, 1], [1, 0]]
    if name == "y":
        return [[0, -i], [i, 0]]
    if name == "z":
        return [[1, 0], [0, -1]]
    if name == "s":
        return [[1, 0], [0, i]]
    if name == "sdg":
        return [[1, 0], [0, -i]]
    if name == "t":
        return [[1, 0], [0, (1 + i) * inv_sqrt2]]
    if name == "tdg":
        return [[1, 0], [0, (1 - i) * inv_sqrt2]]
    if name in PARAMETRIC_GATES:
        if param is None:
            raise CircuitError(f"{name} requires a parameter")
        c, s = math.cos(param / 2.0), math.sin(param / 2.0)
        if name == "rx":
            return [[c, -i * s], [-i * s, c]]
        if name == "ry":
            return [[c, -s], [s, c]]
        if name == "rz":
            ph = math.e ** (-i * param / 2.0)
            return [[ph, 0], [0, ph.conjugate()]]
    if name == "cx":
        return [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    if name == "cz":
        return [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, -1],
        ]
    if name == "swap":
        return [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]
    raise CircuitError(f"no matrix for operation {name!r}")
