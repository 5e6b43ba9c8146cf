"""Unit tests for repro.ir.gates."""

import math

import numpy as np
import pytest

from repro.exceptions import CircuitError
from repro.ir.gates import (
    ALL_OPERATIONS,
    PARAMETRIC_GATES,
    SINGLE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    Gate,
    gate_matrix,
    inverse_gate,
)


class TestGateConstruction:
    def test_simple_single_qubit_gate(self):
        g = Gate("h", (0,))
        assert g.name == "h"
        assert g.qubits == (0,)
        assert g.is_unitary
        assert not g.is_two_qubit

    def test_cnot_control_target(self):
        g = Gate("cx", (2, 5))
        assert g.is_cnot
        assert g.control == 2
        assert g.target == 5

    def test_measure_requires_cbit(self):
        with pytest.raises(CircuitError):
            Gate("measure", (0,))

    def test_measure_with_cbit(self):
        g = Gate("measure", (3,), cbit=1)
        assert g.is_measure
        assert g.cbit == 1
        assert not g.is_unitary

    def test_unknown_operation_rejected(self):
        with pytest.raises(CircuitError):
            Gate("ccx", (0, 1, 2))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(CircuitError):
            Gate("cx", (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(CircuitError):
            Gate("x", (-1,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(CircuitError):
            Gate("h", (0, 1))
        with pytest.raises(CircuitError):
            Gate("cx", (0,))

    def test_parametric_gate_requires_param(self):
        with pytest.raises(CircuitError):
            Gate("rz", (0,))
        g = Gate("rz", (0,), param=0.5)
        assert g.param == 0.5

    def test_non_parametric_rejects_param(self):
        with pytest.raises(CircuitError):
            Gate("h", (0,), param=1.0)

    def test_cbit_on_non_measure_rejected(self):
        with pytest.raises(CircuitError):
            Gate("x", (0,), cbit=0)

    def test_control_property_on_non_cnot(self):
        with pytest.raises(CircuitError):
            _ = Gate("h", (0,)).control

    def test_gates_are_hashable_and_equal(self):
        assert Gate("h", (0,)) == Gate("h", (0,))
        assert len({Gate("h", (0,)), Gate("h", (0,))}) == 1


class TestGateLayout:
    def test_gates_are_slotted(self):
        """Compiled programs hold hundreds of gates: no per-instance
        ``__dict__``."""
        gate = Gate("rz", (3,), param=0.5)
        assert not hasattr(gate, "__dict__")
        with pytest.raises(AttributeError):
            gate.name = "x"

    def test_pickle_round_trip_keeps_fields(self):
        import pickle

        for gate in (Gate("h", (0,)), Gate("cx", (2, 5)),
                     Gate("rz", (1,), param=-0.25),
                     Gate("measure", (4,), cbit=2)):
            back = pickle.loads(pickle.dumps(gate))
            assert back == gate and hash(back) == hash(gate)


class TestRemap:
    def test_remap_with_dict(self):
        g = Gate("cx", (0, 1)).remap({0: 5, 1: 9})
        assert g.qubits == (5, 9)

    def test_remap_with_callable(self):
        g = Gate("cx", (0, 1)).remap(lambda q: q + 3)
        assert g.qubits == (3, 4)

    def test_remap_preserves_param_and_cbit(self):
        g = Gate("rz", (0,), param=1.5).remap({0: 2})
        assert g.param == 1.5
        m = Gate("measure", (0,), cbit=4).remap({0: 7})
        assert m.cbit == 4


class TestInverse:
    @pytest.mark.parametrize("name", ["h", "x", "y", "z", "id"])
    def test_self_inverse_gates(self, name):
        g = Gate(name, (0,))
        assert inverse_gate(g) == g

    def test_s_t_inverses(self):
        assert inverse_gate(Gate("s", (0,))).name == "sdg"
        assert inverse_gate(Gate("sdg", (0,))).name == "s"
        assert inverse_gate(Gate("t", (0,))).name == "tdg"
        assert inverse_gate(Gate("tdg", (0,))).name == "t"

    def test_rotation_inverse_negates_angle(self):
        g = inverse_gate(Gate("rz", (0,), param=0.7))
        assert g.param == pytest.approx(-0.7)

    def test_measure_not_invertible(self):
        with pytest.raises(CircuitError):
            inverse_gate(Gate("measure", (0,), cbit=0))


class TestMatrices:
    @pytest.mark.parametrize("name", sorted(SINGLE_QUBIT_GATES - PARAMETRIC_GATES))
    def test_single_qubit_unitarity(self, name):
        m = np.array(gate_matrix(name), dtype=complex)
        assert m.shape == (2, 2)
        assert np.allclose(m @ m.conj().T, np.eye(2))

    @pytest.mark.parametrize("name", sorted(TWO_QUBIT_GATES))
    def test_two_qubit_unitarity(self, name):
        m = np.array(gate_matrix(name), dtype=complex)
        assert m.shape == (4, 4)
        assert np.allclose(m @ m.conj().T, np.eye(4))

    @pytest.mark.parametrize("name", sorted(PARAMETRIC_GATES))
    def test_parametric_unitarity(self, name):
        m = np.array(gate_matrix(name, 0.37), dtype=complex)
        assert np.allclose(m @ m.conj().T, np.eye(2))

    def test_inverse_matrix_is_conjugate_transpose(self):
        for name in ("s", "t", "h", "x"):
            g = Gate(name, (0,))
            m = np.array(gate_matrix(g.name, g.param), dtype=complex)
            gi = inverse_gate(g)
            mi = np.array(gate_matrix(gi.name, gi.param), dtype=complex)
            assert np.allclose(mi, m.conj().T)

    def test_h_matrix_value(self):
        m = np.array(gate_matrix("h"), dtype=complex)
        s = 1 / math.sqrt(2)
        assert np.allclose(m, [[s, s], [s, -s]])

    def test_matrix_for_measure_rejected(self):
        with pytest.raises(CircuitError):
            gate_matrix("measure")

    def test_param_required(self):
        with pytest.raises(CircuitError):
            gate_matrix("rx")

    def test_all_operations_cover_gate_sets(self):
        assert SINGLE_QUBIT_GATES <= ALL_OPERATIONS
        assert TWO_QUBIT_GATES <= ALL_OPERATIONS
