import math
import random

import numpy as np
import pytest

from conftest import (
    assert_matrix_close,
    numpy_permutation,
    random_bloch,
    random_matrix,
    to_numpy,
)
from qerase.linalg import ComplexMatrix, diagonal, trace
from qerase.states import BlochVector, ThermalSpec, composite_initial, qubit_from_bloch
from qerase.channel import (
    ANCILLA,
    ENERGY,
    ERASURE_PERMUTATION,
    MEMORY,
    CnotGate,
    apply_channel,
    build_circuit,
    circuit_permutation,
    final_state_closed_form,
    memory_ground_fidelity,
    memory_marginal,
    reservoir_final_closed_form,
    reservoir_marginal,
)

BETAS = (0.0, 0.1, 1.0, 10.0, math.inf)


class TestErasureUnitary:
    def test_frozen_permutation(self):
        # the one hand-written copy of the tuple: qerase derives it from the
        # bit formula, and the CNOT circuit is checked against it below
        assert ERASURE_PERMUTATION == (0, 5, 3, 6, 2, 7, 1, 4)

    def test_every_entry(self):
        # the channel's image of each basis projector against the independent
        # numpy matrix, which has a single 1 in each column
        u = numpy_permutation(ERASURE_PERMUTATION)
        for col in range(8):
            assert [row for row in range(8) if u[row, col] == 1.0] == [ERASURE_PERMUTATION[col]]
            projector = np.diag(np.eye(8)[col])
            got = apply_channel(diagonal(np.eye(8)[col].tolist()))
            np.testing.assert_array_equal(to_numpy(got), u @ projector @ u.T)

    def test_bit_action(self):
        # (m, e, a) -> (a, m xor e, e xor a), read off the channel itself
        for m in range(2):
            for e in range(2):
                for a in range(2):
                    col = 4 * m + 2 * e + a
                    row = 4 * a + 2 * (m ^ e) + (e ^ a)
                    basis = diagonal([1.0 if i == col else 0.0 for i in range(8)])
                    assert apply_channel(basis)[row, row] == 1.0

    def test_unitarity(self):
        u = numpy_permutation(ERASURE_PERMUTATION)
        np.testing.assert_array_equal(u.conj().T @ u, np.eye(8))

    def test_inverse_permutation(self):
        inverse = tuple(ERASURE_PERMUTATION.index(i) for i in range(8))
        assert inverse == (0, 6, 4, 2, 7, 1, 3, 5)
        u_dagger = numpy_permutation(ERASURE_PERMUTATION).conj().T
        for col in range(8):
            assert u_dagger[inverse[col], col] == 1.0

    def test_order_seven(self):
        # 0 is fixed; the other indices form a single 7-cycle
        u = numpy_permutation(ERASURE_PERMUTATION)
        np.testing.assert_array_equal(np.linalg.matrix_power(u, 7), np.eye(8))
        for k in range(1, 7):
            assert not np.array_equal(np.linalg.matrix_power(u, k), np.eye(8))


class TestCnotSynthesis:
    def test_gate_validation(self):
        with pytest.raises(ValueError, match="differ"):
            CnotGate(control=ENERGY, target=ENERGY)
        with pytest.raises(ValueError, match="one of"):
            CnotGate(control=3, target=0)

    def test_gate_rejects_float_subsystems(self):
        # 1.0 == 1, but a float bit index cannot shift: reject it up front
        with pytest.raises(ValueError, match="control must be one of"):
            CnotGate(control=1.0, target=2)
        with pytest.raises(ValueError, match="target must be one of"):
            CnotGate(control=1, target=2.0)

    def test_cnot_action(self):
        # control memory, target energy: |1,0,0> -> |1,1,0>
        u = numpy_permutation(CnotGate(control=MEMORY, target=ENERGY).permutation)
        assert u[6, 4] == 1.0 and u[4, 6] == 1.0
        assert u[0, 0] == 1.0
        np.testing.assert_array_equal(u.T @ u, np.eye(8))

    def test_cnot_is_involution(self):
        u = numpy_permutation(CnotGate(control=ANCILLA, target=MEMORY).permutation)
        np.testing.assert_array_equal(u @ u, np.eye(8))

    def test_circuit_is_four_gates_in_fixed_order(self):
        gates = build_circuit()
        assert [(g.control, g.target) for g in gates] == [
            (ENERGY, ANCILLA),
            (MEMORY, ENERGY),
            (ENERGY, MEMORY),
            (ANCILLA, MEMORY),
        ]

    def test_circuit_reproduces_unitary_exactly(self):
        assert circuit_permutation(build_circuit()) == ERASURE_PERMUTATION
        dense = numpy_permutation(circuit_permutation(build_circuit()))
        assert np.linalg.norm(dense - numpy_permutation(ERASURE_PERMUTATION)) == 0.0

    def test_first_gate_applied_first(self):
        gates = (
            CnotGate(control=MEMORY, target=ENERGY),
            CnotGate(control=ENERGY, target=ANCILLA),
        )
        # start from |1,0,0>: first M->E gives |1,1,0>, then E->A gives |1,1,1>
        assert circuit_permutation(gates)[4] == 7

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            circuit_permutation(())

    def test_numpy_gate_product_is_the_unitary(self):
        # dense route: the first gate is the rightmost factor
        product = np.eye(8)
        for gate in build_circuit():
            product = numpy_permutation(gate.permutation) @ product
        np.testing.assert_array_equal(product, numpy_permutation(ERASURE_PERMUTATION))
        np.testing.assert_array_equal(
            product, numpy_permutation(circuit_permutation(build_circuit()))
        )


class TestApplyChannel:
    def test_ground_input_is_fixed_point(self):
        rho = composite_initial(BlochVector(0, 0, 1), ThermalSpec.from_beta(math.inf))
        assert apply_channel(rho) == rho

    def test_matches_numpy_conjugation(self):
        rng = random.Random(42)
        u = numpy_permutation(ERASURE_PERMUTATION)
        for k in range(25):
            b = random_bloch(rng)
            spec = ThermalSpec.from_beta(BETAS[k % len(BETAS)])
            rho = composite_initial(b, spec)
            want = u @ to_numpy(rho) @ u.conj().T
            assert_matrix_close(apply_channel(rho), want, atol=1e-15)

    def test_memory_is_reset(self):
        rng = random.Random(43)
        for k in range(10):
            b = random_bloch(rng)
            spec = ThermalSpec.from_beta(BETAS[k % len(BETAS)])
            final = apply_channel(composite_initial(b, spec))
            assert memory_ground_fidelity(final) >= 1.0 - 1e-12
            marginal = memory_marginal(final)
            assert marginal[1, 1] == 0.0
            assert marginal[0, 1] == 0.0

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="8"):
            apply_channel(diagonal([0.5, 0.5]))

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError, match="trace"):
            apply_channel(diagonal([1.0] * 8))


class TestMemoryGroundFidelity:
    def test_bits_of_the_marginal_entry(self):
        # the terms of entry (0, 0) are the diagonal entries 0..3; in half
        # the draws each part of each is a zero of either sign
        rng = random.Random(44)
        for k in range(200):
            m = random_matrix(rng, 8)
            if k % 2:
                flat = list(m._flat)
                for t in range(4):
                    flat[9 * t] = complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
                m = ComplexMatrix(zip(*[iter(flat)] * 8))
            want = memory_marginal(m)[0, 0].real
            assert memory_ground_fidelity(m).hex() == want.hex()

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            memory_ground_fidelity(diagonal([1.0, 0.0, 0.0, 0.0]))

    def test_overflow_in_the_read_entry_raises(self):
        with pytest.raises(ValueError, match="finite"):
            memory_ground_fidelity(diagonal([1e308, 1e308] + [0.0] * 6))

    def test_overflow_in_an_unread_entry_is_not_seen(self):
        # the narrowed behaviour: only <g| tr_R rho |g> is summed and checked
        m = diagonal([0.5, 0.5, 0.0, 0.0, 1e308, 1e308, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            memory_marginal(m)
        assert memory_ground_fidelity(m) == 1.0


class TestClosedForm:
    def test_matches_propagation(self):
        rng = random.Random(44)
        for k in range(25):
            b = random_bloch(rng)
            spec = ThermalSpec.from_beta(BETAS[k % len(BETAS)])
            propagated = apply_channel(composite_initial(b, spec))
            closed = final_state_closed_form(b, spec)
            worst = max(
                abs(propagated[i, j] - closed[i, j])
                for i in range(8)
                for j in range(8)
            )
            assert worst < 1e-12

    def test_reservoir_entries_by_hand(self):
        # b = (0.6, 0, 0.8), beta*delta = ln 2 so (p_g, p_e) = (2/3, 1/3)
        rho = reservoir_final_closed_form(
            BlochVector(0.6, 0.0, 0.8), ThermalSpec.from_beta(math.log(2.0))
        )
        assert rho[0, 0] == pytest.approx(0.9 * 2 / 3, abs=1e-15)
        assert rho[2, 2] == pytest.approx(0.1 * 2 / 3, abs=1e-15)
        assert rho[3, 3] == pytest.approx(0.9 / 3, abs=1e-15)
        assert rho[1, 1] == pytest.approx(0.1 / 3, abs=1e-15)
        assert rho[0, 2] == pytest.approx(0.3 * 2 / 3, abs=1e-15)
        assert rho[3, 1] == pytest.approx(0.3 / 3, abs=1e-15)
        assert rho[1, 0] == rho[2, 3] == 0.0
        assert trace(rho) == pytest.approx(1.0, abs=1e-15)

    def test_full_state_factorizes(self):
        b = BlochVector(0.2, -0.3, 0.1)
        spec = ThermalSpec.from_beta(2.0)
        full = final_state_closed_form(b, spec)
        assert memory_marginal(full)[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert_matrix_close(
            reservoir_marginal(full), reservoir_final_closed_form(b, spec), atol=1e-15
        )

    def test_pure_coherent_zero_temperature(self):
        # |+> memory at T = 0 leaves the reservoir in a pure superposition
        rho = reservoir_final_closed_form(
            BlochVector(1.0, 0.0, 0.0), ThermalSpec.from_beta(math.inf)
        )
        for i, j, want in (
            (0, 0, 0.5),
            (2, 2, 0.5),
            (0, 2, 0.5),
            (2, 0, 0.5),
            (1, 1, 0.0),
            (3, 3, 0.0),
        ):
            assert rho[i, j] == want

    def test_erased_along_z_keeps_populations_only(self):
        rho = reservoir_final_closed_form(
            BlochVector(0.0, 0.0, 1.0), ThermalSpec.from_beta(1.0)
        )
        p_g = 1.0 / (1.0 + math.exp(-1.0))
        assert rho[0, 0] == pytest.approx(p_g, abs=1e-15)
        assert rho[3, 3] == pytest.approx(1.0 - p_g, abs=1e-15)
        assert rho[0, 2] == 0.0

    def test_bloch_data_survives_in_reservoir(self):
        # the erased coherence reappears between the reservoir levels
        b = BlochVector(0.3, 0.25, -0.1)
        mem = qubit_from_bloch(b)
        rho = reservoir_final_closed_form(b, ThermalSpec.from_beta(math.inf))
        assert rho[0, 2] == mem[0, 1]
        assert rho[0, 0] == mem[0, 0]
        assert rho[2, 2] == mem[1, 1]
