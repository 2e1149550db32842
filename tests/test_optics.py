import math
import random

import numpy as np
import pytest

import qerase.optics
from conftest import assert_matrix_close, entry_bits, numpy_permutation, random_bloch
from qerase.linalg import diagonal, kron, permute, trace
from qerase.states import BlochVector, ThermalSpec, qubit_from_bloch, thermal_probs
from qerase.channel import _branch_split, circuit_permutation
from qerase.optics import (
    CHANNEL_TO_MODE,
    DEFAULT_CIRCUIT_PERMUTATION,
    HWP,
    MODE_LABELS,
    PBS,
    PHYSICAL_INPUT_INDICES,
    PathDistribution,
    default_erasure_circuit,
    mode_index,
    path_final_closed_form,
    path_marginal,
    polarization_marginal,
    simulate,
    verify_encoding_equivalence,
)

COMPOSED_PERMUTATION = (0, 3, 6, 7, 1, 2, 4, 5)  # frozen before implementation


class TestModeIndex:
    def test_frozen_layout(self):
        assert mode_index(0, 1) == 0
        assert mode_index(0, 4) == 3
        assert mode_index(1, 1) == 4
        assert mode_index(1, 4) == 7

    def test_labels_follow_the_layout(self):
        assert MODE_LABELS[0] == "|H,1>"
        assert MODE_LABELS[5] == "|V,2>"
        assert len(MODE_LABELS) == 8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="polarization"):
            mode_index(2, 1)
        with pytest.raises(ValueError, match="path"):
            mode_index(0, 5)

    def test_rejects_float_arguments(self):
        # 2.0 == 2 passes a membership test, but a mode index must be an int
        with pytest.raises(ValueError, match="path must be in 1..4, got 2.0"):
            mode_index(0, 2.0)
        with pytest.raises(ValueError, match="polarization must be 0 .H. or 1 .V., got 1.0"):
            mode_index(1.0, 2)


class TestElements:
    def test_pbs_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            PBS(2, 2)
        with pytest.raises(ValueError, match="path"):
            PBS(0, 1)

    def test_hwp_validation(self):
        with pytest.raises(ValueError, match="path"):
            HWP(9)

    def test_pbs_rejects_float_paths(self):
        # 1.0 == 1 passes a membership test, but .permutation cannot index with it
        with pytest.raises(ValueError, match="path_a must be in 1..4, got 1.0"):
            PBS(1.0, 2)
        with pytest.raises(ValueError, match="path_b must be in 1..4, got 2.0"):
            PBS(1, 2.0)

    def test_hwp_rejects_float_path(self):
        with pytest.raises(ValueError, match="path must be in 1..4, got 2.0"):
            HWP(2.0)

    def test_pbs_swaps_vertical_only(self):
        assert PBS(1, 2).permutation == (0, 1, 2, 3, 5, 4, 6, 7)

    def test_hwp_flips_polarization_on_one_path(self):
        assert HWP(2).permutation == (0, 5, 2, 3, 4, 1, 6, 7)

    def test_elements_are_involutions(self):
        for element in (PBS(1, 3), HWP(4)):
            u = numpy_permutation(element.permutation)
            np.testing.assert_array_equal(u @ u, np.eye(8))
            np.testing.assert_array_equal(u.T @ u, np.eye(8))

    def test_dispatch_rejects_unknown_element(self):
        with pytest.raises(TypeError, match="optical element"):
            circuit_permutation(("mirror",))


class TestComposition:
    def test_default_circuit_sequence(self):
        assert default_erasure_circuit() == (
            PBS(1, 2),
            HWP(2),
            PBS(2, 4),
            HWP(4),
            PBS(1, 3),
            HWP(3),
        )

    def test_composed_permutation_frozen(self):
        assert circuit_permutation(default_erasure_circuit()) == COMPOSED_PERMUTATION
        assert DEFAULT_CIRCUIT_PERMUTATION == COMPOSED_PERMUTATION
        u = numpy_permutation(COMPOSED_PERMUTATION)
        np.testing.assert_array_equal(u.T @ u, np.eye(8))

    def test_physical_transformations(self):
        u, mode = numpy_permutation(DEFAULT_CIRCUIT_PERMUTATION), np.eye(8)
        assert np.array_equal(u @ mode[mode_index(0, 1)], mode[mode_index(0, 1)])  # H1 -> H1
        assert np.array_equal(u @ mode[mode_index(0, 2)], mode[mode_index(0, 4)])  # H2 -> H4
        assert np.array_equal(u @ mode[mode_index(1, 1)], mode[mode_index(0, 2)])  # V1 -> H2
        assert np.array_equal(u @ mode[mode_index(1, 2)], mode[mode_index(0, 3)])  # V2 -> H3

    def test_first_element_applied_first(self):
        # PBS(1,2) then HWP(2): V1 -> V2 -> H2
        u, mode = numpy_permutation(circuit_permutation((PBS(1, 2), HWP(2)))), np.eye(8)
        assert np.array_equal(u @ mode[mode_index(1, 1)], mode[mode_index(0, 2)])

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            circuit_permutation(())

    def test_numpy_element_product_is_the_composition(self):
        # dense route: the first element is the rightmost factor
        product = np.eye(8)
        for element in default_erasure_circuit():
            product = numpy_permutation(element.permutation) @ product
        np.testing.assert_array_equal(
            product, numpy_permutation(circuit_permutation(default_erasure_circuit()))
        )

    def test_compose_rejects_unknown_element(self):
        with pytest.raises(TypeError, match="optical element"):
            circuit_permutation((PBS(1, 2), "mirror"))


class TestPathDistribution:
    def test_thermal_construction(self):
        dist = PathDistribution.from_beta(math.inf)
        assert (dist.p_1, dist.p_2) == (1.0, 0.0)
        dist = PathDistribution.from_beta(0.0)
        assert (dist.p_1, dist.p_2) == (0.5, 0.5)

    def test_from_beta_is_the_gibbs_weights_of_a_unit_gap_spec(self):
        """The bits of thermal_probs(ThermalSpec(beta=beta)), and the error
        that ThermalSpec raises for a beta it refuses, its type and message."""
        rng = random.Random(71)
        betas = [0.0, 1e-300, 5e-324, 0.1, 1, 10, 745.2, 1e300, math.inf, -1.0, -0.0, -1,
                 -math.inf, math.nan, "x", None]
        betas += [10.0 ** rng.uniform(-12.0, 3.0) for _ in range(500)]
        for beta in betas:
            want = _outcome(lambda: thermal_probs(ThermalSpec(beta=beta)))
            got = _outcome(lambda: PathDistribution.from_beta(beta))
            if isinstance(got, PathDistribution):
                got = (got.p_1, got.p_2)
            assert repr(got) == repr(want), beta
        assert _outcome(lambda: PathDistribution.from_beta(-1)) == (
            "ValueError", "inverse temperature must be >= 0, got -1")

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="probability"):
            PathDistribution(p_1=1.2, p_2=-0.2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PathDistribution(p_1=0.6, p_2=0.6)


class TestSimulation:
    def test_polarization_ends_horizontal(self):
        rng = random.Random(60)
        for _ in range(10):
            pol = random_bloch(rng)
            p1 = rng.random()
            state = simulate(pol, PathDistribution(p_1=p1, p_2=1.0 - p1))
            marginal = polarization_marginal(state)
            assert marginal[0, 0].real >= 1.0 - 1e-12
            assert marginal[1, 1] == 0.0

    def test_trace_preserved(self):
        state = simulate(BlochVector(0.3, 0.1, -0.5), PathDistribution(0.7, 0.3))
        assert trace(state).real == pytest.approx(1.0, abs=1e-14)

    def test_path_marginal_matches_closed_form(self):
        rng = random.Random(61)
        for _ in range(15):
            pol = random_bloch(rng)
            p1 = rng.random()
            dist = PathDistribution(p_1=p1, p_2=1.0 - p1)
            marginal = path_marginal(simulate(pol, dist))
            closed = path_final_closed_form(pol, dist)
            worst = max(
                abs(marginal[i, j] - closed[i, j]) for i in range(4) for j in range(4)
            )
            assert worst < 1e-12

    def test_closed_form_by_hand(self):
        # pol = (0.6, 0, 0.8), p1 = 2/3
        rho = path_final_closed_form(
            BlochVector(0.6, 0.0, 0.8), PathDistribution(2.0 / 3.0, 1.0 / 3.0)
        )
        assert rho[0, 0] == pytest.approx(0.6, abs=1e-15)
        assert rho[1, 1] == pytest.approx(0.1 * 2 / 3, abs=1e-15)
        assert rho[2, 2] == pytest.approx(0.1 / 3, abs=1e-15)
        assert rho[3, 3] == pytest.approx(0.3, abs=1e-15)
        assert rho[0, 1] == pytest.approx(0.2, abs=1e-15)
        assert rho[3, 2] == pytest.approx(0.1, abs=1e-15)
        assert rho[0, 2] == 0.0 and rho[0, 3] == 0.0

    def test_coherences_carry_imaginary_parts(self):
        pol = BlochVector(0.0, 0.5, 0.0)
        rho = path_final_closed_form(pol, PathDistribution(1.0, 0.0))
        assert rho[0, 1] == pytest.approx(-0.25j, abs=1e-15)
        assert rho[1, 0] == pytest.approx(0.25j, abs=1e-15)

    def test_one_gather_has_the_bits_of_kron_then_permute(self):
        rng = random.Random(62)
        pols = [BlochVector(0.0, -0.0, 1.0), BlochVector(-0.0, 0.0, -0.0),
                BlochVector(0.6, -0.0, -0.8), BlochVector(-0.0, -0.5, 0.0)]
        pols += [random_bloch(rng) for _ in range(20)]
        for pol in pols:
            for p1 in (1.0, 0.75, rng.random()):  # p1 = 1 gives p2 = 0
                dist = PathDistribution(p_1=p1, p_2=1.0 - p1)
                want = permute(kron(qubit_from_bloch(pol), diagonal([p1, dist.p_2, 0, 0])),
                               DEFAULT_CIRCUIT_PERMUTATION)
                assert entry_bits(simulate(pol, dist)) == entry_bits(want)

    def test_path_closed_form_has_the_bits_of_split_then_permute(self):
        rng = random.Random(63)
        pols = [BlochVector(0.0, -0.0, 1.0), BlochVector(-0.0, 0.0, -0.0),
                BlochVector(0.6, -0.0, -0.8), BlochVector(-0.0, -0.5, 0.0)]
        pols += [random_bloch(rng) for _ in range(20)]
        for pol in pols:
            for p1 in (1.0, 0.0, 0.75, rng.random()):
                dist = PathDistribution(p_1=p1, p_2=1.0 - p1)
                want = permute(_branch_split(pol, p1, dist.p_2), CHANNEL_TO_MODE[:4])
                got = path_final_closed_form(pol, dist)
                assert got == want and entry_bits(got) == entry_bits(want)

    def test_single_path_input_stays_normalized(self):
        state = simulate(BlochVector(0, 0, 1), PathDistribution(1.0, 0.0))
        # |H,1> input is a fixed point of the circuit
        assert state[0, 0] == 1.0


class TestEncodingEquivalence:
    def test_index_translation_frozen(self):
        assert CHANNEL_TO_MODE == (0, 2, 1, 3, 4, 6, 5, 7)

    def test_physical_indices_are_the_l0_sector(self):
        assert PHYSICAL_INPUT_INDICES == (0, 2, 4, 6)
        assert all(i % 2 == 0 for i in PHYSICAL_INPUT_INDICES)

    def test_encodings_agree(self):
        assert verify_encoding_equivalence() == ()
        assert DEFAULT_CIRCUIT_PERMUTATION == COMPOSED_PERMUTATION

    def test_mismatch_names_the_input_and_both_images(self, monkeypatch):
        # a circuit with no element leaves every mode in place
        monkeypatch.setattr(qerase.optics, "DEFAULT_CIRCUIT_PERMUTATION", tuple(range(8)))
        assert verify_encoding_equivalence() == (
            "input |H,2>: circuit sends it to |H,2>, channel says |H,4>",
            "input |V,1>: circuit sends it to |V,1>, channel says |H,2>",
            "input |V,2>: circuit sends it to |V,2>, channel says |H,3>",
        )

    def test_optical_state_mirrors_reservoir_state(self):
        # path populations (1, 2, 3, 4) correspond to reservoir levels
        # (g l0, e l0, g l1, e l1); check one relabeled entry
        from qerase.channel import reservoir_final_closed_form
        from qerase.states import ThermalSpec

        b = BlochVector(0.4, -0.3, 0.2)
        spec = ThermalSpec.from_beta(1.1)
        reservoir = reservoir_final_closed_form(b, spec)
        dist = PathDistribution.from_beta(1.1)
        optical = path_final_closed_form(b, dist)
        relabel = {0: 0, 1: 2, 2: 1, 3: 3}  # path slot -> reservoir slot
        for i in range(4):
            for j in range(4):
                assert optical[i, j] == pytest.approx(
                    reservoir[relabel[i], relabel[j]], abs=1e-15
                )


def _outcome(call):
    """call()'s result, or the type name and message of what it raised."""
    try:
        return call()
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
