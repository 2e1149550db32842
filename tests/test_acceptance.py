"""End-to-end acceptance battery.

Each test covers one numbered criterion and emits a single
"ACCEPTANCE nn PASS/FAIL" line (replayed in the terminal summary).
Independent routes use numpy so that no criterion is checked against
the same code path that produced the value.
"""

import csv
import itertools
import math
import random
import time

import numpy as np
import pytest

from conftest import numpy_permutation, random_bloch, to_numpy
from qerase.channel import (
    ERASURE_PERMUTATION,
    apply_channel,
    build_circuit,
    circuit_permutation,
    final_state_closed_form,
    memory_ground_fidelity,
    reservoir_final_closed_form,
)
from qerase.cli import main
from qerase.optics import (
    PathDistribution,
    default_erasure_circuit,
    mode_index,
    path_final_closed_form,
    path_marginal,
    simulate,
    verify_encoding_equivalence,
)
from qerase.states import (
    BlochVector,
    ThermalSpec,
    composite_initial,
    qubit_from_bloch,
)
from qerase.thermo import (
    commutator_norm,
    entropy_decrease,
    heat_memory,
    heat_reservoir,
    landauer_check,
    limit_temperature,
    photon_energy,
)

BETA_GRID = (0.0, 0.1, 1.0, 10.0, math.inf)
POL_H = 0  # polarization index of |H> in the mode layout

UNIT_GAP = ThermalSpec.from_beta(1.0)  # delta = k_B = 1; Q_M and T_limit ignore beta
H_MEMORY_NP = np.diag([0.0, 1.0])
H_RESERVOIR_NP = np.diag([0.0, 0.0, 1.0, 1.0])
H_TOTAL_NP = np.kron(H_MEMORY_NP, np.eye(4)) + np.kron(np.eye(2), H_RESERVOIR_NP)
ERASURE_NP = numpy_permutation(ERASURE_PERMUTATION)


@pytest.fixture(scope="module")
def draws():
    """1000 seeded (Bloch vector, beta) pairs shared by criteria 2, 3, 6, 8."""
    rng = random.Random(20240801)
    betas = itertools.cycle(BETA_GRID)
    return [(random_bloch(rng), beta) for beta, _ in zip(betas, range(1000))]


def propagate_numpy(rho):
    """U rho U+ with the dense erasure unitary."""
    return ERASURE_NP @ rho @ ERASURE_NP.conj().T


def memory_marginal_numpy(rho8):
    return np.einsum("mrnr->mn", rho8.reshape(2, 4, 2, 4))


def reservoir_marginal_numpy(rho8):
    return np.einsum("mrms->rs", rho8.reshape(2, 4, 2, 4))


class TestCriterion1:
    def test_limit_temperature_classical_bit(self, criterion):
        with criterion(1, "limit temperature: 12 digits natural, ~10 K in SI"):
            start = time.perf_counter()
            natural = limit_temperature(BlochVector(), UNIT_GAP)
            target = 1.0 / math.log(4.0)
            assert f"{natural:.12g}" == f"{target:.12g}"
            assert abs(natural - target) <= 1e-12 * target

            si_gap = ThermalSpec.from_beta(1.0, delta=1.986e-22, k_B=1.380649e-23)
            kelvin = limit_temperature(BlochVector(), si_gap)
            elapsed = time.perf_counter() - start
            assert 9.9 <= kelvin <= 10.9
            assert elapsed < 1.0


class TestCriterion2:
    def test_erasure_totality(self, criterion, draws):
        with criterion(2, "all 1000 draws erased to |g> within 1e-12, < 1 s"):
            start = time.perf_counter()
            worst = 1.0
            for b, beta in draws:
                rho = composite_initial(b, ThermalSpec.from_beta(beta))
                fidelity = memory_ground_fidelity(apply_channel(rho))
                worst = min(worst, fidelity)
            elapsed = time.perf_counter() - start
            assert worst >= 1.0 - 1e-12
            assert elapsed < 1.0


class TestCriterion3:
    def test_closed_form_matches_numpy_propagation(self, criterion, draws):
        with criterion(3, "closed-form final state == U rho U+ within 1e-12"):
            worst = 0.0
            for b, beta in draws:
                spec = ThermalSpec.from_beta(beta)
                rho = to_numpy(composite_initial(b, spec))
                propagated = propagate_numpy(rho)
                closed = to_numpy(final_state_closed_form(b, spec))
                worst = max(worst, float(np.abs(closed - propagated).max()))
                reservoir_closed = to_numpy(reservoir_final_closed_form(b, spec))
                reservoir_traced = reservoir_marginal_numpy(propagated)
                worst = max(
                    worst, float(np.abs(reservoir_closed - reservoir_traced).max())
                )
            assert worst < 1e-12


class TestCriterion4:
    def test_four_cnot_synthesis_is_exact(self, criterion):
        with criterion(4, "4-CNOT product reproduces the unitary exactly"):
            gates = build_circuit()
            assert len(gates) == 4
            product = np.eye(8)  # the first gate is the rightmost factor
            for gate in gates:
                product = numpy_permutation(gate.permutation) @ product
            assert np.linalg.norm(product - ERASURE_NP) == 0.0
            assert circuit_permutation(gates) == ERASURE_PERMUTATION


class TestCriterion5:
    def test_entropy_closed_form_and_concavity(self, criterion):
        with criterion(5, "entropy drop: spectral match, exact endpoints, concave"):
            grid = [k / 999 for k in range(1000)]
            closed = []
            for r in grid:
                b = BlochVector(0.6 * r, 0.0, 0.8 * r)
                value = entropy_decrease(b)
                closed.append(value)
                eigenvalues = np.linalg.eigvalsh(to_numpy(qubit_from_bloch(b)))
                spectral = -sum(lam * math.log(lam) for lam in eigenvalues if lam > 0.0)
                assert abs(value - spectral) < 1e-10

            assert abs(entropy_decrease(BlochVector()) - math.log(2.0)) <= 1e-12
            assert abs(entropy_decrease(BlochVector(0.0, 0.0, 1.0))) <= 1e-12

            for k in range(1, 999):
                assert closed[k + 1] - 2.0 * closed[k] + closed[k - 1] <= 1e-9


class TestCriterion6:
    def test_heat_formulas_against_trace_routes(self, criterion, draws):
        with criterion(6, "heats match trace routes; Q_M beta-free; Q_R=-Q_M at T=0"):
            # one full beta sweep per distinct Bloch draw: 200 states x 5 betas
            states = [b for b, beta in draws if beta == 0.0]
            assert len(states) == 200
            for b in states:
                q_memory_by_beta = []
                for beta in BETA_GRID:
                    spec = ThermalSpec.from_beta(beta)
                    rho_i = to_numpy(composite_initial(b, spec))
                    rho_f = propagate_numpy(rho_i)
                    m_i = memory_marginal_numpy(rho_i)
                    m_f = memory_marginal_numpy(rho_f)
                    r_i = reservoir_marginal_numpy(rho_i)
                    r_f = reservoir_marginal_numpy(rho_f)
                    q_m_trace = float(np.trace(H_MEMORY_NP @ (m_f - m_i)).real)
                    q_r_trace = float(np.trace(H_RESERVOIR_NP @ (r_f - r_i)).real)
                    assert abs(heat_memory(b, UNIT_GAP) - q_m_trace) < 1e-12
                    assert abs(heat_reservoir(b, spec) - q_r_trace) < 1e-12
                    q_memory_by_beta.append(q_m_trace)
                assert max(q_memory_by_beta) - min(q_memory_by_beta) < 1e-12
                zero_t = ThermalSpec.from_beta(math.inf)
                assert heat_reservoir(b, zero_t) == -heat_memory(b, UNIT_GAP)


class TestCriterion7:
    def test_landauer_verdict_flips_at_the_limit(self, criterion):
        with criterion(7, "verdict flips exactly once, at T_l within 1e-9"):
            b = BlochVector()
            t_limit = limit_temperature(b, UNIT_GAP)
            q_m = heat_memory(b, UNIT_GAP)
            delta_s = entropy_decrease(b)

            temperature = 0.5 * t_limit
            verdicts = []
            while temperature <= 1.5 * t_limit + 1e-15:
                verdicts.append(
                    (temperature, landauer_check(q_m, temperature, delta_s).violated)
                )
                temperature += 1e-3

            flips = [
                (verdicts[k - 1], verdicts[k])
                for k in range(1, len(verdicts))
                if verdicts[k][1] != verdicts[k - 1][1]
            ]
            assert len(flips) == 1
            (t_below, v_below), (t_above, v_above) = flips[0]
            assert not v_below and v_above
            assert t_below <= t_limit <= t_above

            # transition point is T_l itself, to 1e-9 relative
            assert not landauer_check(q_m, t_limit * (1 - 1e-9), delta_s).violated
            assert landauer_check(q_m, t_limit * (1 + 1e-9), delta_s).violated


class TestCriterion8:
    def test_energy_is_not_conserved_but_accounted(self, criterion, draws):
        with criterion(8, "nonzero commutator; deficit = photon energy to 1e-12"):
            norm = commutator_norm(ERASURE_PERMUTATION, UNIT_GAP)
            assert norm > 0.0
            assert abs(norm - 2.0 * math.sqrt(2.0)) <= 1e-12

            for b, beta in draws[:200]:
                spec = ThermalSpec.from_beta(beta)
                rho_i = to_numpy(composite_initial(b, spec))
                rho_f = propagate_numpy(rho_i)
                deficit = float(np.trace(H_TOTAL_NP @ (rho_i - rho_f)).real)
                assert abs(deficit - photon_energy(b, spec)) < 1e-12


class TestCriterion9:
    def test_optical_realization(self, criterion):
        with criterion(9, "optical circuit: exact mode map, marginals, encoding"):
            u = numpy_permutation(circuit_permutation(default_erasure_circuit()))
            mode = np.eye(8)
            assert np.array_equal(u @ mode[mode_index(0, 1)], mode[mode_index(0, 1)])  # H1 -> H1
            assert np.array_equal(u @ mode[mode_index(0, 2)], mode[mode_index(0, 4)])  # H2 -> H4
            assert np.array_equal(u @ mode[mode_index(1, 1)], mode[mode_index(0, 2)])  # V1 -> H2
            assert np.array_equal(u @ mode[mode_index(1, 2)], mode[mode_index(0, 3)])  # V2 -> H3

            rng = random.Random(13)
            for _ in range(50):
                pol = random_bloch(rng)
                dist = PathDistribution.from_beta(rng.uniform(0.0, 10.0))
                marginal = to_numpy(path_marginal(simulate(pol, dist)))
                closed = to_numpy(path_final_closed_form(pol, dist))
                assert float(np.abs(marginal - closed).max()) < 1e-12

            assert verify_encoding_equivalence() == ()


class TestCriterion10:
    def test_sweep_map_is_fast_and_monotone(self, criterion, tmp_path):
        with criterion(10, "64x64 sweep < 5 s; T_limit decreasing in r_z"):
            out = tmp_path / "map.csv"
            start = time.perf_counter()
            code = main(
                [
                    "sweep",
                    "--r",
                    "0.5",
                    "--n-theta",
                    "64",
                    "--n-phi",
                    "64",
                    "--output",
                    str(out),
                ]
            )
            elapsed = time.perf_counter() - start
            assert code == 0
            assert elapsed < 5.0

            with out.open() as handle:
                rows = list(csv.DictReader(handle))
            assert len(rows) == 64 * 64
            # theta-major layout: meridian j (fixed phi) is rows[j::64];
            # r_z falls with theta, so T_limit must rise strictly.
            for j in range(64):
                meridian = rows[j::64]
                assert len(meridian) == 64
                r_z = [float(row["r_z"]) for row in meridian]
                t_l = [float(row["T_limit"]) for row in meridian]
                assert all(a > b for a, b in zip(r_z, r_z[1:]))
                assert all(a < b for a, b in zip(t_l, t_l[1:]))
