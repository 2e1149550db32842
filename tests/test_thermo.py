import ast
import collections
import decimal
import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qerase.channel
import qerase.linalg
import qerase.thermo
from qerase.cli import main
from conftest import (
    decimal_qubit_spectrum,
    numpy_permutation,
    raised,
    random_bloch,
    random_density,
    to_numpy,
)
from qerase.linalg import (
    EIGENVALUE_FLOOR,
    ComplexMatrix,
    _matrix,
    density_matrix,
    diagonal,
    hermitian_eigenvalues,
    permute,
)
from qerase.states import (
    BlochVector,
    ThermalSpec,
    _reservoir_diagonal,
    composite_initial,
    qubit_from_bloch,
)
from qerase.channel import ERASURE_PERMUTATION, apply_channel, memory_marginal, reservoir_marginal
from qerase.thermo import (
    _COMPOSITE_LEVELS,
    _MEMORY_LEVELS,
    _RESERVOIR_LEVELS,
    ErasureReport,
    analyze,
    commutator_norm,
    entropy_decrease,
    heat_memory,
    heat_reservoir,
    landauer_check,
    limit_temperature,
    photon_energy,
    von_neumann_entropy,
)

LN2 = math.log(2.0)
LN4 = math.log(4.0)

# frozen reference values, computed independently before implementation
DS_HALF = 0.5623351446188083
T_LIMIT_MIXED = 0.7213475204444817  # 1/ln 4
T_LIMIT_RZ_HALF = 0.4445747387342618
T_LIMIT_SI_KELVIN = 10.3762518612822  # gap 1.986e-22 J
COMMUTATOR_NORM = 2.8284271247461903  # 2 sqrt(2)
# each closed form that analyze cross-checks, and the name its error gives
CLOSED_FORMS = [
    ("entropy_decrease", "entropy decrease"),
    ("heat_memory", "memory heat"),
    ("heat_reservoir", "reservoir heat"),
    ("photon_energy", "photon energy"),
    ("limit_temperature", "limit temperature"),
]


def gap_form(name: str) -> str:
    """The function `analyze` calls for the closed form `name`: its twin in
    units of the gap, `_name`, or `entropy_decrease` itself, which has none."""
    return name if name == "entropy_decrease" else "_" + name


radii = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def numpy_hamiltonians(delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Memory, reservoir (index 2e + a) and composite Hamiltonians at gap
    delta, ground levels at 0, built in numpy."""
    h_m = np.diag([0.0, delta])
    h_r = np.diag([0.0, 0.0, delta, delta])
    return h_m, h_r, np.kron(h_m, np.eye(4)) + np.kron(np.eye(2), h_r)


class TestHamiltonians:
    """Each Hamiltonian is diagonal: its level energies on the composite
    basis index 4m + 2e + a."""

    def test_default_spectrum(self):
        assert _MEMORY_LEVELS == (0, 0, 0, 0, 1, 1, 1, 1)
        assert _RESERVOIR_LEVELS == (0, 0, 1, 1, 0, 0, 1, 1)
        assert _COMPOSITE_LEVELS == (0, 0, 1, 1, 1, 1, 2, 2)

    def test_total_is_sum_of_local_terms(self):
        assert _COMPOSITE_LEVELS == tuple(map(sum, zip(_MEMORY_LEVELS, _RESERVOIR_LEVELS)))
        total = [0.7 * n for n in _COMPOSITE_LEVELS]
        assert np.array_equal(np.diag(total), numpy_hamiltonians(0.7)[2])


class TestVonNeumannEntropy:
    def test_pure_state_has_zero_entropy(self):
        assert von_neumann_entropy(diagonal([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(diagonal([0.5, 0.5])) == LN2

    def test_maximally_mixed_four_level(self):
        assert von_neumann_entropy(diagonal([0.25] * 4)) == pytest.approx(LN4, abs=1e-15)

    def test_known_mixed_qubit(self):
        rho = ComplexMatrix([[0.5, 0.25], [0.25, 0.5]])  # eigenvalues 0.25, 0.75
        assert von_neumann_entropy(rho) == pytest.approx(DS_HALF, abs=1e-14)

    def test_basis_invariance(self):
        rng = random.Random(50)
        b = random_bloch(rng)
        rotated = qubit_from_bloch(b)
        axis_aligned = qubit_from_bloch(BlochVector(0.0, 0.0, b.r))
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(axis_aligned), abs=1e-13
        )

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError, match="trace"):
            von_neumann_entropy(diagonal([1.0, 1.0]))


def _public_route_entropy(rho):
    """The public route: -sum lam ln lam over
    hermitian_eigenvalues(density_matrix(rho)), ascending."""
    s = 0.0
    for lam in hermitian_eigenvalues(density_matrix(rho)):
        if lam > 0.0:
            s -= lam * math.log(lam)
    return max(s, 0.0)


def _bench_workloads():
    """perfbench/workloads.py, loaded by path: the seeded analyze batches."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("qerase_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


def _block_state(rng, n):
    """An n x n density matrix made of random full-rank blocks of 1 to 4
    indices, weighted, then relabeled by a random permutation."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(4, n - sum(sizes))))
    weights = [rng.random() + 0.05 for _ in sizes]
    rows = [[0j] * n for _ in range(n)]
    at = 0
    for k, w in zip(sizes, weights):
        block = random_density(rng, k).rows
        for i in range(k):
            for j in range(k):
                rows[at + i][at + j] = block[i][j] * (w / sum(weights))
        at += k
    perm = list(range(n))
    rng.shuffle(perm)
    return permute(ComplexMatrix(rows), perm)


def _decimal_entropy(rho):
    """-sum lam ln lam over `decimal_qubit_spectrum(rho)`, in 50-digit
    decimal arithmetic. Negative eigenvalues count as zeros, as in
    von_neumann_entropy. Returns the entropy and the exact eigenvalues."""
    spectrum = decimal_qubit_spectrum(rho)
    with decimal.localcontext(decimal.Context(prec=50)):
        s = -sum(lam * lam.ln() for lam in spectrum if lam > 0)
        return max(s, decimal.Decimal(0)), spectrum


def _entropy_bound(spectrum):
    """What rounding the spectrum allows. Each eigenvalue is within
    e = ulp(1) of exact (pinned on 2x2 density blocks in test_linalg), and
    moving lam by e moves -lam ln lam by about e (|ln lam| + 1); below e
    the slope is read at e, where the term is at most e |ln e|. One more e
    per eigenvalue covers the rounding of its term and of the sum."""
    e = math.ulp(1.0)
    return sum(e * (abs(math.log(max(float(lam), e))) + 2) for lam in spectrum)


class TestEntropyFromTheValidationPass:
    """von_neumann_entropy reads the spectrum off density_matrix's blocks: a
    qubit keeps the bits of the public `hermitian_eigenvalues` route and
    agrees with a 50-digit decimal evaluation of -sum lam ln lam, and larger
    block states agree with numpy."""

    @staticmethod
    def assert_same_bits(rho):
        assert von_neumann_entropy(rho).hex() == _public_route_entropy(rho).hex()

    @staticmethod
    def assert_near_decimal(rho):
        want, spectrum = _decimal_entropy(rho)
        error = abs(decimal.Decimal(von_neumann_entropy(rho)) - want)
        assert error <= decimal.Decimal(_entropy_bound(spectrum))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_memory_states_of_the_analyze_batches(self, seed):
        workloads = _bench_workloads()
        matched = 0
        for draw in workloads.analyze_batch(seed):
            b = BlochVector(*draw.bloch)
            if draw.si:
                spec = ThermalSpec.from_temperature(draw.temperature, draw.delta, draw.k_B)
            else:
                spec = ThermalSpec.from_beta(draw.beta)
            final = memory_marginal(apply_channel(composite_initial(b, spec)))
            for rho in (qubit_from_bloch(b), final):
                self.assert_same_bits(rho)
                self.assert_near_decimal(rho)
                matched += 1
        assert matched == 2 * workloads.BATCH

    def test_near_pure_diagonal_and_one_sided_links(self):
        rng = random.Random(71)
        states = []
        for k in range(1, 17):
            r = 1.0 - 10.0**-k
            states.append(qubit_from_bloch(BlochVector(0.0, 0.0, r)))
            x, y, z = (rng.gauss(0.0, 1.0) for _ in range(3))
            norm = math.sqrt(x * x + y * y + z * z)
            states.append(qubit_from_bloch(BlochVector(r * x / norm, r * y / norm, r * z / norm)))
        for p in (0.0, -0.0, 1e-300, 1e-13, 0.25, 0.5, 0.75, 1.0):
            states.append(diagonal([p, 1.0 - p]))
            states.append(diagonal([1.0 - p, p]))
        for a in (EIGENVALUE_FLOOR + 2.5e-14, 0.0, 1e-13, 0.3, 0.5):
            for link in ((1e-13, 0.0), (0.0, 1e-13), (1e-13j, 0.0), (0.0, -1e-13j)):
                states.append(ComplexMatrix([[a, link[0]], [link[1], 1.0 - a]]))
        for rho in states:
            self.assert_same_bits(rho)
            self.assert_near_decimal(rho)

    def test_block_states_match_numpy(self):
        # both routes round each eigenvalue within a few u, weighted in the
        # sum by |ln lam + 1|: measured worst 4 ulp of 1 here. The composite
        # states' empty l1 rows give exact zeros, which eigvalsh returns as
        # noise of order u, each adding about u |ln u|; below n u they count as 0
        rng = random.Random(72)
        states = [_block_state(rng, n) for n in (4, 8) for _ in range(150)]
        for _ in range(30):
            rho = composite_initial(random_bloch(rng), ThermalSpec.from_beta(rng.uniform(0, 5)))
            states += [rho, apply_channel(rho)]
        for rho in states:
            lam = np.linalg.eigvalsh(to_numpy(rho))
            noise = rho.dim * math.ulp(1.0)
            want = -math.fsum(float(x) * math.log(x) for x in lam if x > noise)
            assert abs(von_neumann_entropy(rho) - want) <= 8 * math.ulp(1.0)


class TestEntropyDecrease:
    def test_endpoints_exact(self):
        assert entropy_decrease(BlochVector()) == LN2
        assert entropy_decrease(BlochVector(1.0, 0.0, 0.0)) == 0.0

    def test_frozen_midpoint(self):
        assert entropy_decrease(BlochVector(0.5, 0.0, 0.0)) == DS_HALF

    def test_depends_only_on_radius(self):
        assert entropy_decrease(BlochVector(0.5, 0, 0)) == entropy_decrease(
            BlochVector(0, 0, 0.5)
        )
        assert entropy_decrease(BlochVector(0.3, 0.4, 0.0)) == entropy_decrease(
            BlochVector(0.0, 0.0, 0.5)
        )

    def test_matches_spectral_entropy(self):
        for r in (0.0, 0.1, 0.5, 0.9, 0.999, 1.0):
            spectral = von_neumann_entropy(qubit_from_bloch(BlochVector(r, 0, 0)))
            assert entropy_decrease(BlochVector(r, 0, 0)) == pytest.approx(
                spectral, abs=1e-10
            )

    @settings(max_examples=200)
    @given(radii, radii)
    def test_monotone_decreasing_in_radius(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert entropy_decrease(BlochVector(lo, 0, 0)) >= entropy_decrease(
            BlochVector(hi, 0, 0)
        )

    @settings(max_examples=100)
    @given(radii)
    def test_bounded_by_ln2(self, r):
        ds = entropy_decrease(BlochVector(0, 0, r))
        assert 0.0 <= ds <= LN2


class TestHeats:
    def test_memory_heat_frozen(self):
        spec = ThermalSpec(beta=1.0)
        assert heat_memory(BlochVector(), spec) == -0.5
        assert heat_memory(BlochVector(0, 0, 1), spec) == 0.0
        assert heat_memory(BlochVector(0, 0, -1), spec) == -1.0

    def test_memory_heat_ignores_transverse_components(self):
        spec = ThermalSpec(beta=1.0)
        assert heat_memory(BlochVector(0.8, 0, 0.1), spec) == heat_memory(
            BlochVector(0, -0.3, 0.1), spec
        )

    def test_memory_heat_scales_with_gap(self):
        assert heat_memory(BlochVector(), ThermalSpec(beta=1.0, delta=3.0)) == -1.5

    def test_reservoir_heat_zero_temperature_balances_memory(self):
        rng = random.Random(51)
        spec = ThermalSpec.from_beta(math.inf, delta=1.7)
        for _ in range(20):
            b = random_bloch(rng)
            assert heat_reservoir(b, spec) == -heat_memory(b, spec)

    def test_reservoir_heat_infinite_temperature_vanishes(self):
        spec = ThermalSpec.from_beta(0.0)
        assert heat_reservoir(BlochVector(), spec) == 0.0

    @pytest.mark.parametrize("beta_delta", [1e-5, 1e-8, 1e-11, 1e-14])
    @pytest.mark.parametrize("delta,k_B", [(1.0, 1.0), (1.986e-22, 1.380649e-23)])
    def test_reservoir_heat_high_temperature_against_decimal_oracle(
        self, beta_delta, delta, k_B
    ):
        # p_g - p_e ~ beta delta / 2 cancels as beta -> 0; the oracle evaluates
        # (delta/2)(1 - r_z) tanh(beta delta / 2) from the same floats in 60 digits
        b = BlochVector(0.3, -0.2, 0.4)
        spec = ThermalSpec.from_beta(beta_delta / delta, delta=delta, k_B=k_B)
        with decimal.localcontext(decimal.Context(prec=60)):
            d = decimal.Decimal(spec.delta)
            e2 = (decimal.Decimal(spec.beta) * d).exp()  # exp(2 * beta delta / 2)
            tanh = (e2 - 1) / (e2 + 1)
            want = float(d / 2 * (1 - decimal.Decimal(b.r_z)) * tanh)
        assert abs(heat_reservoir(b, spec) - want) <= 4 * math.ulp(want)

    def test_reservoir_heat_never_negative(self):
        rng = random.Random(52)
        for beta in (0.0, 0.5, 2.0, math.inf):
            spec = ThermalSpec.from_beta(beta)
            for _ in range(10):
                assert heat_reservoir(random_bloch(rng), spec) >= 0.0

    def test_photon_energy_closes_the_books(self):
        b = BlochVector(0.2, 0.1, -0.4)
        spec = ThermalSpec.from_beta(1.3)
        total = heat_memory(b, spec) + heat_reservoir(b, spec)
        assert photon_energy(b, spec) == pytest.approx(-total, abs=1e-15)

    def test_photon_energy_zero_at_zero_temperature(self):
        spec = ThermalSpec.from_beta(math.inf)
        assert photon_energy(BlochVector(), spec) == 0.0

    def test_heats_against_trace_route(self):
        rng = random.Random(53)
        h_m, h_r, _ = numpy_hamiltonians(1.0)
        for beta in (0.0, 0.7, 5.0, math.inf):
            spec = ThermalSpec.from_beta(beta)
            b = random_bloch(rng)
            rho_i = composite_initial(b, spec)
            rho_f = apply_channel(rho_i)
            q_m_trace = np.trace(
                (to_numpy(memory_marginal(rho_f)) - to_numpy(memory_marginal(rho_i))) @ h_m
            ).real
            q_r_trace = np.trace(
                (to_numpy(reservoir_marginal(rho_f)) - to_numpy(reservoir_marginal(rho_i)))
                @ h_r
            ).real
            assert heat_memory(b, spec) == pytest.approx(q_m_trace, abs=1e-12)
            assert heat_reservoir(b, spec) == pytest.approx(q_r_trace, abs=1e-12)


class TestInternalEnergy:
    def test_mixed_memory_zero_temperature(self):
        report = analyze(BlochVector(), ThermalSpec.from_beta(math.inf))
        assert report.u_initial == 0.5

    def test_energy_gap_paid_by_photon(self):
        rng = random.Random(54)
        for beta in (0.0, 1.0, math.inf):
            spec = ThermalSpec.from_beta(beta)
            b = random_bloch(rng)
            report = analyze(b, spec)
            gap = report.u_initial - report.u_final
            assert gap == pytest.approx(photon_energy(b, spec), abs=1e-12)

    @pytest.mark.parametrize("delta,k_B", [(1.0, 1.0), (1.986e-22, 1.380649e-23)])
    def test_energies_against_numpy_trace(self, delta, k_B):
        # the dense H is built in numpy
        rng = random.Random(55)
        for _ in range(40):
            spec = ThermalSpec.from_temperature(rng.uniform(0.05, 20.0) * delta / k_B,
                                                delta=delta, k_B=k_B)
            b = random_bloch(rng)
            report = analyze(b, spec)
            h = numpy_hamiltonians(delta)[2]
            rho = composite_initial(b, spec)
            rho_i, rho_f = to_numpy(rho), to_numpy(apply_channel(rho))
            bound = 1e-12 * np.abs(h).max()
            assert abs(report.u_initial - np.trace(rho_i @ h).real) <= bound
            assert abs(report.u_final - np.trace(rho_f @ h).real) <= bound


class TestCommutator:
    def test_frozen_norm(self):
        norm = commutator_norm(ERASURE_PERMUTATION, ThermalSpec(beta=1.0))
        assert norm == COMMUTATOR_NORM

    def test_scales_linearly_with_gap(self):
        norm = commutator_norm(ERASURE_PERMUTATION, ThermalSpec(beta=1.0, delta=2.0))
        assert norm == pytest.approx(2.0 * COMMUTATOR_NORM, rel=1e-15)

    def test_against_numpy(self):
        u = numpy_permutation(ERASURE_PERMUTATION)
        h = numpy_hamiltonians(0.6)[2]
        want = np.linalg.norm(u @ h - h @ u)
        got = commutator_norm(ERASURE_PERMUTATION, ThermalSpec(beta=1.0, delta=0.6))
        assert got == pytest.approx(want, abs=1e-13)

    def test_vanishes_for_commuting_observable(self):
        # total excitation-count-like diagonal that the permutation preserves
        # is not available here; the identity works as the trivial case
        assert commutator_norm(tuple(range(8)), ThermalSpec(beta=1.0)) == 0.0

    def test_refuses_a_permutation_with_a_float_entry(self):
        # 0.0 sorts as 0, but indexes no level: a ValueError, not a TypeError
        with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.7: "):
            commutator_norm((0.0, *range(1, 8)), ThermalSpec(beta=1.0))

    # `levels`: the spec whose gap sets the level energies
    @pytest.mark.parametrize("levels", [
        ThermalSpec(beta=1.0, delta=0.6),
        ThermalSpec(beta=1.0, delta=1.0),
        ThermalSpec(beta=1.0, delta=1.986e-22, k_B=1.380649e-23),
    ])
    def test_random_permutations_against_numpy(self, levels):
        rng = random.Random(56)
        h = numpy_hamiltonians(levels.delta)[2]
        for _ in range(50):
            perm = list(range(8))
            rng.shuffle(perm)
            p = np.zeros((8, 8))
            p[perm, range(8)] = 1.0
            want = np.linalg.norm(p @ h - h @ p)
            assert commutator_norm(tuple(perm), levels) == pytest.approx(
                want, rel=1e-14, abs=1e-14 * levels.delta
            )

    @pytest.mark.parametrize("perm", [(0, 5, 3, 6, 2, 7, 1), (0, 5, 3, 6, 2, 7, 1, 1)])
    def test_rejects_a_non_permutation(self, perm):
        with pytest.raises(ValueError, match="not a permutation of 0..7"):
            commutator_norm(perm, ThermalSpec(beta=1.0))


class TestLimitTemperature:
    def test_frozen_values(self):
        spec = ThermalSpec(beta=1.0)
        assert limit_temperature(BlochVector(), spec) == T_LIMIT_MIXED
        assert limit_temperature(BlochVector(0, 0, 0.5), spec) == T_LIMIT_RZ_HALF

    def test_si_units(self):
        t = limit_temperature(
            BlochVector(), ThermalSpec(beta=1.0, delta=1.986e-22, k_B=1.380649e-23)
        )
        assert t == pytest.approx(T_LIMIT_SI_KELVIN, rel=1e-12)

    def test_pure_state_below_pole_is_infinite(self):
        spec = ThermalSpec(beta=1.0)
        assert math.isinf(limit_temperature(BlochVector(1, 0, 0), spec))
        assert math.isinf(limit_temperature(BlochVector(0, 0, -1), spec))

    def test_ground_state_is_undefined(self):
        assert math.isnan(limit_temperature(BlochVector(0, 0, 1), ThermalSpec(beta=1.0)))

    def test_matches_heat_entropy_ratio(self):
        """At the unit gap T_limit is -Q_M/dS, bit for bit; at gap 1.9 it is
        that value times delta / k_B, formed as the report forms it."""
        rng = random.Random(55)
        unit, spec = ThermalSpec(beta=1.0), ThermalSpec(beta=1.0, delta=1.9)
        for _ in range(25):
            b = random_bloch(rng)
            if b.r >= 1.0:
                continue
            want = -heat_memory(b, unit) / entropy_decrease(b)
            assert limit_temperature(b, unit) == want
            assert limit_temperature(b, spec) == want * spec.delta / spec.k_B

    def test_near_unit_radius_stays_finite(self):
        # r*r would round to 1 here; the factored log must survive
        b = BlochVector(1.0 - 1e-17, 0.0, 0.0)
        t = limit_temperature(b, ThermalSpec(beta=1.0))
        assert math.isfinite(t) or math.isinf(t)

    def test_decreases_with_rz_at_fixed_radius(self):
        r = 0.6
        values = [
            limit_temperature(
                BlochVector(math.sqrt(r * r - rz * rz), 0.0, rz), ThermalSpec(beta=1.0)
            )
            for rz in (-0.6, -0.3, 0.0, 0.3, 0.6)
        ]
        assert values == sorted(values, reverse=True)

    def test_subnormal_k_b_gives_an_infinite_limit(self):
        # T_limit in units of delta / k_B, divided by k_B = 5e-324, overflows to inf
        b, spec = BlochVector(0.9, 0, 0), ThermalSpec(beta=1.0, k_B=5e-324)
        assert limit_temperature(b, spec) == math.inf
        report = analyze(b, spec)
        assert (report.t_limit, report.temperature, report.landauer_margin) == (
            math.inf, math.inf, math.inf)
        assert report.landauer_violated


class TestLandauerCheck:
    def test_frozen_margin_at_twice_the_limit(self):
        verdict = landauer_check(-0.5, 2.0 * T_LIMIT_MIXED, LN2)
        assert verdict.violated
        assert verdict.margin == pytest.approx(0.5, abs=1e-15)

    def test_no_violation_below_the_limit(self):
        verdict = landauer_check(-0.5, 0.5 * T_LIMIT_MIXED, LN2)
        assert not verdict.violated
        assert verdict.margin == pytest.approx(-0.25, abs=1e-15)

    def test_boundary_is_not_a_violation(self):
        verdict = landauer_check(-0.5, 0.0, 0.0)
        assert not verdict.violated
        assert verdict.margin == -0.5

    def test_zero_entropy_ignores_temperature(self):
        assert not landauer_check(-0.5, math.inf, 0.0).violated
        assert landauer_check(0.1, math.inf, 0.0).margin == 0.1

    @pytest.mark.parametrize("q_memory, temperature, delta_s", [
        (math.nan, 1.0, 0.5),            # a NaN heat
        (-math.inf, math.inf, 0.5),      # -inf + inf
        (math.nan, math.inf, 0.0),       # no entropy removed still adds the NaN heat
    ])
    def test_a_nan_margin_is_refused(self, q_memory, temperature, delta_s):
        with pytest.raises(ValueError, match="Landauer margin is NaN"):
            landauer_check(q_memory, temperature, delta_s)

    def test_infinite_temperature_with_entropy_always_violates(self):
        verdict = landauer_check(-0.5, math.inf, LN2)
        assert verdict.violated
        assert math.isinf(verdict.margin)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            landauer_check(-0.5, -1.0, LN2)

    def test_rejects_negative_entropy(self):
        with pytest.raises(ValueError, match="entropy"):
            landauer_check(-0.5, 1.0, -0.1)

    @pytest.mark.parametrize("k_B", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_k_b(self, k_B):
        # a NaN or negative k_B must not read as "bound holds"
        with pytest.raises(ValueError, match=f"^k_B must be positive and finite, got {k_B!r}$"):
            landauer_check(-0.5, 1.0, 0.5, k_B=k_B)

    @settings(max_examples=100)
    @given(
        st.floats(min_value=-2.0, max_value=0.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=LN2, allow_nan=False),
    )
    def test_verdict_matches_margin_sign(self, q_m, t, ds):
        verdict = landauer_check(q_m, t, ds)
        assert verdict.violated == (verdict.margin > 0.0)


def _initial_products(b, spec):
    """The 12 Kronecker products of composite_initial(b, spec) that
    `_cross_check` forms, of the qubit and the reservoir's two l0 weights,
    and the key of the nonzero ones."""
    t = qerase.linalg._kron_products(qubit_from_bloch(b), _reservoir_diagonal(spec.beta * spec.delta))
    return t, tuple(itertools.compress(range(12), t))


def _initial_order():
    """Initial flat position -> product: the layout `composite_initial`'s
    `_kron` plan gathers the 12 products by, through which the route kernel
    reads them."""
    return qerase.linalg._kron_order(2, 2, 4, qerase.states._CHANNEL_TO_MODE)


def _open_chains(key, perm=ERASURE_PERMUTATION):
    """The names g<i> of the final memory's entries, i = 2 row + column,
    that hold a product the key leaves open; the others are 0j. Entry (i,
    j) sums the final (4i + k, 4j + k) over k, and the channel moves
    initial row c to row perm[c]."""
    origin = {row: col for col, row in enumerate(perm)}
    order = _initial_order()
    return {f"g{2 * i + j}" for i in (0, 1) for j in (0, 1)
            if any(order[origin[4 * i + k] * 8 + origin[4 * j + k]] in key for k in range(4))}


def _route_marginal(t, perm):
    """The flat memory marginal of the state the route kernel of perm reads
    off the products t: `memory_marginal` of the gathered state permuted."""
    state = _matrix(tuple(t[k] for k in _initial_order()), 8)
    return memory_marginal(permute(state, perm))._flat


def _pattern_blocks(flat, n):
    """The blocks `_check_source` gives the nonzero pattern of n x n flat
    entries: those that a check kernel of any key covering the pattern
    solves on them, a 2x2 whose pair is zero on the call as its diagonal."""
    nonzero = tuple(itertools.compress(range(n * n), flat))
    return qerase.linalg._check_source(nonzero, n, [f"f[{p}]" for p in range(n * n)])[1]


class TestEigensolveCount:
    """The density checks on the propagation path solve no 8x8 spectrum:
    its states are 1x1 and 2x2 blocks, and the validation solves each block
    once, handing the spectrum to the entropy."""

    B = BlochVector(0.9, 0.0, -0.3)
    SPEC = ThermalSpec.from_beta(1.0)

    @pytest.fixture
    def solved_dims(self, monkeypatch):
        dims = []
        original = qerase.linalg.hermitian_eigenvalues

        def counted(m):
            dims.append(m.dim)
            return original(m)

        monkeypatch.setattr(qerase.linalg, "hermitian_eigenvalues", counted)
        return dims

    @pytest.fixture
    def solved_blocks(self, monkeypatch):
        """(entries, block) of every block whose spectrum is solved: each
        check kernel `_plan` hands out, and each of the three checks of each
        route kernel (the 8x8 state's, the qubit's and the marginal's, the
        last two the blocks of their entries' nonzero pattern), records its
        blocks when it returns a spectrum, which it solves only past its
        tests."""
        calls = []
        original = qerase.linalg._plan

        def planned(m):
            check, blocks = original(m), _pattern_blocks(m._flat, m.dim)

            def counted(flat, *tols):
                out = check(flat, *tols)
                if out[2] is not None:
                    calls.extend((flat, tuple(block)) for block in blocks)
                return out

            return counted

        monkeypatch.setattr(qerase.linalg, "_plan", planned)
        monkeypatch.setattr(qerase.channel, "_plan", planned)  # apply_channel's check
        route = qerase.thermo._route_kernel

        def routed(perm, key):
            kernel = route(perm, key)

            def counted(t, q):
                out = kernel(t, q)
                if out[0][2] is not None:
                    state = [t[k] for k in _initial_order()]
                    calls.extend((t, block) for block in _pattern_blocks(state, 8))
                if out[2][2] is not None:
                    calls.extend((q, block) for block in _pattern_blocks(q, 2))
                if out[3] is not None and out[3][2] is not None:
                    marginal = _route_marginal(t, perm)
                    calls.extend((marginal, block) for block in _pattern_blocks(marginal, 2))
                return out

            return counted

        monkeypatch.setattr(qerase.thermo, "_route_kernel", routed)
        return calls

    def test_composite_state_has_two_coherent_blocks(self):
        # the precondition of both siblings: coherences 0-4 and 2-6 make
        # density_matrix solve two 2x2 blocks, so "no whole matrix" is not vacuous
        r = composite_initial(self.B, self.SPEC).rows
        assert r[0][4] != 0.0 and r[2][6] != 0.0

    def test_apply_channel_solves_no_whole_matrix(self, solved_dims, solved_blocks, monkeypatch):
        def refuse(rows):
            raise AssertionError(f"a {len(rows)}x{len(rows)} block ran the Jacobi loop")

        monkeypatch.setattr(qerase.linalg, "_jacobi_eigenvalues", refuse)
        apply_channel(composite_initial(self.B, self.SPEC))
        assert solved_dims == []
        assert solved_blocks and all(len(block) <= 2 for _, block in solved_blocks)

    def test_analyze_solves_only_the_two_entropies(self, solved_dims, solved_blocks):
        # the 8x8 check, in the route kernel, solves the coherent pairs {0,4}
        # and {2,6} and four 1x1 blocks; the initial memory is one 2x2 block; the final one,
        # erased to |g>, is two 1x1 blocks; the reservoir's values are formed
        # unchecked, so a repeat call solves the same blocks
        for _ in range(2):
            solved_blocks.clear()
            analyze(self.B, self.SPEC)
            sizes = [len(block) for _, block in solved_blocks]
            assert sizes == [2, 1, 2, 1, 1, 1] + [2] + [1, 1]
            assert len(set(solved_blocks)) == len(solved_blocks)  # each block once
        assert solved_dims == []

    def test_warm_analyze_keys_its_2x2_checks_by_layout(self, monkeypatch):
        # the 8x8 check keys its route kernel by the nonzero products, no
        # pattern of 64 entries; the two 2x2 entropies form no pattern key:
        # the route kernel holds one 2x2 check of each, on the positions it
        # leaves open, which solves a zero pair as the diagonal, so neither
        # a cold nor a warm analyze looks up a pattern plan
        calls, routes = [], []
        original, route = qerase.linalg._pattern_plan, qerase.thermo._route_kernel

        def counted(nonzero, n):
            calls.append((n, nonzero))
            return original(nonzero, n)

        def routed(perm, key):
            routes.append((perm, key))
            return route(perm, key)

        route.cache_clear()
        monkeypatch.setattr(qerase.linalg, "_pattern_plan", counted)
        monkeypatch.setattr(qerase.thermo, "_route_kernel", routed)
        for _ in range(2):  # cold, then warm
            analyze(self.B, self.SPEC)
        assert calls == []
        # every entry of the qubit times the two nonzero reservoir values
        assert routes == [(ERASURE_PERMUTATION, tuple(k for k in range(12) if k % 3 in (0, 1)))] * 2
        assert route.cache_info().misses == 1

    def test_dense_state_entropy_solves_once(self, monkeypatch):
        loop_sizes = []
        original = qerase.linalg._jacobi_eigenvalues

        def counted(rows):
            loop_sizes.append(len(rows))
            return original(rows)

        monkeypatch.setattr(qerase.linalg, "_jacobi_eigenvalues", counted)
        von_neumann_entropy(random_density(random.Random(73), 8))
        assert loop_sizes == [8]


class TestTracedEnergiesBitForBit:
    """The trace route's heats and energies, bit for bit those of two
    population lists and four left-to-right level sums, copied below."""

    @staticmethod
    def _level_sums(b, spec):
        def populations(rho):
            return [x.real for x in rho._flat[::rho._dim + 1]]

        def level_sum(weights, levels):  # in units of the gap
            total = 0.0
            for w, n in zip(weights, levels):
                total += w * n
            return total

        rho_initial = composite_initial(b, spec)
        pops_i, pops_f = populations(rho_initial), populations(apply_channel(rho_initial))
        change = [after - before for before, after in zip(pops_i, pops_f)]
        u_i = level_sum(pops_i, _COMPOSITE_LEVELS)
        u_f = level_sum(pops_f, _COMPOSITE_LEVELS)
        traced = {
            "memory heat": level_sum(change, _MEMORY_LEVELS),
            "reservoir heat": level_sum(change, _RESERVOIR_LEVELS),
            "photon energy": u_i - u_f,
        }
        return traced, u_i, u_f

    @staticmethod
    def _draws(rng):
        """1,200 (Bloch vector, spec): natural units at gaps 1 and 0.6 and
        the SI gap; beta 0, inf, on verify's grid or log-uniform; one in four
        memories near pure, with the pure states on and off the z axis."""
        for k in range(1200):
            if k % 4 == 0:
                v = [rng.gauss(0, 1) for _ in range(3)]
                if k % 16 == 0:
                    v = [0.0, 0.0, rng.choice((1.0, -1.0))]
                r = rng.choice((1.0, 1.0 - 10.0 ** rng.uniform(-12, -3)))
                norm = math.sqrt(sum(x * x for x in v))
                b = BlochVector(*(r * x / norm for x in v))
            else:
                b = random_bloch(rng)
            beta = rng.choice((0.0, math.inf, 0.1, 1.0, 10.0, None))
            if beta is None:
                beta = 1.0 / math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            unit = k % 3
            if unit == 2:  # SI: the same beta * delta, temperature in kelvin
                delta, k_B = 1.986e-22, 1.380649e-23
                kelvin = math.inf if beta == 0.0 else delta / (k_B * beta)
                yield b, ThermalSpec.from_temperature(kelvin, delta=delta, k_B=k_B)
            else:
                yield b, ThermalSpec.from_beta(beta, delta=(1.0, 0.6)[unit])

    def test_every_traced_energy_is_the_level_sum(self, monkeypatch):
        made = []
        original = qerase.thermo._cross_check

        def recorded(b, spec):
            made.append(original(b, spec))
            return made[-1]

        monkeypatch.setattr(qerase.thermo, "_cross_check", recorded)
        checked = 0
        for b, spec in self._draws(random.Random(2401)):
            made.clear()
            report = analyze(b, spec)
            want, u_i, u_f = self._level_sums(b, spec)
            [(_, records)] = made
            got = {name: traced for name, (_, traced, _, _) in records.items() if name in want}
            assert got.keys() == want.keys()
            for name, traced in got.items():
                assert traced.hex() == want[name].hex(), (b, spec, name)
            assert (report.u_initial.hex(), report.u_final.hex()) == (
                (spec.delta * u_i).hex(), (spec.delta * u_f).hex())
            checked += 1
        assert checked == 1200

    def test_a_fractional_level_is_summed_as_itself(self):
        """With every composite level halved, the reported U_i and U_f are
        still the loop's sums of the populations times the levels: no level
        in (0, 1) is read as 1. The photon energy's record then fails, so
        the report is read off `_cross_check`, which judges nothing."""
        half = tuple(n / 2 for n in _COMPOSITE_LEVELS)

        def level_sum(rho):
            total = 0.0
            for w, n in zip(rho._flat[::9], half):
                total += w.real * n
            return total

        route = qerase.thermo._route_kernel
        route.cache_clear()  # its kernels read the levels when they are compiled
        try:
            with mock.patch.object(qerase.thermo, "_COMPOSITE_LEVELS", half):
                for b, spec in itertools.islice(self._draws(random.Random(2401)), 0, None, 10):
                    report, _ = qerase.thermo._cross_check(b, spec)
                    rho = composite_initial(b, spec)
                    want = [spec.delta * level_sum(r) for r in (rho, apply_channel(rho))]
                    assert [report.u_initial, report.u_final] == want, (b, spec)
        finally:
            route.cache_clear()


class TestPartialTraceCount:
    """The heats are read from the composite populations, so analyze forms
    one marginal: the final memory state, whose spectrum the entropy needs.
    The route kernel compiled for the channel's permutation sums it off the
    initial state, so no partial trace runs, and the reservoir's marginal
    is never formed."""

    B = BlochVector(0.9, 0.0, -0.3)
    SPEC = ThermalSpec.from_beta(1.0)

    def test_analyze_traces_out_only_the_final_reservoir(self, monkeypatch):
        rho = composite_initial(self.B, self.SPEC)
        want = memory_marginal(apply_channel(rho))
        planned = []
        original = qerase.thermo._trace_groups

        def counted(dims, keep, n):
            planned.append((dims, keep, n))
            return original(dims, keep, n)

        def refuse(*args):
            raise AssertionError("analyze ran a partial trace")

        monkeypatch.setattr(qerase.thermo, "_trace_groups", counted)
        monkeypatch.setattr(qerase.channel, "partial_trace", refuse)
        qerase.thermo._route_kernel.cache_clear()
        for _ in range(2):  # cold, then warm
            analyze(self.B, self.SPEC)
        assert planned == [((2, 2, 2), (0,), 8)]  # one marginal, the memory's
        info = qerase.thermo._route_kernel.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # the route's marginal is checked, bit for bit, as the traced one is
        t, key = _initial_products(self.B, self.SPEC)
        q = qubit_from_bloch(self.B)._flat
        checked = qerase.thermo._route_kernel(ERASURE_PERMUTATION, key)(t, q)[3]
        assert repr(checked) == repr(qerase.linalg._plan(want)(want._flat))

    def test_one_route_is_compiled_per_permutation(self, wrong_channel):
        """Each distinct erasure map compiles its route once, however often
        analyze runs it; going back to a map finds its kernel cached."""
        swapped = [tuple({low: high, high: low}.get(row, row) for row in ERASURE_PERMUTATION)
                   for low, high in ((0, 1), (2, 3), (1, 6))]
        qerase.thermo._route_kernel.cache_clear()
        for perm in [ERASURE_PERMUTATION, *swapped, ERASURE_PERMUTATION, swapped[0]]:
            wrong_channel(perm)
            for _ in range(3):
                raised(lambda: analyze(self.B, self.SPEC))
        info = qerase.thermo._route_kernel.cache_info()
        assert (info.misses, info.currsize, info.hits) == (4, 4, 14)


def _channel_checks(rho):
    """`apply_channel`'s checks of a state `composite_initial` forms, each
    its own step, in its order: rho's density check, then the erasure map
    it applies (`channel._checked_map`)."""
    return density_matrix(rho), qerase.channel._checked_map()


class TestFusedRouteBitForBit:
    """The route kernel, bit for bit the density checks of the initial
    memory and of the final memory marginal and the level sums of the final
    state that `apply_channel` forms: under the erasure over
    TestTracedEnergiesBitForBit's 1,200 draws, and under each of its 28 row
    swaps over a quarter of them, every fourth draw from an offset that
    cycles with the swap, so one swap in four sees the near-pure draws."""

    @staticmethod
    def _reference(b, spec):
        """The outputs of the check kernels `_plan` hands out for the initial
        qubit and the final memory marginal, and the bits of the entropy drop
        on the two and of the four left-to-right level sums over the two
        diagonals: the route `analyze` took through the final state."""
        rho_memory = qubit_from_bloch(b)
        marginal = memory_marginal(apply_channel(composite_initial(b, spec)))
        s_drop = von_neumann_entropy(rho_memory) - von_neumann_entropy(marginal)
        traced, u_i, u_f = TestTracedEnergiesBitForBit._level_sums(b, spec)
        sums = (s_drop, traced["memory heat"], traced["reservoir heat"], u_i, u_f)
        checks = [qerase.linalg._plan(m)(m._flat) for m in (rho_memory, marginal)]
        return repr(checks), [x.hex() for x in sums]

    @staticmethod
    def _fused(b, spec):
        """The same, from the route kernel of the permutation the channel's
        checks return and of the initial state's nonzero products, and from
        `_cross_check`'s entropy record; the kernel's density check is, bit
        for bit, the check kernel of the gathered state's pattern."""
        rho_initial, perm = _channel_checks(composite_initial(b, spec))
        t, key = _initial_products(b, spec)
        check, _, *checks, q_m, q_r, u_i, u_f = qerase.thermo._route_kernel(perm, key)(
            t, qubit_from_bloch(b)._flat)
        assert repr(check) == repr(qerase.linalg._plan(rho_initial)(rho_initial._flat))
        _, s_drop, _, _ = qerase.thermo._cross_check(b, spec)[1]["entropy decrease"]
        return repr(checks), [x.hex() for x in (s_drop, q_m, q_r, u_i, u_f)]

    def test_every_route_output_is_the_final_state_route(self, wrong_channel, monkeypatch):
        draws = list(TestTracedEnergiesBitForBit._draws(random.Random(2401)))
        reports = [repr(raised(lambda: analyze(b, spec))) for b, spec in draws]
        for b, spec in draws:
            assert self._fused(b, spec) == self._reference(b, spec), (b, spec)
        for k, (low, high) in enumerate(itertools.combinations(range(8), 2)):
            swap = {low: high, high: low}
            wrong_channel(tuple(swap.get(row, row) for row in ERASURE_PERMUTATION))
            for b, spec in draws[k % 4::4]:  # each swap a quarter, near-pure or not
                assert self._fused(b, spec) == self._reference(b, spec), (b, spec, low, high)
        monkeypatch.undo()  # the erasure again: no swapped route may serve it
        assert [repr(raised(lambda: analyze(b, spec))) for b, spec in draws] == reports

    def test_the_route_reads_each_population_once(self):
        """On products that count their `.real` reads, the route reads the
        product of every diagonal position a level sum uses exactly once more
        than the density check alone, through the name it is bound to, where
        the key leaves the product open, and never where it proves it zero,
        and no other `.real`; the outputs keep their bits. On a draw with
        every product open and on each of TestRouteKernelNames's 12 keys."""
        reads = collections.Counter()

        class Counted(complex):
            @property
            def real(self):
                reads[self.position] += 1
                return complex.real.__get__(self)

        def counted(k, value):
            entry = Counted(value)
            entry.position = k
            return entry

        order = _initial_order()  # initial flat position -> product
        source = {row: col for col, row in enumerate(ERASURE_PERMUTATION)}  # final level's origin
        levels = [k for k in range(8) if _COMPOSITE_LEVELS[k]]
        draws = [(BlochVector(0.48, -0.6, 0.64 - 1e-9), ThermalSpec.from_beta(0.7)),
                 *TestRouteKernelNames.draws()]
        for b, spec in draws:
            t, key = _initial_products(b, spec)
            q = qubit_from_bloch(b)._flat
            kernel = qerase.thermo._route_kernel(ERASURE_PERMUTATION, key)
            products = tuple(itertools.starmap(counted, enumerate(t)))
            reads.clear()
            got = kernel(products, q)
            fused = dict(reads)
            reads.clear()
            entries = _matrix(tuple(products[k] for k in order), 8)
            assert repr(qerase.linalg._plan(entries)(entries._flat)) == repr(got[0])
            used = {order[9 * k] for k in levels} | {order[9 * source[k]] for k in levels}
            assert fused == dict(reads + collections.Counter(used & set(key))), (b, spec)
            assert repr(got[1:]) == repr(kernel(t, q)[1:])
        assert len(draws) == 13 and len(_initial_products(*draws[0])[1]) == 8


class TestRouteKernelFolding:
    """The route kernel is folded on its key: a product the key proves zero
    takes part in no sum, neither the density check's trace, nor a chain of
    the final memory, nor a level sum, and no other arithmetic. Its only
    reads are the `.real` of the 8x8 check's solve, one for each diagonal
    entry it fills (a qubit entry's product with 0j fills its two l1
    entries): the spectrum keeps a zero's sign. A chain of the final memory the key
    proves 0j is bound to no name g<i>: neither the finiteness test nor the
    marginal's check reads it."""

    OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__neg__", "__abs__", "conjugate")

    def test_no_arithmetic_touches_a_product_the_key_proves_zero(self):
        touched = collections.Counter()

        def counting(name):
            def op(self, *args):
                touched[self.position, name] += 1
                return getattr(complex, name)(self, *args)
            return op

        def part(name):
            def read(self):
                touched[self.position, name] += 1
                return getattr(complex, name).__get__(self)
            return property(read)

        Counted = type("Counted", (complex,), {
            **{name: counting(name) for name in self.OPS},
            "real": part("real"), "imag": part("imag")})

        def counted(k, value):
            entry = Counted(value)
            entry.position = k
            return entry

        order = _initial_order()  # initial flat position -> product
        on_diagonal = collections.Counter(order[p] for p in range(0, 64, 9))
        folded = chains = 0
        for b, spec in TestRouteKernelNames.draws():
            t, key = _initial_products(b, spec)
            q = qubit_from_bloch(b)._flat
            kernel = qerase.thermo._route_kernel(ERASURE_PERMUTATION, key)
            touched.clear()
            got = kernel(tuple(itertools.starmap(counted, enumerate(t))), q)
            assert got[0][2] is not None and got[3][2] is not None  # both solves ran
            assert repr(got) == repr(kernel(t, q))
            for k in sorted(set(range(12)) - set(key)):
                ops = {name: n for (position, name), n in touched.items() if position == k}
                want = {"real": on_diagonal[k]} if k in on_diagonal else {}
                assert ops == want, (b, spec, k, ops)
                folded += 1
            assert any(position in key for position, _ in touched), (b, spec)
            code = kernel.__code__
            bound = {name for name in (*code.co_varnames, *code.co_names) if name[0] == "g"}
            assert bound == _open_chains(key), (b, spec, bound)
            chains += 4 - len(bound)
        assert folded == 12 * 12 - sum(len(_initial_products(b, spec)[1])
                                       for b, spec in TestRouteKernelNames.draws())
        assert chains == 12 * 4 - sum(len(_open_chains(_initial_products(b, spec)[1]))
                                      for b, spec in TestRouteKernelNames.draws()) > 0


class TestRouteKernelNames:
    """The route kernel's own names, its parameters, the populations r<p> it
    binds and the marginal's open chains among g0 to g3, are none of the
    walrus names the density checks it embeds bind, so no check can rebind
    a value that a level sum or the marginal's check reads."""

    # every nonzero pattern of the initial products: the qubit's diagonal,
    # with and without its coherences, at each pole and inside, by the
    # reservoir with and without its excited weight
    BLOCHS = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.3, -0.2, 0.4),
              (1e-7, 0.0, 1.0), (1e-7, 0.0, -1.0)]
    SPECS = [ThermalSpec.from_beta(1.0), ThermalSpec.from_beta(math.inf)]

    @classmethod
    def draws(cls):
        """One (Bloch vector, spec) per key: the 12 of BLOCHS x SPECS."""
        return [(BlochVector(*b), spec) for b in cls.BLOCHS for spec in cls.SPECS]

    @staticmethod
    def _targets(nonzero, n, f):
        source, _ = qerase.linalg._check_source(nonzero, n, f)
        return {node.target.id for node in ast.walk(ast.parse(source, mode="eval"))
                if isinstance(node, ast.NamedExpr)}

    def test_the_kernel_binds_no_name_a_check_binds(self):
        qubit = [f"q[{p}]" for p in range(4)]
        two_by_two = self._targets((0, 1, 2, 3), 2, qubit)  # the names of every 2x2 check
        order = _initial_order()
        entries = [f"t[{k}]" for k in order]
        source = {row: col for col, row in enumerate(ERASURE_PERMUTATION)}  # final level's origin
        levels = [k for k in range(8) if _COMPOSITE_LEVELS[k]]
        populations = {9 * k for k in levels} | {9 * source[k] for k in levels}
        keys = {_initial_products(b, spec)[1] for b, spec in self.draws()}
        assert len(keys) == 12
        for key in keys:
            own = {"t", "q", "htol", "ttol", *_open_chains(key),  # the open chains
                   *(f"r{p}" for p in populations if order[p] in key)}  # the open populations
            check = self._targets([p for p, k in enumerate(order) if k in key], 8, entries)
            targets = two_by_two | check
            names = set(qerase.thermo._route_kernel(ERASURE_PERMUTATION, key).__code__.co_varnames)
            assert names - targets == own, key
            assert not own & targets, key


class TestAnalyze:
    def test_entropy_decrease_is_computed_once_per_call(self, monkeypatch):
        """`analyze` computes the closed-form dS once and hands it to the
        limit temperature and the rule, on natural and SI units, at a pure
        and at a mixed memory."""
        calls = []
        original = qerase.thermo.entropy_decrease

        def counted(b):
            calls.append(b)
            return original(b)

        monkeypatch.setattr(qerase.thermo, "entropy_decrease", counted)
        si = ThermalSpec.from_temperature(10.0, delta=1.986e-22, k_B=1.380649e-23)
        draws = [(BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(1.0)),
                 (BlochVector(0.0, 0.0, 1.0), si), (BlochVector(0.6, 0.0, -0.8), si)]
        for b, spec in draws:
            analyze(b, spec)
        assert calls == [b for b, _ in draws]

    def test_report_fields_match_the_closed_forms(self):
        b = BlochVector(0.3, -0.2, 0.4)
        spec = ThermalSpec.from_beta(1.0)
        report = analyze(b, spec)
        assert report.delta_s == entropy_decrease(b)
        assert report.q_memory == heat_memory(b, spec)
        assert report.q_reservoir == heat_reservoir(b, spec)
        assert report.q_environment == -report.q_memory
        assert report.photon_energy == photon_energy(b, spec)
        assert report.t_limit == limit_temperature(b, spec)
        assert report.temperature == spec.temperature

    def test_ground_state_input_is_a_no_op(self):
        report = analyze(BlochVector(0, 0, 1), ThermalSpec.from_beta(2.0))
        assert report.delta_s == 0.0
        assert report.q_memory == 0.0
        assert report.q_reservoir == 0.0
        assert not report.landauer_violated
        assert math.isnan(report.t_limit)

    def test_pure_transverse_state_never_violates(self):
        # erasing a known pure state costs no entropy but still dumps heat
        for t in (0.0, 1.0, 100.0):
            spec = ThermalSpec.from_temperature(t)
            report = analyze(BlochVector(1, 0, 0), spec)
            assert report.delta_s == 0.0
            assert report.q_memory == -0.5
            assert not report.landauer_violated
            assert math.isinf(report.t_limit)

    def test_verdict_flips_across_the_limit(self):
        b = BlochVector()
        t_l = limit_temperature(b, ThermalSpec(beta=1.0))
        below = analyze(b, ThermalSpec.from_temperature(0.9 * t_l))
        above = analyze(b, ThermalSpec.from_temperature(1.1 * t_l))
        assert not below.landauer_violated
        assert above.landauer_violated

    def test_contradictory_gap_rejected(self):
        # one spec carries the gap of both the Gibbs weights and the heats,
        # so no second gap can contradict it; at gap 2 Q_R is 0.8045, where
        # gap-1 weights with gap-2 heats would give 0.5047
        report = analyze(BlochVector(0.5, 0.0, 0.0), ThermalSpec.from_temperature(0.9, delta=2.0))
        assert report.q_reservoir == pytest.approx(0.8045, abs=1e-4)

    def test_a_gap_whose_double_overflows_is_reported(self):
        # the trace route never forms the level energy 2 * delta, which is
        # inf here; an empty level would make it 0 * inf = nan
        report = analyze(BlochVector(), ThermalSpec(beta=1.0, delta=1e308))
        assert report.u_initial == 5e307

    @pytest.mark.parametrize("attr, quantity", CLOSED_FORMS)
    def test_cross_check_catches_a_perturbed_closed_form(self, monkeypatch, attr, quantity):
        """A closed form off by 1e-8 relative fails its own comparison, in
        natural units and at an SI gap of 1.986e-22 J, where the energies
        are about 1e-22 J and an absolute tolerance would accept any error.
        """
        original = getattr(qerase.thermo, gap_form(attr))
        monkeypatch.setattr(
            qerase.thermo, gap_form(attr), lambda *args: (1.0 + 1e-8) * original(*args)
        )
        si = ThermalSpec.from_temperature(10.0, delta=1.986e-22, k_B=1.380649e-23)
        for spec in (ThermalSpec.from_beta(1.0), si):
            with pytest.raises(ArithmeticError, match=f"^{quantity}: "):
                analyze(BlochVector(0.3, -0.2, 0.4), spec)

    @pytest.mark.parametrize("attr, message", [
        ("entropy_decrease", "entropy decrease: closed form 0.5401710711763238 and trace route "
         "0.5401710657746133 disagree"),
        ("heat_memory", "memory heat: closed form -0.30000000299999996 and trace route "
         "-0.30000000000000004 disagree"),
        ("heat_reservoir", "reservoir heat: closed form 0.13863514856435435 and trace route "
         "0.13863514717800293 disagree"),
        ("photon_energy", "photon energy: closed form 0.1613648544356456 and trace route "
         "0.16136485282199708 disagree"),
        ("limit_temperature", "limit temperature: closed form 0.5553796232491565 and rule "
         "0.5553796176953604 disagree"),
    ], ids=[attr for attr, _ in CLOSED_FORMS])
    def test_each_refusal_keeps_its_message(self, monkeypatch, attr, message):
        """Each comparison's refusal, byte for byte: the message names the
        quantity, both values by repr, and the trace route or, for T_limit,
        the rule; perfbench sorts refusals by the name before the colon."""
        original = getattr(qerase.thermo, gap_form(attr))
        monkeypatch.setattr(
            qerase.thermo, gap_form(attr), lambda *args: (1.0 + 1e-8) * original(*args)
        )
        with pytest.raises(ArithmeticError) as refused:
            analyze(BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(1.0))
        assert str(refused.value) == message

    @pytest.mark.parametrize("attr, quantity", CLOSED_FORMS)
    def test_cross_check_catches_a_nan_closed_form(self, monkeypatch, capsys, attr, quantity):
        """NaN compares false with any tolerance: a closed form that turns
        NaN fails its comparison, and `erase` exits 1 instead of printing
        the quantity as `undefined`."""
        monkeypatch.setattr(qerase.thermo, gap_form(attr), lambda *args: math.nan)
        with pytest.raises(ArithmeticError, match=f"^{quantity}: closed form nan "):
            analyze(BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(1.0))
        code = main(["erase", "--bloch", "0.3,-0.2,0.4", "--beta", "1", "--format", "csv"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {quantity}: closed form nan ")

    @pytest.mark.parametrize("bloch, patched", [
        ("0.6,0,0.8", math.nan), ("0.6,0,0.8", 2.0), ("0,0,1", 1.0), ("0,0,1", math.inf),
    ], ids=["pure-nan", "pure-finite", "ground-finite", "ground-inf"])
    def test_limit_temperature_is_checked_when_no_entropy_is_removed(
        self, monkeypatch, capsys, bloch, patched
    ):
        """With dS = 0 the closed form must follow its own rule: +inf when
        the memory gives off heat (a pure state off the ground state), NaN
        at the ground state, where none flows. Any other value fails, and
        `erase` exits 1 instead of printing it."""
        monkeypatch.setattr(qerase.thermo, "_limit_temperature", lambda *args: patched)
        b = BlochVector(*map(float, bloch.split(",")))
        assert entropy_decrease(b) == 0.0
        with pytest.raises(ArithmeticError, match="^limit temperature: closed form "):
            analyze(b, ThermalSpec.from_beta(1.0))
        code = main(["erase", "--bloch", bloch, "--beta", "1", "--format", "csv"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: limit temperature: closed form ")

    @pytest.mark.parametrize("patched", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_infinite_limit_temperature_is_checked_where_entropy_is_removed(
        self, monkeypatch, capsys, patched
    ):
        """Where dS > 0 the rule is finite, and the tolerance scales on it,
        not on the closed form: an infinite closed form fails, and `erase`
        exits 1 instead of printing it as `infinite`."""
        monkeypatch.setattr(qerase.thermo, "_limit_temperature", lambda *args: patched)
        with pytest.raises(ArithmeticError, match="^limit temperature: closed form "):
            analyze(BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(1.0))
        code = main(["erase", "--bloch", "0.3,-0.2,0.4", "--beta", "1", "--format", "csv"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: limit temperature: closed form ")

    def test_negative_entropy_decrease_is_a_failed_closed_form(self, monkeypatch):
        """Near purity dS ~ 1.5e-11 is below the route tolerance, so a sign
        flip passes the comparison; it must still raise ArithmeticError, not
        reach landauer_check as a ValueError."""
        original = qerase.thermo.entropy_decrease
        monkeypatch.setattr(qerase.thermo, "entropy_decrease", lambda b: -original(b))
        with pytest.raises(ArithmeticError, match="^entropy decrease: closed form -.* is negative$"):
            analyze(BlochVector(0.0, 0.0, 0.999999999999), ThermalSpec.from_beta(1.0))

    @staticmethod
    def _wrong_channel_outcome(pair):
        """The comparison that a swap of output rows `pair` fails, or None
        when the swap is invisible to every comparison."""
        low, high = pair
        if {low, high} in ({0, 2}, {0, 3}, {1, 2}, {1, 3}):
            return "reservoir heat"  # moves population across the reservoir gap
        if low < 4 <= high:
            return "entropy decrease"  # leaves population in the excited memory
        return None  # swaps energy-degenerate or empty rows: nothing to see

    @pytest.mark.parametrize(
        "pair", list(itertools.combinations(range(8), 2)),
        ids=[f"swap{a}{b}" for a, b in itertools.combinations(range(8), 2)],
    )
    def test_cross_check_catches_a_wrong_channel(self, wrong_channel, pair):
        """A channel whose output rows `pair` are swapped, and which gets past
        `apply_channel`'s operator check, fails the comparison it disturbs, in
        natural units and at the SI gap; the swaps the heats, energies and
        memory entropy cannot see still report."""
        low, high = pair
        swap = {low: high, high: low}
        wrong_channel(tuple(swap.get(row, row) for row in ERASURE_PERMUTATION))
        expected = self._wrong_channel_outcome(pair)
        si = ThermalSpec.from_temperature(10.0, delta=1.986e-22, k_B=1.380649e-23)
        for spec in (ThermalSpec.from_beta(1.0), si):
            if expected is None:
                assert isinstance(analyze(BlochVector(0.3, -0.2, 0.4), spec), ErasureReport)
            else:
                with pytest.raises(ArithmeticError, match=f"^{expected}: "):
                    analyze(BlochVector(0.3, -0.2, 0.4), spec)

    @staticmethod
    def _short_cycles() -> list[tuple[int, ...]]:
        """The 28 transpositions and 112 3-cycles of the 8 basis rows, each
        as its row -> row map."""
        cycles = []
        for size in (2, 3):
            for rows in itertools.combinations(range(8), size):
                for rest in itertools.permutations(rows[1:]):  # each cycle once
                    cycle = (rows[0], *rest)
                    sigma = list(range(8))
                    for row, image in zip(cycle, cycle[1:] + cycle[:1]):
                        sigma[row] = image
                    cycles.append(tuple(sigma))
        return cycles

    def test_every_short_cycle_after_the_channel_raises(self, monkeypatch, capsys):
        """Each transposition and 3-cycle of the output rows, composed after
        the erasure, makes `analyze` raise on every input and `erase` exit 1,
        the maps whose final state no state comparison can tell from the true
        one among them."""
        cycles = self._short_cycles()
        assert len(set(cycles)) == 140 and tuple(range(8)) not in cycles
        inputs = [
            (BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(1.0)),
            (BlochVector(0.5, 0.0, 0.0), ThermalSpec.from_temperature(0.9)),
            (BlochVector(0.1, 0.6, -0.5), ThermalSpec.from_beta(2.0)),
        ]
        for sigma in cycles:
            wrong = tuple(sigma[row] for row in ERASURE_PERMUTATION)
            monkeypatch.setattr(qerase.channel, "ERASURE_PERMUTATION", wrong)
            for b, spec in inputs:
                with pytest.raises(ArithmeticError, match=r"^erasure permutation: \("):
                    analyze(b, spec)
            assert main(["erase", "--bloch", "0.5,0,0", "--temperature", "0.9"]) == 1
        assert capsys.readouterr().out == ""

    # (Bloch vector, beta in natural units, SI?) of the near-pure draws that
    # perfbench's analyze batches raise on when T_limit is computed from an
    # entropy formula of its own: seed 1 draws 178, 373, 647, seed 3 draws 48,
    # 769, 989. That formula and ΔS differ by more than the 1e-10 check here.
    NEAR_PURE_DRAWS = [
        ((0.05075094127583052, -0.9230134187688522, 0.3814059426866133), 10.0, False),
        ((-0.0944360135136077, -0.7600514178571065, 0.6429647180683062),
         0.22524071333860382, False),
        ((-0.09177774222663736, 0.5804673280311704, -0.8090947728161947), 0.1, True),
        ((-0.5469253957559452, 0.41191397258901574, -0.7288343038085278), 0.1, False),
        ((0.46525145065598367, -0.7664007036508814, -0.44291194987762406), 0.1, False),
        ((-0.18185483676662087, 0.8740157928058422, 0.4505831065920812), 0.0, True),
    ]

    @pytest.mark.parametrize(
        "bloch, beta, si", NEAR_PURE_DRAWS,
        ids=["seed1-178", "seed1-373", "seed1-647-si", "seed3-48", "seed3-769", "seed3-989-si"],
    )
    def test_near_pure_limit_temperature_is_the_reported_ratio(self, bloch, beta, si):
        """At the unit gap T_limit is the report's -Q_M/dS; in SI it is the
        unit-gap run's T_limit times delta / k_B, bit for bit."""
        if si:  # the same thermal point in joules and kelvins
            delta, k_B = 1.986e-22, 1.380649e-23
            kelvin = math.inf if beta == 0.0 else delta / k_B / beta
            spec = ThermalSpec.from_temperature(kelvin, delta=delta, k_B=k_B)
        else:
            spec = ThermalSpec.from_beta(beta)
        unit = analyze(BlochVector(*bloch), ThermalSpec(beta=spec.beta * spec.delta))
        assert unit.delta_s > 0.0
        assert unit.t_limit == -unit.q_memory / unit.delta_s
        report = analyze(BlochVector(*bloch), spec)
        assert report.t_limit == unit.t_limit * spec.delta / spec.k_B

    def test_zero_temperature_returns_every_joule(self):
        report = analyze(BlochVector(0.2, 0.2, 0.2), ThermalSpec.from_beta(math.inf))
        assert report.q_reservoir == -report.q_memory
        assert report.photon_energy == 0.0
        assert report.u_initial == pytest.approx(report.u_final, abs=1e-14)

    def test_report_is_frozen(self):
        report = analyze(BlochVector(), ThermalSpec.from_beta(1.0))
        assert isinstance(report, ErasureReport)
        with pytest.raises(AttributeError):
            report.delta_s = 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(radii, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
        st.one_of(st.sampled_from([0.0, math.inf]),
                  st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)),
        st.booleans(),
    )
    def test_verdict_is_landauer_checks_on_the_reported_numbers(self, polar, beta_delta, si):
        """analyze applies the margin rule without landauer_check's input
        checks; on the report's own dS, Q_M and T the check gives the same
        margin, bit for bit, and the same verdict, in natural and SI units and
        at beta = 0 and inf."""
        r, theta, phi = polar
        b = BlochVector(r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi),
                        r * math.cos(theta))
        delta, k_B = (1.986e-22, 1.380649e-23) if si else (1.0, 1.0)
        spec = ThermalSpec(beta=beta_delta / delta, delta=delta, k_B=k_B)
        report = analyze(b, spec)
        verdict = landauer_check(report.q_memory, report.temperature, report.delta_s, k_B)
        assert report.landauer_margin.hex() == verdict.margin.hex()
        assert report.landauer_violated is verdict.violated

    def test_random_draws_stay_internally_consistent(self):
        rng = random.Random(56)
        for beta in (0.0, 0.3, 3.0, math.inf):
            for _ in range(5):
                report = analyze(random_bloch(rng), ThermalSpec.from_beta(beta))
                assert report.q_memory <= 0.0
                assert report.q_reservoir >= 0.0
                assert report.photon_energy >= 0.0
                assert report.landauer_violated == (report.landauer_margin > 0.0)


EDGE_GAPS = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
ENERGIES = ("q_memory", "q_reservoir", "q_environment", "photon_energy", "u_initial", "u_final")
# the smallest value whose double is inf: 2**1024 less half an ulp of the largest double
OVERFLOW = Fraction(2) ** 1024 - Fraction(2) ** 970


def _assert_within_two_ulps(got: float, exact: Fraction) -> None:
    """got is within two rounding steps of the exact value: 2**-52 of it,
    or the spacing 2**-1074 where it is below the normal range."""
    assert abs(Fraction(got) - exact) <= abs(exact) / 2 ** 52 + Fraction(2) ** -1074, (got, exact)


class TestScaleCovariance:
    """`analyze` works in units of the gap and scales the report once, so a
    run at gap delta and Boltzmann constant k_B is the unit-gap run at
    beta * delta, times delta for each energy and delta / k_B for T_limit."""

    def test_every_subnormal_gap_gives_a_report(self):
        """Gaps log-uniform over [5e-324, 1e-310), where one subnormal spacing
        between the two routes is far more than 1e-10 of the gap."""
        rng = random.Random(3601)
        for _ in range(400):
            delta = max(5e-324, 2.0 ** rng.uniform(-1074.0, math.log2(1e-310)))
            beta = rng.choice((0.0, 1.0, math.inf, 10.0 ** rng.uniform(-3.0, 3.0)))
            b = random_bloch(rng)
            report = analyze(b, ThermalSpec(beta=beta, delta=delta))
            assert report.q_memory == delta * analyze(b, ThermalSpec(beta=beta * delta)).q_memory

    @pytest.mark.parametrize("delta, k_B, exact", [
        (5e-324, 5e-324, 0.7213475204444817),
        (2.3023e-320, 1e-320, 1.6608100026043897),
    ])
    def test_a_subnormal_gap_keeps_t_limit(self, delta, k_B, exact):
        """At subnormal gaps t * delta keeps only a few bits, and a T_limit
        formed from that product is far off: 1.0 and 1.6605731225296443 on
        these two points. Both the report and `limit_temperature` give the
        exact value of the maximally mixed memory, 1 / ln 4 in units of
        delta / k_B, to within two ulps."""
        b, spec = BlochVector(), ThermalSpec(beta=1.0, delta=delta, k_B=k_B)
        want = Fraction(T_LIMIT_MIXED) * Fraction(delta) / Fraction(k_B)
        report = analyze(b, spec)
        assert report.t_limit == limit_temperature(b, spec)
        _assert_within_two_ulps(report.t_limit, want)
        assert abs(report.t_limit - exact) <= 2 * math.ulp(exact)

    def test_t_limit_at_extreme_gaps_against_exact_arithmetic(self):
        """Gaps and Boltzmann constants log-uniform over the whole float
        range, subnormals included: T_limit is within two ulps of the exact
        scaled value wherever that is finite, bit for bit (t delta) / k_B
        wherever t delta is normal, and inf only where the exact value
        overflows, also where delta / k_B alone is past the float range."""
        rng = random.Random(3701)
        subnormal = 0
        for k in range(600):
            # every other gap below the normal range
            delta = max(5e-324, 2.0 ** rng.uniform(-1074.0, -1022.0 if k % 2 else 1023.0))
            k_B = max(5e-324, 2.0 ** rng.uniform(-1074.0, 1023.0))
            b = random_bloch(rng)
            t = analyze(b, ThermalSpec(beta=1.0)).t_limit
            spec = ThermalSpec(beta=1.0, delta=delta, k_B=k_B)
            got = analyze(b, spec).t_limit
            assert got == limit_temperature(b, spec)
            exact = Fraction(t) * Fraction(delta) / Fraction(k_B)
            if exact >= OVERFLOW:
                assert got == math.inf
                continue
            _assert_within_two_ulps(got, exact)
            if abs(t * delta) >= 2.0 ** -1022:
                assert got.hex() == (t * delta / k_B).hex()
            else:
                subnormal += 1
        assert subnormal > 30

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        st.tuples(radii, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
        st.one_of(st.sampled_from(EDGE_GAPS), st.builds(
            math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1024))),
        st.sampled_from([1.0, 1.380649e-23, 5e-324]),
        st.one_of(st.sampled_from([0.0, math.inf]),
                  st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)),
    )
    def test_a_report_is_the_unit_gap_report_scaled(self, polar, delta, k_B, beta_delta):
        """Bit for bit: dS equal, each energy delta times the unit-gap one,
        T_limit the unit-gap T_limit t times delta / k_B, formed in that
        order wherever t * delta is normal, and within two ulps of the exact
        value where that product falls below the normal range; an inf only
        where the true value overflows, and a refusal only where the
        unit-gap run refuses, with the same message."""
        r, theta, phi = polar
        b = BlochVector(r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi),
                        r * math.cos(theta))
        spec = ThermalSpec(beta=beta_delta / delta, delta=delta, k_B=k_B)
        report = raised(lambda: analyze(b, spec))
        unit = raised(lambda: analyze(b, ThermalSpec(beta=spec.beta * delta)))
        if not isinstance(unit, ErasureReport):
            assert report == unit
            return
        assert repr(report.delta_s) == repr(unit.delta_s)
        # (reported, unit-gap value, the reported value formed from it, exact scale)
        scaled = [(getattr(report, f), getattr(unit, f), delta * getattr(unit, f),
                   Fraction(delta)) for f in ENERGIES]
        t_delta = unit.t_limit * delta
        if unit.t_limit and abs(t_delta) < 2.0 ** -1022:
            _assert_within_two_ulps(report.t_limit,
                                    Fraction(unit.t_limit) * Fraction(delta) / Fraction(k_B))
        else:
            scaled.append((report.t_limit, unit.t_limit, t_delta / k_B,
                           Fraction(delta) / Fraction(k_B)))
        for got, natural, want, scale in scaled:
            assert repr(got) == repr(want)
            if math.isinf(got) and math.isfinite(natural):
                assert abs(Fraction(natural) * scale) >= OVERFLOW


# positive doubles by exponent over the whole range, subnormals included
positive_doubles = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                             st.integers(-1073, 1024))
scales = st.one_of(st.sampled_from(EDGE_GAPS), positive_doubles)
thermal_inputs = st.tuples(st.sampled_from(("beta", "temperature")),
                           st.one_of(st.sampled_from((0.0, math.inf)), positive_doubles))
bloch_vectors = st.one_of(
    st.sampled_from((BlochVector(0.0, 0.0, 1.0), BlochVector(0.0, 0.0, -1.0))),
    st.builds(  # 1 - r log-uniform in [1e-16, 1], in any direction
        lambda u, theta, phi: BlochVector(
            (1.0 - 10.0 ** u) * math.sin(theta) * math.cos(phi),
            (1.0 - 10.0 ** u) * math.sin(theta) * math.sin(phi),
            (1.0 - 10.0 ** u) * math.cos(theta)),
        st.floats(-16.0, 0.0), st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
)


def _domain_spec(thermal, delta, k_B):
    """The ThermalSpec of one draw of `thermal_inputs` and two `scales`."""
    kind, value = thermal
    return (ThermalSpec.from_beta(value, delta, k_B) if kind == "beta"
            else ThermalSpec.from_temperature(value, delta, k_B))


class TestAnalyzeDomain:
    """`analyze` over its whole input domain: beta or T in {0, inf} or drawn
    by exponent, gap and k_B drawn by exponent with the double range's
    edges, and Bloch vectors from the centre to within 1e-16 of purity."""

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(bloch_vectors, thermal_inputs, scales, scales)
    def test_every_input_gives_a_consistent_report(self, b, thermal, delta, k_B):
        """A report, never a refusal; no field NaN but T_limit, which is NaN
        exactly where r_z == 1; the verdict is the sign of the margin."""
        spec = _domain_spec(thermal, delta, k_B)
        report = analyze(b, spec)
        for field in ErasureReport.__slots__:
            if field != "t_limit":
                assert not math.isnan(getattr(report, field)), (field, b, spec)
        assert math.isnan(report.t_limit) == (b.r_z == 1.0), (b, spec)
        assert report.landauer_violated == (report.landauer_margin > 0.0)


class TestCrossCheckAsTheUnfusedComposition:
    """`_cross_check`, which reads the 12 Kronecker products through one
    route kernel, bit for bit and refusal for refusal the composition that
    kernel fuses: `apply_channel`'s checks (`_channel_checks`) on the
    gathered composite_initial(b, spec), the check kernels `_plan` hands
    out for the initial qubit and for the memory marginal of
    `apply_channel`'s final state, and the loop trace of that state's
    populations."""

    NAMED = [
        # a[1] * v[2] = 5e-301 * e^-69 / (1 + e^-69) underflows to 0, as a[2] * v[2] does
        (BlochVector(1e-300, 0.0, 0.2), ThermalSpec.from_beta(69.0)),
        (BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(0.0)),
        (BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(math.inf)),
        (BlochVector(0.0, 0.0, 1.0), ThermalSpec.from_beta(1.0)),  # the ground state
        (BlochVector(5e-324, 0.0, -0.5), ThermalSpec.from_beta(1.0)),  # a subnormal coherence
    ]

    @staticmethod
    def _both(b, spec):
        """`_cross_check`'s outcome's repr, and that of the same records
        formed with the route kernel replaced by the unfused composition."""

        def unfused(perm, key):
            def kernel(t, q):
                rho, perm = _channel_checks(composite_initial(b, spec))
                checks = [qerase.linalg._plan(m)(m._flat) for m in (
                    rho, qerase.states.qubit_from_bloch(b), memory_marginal(apply_channel(rho)))]
                traced, u_i, u_f = TestTracedEnergiesBitForBit._level_sums(b, spec)
                return (checks[0], None, *checks[1:], traced["memory heat"],
                        traced["reservoir heat"], u_i, u_f)

            return kernel

        fused = repr(raised(lambda: qerase.thermo._cross_check(b, spec)))
        with mock.patch.object(qerase.thermo, "_route_kernel", unfused):
            return fused, repr(raised(lambda: qerase.thermo._cross_check(b, spec)))

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(bloch_vectors, thermal_inputs, scales, scales)
    def test_every_domain_draw_gives_the_unfused_bits(self, b, thermal, delta, k_B):
        spec = _domain_spec(thermal, delta, k_B)
        fused, unfused = self._both(b, spec)
        assert fused == unfused, (b, spec)

    @pytest.mark.parametrize("b, spec", NAMED)
    def test_each_named_case_gives_the_unfused_bits(self, b, spec):
        fused, unfused = self._both(b, spec)
        assert fused == unfused
        assert fused.startswith("(ErasureReport(")
        if b.r_x == 1e-300:  # the case keys on a product that underflowed
            t, key = _initial_products(b, spec)
            assert t[3] != 0 and t[4] == t[7] == 0 and key == (0, 1, 3, 6, 9, 10)

    @pytest.mark.parametrize("state, swap, alone, want", [
        ("negative", None, False, "ValueError: matrix has eigenvalue -"),
        ("excess", None, False, "ValueError: trace (1.4"),
        ("skew", None, False, "ValueError: matrix is not Hermitian: "),
        (None, (0, 5), True, "ArithmeticError: erasure permutation: ("),
        ("negative", (0, 5), True, "ValueError: matrix has eigenvalue -"),
        ("skew", (0, 5), True, "ValueError: matrix is not Hermitian: "),
        (None, (0, 2), False, "ArithmeticError: reservoir heat: "),
        ("negative", (0, 2), False, "ValueError: matrix has eigenvalue -"),
        ("excess", (0, 5), False, "ValueError: trace (1.4"),
        ("infinite", (0, 5), True, "ValueError: matrix entries must be finite"),
        ("half", None, False, "ValueError: trace (0.5"),
        ("half", (0, 5), True, "ArithmeticError: erasure permutation: ("),
        ("overflow", None, False, "ValueError: trace (inf"),
        ("overflow", (0, 2), False, "ValueError: trace (inf"),
    ])
    def test_each_refusal_keeps_its_type_message_and_order(
        self, monkeypatch, wrong_channel, state, swap, alone, want
    ):
        """A negative Gibbs weight, reservoir values that sum to 1.4 or hold
        an inf, which the products' finiteness scan refuses first, a qubit
        that is not Hermitian, a qubit of trace 0.5 times reservoir values
        of sum 2, whose state passes its check and whose qubit fails the
        entropy's, values of 1.5e308, whose products are finite and whose
        state's trace and memory marginal are not, the erasure map changed
        alone or, through `wrong_channel`, with its CNOT reference, and a
        state and a map at once: the density verdict comes first, then the
        map check, then the qubit's check and the marginal's, then the
        records, as in the unfused composition, with the same type and
        message."""
        values = {"excess": (0.7, 0.7), "infinite": (math.inf, 0.0), "half": (1.0, 1.0),
                  "overflow": (1.5e308, 1.5e308)}  # the two l0 weights
        qubits = {"skew": ComplexMatrix([[0.5, 0.3], [0.1, 0.5]]),
                  "half": ComplexMatrix([[0.25, 0.1], [0.1, 0.25]])}
        if state == "negative":
            monkeypatch.setattr(qerase.states, "_gibbs", lambda x: (1.2, -0.2))
        for module in (qerase.states, qerase.thermo):
            if state in values:
                monkeypatch.setattr(module, "_reservoir_diagonal", lambda x: values[state])
            if state in qubits:
                monkeypatch.setattr(module, "qubit_from_bloch", lambda b: qubits[state])
        if swap is not None:
            low, high = swap
            perm = tuple({low: high, high: low}.get(row, row) for row in ERASURE_PERMUTATION)
            if alone:
                monkeypatch.setattr(qerase.channel, "ERASURE_PERMUTATION", perm)
            else:
                wrong_channel(perm)
        b, spec = BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(1.0)
        fused, unfused = self._both(b, spec)
        assert fused == unfused
        kind, message = raised(lambda: analyze(b, spec))
        assert f"{kind}: {message}".startswith(want)


class TestFusedSpectra:
    """The route kernel's two 2x2 checks, of the initial qubit and of the
    traced marginal, and the entropy drop `_cross_check` sums from them: bit
    for bit the check kernels `_plan` hands out for `qubit_from_bloch(b)`
    and `memory_marginal(apply_channel(composite_initial(b, spec)))`, and
    the difference of their `von_neumann_entropy` (TestFusedRouteBitForBit's
    `_reference`), over TestAnalyzeDomain's draws and under each row swap of
    the erasure map."""

    @staticmethod
    def same(b, spec):
        return TestFusedRouteBitForBit._fused(b, spec) == TestFusedRouteBitForBit._reference(b, spec)

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(bloch_vectors, thermal_inputs, scales, scales)
    def test_every_domain_draw(self, b, thermal, delta, k_B):
        spec = _domain_spec(thermal, delta, k_B)
        assert self.same(b, spec), (b, spec)

    @pytest.mark.parametrize("low, high", itertools.combinations(range(8), 2))
    def test_each_row_swap(self, wrong_channel, low, high):
        """The named cases and a mixed, a near-pure and a pure memory off the
        z axis, at beta 0, 0.7 and inf: a swap can leave coherence in the
        final marginal, whose check then solves the linked block, which the
        erased marginal's does not."""
        wrong_channel(tuple({low: high, high: low}.get(row, row) for row in ERASURE_PERMUTATION))
        draws = [*TestCrossCheckAsTheUnfusedComposition.NAMED, *(
            (b, ThermalSpec.from_beta(beta))
            for b in (BlochVector(0.3, -0.2, 0.4), BlochVector(0.6 - 1e-9, 0.0, -0.8),
                      BlochVector(0.0, 0.6, 0.8))
            for beta in (0.0, 0.7, math.inf))]
        for b, spec in draws:
            assert self.same(b, spec), (b, spec)

    def test_some_swapped_marginal_keeps_coherence(self, wrong_channel):
        """The precondition of test_each_row_swap: under some swap the final
        marginal has a nonzero off-diagonal entry, under the erasure none."""
        b, spec = BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(0.7)

        def linked():
            m = memory_marginal(apply_channel(composite_initial(b, spec)))
            return bool(m[0, 1] or m[1, 0])

        assert not linked()
        found = []
        for low, high in itertools.combinations(range(8), 2):
            wrong_channel(tuple({low: high, high: low}.get(row, row) for row in ERASURE_PERMUTATION))
            found.append(linked())
        assert any(found)

    @pytest.mark.parametrize("q", [
        (0.1 + 0j, 0j, 0j, 0.9 + 0j),
        (0.1 + 0j, complex(0.0, -0.0), complex(-0.0, 0.0), 0.9 + 0j),
        (0.1 + 0j, 5e-324 + 0j, 0j, 0.9 + 0j),
        (0.1 + 0j, 0j, 0.2j, 0.9 + 0j),
        (0.1 + 0j, 0.2 - 0.1j, 0.2 + 0.1j, 0.9 + 0j),
        (0.5 + 0j, 0.3 + 0j, 0.1 + 0j, 0.5 + 0j),
    ])
    def test_the_qubit_layout_is_the_plans(self, q):
        """The kernel's qubit check solves the linked 2x2 block where either
        off-diagonal entry is nonzero and the diagonal elsewhere, as the
        kernel `_plan` keys by the exact pattern does: a diagonal whose solve
        as a linked block rounds 0.1 to 0.09999999999999998, signed zeros, a
        subnormal, a skew pair and a Hermitian one give `_plan`'s check."""
        b, spec = BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(0.7)
        t, key = _initial_products(b, spec)
        got = qerase.thermo._route_kernel(ERASURE_PERMUTATION, key)(t, q)[2]
        assert repr(got) == repr(qerase.linalg._plan(_matrix(q, 2))(q))

    def test_a_non_finite_marginal_is_refused_after_the_qubit(self, monkeypatch):
        """Where the marginal's sums overflow, the kernel emits no check for
        it and `_cross_check` refuses it as `linalg._checked` does, after the
        qubit's check. The state's own check refuses such a state first, so
        the verdicts are let through here; the refusal comes after two of
        them, the state's and the qubit's."""
        values = (1.5e308, 1.5e308)  # the two l0 weights
        b, spec = BlochVector(0.3, -0.2, 0.4), ThermalSpec.from_beta(0.7)
        t = qerase.linalg._kron_products(qubit_from_bloch(b), values)
        key = tuple(itertools.compress(range(12), t))
        assert qerase.thermo._route_kernel(ERASURE_PERMUTATION, key)(
            t, qubit_from_bloch(b)._flat)[3] is None
        judged = []

        def let_through(defect, tr, spectrum):
            judged.append(spectrum)
            return spectrum or [1.0]

        monkeypatch.setattr(qerase.thermo, "_reservoir_diagonal", lambda x: values)
        monkeypatch.setattr(qerase.thermo, "_judged", let_through)
        assert raised(lambda: analyze(b, spec)) == ("ValueError", "matrix entries must be finite")
        assert len(judged) == 2 and judged[0] is None and len(judged[1]) == 2
