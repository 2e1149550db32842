import decimal
import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qerase.channel
import qerase.linalg
import qerase.thermo
from qerase.cli import main
from conftest import numpy_permutation, random_bloch, random_density, to_numpy
from qerase.linalg import (
    EIGENVALUE_FLOOR,
    ComplexMatrix,
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
    """-sum lam ln lam over the exact spectrum of a 2x2 state's Hermitian
    part, (a+d)/2 -/+ sqrt(((a-d)/2)^2 + |b|^2) with b = (rho01 + conj(rho10))/2,
    in 50-digit decimal arithmetic. Negative eigenvalues count as zeros, as
    in von_neumann_entropy. Returns the entropy and the exact eigenvalues."""
    (a, b), (c, d) = rho.rows
    with decimal.localcontext(decimal.Context(prec=50)):
        a, d = decimal.Decimal(a.real), decimal.Decimal(d.real)
        re = (decimal.Decimal(b.real) + decimal.Decimal(c.real)) / 2
        im = (decimal.Decimal(b.imag) - decimal.Decimal(c.imag)) / 2
        radius = (((a - d) / 2) ** 2 + re**2 + im**2).sqrt()
        spectrum = ((a + d) / 2 - radius, (a + d) / 2 + radius)
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
        rng = random.Random(55)
        spec = ThermalSpec(beta=1.0, delta=1.9)
        for _ in range(25):
            b = random_bloch(rng)
            if b.r >= 1.0:
                continue
            want = -heat_memory(b, spec) / entropy_decrease(b)
            assert limit_temperature(b, spec) == want

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
        """(entries, block) of every block whose spectrum is solved."""
        calls = []
        original = qerase.linalg._spectrum

        def counted(m, blocks):
            calls.extend((m._flat, tuple(block)) for block in blocks)
            return original(m, blocks)

        monkeypatch.setattr(qerase.linalg, "_spectrum", counted)
        return calls

    def test_composite_state_has_two_coherent_blocks(self):
        # the precondition of both siblings: coherences 0-4 and 2-6 make
        # density_matrix solve two 2x2 blocks, so "no whole matrix" is not vacuous
        r = composite_initial(self.B, self.SPEC).rows
        assert r[0][4] != 0.0 and r[2][6] != 0.0

    def test_apply_channel_solves_no_whole_matrix(self, solved_dims, solved_blocks):
        apply_channel(composite_initial(self.B, self.SPEC))
        assert solved_dims == []
        assert solved_blocks and all(len(block) <= 2 for _, block in solved_blocks)

    def test_analyze_solves_only_the_two_entropies(self, solved_dims, solved_blocks):
        # the 8x8 check solves the coherent pairs {0,4} and {2,6} and four
        # 1x1 blocks; the initial memory is one 2x2 block; the final one,
        # erased to |g>, is two 1x1 blocks; a cold reservoir cache adds the
        # reservoir's own check, four 1x1 blocks
        _reservoir_diagonal.cache_clear()
        for reservoir in ([1, 1, 1, 1], []):  # cold, then warm
            solved_blocks.clear()
            analyze(self.B, self.SPEC)
            sizes = [len(block) for _, block in solved_blocks]
            assert sizes == reservoir + [2, 1, 2, 1, 1, 1] + [2] + [1, 1]
            assert len(set(solved_blocks)) == len(solved_blocks)  # each block once
        assert solved_dims == []

    def test_warm_analyze_plans_only_the_8x8_pattern(self, monkeypatch):
        # the two 2x2 entropies read their pairs and blocks off their four
        # entries; only apply_channel's 8x8 check consults the pattern plan
        sizes = []
        original = qerase.linalg._pattern_plan

        def counted(nonzero, n):
            sizes.append(n)
            return original(nonzero, n)

        analyze(self.B, self.SPEC)  # warms the reservoir cache
        monkeypatch.setattr(qerase.linalg, "_pattern_plan", counted)
        analyze(self.B, self.SPEC)
        assert sizes == [8]

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

        def level_sum(weights, levels, delta):
            d = float(delta)
            total = 0.0
            for w, n in zip(weights, levels):
                total += w * (d * n)
            return total

        rho_initial = composite_initial(b, spec)
        pops_i, pops_f = populations(rho_initial), populations(apply_channel(rho_initial))
        change = [after - before for before, after in zip(pops_i, pops_f)]
        u_i = level_sum(pops_i, _COMPOSITE_LEVELS, spec.delta)
        u_f = level_sum(pops_f, _COMPOSITE_LEVELS, spec.delta)
        traced = {
            "memory heat": level_sum(change, _MEMORY_LEVELS, spec.delta),
            "reservoir heat": level_sum(change, _RESERVOIR_LEVELS, spec.delta),
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
        calls = []
        original = qerase.thermo._require_close

        def recorded(name, closed, traced, tol):
            calls.append((name, traced))
            original(name, closed, traced, tol)

        monkeypatch.setattr(qerase.thermo, "_require_close", recorded)
        checked = 0
        for b, spec in self._draws(random.Random(2401)):
            calls.clear()
            report = analyze(b, spec)
            want, u_i, u_f = self._level_sums(b, spec)
            got = {name: traced for name, traced in calls if name in want}
            assert got.keys() == want.keys()
            for name, traced in got.items():
                assert traced.hex() == want[name].hex(), (b, spec, name)
            assert (report.u_initial.hex(), report.u_final.hex()) == (u_i.hex(), u_f.hex())
            checked += 1
        assert checked == 1200


class TestPartialTraceCount:
    """The heats are read from the composite populations, so analyze forms
    one marginal: the final memory state, whose spectrum the entropy needs."""

    def test_analyze_traces_out_only_the_final_reservoir(self, monkeypatch):
        kept = []
        original = qerase.channel.partial_trace

        def counted(rho, dims, keep):
            kept.append(set(keep))
            return original(rho, dims, keep)

        monkeypatch.setattr(qerase.channel, "partial_trace", counted)
        analyze(BlochVector(0.9, 0.0, -0.3), ThermalSpec.from_beta(1.0))
        assert kept == [{0}]


class TestAnalyze:
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

    @pytest.mark.parametrize("attr, quantity", CLOSED_FORMS)
    def test_cross_check_catches_a_perturbed_closed_form(self, monkeypatch, attr, quantity):
        """A closed form off by 1e-8 relative fails its own comparison, in
        natural units and at an SI gap of 1.986e-22 J, where the energies
        are about 1e-22 J and an absolute tolerance would accept any error.
        """
        original = getattr(qerase.thermo, attr)
        monkeypatch.setattr(
            qerase.thermo, attr, lambda *args: (1.0 + 1e-8) * original(*args)
        )
        si = ThermalSpec.from_temperature(10.0, delta=1.986e-22, k_B=1.380649e-23)
        for spec in (ThermalSpec.from_beta(1.0), si):
            with pytest.raises(ArithmeticError, match=f"^{quantity}: "):
                analyze(BlochVector(0.3, -0.2, 0.4), spec)

    @pytest.mark.parametrize("attr, quantity", CLOSED_FORMS)
    def test_cross_check_catches_a_nan_closed_form(self, monkeypatch, capsys, attr, quantity):
        """NaN compares false with any tolerance: a closed form that turns
        NaN fails its comparison, and `erase` exits 1 instead of printing
        the quantity as `undefined`."""
        monkeypatch.setattr(qerase.thermo, attr, lambda *args: math.nan)
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
        monkeypatch.setattr(qerase.thermo, "limit_temperature", lambda *args: patched)
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
        monkeypatch.setattr(qerase.thermo, "limit_temperature", lambda *args: patched)
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
        if si:  # the same thermal point in joules and kelvins
            delta, k_B = 1.986e-22, 1.380649e-23
            kelvin = math.inf if beta == 0.0 else delta / k_B / beta
            spec = ThermalSpec.from_temperature(kelvin, delta=delta, k_B=k_B)
        else:
            spec = ThermalSpec.from_beta(beta)
        report = analyze(BlochVector(*bloch), spec)
        assert report.delta_s > 0.0
        assert report.t_limit == -report.q_memory / (spec.k_B * report.delta_s)

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
