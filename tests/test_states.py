import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qerase.states
from conftest import assert_matrix_close, entry_bits, raised, random_density
from qerase.channel import apply_channel
from qerase.linalg import ComplexMatrix, density_matrix, diagonal, kron, trace
from qerase.states import (
    BlochVector,
    ThermalSpec,
    composite_initial,
    gibbs_four_level,
    preselect_l0,
    qubit_from_bloch,
    thermal_probs,
)
from qerase.thermo import analyze

unit_interval = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
bloch_vectors = (
    st.tuples(unit_interval, unit_interval, unit_interval)
    .filter(lambda t: t[0] ** 2 + t[1] ** 2 + t[2] ** 2 <= 1.0)
    .map(lambda t: BlochVector(*t))
)


class TestBlochVector:
    def test_radius(self):
        assert BlochVector(0.3, 0.4, 0.0).r == pytest.approx(0.5, abs=1e-15)

    def test_default_is_origin(self):
        assert BlochVector() == BlochVector(0.0, 0.0, 0.0)

    def test_rejects_radius_above_one(self):
        with pytest.raises(ValueError, match="unphysical Bloch vector"):
            BlochVector(1.0, 0.1, 0.0)

    def test_tolerates_rounding_at_the_surface(self):
        BlochVector(1.0 + 5e-13, 0.0, 0.0)  # within the 1e-12 allowance

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            BlochVector(math.inf, 0.0, 0.0)

    @pytest.mark.parametrize("components", [(1e200, 0, 0), (0, -1e200, 0), (0.5, 0, 1e155)])
    def test_rejects_a_component_whose_square_overflows(self, components):
        with pytest.raises(ValueError, match="unphysical Bloch vector"):
            BlochVector(*components)

    def test_frozen(self):
        b = BlochVector(0.1, 0.2, 0.3)
        with pytest.raises(AttributeError):
            b.r_x = 0.5


class TestThermalSpec:
    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError, match=">= 0"):
            ThermalSpec.from_beta(-1.0)

    def test_rejects_nan_beta(self):
        with pytest.raises(ValueError):
            ThermalSpec.from_beta(math.nan)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            ThermalSpec.from_beta(1.0, delta=delta)

    @pytest.mark.parametrize("k_B", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_k_b(self, k_B):
        with pytest.raises(ValueError, match="k_B must be positive and finite"):
            ThermalSpec.from_beta(1.0, k_B=k_B)
        with pytest.raises(ValueError, match="k_B must be positive and finite"):
            ThermalSpec.from_temperature(1.0, k_B=k_B)

    def test_zero_temperature_is_infinite_beta(self):
        spec = ThermalSpec.from_temperature(0.0)
        assert math.isinf(spec.beta)
        assert spec.temperature == 0.0

    def test_infinite_temperature_is_zero_beta(self):
        spec = ThermalSpec.from_temperature(math.inf)
        assert spec.beta == 0.0
        assert math.isinf(spec.temperature)

    def test_underflowing_products_read_as_infinite(self):
        # k_B T and k_B beta round to 0 below the smallest subnormal: the
        # other side is then infinite, as at T = 0 or beta = 0
        cold = ThermalSpec.from_temperature(1e-310, delta=1e-22, k_B=1.380649e-23)
        assert cold.beta == math.inf and cold.temperature == 0.0
        hot = ThermalSpec.from_beta(1e-310, delta=1e-22, k_B=1.380649e-23)
        assert hot.beta == 1e-310 and hot.temperature == math.inf

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            ThermalSpec.from_temperature(-0.1)

    def test_temperature_round_trip(self):
        spec = ThermalSpec.from_temperature(2.5, delta=1.3, k_B=0.7)
        assert spec.temperature == pytest.approx(2.5, rel=1e-15)


class TestThermalProbs:
    def test_zero_temperature_exact(self):
        assert thermal_probs(ThermalSpec.from_beta(math.inf)) == (1.0, 0.0)

    def test_infinite_temperature_exact(self):
        assert thermal_probs(ThermalSpec.from_beta(0.0)) == (0.5, 0.5)

    def test_log_two_beta_gives_thirds(self):
        p_g, p_e = thermal_probs(ThermalSpec.from_beta(math.log(2.0)))
        assert p_g == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert p_e == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_beta_scales_with_delta(self):
        # only the product beta*delta matters
        a = thermal_probs(ThermalSpec.from_beta(2.0, delta=0.5))
        b = thermal_probs(ThermalSpec.from_beta(1.0, delta=1.0))
        assert a == b

    @settings(max_examples=100)
    @given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_ground_state_always_wins(self, beta):
        p_g, p_e = thermal_probs(ThermalSpec.from_beta(beta))
        assert p_g >= p_e >= 0.0
        assert p_g + p_e == pytest.approx(1.0, abs=1e-15)


class TestQubitFromBloch:
    def test_origin_is_maximally_mixed(self):
        assert qubit_from_bloch(BlochVector()).rows == ((0.5, 0), (0, 0.5))

    def test_north_pole_is_ground_state(self):
        assert qubit_from_bloch(BlochVector(0, 0, 1)).rows == ((1, 0), (0, 0))

    def test_known_coherent_state(self):
        rho = qubit_from_bloch(BlochVector(0.6, -0.2, 0.4))
        assert rho[0, 0] == pytest.approx(0.7)
        assert rho[1, 1] == pytest.approx(0.3)
        assert rho[0, 1] == pytest.approx(0.3 + 0.1j)
        assert rho[1, 0] == pytest.approx(0.3 - 0.1j)


class TestGibbsAndPreselection:
    def test_gibbs_degeneracy_split(self):
        spec = ThermalSpec.from_beta(math.log(2.0))
        rho = gibbs_four_level(spec)
        p_g, p_e = thermal_probs(spec)
        assert rho[0, 0] == rho[1, 1] == p_g / 2.0
        assert rho[2, 2] == rho[3, 3] == p_e / 2.0
        assert trace(rho) == pytest.approx(1.0, abs=1e-15)

    def test_preselection_keeps_l0_weights(self):
        spec = ThermalSpec.from_beta(1.0)
        rho = preselect_l0(gibbs_four_level(spec))
        p_g, p_e = thermal_probs(spec)
        assert rho[0, 0] == pytest.approx(p_g, abs=1e-15)
        assert rho[2, 2] == pytest.approx(p_e, abs=1e-15)
        assert rho[1, 1] == 0.0 and rho[3, 3] == 0.0

    def test_preselection_preserves_l0_coherence(self):
        rho = ComplexMatrix(
            [
                [0.3, 0, 0.1j, 0],
                [0, 0.4, 0, 0],
                [-0.1j, 0, 0.2, 0],
                [0, 0, 0, 0.1],
            ]
        )
        out = preselect_l0(rho)
        assert out[0, 2] == pytest.approx(0.1j / 0.5, abs=1e-15)
        assert trace(out) == pytest.approx(1.0, abs=1e-15)

    def test_preselection_impossible_without_l0_weight(self):
        rho = diagonal([0.0, 0.5, 0.0, 0.5])
        with pytest.raises(ValueError, match="preselection impossible"):
            preselect_l0(rho)

    def test_preselection_accepts_raw_rows(self):
        rows = [[0.3, 0, 0.1j, 0], [0, 0.4, 0, 0], [-0.1j, 0, 0.2, 0], [0, 0, 0, 0.1]]
        assert preselect_l0(rows) == preselect_l0(ComplexMatrix(rows))

    def test_preselection_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            preselect_l0(diagonal([0.5, 0.5]))

    def test_preselection_rejects_invalid_density(self):
        with pytest.raises(ValueError, match="trace"):
            preselect_l0(diagonal([1.0, 1.0, 0.0, 0.0]))

    def test_preselection_rejects_an_unphysical_result(self):
        # -5e-11 passes the input's eigenvalue floor of -1e-10, but divided by
        # the l0 weight 5e-11 it would return diag(-1, 0, 2, 0)
        with pytest.raises(ValueError, match="eigenvalue"):
            preselect_l0(diagonal([-5e-11, 0.5, 1e-10, 0.5 - 5e-11]))


    def test_flat_preselection_has_the_row_list_bits(self):
        """preselect_l0 reads the l0 block off the flat entries; it gives the
        bits, or the (type, message) of the error, of the row-list form it
        replaced, on coherent states whose l0 weight falls to the eigenvalue
        floor, with zeros of either sign, and on each way it can refuse."""
        rng = random.Random(97)
        results = []
        for _ in range(500):
            rho = _coherent_reservoir(rng)
            got, want = raised(lambda: preselect_l0(rho)), raised(lambda: _preselect_rows(rho))
            assert got == want
            if isinstance(want, ComplexMatrix):
                assert entry_bits(got) == entry_bits(want)
                results.append(got)
        assert len(results) > 400
        tiny = 5e-321  # two of them: an l0 weight that 1e-11 / weight overflows
        refusals = {  # a part of each message, and an input refused with it
            "not Hermitian": ComplexMatrix([[0.5, 0.1, 0, 0], [0, 0.5, 0, 0],
                                            [0, 0, 0, 0], [0, 0, 0, 0]]),
            "dimension 2": diagonal([0.5, 0.5]),
            "no weight in the l0 sector": diagonal([-5e-11, 0.5, 5e-11, 0.5]),
            "entries must be finite": ComplexMatrix([[tiny, 0, 1e-11, 0], [0, 0.5, 0, 0],
                                                     [1e-11, 0, tiny, 0], [0, 0, 0, 0.5]]),
            "eigenvalue -1.000e+00": diagonal([-5e-11, 0.5, 1e-10, 0.5 - 5e-11]),
        }
        for message, rho in refusals.items():
            want = raised(lambda: _preselect_rows(rho))
            assert raised(lambda: preselect_l0(rho)) == want
            assert want[0] == "ValueError" and message in want[1], want

def _preselect_rows(rho):
    """The row-list preselection: the oracle of the flat one."""
    rho = density_matrix(rho)
    if rho.dim != 4:
        raise ValueError(f"expected an energy-ancilla state, got dimension {rho.dim}")
    keep = (0, 2)  # (g, l0) and (e, l0)
    weight = sum(rho[i, i].real for i in keep)
    if weight <= 0.0:
        raise ValueError("preselection impossible: no weight in the l0 sector")
    rows = [[0.0 + 0.0j] * 4 for _ in range(4)]
    for i in keep:
        for j in keep:
            rows[i][j] = rho[i, j] / weight
    return density_matrix(rows)


def _coherent_reservoir(rng):
    """A 4x4 density matrix: a random full-rank state with weight 10^-11 to 1
    mixed into one on l1 (indices 1, 3), so its l0 weight is as small; half
    of the draws move up to 5e-11 of l0 population to l1, which can leave a
    population below zero by as much as the eigenvalue floor allows. Entries
    between the parts of a random partition, a pinching that keeps the state
    positive, become zeros of either sign, as do the diagonal's imaginary
    parts."""
    eps = 10.0 ** rng.uniform(-11.0, 0.0)
    flat = [eps * x for x in random_density(rng, 4)._flat]
    for p, x in zip((5, 7, 13, 15), random_density(rng, 2)._flat):
        flat[p] += (1.0 - eps) * x
    if rng.random() < 0.5:
        shift = rng.uniform(0.0, 5e-11)
        flat[rng.choice((0, 10))] -= shift
        flat[5] += shift
    parts = rng.choice((((0, 1, 2, 3),), ((0, 2), (1, 3)), ((0,), (2,), (1, 3))))
    part = {i: k for k, members in enumerate(parts) for i in members}
    zero = (0.0, -0.0)
    for i in range(4):
        for j in range(4):
            if part[i] != part[j]:
                flat[4 * i + j] = complex(rng.choice(zero), rng.choice(zero))
        flat[5 * i] = complex(flat[5 * i].real, rng.choice(zero))
    return ComplexMatrix([flat[4 * i:4 * i + 4] for i in range(4)])


class TestCompositeInitial:
    def test_structure_at_zero_temperature(self):
        rho = composite_initial(BlochVector(0, 0, 1), ThermalSpec.from_beta(math.inf))
        # |g> memory with (g, l0) reservoir: all weight on basis index 0
        want = np.zeros((8, 8), dtype=complex)
        want[0, 0] = 1.0
        assert_matrix_close(rho, want, atol=0)

    def test_block_structure(self):
        b = BlochVector(0.5, 0.1, -0.2)
        spec = ThermalSpec.from_beta(0.7)
        rho = composite_initial(b, spec)
        p_g, p_e = thermal_probs(spec)
        mem = qubit_from_bloch(b)
        assert trace(rho) == pytest.approx(1.0, abs=1e-14)
        # ancilla l1 rows and columns are empty
        for idx in (1, 3, 5, 7):
            assert all(rho[idx, j] == 0.0 for j in range(8))
        # memory coherence times reservoir ground weight
        assert rho[0, 4] == pytest.approx(mem[0, 1] * p_g, abs=1e-15)
        assert rho[2, 6] == pytest.approx(mem[0, 1] * p_e, abs=1e-15)

    @pytest.fixture
    def reservoir_builds(self, monkeypatch):
        """Record the x of each read of the Gibbs weights."""
        calls = []
        original = qerase.states._gibbs

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(qerase.states, "_gibbs", counted)
        return calls

    def test_each_call_reads_the_weights_once_at_beta_delta(self, reservoir_builds):
        b = BlochVector(0.5, 0.1, -0.2)
        composite_initial(b, ThermalSpec.from_beta(0.7))
        assert reservoir_builds == [0.7]
        # x = beta * delta is the one value the weights read
        composite_initial(b, ThermalSpec.from_beta(0.7, delta=2.0))
        composite_initial(BlochVector(0.0, 0.3, 0.1), ThermalSpec.from_beta(1.4))
        assert reservoir_builds == [0.7, 1.4, 1.4]

    def test_reservoir_is_shared_by_specs_that_differ_only_in_k_b(self, reservoir_builds):
        # the reservoir depends on beta and delta alone, and k_B only
        # converts between beta and a temperature
        b = BlochVector(0.5, 0.1, -0.2)
        natural = ThermalSpec(beta=0.7, delta=2.0)
        si = ThermalSpec(beta=0.7, delta=2.0, k_B=1.380649e-23)
        assert natural != si
        assert composite_initial(b, natural) == composite_initial(b, si)
        assert reservoir_builds == [1.4, 1.4]

    @pytest.mark.parametrize("units", ["natural", "si"])
    @pytest.mark.parametrize("beta_delta", [0.0, 1e-300, 1e-12, 0.1, 1.0, 10.0, math.inf])
    def test_reservoir_has_the_preselected_bits(self, beta_delta, units):
        """The reservoir is formed as the four values of one diagonal from
        the Gibbs weights; each, signed zeros included, has the bits of the
        diagonal of preselect_l0 applied to the Gibbs state."""
        delta, k_B = (1.986e-22, 1.380649e-23) if units == "si" else (1.0, 1.0)
        specs = [ThermalSpec(beta=beta_delta / delta, delta=delta, k_B=k_B)]
        if units == "si":
            specs.append(ThermalSpec.from_temperature(300.0, delta=delta, k_B=k_B))

        def bits(values):
            return [(complex(x).real.hex(), complex(x).imag.hex()) for x in values]

        for spec in specs:
            want = bits(preselect_l0(gibbs_four_level(spec))._flat[::5])
            x = spec.beta * spec.delta
            assert bits(qerase.states._reservoir_diagonal(x)) == want

    @pytest.mark.parametrize(
        "x", [0.0, 5e-324, 1e-300, 1.0, 50.0, 1e300, 1.7976931348623157e308, math.inf]
    )
    def test_reservoir_values_are_finite_and_nonnegative(self, x):
        # the invariant that makes the reservoir a density matrix's diagonal
        # for every x = beta * delta a ThermalSpec admits
        values = qerase.states._reservoir_diagonal(x)
        assert len(values) == 4
        assert all(type(v) is complex for v in values)
        assert all(math.isfinite(v.real) and v.real >= 0.0 and v.imag == 0.0 for v in values)
        assert math.fsum(v.real for v in values) == pytest.approx(1.0, abs=1e-15)

    def test_unphysical_weights_are_refused_where_the_state_enters_the_channel(
        self, monkeypatch
    ):
        # the reservoir's values are not checked where they are formed; a
        # negative weight still reaches the 8x8 density check on both paths
        monkeypatch.setattr(qerase.states, "_gibbs", lambda x: (1.2, -0.2))
        b, spec = BlochVector(0.5, 0.1, -0.2), ThermalSpec.from_beta(0.7)
        with pytest.raises(ValueError, match="matrix has eigenvalue -"):
            analyze(b, spec)
        with pytest.raises(ValueError, match="matrix has eigenvalue -"):
            apply_channel(composite_initial(b, spec))

    @pytest.mark.parametrize("beta", [0.0, 0.7, math.inf])
    def test_reservoir_gives_the_kron_of_the_preselected_state(self, beta):
        b = BlochVector(0.5, 0.1, -0.2)
        spec = ThermalSpec.from_beta(beta)
        assert composite_initial(b, spec) == kron(
            qubit_from_bloch(b), preselect_l0(gibbs_four_level(spec))
        )

    @settings(max_examples=30)
    @given(bloch_vectors, st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
    def test_always_a_valid_density_matrix(self, b, beta):
        rho = composite_initial(b, ThermalSpec.from_beta(beta))
        assert rho.dim == 8
        assert trace(rho).real == pytest.approx(1.0, abs=1e-13)


