"""Input states for the erasure channel.

The memory qubit is an arbitrary Bloch-vector state. The reservoir pairs an
energy qubit (ground g / excited e, gap delta) with an angular-momentum
ancilla (l0 / l1); it starts Gibbs-thermal in energy and preselected on l0.
Basis order puts the leftmost subsystem most significant:
memory (x) energy (x) ancilla, index = 4m + 2e + a.
"""

import math
from functools import lru_cache

from .linalg import ComplexMatrix, _kron, density_matrix, diagonal
from .record import Record, _set_field

BLOCH_NORM_TOL = 1e-12


class BlochVector(Record):
    """Bloch vector of the memory qubit; must satisfy |r| <= 1."""

    __slots__ = ("r_x", "r_y", "r_z")

    def __init__(self, r_x: float = 0.0, r_y: float = 0.0, r_z: float = 0.0):
        _set_field(self, "r_x", r_x)
        _set_field(self, "r_y", r_y)
        _set_field(self, "r_z", r_z)
        for name in ("r_x", "r_y", "r_z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            if abs(v) > 1.0 + BLOCH_NORM_TOL:  # before `r`, whose squares can overflow
                raise ValueError(f"unphysical Bloch vector: |{name}| = {abs(v)!r} exceeds 1")
        if self.r > 1.0 + BLOCH_NORM_TOL:
            raise ValueError(f"unphysical Bloch vector: |r| = {self.r!r} exceeds 1")

    @property
    def r(self) -> float:
        return math.sqrt(self.r_x**2 + self.r_y**2 + self.r_z**2)


def _check_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_nonnegative(name: str, value: float) -> None:
    if math.isnan(value) or value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


class ThermalSpec(Record):
    """Inverse temperature beta, the gap delta that memory and reservoir
    share, and Boltzmann's constant k_B.

    beta may be math.inf (zero temperature) or 0 (infinite temperature).
    """

    __slots__ = ("beta", "delta", "k_B")

    def __init__(self, beta: float, delta: float = 1.0, k_B: float = 1.0):
        _set_field(self, "beta", beta)
        _set_field(self, "delta", delta)
        _set_field(self, "k_B", k_B)
        _check_nonnegative("inverse temperature", self.beta)
        _check_positive("delta", self.delta)
        _check_positive("k_B", self.k_B)

    @classmethod
    def from_beta(cls, beta: float, delta: float = 1.0, k_B: float = 1.0) -> "ThermalSpec":
        return cls(beta=beta, delta=delta, k_B=k_B)

    @classmethod
    def from_temperature(
        cls, temperature: float, delta: float = 1.0, k_B: float = 1.0
    ) -> "ThermalSpec":
        _check_nonnegative("temperature", temperature)
        _check_positive("k_B", k_B)
        return cls(beta=_reciprocal(k_B * temperature), delta=delta, k_B=k_B)

    @property
    def temperature(self) -> float:
        return _reciprocal(self.k_B * self.beta)


def _reciprocal(x: float) -> float:
    """1 / x for x >= 0, with 1 / 0 = inf: a k_B T or k_B beta that is 0,
    or underflows to 0, means the other is infinite."""
    return math.inf if x == 0.0 else 1.0 / x


def thermal_probs(spec: ThermalSpec) -> tuple[float, float]:
    """Gibbs weights (p_g, p_e) of the energy qubit at spec.beta; (1, 0) at beta = inf."""
    return _gibbs(spec.beta, spec.delta)


def _gibbs(beta: float, delta: float) -> tuple[float, float]:
    """The Gibbs weights of gap delta at inverse temperature beta, both
    already checked: the one formula, for callers that hold no spec."""
    w = math.exp(-beta * delta)
    p_g = 1.0 / (1.0 + w)
    return (p_g, w * p_g)


def qubit_from_bloch(b: BlochVector) -> ComplexMatrix:
    """Qubit density matrix in the (|g>, |e>) basis; sigma_z |g> = +|g>."""
    off = (b.r_x - 1j * b.r_y) / 2.0
    return ComplexMatrix._from_flat(
        (complex((1.0 + b.r_z) / 2.0), off, off.conjugate(), complex((1.0 - b.r_z) / 2.0)), 2
    )


def gibbs_four_level(spec: ThermalSpec) -> ComplexMatrix:
    """Thermal reservoir state on energy (x) ancilla before preselection.

    Each energy level carries two degenerate angular-momentum states, so
    both l0 and l1 get half the Gibbs weight.
    """
    p_g, p_e = thermal_probs(spec)
    return diagonal([p_g / 2.0, p_g / 2.0, p_e / 2.0, p_e / 2.0])


def preselect_l0(rho: ComplexMatrix) -> ComplexMatrix:
    """Project the reservoir onto the l0 ancilla sector and renormalize.

    The result is validated too: an l0 weight within the eigenvalue floor
    of zero can scale a negative population into a negative eigenvalue."""
    rho = density_matrix(rho)
    if rho.dim != 4:
        raise ValueError(f"expected an energy-ancilla state, got dimension {rho.dim}")
    flat = rho._flat
    weight = sum(flat[p].real for p in (0, 10))  # (g, l0) and (e, l0)
    if weight <= 0.0:
        raise ValueError("preselection impossible: no weight in the l0 sector")
    block = [0j] * 16
    for p in (0, 2, 8, 10):  # the l0 block: rows and columns 0 and 2
        block[p] = flat[p] / weight
    return density_matrix(ComplexMatrix._from_flat(tuple(block), 4))


def composite_initial(b: BlochVector, spec: ThermalSpec) -> ComplexMatrix:
    """8x8 initial state: memory qubit (x) preselected thermal reservoir,
    formed from the reservoir's diagonal with the bits of their `kron`."""
    return _kron(qubit_from_bloch(b), _reservoir_diagonal(spec.beta, spec.delta))


@lru_cache(maxsize=64)
def _reservoir_diagonal(beta: float, delta: float) -> tuple[complex, ...]:
    """The preselected thermal reservoir's four diagonal values at a
    validated spec's beta and delta, its matrix built and validated once per
    (beta, delta), the only fields they depend on; the tuple is shared,
    immutable. The key is two floats, so a hit hashes no ThermalSpec.

    They are preselect_l0(gibbs_four_level(spec))'s diagonal entry for entry,
    built from the Gibbs weights with the same divisions: the l0 weights p/2
    over the l0 sector's weight."""
    p_g, p_e = _gibbs(beta, delta)
    g, e = p_g / 2.0, p_e / 2.0
    weight = g + e
    return density_matrix(diagonal((g / weight, 0.0, e / weight, 0.0)))._flat[::5]
