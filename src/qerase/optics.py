"""Linear-optical realization of the erasure channel.

A single photon carries the memory in its polarization (H/V) and the
reservoir in which of four paths it travels; paths 1 and 2 are the physical
inputs, weighted thermally. Polarizing beam splitters shift V light between
paths, half-wave plates flip the polarization on one path. Mode index:
4 * pol + (path - 1) with H=0, V=1.
"""

import math

from .linalg import ComplexMatrix, _kron, partial_trace
from .record import Record, _set_field
from .states import BlochVector, _check_nonnegative, _gibbs, qubit_from_bloch
from .channel import ERASURE_PERMUTATION, _bits, _branch_split, circuit_permutation

POL_H, POL_V = 0, 1
PATHS = (1, 2, 3, 4)

MODE_LABELS = tuple(f"|{p},{path}>" for p in "HV" for path in PATHS)
PATH_LABELS = tuple(f"path {path}" for path in PATHS)

PROBABILITY_TOL = 1e-12


def _is_path(path: int) -> bool:
    """An int in 1..4; a float such as 2.0 compares equal but cannot index."""
    return isinstance(path, int) and path in PATHS


def mode_index(pol: int, path: int) -> int:
    if not isinstance(pol, int) or pol not in (POL_H, POL_V):
        raise ValueError(f"polarization must be 0 (H) or 1 (V), got {pol!r}")
    if not _is_path(path):
        raise ValueError(f"path must be in 1..4, got {path!r}")
    return 4 * pol + (path - 1)


# abstract basis index 4m + 2e + a -> mode index: pol = m, path = 1 + e + 2a
CHANNEL_TO_MODE = tuple(mode_index(m, 1 + e + 2 * a) for m, e, a in map(_bits, range(8)))
# the l0-preselected sector: the photon enters on path 1 or 2
PHYSICAL_INPUT_INDICES = tuple(i for i in range(8) if not _bits(i)[2])


class PBS(Record):
    """Polarizing beam splitter joining two paths: V swaps, H passes."""

    __slots__ = ("path_a", "path_b")

    def __init__(self, path_a: int, path_b: int):
        _set_field(self, "path_a", path_a)
        _set_field(self, "path_b", path_b)
        for name in ("path_a", "path_b"):
            if not _is_path(getattr(self, name)):
                raise ValueError(f"{name} must be in 1..4, got {getattr(self, name)!r}")
        if self.path_a == self.path_b:
            raise ValueError("a beam splitter needs two distinct paths")

    @property
    def permutation(self) -> tuple[int, ...]:
        return _swap(mode_index(POL_V, self.path_a), mode_index(POL_V, self.path_b))


class HWP(Record):
    """Half-wave plate on one path: flips H <-> V there."""

    __slots__ = ("path",)

    def __init__(self, path: int):
        _set_field(self, "path", path)
        if not _is_path(self.path):
            raise ValueError(f"path must be in 1..4, got {self.path!r}")

    @property
    def permutation(self) -> tuple[int, ...]:
        return _swap(mode_index(POL_H, self.path), mode_index(POL_V, self.path))


OpticalElement = PBS | HWP


def _swap(a: int, b: int) -> tuple[int, ...]:
    """Column -> row map exchanging modes a and b, fixing the other six."""
    perm = list(range(8))
    perm[a], perm[b] = b, a
    return tuple(perm)


class PathDistribution(Record):
    """Input weights on paths 1 and 2 (paths 3 and 4 start empty)."""

    __slots__ = ("p_1", "p_2")

    def __init__(self, p_1: float, p_2: float):
        _set_field(self, "p_1", p_1)
        _set_field(self, "p_2", p_2)
        for name in ("p_1", "p_2"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be a probability, got {v!r}")
        if abs(self.p_1 + self.p_2 - 1.0) > PROBABILITY_TOL:
            raise ValueError(
                f"path weights must sum to 1, got {self.p_1 + self.p_2!r}"
            )

    @classmethod
    def from_beta(cls, beta: float) -> "PathDistribution":
        """Paths 1 and 2 weighted as the energy qubit's Gibbs weights at beta,
        in units of the gap: `thermal_probs(ThermalSpec(beta=beta))`, with
        ThermalSpec's check of beta and no spec formed."""
        _check_nonnegative("inverse temperature", beta)
        return cls(*_gibbs(beta))


def default_erasure_circuit() -> tuple[OpticalElement, ...]:
    """Element sequence realizing the erasure on the photon, first element first."""
    return (
        PBS(1, 2),
        HWP(2),
        PBS(2, 4),
        HWP(4),
        PBS(1, 3),
        HWP(3),
    )


DEFAULT_CIRCUIT_PERMUTATION = circuit_permutation(default_erasure_circuit())


def simulate(pol: BlochVector, dist: PathDistribution) -> ComplexMatrix:
    """Send polarization state `pol` on paths weighted by `dist` through the
    default circuit; returns the full 8x8 mode state, the bits of
    `permute(kron(qubit, diagonal([p_1, p_2, 0, 0])),
    DEFAULT_CIRCUIT_PERMUTATION)`: `_kron` gathers the products straight
    into the circuit's mode order."""
    return _kron(qubit_from_bloch(pol), [complex(dist.p_1), complex(dist.p_2), 0j, 0j],
                 DEFAULT_CIRCUIT_PERMUTATION)


def path_final_closed_form(pol: BlochVector, dist: PathDistribution) -> ComplexMatrix:
    """Path marginal after the circuit: populations on paths 1 and 4 carry
    (1 +/- r_z)/2, coherences bridge paths 1-2 and 3-4. It is the channel's
    post-erasure reservoir with p_g = p_1, p_e = p_2, relabeled from index
    2e + a to path - 1 = e + 2a by the reservoir half of CHANNEL_TO_MODE,
    in the same gather that forms it."""
    return _branch_split(pol, dist.p_1, dist.p_2, CHANNEL_TO_MODE[:4])


def polarization_marginal(rho: ComplexMatrix) -> ComplexMatrix:
    return partial_trace(rho, (2, 4), keep=(0,))


def path_marginal(rho: ComplexMatrix) -> ComplexMatrix:
    return partial_trace(rho, (2, 4), keep=(1,))


def verify_encoding_equivalence() -> tuple[str, ...]:
    """Mismatches of the optical circuit against the abstract channel on the
    four physical inputs (photon entering on path 1 or 2); the encodings are
    equivalent exactly when there are none."""
    mismatches = []
    for i in PHYSICAL_INPUT_INDICES:
        mode = CHANNEL_TO_MODE[i]
        got = DEFAULT_CIRCUIT_PERMUTATION[mode]
        want = CHANNEL_TO_MODE[ERASURE_PERMUTATION[i]]
        if got != want:
            mismatches.append(
                f"input {MODE_LABELS[mode]}: circuit sends it to "
                f"{MODE_LABELS[got]}, channel says {MODE_LABELS[want]}"
            )
    return tuple(mismatches)
