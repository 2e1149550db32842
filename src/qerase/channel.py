"""The erasure unitary on memory (x) energy (x) ancilla and its CNOT synthesis.

The channel is a basis permutation, held as its column -> row tuple
`ERASURE_PERMUTATION` and derived from its action on bit triples,
(m, e, a) -> (a, m XOR e, e XOR a). The four CNOTs of `build_circuit` are the
check: their composition is taken once at import, and `apply_channel` refuses
to apply a tuple that differs from it. Conjugating any input by the channel
leaves the memory qubit in |g><g| whenever the reservoir was preselected on l0.
"""

import cmath

from .linalg import (
    ComplexMatrix,
    _judged,
    _plan,
    _relabeling,
    _trace_plan,
    compose_permutations,
    diagonal,
    kron,
    partial_trace,
)
from .record import Record, _set_field
from .states import BlochVector, ThermalSpec, thermal_probs

MEMORY, ENERGY, ANCILLA = 0, 1, 2
SUBSYSTEM_DIMS = (2, 2, 2)


def _bits(index: int) -> tuple[int, int, int]:
    return ((index >> 2) & 1, (index >> 1) & 1, index & 1)


# column -> row images of the permutation (m, e, a) -> (a, m^e, e^a)
ERASURE_PERMUTATION = tuple(4 * a + 2 * (m ^ e) + (e ^ a) for m, e, a in map(_bits, range(8)))


class CnotGate(Record):
    """CNOT with named control/target subsystems (0=memory, 1=energy, 2=ancilla)."""

    __slots__ = ("control", "target")

    def __init__(self, control: int, target: int):
        _set_field(self, "control", control)
        _set_field(self, "target", target)
        for name in ("control", "target"):
            v = getattr(self, name)
            if not isinstance(v, int) or v not in (MEMORY, ENERGY, ANCILLA):
                raise ValueError(f"{name} must be one of 0, 1, 2, got {v!r}")
        if self.control == self.target:
            raise ValueError("control and target must differ")

    @property
    def permutation(self) -> tuple[int, ...]:
        """Column -> row map: the target bit flips where the control bit is set."""
        control, target = 4 >> self.control, 4 >> self.target  # bit weights in 4m + 2e + a
        return tuple(i ^ target if i & control else i for i in range(8))


def build_circuit() -> tuple[CnotGate, ...]:
    """CNOT sequence realizing the erasure unitary, first gate first."""
    return (
        CnotGate(control=ENERGY, target=ANCILLA),
        CnotGate(control=MEMORY, target=ENERGY),
        CnotGate(control=ENERGY, target=MEMORY),
        CnotGate(control=ANCILLA, target=MEMORY),
    )


def circuit_permutation(elements: tuple) -> tuple[int, ...]:
    """Column -> row map of a circuit of CNOT gates or optical elements; the
    first element acts first."""
    if not elements:
        raise ValueError("empty circuit")
    perms = []
    for element in elements:
        perm = getattr(element, "permutation", None)
        if perm is None:
            raise TypeError(f"not a CNOT gate or optical element: {element!r}")
        perms.append(perm)
    return compose_permutations(*perms)


_CNOT_PERMUTATION = circuit_permutation(build_circuit())


def apply_channel(rho: ComplexMatrix) -> ComplexMatrix:
    """Conjugate rho by the erasure unitary, an exact index relabeling.

    Refuses, in this order: rows that do not form a ComplexMatrix, with its
    ValueError; a rho that is not a density matrix, with `density_matrix`'s
    ValueError, from one call of the check kernel of its plan (`_plan`);
    a dimension other than 8; and, with ArithmeticError, an
    `ERASURE_PERMUTATION` that is not the map the four CNOTs compose
    (`_checked_map`), whether or not the state populates the columns where
    the two differ."""
    if not isinstance(rho, ComplexMatrix):
        rho = ComplexMatrix(rho)
    flat = rho._flat
    _judged(*_plan(rho)(flat))
    if rho._dim != 8:
        raise ValueError(f"expected an 8-dimensional state, got {rho._dim}")
    final = object.__new__(ComplexMatrix)
    final._flat, final._dim = _relabeling(_checked_map(), 8)(flat), 8
    return final


def _checked_map() -> tuple[int, ...]:
    """The map `apply_channel` applies: `ERASURE_PERMUTATION`, read once, or
    ArithmeticError where it is not the CNOT composition."""
    perm = ERASURE_PERMUTATION
    if perm != _CNOT_PERMUTATION:
        raise ArithmeticError(f"erasure permutation: {perm} "
                              f"is not the CNOT circuit's {_CNOT_PERMUTATION}")
    return perm


def reservoir_final_closed_form(b: BlochVector, spec: ThermalSpec) -> ComplexMatrix:
    """Post-erasure reservoir state on energy (x) ancilla.

    The memory's Bloch data survives in the reservoir: populations split
    between (g, l0) and (e, l1), coherences connect the energy levels
    within each thermal branch.
    """
    return _branch_split(b, *thermal_probs(spec))


def _branch_split(
    b: BlochVector, p_g: float, p_e: float, perm: tuple[int, ...] | None = None
) -> ComplexMatrix:
    """The state above for branch weights p_g and p_e, indexed 2e + a, or,
    unless perm is None, `permute(state, perm)` in one cached gather. Its 8
    computed entries are scanned for finiteness, where a weight that is not
    finite or a product that overflows is refused; the other 8 are 0j."""
    up = (1.0 + b.r_z) / 2.0
    down = (1.0 - b.r_z) / 2.0
    off = (b.r_x - 1j * b.r_y) / 2.0
    conj = off.conjugate()
    entries = (complex(up * p_g), off * p_g, complex(down * p_e), conj * p_e,
               conj * p_g, complex(down * p_g), off * p_e, complex(up * p_e))
    if not all(map(cmath.isfinite, entries)):
        raise ValueError("matrix entries must be finite")
    v0, v1, v2, v3, v4, v5, v6, v7 = entries
    z = 0j
    flat = (v0, z, v1, z, z, v2, z, v3, v4, z, v5, z, z, v6, z, v7)
    state = object.__new__(ComplexMatrix)
    state._flat, state._dim = flat if perm is None else _relabeling(perm, 4)(flat), 4
    return state


def final_state_closed_form(b: BlochVector, spec: ThermalSpec) -> ComplexMatrix:
    """8x8 post-erasure state: memory reset to |g><g|, reservoir as above."""
    return kron(diagonal((1.0, 0.0)), reservoir_final_closed_form(b, spec))


def memory_marginal(rho: ComplexMatrix) -> ComplexMatrix:
    return partial_trace(rho, SUBSYSTEM_DIMS, keep=(MEMORY,))


def reservoir_marginal(rho: ComplexMatrix) -> ComplexMatrix:
    return partial_trace(rho, SUBSYSTEM_DIMS, keep=(ENERGY, ANCILLA))


def memory_ground_fidelity(rho: ComplexMatrix) -> float:
    """Overlap <g| tr_R(rho) |g> of the memory marginal with the ground state.

    The bits of `memory_marginal(rho)[0, 0].real`, from the one-entry kernel
    of the memory trace plan (`_trace_plan` with corner). Only that sum is
    checked finite, so an overflow in one of the marginal's other three
    entries does not raise."""
    kernel, _ = _trace_plan(SUBSYSTEM_DIMS, (MEMORY,), rho._dim, True)
    overlap, = kernel(rho._flat)
    if not cmath.isfinite(overlap):
        raise ValueError("matrix entries must be finite")
    return overlap.real
