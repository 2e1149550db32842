"""Ancilla-assisted erasure of a qubit memory.

A three-qubit permutation unitary (memory, reservoir energy, angular-momentum
ancilla) resets an arbitrary memory state to its ground state while the
reservoir absorbs the lost information. The package builds the states and the
unitary (a permutation checked against four CNOTs), evaluates the erasure
thermodynamics including the temperature below which the standard dissipation
bound fails, and simulates the equivalent single-photon optical circuit.
"""

from .linalg import (
    ComplexMatrix,
    density_matrix,
    diagonal,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    trace,
)
from .states import (
    BlochVector,
    ThermalSpec,
    composite_initial,
    gibbs_four_level,
    preselect_l0,
    qubit_from_bloch,
    thermal_probs,
)
from .channel import (
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
from .thermo import (
    ErasureReport,
    LandauerVerdict,
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
from .optics import (
    HWP,
    MODE_LABELS,
    PBS,
    PathDistribution,
    default_erasure_circuit,
    mode_index,
    path_final_closed_form,
    path_marginal,
    polarization_marginal,
    simulate,
    verify_encoding_equivalence,
)

__version__ = "0.1.0"
