"""Ancilla-assisted erasure of a qubit memory.

A three-qubit permutation unitary (memory, reservoir energy, angular-momentum
ancilla) resets an arbitrary memory state to its ground state while the
reservoir absorbs the lost information. The package builds the states and the
unitary (a permutation checked against four CNOTs), evaluates the erasure
thermodynamics including the temperature below which the standard dissipation
bound fails, and simulates the equivalent single-photon optical circuit.

`import qerase` loads no submodule. Each public name is imported from its
submodule on first access and bound here, so `analyze` never loads `optics`
and `simulate` never loads `thermo`.
"""

# Every public name, and every submodule, by the submodule that defines it.
_HOME = {
    name: module
    for module, names in {
        "linalg": (
            "ComplexMatrix", "density_matrix", "diagonal", "hermitian_eigenvalues",
            "kron", "partial_trace", "trace",
        ),
        "record": (),
        "states": (
            "BlochVector", "ThermalSpec", "composite_initial", "gibbs_four_level",
            "preselect_l0", "qubit_from_bloch", "thermal_probs",
        ),
        "channel": (
            "ANCILLA", "ENERGY", "ERASURE_PERMUTATION", "MEMORY", "CnotGate",
            "apply_channel", "build_circuit", "circuit_permutation",
            "final_state_closed_form", "memory_ground_fidelity", "memory_marginal",
            "reservoir_final_closed_form", "reservoir_marginal",
        ),
        "thermo": (
            "ErasureReport", "LandauerVerdict", "analyze", "commutator_norm",
            "entropy_decrease", "heat_memory", "heat_reservoir", "landauer_check",
            "limit_temperature", "photon_energy", "von_neumann_entropy",
        ),
        "optics": (
            "HWP", "MODE_LABELS", "PBS", "PathDistribution", "default_erasure_circuit",
            "mode_index", "path_final_closed_form", "path_marginal",
            "polarization_marginal", "simulate", "verify_encoding_equivalence",
        ),
    }.items()
    for name in (module, *names)
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that holds `name` and bind the result here, so
    later lookups of `name` never reach this function."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # which binds the submodule here
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
