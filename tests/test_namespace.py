"""The package namespace: the same public names as when `import qerase`
loaded every submodule, each bound on first access to its submodule's object."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qerase

SRC = Path(__file__).resolve().parent.parent / "src"

# The sorted public `dir(qerase)` of the package that imported all of its
# submodules up front.
PUBLIC_NAMES = [
    "ANCILLA", "BlochVector", "CnotGate", "ComplexMatrix", "ENERGY", "ERASURE_PERMUTATION",
    "ErasureReport", "HWP", "LandauerVerdict", "MEMORY", "MODE_LABELS", "PBS",
    "PathDistribution", "ThermalSpec", "analyze", "apply_channel", "build_circuit", "channel",
    "circuit_permutation", "commutator_norm", "composite_initial", "default_erasure_circuit",
    "density_matrix", "diagonal", "entropy_decrease", "final_state_closed_form",
    "gibbs_four_level", "heat_memory", "heat_reservoir", "hermitian_eigenvalues", "kron",
    "landauer_check", "limit_temperature", "linalg", "memory_ground_fidelity",
    "memory_marginal", "mode_index", "optics", "partial_trace", "path_final_closed_form",
    "path_marginal", "photon_energy", "polarization_marginal", "preselect_l0",
    "qubit_from_bloch", "record", "reservoir_final_closed_form", "reservoir_marginal",
    "simulate", "states", "thermal_probs", "thermo", "trace", "verify_encoding_equivalence",
    "von_neumann_entropy",
]

# Run in a fresh interpreter right after a bare `import qerase`.
FRESH = """
import json, sys
import qerase
loaded = sorted(name for name in sys.modules if name.startswith("qerase."))
public = sorted(name for name in dir(qerase) if not name.startswith("_"))
lookups = []
original = qerase.__getattr__
def counted(name):
    lookups.append(name)
    return original(name)
qerase.__getattr__ = counted
first, second = qerase.analyze, qerase.analyze
seen = list(lookups)
star = {}
exec("from qerase import *", star)
star.pop("__builtins__")
json.dump({
    "loaded": loaded,
    "public": public,
    "star": sorted(star),
    "lookups": seen,
    "same": first is second is vars(qerase)["analyze"],
}, sys.stdout)
"""


@pytest.fixture(scope="module")
def fresh() -> dict:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", FRESH],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_public_names_are_listed_before_any_submodule_loads(fresh):
    assert fresh["loaded"] == []
    assert fresh["public"] == PUBLIC_NAMES


def test_star_import_binds_exactly_the_public_names(fresh):
    assert fresh["star"] == PUBLIC_NAMES
    assert sorted(qerase.__all__) == PUBLIC_NAMES


def test_a_resolved_name_is_a_plain_attribute(fresh):
    """The first access goes through the module `__getattr__`, which binds
    the name; the second is an ordinary lookup."""
    assert fresh["lookups"] == ["analyze"]
    assert fresh["same"] is True


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_submodules_object(name):
    value = getattr(qerase, name)
    assert vars(qerase)[name] is value
    module = sys.modules[f"qerase.{qerase._HOME[name]}"]
    assert value is (module if name == qerase._HOME[name] else vars(module)[name])
    if callable(value):
        assert value.__module__ == module.__name__


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'qerase' has no attribute 'nope'$"):
        qerase.nope
    assert not hasattr(qerase, "Record")  # `record` is public, its class is not re-exported


def test_importing_an_unknown_name_raises_import_error():
    with pytest.raises(ImportError, match="cannot import name 'nope' from 'qerase'"):
        from qerase import nope  # noqa: F401
