"""The value types behave as the frozen dataclasses they replaced: the same
repr bytes, equality only within one class, the hash of the field tuple,
read-only fields, defaults and keyword construction, and pickle and copy
round trips."""

import copy
import pickle

import pytest

from qerase.channel import CnotGate
from qerase.linalg import ComplexMatrix
from qerase.optics import HWP, PBS, PathDistribution
from qerase.states import BlochVector, ThermalSpec
from qerase.thermo import ErasureReport
from qerase.verify import CheckResult

# (class, fields in order as (name, value), defaults, repr of the parent's
# dataclass)
CASES = [
    (
        BlochVector,
        (("r_x", 0.1), ("r_y", -0.25), ("r_z", 0.5)),
        {"r_x": 0.0, "r_y": 0.0, "r_z": 0.0},
        "BlochVector(r_x=0.1, r_y=-0.25, r_z=0.5)",
    ),
    (
        ThermalSpec,
        (("beta", 0.5), ("delta", 1.986e-22), ("k_B", 1.380649e-23)),
        {"delta": 1.0, "k_B": 1.0},
        "ThermalSpec(beta=0.5, delta=1.986e-22, k_B=1.380649e-23)",
    ),
    (
        CnotGate,
        (("control", 0), ("target", 2)),
        {},
        "CnotGate(control=0, target=2)",
    ),
    (
        ErasureReport,
        (
            ("delta_s", 0.5), ("q_memory", -0.25), ("q_reservoir", 0.125),
            ("q_environment", 0.25), ("photon_energy", 0.125), ("u_initial", 1.5),
            ("u_final", 1.375), ("t_limit", 2.0), ("temperature", 3.0),
            ("landauer_violated", True), ("landauer_margin", 1e-3),
        ),
        {},
        "ErasureReport(delta_s=0.5, q_memory=-0.25, q_reservoir=0.125, q_environment=0.25, "
        "photon_energy=0.125, u_initial=1.5, u_final=1.375, t_limit=2.0, temperature=3.0, "
        "landauer_violated=True, landauer_margin=0.001)",
    ),
    (
        PBS,
        (("path_a", 1), ("path_b", 2)),
        {},
        "PBS(path_a=1, path_b=2)",
    ),
    (
        HWP,
        (("path", 3),),
        {},
        "HWP(path=3)",
    ),
    (
        PathDistribution,
        (("p_1", 0.75), ("p_2", 0.25)),
        {},
        "PathDistribution(p_1=0.75, p_2=0.25)",
    ),
    (
        CheckResult,
        (("name", "unitarity"), ("status", "pass"), ("detail", "ok")),
        {},
        "CheckResult(name='unitarity', status='pass', detail='ok')",
    ),
]


@pytest.mark.parametrize("cls, fields, defaults, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_contract(cls, fields, defaults, text):
    kwargs = dict(fields)
    values = tuple(kwargs.values())
    x = cls(**kwargs)

    assert repr(x) == text
    assert tuple(getattr(x, name) for name in kwargs) == values
    assert cls(*values) == x and not (cls(*values) != x)

    subclass = type(cls.__name__, (cls,), {"__slots__": ()})
    for other in (values, subclass(**kwargs)):
        assert x != other and other != x
        assert not (x == other or other == x)

    assert hash(x) == hash(values)

    for name, value in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.unknown = 1
    assert repr(x) == text

    required = {name: value for name, value in fields if name not in defaults}
    built = cls(**required)
    assert {name: getattr(built, name) for name in defaults} == defaults
    for name in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in required.items() if k != name})

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(x, protocol))
        assert type(clone) is cls and clone == x and repr(clone) == text
    for clone in (copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is cls and clone == x and repr(clone) == text


def test_complex_matrix_round_trips():
    m = ComplexMatrix(
        [[0.25, 0.5 - 0.125j, -0.0], [0.5 + 0.125j, 0.75, 1e-300j], [0j, -1e-300j, 0.0]]
    )
    bits = [(x.real.hex(), x.imag.hex()) for x in m._flat]
    clones = [pickle.loads(pickle.dumps(m, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones + [copy.copy(m), copy.deepcopy(m)]:
        assert type(clone) is ComplexMatrix and clone == m and repr(clone) == repr(m)
        assert [(x.real.hex(), x.imag.hex()) for x in clone._flat] == bits
