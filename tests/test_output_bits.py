"""Every output bit of `analyze`, the propagate calls and `verify`, pinned.

Each test draws its own seeded inputs, runs them and compares the sha256 of
the `repr` of the list of outputs (an error as `Type: message`) with a
recorded digest. `repr` prints every float to its last bit and the imaginary
parts with their signs, so a kernel that rounds differently, reorders a sum
or flips a signed zero anywhere changes a digest. The digests are the same
on every interpreter the package supports; a change that means to move an
output bit must say which and record the new digest.

The draws cover the domain of the reports: memories uniform in the Bloch
ball, near-pure memories with 1 - r log-uniform down to 1e-12 (and the exact
ground state), beta on the grid {0, 0.1, 1, 10, inf} or a log-uniform
temperature, and SI gaps in joules and kelvins.
"""

import hashlib
import math
import random

import qerase
from qerase.verify import run_verification

BETA_GRID = (0.0, 0.1, 1.0, 10.0, math.inf)
T_RANGE = (0.05, 20.0)  # finite temperatures, in units of delta / k_B
DELTA_SI, K_B_SI = 1.986e-22, 1.380649e-23  # J, J/K
DRAWS = 600

ANALYZE_DIGEST = "bb74687b1556ff06e8b694f0218383f6fb351ee8380defc6407402974b7c7c06"
PROPAGATE_DIGEST = "95c6ee277c632f093f9098d1933964bcd76b7b3938668823359c465e866565df"
VERIFY_DIGEST = "d081efdba8c07dc5471b9fd15aaaf97db590f5c157f926e253e11be810d4d5e5"


def _ball(rng):
    while True:
        b = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        if sum(x * x for x in b) <= 1.0:
            return b


def _near_pure(rng):
    if rng.random() < 1.0 / 16.0:
        return (0.0, 0.0, 1.0)
    while True:
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in d))
        if norm > 1e-6:
            break
    r = 1.0 - 10.0 ** rng.uniform(-12.0, -3.0)
    return tuple(r * x / norm for x in d)


def _beta(rng):
    k = rng.randrange(len(BETA_GRID) + 1)
    if k < len(BETA_GRID):
        return BETA_GRID[k]
    return 1.0 / 10.0 ** rng.uniform(*map(math.log10, T_RANGE))


def _draws(name):
    """(b, spec, natural beta) for each draw: a quarter near-pure, a
    quarter in SI units, each property drawn on its own."""
    rng = random.Random(f"qerase-output-bits:{name}")
    out = []
    for _ in range(DRAWS):
        near_pure, si = rng.random() < 0.25, rng.random() < 0.25
        b = qerase.BlochVector(*(_near_pure(rng) if near_pure else _ball(rng)))
        beta = _beta(rng)
        if si:
            kelvin = DELTA_SI / K_B_SI / beta if beta else math.inf
            spec = qerase.ThermalSpec.from_temperature(kelvin, delta=DELTA_SI, k_B=K_B_SI)
        else:
            spec = qerase.ThermalSpec.from_beta(beta)
        out.append((b, spec, beta))
    return out


def _propagate(b, spec, beta):
    final = qerase.apply_channel(qerase.composite_initial(b, spec))
    dist = qerase.PathDistribution.from_beta(beta)
    photon = qerase.simulate(b, dist)
    return (
        qerase.memory_ground_fidelity(final),
        qerase.memory_marginal(final),
        qerase.reservoir_marginal(final),
        qerase.reservoir_final_closed_form(b, spec),
        qerase.path_marginal(photon),
        qerase.polarization_marginal(photon),
        qerase.path_final_closed_form(b, dist),
    )


def _digest(call, inputs):
    outputs = []
    for args in inputs:
        try:
            outputs.append(call(*args))
        except (ValueError, ArithmeticError) as exc:
            outputs.append(f"{type(exc).__name__}: {exc}")
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def test_analyze_reports():
    inputs = [(b, spec) for b, spec, _ in _draws("analyze")]
    assert _digest(qerase.analyze, inputs) == ANALYZE_DIGEST


def test_propagate_outputs():
    assert _digest(_propagate, _draws("propagate")) == PROPAGATE_DIGEST


def test_verification_battery():
    digest = hashlib.sha256(repr(run_verification(draws=200)).encode()).hexdigest()
    assert digest == VERIFY_DIGEST
