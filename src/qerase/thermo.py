"""Thermodynamics of the erasure: entropy transfer, heats, limit temperature.

Conventions: entropies in nats, heat positive when it flows *into* the
named subsystem, the gap delta and k_B taken from the `ThermalSpec`. Every
closed form has a trace-based twin computed from the propagated states, and
`analyze` cross-checks the two routes before reporting.
"""

import math
from collections import namedtuple
from collections.abc import Sequence

from .linalg import ComplexMatrix, _check_permutation, _density_spectrum, _kron
from .record import Record, _set_field
from .states import (
    BlochVector,
    ThermalSpec,
    _check_nonnegative,
    _check_positive,
    _reservoir_diagonal,
    qubit_from_bloch,
    thermal_probs,
)
from .channel import _bits, apply_channel, memory_marginal

LN2 = math.log(2.0)
ROUTE_TOL = 1e-10


# Every Hamiltonian is diagonal, ground level at 0: its level energies are delta
# times the excitations m (memory), e (reservoir) of basis index 4m + 2e + a.
_MEMORY_LEVELS, _RESERVOIR_LEVELS, _ = zip(*map(_bits, range(8)))
_COMPOSITE_LEVELS = tuple(m + e for m, e in zip(_MEMORY_LEVELS, _RESERVOIR_LEVELS))


def von_neumann_entropy(rho: ComplexMatrix) -> float:
    """-Tr[rho ln rho] in nats, summed over the ascending spectrum.

    The spectrum is the one the density-matrix validation solved for its
    eigenvalue floor, each block of the nonzero pattern once: the bits
    `hermitian_eigenvalues` gives. Eigenvalues in [-1e-10, 0] are treated as
    exact zeros; anything lower is rejected by that validation.
    """
    s = 0.0
    for lam in _density_spectrum(rho)[1]:
        if lam > 0.0:
            s -= lam * math.log(lam)
    return max(s, 0.0)


def entropy_decrease(b: BlochVector) -> float:
    """Memory entropy removed by the erasure, ln 2 at r=0 down to 0 at r=1."""
    r = min(b.r, 1.0)
    if r >= 1.0:
        return 0.0
    return LN2 - r * math.log(1.0 + r) - 0.5 * (1.0 - r) * math.log((1.0 - r) * (1.0 + r))


def heat_memory(b: BlochVector, spec: ThermalSpec) -> float:
    """Heat received by the memory; always -(delta/2)(1 - r_z) <= 0."""
    return -(spec.delta / 2.0) * (1.0 - b.r_z)


def heat_reservoir(b: BlochVector, spec: ThermalSpec) -> float:
    """Heat received by the reservoir, (delta/2)(1 - r_z)(p_g - p_e), with
    delta = spec.delta, the gap of the Gibbs weights. p_g - p_e is taken as
    tanh(beta delta / 2), which keeps full relative precision as beta -> 0,
    where the difference of the two weights cancels."""
    return (spec.delta / 2.0) * (1.0 - b.r_z) * math.tanh(spec.beta * spec.delta / 2.0)


def photon_energy(b: BlochVector, spec: ThermalSpec) -> float:
    """Energy carried off radiatively: -(Q_M + Q_R) = delta (1 - r_z) p_e,
    with delta = spec.delta."""
    _, p_e = thermal_probs(spec)
    return spec.delta * (1.0 - b.r_z) * p_e


def commutator_norm(perm: Sequence[int], spec: ThermalSpec) -> float:
    """Frobenius norm of [U, H_total] for the permutation U with column -> row
    map `perm` and the composite Hamiltonian at gap spec.delta; nonzero gap
    means U cannot conserve energy on its own, which is why the emitted
    photon appears.

    Column c of [U, H] holds E_c - E_perm[c] in row perm[c] and zeros
    elsewhere; the squares are added in row order.
    """
    levels, d = _COMPOSITE_LEVELS, float(spec.delta)
    _check_permutation(perm, len(levels))
    total = 0.0
    for col in sorted(range(len(perm)), key=perm.__getitem__):
        total += (d * levels[col] - d * levels[perm[col]]) ** 2
    return math.sqrt(total)


def _limit_rule(q_m: float, delta_s: float, k_B: float) -> float:
    """The one T_limit rule, -q_m / (k_B delta_s): +inf where no entropy is
    removed but heat is, NaN where neither is."""
    if delta_s == 0.0:
        return math.nan if q_m == 0.0 else math.inf
    return -q_m / (k_B * delta_s)


def limit_temperature(b: BlochVector, spec: ThermalSpec) -> float:
    """Temperature at which the erasure stops beating the entropy bound.

    `_limit_rule` applied to `heat_memory`, `entropy_decrease` and spec.k_B,
    so it does not depend on spec.beta: +inf for pure inputs with r_z < 1,
    NaN at r_z = 1.
    """
    return _limit_rule(heat_memory(b, spec), entropy_decrease(b), spec.k_B)


LandauerVerdict = namedtuple("LandauerVerdict", "violated margin")


def landauer_check(
    q_memory: float, temperature: float, delta_s: float, k_B: float = 1.0
) -> LandauerVerdict:
    """Check Q_M <= -k_B T dS for heat released against entropy removed.

    The margin is Q_M + k_B T dS; a positive margin means less heat was
    dissipated than the bound demands, i.e. the bound is violated.
    """
    _check_positive("k_B", k_B)
    _check_nonnegative("temperature", temperature)
    _check_nonnegative("entropy decrease", delta_s)
    margin = _landauer_margin(q_memory, temperature, delta_s, k_B)
    return LandauerVerdict(violated=margin > 0.0, margin=margin)


def _landauer_margin(q_memory: float, temperature: float, delta_s: float, k_B: float) -> float:
    """The one Landauer-margin rule, Q_M + k_B T dS, on inputs already
    checked: k_B > 0, T >= 0 and dS >= 0. No entropy removed adds nothing,
    even at T = inf."""
    return q_memory + (0.0 if delta_s == 0.0 else k_B * temperature * delta_s)


class ErasureReport(Record):
    """Every thermodynamic quantity of one erasure run."""

    __slots__ = (
        "delta_s", "q_memory", "q_reservoir", "q_environment", "photon_energy",
        "u_initial", "u_final", "t_limit", "temperature", "landauer_violated",
        "landauer_margin",
    )

    def __init__(
        self, delta_s: float, q_memory: float, q_reservoir: float, q_environment: float,
        photon_energy: float, u_initial: float, u_final: float, t_limit: float,
        temperature: float, landauer_violated: bool, landauer_margin: float,
    ):
        _set_field(self, "delta_s", delta_s)
        _set_field(self, "q_memory", q_memory)
        _set_field(self, "q_reservoir", q_reservoir)
        _set_field(self, "q_environment", q_environment)
        _set_field(self, "photon_energy", photon_energy)
        _set_field(self, "u_initial", u_initial)
        _set_field(self, "u_final", u_final)
        _set_field(self, "t_limit", t_limit)
        _set_field(self, "temperature", temperature)
        _set_field(self, "landauer_violated", landauer_violated)
        _set_field(self, "landauer_margin", landauer_margin)


def analyze(b: BlochVector, spec: ThermalSpec) -> ErasureReport:
    """Run the channel on (b, spec) and report all erasure thermodynamics.

    The closed forms are what gets reported; the entropy and the energies
    are recomputed from the propagated density matrices and the two routes
    must agree to 1e-10: in nats for the entropy, in units of the gap for
    the energies. T_limit must agree with the one rule, `_limit_rule`, on
    the dS and Q_M that passed: to 1e-10 relative to the rule's value above
    1, and exactly where the rule is +inf or NaN. Otherwise ArithmeticError
    flags the internal inconsistency, as it does for a negative entropy
    decrease, which the route tolerance can miss near purity.

    The traced heats and energies are sums over the 8 composite populations;
    a heat is Tr[(rho_f - rho_i)(H_sub (x) 1)], which reads only the
    diagonal, so no marginal is formed for it. One pass over the two
    diagonals builds both heats and both energies.
    """
    rho_memory = qubit_from_bloch(b)
    # = composite_initial(b, spec), from the memory state formed above
    rho_initial = _kron(rho_memory, _reservoir_diagonal(spec.beta, spec.delta))
    rho_final = apply_channel(rho_initial)  # validates rho_initial
    memory_final = memory_marginal(rho_final)

    delta_s = entropy_decrease(b)
    s_initial = von_neumann_entropy(rho_memory)
    s_final = von_neumann_entropy(memory_final)
    _require_close("entropy decrease", delta_s, s_initial - s_final, ROUTE_TOL)
    energy_tol = ROUTE_TOL * spec.delta

    # each sum adds w * (delta * n) left to right, without the compensation
    # that `sum` applies to floats from Python 3.12 on
    d = float(spec.delta)
    q_m_trace = q_r_trace = u_i = u_f = 0.0
    for before, after, m, e, n in zip(
        rho_initial._flat[::9], rho_final._flat[::9],  # the diagonals of 8 x 8
        _MEMORY_LEVELS, _RESERVOIR_LEVELS, _COMPOSITE_LEVELS,
    ):
        before, after = before.real, after.real
        change = after - before
        q_m_trace += change * (d * m)
        q_r_trace += change * (d * e)
        u_i += before * (d * n)
        u_f += after * (d * n)

    q_m = heat_memory(b, spec)
    _require_close("memory heat", q_m, q_m_trace, energy_tol)

    q_r = heat_reservoir(b, spec)
    _require_close("reservoir heat", q_r, q_r_trace, energy_tol)

    radiated = photon_energy(b, spec)
    _require_close("photon energy", radiated, u_i - u_f, energy_tol)

    t_limit = limit_temperature(b, spec)
    rule = _limit_rule(q_m, delta_s, spec.k_B)
    # the tolerance scales on the rule, never on the closed form; the rule's
    # +inf and NaN, where no entropy is removed, must be matched exactly
    tol = ROUTE_TOL * max(1.0, abs(rule)) if math.isfinite(rule) else 0.0
    same = t_limit == rule or math.isnan(t_limit) and math.isnan(rule)
    if not (same or abs(t_limit - rule) <= tol):
        raise ArithmeticError(
            f"limit temperature: closed form {t_limit!r} and rule {rule!r} disagree"
        )

    if delta_s < 0.0:  # a failed closed form, not a bad input for landauer_check
        raise ArithmeticError(f"entropy decrease: closed form {delta_s!r} is negative")
    # landauer_check's inputs are established: k_B by ThermalSpec, T >= 0 as
    # the reciprocal of a non-negative product, dS >= 0 just above (a NaN dS
    # failed its route check), so the margin rule is applied directly
    temperature = spec.temperature
    margin = _landauer_margin(q_m, temperature, delta_s, spec.k_B)
    return ErasureReport(
        delta_s=delta_s,
        q_memory=q_m,
        q_reservoir=q_r,
        q_environment=-q_m,
        photon_energy=radiated,
        u_initial=u_i,
        u_final=u_f,
        t_limit=t_limit,
        temperature=temperature,
        landauer_violated=margin > 0.0,
        landauer_margin=margin,
    )


def _require_close(name: str, closed: float, traced: float, tol: float) -> None:
    if not abs(closed - traced) <= tol:  # a NaN on either route fails too
        raise ArithmeticError(
            f"{name}: closed form {closed!r} and trace route {traced!r} disagree"
        )
