"""Self-checks wiring the closed forms against the propagated states.

Each check returns a CheckResult instead of raising, so the CLI can print
the whole battery even when something breaks. Every operator is checked as
its column -> row tuple, and the permutation check reads the map that
`apply_channel` applies, so a channel that moves an unpopulated column fails.
"""

import math
import operator
import random

from .linalg import _check_permutation, diagonal
from .record import Record, _set_field
from .states import BlochVector, ThermalSpec, composite_initial
from .channel import (
    ERASURE_PERMUTATION,
    apply_channel,
    build_circuit,
    circuit_permutation,
    final_state_closed_form,
    memory_ground_fidelity,
)
from .thermo import (
    _cross_check,
    analyze,
    commutator_norm,
    heat_memory,
    heat_reservoir,
    von_neumann_entropy,
)
from .optics import (
    DEFAULT_CIRCUIT_PERMUTATION,
    mode_index,
    verify_encoding_equivalence,
)

DEFAULT_SEED = 20240801
BETA_GRID = (0.0, 0.1, 1.0, 10.0, math.inf)


class CheckResult(Record):
    """Outcome of one self-check: its name, "pass", "fail" or "skip", and a
    line of detail."""

    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str):
        _set_field(self, "name", name)
        _set_field(self, "status", status)
        _set_field(self, "detail", detail)

    @property
    def passed(self) -> bool:
        return self.status in ("pass", "skip")


def random_bloch(rng: random.Random) -> BlochVector:
    """Uniform draw from the unit ball, by rejection from the cube."""
    while True:
        x, y, z = (rng.uniform(-1.0, 1.0) for _ in range(3))
        if x * x + y * y + z * z <= 1.0:
            return BlochVector(x, y, z)


def _result(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, status="pass" if ok else "fail", detail=detail)


def check_unitarity(perm: tuple[int, ...]) -> CheckResult:
    """A basis permutation has U†U = 1, exactly, when it is a bijection of
    0..7, judged by the package's one rule, `_check_permutation`."""
    try:
        _check_permutation(perm, 8)
    except ValueError:
        return _result("unitarity", False, f"U†U != 1: {tuple(perm)} is no bijection of 0..7")
    return _result("unitarity", True, "U†U = 1 within 1e-12")


def check_permutation_identity() -> CheckResult:
    """Read the map that `apply_channel` applies: column c of the channel is
    the image of |c><c|, which must be exactly |p><p| for p =
    ERASURE_PERMUTATION[c]."""
    projectors = [diagonal([float(i == k) for i in range(8)]) for k in range(8)]
    for col, row in enumerate(ERASURE_PERMUTATION):
        try:
            image = apply_channel(projectors[col])
        except ArithmeticError as exc:  # the map differs from the CNOT circuit's
            return _result("permutation_identity", False, str(exc))
        if image != projectors[row]:
            return _result("permutation_identity", False, f"column {col} does not map to row {row}")
    return _result("permutation_identity", True, f"columns map by {ERASURE_PERMUTATION}")


def check_circuit_synthesis() -> CheckResult:
    gates = build_circuit()
    perm = circuit_permutation(gates)
    # permutation matrices that differ in k columns lie sqrt(2k) apart
    moved = sum(a != b for a, b in zip(perm, ERASURE_PERMUTATION))
    return _result(
        "circuit_synthesis",
        perm == ERASURE_PERMUTATION,
        f"{len(gates)} CNOTs, Frobenius distance {math.sqrt(2 * moved)!r}",
    )


def _sampled(name, draws, rng, deviation, tol, fail_fmt, pass_fmt) -> CheckResult:
    """Draw `draws` Bloch vectors, the k-th at beta = BETA_GRID[k % 5], and
    fail at the first whose `deviation(b, spec)` exceeds `tol`. `fail_fmt`
    gets `k` and that `gap`, so a NaN gap fails too; `pass_fmt` gets `draws`
    and the `worst` gap. A draw whose deviation raises ArithmeticError, as
    `analyze` does when its two routes disagree, or ValueError, as a density
    check does, fails with the error's message."""
    worst = 0.0
    for k in range(draws):
        b = random_bloch(rng)
        try:
            gap = deviation(b, ThermalSpec(beta=BETA_GRID[k % len(BETA_GRID)]))
        except (ArithmeticError, ValueError) as exc:
            return _result(name, False, f"draw {k}: {exc}")
        if not gap <= tol:
            return _result(name, False, fail_fmt.format(k=k, gap=gap))
        worst = max(worst, gap)
    return _result(name, True, pass_fmt.format(draws=draws, worst=worst))


def check_closed_form(draws: int, rng: random.Random) -> CheckResult:
    def deviation(b, spec):
        propagated = apply_channel(composite_initial(b, spec))
        closed = final_state_closed_form(b, spec)
        return max(abs(p - c) for p, c in zip(propagated._flat, closed._flat))

    return _sampled(
        "closed_form", draws, rng, deviation, 1e-12,
        "draw {k}: entry deviation {gap:.3e}",
        "{draws} draws, worst entry deviation {worst:.3e}",
    )


def check_memory_reset(draws: int, rng: random.Random) -> CheckResult:
    worst = 1.0
    for k in range(draws):
        b = random_bloch(rng)
        spec = ThermalSpec(beta=BETA_GRID[k % len(BETA_GRID)])
        try:
            fid = memory_ground_fidelity(apply_channel(composite_initial(b, spec)))
        except (ArithmeticError, ValueError) as exc:
            return _result("memory_reset", False, f"draw {k}: {exc}")
        worst = min(worst, fid)
        if fid < 1.0 - 1e-12:
            return _result("memory_reset", False, f"draw {k}: fidelity {fid!r}")
    return _result("memory_reset", True, f"{draws} draws, worst fidelity {worst!r}")


def check_entropy_conservation(draws: int, rng: random.Random) -> CheckResult:
    def deviation(b, spec):
        rho_i = composite_initial(b, spec)
        return abs(von_neumann_entropy(apply_channel(rho_i)) - von_neumann_entropy(rho_i))

    return _sampled(
        "entropy_conservation", draws, rng, deviation, 1e-10,
        "draw {k}: |S_f - S_i| = {gap:.3e}",
        "{draws} draws, unitary invariance of S within {worst:.3e}",
    )


def check_memory_entropy_drop(draws: int, rng: random.Random) -> CheckResult:
    """Each draw reads the residual of `analyze`'s entropy record: the
    closed-form dS against the drop in the memory's spectral entropy."""
    return _sampled(
        "memory_entropy_drop", draws, rng, lambda b, spec: _cross_check(b, spec)[1][0][3], 1e-10,
        "draw {k}: route gap {gap:.3e}",
        "{draws} draws, closed vs spectral within {worst:.3e}",
    )


def check_memory_heat_temperature_independence(
    draws: int, rng: random.Random
) -> CheckResult:
    """Each draw runs `analyze` at every beta of the grid: Q_M must not move,
    and must equal its closed form."""
    specs = [ThermalSpec(beta=beta) for beta in BETA_GRID]

    def deviation(b, _):
        reports = [analyze(b, spec).q_memory for spec in specs]
        return max(max(reports) - min(reports), abs(reports[0] - heat_memory(b, specs[0])))

    return _sampled(
        "memory_heat_temperature_independence", draws, rng, deviation, 1e-12,
        "draw {k}: Q_M spread {gap:.3e} across beta grid",
        f"{{draws}} draws x {len(BETA_GRID)} betas, Q_M spread <= 1e-12",
    )


def check_reservoir_heat_sign(draws: int, rng: random.Random) -> CheckResult:
    for k in range(draws):
        b = random_bloch(rng)
        for beta in BETA_GRID:
            q_r = heat_reservoir(b, ThermalSpec(beta=beta))
            if q_r < 0.0:
                return _result(
                    "reservoir_heat_sign",
                    False,
                    f"draw {k}: Q_R = {q_r!r} negative at beta = {beta}",
                )
    cold = ThermalSpec(beta=math.inf)
    zero_t = heat_reservoir(BlochVector(), cold)
    expected = -heat_memory(BlochVector(), cold)
    ok = zero_t == expected
    return _result(
        "reservoir_heat_sign",
        ok,
        "Q_R >= 0 everywhere; Q_R = -Q_M exactly at T = 0"
        if ok
        else f"at T = 0, Q_R = {zero_t!r} but -Q_M = {expected!r}",
    )


def check_energy_conservation(draws: int, rng: random.Random) -> CheckResult:
    def deviation(b, spec):
        report = analyze(b, spec)
        return abs((report.u_initial - report.u_final) - report.photon_energy)

    return _sampled(
        "energy_conservation", draws, rng, deviation, 1e-12,
        "draw {k}: U_i - U_f misses the photon energy by {gap:.3e}",
        "{draws} draws, U_i - U_f = photon energy within {worst:.3e}",
    )


def check_commutator(delta: float) -> CheckResult:
    if delta == 0.0:
        return CheckResult(
            name="commutator_nonzero",
            status="skip",
            detail="degenerate levels (delta = 0): U commutes with H",
        )
    # compared in units of the gap, where the norm is 2*sqrt(2) at every delta
    norm, expected = commutator_norm(ERASURE_PERMUTATION, ThermalSpec(beta=0.0)), math.sqrt(8.0)
    ok = abs(norm - expected) <= 1e-12 * expected
    return _result(
        "commutator_nonzero",
        ok,
        f"|[U, H]|_F = {delta * norm!r} (2*sqrt(2)*delta = {delta * expected!r})",
    )


def check_optics_transformations() -> CheckResult:
    perm = DEFAULT_CIRCUIT_PERMUTATION
    wanted = {
        (0, 1): (0, 1),  # |H,1> -> |H,1>
        (0, 2): (0, 4),  # |H,2> -> |H,4>
        (1, 1): (0, 2),  # |V,1> -> |H,2>
        (1, 2): (0, 3),  # |V,2> -> |H,3>
    }
    for (pol, path), (pol_out, path_out) in wanted.items():
        got = perm[mode_index(pol, path)]
        want = mode_index(pol_out, path_out)
        if got != want:
            return _result(
                "optics_transformations",
                False,
                f"input (pol={pol}, path={path}) lands on mode {got}, expected {want}",
            )
    return _result(
        "optics_transformations",
        True,
        "H1->H1, H2->H4, V1->H2, V2->H3 all exact",
    )


def check_encoding_equivalence() -> CheckResult:
    mismatches = verify_encoding_equivalence()
    if not mismatches:
        return _result(
            "encoding_equivalence",
            True,
            "optical circuit matches the channel on all four physical inputs",
        )
    return _result(
        "encoding_equivalence", False, "; ".join(mismatches)
    )


def _check_battery_inputs(delta: float, draws: int) -> None:
    """A finite gap >= 0 (0 skips the commutator check) and an integer
    count of one draw or more."""
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    try:
        operator.index(draws)
    except TypeError:
        raise ValueError(f"draws must be an integer, got {draws!r}") from None
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws!r}")


def run_verification(
    delta: float = 1.0, draws: int = 1000, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Full battery. `draws` scales the sampling checks; the eigensolver-heavy
    ones run a fixed small count so the battery stays fast. Inputs that
    `qerase verify` refuses raise ValueError before any check runs."""
    _check_battery_inputs(delta, draws)
    rng = random.Random(seed)
    small = max(5, draws // 40)
    return [
        check_unitarity(ERASURE_PERMUTATION),
        check_permutation_identity(),
        check_circuit_synthesis(),
        check_closed_form(draws, rng),
        check_memory_reset(draws, rng),
        check_entropy_conservation(small, rng),
        check_memory_entropy_drop(small, rng),
        check_memory_heat_temperature_independence(small, rng),
        check_reservoir_heat_sign(small, rng),
        check_energy_conservation(small, rng),
        check_commutator(delta),
        check_optics_transformations(),
        check_encoding_equivalence(),
    ]


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
