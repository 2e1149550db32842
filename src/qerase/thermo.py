"""Thermodynamics of the erasure: entropy transfer, heats, limit temperature.

Conventions: entropies in nats, heat positive when it flows *into* the
named subsystem. Each closed form `_f` works in units of the gap, on b and
x = beta delta; only its public `f(b, spec)` and `analyze`'s report scale
energies by delta and temperatures by delta / k_B, the latter in one helper,
`_in_units`. Every closed form has a trace-based twin: `_cross_check`
compares the two routes, in units of the gap, and `_route_kernel` builds
the kernel that reads the twins off the initial state and checks, in the
same call, the three density matrices the comparison rests on: the initial
state, the initial memory qubit and the traced final memory.
"""

import itertools
import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import lru_cache

from .linalg import (
    ComplexMatrix,
    _check_permutation,
    _check_source,
    _compile,
    _density_spectrum,
    _judged,
    _kron_order,
    _kron_products,
    _relabeling,
    _sum_chain,
    _trace_groups,
)
from .record import Record, _set_field
from .states import (
    BlochVector,
    ThermalSpec,
    _check_nonnegative,
    _check_positive,
    _gibbs,
    _reservoir_diagonal,
    qubit_from_bloch,
)
from .channel import MEMORY, SUBSYSTEM_DIMS, _bits, _checked_map
from . import channel  # its `_CNOT_PERMUTATION`, read per call as `_checked_map` reads it

LN2 = math.log(2.0)
ROUTE_TOL = 1e-10


# Every Hamiltonian is diagonal, ground level at 0: its level energies are delta
# times the excitations m (memory), e (reservoir) of basis index 4m + 2e + a.
_MEMORY_LEVELS, _RESERVOIR_LEVELS, _ = zip(*map(_bits, range(8)))
_COMPOSITE_LEVELS = tuple(m + e for m, e in zip(_MEMORY_LEVELS, _RESERVOIR_LEVELS))


def von_neumann_entropy(rho: ComplexMatrix) -> float:
    """-Tr[rho ln rho] in nats, summed over the ascending spectrum that
    `density_matrix`'s check of rho solves for its eigenvalue floor, with the
    bits of `hermitian_eigenvalues`; rho fails with that check's ValueError.
    Eigenvalues in [-1e-10, 0] count as exact zeros."""
    return _entropy(_density_spectrum(rho)[1])


def _entropy(spectrum: list[float]) -> float:
    """-sum lam ln lam over a checked spectrum's positive eigenvalues, left
    to right from 0.0, at least 0.0: `von_neumann_entropy`'s one loop, which
    `_cross_check` runs on the spectra its route kernel solves."""
    s = 0.0
    for lam in spectrum:
        if lam > 0.0:
            s -= lam * math.log(lam)
    return max(s, 0.0)


def entropy_decrease(b: BlochVector) -> float:
    """Memory entropy removed by the erasure, ln 2 at r=0 down to 0 at r=1."""
    r = min(b.r, 1.0)
    if r >= 1.0:
        return 0.0
    return LN2 - r * math.log(1.0 + r) - 0.5 * (1.0 - r) * math.log((1.0 - r) * (1.0 + r))


def _heat_memory(b: BlochVector) -> float:
    return -0.5 * (1.0 - b.r_z)


def heat_memory(b: BlochVector, spec: ThermalSpec) -> float:
    """Heat received by the memory; always -(delta/2)(1 - r_z) <= 0."""
    return spec.delta * _heat_memory(b)


def _heat_reservoir(b: BlochVector, x: float) -> float:
    """((1 - r_z)/2)(p_g - p_e), with p_g - p_e taken as tanh(x/2), which
    keeps full relative precision as x -> 0, where the difference of the two
    weights cancels."""
    return 0.5 * (1.0 - b.r_z) * math.tanh(x / 2.0)


def heat_reservoir(b: BlochVector, spec: ThermalSpec) -> float:
    """Heat received by the reservoir, (delta/2)(1 - r_z)(p_g - p_e)."""
    return spec.delta * _heat_reservoir(b, spec.beta * spec.delta)


def _photon_energy(b: BlochVector, x: float) -> float:
    return (1.0 - b.r_z) * _gibbs(x)[1]


def photon_energy(b: BlochVector, spec: ThermalSpec) -> float:
    """Energy carried off radiatively: -(Q_M + Q_R) = delta (1 - r_z) p_e."""
    return spec.delta * _photon_energy(b, spec.beta * spec.delta)


def commutator_norm(perm: Sequence[int], spec: ThermalSpec) -> float:
    """Frobenius norm of [U, H_total] for the permutation U with column -> row
    map `perm` and the composite Hamiltonian at gap spec.delta; nonzero gap
    means U cannot conserve energy on its own, which is why the emitted
    photon appears.

    Column c of [U, H] holds E_c - E_perm[c], delta times an integer level
    difference, in row perm[c] and zeros elsewhere: the norm is delta times
    the root of the exact integer sum of their squares.
    """
    levels = _COMPOSITE_LEVELS
    _check_permutation(perm, len(levels))
    return spec.delta * math.sqrt(sum((levels[c] - levels[r]) ** 2 for c, r in enumerate(perm)))


def _limit_rule(q_m: float, delta_s: float) -> float:
    """The one T_limit rule, -q_m / delta_s in units of delta / k_B: +inf
    where no entropy is removed but heat is, NaN where neither is."""
    if delta_s == 0.0:
        return math.nan if q_m == 0.0 else math.inf
    return -q_m / delta_s


def _limit_temperature(b: BlochVector, delta_s: float) -> float:
    """T_limit in units of delta / k_B, from b's memory heat and delta_s,
    the `entropy_decrease(b)` its caller has already computed."""
    return _limit_rule(_heat_memory(b), delta_s)


def limit_temperature(b: BlochVector, spec: ThermalSpec) -> float:
    """Temperature at which the erasure stops beating the entropy bound,
    `_limit_temperature` in spec's units as `analyze` reports it. It does
    not depend on spec.beta: +inf for pure inputs with r_z < 1, NaN at r_z = 1.
    """
    return _in_units(_limit_temperature(b, entropy_decrease(b)), spec.delta, spec.k_B)


def _in_units(t: float, a: float, b: float) -> float:
    """A temperature t in units of a / b, formed as (t a) / b: at (a, b) =
    (delta, k_B), t in units of delta / k_B in spec's own units, and at
    (k_B, delta) the reverse. t (a / b) would overflow to a false inf, and
    give NaN at t = 0, wherever a / b passes the float range. Where the
    product t a falls below the normal range, only its few subnormal bits
    would reach the quotient, so it is formed from a times 2**600, exactly,
    and the quotient, below 2**52 there, is scaled back: full precision
    wherever t a is at least 2**-1622."""
    product = t * a
    if t and abs(product) < 2.0 ** -1022:
        return t * (a * 2.0 ** 600) / b * 2.0 ** -600
    return product / b


LandauerVerdict = namedtuple("LandauerVerdict", "violated margin")


def landauer_check(
    q_memory: float, temperature: float, delta_s: float, k_B: float = 1.0
) -> LandauerVerdict:
    """Check Q_M <= -k_B T dS for heat released against entropy removed.

    The margin is Q_M + k_B T dS; a positive margin means less heat was
    dissipated than the bound demands, i.e. the bound is violated. A NaN
    margin, from a NaN Q_M or from -inf + inf, decides nothing: ValueError.
    """
    _check_positive("k_B", k_B)
    _check_nonnegative("temperature", temperature)
    _check_nonnegative("entropy decrease", delta_s)
    margin = _landauer_margin(q_memory, temperature, delta_s, k_B)
    if math.isnan(margin):
        raise ValueError(f"Landauer margin is NaN: Q_M = {q_memory!r}, T = {temperature!r}, "
                         f"dS = {delta_s!r}")
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
    """Run the channel on (b, spec) and report all erasure thermodynamics:
    the closed forms, each energy times delta, T_limit in units of delta / k_B.

    Raises ArithmeticError, in this order: where `apply_channel` refuses the
    erasure permutation; for the first of `_cross_check`'s records that
    fails, "<name>: closed form ... and trace route ... disagree" ("rule"
    for the limit temperature); for a negative entropy decrease, which the
    route tolerance can miss near purity, "entropy decrease: ... negative".
    """
    report, records = _cross_check(b, spec)
    for name, closed, traced, residual, tol in records:
        if not residual <= tol:  # a NaN on either route fails too
            route = "rule" if name == "limit temperature" else "trace route"
            raise ArithmeticError(f"{name}: closed form {closed!r} and {route} {traced!r} disagree")
    if report.delta_s < 0.0:  # a failed closed form, not a bad input for landauer_check
        raise ArithmeticError(f"entropy decrease: closed form {report.delta_s!r} is negative")
    return report


def _cross_check(b: BlochVector, spec: ThermalSpec) -> tuple[ErasureReport, list[tuple]]:
    """`analyze`'s report on (b, spec) and its records (name, closed,
    traced, residual, tol) for the entropy decrease, the memory heat, the
    reservoir heat, the photon energy and the limit temperature, judged here
    by none. `analyze` judges them in that order and raises for the first
    whose residual is not within its tolerance.

    The records are in units of the gap, so each tolerance is the same at
    every delta and k_B: the entropy and the energies agree with their trace
    routes to 1e-10; T_limit agrees with the one rule, `_limit_rule`, on the
    closed-form dS and Q_M, to 1e-10 relative to the rule's value above 1,
    and exactly where the rule is +inf or NaN. A residual is |closed -
    traced|, which a NaN on either route, or inf against inf, leaves above
    any tolerance. T_limit's is 0 where closed form and rule are equal, NaN
    matching NaN; its tolerance scales on the rule, never on the closed form.

    All records are made before any is judged, so `verify` reads the entropy
    record whatever a later one holds. Nothing between them raises on a
    ThermalSpec's inputs: the closed forms, the rule, the margin and
    `spec.temperature` are plain arithmetic, so `analyze` raises for the
    record it would raise for judging each as it is made.

    The initial state is only its 20 Kronecker products t, scanned for
    finiteness by `_kron_products`, as `_kron` scans them. One
    `_route_kernel` call, keyed by the CNOT composition and the nonzero
    products, checks the state as `apply_channel` does, reads the level sums
    off t, and checks the initial qubit and the traced marginal as
    `von_neumann_entropy` checks them. Then, in `apply_channel`'s order, the
    state's verdict is judged and the erasure map checked to be that
    composition (`channel._checked_map`), so a refused map builds no kernel;
    then, in the order the entropy drop met them, the qubit's verdict, the
    marginal's finiteness, as `partial_trace` checks it, and the marginal's
    verdict. Each spectrum is summed by `_entropy`. dS is computed once, for
    its record and for the limit temperature.
    """
    x = spec.beta * spec.delta
    rho_memory = qubit_from_bloch(b)
    t = _kron_products(rho_memory, _reservoir_diagonal(x))
    check, _, qubit, marginal, q_m_trace, q_r_trace, u_i, u_f = _route_kernel(
        channel._CNOT_PERMUTATION, tuple(itertools.compress(range(20), t)))(t, rho_memory._flat)
    _judged(*check)
    _checked_map()
    delta_s = entropy_decrease(b)
    s_initial = _entropy(_judged(*qubit))
    if marginal is None:  # as `partial_trace` refuses the marginal
        raise ValueError("matrix entries must be finite")
    s_drop = s_initial - _entropy(_judged(*marginal))

    q_m, q_r, radiated = _heat_memory(b), _heat_reservoir(b, x), _photon_energy(b, x)
    t_limit, rule = _limit_temperature(b, delta_s), _limit_rule(q_m, delta_s)
    same = t_limit == rule or math.isnan(t_limit) and math.isnan(rule)
    records = [
        ("entropy decrease", delta_s, s_drop, abs(delta_s - s_drop), ROUTE_TOL),
        ("memory heat", q_m, q_m_trace, abs(q_m - q_m_trace), ROUTE_TOL),
        ("reservoir heat", q_r, q_r_trace, abs(q_r - q_r_trace), ROUTE_TOL),
        ("photon energy", radiated, u_i - u_f, abs(radiated - (u_i - u_f)), ROUTE_TOL),
        ("limit temperature", t_limit, rule, 0.0 if same else abs(t_limit - rule),
         ROUTE_TOL * max(1.0, abs(rule)) if math.isfinite(rule) else 0.0),
    ]
    # landauer_check's inputs hold once `analyze` has judged the records: k_B
    # by ThermalSpec, T >= 0 as the reciprocal of a non-negative product,
    # dS >= 0 (a NaN dS fails its record), so the margin rule applies directly
    d, k_B, temperature = spec.delta, spec.k_B, spec.temperature
    margin = _landauer_margin(d * q_m, temperature, delta_s, k_B)
    return ErasureReport(delta_s, d * q_m, d * q_r, d * -q_m, d * radiated, d * u_i, d * u_f,
                         _in_units(t_limit, d, k_B), temperature, margin > 0.0, margin), records


@lru_cache(maxsize=64)
def _route_kernel(perm: tuple[int, ...], key: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """`_cross_check`'s checks and trace route for the channel `perm` on an
    initial state whose nonzero products are `key`, with the bits of checking
    the gathered state, propagating it, tracing it and checking the memory
    before and after: one function of the 20 products t
    (`linalg._kron_products`) and the initial qubit's 4 flat entries q,
    `linalg._compile`d from plain int positions, `lambda t, q,
    htol=HERMITICITY_TOL, ttol=TRACE_TOL: ((<check>), ((r9 := t[1].real),
    ...), (<qubit check>), (<marginal check>) if <finite> else None, q_m,
    q_r, u_i, u_f)`, whose second output only binds names. The initial flat
    position p holds t[order[p]] (`linalg._kron_order`). The check, first,
    is the 8x8 `linalg._check_source` of the pattern key gives, so it
    returns and raises as that pattern's check kernel does on the gathered
    entries. The qubit's check, on q, and the marginal's are each the 2x2
    `_check_source` of the positions the kernel leaves open, so each returns
    and raises as the check kernel `_plan` hands out for the same 4 entries
    does, and no 2x2 pattern plan is looked up.

    The kernel is folded on key, as `_check_source` folds a pattern: a
    product not in key is a zero, since key is `compress(range(20), t)` and
    NaN and inf are truthy, and no chain, level sum or other arithmetic
    takes it. A chain from int 0, and a level sum from 0.0, hold no -0.0
    after their first term, so a zero of either sign added to one changes
    no bit, and s + (0.0 - x) is s - x.

    The channel moves entry (i, j) to (perm[i], perm[j]), so the final state's
    flat position p holds the initial one source[p]. The marginal is the four
    chains (`linalg._sum_chain`) that `memory_marginal` sums on
    `permute(rho, perm)`, each position read through source and left out
    where key proves it zero, `0j` where none is left. Each chain that is
    not that constant is bound to its name g<i> in the test `0 == (g0 :=
    <chain>) - g0 == ...`, true exactly where all of them are finite (z - z
    is 0j for a finite z and has a NaN part otherwise), as `partial_trace`
    scans the four, of which a `0j` is finite; `True` where none is left.
    Only then is the marginal's check run, on the names and the constants,
    each folded as `_check_source` folds a zero of its key: a `0j` entry
    adds no defect term and no trace term, each a +0.0 that leaves its sum
    or `max` as it is, and its real part is read as 0.0. Level k's initial
    population is r<9k> and its final one r<source[9k]>, each left out where
    key proves it zero; its change is (final - initial), `- initial` or `+
    final` where one side is proven zero, and no term where both are. The
    second tuple
    reads the real part of each open diagonal entry a level sum names once
    into r<p>, in increasing p. A heat, Tr[(rho_f - rho_i)(H_sub (x) 1)],
    reads only the diagonal: it adds each change times its memory or
    reservoir level, and an energy adds each population times its composite
    level, left to right from 0.0 as a loop over the 8 levels adds them
    (`sum` compensates floats from Python 3.12 on). A term of level 0 is
    left out: a checked state's populations are finite, so the term is a
    zero, which leaves the running sum as it is. A term of level 1 is its
    value and one of level 2 twice it, exactly, so each sum keeps the bits
    of the loop.

    The kernel's own names, the parameters, r<p> and g<i>, are none of
    the walrus names `_check_source` binds (defect, tr, a, d, x, y, u, v, m,
    p, w, k, r, and s in a chain of over 100 terms), so no check rebinds
    a name the sums or the marginal's check read."""
    order = _kron_order(2, 4)  # the memory qubit (x) the reservoir's 4 values
    entries = [f"t[{k}]" for k in order]
    live = {p for p, k in enumerate(order) if k in key}  # the positions not proven zero
    check, _ = _check_source(sorted(live), 8, entries)
    source = _relabeling(perm, 8)(range(64))  # final flat position -> initial one
    groups, _ = _trace_groups(SUBSYSTEM_DIMS, (MEMORY,), 8)
    diagonal = range(0, 64, 9), source[::9]  # each level's initial and final position
    summed = live & {p for ps in diagonal for p, n in zip(ps, _COMPOSITE_LEVELS) if n}
    was, now = ([f"r{p}" if p in summed else "" for p in ps] for ps in diagonal)
    changes = [f" + ({n} - {w})" if n and w else f" + {n}" if n else w and f" - {w}"
               for n, w in zip(now, was)]
    sums = ", ".join(
        "0.0" + "".join(term + (f" * {n}" if n > 1 else "")
                        for term, n in zip(terms, levels) if n and term)
        for terms, levels in ((changes, _MEMORY_LEVELS), (changes, _RESERVOIR_LEVELS),
                              ([w and f" + {w}" for w in was], _COMPOSITE_LEVELS),
                              ([n and f" + {n}" for n in now], _COMPOSITE_LEVELS)))
    reals = "".join(f"(r{p} := {entries[p]}.real), " for p in sorted(summed))
    chains = [_sum_chain([entries[source[p]] for p in group if source[p] in live])
              for group in groups]
    g = [chain if chain == "0j" else f"g{i}" for i, chain in enumerate(chains)]
    finite = "".join(f" == ({n} := {chain}) - {n}" for n, chain in zip(g, chains) if n != chain)
    qubit, marginal = (_check_source([p for p in range(4) if f[p] != "0j"], 2, f)[0]
                       for f in ([f"q[{p}]" for p in range(4)], g))
    return _compile(f"lambda t, q, htol=HERMITICITY_TOL, ttol=TRACE_TOL:"
                    f" (({check}), ({reals}), ({qubit}),"
                    f" ({marginal}) if {'0' + finite if finite else 'True'} else None,"
                    f" {sums})", f"route {perm} {key}")
