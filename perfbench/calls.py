"""One operation of each library workload, as the public calls it is made of.

Every call goes through the `qerase` package namespace `q` at call time, so
the traced pass sees the wrapped functions. This module does not import
qerase itself; the set-up probe imports it after starting its clock.
"""

from __future__ import annotations

from oracle import LIB_TOL, check_propagation, check_report, gibbs, report_fields
from workloads import Draw

# The known false alarm at the seed commit: on near-pure memories the closed
# form of T_limit and the cross-check's -Q_M / (k_B dS) cancel differently,
# and analyze raises instead of answering. It is counted as a failed operation
# (never filtered out); any other failure makes the run incorrect.
KNOWN_FALSE_ALARM = "limit temperature"


def spec_for(q, draw: Draw):
    if draw.si:
        return q.ThermalSpec.from_temperature(draw.temperature, delta=draw.delta, k_B=draw.k_B)
    return q.ThermalSpec.from_beta(draw.beta)


def prepare(q, draws: list[Draw]) -> list[tuple]:
    """Library objects for each draw, built once outside the timed region."""
    return [(q.BlochVector(*d.bloch), spec_for(q, d), d.beta) for d in draws]


def analyze_op(q, item):
    b, spec, _ = item
    return q.analyze(b, spec)


def propagate_op(q, item):
    b, spec, beta = item
    final = q.apply_channel(q.composite_initial(b, spec))
    dist = q.PathDistribution.from_beta(beta)
    photon = q.simulate(b, dist)
    return {
        "fidelity": q.memory_ground_fidelity(final),
        "reservoir": q.reservoir_marginal(final),
        "reservoir_closed": q.reservoir_final_closed_form(b, spec),
        "path": q.path_marginal(photon),
        "polarization": q.polarization_marginal(photon),
        "path_closed": q.path_final_closed_form(b, dist),
    }


OPS = {"analyze": analyze_op, "propagate": propagate_op}


def route_quantity(err: BaseException) -> str:
    """The cross-checked quantity named by analyze's ArithmeticError."""
    return str(err).split(":", 1)[0].strip().replace(" ", "_") or "unknown"


def judge(workload: str, draw: Draw, out, err) -> tuple[bool, bool, str]:
    """(completed correctly, failure is the known false alarm, message)."""
    if err is not None:
        known = (workload == "analyze" and isinstance(err, ArithmeticError)
                 and str(err).startswith(KNOWN_FALSE_ALARM) and draw.near_pure)
        return False, known, f"{type(err).__name__}: {err}"
    if workload == "analyze":
        errors = check_report(report_fields(out), draw, LIB_TOL)
    else:
        errors = check_propagation(draw, gibbs(draw.beta)[0], out)
    return not errors, False, "; ".join(errors)
