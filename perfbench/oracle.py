"""The benchmark's own output checks, written from the documented physics.

None of this calls qerase. Energies are compared relative to the gap delta,
so the same tolerance holds in natural units and at SI scale (delta ~ 1e-22 J).
Values read back from the CLI carry 12 significant digits, so they get a
looser tolerance than values taken from the library in-process.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import DELTA_SI, K_B_SI, Draw

LIB_TOL = 1e-12  # library results, relative to delta (nats for entropies)
CLI_TOL = 1e-11  # 12-significant-digit output

README_ERASE_JSON = {
    "schema_version": "1",
    "command": "erase",
    "units": "natural",
    "inputs": {
        "bloch": [0.5, 0.0, 0.0],
        "beta": 1.11111111111,
        "temperature": 0.9,
        "delta": 1.0,
        "k_B": 1.0,
    },
    "report": {
        "delta_S": 0.562335144619,
        "Q_M": -0.5,
        "Q_R": 0.252336198861,
        "Q_E": 0.5,
        "photon_energy": 0.247663801139,
        "U_initial": 0.747663801139,
        "U_final": 0.5,
        "T": 0.9,
        "T_limit": 0.889149477469,
        "landauer_violated": True,
        "landauer_margin": 0.00610163015693,
    },
}

SWEEP_HEADER = "theta,phi,r_x,r_y,r_z,delta_S_nats,Q_M,Q_R,T_limit"
SWEEP_LINES = 1 + 256 * 256
SWEEP_R, SWEEP_T = 0.5, 0.9


def binary_entropy(q: float) -> float:
    """-q ln q - (1-q) ln(1-q) in nats, accurate for small q."""
    if q <= 0.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q)


def entropy_decrease(bloch: tuple[float, float, float]) -> float:
    r = min(math.sqrt(sum(v * v for v in bloch)), 1.0)
    return binary_entropy((1.0 - r) / 2.0)


def gibbs(beta_delta: float) -> tuple[float, float]:
    """Ground and excited weights of a two-level system at beta * delta."""
    if math.isinf(beta_delta):
        return 1.0, 0.0
    w = math.exp(-beta_delta)
    return 1.0 / (1.0 + w), w / (1.0 + w)


EPS = 2.0 ** -52
# qerase's closed form of ΔS subtracts terms of order ln 2, so near r = 1 it
# carries an absolute rounding error of about an ulp of 1: at the seed commit
# at most 0.5 ulp (6.9e-6 relative, at 1 - r = 1.1e-12; 21 seeds of 1024
# analyze draws). ΔS and T_limit, which is proportional to 1/ΔS, are compared
# relatively, within `tol` plus ENTROPY_ULPS ulp over ΔS. That is 16 times
# the seed's worst error, 1.3e-4 relative on the smallest ΔS drawn (1.5e-11),
# and `tol` + 1.8e-12 for ΔS of 1e-3 and above.
ENTROPY_ULPS = 8.0


def _close(got, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def _same(got, want: float, rel_tol: float) -> bool:
    """Equal within `rel_tol` relative; non-finite values must match exactly."""
    if not isinstance(got, (int, float)):
        return False
    if not math.isfinite(want):
        return got == want or (math.isnan(want) and math.isnan(got))
    return abs(got - want) <= rel_tol * abs(want)


def check_report(fields: dict, draw: Draw, tol: float) -> list[str]:
    """Check an erasure report, given with the CLI's field names, field by
    field against its closed form. Energies are compared within `tol`
    relative to delta."""
    d, k_b, t = draw.delta, draw.k_B, draw.temperature
    r_z = draw.bloch[2]
    p_g, p_e = gibbs(draw.beta)
    ds = entropy_decrease(draw.bloch)
    q_m = -(d / 2.0) * (1.0 - r_z)
    photon = d * (1.0 - r_z) * p_e
    u_i = d * ((1.0 - r_z) / 2.0 + p_e)
    bound = 0.0 if ds == 0.0 else k_b * t * ds
    if ds > 0.0:
        t_limit = -q_m / (k_b * ds)
    else:  # a pure memory: no limit, or 0/0 at the ground state
        t_limit = math.nan if q_m == 0.0 else math.inf
    entropy_tol = tol + ENTROPY_ULPS * EPS / ds if ds > 0.0 else 0.0
    energies = {
        "Q_M": q_m,
        "Q_R": (d / 2.0) * (1.0 - r_z) * (p_g - p_e),
        "Q_E": -q_m,
        "photon_energy": photon,
        "U_initial": u_i,
        "U_final": u_i - photon,
    }
    errors = []
    if not _same(fields.get("delta_S"), ds, entropy_tol):
        errors.append(f"delta_S {fields.get('delta_S')!r} != binary entropy {ds!r}")
    if not _same(fields.get("T_limit"), t_limit, entropy_tol):
        errors.append(f"T_limit {fields.get('T_limit')!r} != -Q_M / (k_B dS) = {t_limit!r}")
    for name, want in energies.items():
        if not _close(fields.get(name), want, tol * d):
            errors.append(f"{name} {fields.get(name)!r} != {want!r}")
    margin = q_m + bound
    if not (_same(fields.get("landauer_margin"), margin, 0.0) if math.isinf(margin)
            else _close(fields.get("landauer_margin"), margin, tol * (d + abs(bound)))):
        errors.append(f"landauer_margin {fields.get('landauer_margin')!r} != "
                      f"Q_M + k_B T dS = {margin!r}")
    try:
        balance = fields["Q_M"] + fields["Q_R"] + fields["photon_energy"]
        if abs(balance) > 3 * tol * d:
            errors.append(f"Q_M + Q_R + photon = {balance!r}, not 0")
        radiated = fields["U_initial"] - fields["U_final"]
        if abs(radiated - fields["photon_energy"]) > 3 * tol * d:
            errors.append(f"U_i - U_f = {radiated!r} != photon {fields['photon_energy']!r}")
        if fields["landauer_violated"] != (fields["landauer_margin"] > 0.0):
            errors.append("verdict disagrees with the sign of the margin")
    except (KeyError, TypeError) as exc:
        errors.append(f"report field missing or not numeric: {exc!r}")
    got_t = fields.get("T")
    if not (got_t == t or _close(got_t, t, tol * max(1.0, abs(t)))):
        errors.append(f"T {got_t!r} != {t!r}")
    return errors


def report_fields(report) -> dict:
    """The CLI's field names for an in-process ErasureReport."""
    return {
        "delta_S": report.delta_s,
        "Q_M": report.q_memory,
        "Q_R": report.q_reservoir,
        "Q_E": report.q_environment,
        "photon_energy": report.photon_energy,
        "U_initial": report.u_initial,
        "U_final": report.u_final,
        "T": report.temperature,
        "T_limit": report.t_limit,
        "landauer_violated": report.landauer_violated,
        "landauer_margin": report.landauer_margin,
    }


def _max_gap(a, b) -> float:
    return max(abs(x - y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))


def _diag_gap(m, want: list[float]) -> float:
    return max(abs(m.rows[i][i] - w) for i, w in enumerate(want))


def check_propagation(draw: Draw, p1: float, out: dict) -> list[str]:
    """Channel and optics marginals against closed forms and populations."""
    up, down = (1.0 + draw.bloch[2]) / 2.0, (1.0 - draw.bloch[2]) / 2.0
    p_g, p_e = gibbs(draw.beta)
    errors = []
    if abs(out["fidelity"] - 1.0) > LIB_TOL:
        errors.append(f"memory ground fidelity {out['fidelity']!r}")
    gap = _max_gap(out["reservoir"], out["reservoir_closed"])
    if gap > LIB_TOL:
        errors.append(f"reservoir marginal off its closed form by {gap:.3e}")
    gap = _diag_gap(out["reservoir_closed"], [up * p_g, down * p_e, down * p_g, up * p_e])
    if gap > LIB_TOL:
        errors.append(f"reservoir populations off by {gap:.3e}")
    gap = _max_gap(out["path"], out["path_closed"])
    if gap > LIB_TOL:
        errors.append(f"path marginal off its closed form by {gap:.3e}")
    gap = _diag_gap(out["path_closed"], [up * p1, down * p1, down * (1 - p1), up * (1 - p1)])
    if gap > LIB_TOL:
        errors.append(f"path populations off by {gap:.3e}")
    if abs(out["polarization"].rows[0][0] - 1.0) > LIB_TOL:
        errors.append(f"polarization H fidelity {out['polarization'].rows[0][0]!r}")
    return errors


NON_FINITE_TAGS = {"infinite": math.inf, "-infinite": -math.inf, "undefined": math.nan}


def _cli_value(text: str):
    """A value as the CLI prints it: number, non-finite tag or boolean."""
    word = text.strip()
    if word in ("true", "True"):
        return True
    if word in ("false", "False"):
        return False
    if word in NON_FINITE_TAGS:
        return NON_FINITE_TAGS[word]
    return float(word)


def _parse_erase(fmt: str, stdout: str) -> dict:
    if fmt == "json":
        return {k: (_cli_value(v) if isinstance(v, str) else v)
                for k, v in json.loads(stdout)["report"].items()}
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(stdout)))
        return {k: (v if k == "units" else _cli_value(v)) for k, v in zip(header, row)}
    fields = {}
    for line in stdout.splitlines()[1:]:
        key, value = line.split(None, 1)
        if key != "bloch":
            fields[key] = _cli_value(value)
    return fields


def check_cli(op, returncode: int, stdout: str, sweep_text: str | None) -> list[str]:
    """Check one CLI operation's exit code and output."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        if op.kind == "erase":
            fmt = op.label.split("-")[0]
            if op.draw is None:
                got = json.loads(stdout)
                return [] if got == README_ERASE_JSON else ["README erase example changed"]
            errors = check_report(_parse_erase(fmt, stdout), op.draw, CLI_TOL)
            if fmt == "json":
                units = json.loads(stdout)["units"]
                if units != ("SI" if op.draw.si else "natural"):
                    errors.append(f"units {units!r}")
            return errors
        if op.kind == "verify":
            payload = json.loads(stdout)
            bad = [c["name"] for c in payload["checks"] if c["status"] not in ("pass", "skip")]
            if payload["passed"] is not True or bad:
                return [f"verify failed: {bad}"]
            return []
        if op.kind == "optics":
            return _check_optics(op, json.loads(stdout))
        if op.kind == "convert-units":
            return _check_convert(op, json.loads(stdout))
        if op.kind == "sweep":
            return _check_sweep(sweep_text or "")
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {op.kind} output: {exc!r}"]
    return [f"no check for {op.kind}"]


def _check_optics(op, payload: dict) -> list[str]:
    errors = []
    if payload["polarization_fidelity_H"] != 1.0:
        errors.append(f"H fidelity {payload['polarization_fidelity_H']!r}")
    if payload["encoding_equivalent"] is not True:
        errors.append("encodings disagree")
    if payload["closed_form_max_deviation"] > LIB_TOL:
        errors.append(f"closed-form deviation {payload['closed_form_max_deviation']!r}")
    x, y, z = op.draw.bloch
    p1, p2 = op.p1, 1.0 - op.p1
    up, down, off = (1 + z) / 2, (1 - z) / 2, complex(x, -y) / 2
    want = [[0j] * 4 for _ in range(4)]
    want[0][0], want[1][1], want[0][1], want[1][0] = up * p1, down * p1, off * p1, off.conjugate() * p1
    want[3][3], want[2][2], want[3][2], want[2][3] = up * p2, down * p2, off * p2, off.conjugate() * p2
    got = payload["path_marginal"]
    gap = max(abs(complex(*got[i][j]) - want[i][j]) for i in range(4) for j in range(4))
    if gap > CLI_TOL:
        errors.append(f"path marginal off the closed form by {gap:.3e}")
    return errors


def _check_convert(op, payload: dict) -> list[str]:
    scale = DELTA_SI / K_B_SI
    want = {
        "kelvin_per_natural": scale,
        "kelvin": op.kelvin,
        "natural": op.kelvin / scale,
        "beta_delta": scale / op.kelvin,
    }
    return [
        f"{k} {payload.get(k)!r} != {v!r}"
        for k, v in want.items()
        if not _close(payload.get(k), v, CLI_TOL * abs(v))
    ]


def _check_sweep(text: str) -> list[str]:
    lines = text.splitlines()
    if len(lines) != SWEEP_LINES or lines[0] != SWEEP_HEADER:
        return [f"sweep has {len(lines)} lines, header {lines[:1]!r}"]
    ds = entropy_decrease((SWEEP_R, 0.0, 0.0))
    p_g, p_e = gibbs(1.0 / SWEEP_T)
    errors = []
    for line in lines[1::257]:
        _, _, x, y, z, s, q_m, q_r, t_lim = (float(v) for v in line.split(","))
        want_q_m = -(1.0 - z) / 2.0
        checks = (
            (s, ds),
            (q_m, want_q_m),
            (q_r, (1.0 - z) / 2.0 * (p_g - p_e)),
            (t_lim, -want_q_m / ds),
            (math.sqrt(x * x + y * y + z * z), SWEEP_R),
        )
        for got, want in checks:
            if abs(got - want) > CLI_TOL * max(1.0, abs(want)):
                errors.append(f"sweep row {line!r}: {got!r} != {want!r}")
                break
    return errors
