"""Command-line front end.

Subcommands: `erase` (one run, full thermodynamic report), `sweep` (CSV over
a Bloch-sphere grid), `optics` (photon simulation), `verify` (self-check
battery), and `convert-units` (natural temperature units vs kelvin).

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 I/O failure.
All floats are emitted with 12 significant digits; infinities and undefined
ratios become the JSON-safe tags "infinite" and "undefined".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

from .states import BlochVector, EnergyLevels, ThermalSpec
from .thermo import ErasureReport, analyze, entropy_decrease, heat_memory, heat_reservoir, limit_temperature
from .optics import (
    MODE_LABELS,
    PATH_LABELS,
    PathDistribution,
    path_final_closed_form,
    path_marginal,
    polarization_marginal,
    simulate,
    verify_encoding_equivalence,
)
from .verify import DEFAULT_SEED, all_passed, run_verification

SCHEMA_VERSION = "1"
K_B_SI = 1.380649e-23  # J/K

SWEEP_COLUMNS = (
    "theta",
    "phi",
    "r_x",
    "r_y",
    "r_z",
    "delta_S_nats",
    "Q_M",
    "Q_R",
    "T_limit",
)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "undefined"
    if math.isinf(x):
        return "infinite" if x > 0 else "-infinite"
    return f"{x:.12g}"


def _tag(x: float):
    """Float for JSON, or a tag string when JSON has no literal for it."""
    if math.isnan(x):
        return "undefined"
    if math.isinf(x):
        return "infinite" if x > 0 else "-infinite"
    return _round12(x)


def _parse_float(text: str) -> float:
    word = text.strip().lower()
    if word in ("inf", "infinity", "infinite"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _parse_bloch(text: str) -> BlochVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated components, got {text!r}"
        )
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric component in {text!r}")
    try:
        return BlochVector(x, y, z)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_pol(text: str) -> BlochVector:
    word = text.strip().upper()
    if word == "H":
        return BlochVector(0.0, 0.0, 1.0)
    if word == "V":
        return BlochVector(0.0, 0.0, -1.0)
    return _parse_bloch(text)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@dataclass(frozen=True)
class SweepConfig:
    """Grid sweep at fixed Bloch radius over the whole sphere. The gap and
    temperature are checked by EnergyLevels and ThermalSpec."""

    r: float
    n_theta: int
    n_phi: int

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"radius must lie in [0, 1], got {self.r!r}")
        if self.n_theta < 2:
            raise ValueError("need at least 2 polar samples")
        if self.n_phi < 1:
            raise ValueError("need at least 1 azimuthal sample")


def _run_spec(args: argparse.Namespace) -> tuple[ThermalSpec, str]:
    """Thermal data of one erase run and its unit system; ThermalSpec checks
    the gap and the temperature."""
    units = "SI" if (args.delta_si is not None or args.units == "SI") else "natural"
    if args.delta_si is not None:
        if args.delta is not None:
            raise ValueError("give either --delta or --delta-si, not both")
        delta = args.delta_si
    else:
        delta = 1.0 if args.delta is None else args.delta
    k_b = K_B_SI if units == "SI" else 1.0
    if args.temperature is not None:
        spec = ThermalSpec.from_temperature(args.temperature, delta, k_b)
    else:
        beta = math.inf if args.beta is None else args.beta
        spec = ThermalSpec.from_beta(beta, delta, k_b)
    return spec, units


def _report_fields(report: ErasureReport) -> dict:
    return {
        "delta_S": _tag(report.delta_s),
        "Q_M": _tag(report.q_memory),
        "Q_R": _tag(report.q_reservoir),
        "Q_E": _tag(report.q_environment),
        "photon_energy": _tag(report.photon_energy),
        "U_initial": _tag(report.u_initial),
        "U_final": _tag(report.u_final),
        "T": _tag(report.temperature),
        "T_limit": _tag(report.t_limit),
        "landauer_violated": report.landauer_violated,
        "landauer_margin": _tag(report.landauer_margin),
    }


def cmd_erase(args: argparse.Namespace) -> int:
    spec, units = _run_spec(args)
    bloch = args.bloch
    report = analyze(bloch, spec)
    inputs = {
        "bloch": [_tag(bloch.r_x), _tag(bloch.r_y), _tag(bloch.r_z)],
        "beta": _tag(spec.beta),
        "temperature": _tag(spec.temperature),
        "delta": _tag(spec.delta),
        "k_B": _tag(spec.k_B),
    }
    fields = _report_fields(report)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "erase",
            "units": units,
            "inputs": inputs,
            "report": fields,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = ["r_x", "r_y", "r_z", "beta", "temperature", "delta", "k_B", "units"]
        row = [
            _fmt(bloch.r_x),
            _fmt(bloch.r_y),
            _fmt(bloch.r_z),
            _fmt(spec.beta),
            _fmt(spec.temperature),
            _fmt(spec.delta),
            _fmt(spec.k_B),
            units,
        ]
        for key, value in fields.items():
            header.append(key)
            row.append(str(value).lower() if isinstance(value, bool) else
                       value if isinstance(value, str) else _fmt(value))
        writer.writerow(header)
        writer.writerow(row)
        _emit(buf.getvalue(), args.output)
    else:
        lines = [f"erasure run ({units} units)"]
        shown = dict(inputs)
        shown["bloch"] = "(" + ", ".join(_fmt(v) for v in (
            bloch.r_x, bloch.r_y, bloch.r_z)) + ")"
        for key, value in {**shown, **fields}.items():
            lines.append(f"  {key:<18} {value}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(r=args.r, n_theta=args.n_theta, n_phi=args.n_phi)
    levels = EnergyLevels(delta=args.delta)
    if args.temperature is not None:
        spec = ThermalSpec.from_temperature(args.temperature, args.delta)
    else:
        spec = ThermalSpec.from_beta(math.inf if args.beta is None else args.beta, args.delta)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_COLUMNS)
    for i in range(config.n_theta):
        theta = i * math.pi / (config.n_theta - 1)
        sin_t, cos_t = math.sin(theta), math.cos(theta)
        for j in range(config.n_phi):
            phi = j * 2.0 * math.pi / config.n_phi
            b = BlochVector(
                config.r * sin_t * math.cos(phi),
                config.r * sin_t * math.sin(phi),
                config.r * cos_t,
            )
            t_limit = limit_temperature(b, levels) / levels.delta
            writer.writerow(
                [
                    _fmt(theta),
                    _fmt(phi),
                    _fmt(b.r_x),
                    _fmt(b.r_y),
                    _fmt(b.r_z),
                    _fmt(entropy_decrease(b)),
                    _fmt(heat_memory(b, levels)),
                    _fmt(heat_reservoir(b, spec, levels)),
                    _fmt(t_limit),
                ]
            )
    _emit(buf.getvalue(), args.output)
    return 0


def _matrix_json(m) -> list:
    return [[[_round12(x.real), _round12(x.imag)] for x in row] for row in m.rows]


def cmd_optics(args: argparse.Namespace) -> int:
    dist = PathDistribution(p_1=args.p1, p_2=1.0 - args.p1)
    state = simulate(args.pol, dist)
    marginal = path_marginal(state)
    closed = path_final_closed_form(args.pol, dist)
    deviation = max(
        abs(marginal[i, j] - closed[i, j]) for i in range(4) for j in range(4)
    )
    fidelity_h = polarization_marginal(state)[0, 0].real
    equivalence = verify_encoding_equivalence()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "optics",
        "inputs": {
            "pol": [_tag(args.pol.r_x), _tag(args.pol.r_y), _tag(args.pol.r_z)],
            "p_1": _tag(dist.p_1),
            "p_2": _tag(dist.p_2),
        },
        "mode_labels": list(MODE_LABELS),
        "final_state": _matrix_json(state),
        "polarization_fidelity_H": _tag(fidelity_h),
        "path_labels": list(PATH_LABELS),
        "path_marginal": _matrix_json(marginal),
        "closed_form_max_deviation": _tag(deviation),
        "encoding_equivalent": equivalence.equivalent,
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [
            "optical erasure run",
            f"  pol bloch        {payload['inputs']['pol']}",
            f"  path weights     p1 = {_fmt(dist.p_1)}, p2 = {_fmt(dist.p_2)}",
            f"  H fidelity       {_fmt(fidelity_h)}",
            f"  closed-form gap  {_fmt(deviation)}",
            f"  encodings agree  {str(equivalence.equivalent).lower()}",
            "  path marginal (rows/cols: " + ", ".join(PATH_LABELS) + ")",
        ]
        for row in marginal.rows:
            lines.append(
                "    "
                + "  ".join(f"{x.real:+.6f}{x.imag:+.6f}j" for x in row)
            )
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {args.delta!r}")
    if args.draws < 1:
        raise ValueError(f"draws must be >= 1, got {args.draws!r}")
    results = run_verification(delta=args.delta, draws=args.draws, seed=args.seed)
    passed = all_passed(results)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "parameters": {"delta": _tag(args.delta), "draws": args.draws, "seed": args.seed},
            "checks": [
                {"name": r.name, "status": r.status, "detail": r.detail}
                for r in results
            ],
            "passed": passed,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = []
        for r in results:
            lines.append(f"{r.status.upper():<5} {r.name}: {r.detail}")
        lines.append("all checks passed" if passed else "FAILURES above")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if passed else 1


def cmd_convert_units(args: argparse.Namespace) -> int:
    delta = args.delta_si
    if delta <= 0.0 or not math.isfinite(delta):
        raise ValueError(f"--delta-si must be positive, got {delta!r}")
    if (args.kelvin is None) == (args.natural is None):
        raise ValueError("give exactly one of --kelvin or --natural")
    scale = delta / K_B_SI  # kelvin per natural unit
    if args.kelvin is not None:
        kelvin = args.kelvin
        if kelvin < 0.0:
            raise ValueError(f"temperature must be >= 0, got {kelvin!r}")
        natural = kelvin / scale
    else:
        natural = args.natural
        if natural < 0.0:
            raise ValueError(f"temperature must be >= 0, got {natural!r}")
        kelvin = natural * scale
    beta_delta = math.inf if kelvin == 0.0 else (
        0.0 if math.isinf(kelvin) else scale / kelvin
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "convert-units",
        "delta_si": _tag(delta),
        "k_B": _tag(K_B_SI),
        "kelvin_per_natural": _tag(scale),
        "kelvin": _tag(kelvin),
        "natural": _tag(natural),
        "beta_delta": _tag(beta_delta),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qerase",
        description="Erase a qubit memory through an ancilla-assisted reservoir "
        "channel and report the thermodynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_erase = sub.add_parser("erase", help="single run with a full report")
    p_erase.add_argument("--bloch", type=_parse_bloch, default=BlochVector(),
                         metavar="RX,RY,RZ", help="memory Bloch vector (default 0,0,0)")
    thermal = p_erase.add_mutually_exclusive_group()
    thermal.add_argument("--beta", type=_parse_float, default=None,
                         help="inverse temperature (accepts inf; default inf)")
    thermal.add_argument("--temperature", type=_parse_float, default=None,
                         help="temperature (accepts inf)")
    p_erase.add_argument("--delta", type=float, default=None,
                         help="level gap (default 1 in natural units)")
    p_erase.add_argument("--delta-si", type=float, default=None, metavar="JOULES",
                         help="level gap in joules; implies --units SI")
    p_erase.add_argument("--units", choices=("natural", "SI"), default="natural")
    p_erase.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_erase.add_argument("--output", default=None, metavar="PATH")
    p_erase.set_defaults(handler=cmd_erase)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over a Bloch-sphere grid")
    p_sweep.add_argument("--r", type=float, required=True, help="Bloch radius in [0, 1]")
    p_sweep.add_argument("--n-theta", type=int, default=64,
                         help="polar samples, endpoints included (default 64)")
    p_sweep.add_argument("--n-phi", type=int, default=64,
                         help="azimuthal samples on [0, 2pi) (default 64)")
    p_sweep.add_argument("--delta", type=float, default=1.0)
    sweep_thermal = p_sweep.add_mutually_exclusive_group()
    sweep_thermal.add_argument("--beta", type=_parse_float, default=None,
                               help="inverse temperature for Q_R (default inf)")
    sweep_thermal.add_argument("--temperature", type=_parse_float, default=None)
    p_sweep.add_argument("--output", default=None, metavar="PATH")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_optics = sub.add_parser("optics", help="single-photon simulation of the channel")
    p_optics.add_argument("--pol", type=_parse_pol, default=BlochVector(),
                          metavar="H|V|RX,RY,RZ",
                          help="polarization state (default fully mixed)")
    p_optics.add_argument("--p1", type=float, default=1.0,
                          help="weight on input path 1 (default 1; path 2 gets the rest)")
    p_optics.add_argument("--format", choices=("json", "text"), default="json")
    p_optics.add_argument("--output", default=None, metavar="PATH")
    p_optics.set_defaults(handler=cmd_optics)

    p_verify = sub.add_parser("verify", help="run the self-check battery")
    p_verify.add_argument("--delta", type=float, default=1.0,
                          help="gap for the commutator check; 0 skips it")
    p_verify.add_argument("--draws", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--format", choices=("json", "text"), default="json")
    p_verify.add_argument("--output", default=None, metavar="PATH")
    p_verify.set_defaults(handler=cmd_verify)

    p_convert = sub.add_parser("convert-units",
                               help="translate temperatures between kelvin and gap units")
    p_convert.add_argument("--delta-si", type=float, required=True, metavar="JOULES")
    convert_group = p_convert.add_mutually_exclusive_group(required=True)
    convert_group.add_argument("--kelvin", type=_parse_float, default=None)
    convert_group.add_argument("--natural", type=_parse_float, default=None,
                               help="temperature in units of delta/k_B")
    p_convert.add_argument("--output", default=None, metavar="PATH")
    p_convert.set_defaults(handler=cmd_convert_units)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
