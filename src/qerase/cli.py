"""Command-line front end.

Subcommands: `erase` (one run, full thermodynamic report), `sweep` (CSV over
a Bloch-sphere grid), `optics` (photon simulation), `verify` (self-check
battery), and `convert-units` (natural temperature units vs kelvin).

Each `cmd_*` handler returns a payload of plain values; `render` turns it
into JSON or the subcommand's CSV/text layout, and `main` writes that out.

Exit codes: 0 success, 1 verification or cross-check failure, 2 bad input,
3 I/O failure.
Floats are emitted with 12 significant digits, except the optics text
matrix, which shows 6 decimals. Infinities and undefined ratios become the
tags "infinite" and "undefined" in every format.
"""

import argparse
import io
import json
import math
import sys

from .linalg import ComplexMatrix
from .states import BlochVector, ThermalSpec, _check_positive
from .thermo import _in_units, analyze

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


def _tag(x: float):
    """Float for JSON, or a tag string when JSON has no literal for it."""
    if math.isnan(x):
        return "undefined"
    if math.isinf(x):
        return "infinite" if x > 0 else "-infinite"
    return float(f"{x:.12g}")


def _fmt(x: float | bool) -> str:
    """Text and CSV form of a float or a flag."""
    if isinstance(x, bool):
        return str(x).lower()
    if math.isfinite(x):
        return f"{x:.12g}"
    return _tag(x)


def _parse_float(text: str) -> float:
    if text.strip().lower() == "infinite":  # float reads "inf" and "infinity"
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


def _thermal_spec(args: argparse.Namespace, delta: float, k_B: float) -> ThermalSpec:
    """--temperature, else --beta (default inf), at gap `delta`; ThermalSpec
    checks the gap and the temperature."""
    if args.temperature is not None:
        return ThermalSpec.from_temperature(args.temperature, delta, k_B)
    return ThermalSpec.from_beta(math.inf if args.beta is None else args.beta, delta, k_B)


def cmd_erase(args: argparse.Namespace) -> dict:
    units = "SI" if (args.delta_si is not None or args.units == "SI") else "natural"
    if args.delta_si is not None:
        if args.units == "natural":
            raise ValueError("--delta-si is in joules; it cannot run with --units natural")
        if args.delta is not None:
            raise ValueError("give either --delta or --delta-si, not both")
        delta = args.delta_si
    else:
        delta = 1.0 if args.delta is None else args.delta
    spec = _thermal_spec(args, delta, K_B_SI if units == "SI" else 1.0)
    bloch = args.bloch
    report = analyze(bloch, spec)
    return {
        "units": units,
        "inputs": {
            "bloch": (bloch.r_x, bloch.r_y, bloch.r_z),
            "beta": spec.beta,
            "temperature": spec.temperature,
            "delta": spec.delta,
            "k_B": spec.k_B,
        },
        "report": {
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
        },
    }


def cmd_sweep(args: argparse.Namespace) -> dict:
    """Grid at fixed Bloch radius over the whole sphere. Each row is
    `analyze`'s checked report on its cell at the unit gap and the same x =
    beta delta: dS and T_limit (in units of delta / k_B) as reported, and
    Q_M and Q_R, in units of the gap there, times delta. `analyze`'s records
    depend on b and x alone, so a cell whose routes disagree raises the
    ArithmeticError that `erase` on it raises, its cell named after the
    message, and no row is printed."""
    r, n_theta, n_phi = args.r, args.n_theta, args.n_phi
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"radius must lie in [0, 1], got {r!r}")
    if n_theta < 2:
        raise ValueError("need at least 2 polar samples")
    if n_phi < 1:
        raise ValueError("need at least 1 azimuthal sample")
    spec = _thermal_spec(args, args.delta, 1.0)
    gap = ThermalSpec.from_beta(spec.beta * spec.delta)
    rows = []
    for i in range(n_theta):
        theta = i * math.pi / (n_theta - 1)
        sin_t, cos_t = math.sin(theta), math.cos(theta)
        for j in range(n_phi):
            phi = j * 2.0 * math.pi / n_phi
            b = BlochVector(r * sin_t * math.cos(phi), r * sin_t * math.sin(phi), r * cos_t)
            try:
                report = analyze(b, gap)
            except ArithmeticError as exc:
                raise type(exc)(f"{exc} (cell i={i}, j={j}: theta={theta!r}, phi={phi!r})")
            rows.append((theta, phi, b.r_x, b.r_y, b.r_z, report.delta_s,
                         spec.delta * report.q_memory, spec.delta * report.q_reservoir,
                         report.t_limit))
    return {"rows": rows}


def cmd_optics(args: argparse.Namespace) -> dict:
    """The photon's run through the default circuit, printed only once it is
    checked: ArithmeticError where the simulated path marginal is further
    than `optics.PROBABILITY_TOL` from its closed form in any entry (a NaN
    too), then where the circuit is not the abstract channel on the
    physical inputs, so a wrong circuit exits 1, as a failed `erase` does."""
    from . import optics  # only this subcommand simulates the photon

    dist = optics.PathDistribution(p_1=args.p1, p_2=1.0 - args.p1)
    state = optics.simulate(args.pol, dist)
    marginal = optics.path_marginal(state)
    closed = optics.path_final_closed_form(args.pol, dist)
    deviation = max(abs(m - c) for m, c in zip(marginal._flat, closed._flat))
    if not deviation <= optics.PROBABILITY_TOL:
        raise ArithmeticError(f"path marginal: simulation and closed form differ by {deviation!r},"
                              f" more than {optics.PROBABILITY_TOL:.0e}")
    mismatches = optics.verify_encoding_equivalence()
    if mismatches:
        raise ArithmeticError("encoding: " + "; ".join(mismatches))
    return {
        "inputs": {
            "pol": (args.pol.r_x, args.pol.r_y, args.pol.r_z),
            "p_1": dist.p_1,
            "p_2": dist.p_2,
        },
        "mode_labels": optics.MODE_LABELS,
        "final_state": state,
        "polarization_fidelity_H": optics.polarization_marginal(state)[0, 0].real,
        "path_labels": optics.PATH_LABELS,
        "path_marginal": marginal,
        "closed_form_max_deviation": deviation,
        "encoding_equivalent": not mismatches,
    }


def cmd_verify(args: argparse.Namespace) -> dict:
    from . import verify  # only this subcommand loads the battery

    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    verify._check_battery_inputs(args.delta, args.draws)
    results = verify.run_verification(delta=args.delta, draws=args.draws, seed=seed)
    return {
        "parameters": {"delta": args.delta, "draws": args.draws, "seed": seed},
        "checks": [{"name": r.name, "status": r.status, "detail": r.detail} for r in results],
        "passed": verify.all_passed(results),
    }


def cmd_convert_units(args: argparse.Namespace) -> dict:
    delta = args.delta_si
    _check_positive("--delta-si", delta)
    if args.kelvin is not None:
        kelvin, natural = args.kelvin, _in_units(args.kelvin, K_B_SI, delta)
    else:
        kelvin, natural = _in_units(args.natural, delta, K_B_SI), args.natural
    spec = ThermalSpec.from_temperature(kelvin, delta, K_B_SI)  # as `erase --delta-si` builds it
    return {
        "delta_si": delta,
        "k_B": K_B_SI,
        "kelvin_per_natural": delta / K_B_SI,
        "kelvin": kelvin,
        "natural": natural,
        "beta_delta": spec.beta * spec.delta,
    }


def _jsonable(value):
    """`value` with floats tagged, complex numbers as [re, im] and matrices
    as lists of rows."""
    if isinstance(value, float):
        return _tag(value)
    if isinstance(value, complex):
        return [_tag(value.real), _tag(value.imag)]
    if isinstance(value, ComplexMatrix):
        value = value.rows
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _csv(rows) -> str:
    import csv  # only the CSV layouts need it

    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _erase_csv(payload: dict) -> str:
    inputs, report = dict(payload["inputs"]), payload["report"]
    values = [*inputs.pop("bloch"), *inputs.values()]
    return _csv([
        ["r_x", "r_y", "r_z", *inputs, "units", *report],
        [*map(_fmt, values), payload["units"], *map(_fmt, report.values())],
    ])


def _erase_text(payload: dict) -> str:
    fields = _jsonable({**payload["inputs"], **payload["report"]})
    fields["bloch"] = "(" + ", ".join(map(_fmt, payload["inputs"]["bloch"])) + ")"
    return _lines([f"erasure run ({payload['units']} units)"]
                  + [f"  {key:<18} {value}" for key, value in fields.items()])


def _sweep_csv(payload: dict) -> str:
    return _csv([SWEEP_COLUMNS, *([_fmt(x) for x in row] for row in payload["rows"])])


def _optics_text(payload: dict) -> str:
    inputs = payload["inputs"]
    return _lines([
        "optical erasure run",
        f"  pol bloch        {_jsonable(inputs['pol'])}",
        f"  path weights     p1 = {_fmt(inputs['p_1'])}, p2 = {_fmt(inputs['p_2'])}",
        f"  H fidelity       {_fmt(payload['polarization_fidelity_H'])}",
        f"  closed-form gap  {_fmt(payload['closed_form_max_deviation'])}",
        f"  encodings agree  {_fmt(payload['encoding_equivalent'])}",
        "  path marginal (rows/cols: " + ", ".join(payload["path_labels"]) + ")",
        *("    " + "  ".join(f"{x.real:+.6f}{x.imag:+.6f}j" for x in row)
          for row in payload["path_marginal"].rows),
    ])


def _verify_text(payload: dict) -> str:
    return _lines(
        [f"{c['status'].upper():<5} {c['name']}: {c['detail']}" for c in payload["checks"]]
        + ["all checks passed" if payload["passed"] else "FAILURES above"]
    )


LAYOUTS = {
    ("erase", "csv"): _erase_csv,
    ("erase", "text"): _erase_text,
    ("sweep", "csv"): _sweep_csv,
    ("optics", "text"): _optics_text,
    ("verify", "text"): _verify_text,
}


def render(command: str, payload: dict, fmt: str) -> str:
    """The bytes `qerase <command> --format <fmt>` prints for `payload`."""
    if fmt == "json":
        document = {"schema_version": SCHEMA_VERSION, "command": command}
        document.update(_jsonable(payload))
        return json.dumps(document, indent=2) + "\n"
    return LAYOUTS[command, fmt](payload)


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, which reads the terminal width only once it
    formats, in `format_help`: `add_argument` builds a formatter per
    argument to check its metavar, and the stock one reads the width, and
    imports `shutil` to do so, each time. The width is argparse's own
    `columns - 2`, and the help position its rule on that width."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        super().__init__(prog, indent_increment, max_help_position, 0 if width is None else width)
        self._width_given, self._help_position = width is not None, max_help_position

    def format_help(self):
        if not self._width_given:
            import shutil

            self._width = shutil.get_terminal_size().columns - 2
            self._max_help_position = min(self._help_position,
                                          max(self._width - 20, self._indent_increment * 2))
        return super().format_help()


def _parser(**kwargs) -> argparse.ArgumentParser:
    """A subcommand's parser, with `_HelpFormatter`."""
    return argparse.ArgumentParser(formatter_class=_HelpFormatter, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qerase",
        description="Erase a qubit memory through an ancilla-assisted reservoir "
        "channel and report the thermodynamics.",
        formatter_class=_HelpFormatter,
    )
    # the prog argparse would format from the usage of a parser with no
    # positional argument, given so that no width is read here
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog,
                                parser_class=_parser)

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
    p_erase.add_argument("--units", choices=("natural", "SI"), default=None)
    p_erase.add_argument("--format", choices=("json", "csv", "text"), default="json")
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
    p_sweep.set_defaults(handler=cmd_sweep, format="csv")

    p_optics = sub.add_parser("optics", help="single-photon simulation of the channel")
    p_optics.add_argument("--pol", type=_parse_pol, default=BlochVector(),
                          metavar="H|V|RX,RY,RZ",
                          help="polarization state (default fully mixed)")
    p_optics.add_argument("--p1", type=float, default=1.0,
                          help="weight on input path 1 (default 1; path 2 gets the rest)")
    p_optics.add_argument("--format", choices=("json", "text"), default="json")
    p_optics.set_defaults(handler=cmd_optics)

    p_verify = sub.add_parser("verify", help="run the self-check battery")
    p_verify.add_argument("--delta", type=float, default=1.0,
                          help="gap for the commutator check; 0 skips it")
    p_verify.add_argument("--draws", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=None)  # None: verify.DEFAULT_SEED
    p_verify.add_argument("--format", choices=("json", "text"), default="json")
    p_verify.set_defaults(handler=cmd_verify)

    p_convert = sub.add_parser("convert-units",
                               help="translate temperatures between kelvin and gap units")
    p_convert.add_argument("--delta-si", type=float, required=True, metavar="JOULES")
    convert_group = p_convert.add_mutually_exclusive_group(required=True)
    convert_group.add_argument("--kelvin", type=_parse_float, default=None)
    convert_group.add_argument("--natural", type=_parse_float, default=None,
                               help="temperature in units of delta/k_B")
    p_convert.set_defaults(handler=cmd_convert_units, format="json")

    for p in sub.choices.values():  # last, so each help lists it last
        p.add_argument("--output", default=None, metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
        _emit(render(args.command, payload, args.format), args.output)
    except ArithmeticError as exc:  # e.g. a failed cross-check in `analyze`
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0 if payload.get("passed", True) else 1


def run() -> None:
    sys.exit(main())
