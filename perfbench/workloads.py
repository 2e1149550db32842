"""Seeded inputs for the two workloads and the CLI operations, as plain Python values.

This module never imports qerase: the set-up probe builds its first input
before it starts the clock and imports the package. Every input property
(near-pure memory, SI units, thermal point) has its own independent draw, so
no property is tied to another one by the draw order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("analyze", "propagate")

# One pass over a batch is the unit of measurement for `analyze` and
# `propagate`: every pass times the same inputs, so passes differ only by
# timing noise, and the failure count per pass is fixed by the seed.
BATCH = 1024

BETA_GRID = (0.0, 0.1, 1.0, 10.0, math.inf)
T_MIN, T_MAX = 0.05, 20.0  # finite temperatures, in units of delta / k_B
DELTA_SI = 1.986e-22  # J
K_B_SI = 1.380649e-23  # J/K
KELVIN_PER_NATURAL = DELTA_SI / K_B_SI

NEAR_PURE_SHARE = 1.0 / 8.0
SI_SHARE = 1.0 / 4.0
GROUND_SHARE = 1.0 / 16.0  # of the near-pure draws: exactly the ground state
LOG10_ONE_MINUS_R = (-12.0, -3.0)


def rng_for(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it does not depend on
    # PYTHONHASHSEED and gives the same stream in every process.
    return random.Random(f"qerase-bench:{workload}:{seed}")


@dataclass(frozen=True)
class Draw:
    """One memory state and thermal point.

    `beta` is in natural units (delta = k_B = 1); `si` asks for the same
    point expressed in joules and kelvins. `one_minus_r` is set only for
    near-pure draws (0.0 for the exact ground state).
    """

    bloch: tuple[float, float, float]
    beta: float
    si: bool = False
    one_minus_r: float | None = None

    @property
    def near_pure(self) -> bool:
        return self.one_minus_r is not None

    @property
    def delta(self) -> float:
        return DELTA_SI if self.si else 1.0

    @property
    def k_B(self) -> float:
        return K_B_SI if self.si else 1.0

    @property
    def temperature(self) -> float:
        """Temperature in the draw's own units (kelvin when `si`)."""
        if self.beta == 0.0:
            return math.inf
        if math.isinf(self.beta):
            return 0.0
        return (KELVIN_PER_NATURAL if self.si else 1.0) / self.beta


def uniform_ball(rng: random.Random) -> tuple[float, float, float]:
    while True:
        x, y, z = (rng.uniform(-1.0, 1.0) for _ in range(3))
        if x * x + y * y + z * z <= 1.0:
            return (x, y, z)


def uniform_direction(rng: random.Random) -> tuple[float, float, float]:
    while True:
        x, y, z = (rng.gauss(0.0, 1.0) for _ in range(3))
        n = math.sqrt(x * x + y * y + z * z)
        if n > 1e-6:
            return (x / n, y / n, z / n)


def thermal_beta(rng: random.Random) -> float:
    """A grid point of verify's beta grid, or a log-uniform finite temperature."""
    k = rng.randrange(len(BETA_GRID) + 1)
    if k < len(BETA_GRID):
        return BETA_GRID[k]
    return 1.0 / 10.0 ** rng.uniform(math.log10(T_MIN), math.log10(T_MAX))


def near_pure_bloch(rng: random.Random) -> tuple[tuple[float, float, float], float]:
    if rng.random() < GROUND_SHARE:
        return (0.0, 0.0, 1.0), 0.0
    eps = 10.0 ** rng.uniform(*LOG10_ONE_MINUS_R)
    r = 1.0 - eps
    x, y, z = uniform_direction(rng)
    return (r * x, r * y, r * z), eps


def analyze_batch(seed: int) -> list[Draw]:
    rng = rng_for("analyze", seed)
    out = []
    for _ in range(BATCH):
        near_pure = rng.random() < NEAR_PURE_SHARE
        si = rng.random() < SI_SHARE
        beta = thermal_beta(rng)
        if near_pure:
            bloch, eps = near_pure_bloch(rng)
            out.append(Draw(bloch, beta, si, eps))
        else:
            out.append(Draw(uniform_ball(rng), beta, si))
    return out


def propagate_batch(seed: int) -> list[Draw]:
    rng = rng_for("propagate", seed)
    return [Draw(uniform_ball(rng), thermal_beta(rng)) for _ in range(BATCH)]


def _fmt(x: float) -> str:
    return repr(float(x))


def _bloch_arg(b: tuple[float, float, float]) -> str:
    return ",".join(_fmt(v) for v in b)


@dataclass(frozen=True)
class CliOp:
    """One `python -m qerase ...` invocation and what its output must show."""

    kind: str  # subcommand, used to group timings
    label: str  # distinguishes the variants of one subcommand
    argv: tuple[str, ...]
    draw: Draw | None = None  # erase: the state and thermal point asked for
    p1: float | None = None  # optics
    kelvin: float | None = None  # convert-units


README_ERASE = ("erase", "--bloch", "0.5,0,0", "--temperature", "0.9")


def cli_rotation(seed: int, sweep_path: str) -> list[CliOp]:
    """The fixed rotation of CLI operations, with inputs drawn from `seed`."""
    rng = rng_for("cli", seed)
    ops = [CliOp("erase", "json", README_ERASE)]
    for si in (False, True):
        for fmt in ("json", "csv", "text"):
            if not si and fmt == "json":
                continue
            beta = 1.0 / 10.0 ** rng.uniform(math.log10(T_MIN), math.log10(T_MAX))
            draw = Draw(uniform_ball(rng), beta, si)
            # `--opt=value`: a value may start with a minus sign.
            argv = ["erase", f"--bloch={_bloch_arg(draw.bloch)}",
                    "--temperature", _fmt(draw.temperature), "--format", fmt]
            if si:
                argv += ["--delta-si", _fmt(DELTA_SI)]
            ops.append(CliOp("erase", f"{fmt}-{'si' if si else 'natural'}", tuple(argv), draw=draw))
    pol = uniform_ball(rng)
    p1 = rng.uniform(0.0, 1.0)
    ops.append(CliOp("optics", "json",
                     ("optics", f"--pol={_bloch_arg(pol)}", "--p1", _fmt(p1)),
                     draw=Draw(pol, 0.0), p1=p1))
    kelvin = rng.uniform(1.0, 1000.0)
    ops.append(CliOp("convert-units", "json",
                     ("convert-units", "--delta-si", _fmt(DELTA_SI), "--kelvin", _fmt(kelvin)),
                     kelvin=kelvin))
    ops.append(CliOp("verify", "json",
                     ("verify", "--draws", "1000", "--seed", str(rng.randrange(1, 2**31)))))
    ops.append(CliOp("sweep", "csv",
                     ("sweep", "--r", "0.5", "--n-theta", "256", "--n-phi", "256",
                      "--temperature", "0.9", "--output", sweep_path)))
    return ops
