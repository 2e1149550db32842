"""Every output bit of `analyze`, its cross-check records, the propagate calls,
`sweep`'s rows and `verify`, and the refusals of the calls that build the
propagated states, pinned.

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
temperature, and SI gaps in joules and kelvins. `sweep` runs on a grid of
radii up to the last double below 1, thermal points from beta = 0 to inf
past 1e+-300, and gaps from a subnormal one to 1e300.
"""

import hashlib
import itertools
import math
import random

import qerase
from qerase.channel import _branch_split
from qerase.cli import build_parser, cmd_sweep
from qerase.linalg import ComplexMatrix, _kron, diagonal, partial_trace
from qerase.verify import run_verification

BETA_GRID = (0.0, 0.1, 1.0, 10.0, math.inf)
T_RANGE = (0.05, 20.0)  # finite temperatures, in units of delta / k_B
DELTA_SI, K_B_SI = 1.986e-22, 1.380649e-23  # J, J/K
DRAWS = 600

ANALYZE_DIGEST = "822bce11101b94c85f9f98c02a4016181efab31f9c69932404c0df3d9eea0434"
PROPAGATE_DIGEST = "95c6ee277c632f093f9098d1933964bcd76b7b3938668823359c465e866565df"
VERIFY_DIGEST = "d081efdba8c07dc5471b9fd15aaaf97db590f5c157f926e253e11be810d4d5e5"
RECORDS_DIGEST = "15446f565b73b7b5f450eb0efcc277fc33c4c868e5e0d91ab256611c8f32de82"
SWEEP_DIGEST = "2c77bcb53f408624b4e0d02c3f3fb56a8e70c6358cba3a2d8770d526f637e3e5"
REFUSALS_DIGEST = "5f2c7c6f5296a86bdf84807ad1e1087778eccc754b658dcda7e7913a241cb7bf"

SWEEP_RADII = ("0", "0.3", "0.5", repr(1.0 - 1e-12), repr(1.0 - 2.0 ** -53), "1")
SWEEP_THERMAL = (("--beta", "0"), ("--beta", "inf"), ("--beta", "1e300"), ("--beta", "1e-300"),
                 ("--beta", "50"), ("--temperature", "0.9"), ("--temperature", "20"))
SWEEP_GAPS = ("1", "2", "0.6", "2.3023e-320", "1e300", "1.986e-22")


def _ball(rng):
    while True:
        b = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
        if b[0] * b[0] + b[1] * b[1] + b[2] * b[2] <= 1.0:
            return b


def _near_pure(rng):
    if rng.random() < 1.0 / 16.0:
        return (0.0, 0.0, 1.0)
    while True:
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
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


def test_analyze_records():
    """The records (name, closed, traced, residual, tol) `analyze` judges:
    a traced bit, such as the entropy drop, that moves without moving a
    report shows here."""
    inputs = [(b, spec) for b, spec, _ in _draws("analyze")]
    assert _digest(lambda b, spec: qerase.thermo._cross_check(b, spec)[1], inputs) == RECORDS_DIGEST


def test_propagate_outputs():
    assert _digest(_propagate, _draws("propagate")) == PROPAGATE_DIGEST


def test_sweep_rows():
    """`cmd_sweep`'s rows, 5 x 4 cells, at every radius, thermal point and gap."""
    parse = build_parser().parse_args
    inputs = [(parse(["sweep", "--r", r, "--n-theta", "5", "--n-phi", "4", "--delta", delta,
                      *thermal]),)
              for r, thermal, delta in itertools.product(SWEEP_RADII, SWEEP_THERMAL, SWEEP_GAPS)]
    assert _digest(lambda args: cmd_sweep(args)["rows"], inputs) == SWEEP_DIGEST


def _refusals():
    """(type, message) of each refusal of a bad input to `_kron`,
    `partial_trace`, `_branch_split` and `apply_channel`, in a fixed order;
    every input is refused."""
    inf, nan, big, top = math.inf, math.nan, 1e200, 1.7976931348623157e308
    circuit = qerase.optics.DEFAULT_CIRCUIT_PERMUTATION
    bad_perms = ((0,) * 8, (1, 0), (*range(7), 8))
    calls = []
    cases = [(a, values, perms)
             for a in (qerase.qubit_from_bloch(qerase.BlochVector(0.3, -0.2, 0.4)),
                       diagonal([1.0, -0.0]))
             for values, perms in (([nan, 0.5, 0j, 0j], (None, circuit, *bad_perms)),
                                   ([0.5, inf, 0j, 0j], (None, circuit, *bad_perms)),
                                   ([complex(0.5, -inf), 0.5, 0j, 0j], (None, *bad_perms)),
                                   ([], (None, circuit, *bad_perms)),
                                   ([0.5, 0.5, 0j, 0j], bad_perms))]
    overflowing = ComplexMatrix([[big, 0.5j], [-0.5j, 0.5]])  # big * big = inf
    cases += [(overflowing, values, (None, circuit, *bad_perms))
              for values in ([big, 0.5, 0j, 0j], [complex(0.0, big), 0.5, 0j, 0j])]
    for a, values, perms in cases:
        calls.extend(lambda a=a, values=values, perm=perm: _kron(a, values, perm) for perm in perms)
    for huge in (diagonal([1e308] * 8), diagonal([complex(-1e308, 1e308)] * 8)):
        for dims, keep in (((2, 2, 2), (0,)), ((2, 2, 2), (1, 2)), ((2, 4), (0,)),
                           ((2, 4), (1,)), ((2, 2, 2), (0, 2)), ((2, 3), (0,)), ((2, 4), ())):
            calls.append(lambda m=huge, dims=dims, keep=keep: partial_trace(m, dims, keep))
    splits = [(qerase.BlochVector(0.0, 0.0, 1.0 + 1e-12), p) for p in ((top, 0.0), (0.5, top))]
    splits += [(qerase.BlochVector(0.6, -0.8, 0.0), p)
               for p in ((inf, 0.0), (0.5, nan), (-inf, inf))]
    for b, p in splits:
        calls.extend(lambda b=b, p=p, perm=perm: _branch_split(b, *p, perm)
                     for perm in (None, qerase.optics.CHANNEL_TO_MODE[:4]))
    rows = [[0.125 if i == j else 0.0 for j in range(8)] for i in range(8)]
    skew = [row[:] for row in rows]
    skew[0][1], skew[1][0] = 0.01, -0.01
    negative = [row[:] for row in rows]
    negative[0][0], negative[1][1] = -0.125, 0.375
    bads = ([], [[1.0, 0.0], [0.0]], [[nan]], [[inf, 0.0], [0.0, 0.0]], skew, ComplexMatrix(skew),
            [[0.25 if i == j else 0.0 for j in range(8)] for i in range(8)], negative,
            ComplexMatrix(negative), diagonal([0.25] * 4), diagonal([0.5, 0.5]),
            diagonal([1.0, 0.0, 0.0, 1.0]), [[0.5, 1j], [-1j, 0.5]])
    calls.extend(lambda rho=rho: qerase.apply_channel(rho) for rho in bads)
    out = []
    for call in calls:
        try:
            call()
        except Exception as exc:
            out.append((type(exc).__name__, str(exc)))
        else:
            raise AssertionError(f"refusal {len(out)} returned")
    return out


# permutations with a float entry; a cache keyed by the tuple finds the
# entry of its integer twin for each, as (1.0, 0) == (1, 0), with one hash
FLOAT_PERMUTATIONS = ((1.0, 0), (0, 1.0), (1.0, 0.0),
                      tuple(map(float, qerase.ERASURE_PERMUTATION)),
                      (*qerase.ERASURE_PERMUTATION[:-1], float(qerase.ERASURE_PERMUTATION[-1])))


def _clear_builder_caches():
    for builder in (qerase.linalg._relabeling, qerase.linalg._kron_plan,
                    qerase.linalg._product_kernel, qerase.linalg._trace_plan,
                    qerase.linalg._pattern_plan, qerase.thermo._route_kernel):
        builder.cache_clear()


def _refusal(call):
    """(type, message) of call's refusal, or the repr of what it returns."""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_refusals():
    """Every refusal's type and message, in order: a change that moves a
    finiteness scan, a density check or a permutation check ahead of
    another changes the digest. It holds with every builder's cache
    cleared and again warm. `permute` refuses each permutation with a float
    entry, as README says, cold and after its integer twin has run."""
    _clear_builder_caches()
    for _ in ("cold", "warm"):
        assert hashlib.sha256(repr(_refusals()).encode()).hexdigest() == REFUSALS_DIGEST
    for perm in FLOAT_PERMUTATIONS:
        rho = diagonal([0.125 * (k + 1) for k in range(len(perm))])
        _clear_builder_caches()
        cold = _refusal(lambda: qerase.linalg.permute(rho, perm))
        qerase.linalg.permute(rho, tuple(map(int, perm)))  # the twin fills the cache
        warm = _refusal(lambda: qerase.linalg.permute(rho, perm))
        assert cold == warm == ("ValueError", f"not a permutation of 0..{len(perm) - 1}: {perm}")


def test_verification_battery():
    digest = hashlib.sha256(repr(run_verification(draws=200)).encode()).hexdigest()
    assert digest == VERIFY_DIGEST
