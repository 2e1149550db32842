import random
from contextlib import contextmanager
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

import qerase.channel
from qerase.linalg import ComplexMatrix
from qerase.verify import random_bloch  # noqa: F401  (shared by the test modules)

# One line per acceptance criterion, replayed in the terminal summary so the
# verdicts survive pytest's output capture.
_ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter) -> None:
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def wrong_channel(monkeypatch):
    """Install a wrong erasure map in `qerase.channel` together with the same
    map as `apply_channel`'s CNOT reference, so the map passes the per-call
    check and reaches the states and the checks that come after it."""

    def install(perm: tuple[int, ...]) -> None:
        monkeypatch.setattr(qerase.channel, "ERASURE_PERMUTATION", perm)
        monkeypatch.setattr(qerase.channel, "_CNOT_PERMUTATION", perm)

    return install


@pytest.fixture
def criterion():
    """Context manager that records and prints one PASS/FAIL line."""

    @contextmanager
    def _criterion(number: int, description: str):
        try:
            yield
        except BaseException:
            line = f"ACCEPTANCE {number:02d} FAIL - {description}"
            _ACCEPTANCE_LINES.append(line)
            print(line)
            raise
        line = f"ACCEPTANCE {number:02d} PASS - {description}"
        _ACCEPTANCE_LINES.append(line)
        print(line)

    return _criterion


def to_numpy(m: ComplexMatrix) -> np.ndarray:
    return np.array([[complex(x) for x in row] for row in m.rows], dtype=complex)


def numpy_permutation(perm) -> np.ndarray:
    """Dense matrix of a column -> row tuple, column c's single 1 in row
    perm[c], built by numpy without `qerase.linalg.permutation_matrix`."""
    n = len(perm)
    p = np.zeros((n, n))
    p[list(perm), range(n)] = 1.0
    return p


def assert_matrix_close(m: ComplexMatrix, expected, atol: float = 1e-12) -> None:
    got = to_numpy(m)
    want = expected if isinstance(expected, np.ndarray) else to_numpy(expected)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


def entry_bits(m: ComplexMatrix) -> list[tuple[str, str]]:
    """Every entry as the hex of its parts, so -0.0 and 0.0 differ."""
    return [(x.real.hex(), x.imag.hex()) for row in m.rows for x in row]


def raised(call):
    """call()'s result, or the type name and message of what it raised."""
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def decimal_qubit_spectrum(m: ComplexMatrix) -> tuple[Decimal, Decimal]:
    """Both eigenvalues of a 2x2 matrix's Hermitian part, (a+d)/2 -/+
    sqrt(((a-d)/2)^2 + |b|^2) with b = (m01 + conj(m10))/2, in 50-digit
    decimal arithmetic: exact to far below a double's ulp."""
    (a, b), (c, d) = m.rows
    with localcontext(Context(prec=50)):
        a, d = Decimal(a.real), Decimal(d.real)
        re = (Decimal(b.real) + Decimal(c.real)) / 2
        im = (Decimal(b.imag) - Decimal(c.imag)) / 2
        radius = (((a - d) / 2) ** 2 + re**2 + im**2).sqrt()
        return (a + d) / 2 - radius, (a + d) / 2 + radius


def random_matrix(rng: random.Random, n: int) -> ComplexMatrix:
    """Complex entries of which about a third are zeros of either sign."""
    def part():
        return rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.gauss(0.0, 1.0)

    return ComplexMatrix([[complex(part(), part()) for _ in range(n)] for _ in range(n)])


def random_density(rng: random.Random, dim: int) -> ComplexMatrix:
    """Random full-rank density matrix, built as normalized A A-dagger."""
    a = np.array(
        [
            [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
            for _ in range(dim)
        ]
    )
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return ComplexMatrix(rho.tolist())


def random_hermitian(rng: random.Random, dim: int) -> ComplexMatrix:
    a = np.array(
        [
            [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
            for _ in range(dim)
        ]
    )
    h = (a + a.conj().T) / 2.0
    return ComplexMatrix(h.tolist())
