"""Dense complex matrices sized for few-qubit work, and basis permutations.

Everything here is plain Python on tuples of complex numbers: products,
Kronecker products, partial traces, and a cyclic Jacobi eigensolver for
Hermitian matrices. Dimensions never exceed 8x8 in this package, so no
external linear-algebra dependency is used.

A basis permutation is a tuple, its column -> row map: `perm[c]` is the row
of the 1 in column c. It is applied and composed without a dense product.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
EIGENSOLVER_INPUT_TOL = 1e-10
JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 60
UNITARITY_TOL = 1e-12


class ComplexMatrix:
    """Immutable square complex matrix."""

    __slots__ = ("_rows", "_dim")

    def __init__(self, rows: Iterable[Iterable[complex]]):
        entries = tuple(tuple(map(complex, row)) for row in rows)
        n = len(entries)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        for row in entries:
            if len(row) != n:
                raise ValueError(f"matrix is not square: {n} rows, row of length {len(row)}")
            if not all(map(cmath.isfinite, row)):
                raise ValueError("matrix entries must be finite")
        self._rows = entries
        self._dim = n

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[complex, ...], ...]) -> "ComplexMatrix":
        """Wrap n tuples of n complex values built from checked entries;
        a product or a sum of finite entries can still overflow."""
        if not all(map(cmath.isfinite, itertools.chain.from_iterable(rows))):
            raise ValueError("matrix entries must be finite")
        m = object.__new__(cls)
        m._rows = rows
        m._dim = len(rows)
        return m

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def rows(self) -> tuple[tuple[complex, ...], ...]:
        return self._rows

    def __getitem__(self, key: tuple[int, int]) -> complex:
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __add__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        _check_same_dim(self, other)
        return ComplexMatrix(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)
        )

    def __sub__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        _check_same_dim(self, other)
        return ComplexMatrix(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self._rows, other._rows)
        )

    def __mul__(self, scalar: complex) -> "ComplexMatrix":
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return ComplexMatrix(tuple(scalar * x for x in row) for row in self._rows)

    __rmul__ = __mul__

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"ComplexMatrix({[list(row) for row in self._rows]!r})"


def _check_same_dim(a: ComplexMatrix, b: ComplexMatrix) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")


def identity(dim: int) -> ComplexMatrix:
    return ComplexMatrix(
        [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    )


def diagonal(values: Sequence[complex]) -> ComplexMatrix:
    n = len(values)
    return ComplexMatrix(
        [[values[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    )


def _check_permutation(perm: Sequence[int], n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(perm)}")


def permutation_matrix(perm: Sequence[int]) -> ComplexMatrix:
    """Matrix sending basis column c to basis row perm[c]."""
    n = len(perm)
    _check_permutation(perm, n)
    rows = [[0.0] * n for _ in range(n)]
    for col, row in enumerate(perm):
        rows[row][col] = 1.0
    return ComplexMatrix(rows)


def permute(rho: ComplexMatrix, perm: Sequence[int]) -> ComplexMatrix:
    """P rho P^T for P = permutation_matrix(perm).

    Entry (i, j) moves to (perm[i], perm[j]): an exact relabeling, so no
    arithmetic touches the entries.
    """
    pick = _relabeling(tuple(perm), rho.dim)
    return ComplexMatrix._from_rows(tuple(map(pick, pick(rho.rows))))


@lru_cache(maxsize=64)
def _relabeling(perm: tuple[int, ...], n: int) -> Callable[[Sequence], tuple]:
    """Validate perm once; return a getter of a row's entries in new order
    (`tuple` for n = 1, where an itemgetter would return the bare entry)."""
    _check_permutation(perm, n)
    inverse = sorted(range(n), key=perm.__getitem__)  # row r comes from inverse[r]
    return operator.itemgetter(*inverse) if n > 1 else tuple


def compose_permutations(first: Sequence[int], *rest: Sequence[int]) -> tuple[int, ...]:
    """Column -> row map of the product of the permutations; `first` acts first."""
    product = tuple(first)
    for perm in rest:
        product = tuple(perm[row] for row in product)
    return product


def matmul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    _check_same_dim(a, b)
    n = a.dim
    ar, br = a.rows, b.rows
    out = []
    for i in range(n):
        row_a = ar[i]
        out.append(
            tuple(
                sum(row_a[k] * br[k][j] for k in range(n))
                for j in range(n)
            )
        )
    return ComplexMatrix(out)


def dagger(m: ComplexMatrix) -> ComplexMatrix:
    n = m.dim
    r = m.rows
    return ComplexMatrix(
        [tuple(r[j][i].conjugate() for j in range(n)) for i in range(n)]
    )


def trace(m: ComplexMatrix) -> complex:
    return sum(m.rows[i][i] for i in range(m.dim))


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product; the left factor is the most significant subsystem."""
    return ComplexMatrix._from_rows(tuple(
        tuple(x * y for x in row_a for y in row_b)
        for row_a in a.rows
        for row_b in b.rows
    ))


def frobenius_distance(a: ComplexMatrix, b: ComplexMatrix) -> float:
    _check_same_dim(a, b)
    total = 0.0
    for ra, rb in zip(a.rows, b.rows):
        for x, y in zip(ra, rb):
            total += abs(x - y) ** 2
    return math.sqrt(total)


def partial_trace(
    rho: ComplexMatrix, dims: Sequence[int], keep: Iterable[int]
) -> ComplexMatrix:
    """Trace out the subsystems not in `keep`.

    `dims` lists subsystem dimensions with the leftmost factor most
    significant in the flat index; the kept subsystems retain their
    relative order.
    """
    entries = [x for row in rho.rows for x in row].__getitem__
    return ComplexMatrix._from_rows(tuple(
        tuple(sum(map(entries, summed)) for summed in row)
        for row in _trace_plan(tuple(dims), tuple(keep), rho.dim)
    ))


@lru_cache(maxsize=64)
def _trace_plan(
    dims: tuple[int, ...], keep: tuple[int, ...], n: int
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Validate a partial trace of an n x n matrix once; return the row-major
    positions of the entries summed into each kept-block entry.

    Non-integral values are rejected, not truncated. An integral float such
    as 2.0 hashes like 2, so the two share a cached plan.
    """
    if any(int(d) != d for d in dims):
        raise ValueError("subsystem dimensions must be integers")
    dims = tuple(map(int, dims))
    if any(d <= 0 for d in dims):
        raise ValueError("subsystem dimensions must be positive")
    total = math.prod(dims)
    if total != n:
        raise ValueError(f"dimension mismatch: product of dims is {total}, matrix is {n}")
    if any(int(k) != k for k in keep):
        raise ValueError("keep indices must be integers")
    keep = tuple(sorted(set(map(int, keep))))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices out of range for {len(dims)} subsystems")
    labels = [  # (kept digits, traced digits) of each flat index
        (tuple(d for k, d in enumerate(digits) if k in keep),
         tuple(d for k, d in enumerate(digits) if k not in keep))
        for digits in itertools.product(*map(range, dims))
    ]
    blocks = sorted({kept for kept, _ in labels})
    return tuple(
        tuple(
            tuple(a * total + b
                  for a, (kept_a, traced_a) in enumerate(labels) if kept_a == row
                  for b, (kept_b, traced_b) in enumerate(labels)
                  if kept_b == col and traced_b == traced_a)
            for col in blocks)
        for row in blocks
    )


def hermiticity_defect(m: ComplexMatrix) -> float:
    """Largest |m[i,j] - conj(m[j,i])| over all entries."""
    n = m.dim
    r = m.rows
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            d = abs(r[i][j] - r[j][i].conjugate())
            if d > worst:
                worst = d
    return worst


def hermitian_eigenvalues(m: ComplexMatrix) -> tuple[float, ...]:
    """Ascending eigenvalues via cyclic Jacobi rotations with complex phases.

    A hermiticity defect above 1e-10 * max(1, ||m||_F) raises ValueError:
    rounding grows with the entries, so the input check scales as the sweeps
    do. Sweeps run until the off-diagonal Frobenius norm drops below
    1e-13 * max(1, ||m||_F); failure to converge in 60 sweeps raises
    ArithmeticError. A 2x2 input that one rotation settles takes a
    straight-line copy of the loop, with the same bits.
    """
    defect = hermiticity_defect(m)
    if defect > EIGENSOLVER_INPUT_TOL:  # the norm is taken only when needed
        tol = EIGENSOLVER_INPUT_TOL * max(1.0, math.hypot(*map(abs, itertools.chain(*m.rows))))
        if defect > tol:
            raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol:.3g}")
    spectrum = _jacobi_2x2(m.rows) if m.dim == 2 else None
    return spectrum if spectrum is not None else _jacobi_eigenvalues(m.rows)


def _jacobi_eigenvalues(rows: tuple[tuple[complex, ...], ...]) -> tuple[float, ...]:
    """The cyclic Jacobi loop of `hermitian_eigenvalues`, for any size."""
    n = len(rows)
    a = [list(row) for row in rows]
    # symmetrize so the iteration sees an exactly Hermitian matrix
    for i in range(n):
        a[i][i] = complex(a[i][i].real, 0.0)
        for j in range(i + 1, n):
            avg = 0.5 * (a[i][j] + a[j][i].conjugate())
            a[i][j] = avg
            a[j][i] = avg.conjugate()
    # rounding leaves an off-diagonal norm of order eps * ||A||_F
    off_tol = JACOBI_OFF_TOL * max(1.0, math.hypot(*(abs(x) for row in a for x in row)))
    skip_tol = off_tol / 64.0
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(
            sum(
                abs(a[i][j]) ** 2
                for i in range(n)
                for j in range(n)
                if i != j
            )
        )
        if off < off_tol:
            return tuple(sorted(a[i][i].real for i in range(n)))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                mag = abs(apq)
                if mag <= skip_tol:
                    continue
                phase = apq / mag
                tau = (a[q][q].real - a[p][p].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                pc = phase.conjugate()
                # columns p,q of A <- A U, then rows p,q of A <- U^dagger A
                for i in range(n):
                    aip, aiq = a[i][p], a[i][q]
                    a[i][p] = c * aip - s * pc * aiq
                    a[i][q] = s * aip + c * pc * aiq
                for j in range(n):
                    apj, aqj = a[p][j], a[q][j]
                    a[p][j] = c * apj - s * phase * aqj
                    a[q][j] = s * apj + c * phase * aqj
    raise ArithmeticError("Jacobi eigensolver did not converge in 60 sweeps")


def _jacobi_2x2(rows: tuple[tuple[complex, ...], ...]) -> tuple[float, float] | None:
    """`_jacobi_eigenvalues` on a 2x2, written out: the same operations in the
    same order, so the same bits. Returns None when one rotation leaves the
    off-diagonal norm above tolerance; the caller then runs the loop."""
    (a00, a01), (a10, a11) = rows
    a00 = complex(a00.real, 0.0)
    a01 = 0.5 * (a01 + a10.conjugate())
    a10 = a01.conjugate()
    a11 = complex(a11.real, 0.0)
    mag = abs(a01)  # |a10| is the same float
    off_tol = JACOBI_OFF_TOL * max(1.0, math.hypot(abs(a00), mag, mag, abs(a11)))
    sq = mag ** 2
    if math.sqrt(sq + sq) >= off_tol:
        # then mag = off / sqrt(2) exceeds the loop's skip_tol = off_tol / 64
        phase = a01 / mag
        tau = (a11.real - a00.real) / (2.0 * mag)
        t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = t * c
        pc = phase.conjugate()
        a00, a01 = c * a00 - s * pc * a01, s * a00 + c * pc * a01
        a10, a11 = c * a10 - s * pc * a11, s * a10 + c * pc * a11
        a00, a10 = c * a00 - s * phase * a10, s * a00 + c * phase * a10
        a01, a11 = c * a01 - s * phase * a11, s * a01 + c * phase * a11
        if not math.sqrt(abs(a01) ** 2 + abs(a10) ** 2) < off_tol:
            return None
    d0, d1 = a00.real, a11.real
    return (d1, d0) if d1 < d0 else (d0, d1)  # sorted(), ties kept in order


def _block_minimum(r: tuple[tuple[complex, ...], ...], block: Sequence[int]) -> float:
    """Smallest eigenvalue of the Hermitian block of rows r on the ascending
    indices `block`. A 1x1 block is its real diagonal entry, a 2x2 block is
    solved in closed form on the off-diagonal entry symmetrized as the Jacobi
    solver symmetrizes it, and only larger blocks run that solver."""
    if len(block) == 1:
        return r[block[0]][block[0]].real
    if len(block) == 2:
        i, j = block
        a, d = r[i][i].real, r[j][j].real
        off = 0.5 * (r[i][j] + r[j][i].conjugate())
        return 0.5 * (a + d) - math.hypot(0.5 * (a - d), abs(off))
    return hermitian_eigenvalues(
        ComplexMatrix(tuple(r[i][j] for j in block) for i in block)
    )[0]


def density_matrix(m: ComplexMatrix | Iterable[Iterable[complex]]) -> ComplexMatrix:
    """Validate m as a density matrix and return it.

    Checks hermiticity within 1e-12, unit trace within 1e-12, and
    eigenvalues above -1e-10. Indices i and j share a block when r[i][j] or
    r[j][i] is nonzero, so m is block diagonal up to a relabeling and its
    spectrum is the union of the blocks' spectra. One walk finds the blocks
    with the defect, and each block's smallest eigenvalue is then exact.
    """
    if not isinstance(m, ComplexMatrix):
        m = ComplexMatrix(m)
    r, n = m.rows, m.dim
    # one walk over the upper triangle and diagonal: the defect, and the
    # blocks; blocks[i] is the ascending index list that i's block shares
    defect = 0.0
    blocks = [[i] for i in range(n)]
    for i, row in enumerate(r):
        for j in range(i, n):
            x, y = row[j], r[j][i]
            if x or y:  # a pair of zeros adds nothing
                d = abs(x - y.conjugate())
                if d > defect:
                    defect = d
                if blocks[j] is not blocks[i]:  # the pair links two blocks
                    merged = sorted(blocks[i] + blocks[j])
                    for k in merged:
                        blocks[k] = merged
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    tr = trace(m)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr!r} differs from 1 by more than {TRACE_TOL:.0e}")
    lo = min(_block_minimum(r, b) for i, b in enumerate(blocks) if b[0] == i)  # each block once
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"matrix has eigenvalue {lo:.3e} below {EIGENVALUE_FLOOR:.0e}")
    return m


def is_unitary(m: ComplexMatrix) -> bool:
    product = matmul(dagger(m), m)
    return frobenius_distance(product, identity(m.dim)) <= UNITARITY_TOL
