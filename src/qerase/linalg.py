"""Dense complex matrices sized for few-qubit work, and basis permutations.

Everything here is plain Python on tuples of complex numbers: Kronecker
products, partial traces, density-matrix validation and a Hermitian
eigensolver that solves each block of the nonzero pattern alone, in one
loop: in closed form up to 2x2, by cyclic Jacobi above. Dimensions never
exceed 8x8 in this package, so no external linear-algebra dependency is used.

A matrix is one flat row-major tuple of its n * n entries; `rows` is a view
derived from it. The package forms its matrices from flat entries or diagonal
values, each scanned for finiteness once. Permutations, Kronecker orders and
partial traces are plans over the flat tuple, each validated and cached once
per shape; a Kronecker order may carry a relabeling. A partial trace plan is
one function compiled from its plain int positions, `lambda f: (0 + f[p] +
f[q] + ..., ...)`: adding left to right from int 0 is what `sum` does, so
each entry has `sum`'s bits, a -0.0 part turned into +0.0 included, without
a call per entry. Every state here is a qubit (x) a diagonal reservoir,
formed from the diagonal's n values, one product per distinct entry; the
density check reads a plan cached per nonzero pattern, or, on a 2x2, the
same pairs and blocks off its four entries.

A basis permutation is a tuple, its column -> row map: `perm[c]` is the row
of the 1 in column c. It is applied and composed without a dense matrix.
"""

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


class ComplexMatrix:
    """Immutable square complex matrix, stored as one row-major tuple."""

    __slots__ = ("_flat", "_dim")

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
        self._flat = tuple(itertools.chain.from_iterable(entries))
        self._dim = n

    @classmethod
    def _from_flat(cls, flat: tuple[complex, ...], n: int) -> "ComplexMatrix":
        """Wrap n * n complex values in row-major order, built from checked
        entries; a product or a sum of finite entries can still overflow."""
        if not all(map(cmath.isfinite, flat)):
            raise ValueError("matrix entries must be finite")
        return cls._wrap(flat, n)

    @classmethod
    def _wrap(cls, flat: tuple[complex, ...], n: int) -> "ComplexMatrix":
        """Wrap n * n complex values in row-major order that are already
        known finite: the entries of a checked matrix, only moved."""
        m = object.__new__(cls)
        m._flat = flat
        m._dim = n
        return m

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def rows(self) -> tuple[tuple[complex, ...], ...]:
        return tuple(zip(*[iter(self._flat)] * self._dim))

    def __getitem__(self, key: tuple[int, int]) -> complex:
        i, j = key
        index = range(self._dim)  # bounds and negative indices as on rows
        return self._flat[index[i] * self._dim + index[j]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self._flat == other._flat  # n * n entries fix n

    def __hash__(self) -> int:
        return hash(self._flat)

    def __repr__(self) -> str:
        return f"ComplexMatrix({[list(row) for row in self.rows]!r})"

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor, as a
        # Record does; every protocol from 0 takes this route
        return type(self), (self.rows,)


def diagonal(values: Sequence[complex]) -> ComplexMatrix:
    """The n x n matrix with the n >= 1 values, as complex, on its diagonal.
    One scan of the values checks every entry: the rest are 0j."""
    entries = list(map(complex, values))
    n = len(entries)
    if not n:
        raise ValueError("matrix must have at least one row")
    if not all(map(cmath.isfinite, entries)):
        raise ValueError("matrix entries must be finite")
    flat = [0j] * (n * n)
    flat[::n + 1] = entries
    return ComplexMatrix._wrap(tuple(flat), n)


def _getter(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """`operator.itemgetter` of the positions, returning a tuple for none or
    one position too, from a tuple or a list."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    if not positions:
        return lambda flat: ()
    p = positions[0]
    return lambda flat: (flat[p],)


def _check_permutation(perm: Sequence[int], n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(perm)}")


def permute(rho: ComplexMatrix, perm: Sequence[int]) -> ComplexMatrix:
    """P rho P^T for the permutation matrix P whose column c has its 1 in
    row perm[c].

    Entry (i, j) moves to (perm[i], perm[j]): an exact relabeling, so no
    arithmetic touches the entries, and they were checked finite when rho
    was built.
    """
    return ComplexMatrix._wrap(_relabeling(tuple(perm), rho._dim)(rho._flat), rho._dim)


@lru_cache(maxsize=64)
def _relabeling(perm: tuple[int, ...], n: int) -> Callable[[tuple], tuple]:
    """Validate perm once; return a getter of the n * n flat entries in
    their new order."""
    _check_permutation(perm, n)
    inverse = sorted(range(n), key=perm.__getitem__)  # row r comes from inverse[r]
    return _getter([r * n + c for r in inverse for c in inverse])


def compose_permutations(first: Sequence[int], *rest: Sequence[int]) -> tuple[int, ...]:
    """Column -> row map of the product of the permutations; `first` acts first."""
    product = tuple(first)
    for perm in rest:
        product = tuple(perm[row] for row in product)
    return product


def trace(m: ComplexMatrix) -> complex:
    return sum(m._flat[::m._dim + 1])


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product; the left factor is the most significant subsystem."""
    products = tuple(itertools.starmap(operator.mul, itertools.product(a._flat, b._flat)))
    return ComplexMatrix._from_flat(_kron_order(a._dim, b._dim, False, None)(products),
                                    a._dim * b._dim)


def _kron(
    a: ComplexMatrix, values: Sequence[complex], perm: tuple[int, ...] | None = None
) -> ComplexMatrix:
    """`permute(kron(a, diagonal(values)), perm)`, or that `kron` for perm
    None, bit for bit from na^2 (nb + 1) products: each of its entries is
    a[p] * complex(v_k) or a[p] * 0j, `diagonal`'s zero, so the table holds
    each a[p] times each value and one 0j, and one cached plan gathers it.
    One scan of the table checks values and products alike: x * 0j is finite
    for finite x, and a value v that is not finite makes every a[p] * v
    non-finite (x * nan, x * inf and 0 * inf are), so the table is rejected
    exactly when `diagonal` or the whole product would be."""
    factors = [*map(complex, values), 0j]
    nb = len(factors) - 1
    if not nb:
        raise ValueError("matrix must have at least one row")
    table = [x * f for x in a._flat for f in factors]
    if not all(map(cmath.isfinite, table)):
        raise ValueError("matrix entries must be finite")
    return ComplexMatrix._wrap(_kron_order(a._dim, nb, True, perm)(table), a._dim * nb)


@lru_cache(maxsize=64)
def _kron_order(
    na: int, nb: int, diag: bool, perm: tuple[int, ...] | None
) -> Callable[[Sequence], tuple]:
    """Getter putting a product table in row-major order: entry
    (ia nb + ib, ja nb + jb) is a[ia, ja] * b[ib, jb]. The table lists, p
    major, a[p] times b's nb * nb entries, or, for a diagonal b (diag), times
    its nb values and then 0j. Unless perm is None, the order `permute` gives is
    composed into the same gather."""
    if diag:  # b's values, then 0j
        width, column = nb + 1, lambda ib, jb: ib if ib == jb else nb
    else:  # b's entries
        width, column = nb * nb, lambda ib, jb: ib * nb + jb
    order = tuple((ia * na + ja) * width + column(ib, jb)
                  for ia in range(na) for ib in range(nb)
                  for ja in range(na) for jb in range(nb))
    if perm is not None:
        order = _relabeling(perm, na * nb)(order)  # validates perm
    return _getter(order)


def partial_trace(
    rho: ComplexMatrix, dims: Sequence[int], keep: Iterable[int]
) -> ComplexMatrix:
    """Trace out the subsystems not in `keep`.

    `dims` lists subsystem dimensions with the leftmost factor most
    significant in the flat index; the kept subsystems retain their
    relative order. One cached kernel sums each kept entry's terms in
    increasing flat index, as `sum` does; the entries are then scanned for
    finiteness, since a sum of finite entries can overflow.
    """
    kernel, dim = _trace_plan(tuple(dims), tuple(keep), rho._dim)
    return ComplexMatrix._from_flat(kernel(rho._flat), dim)


@lru_cache(maxsize=64)
def _trace_plan(
    dims: tuple[int, ...], keep: tuple[int, ...], n: int, corner: bool = False
) -> tuple[Callable[[tuple], tuple], int]:
    """Validate a partial trace of an n x n matrix once; return its kernel
    and the output dimension. The kernel maps the flat entries to the
    kept-block entries in row-major order, each the sum of its terms by the
    traced digits in lexicographic order, which is increasing flat index;
    with `corner`, to entry (0, 0) alone, a 1-tuple. `_sum_kernel` compiles
    it once here, from positions computed off n and the enumeration order,
    never from the values passed in.

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
    index = {label: i for i, label in enumerate(labels)}
    blocks = sorted({kept for kept, _ in labels})
    rests = sorted({traced for _, traced in labels})
    entries = [(u, v) for u in blocks for v in blocks][:1 if corner else None]
    return _sum_kernel([[index[u, t] * n + index[v, t] for t in rests]
                        for u, v in entries]), len(blocks)


def _sum_kernel(groups: Sequence[Sequence[int]]) -> Callable[[Sequence], tuple]:
    """One compiled function of a flat tuple f: the tuple of
    `0 + f[p] + f[q] + ...` over each group of plain int positions.

    The chain runs left to right from int 0, exactly as `sum` adds complex
    values (through Python 3.13), so it rounds as `sum` does and turns a
    -0.0 part into +0.0 as `sum` does. The positions are the plan's own
    ints, the only values in the source. A chain nests one level per term,
    so a group of more than 100 terms carries its running sum in `s` from
    one run of 100 to the next, within what the compiler can nest."""
    def chain(group):
        runs = ["".join(f" + f[{p}]" for p in group[i:i + 100])
                for i in range(0, len(group), 100)]
        return f"0{runs[0]}" if len(runs) == 1 else f"(s := 0{', s := s'.join(runs)})[-1]"

    return eval(f"lambda f: ({''.join(chain(group) + ',' for group in groups)})")


def _walk(m: ComplexMatrix) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """The largest |m[i,j] - conj(m[j,i])| over the unordered pairs with a
    nonzero member (a pair of zeros adds nothing), and the blocks of the
    nonzero pattern, each once, in order of smallest index. Indices i and j
    share a block when m[i, j] or m[j, i] is nonzero, so m is block diagonal
    up to a relabeling and its spectrum is the union of the blocks' spectra.

    Both come from a plan cached per nonzero pattern: the pairs and the
    blocks depend only on where the nonzero entries sit. A 2x2 has only two
    block layouts, so its pairs and blocks are read off its four entries,
    as that plan lists them, with no pattern key or cache lookup."""
    flat, n = m._flat, m._dim
    if n == 2:
        a, b, c, d = flat
        defect = abs(a - a.conjugate()) if a else 0.0
        if b or c:
            x = abs(b - c.conjugate())
            if x > defect:
                defect = x
        if d:
            x = abs(d - d.conjugate())
            if x > defect:
                defect = x
        return defect, ((0, 1),) if b or c else ((0,), (1,))
    upper, lower, blocks = _pattern_plan(tuple(itertools.compress(range(n * n), flat)), n)
    defect = 0.0
    for x, y in zip(upper(flat), lower(flat)):
        d = abs(x - y.conjugate())
        if d > defect:
            defect = d
    return defect, blocks


@lru_cache(maxsize=64)
def _pattern_plan(
    nonzero: tuple[int, ...], n: int
) -> tuple[Callable[[tuple], tuple], Callable[[tuple], tuple], tuple[tuple[int, ...], ...]]:
    """For the n x n pattern whose nonzero flat positions are `nonzero`:
    getters of m[i,j] and of m[j,i] over each pair i <= j with a nonzero
    member, and the blocks of the pattern, merged once here."""
    pairs = sorted({(min(i, j), max(i, j)) for i, j in (divmod(p, n) for p in nonzero)})
    blocks = [[i] for i in range(n)]  # blocks[i]: the ascending list i's block shares
    for i, j in pairs:
        if blocks[j] is not blocks[i]:  # the pair links two blocks
            merged = sorted(blocks[i] + blocks[j])
            for k in merged:
                blocks[k] = merged
    return (
        _getter([i * n + j for i, j in pairs]),
        _getter([j * n + i for i, j in pairs]),
        tuple(tuple(b) for i, b in enumerate(blocks) if b[0] == i),
    )


def _spectrum(m: ComplexMatrix, blocks: Iterable[Sequence[int]]) -> list[float]:
    """The union of the blocks' spectra, each block solved once, ascending.

    The blocks are solved in order: a 1x1 block is its real diagonal entry;
    a 2x2 block is (a + d)/2 -/+ hypot((a - d)/2, |b|) in closed form, on
    its real diagonal a, d and its off-diagonal entry symmetrized as
    b = (m[i,j] + conj(m[j,i]))/2; a block of 3 or more runs the Jacobi
    loop."""
    flat, n = m._flat, m._dim
    spectrum = []
    for block in blocks:
        if len(block) == 1:
            spectrum.append(flat[block[0] * (n + 1)].real)
        elif len(block) == 2:
            i, j = block
            a, d = flat[i * (n + 1)].real, flat[j * (n + 1)].real
            off = 0.5 * (flat[i * n + j] + flat[j * n + i].conjugate())
            mean, radius = 0.5 * (a + d), math.hypot(0.5 * (a - d), abs(off))
            spectrum += (mean - radius, mean + radius)
        else:
            rows = tuple(tuple(flat[i * n + j] for j in block) for i in block)
            spectrum += _jacobi_eigenvalues(rows)
    spectrum.sort()
    return spectrum


def hermitian_eigenvalues(m: ComplexMatrix) -> tuple[float, ...]:
    """Ascending eigenvalues, each block of the nonzero pattern solved on its
    own in `_spectrum`, as `density_matrix` solves it, so a diagonal entry
    comes back exact.

    A hermiticity defect above 1e-10 * max(1, ||m||_F) raises ValueError:
    rounding grows with the entries, so the input check scales as the sweeps
    do. A block of 3 or more runs cyclic Jacobi rotations with complex
    phases until its off-diagonal Frobenius norm drops below
    1e-13 * max(1, ||block||_F); failure to converge in JACOBI_MAX_SWEEPS
    sweeps raises ArithmeticError. A solve that overflows the float range
    raises OverflowError; entries near 1e308 can do so.
    """
    defect, blocks = _walk(m)
    if defect > EIGENSOLVER_INPUT_TOL:  # the norm is taken only when needed
        tol = EIGENSOLVER_INPUT_TOL * max(1.0, math.hypot(*map(abs, m._flat)))
        if defect > tol:
            raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol:.3g}")
    spectrum = _spectrum(m, blocks)
    if math.isinf(spectrum[0]) or math.isinf(spectrum[-1]):  # sorted: any inf is at an end
        raise OverflowError("eigenvalue solve overflowed the float range")
    return tuple(spectrum)


def _jacobi_eigenvalues(rows: tuple[tuple[complex, ...], ...]) -> tuple[float, ...]:
    """Ascending eigenvalues by cyclic Jacobi rotations with complex phases:
    the solve of a block of 3 or more in `_spectrum`."""
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
    raise ArithmeticError(f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def _density_spectrum(
    m: ComplexMatrix | Iterable[Iterable[complex]],
) -> tuple[ComplexMatrix, list[float]]:
    """The checks of `density_matrix`: return m, as a ComplexMatrix, and its
    ascending spectrum, each block of the nonzero pattern solved once."""
    if not isinstance(m, ComplexMatrix):
        m = ComplexMatrix(m)
    defect, blocks = _walk(m)
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    tr = trace(m)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr!r} differs from 1 by more than {TRACE_TOL:.0e}")
    spectrum = _spectrum(m, blocks)
    if spectrum[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"matrix has eigenvalue {spectrum[0]:.3e} below {EIGENVALUE_FLOOR:.0e}")
    return m, spectrum


def density_matrix(m: ComplexMatrix | Iterable[Iterable[complex]]) -> ComplexMatrix:
    """Validate m as a density matrix and return it.

    Checks hermiticity within 1e-12, unit trace within 1e-12, and
    eigenvalues above -1e-10, in that order. The plan cached for m's
    nonzero pattern gives the defect, over the pairs with a nonzero member,
    and the blocks of the pattern; each block is then solved once, as
    `hermitian_eigenvalues` solves it, and the smallest eigenvalue is the
    floor test's. `von_neumann_entropy` runs the same pass and keeps the
    spectrum.
    """
    return _density_spectrum(m)[0]

