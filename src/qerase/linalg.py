"""Dense complex matrices sized for few-qubit work, and basis permutations.

Plain Python on tuples of complex numbers: dimensions never exceed 8x8 in
this package, so no external linear-algebra dependency is used.

A matrix is one flat row-major tuple of its n * n entries, every one finite;
`rows` is a view derived from it. The package forms its matrices from flat
entries or diagonal values, each scanned for finiteness once. A basis
permutation is a tuple, its column -> row map: `perm[c]` is the row of the 1
in column c. It is applied and composed without a dense matrix.

Each plan is validated and cached once per shape; its kernel is compiled
from plain int positions on first use, by `_compile`, so importing the
module compiles nothing. The builders:
- `_relabeling`: the getter of the flat entries in a permutation's order;
- `_product_kernel`: the products of a Kronecker product with a diagonal
  right factor, scanned by `_kron` and by `_kron_products`, for
  `thermo._cross_check`, whose `_route_kernel` reads them;
- `_kron_plan`: `_kron`'s product kernel and the getter of its products in
  its entry order;
- `_trace_plan`: a partial trace, each entry the `_sum_chain` of its
  positions in `_trace_groups`;
- `_pattern_plan`: the density check and the solve of a nonzero pattern,
  looked up by `_plan`, written by `_check_source` (`thermo._route_kernel`
  uses it too) and judged by `_judged`.
"""

import cmath
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache, reduce

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
        entries; a product or a sum of finite entries can still overflow.
        Formed here, not through `_wrap`: one call fewer per matrix."""
        if not all(map(cmath.isfinite, flat)):
            raise ValueError("matrix entries must be finite")
        m = object.__new__(cls)
        m._flat = flat
        m._dim = n
        return m

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


def _check_permutation(perm: Sequence[int], n: int) -> None:
    """ValueError unless perm lists 0..n - 1, each an `operator.index`
    integer: 0.0 sorts and compares as 0, but is refused."""
    try:
        entries = sorted(map(operator.index, perm))
    except TypeError:
        entries = None
    if entries != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(perm)}")


def permute(rho: ComplexMatrix, perm: Sequence[int]) -> ComplexMatrix:
    """P rho P^T for the permutation matrix P whose column c has its 1 in
    row perm[c].

    Entry (i, j) moves to (perm[i], perm[j]): an exact relabeling, so no
    arithmetic touches the entries, and they were checked finite when rho
    was built. perm is checked on each call: the cache finds (1, 0)'s
    getter for (1.0, 0).
    """
    perm = tuple(perm)
    _check_permutation(perm, rho._dim)
    return ComplexMatrix._wrap(_relabeling(perm, rho._dim)(rho._flat), rho._dim)


@lru_cache(maxsize=64)
def _relabeling(perm: tuple[int, ...], n: int) -> Callable[[tuple], tuple]:
    """Validate perm once; return a getter of the n * n flat entries in
    their new order."""
    _check_permutation(perm, n)
    inverse = sorted(range(n), key=perm.__getitem__)  # row r comes from inverse[r]
    return _getter([r * n + c for r in inverse for c in inverse])


def compose_permutations(first: Sequence[int], *rest: Sequence[int]) -> tuple[int, ...]:
    """Column -> row map of the product of permutations of 0..len(first) - 1,
    each checked; `first` acts first."""
    product = tuple(first)
    for perm in (product, *rest):
        _check_permutation(perm, len(product))
    for perm in rest:
        product = tuple(perm[row] for row in product)
    return product


def trace(m: ComplexMatrix) -> complex:
    """The diagonal added left to right from int 0, as `_sum_chain` adds it."""
    return reduce(operator.add, m._flat[::m._dim + 1], 0)


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product; the left factor is the most significant subsystem.
    Each entry is one product, and ValueError is raised where one overflows.
    No plan is cached: the package's own products go through `_kron`."""
    flat = tuple(x * y for ra in a.rows for rb in b.rows for x in ra for y in rb)
    return ComplexMatrix._from_flat(flat, a._dim * b._dim)


def _kron(
    a: ComplexMatrix, values: Sequence[complex], perm: tuple[int, ...] | None = None
) -> ComplexMatrix:
    """`permute(kron(a, diagonal(values)), perm)`, or that `kron` for perm
    None, bit for bit for complex values: every state the package forms is a
    qubit (x) a diagonal reservoir or path mixture. It refuses as that
    reference does, in its order: where `_kron_plan` refuses the shape or
    perm, the products are scanned first (`_kron_products`), as `diagonal`
    scans the values before `permute` sees perm."""
    try:
        kernel, gather, n = _kron_plan(a._dim, len(values), perm)
    except (TypeError, ValueError):
        _kron_products(a, values)
        raise
    products = kernel(a._flat, values)
    if not all(map(cmath.isfinite, products)):
        raise ValueError("matrix entries must be finite")
    m = object.__new__(ComplexMatrix)
    m._flat, m._dim = gather(products), n
    return m


def _kron_products(a: ComplexMatrix, values: Sequence[complex]) -> tuple[complex, ...]:
    """`_product_kernel`'s products of a's entries and the n >= 1 values, as
    given, each scanned for finiteness: x * 0j is finite for finite x, and a
    value v that is not finite makes every a[p] * v non-finite (x * nan, x *
    inf and 0 * inf are), so they are refused exactly where `diagonal` or
    `kron` would be. `_kron` scans its products as this does."""
    if not values:
        raise ValueError("matrix must have at least one row")
    products = _product_kernel(a._dim, len(values))(a._flat, values)
    if not all(map(cmath.isfinite, products)):
        raise ValueError("matrix entries must be finite")
    return products


@lru_cache(maxsize=64)
def _kron_plan(
    na: int, nb: int, perm: tuple[int, ...] | None
) -> tuple[Callable[[tuple, Sequence], tuple], Callable[[tuple], tuple], int]:
    """The plan of `_kron` for an na x na left factor and nb >= 1 values:
    the shared `_product_kernel(na, nb)`, the getter of `kron(a,
    diagonal(values))`'s row-major entries from its products
    (`_kron_order`), relabeled as `permute` relabels them unless perm is
    None (`_relabeling`, which validates perm), and the dimension."""
    if not nb:
        raise ValueError("matrix must have at least one row")
    order = _kron_order(na, nb)
    gather = _getter(order if perm is None else _relabeling(perm, na * nb)(order))
    return _product_kernel(na, nb), gather, na * nb


def _getter(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """`operator.itemgetter(*positions)`, which gives a tuple for one position too."""
    get = operator.itemgetter(*positions)  # of one position, it returns the entry itself
    return get if len(positions) > 1 else lambda flat: (get(flat),)


def _compile(source: str, name: str) -> Callable:
    """The lambda `source`, evaluated in this module's namespace under the file
    name `<qerase {name}>`: a traceback names the builder and key that raised."""
    return eval(compile(source, f"<qerase {name}>", "eval"), globals())


@lru_cache(maxsize=8)
def _product_kernel(na: int, nb: int) -> Callable[[tuple, Sequence], tuple]:
    """The `_compile`d function of a's na * na flat entries a and the nb
    values v, `lambda a, v: (a[0] * v[0], ..., a[0] * 0j, ..., a[na^2 - 1] *
    0j)`, p major, each p's nb products followed by its product with 0j.
    Each entry of `kron(a, diagonal(values))` is a[p] * v_k or a[p] * 0j,
    `diagonal`'s zero, so these products form it bit for bit, each made
    once; `_kron_order` names each entry's. The source holds only plain int
    positions and the literal 0j, never the values."""
    products = "".join(f"a[{p}] * {f'v[{k}]' if k < nb else '0j'}, "
                       for p in range(na * na) for k in range(nb + 1))
    return _compile(f"lambda a, v: ({products})", f"products {na}x{na} by {nb}")


def _kron_order(na: int, nb: int) -> list[int]:
    """The index among `_product_kernel(na, nb)`'s products of each entry of
    `kron(a, diagonal(values))`, row-major: entry (ia nb + ib, ja nb + jb) is
    a[ia, ja] times v[ib] where ib == jb and times 0j, index nb, elsewhere."""
    return [(ia * na + ja) * (nb + 1) + (ib if ib == jb else nb)
            for ia in range(na) for ib in range(nb) for ja in range(na) for jb in range(nb)]


def partial_trace(
    rho: ComplexMatrix, dims: Sequence[int], keep: Iterable[int]
) -> ComplexMatrix:
    """Trace out the subsystems not in `keep`; the kept ones retain their
    relative order.

    `dims` lists subsystem dimensions with the leftmost factor most
    significant in the flat index. Each kept entry is its terms added in
    increasing flat index from int 0, with the bits of `trace`, by the kernel
    `_trace_plan` caches per (dims, keep, n). Raises ValueError before any
    sum where `_trace_groups` rejects dims or keep, and after, where a sum
    overflows the float range.
    """
    kernel, dim = _trace_plan(tuple(dims), tuple(keep), rho._dim)
    flat = kernel(rho._flat)
    if not all(map(cmath.isfinite, flat)):
        raise ValueError("matrix entries must be finite")
    m = object.__new__(ComplexMatrix)
    m._flat, m._dim = flat, dim
    return m


@lru_cache(maxsize=64)
def _trace_plan(
    dims: tuple[int, ...], keep: tuple[int, ...], n: int, corner: bool = False
) -> tuple[Callable[[tuple], tuple], int]:
    """Validate a partial trace of an n x n matrix once; return its kernel
    and the output dimension. The kernel maps the flat entries to the
    kept-block entries in row-major order, each the `_sum_chain` of its
    positions in `_trace_groups`. With `corner` it maps them to entry (0, 0)
    alone, a 1-tuple: the chain the full kernel sums first, with its bits,
    for a caller that reads only that entry. It is `_compile`d once here,
    `lambda f: (<chain>, ...,)`, from those positions, never from the values
    passed in."""
    groups, dim = _trace_groups(dims, keep, n)
    chains = "".join(_sum_chain([f"f[{p}]" for p in group]) + ","
                     for group in groups[:1 if corner else None])
    return _compile(f"lambda f: ({chains})",
                    f"trace {n}x{n} {dims} {keep}{' corner' if corner else ''}"), dim


def _trace_groups(
    dims: tuple[int, ...], keep: tuple[int, ...], n: int
) -> tuple[list[list[int]], int]:
    """The checked plan of a partial trace of an n x n matrix: for each
    kept-block entry in row-major order, the flat positions of its terms in
    increasing order, and the output dimension.

    Subsystem k's digit moves a flat index by stride[k] = prod(dims[k+1:]).
    The kept offsets u and the traced offsets t are the digit-times-stride
    sums over the kept and over the traced subsystems, their digits in
    lexicographic order, which is increasing offset; entry (u, v) sums the
    positions (u + t) n + (v + t) over the traced offsets. Non-finite and
    non-integral values are rejected (`_integers`), not truncated. An
    integral float such as 2.0 hashes like 2, so the two share a cached plan.
    """
    dims = _integers(dims, "subsystem dimensions")
    if any(d <= 0 for d in dims):
        raise ValueError("subsystem dimensions must be positive")
    total = math.prod(dims)
    if total != n:
        raise ValueError(f"dimension mismatch: product of dims is {total}, matrix is {n}")
    keep = tuple(sorted(set(_integers(keep, "keep indices"))))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices out of range for {len(dims)} subsystems")
    stride = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    kept, traced = (
        [sum(map(operator.mul, digits, [stride[k] for k in part]))
         for digits in itertools.product(*[range(dims[k]) for k in part])]
        for part in (keep, [k for k in range(len(dims)) if k not in keep]))
    return [[(u + t) * n + v + t for t in traced] for u in kept for v in kept], len(kept)


def _integers(values: tuple, what: str) -> tuple[int, ...]:
    """values as plain ints, or ValueError for a NaN or infinite one, then
    for a fractional one."""
    if any(v != v or v in (math.inf, -math.inf) for v in values):
        raise ValueError(f"{what} must be finite")
    if any(int(v) != v for v in values):
        raise ValueError(f"{what} must be integers")
    return tuple(map(int, values))


def _sum_chain(terms: Sequence[str]) -> str:
    """The source of `0 + f[p] + f[q] + ...` over the terms, such as `f[p]`,
    or `0j`, the complex sum of zeros, for no terms.

    The chain runs left to right from int 0, exactly as `trace` adds the
    diagonal and as `sum` adds complex values through Python 3.13, so it
    rounds as they do and turns a -0.0 part into +0.0 as they do. The
    positions are the plan's own ints, the only values in the source. A
    chain nests one level per term, so a group of more than 100 terms
    carries its running sum in `s` from one run of 100 to the next, within
    what the compiler can nest."""
    if not terms:
        return "0j"
    runs = ["".join(f" + {term}" for term in terms[i:i + 100]) for i in range(0, len(terms), 100)]
    return f"0{runs[0]}" if len(runs) == 1 else f"(s := 0{', s := s'.join(runs)})[-1]"


def _plan(m: ComplexMatrix) -> Callable[..., tuple]:
    """The check kernel cached for m's nonzero pattern (`_pattern_plan`)."""
    n = m._dim
    return _pattern_plan(tuple(itertools.compress(range(n * n), m._flat)), n)


@lru_cache(maxsize=64)
def _pattern_plan(nonzero: tuple[int, ...], n: int) -> Callable[..., tuple]:
    """The check kernel of the n x n pattern whose nonzero flat positions
    are `nonzero` (`_check_source`): `_compile`d here as `check(f,
    htol=HERMITICITY_TOL, ttol=TRACE_TOL)` on the flat entries f, its
    default tolerances bound when it is compiled."""
    source, _ = _check_source(nonzero, n, [f"f[{p}]" for p in range(n * n)])
    return _compile(f"lambda f, htol=HERMITICITY_TOL, ttol=TRACE_TOL: {source}",
                    f"pattern {n}x{n} {nonzero}")


def _check_source(
    nonzero: Sequence[int], n: int, f: Sequence[str]
) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """The source of the density check of the n x n pattern whose nonzero
    flat positions are `nonzero`, entry p read as f[p], its tolerances named
    `htol` and `ttol`, holding no value but the plan's own int positions;
    and its blocks, each once, in order of smallest index, merged over each
    pair i <= j with a nonzero member. Indices i and j share a block when
    m[i, j] or m[j, i] is nonzero, so m is block diagonal up to a relabeling
    and its spectrum is the union of the blocks' spectra.

    The check is `(defect, None, None)` if the defect is above htol, else
    `(defect, trace, None)` if |trace - 1| > ttol, else `(defect, trace,
    sorted(spectrum))`: the conditional expression solves only past both
    tests. The defect is `max((<term>, ..., 0.0))` over the pairs in order,
    `abs(f[p] - f[q].conjugate())` for a pair i < j and `abs(f[p].imag +
    f[p].imag)` for a diagonal pair: for a finite x, x - conj(x) is exactly
    complex(0.0, x.imag + x.imag), and every entry a check reads is finite.
    Each term is finite or inf, and `max` keeps the first of equal values, so
    it is the value a loop from 0.0 keeping each larger term gives; an `abs`
    that overflows raises at the same pair.

    The source is folded on the key: a position not in `nonzero` holds a
    zero, and no sum adds it. The trace is the `_sum_chain` of the diagonal
    positions in `nonzero`, `0j` where there are none, with the bits of
    `trace`: a chain from int 0 holds no -0.0 after its first term, so a
    zero of either sign added to it changes no bit. The solve still reads
    every diagonal entry, a zero's sign included, which its spectrum keeps.

    The spectrum lists the blocks' spectra in block order: a 1x1 block is its
    real diagonal entry, `f[k].real`; a 2x2 block is m -+ r, m = (a + d)/2 and
    r = hypot((a - d)/2, |b|) on its real diagonal a, d and its off-diagonal
    entry symmetrized as b = (m[i,j] + conj(m[j,i]))/2, each of its four
    entries read once into a walrus name; a block of 3 or more is
    `*_jacobi_eigenvalues(rows)`, the solver looked up when the kernel runs.
    Where a + d or a - d overflows, each diagonal is halved before the sum, so
    m and (a - d)/2 are finite; elsewhere the sum is halved, which keeps a
    subnormal's bits. |b| is `abs(0.5 * u + 0.5 * v * 1j)` on the sums u and
    v of b's parts, the `abs` of b, a zero's sign aside, while both sums are
    finite (`u - u == v - v`); else it is `math.hypot` of the sums of halved
    parts, which are finite, so the radius is inf only where |b| passes the
    float range, for which the `abs` of a complex with finite parts would
    raise. A diagonal entry the caller writes as the literal `0j`, a zero
    it proves, has its real part written as 0.0, the real part of 0j.

    The one 2x2 layout rule: an open pair that is zero on a call solves as
    the diagonal, `sorted(((m - r, m + r) if f[1] or f[2] else (f[0].real,
    f[3].real)))`, as m -+ r can round a diagonal. So a 2x2 source gives the
    exact pattern's bits on every 2x2 whose zeros cover its key's complement:
    a zero pair adds a defect term of 0.0, which raises nothing and raises
    no `max`. A larger source does not pick: its key decides its pairs."""
    pairs = sorted({(min(i, j), max(i, j)) for i, j in (divmod(p, n) for p in nonzero)})
    blocks = [[i] for i in range(n)]  # blocks[i]: the ascending list i's block shares
    for i, j in pairs:
        if blocks[j] is not blocks[i]:  # the pair links two blocks
            merged = sorted(blocks[i] + blocks[j])
            for k in merged:
                blocks[k] = merged
    blocks = tuple(tuple(b) for i, b in enumerate(blocks) if b[0] == i)

    def real(p):
        return "0.0" if f[p] == "0j" else f"{f[p]}.real"

    def solved(block):
        if len(block) == 1:
            return real(block[0] * (n + 1))
        if len(block) == 2:
            i, j = block
            a, d = f"(a := {real(i * (n + 1))})", f"(d := {real(j * (n + 1))})"
            x, y = f"(x := {f[i * n + j]})", f"(y := {f[j * n + i]})"
            norm = (f"(abs(0.5 * u + 0.5 * v * 1j) if (u := {x}.real + {y}.real) - u"
                    f" == (v := x.imag - y.imag) - v else"
                    f" math.hypot(0.5 * x.real + 0.5 * y.real, 0.5 * x.imag - 0.5 * y.imag))")
            return (f"(m := 0.5 * p if (w := (p := {a} + {d}) - p == (k := a - d) - k)"
                    f" else 0.5 * a + 0.5 * d) - (r := math.hypot(0.5 * k if w else"
                    f" 0.5 * a - 0.5 * d, {norm})), m + r")
        rows = "".join("(" + "".join(f"{f[i * n + j]}, " for j in block) + "), " for i in block)
        return f"*_jacobi_eigenvalues(({rows}))"

    defects = "".join(f"abs({f[i * n + i]}.imag + {f[i * n + i]}.imag), " if i == j else
                      f"abs({f[i * n + j]} - {f[j * n + i]}.conjugate()), " for i, j in pairs)
    live = set(nonzero)
    diagonal = [f[p] for p in range(0, n * n, n + 1) if p in live]
    spectrum = "".join(solved(b) + ", " for b in blocks)
    if n == 2 and len(blocks) == 1:  # the pair is open: a zero pair solves as the diagonal
        spectrum = f"({spectrum}) if {f[1]} or {f[2]} else ({real(0)}, {real(3)})"
    return (f"(defect, None, None) if (defect := max(({defects}0.0,))) > htol"
            f" else (defect, tr, None)"
            f" if abs((tr := {_sum_chain(diagonal)}) - 1.0) > ttol"
            f" else (defect, tr, sorted(({spectrum})))"), blocks


def hermitian_eigenvalues(m: ComplexMatrix) -> tuple[float, ...]:
    """Ascending eigenvalues of m, each block of its nonzero pattern solved
    on its own, so a diagonal entry comes back exact: the solve of m's check
    kernel (`_plan`), run with ttol = inf, no trace test, as `density_matrix`
    runs it with its tolerances.

    Raises ValueError, before any solve, for a hermiticity defect above
    1e-10 * max(1, ||m||_F): rounding grows with the entries, so the input
    check scales as the sweeps do; only a defect above 1e-10 takes the norm
    and runs the kernel again. Raises ArithmeticError where a Jacobi block
    does not converge (`_jacobi_eigenvalues`), and OverflowError where the
    solve overflows the float range, or the modulus of the kernel's trace
    does, which the input check lets through only at ||m||_F = inf.
    """
    check, flat = _plan(m), m._flat
    defect, _, spectrum = check(flat, EIGENSOLVER_INPUT_TOL, math.inf)
    if spectrum is None:  # the norm is taken only when needed
        tol = EIGENSOLVER_INPUT_TOL * max(1.0, math.hypot(*map(abs, flat)))
        defect, _, spectrum = check(flat, tol, math.inf)
        if spectrum is None:
            raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol:.3g}")
    if math.isinf(spectrum[0]) or math.isinf(spectrum[-1]):  # sorted: any inf is at an end
        raise OverflowError("eigenvalue solve overflowed the float range")
    return tuple(spectrum)


def _jacobi_eigenvalues(rows: tuple[tuple[complex, ...], ...]) -> tuple[float, ...]:
    """Ascending eigenvalues by cyclic Jacobi rotations with complex phases:
    the solve of a block of 3 or more in `_pattern_plan`'s check kernel. The
    sweeps stop once the off-diagonal Frobenius norm drops below 1e-13 *
    max(1, ||block||_F), and raise ArithmeticError after JACOBI_MAX_SWEEPS.

    A block whose largest real or imaginary part reaches 2**500 is solved
    times 2**-e, e the exponent `math.frexp` gives that part, so no part
    reaches 1 and no sum, square or rotation overflows; its eigenvalues
    are scaled back by 2**(e - 1) * 2, which gives inf where one overflows,
    where `math.ldexp` would raise. A power of two scales exactly, bar the
    parts it takes below the normal range, 2**-1022 of the largest or less;
    a smaller block is solved as it is."""
    n = len(rows)
    e = math.frexp(max(abs(p) for row in rows for x in row for p in (x.real, x.imag)))[1]
    if e > 500:
        a = [[complex(x.real * 2.0 ** -e, x.imag * 2.0 ** -e) for x in row] for row in rows]
    else:
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
            spectrum = sorted(a[i][i].real for i in range(n))
            if e > 500:
                spectrum = [lam * 2.0 ** (e - 1) * 2.0 for lam in spectrum]
            return tuple(spectrum)
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
    ascending spectrum, from one call of the check kernel of m's plan."""
    if not isinstance(m, ComplexMatrix):
        m = ComplexMatrix(m)
    return m, _judged(*_plan(m)(m._flat))


def _judged(defect: float, tr: complex | None, spectrum: list[float] | None) -> list[float]:
    """The spectrum of a check's `(defect, trace, spectrum)` at
    `density_matrix`'s tolerances, or the ValueError of its first failed
    test: hermiticity, trace, then the eigenvalue floor."""
    if tr is None:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    if spectrum is None:
        raise ValueError(f"trace {tr!r} differs from 1 by more than {TRACE_TOL:.0e}")
    if spectrum[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"matrix has eigenvalue {spectrum[0]:.3e} below {EIGENVALUE_FLOOR:.0e}")
    return spectrum


def density_matrix(m: ComplexMatrix | Iterable[Iterable[complex]]) -> ComplexMatrix:
    """Validate m as a density matrix and return it as a ComplexMatrix.

    Rows that do not form a ComplexMatrix raise its ValueError. Then each
    test raises ValueError, in this order: a hermiticity defect above 1e-12,
    "matrix is not Hermitian: ..."; a trace, with the bits of `trace`,
    further than 1e-12 from 1, "trace ... differs from 1 ..."; an eigenvalue
    below -1e-10, "matrix has eigenvalue ...". The three are one call of m's
    check kernel (`_plan`), which solves, as `hermitian_eigenvalues` does,
    only past the first two.
    """
    return _density_spectrum(m)[0]
