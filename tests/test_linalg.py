import builtins
import itertools
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qerase
import qerase.linalg
import qerase.states
from conftest import (
    assert_matrix_close,
    entry_bits,
    numpy_permutation,
    raised,
    random_bloch,
    random_density,
    random_hermitian,
    random_matrix,
    to_numpy,
)
from qerase.linalg import (
    EIGENVALUE_FLOOR,
    ComplexMatrix,
    _jacobi_eigenvalues,
    _kron,
    _trace_plan,
    _walk,
    compose_permutations,
    density_matrix,
    diagonal,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    permute,
    trace,
)
from qerase.optics import DEFAULT_CIRCUIT_PERMUTATION
from qerase.states import BlochVector, ThermalSpec, qubit_from_bloch
from qerase.thermo import von_neumann_entropy


class TestComplexMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ComplexMatrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ComplexMatrix([])
        with pytest.raises(ValueError, match="at least one row"):
            diagonal([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ComplexMatrix([[math.nan, 0], [0, 1]])
        with pytest.raises(ValueError, match="finite"):
            ComplexMatrix([[1, complex(0, math.inf)], [0, 1]])
        with pytest.raises(ValueError, match="finite"):
            ComplexMatrix([[1, 0], [complex(-math.inf, 0), 1]])
        with pytest.raises(ValueError, match="finite"):
            ComplexMatrix([[1, 0], [0, complex(1, math.nan)]])

    def test_entries_are_immutable_tuples(self):
        m = ComplexMatrix([[1, 2], [3, 4]])
        assert isinstance(m.rows, tuple)
        assert m[0, 1] == 2 + 0j
        assert m.dim == 2

    def test_equality_and_hash(self):
        a = ComplexMatrix([[1, 0], [0, 1]])
        b = diagonal([1.0, 1.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != diagonal([0, 0])
        assert (a == "x") is False


class TestInternalConstructor:
    """kron, permute and partial_trace skip the public constructor's
    conversion; their results must still be what it would build."""

    def test_results_match_public_construction(self):
        rng = random.Random(31)
        results = [permute(ComplexMatrix([[1.0]]), (0,))]
        for dim in (2, 4, 8):
            rho = random_density(rng, dim)
            perm = list(range(dim))
            rng.shuffle(perm)
            results.append(permute(rho, perm))
        for na, nb in ((1, 2), (2, 4), (4, 2)):
            results.append(kron(random_density(rng, na), random_hermitian(rng, nb)))
        rho = random_density(rng, 8)
        for dims, keep in (((2, 4), {0}), ((2, 4), {1}), ((2, 2, 2), {0, 2}), ((8,), {0})):
            results.append(partial_trace(rho, dims, keep))
        for m in results:
            rebuilt = ComplexMatrix(m.rows)
            assert m == rebuilt and hash(m) == hash(rebuilt)
            assert type(m.rows) is tuple and m.dim == len(m.rows)
            for row in m.rows:
                assert type(row) is tuple and len(row) == m.dim
                assert all(type(x) is complex for x in row)


    def test_the_package_builds_no_matrix_from_rows(self, monkeypatch, capsys):
        """Every matrix qerase forms for itself comes from flat entries or
        diagonal values: analyze in natural and SI units with a cold and a
        warm reservoir cache, the propagate calls, the preselection and the
        closed-form final state, verify and two CLI runs never parse rows."""
        from qerase.cli import main
        from qerase.verify import run_verification

        built = []
        original = ComplexMatrix.__init__

        def counted(self, rows):
            built.append(rows)
            original(self, rows)

        b = BlochVector(0.3, -0.2, 0.4)
        specs = [ThermalSpec.from_beta(0.7),
                 ThermalSpec.from_temperature(300.0, delta=1.986e-22, k_B=1.380649e-23)]
        qerase.states._reservoir_diagonal.cache_clear()
        monkeypatch.setattr(ComplexMatrix, "__init__", counted)
        for spec in specs + specs:  # cold, then warm
            qerase.analyze(b, spec)
        for spec in specs:
            final = qerase.apply_channel(qerase.composite_initial(b, spec))
            qerase.memory_ground_fidelity(final)
            qerase.reservoir_marginal(final)
            qerase.reservoir_final_closed_form(b, spec)
            dist = qerase.PathDistribution.from_beta(spec.beta * spec.delta)
            photon = qerase.simulate(b, dist)
            qerase.path_marginal(photon)
            qerase.polarization_marginal(photon)
            qerase.path_final_closed_form(b, dist)
            qerase.preselect_l0(qerase.gibbs_four_level(spec))
            qerase.final_state_closed_form(b, spec)
        run_verification(draws=5)
        assert main(["optics", "--pol", "H"]) == 0
        assert main(["erase"]) == 0
        capsys.readouterr()
        assert built == []


class TestFlatKernelsBitForBit:
    """Each kernel against an explicit index loop over the rows, with the
    arithmetic in the order the row-based kernels used."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_storage_views_agree(self, n):
        rng = random.Random(500 + n)
        for _ in range(10):
            m = random_matrix(rng, n)
            rebuilt = ComplexMatrix(m.rows)
            assert rebuilt == m and hash(rebuilt) == hash(m)
            assert entry_bits(rebuilt) == entry_bits(m)
            for i in range(n):
                for j in range(n):
                    assert m[i, j] == m.rows[i][j]
                    assert m[i - n, j - n] == m.rows[i][j]
            with pytest.raises(IndexError):
                m[n, 0]
            with pytest.raises(IndexError):
                m[0, n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_trace(self, n):
        rng = random.Random(510 + n)
        for _ in range(10):
            a = random_matrix(rng, n)
            tr = 0
            for i in range(n):
                tr = tr + a.rows[i][i]
            assert repr(trace(a)) == repr(tr)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_diagonal_and_permute(self, n):
        rng = random.Random(520 + n)
        for _ in range(10):
            values = [random_matrix(rng, 1)[0, 0] for _ in range(n)]
            values[0] = rng.choice((values[0], 0.25, -1))  # floats and ints too
            want = [[complex(values[i]) if i == j else 0j for j in range(n)] for i in range(n)]
            assert entry_bits(diagonal(values)) == entry_bits(ComplexMatrix(want))
            # only the n values are checked, and each part of each one is
            bad = complex(rng.choice((math.nan, math.inf, -math.inf)), rng.gauss(0.0, 1.0))
            values[rng.randrange(n)] = rng.choice((bad, complex(bad.imag, bad.real)))
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                diagonal(values)
            m = random_matrix(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            want = [[0j] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    want[perm[i]][perm[j]] = m.rows[i][j]
            assert entry_bits(permute(m, perm)) == entry_bits(ComplexMatrix(want))

    @pytest.mark.parametrize("na, nb", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 4), (4, 2), (3, 2)])
    def test_kron(self, na, nb):
        rng = random.Random(530 + 10 * na + nb)
        for _ in range(10):
            a, b = random_matrix(rng, na), random_matrix(rng, nb)
            want = [[0j] * (na * nb) for _ in range(na * nb)]
            for ia in range(na):
                for ja in range(na):
                    for ib in range(nb):
                        for jb in range(nb):
                            want[ia * nb + ib][ja * nb + jb] = a.rows[ia][ja] * b.rows[ib][jb]
            assert entry_bits(kron(a, b)) == entry_bits(ComplexMatrix(want))

    @pytest.mark.parametrize("na, nb", list(itertools.product((1, 2, 3), (1, 2, 3, 4))))
    def test_diagonal_kron(self, na, nb):
        """The diagonal route, from a's entries and b's n values, gives the
        bits of `kron(a, diagonal(values))`, plain and relabeled, or its
        error: entries and values with zeros of either sign, and every
        fifth draw a 1e200 * 1e200 product that overflows."""
        rng = random.Random(560 + 10 * na + nb)
        n = na * nb
        perms = [DEFAULT_CIRCUIT_PERMUTATION] if n == 8 else []
        for trial in range(25):
            a = random_matrix(rng, na)
            values = [rng.choice((0.0, -0.0, rng.gauss(0.0, 1.0),
                                  complex(rng.gauss(0.0, 1.0), rng.choice((0.0, -0.0)))))
                      for _ in range(nb)]
            if trial % 5 == 0:
                a = ComplexMatrix([[1e200 if (i, j) == (0, 0) else x for j, x in enumerate(row)]
                                   for i, row in enumerate(a.rows)])
                values[rng.randrange(nb)] = 1e200
            perm = list(range(n))
            rng.shuffle(perm)
            for p in (None, tuple(perm), *perms):
                def dense(p=p):
                    joint = kron(a, diagonal(values))
                    return joint if p is None else permute(joint, p)

                # equal matrices hold equal tuples; the bits tell -0.0 from 0.0
                got, want = raised(lambda p=p: _kron(a, values, p)), raised(dense)
                assert got == want
                if isinstance(want, ComplexMatrix):
                    assert entry_bits(got) == entry_bits(want)
        bad = (0,) * n  # not a permutation, refused with permute's message
        assert raised(lambda: _kron(a, values, bad)) == raised(
            lambda: permute(kron(a, diagonal(values)), bad))

    def test_diagonal_kron_rejects_values_as_diagonal_does(self):
        """The product table is the only scan: a value that is not finite
        makes every product with it non-finite, so it is rejected as
        `diagonal` rejects it, also where each product is 0 * inf = nan
        (a left factor of zeros of either sign) or meets a signed zero."""
        inf, nan = math.inf, math.nan
        zeros = ComplexMatrix([[complex(0.0, -0.0), complex(-0.0, 0.0)],
                               [complex(-0.0, -0.0), 0j]])
        signed = ComplexMatrix([[complex(1.5, -0.0), complex(-0.0, 2.0)],
                                [complex(0.0, -3.0), complex(-0.5, 0.0)]])
        bads = (nan, inf, -inf, complex(0.5, nan), complex(-inf, 0),
                complex(inf, 0), complex(0, nan), complex(-inf, inf))
        for a in (random_matrix(random.Random(57), 2), zeros, signed):
            for bad in bads:
                values = [0.5, 0.0, bad, -0.0]
                want = raised(lambda: diagonal(values))
                assert want == ("ValueError", "matrix entries must be finite")
                for perm in (None, DEFAULT_CIRCUIT_PERMUTATION):
                    assert raised(lambda: _kron(a, values, perm)) == want
            assert raised(lambda: _kron(a, [], None)) == raised(lambda: diagonal([]))

    @pytest.mark.parametrize("dims, keep", [
        *(((2, 2, 2), set(keep)) for r in (1, 2, 3) for keep in itertools.combinations(range(3), r)),
        ((2, 4), {0}), ((2, 4), {1}), ((2, 4), {0, 1}),
        ((1, 2, 4), {0}), ((1,), {0}), ((8,), {0}),
    ])
    def test_partial_trace(self, dims, keep):
        rng = random.Random(540 + len(dims) + 10 * len(keep))
        n = math.prod(dims)
        for _ in range(20):
            m = random_matrix(rng, n)
            got = partial_trace(m, dims, keep)
            want = _reference_partial_trace(m.rows, dims, keep)
            assert entry_bits(got) == entry_bits(ComplexMatrix(want))
            assert got.dim == math.prod(dims[k] for k in keep)

    def test_density_matrix_decides_as_the_row_walk(self):
        """5,000 sparse near-Hermitian matrices: accept or reject, and the
        message, must be those of the row-by-row walk kept below, and the
        pattern plan's defect and blocks the walk's own, bit for bit; the
        all-zero matrix and 1x1 matrices as well."""
        seen = {}
        for rows in _sparse_batch():
            want = _outcome(_row_walk_density_check, rows)
            assert _outcome(density_matrix, rows) == want
            assert _outcome(density_matrix, ComplexMatrix(rows)) == want
            _assert_walk_is_the_row_walk(rows)
            kind = next((k for k in ("Hermitian", "trace", "eigenvalue") if k in want), want)
            seen[kind] = seen.get(kind, 0) + 1
        assert len(seen) == 4 and min(seen.values()) >= 200, seen
        for rows in ([[complex(-0.0, -0.0)] * 4] * 4, [[0j]], [[complex(1.0, 2e-13)]]):
            _assert_walk_is_the_row_walk(rows)

    def test_spectra_are_the_per_block_solves(self):
        """On the same 5,000 matrices, and on two whose 1x1 blocks hold
        zeros of either sign, `hermitian_eigenvalues` and
        `von_neumann_entropy` give the bits, in order, of the per-block solve
        kept below, so each signed zero keeps its place."""
        z, half = complex(-0.0, 0.0), complex(0.5)
        signed_zeros = [
            [[z, 0j, 0j], [0j, 0j, 0j], [0j, 0j, 1 + 0j]],
            [[half, 0j, half, 0j], [0j, z, 0j, 0j], [half, 0j, half, 0j], [0j, 0j, 0j, z]],
        ]
        entropies = 0
        for rows in _sparse_batch() + signed_zeros:
            m = ComplexMatrix(rows)
            want = _per_block_spectrum(m)
            assert list(map(float.hex, hermitian_eigenvalues(m))) == list(map(float.hex, want))
            if _outcome(density_matrix, m) == "ok":
                s = 0.0
                for lam in want:
                    if lam > 0.0:
                        s -= lam * math.log(lam)
                assert von_neumann_entropy(m).hex() == max(s, 0.0).hex()
                entropies += 1
        assert entropies > 2000

    def test_2x2_walk_is_the_pattern_plan(self, monkeypatch):
        """For each of the 16 zero patterns of a 2x2, 300 fillings with zeros
        of either sign, entries of +-1e300 and non-Hermitian off-diagonals:
        the walk's defect and blocks, read off the four entries, are the bits
        of the route through the pattern plan, and `density_matrix`,
        `hermitian_eigenvalues` and `von_neumann_entropy` give the same value
        or the same error message as on that route."""
        checks = (density_matrix, hermitian_eigenvalues, von_neumann_entropy)
        rng = random.Random(552)
        kinds = set()
        for pattern in itertools.product((False, True), repeat=4):
            for _ in range(300):
                m = _two_by_two(rng, pattern)
                assert tuple(map(bool, m._flat)) == pattern
                defect, blocks = _walk(m)
                want_defect, want_blocks = _plan_walk(m)
                assert (defect.hex(), blocks) == (want_defect.hex(), want_blocks)
                got = [_value_or_message(check, m) for check in checks]
                with monkeypatch.context() as patched:
                    patched.setattr(qerase.linalg, "_walk", _plan_walk)
                    assert got == [_value_or_message(check, m) for check in checks]
                kinds.update(next((k for k in ("Hermitian", "trace", "overflow", "eigenvalue")
                                   if k in str(out)), "ok") for out in got)
        assert kinds == {"ok", "Hermitian", "trace", "eigenvalue", "overflow"}, kinds


def _two_by_two(rng, pattern):
    """A 2x2 whose nonzero entries sit where `pattern` is true, zeros of
    either sign elsewhere: a density matrix, or one with an independent
    off-diagonal, a part of +-1e300, an imaginary diagonal part near the
    hermiticity tolerance, or Hermitian entries whose spectrum can overflow."""
    p = rng.random()
    off = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) * math.sqrt(p * (1.0 - p))
    flat = [complex(p, rng.choice((0.0, -0.0))), off, off.conjugate(),
            complex(1.0 - p, rng.choice((0.0, -0.0)))]
    if not pattern[0] or not pattern[3]:  # one diagonal entry left: give it the trace
        flat[0 if pattern[0] else 3] = complex(1.0, rng.choice((0.0, -0.0)))
    kind = rng.randrange(5)
    if kind == 4:
        big = complex(rng.choice((1e300, -1e300)), rng.choice((1e300, -1e300)))
        flat = [complex(rng.choice((1e300, 1.5e308, -1.5e308))), big, big.conjugate(),
                complex(rng.choice((1e300, 1.5e308, -1.5e308)))]
    elif kind == 1:
        flat[2] = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    elif kind == 2:
        flat[rng.randrange(4)] = complex(rng.choice((1e300, -1e300, 0.0, -0.0)),
                                         rng.choice((1e300, -1e300)))
    elif kind == 3:
        k = rng.choice((0, 3))
        flat[k] += complex(0.0, rng.choice((1e-13, -1e-13, 1e-11)))
    for k, nonzero in enumerate(pattern):
        if not nonzero:
            flat[k] = complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
        elif not flat[k]:
            flat[k] = complex(rng.choice((0.0, -0.0)), 0.25)
    return ComplexMatrix._from_flat(tuple(flat), 2)


def _plan_walk(m):
    """`_walk`'s route for every size: the plan cached per nonzero pattern,
    built here uncached, and the defect over its pairs."""
    flat, n = m._flat, m.dim
    upper, lower, blocks = qerase.linalg._pattern_plan.__wrapped__(
        tuple(itertools.compress(range(n * n), flat)), n)
    defect = 0.0
    for x, y in zip(upper(flat), lower(flat)):
        d = abs(x - y.conjugate())
        if d > defect:
            defect = d
    return defect, blocks


def _value_or_message(check, m):
    """check(m) as the bits of its value, or its error's type and message."""
    try:
        value = check(m)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, ComplexMatrix):
        return entry_bits(value)
    if isinstance(value, tuple):
        return [x.hex() for x in value]
    return value.hex()


def _sparse_batch():
    """The 5,000 sparse near-Hermitian matrices of the row-walk tests."""
    rng = random.Random(550)
    return [_sparse_hermitian(rng, rng.choice((1, 2, 3, 4, 8))) for _ in range(5000)]


def _per_block_spectrum(m):
    """The ascending union of the blocks' spectra, each block solved by its
    own call in block order: a 1x1 block its real diagonal entry, a 2x2 the
    closed form, a larger one the Jacobi loop."""
    flat, n = m._flat, m.dim
    spectrum = []
    for block in _row_walk(m)[1]:
        if len(block) == 1:
            spectrum += (flat[block[0] * (n + 1)].real,)
        elif len(block) == 2:
            i, j = block
            a, d = flat[i * (n + 1)].real, flat[j * (n + 1)].real
            off = 0.5 * (flat[i * n + j] + flat[j * n + i].conjugate())
            mean, radius = 0.5 * (a + d), math.hypot(0.5 * (a - d), abs(off))
            spectrum += (mean - radius, mean + radius)
        else:
            spectrum += _jacobi_eigenvalues(tuple(tuple(flat[i * n + j] for j in block)
                                                  for i in block))
    spectrum.sort()
    return spectrum


def _assert_walk_is_the_row_walk(rows):
    m = ComplexMatrix(rows)
    defect, blocks = _walk(m)
    want_defect, want_blocks = _row_walk(m)
    assert defect.hex() == want_defect.hex()
    assert blocks == tuple(map(tuple, want_blocks))


def _outcome(check, rows):
    try:
        check(rows)
    except ValueError as exc:
        return str(exc)
    return "ok"


def _sparse_hermitian(rng, n):
    """Hermitian rows with a sparse coupling pattern and zeros of either
    sign. Some get a one-sided 1e-13 link between two otherwise unlinked
    indices whose diagonals sit just above the eigenvalue floor, a defect
    near the hermiticity tolerance, a trace off by 1e-11, or couplings
    strong enough for a negative eigenvalue."""
    zero = lambda: complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))  # noqa: E731
    rows = [[zero() for _ in range(n)] for _ in range(n)]
    weights = [rng.choice((0.0, rng.random())) for _ in range(n)]
    weights[rng.randrange(n)] += 0.5
    for i in range(n):
        rows[i][i] = complex(weights[i] / sum(weights), rng.choice((0.0, -0.0)))
    strength = rng.choice((0.3, 1.0, 2.0))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                bound = math.sqrt(rows[i][i].real * rows[j][j].real)
                rows[i][j] = complex(rng.gauss(0, strength * bound), rng.gauss(0, strength * bound))
                rows[j][i] = rows[i][j].conjugate()
    kind = rng.random()
    if kind < 0.2 and n > 2:
        i, j, k = rng.sample(range(n), 3)
        x = EIGENVALUE_FLOOR + 2.5e-14
        for a in range(n):  # unlink i and j from the rest
            for b in (i, j):
                if a != b:
                    rows[a][b] = rows[b][a] = zero()
        rows[k][k] += rows[i][i].real + rows[j][j].real - 2.0 * x
        rows[i][i] = rows[j][j] = complex(x)
        if rng.random() < 0.5:
            i, j = j, i
        rows[i][j] = complex(1e-13)
    elif kind < 0.4 and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i][j] += complex(rng.uniform(0.5e-12, 1.5e-12), 0.0)
    elif kind < 0.5:
        rows[0][0] += 1e-11
    return rows


def _row_walk_density_check(m):
    """The oracle: a density check that walks the upper triangle and the
    diagonal of the rows in order, with its own 2x2 closed form."""
    if not isinstance(m, ComplexMatrix):
        m = ComplexMatrix(m)
    r = m.rows
    defect, blocks = _row_walk(m)
    if defect > qerase.linalg.HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {qerase.linalg.HERMITICITY_TOL:.0e}"
        )
    tr = sum(m.rows[i][i] for i in range(m.dim))
    if abs(tr - 1.0) > qerase.linalg.TRACE_TOL:
        raise ValueError(f"trace {tr!r} differs from 1 by more than {qerase.linalg.TRACE_TOL:.0e}")
    lo = min(_row_block_minimum(r, b) for b in blocks)
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"matrix has eigenvalue {lo:.3e} below {EIGENVALUE_FLOOR:.0e}")
    return m


def _row_walk(m):
    """The largest hermiticity defect over the upper triangle and the
    diagonal, pairs of zeros skipped, and the blocks of the nonzero pattern,
    each once, in order of smallest index."""
    r, n = m.rows, m.dim
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
    return defect, [b for i, b in enumerate(blocks) if b[0] == i]  # each block once


def _row_block_minimum(r, block):
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


class TestConstructors:
    def test_diagonal(self):
        assert diagonal([1, 2j]).rows == ((1, 0), (0, 2j))


class TestPermutations:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_permute_matches_numpy_conjugation(self, dim):
        rng = random.Random(70 + dim)
        for _ in range(10):
            rho = random_density(rng, dim)
            perm = list(range(dim))
            rng.shuffle(perm)
            p = numpy_permutation(perm)
            assert_matrix_close(permute(rho, perm), p @ to_numpy(rho) @ p.T, atol=0)

    def test_permute_rejects_non_permutation(self):
        rho = diagonal([0.5, 0.5])
        with pytest.raises(ValueError, match="permutation"):
            permute(rho, (0, 0))
        with pytest.raises(ValueError, match="permutation"):
            permute(rho, (0, 1, 2))

    def test_one_by_one_permutes_to_itself(self):
        m = ComplexMatrix([[0.25 - 0.5j]])
        for perm in ((0,), [0]):
            got = permute(m, perm)
            assert got == m
            assert got.rows == ((0.25 - 0.5j,),)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_list_and_tuple_give_equal_results(self, dim):
        rng = random.Random(80 + dim)
        rho = random_density(rng, dim)
        perm = list(range(dim))
        rng.shuffle(perm)
        assert permute(rho, perm) == permute(rho, tuple(perm))

    def test_errors_repeat_after_cached_success(self):
        rho = diagonal([0.5, 0.5])
        permute(rho, (1, 0))
        for _ in range(2):
            with pytest.raises(ValueError, match="permutation"):
                permute(rho, (0, 0))
            with pytest.raises(ValueError, match="permutation"):
                permute(rho, (0, 1, 2))
            with pytest.raises(ValueError, match="permutation"):
                permute(diagonal([0.25] * 4), (1, 0))

    def test_compose_matches_numpy_product(self):
        # the first permutation acts first, so its matrix is the rightmost factor
        rng = random.Random(73)
        for count in (1, 2, 3):
            perms = []
            for _ in range(count):
                perm = list(range(8))
                rng.shuffle(perm)
                perms.append(perm)
            want = np.eye(8)
            for perm in perms:
                want = numpy_permutation(perm) @ want
            got = numpy_permutation(compose_permutations(*perms))
            np.testing.assert_array_equal(got, want)


class TestProducts:
    def test_kron_matches_numpy_convention(self):
        rng = random.Random(13)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        # numpy contracts complex products with FMA, so allow an ulp of slack
        assert_matrix_close(kron(a, b), np.kron(to_numpy(a), to_numpy(b)), atol=1e-15)

    @pytest.mark.parametrize("na, nb", [(2, 4), (4, 2), (3, 2)])
    def test_kron_equals_numpy_exactly(self, na, nb):
        rng = random.Random(100 * na + nb)

        def draw(n, parts):
            return ComplexMatrix(
                [[complex(rng.choice(parts), rng.choice(parts)) for _ in range(n)]
                 for _ in range(n)]
            )

        # dyadic entries multiply exactly on either side, so any misplaced
        # entry shows even in numpy's complex128 product
        dyadic = [k / 8 for k in range(-16, 17)]
        a, b = draw(na, dyadic), draw(nb, dyadic)
        assert np.array_equal(to_numpy(kron(a, b)), np.kron(to_numpy(a), to_numpy(b)))
        # on object arrays numpy forms each entry as one Python product, so
        # general entries must match bit for bit too
        gauss = [rng.gauss(0, 1) for _ in range(64)]
        a, b = draw(na, gauss), draw(nb, gauss)
        want = np.kron(np.array(a.rows, dtype=object), np.array(b.rows, dtype=object))
        assert kron(a, b).rows == tuple(map(tuple, want.tolist()))

    def test_kron_rejects_an_overflowing_product(self):
        with pytest.raises(ValueError, match="finite"):
            kron(diagonal([1e200, 1.0]), diagonal([1e200, 0.5]))


class TestPartialTrace:
    def test_bell_state_marginals_are_maximally_mixed(self):
        bell = ComplexMatrix(
            [
                [0.5, 0, 0, 0.5],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [0.5, 0, 0, 0.5],
            ]
        )
        for keep in ({0}, {1}):
            assert_matrix_close(partial_trace(bell, (2, 2), keep), diagonal([0.5, 0.5]))

    def test_product_state_factors_recovered(self):
        rng = random.Random(15)
        a = random_density(rng, 2)
        b = random_density(rng, 4)
        joint = kron(a, b)
        assert_matrix_close(partial_trace(joint, (2, 4), {0}), a, atol=1e-13)
        assert_matrix_close(partial_trace(joint, (2, 4), {1}), b, atol=1e-13)

    def test_keep_everything_is_identity_operation(self):
        rng = random.Random(16)
        rho = random_density(rng, 8)
        assert_matrix_close(partial_trace(rho, (2, 2, 2), {0, 1, 2}), rho, atol=0)

    def test_sequential_traces_reach_scalar_trace(self):
        rng = random.Random(17)
        rho = random_density(rng, 8)
        reduced = partial_trace(rho, (2, 4), {0})
        final = partial_trace(reduced, (2,), {0})
        assert final[0, 0] + final[1, 1] == pytest.approx(trace(rho), abs=1e-13)

    def test_against_numpy_einsum(self):
        rng = random.Random(18)
        rho = random_density(rng, 8)
        t = to_numpy(rho).reshape(2, 2, 2, 2, 2, 2)
        want = np.einsum("abicdi->abcd", t).reshape(4, 4)
        got = partial_trace(rho, (2, 2, 2), {0, 1})
        assert_matrix_close(got, want, atol=1e-13)

    def test_dimension_product_must_match(self):
        with pytest.raises(ValueError, match="mismatch"):
            partial_trace(diagonal([1.0] * 8), (2, 2), {0})

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(diagonal([1.0] * 4), (2, 2), set())

    def test_out_of_range_keep_rejected(self):
        with pytest.raises(ValueError, match="range"):
            partial_trace(diagonal([1.0] * 4), (2, 2), {2})

    def test_keep_container_does_not_matter(self):
        rng = random.Random(20)
        rho = random_density(rng, 8)
        want = partial_trace(rho, (2, 2, 2), {0, 2})
        assert partial_trace(rho, (2, 2, 2), [2, 0, 2]) == want
        assert partial_trace(rho, (2, 2, 2), (k for k in (2, 0))) == want

    def test_rejects_an_overflowing_sum(self):
        with pytest.raises(ValueError, match="finite"):
            partial_trace(diagonal([1e308, 1e308, 1.0, 1.0]), (2, 2), {0})

    def test_errors_repeat_after_cached_success(self):
        partial_trace(diagonal([1.0] * 4), (2, 2), {0})
        for _ in range(2):
            with pytest.raises(ValueError, match="subsystem dimensions must be positive"):
                partial_trace(diagonal([1.0] * 4), (2, 0), {0})
            with pytest.raises(ValueError, match="keep set must be nonempty"):
                partial_trace(diagonal([1.0] * 4), (2, 2), set())
            with pytest.raises(ValueError, match="keep indices out of range for 2 subsystems"):
                partial_trace(diagonal([1.0] * 4), (2, 2), {-1})
            with pytest.raises(ValueError, match="keep indices out of range for 2 subsystems"):
                partial_trace(diagonal([1.0] * 4), (2, 2), {0, 2})
            with pytest.raises(ValueError, match="subsystem dimensions must be integers"):
                partial_trace(diagonal([1.0] * 4), (2.5, 2), {0})
            with pytest.raises(ValueError, match="keep indices must be integers"):
                partial_trace(diagonal([1.0] * 4), (2, 2), {0.5})

    def test_rejects_non_integral_dims_and_keep(self):
        rho = diagonal([0.25] * 4)
        want = partial_trace(rho, (2, 2), {0})
        _trace_plan.cache_clear()
        for _ in ("(2, 2) not cached", "(2, 2) cached"):
            with pytest.raises(ValueError, match="subsystem dimensions must be integers"):
                partial_trace(rho, (2.7, 2), {0})
            with pytest.raises(ValueError, match="keep indices must be integers"):
                partial_trace(rho, (2, 2), {0.9})
            # integral floats are integers: the same plan and an int product
            assert partial_trace(rho, (2.0, 2), {0.0}) == want
            with pytest.raises(ValueError, match="product of dims is 4, matrix is 8"):
                partial_trace(diagonal([1.0] * 8), (2.0, 2), {0})
            assert partial_trace(rho, (2, 2), {0}) == want

    @pytest.mark.parametrize("dims, keep", [
        ((2, 2, 2), {0}), ((2, 2, 2), {1, 2}), ((2, 4), {0}), ((2, 4), {1}),
    ])
    def test_sums_run_in_flat_order_from_int_zero(self, dims, keep):
        # sum() from int 0 turns a -0.0 part into 0.0, and the order fixes the
        # rounding: both must stay as they were for the reports' bits to stay
        rng = random.Random(43)

        def part():
            return rng.choice((0.0, -0.0)) if rng.random() < 0.7 else rng.gauss(0.0, 1.0)

        states = [ComplexMatrix([[complex(-0.0, -0.0)] * 8] * 8)]
        states += [ComplexMatrix([[complex(part(), part()) for _ in range(8)] for _ in range(8)])
                   for _ in range(20)]
        for rho in states:
            want = _reference_partial_trace(rho.rows, dims, keep)
            assert repr(partial_trace(rho, dims, keep).rows) == repr(want)


def _reference_partial_trace(rows, dims, keep):
    """Each kept-block entry as sum(), from int 0, over the traced digits in
    lexicographic order, which is increasing flat index."""
    kept = sorted(keep)
    traced = [k for k in range(len(dims)) if k not in kept]

    def flat(kept_digits, traced_digits):
        digits = dict(zip(kept, kept_digits)) | dict(zip(traced, traced_digits))
        index = 0
        for k, d in enumerate(dims):
            index = index * d + digits[k]
        return index

    blocks = list(itertools.product(*(range(dims[k]) for k in kept)))
    rests = list(itertools.product(*(range(dims[k]) for k in traced)))
    return tuple(
        tuple(sum(rows[flat(u, t)][flat(v, t)] for t in rests) for v in blocks)
        for u in blocks
    )


def _trace_shapes():
    """Every dims of one to three positive sizes with a product of at most 8
    (every factorization into sizes of 2 or more is among them), with each
    nonempty keep set."""
    for length in (1, 2, 3):
        for dims in itertools.product(range(1, 9), repeat=length):
            if math.prod(dims) <= 8:
                for r in range(1, length + 1):
                    for keep in itertools.combinations(range(length), r):
                        yield dims, keep


def _extreme_matrix(rng, n):
    """Parts drawn from signed zeros, +/-1e308 (whose sums overflow) and
    ordinary values."""
    def part():
        return rng.choice((0.0, -0.0, 0.0, -0.0, 1e308, -1e308, 1.0, rng.gauss(0.0, 1.0)))

    return ComplexMatrix._wrap(tuple(complex(part(), part()) for _ in range(n * n)), n)


class _Sly(int):
    """An int whose text is code: a kernel source built from these texts
    would divide by zero."""

    def __repr__(self):
        return "(1 // 0)"

    __str__ = __repr__

    def __format__(self, spec):
        return "(1 // 0)"


class TestTraceKernels:
    """Each partial trace plan's compiled kernel against the sum() oracle."""

    def test_every_shape_up_to_8_bit_for_bit(self):
        rng = random.Random(61)
        shapes = list(_trace_shapes())
        assert len(shapes) > 100 and ((2, 2, 2), (0, 1, 2)) in shapes
        overflows = 0
        for dims, keep in shapes:
            n = math.prod(dims)
            for k in range(12):
                m = _extreme_matrix(rng, n) if k % 2 else random_matrix(rng, n)
                want = raised(lambda: ComplexMatrix(_reference_partial_trace(m.rows, dims, keep)))
                got = raised(lambda: partial_trace(m, dims, keep))
                if isinstance(want, tuple):
                    assert got == want == ("ValueError", "matrix entries must be finite")
                    overflows += 1
                else:
                    assert entry_bits(got) == entry_bits(want), (dims, keep)
        assert overflows > 100

    def test_long_traces_sum_as_sum(self):
        # more than 100 terms per entry: the running sum carries over runs
        rng = random.Random(62)
        for dims, keep in (((2, 150), (0,)), ((1, 101), (0,)), ((3, 100), (0,))):
            n = math.prod(dims)
            m = ComplexMatrix._wrap(tuple(complex(rng.gauss(0.0, 1.0), rng.choice((0.0, -0.0)))
                                          for _ in range(n * n)), n)
            want = ComplexMatrix(_reference_partial_trace(m.rows, dims, keep))
            assert entry_bits(partial_trace(m, dims, keep)) == entry_bits(want)

    def test_source_holds_only_plain_ints(self):
        """Sizes and keep indices of an int subclass whose text is code give
        the plain-int matrix: the kernel's source is built from the plan's own
        positions, never from the values passed in."""
        rng = random.Random(63)
        _trace_plan.cache_clear()  # an equal plain-int key must not be found
        for dims, keep in (((2, 4), (1,)), ((2, 2, 2), (0, 2)), ((8,), (0,)), ((2, 4), (0, 1))):
            m = random_matrix(rng, math.prod(dims))
            got = partial_trace(m, tuple(map(_Sly, dims)), tuple(map(_Sly, keep)))
            want = ComplexMatrix(_reference_partial_trace(m.rows, dims, keep))
            assert entry_bits(got) == entry_bits(want)
        _trace_plan.cache_clear()

    def test_a_warm_trace_compiles_nothing(self, monkeypatch):
        b = BlochVector(0.3, -0.2, 0.4)
        spec = ThermalSpec.from_beta(0.7)
        rng = random.Random(64)
        rho = random_matrix(rng, 8)

        def outputs():
            final = qerase.apply_channel(qerase.composite_initial(b, spec))
            photon = qerase.simulate(b, qerase.PathDistribution.from_beta(0.7))
            marginals = (qerase.memory_marginal(final), qerase.reservoir_marginal(final),
                         qerase.path_marginal(photon), qerase.polarization_marginal(photon),
                         partial_trace(rho, (2, 2, 2), (0, 2)))
            return ([entry_bits(m) for m in marginals],
                    qerase.memory_ground_fidelity(final).hex(), repr(qerase.analyze(b, spec)))

        want = outputs()

        def refuse(*args, **kwargs):
            raise AssertionError("a warm trace compiled a kernel")

        monkeypatch.setattr(builtins, "eval", refuse)
        assert outputs() == want

    def test_import_builds_no_kernel(self):
        """A fresh interpreter that imports the modules compiles no kernel;
        its first marginal compiles one."""
        code = (
            "import builtins\n"
            "kernels = []\n"
            "real = builtins.eval\n"
            "def seen(source, *rest):\n"
            "    if isinstance(source, str) and source.startswith('lambda f:'):\n"
            "        kernels.append(source)\n"
            "    return real(source, *rest)\n"
            "builtins.eval = seen\n"
            "import qerase.linalg, qerase.channel, qerase.optics, qerase.thermo\n"
            "print(len(kernels), qerase.linalg._trace_plan.cache_info().misses)\n"
            "qerase.channel.memory_marginal(qerase.linalg.diagonal([0.125] * 8))\n"
            "print(len(kernels), qerase.linalg._trace_plan.cache_info().misses)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split("\n") == ["0 0", "1 1", ""]


class TestEigensolver:
    def test_matches_numpy_on_random_hermitians(self):
        rng = random.Random(19)
        for _ in range(20):
            h = random_hermitian(rng, 8)
            got = hermitian_eigenvalues(h)
            want = np.linalg.eigvalsh(to_numpy(h))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_spectrum_is_ascending(self):
        rng = random.Random(20)
        spec = hermitian_eigenvalues(random_hermitian(rng, 6))
        assert list(spec) == sorted(spec)

    def test_diagonal_matrix_is_immediate(self):
        spec = hermitian_eigenvalues(diagonal([3.0, -1.0, 2.0]))
        assert spec == (-1.0, 2.0, 3.0)

    def test_one_by_one(self):
        assert hermitian_eigenvalues(ComplexMatrix([[4.0]])) == (4.0,)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(ComplexMatrix([[0, 1], [0, 0]]))

    def test_jacobi_raises_when_out_of_sweeps(self, monkeypatch):
        # a dense 3x3 block is the smallest that runs the Jacobi loop
        monkeypatch.setattr(qerase.linalg, "JACOBI_MAX_SWEEPS", 0)
        dense = ComplexMatrix([[2, 1, 1j], [1, 3, 0.5], [-1j, 0.5, 1]])
        with pytest.raises(ArithmeticError, match="did not converge in 0 sweeps"):
            hermitian_eigenvalues(dense)

    def test_known_qubit_spectrum(self):
        # Bloch radius 0.5 along x: eigenvalues (1 -/+ 0.5)/2
        rho = ComplexMatrix([[0.5, 0.25], [0.25, 0.5]])
        np.testing.assert_allclose(
            hermitian_eigenvalues(rho), (0.25, 0.75), atol=1e-14
        )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_eigenvalue_sum_equals_trace(self, seed):
        rng = random.Random(seed)
        h = random_hermitian(rng, 5)
        spec = hermitian_eigenvalues(h)
        assert sum(spec) == pytest.approx(trace(h).real, abs=1e-11)

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e9, 1e12])
    def test_large_entries_converge(self, scale):
        # rounding leaves an off-diagonal norm near eps * ||A||_F, above an
        # absolute 1e-13 once the entries are large
        rng = random.Random(int(math.log10(scale)))
        qubit = [[0.7, 0.15 + 0.1j], [0.15 - 0.1j, 0.3]]
        for rows in (qubit, random_hermitian(rng, 2).rows, random_hermitian(rng, 5).rows):
            m = ComplexMatrix([[scale * x for x in row] for row in rows])
            want = np.linalg.eigvalsh(to_numpy(m))
            got = hermitian_eigenvalues(m)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale * len(rows))

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e9, 1e12])
    def test_accepts_rounded_products_with_large_entries(self, scale):
        # A A^dagger rounds its (i, j) and (j, i) entries apart by about
        # eps * ||A A^dagger||_F, above an absolute 1e-10 at these scales
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 8):
            a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale
            h = a @ a.conj().T
            want = np.linalg.eigvalsh(h)
            got = hermitian_eigenvalues(ComplexMatrix(h.tolist()))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * n * want[-1])

    @pytest.mark.parametrize("rows", [
        [[1e308, 1e300], [1e300, 1e308]],
        [[1e308, 1e300], [1e300, -1e308]],
        [[1.7e308, 1.7e308], [1.7e308, 0.0]],
    ])
    def test_overflowing_solve_raises(self, rows):
        # the closed form's (a + d)/2 or hypot overflows: an error, not an infinity
        with pytest.raises(OverflowError):
            hermitian_eigenvalues(ComplexMatrix(rows))

    def test_scaled_input_check_still_rejects_non_hermitian(self):
        m = ComplexMatrix([[1e6, 1.0], [0.0, 1e6]])
        with pytest.raises(ValueError, match="Hermitian: defect 1.000e\\+00 exceeds 0.000141"):
            hermitian_eigenvalues(m)

    @pytest.fixture
    def loop_sizes(self, monkeypatch):
        """Size of every block that runs the Jacobi loop."""
        sizes = []
        original = qerase.linalg._jacobi_eigenvalues

        def counted(rows):
            sizes.append(len(rows))
            return original(rows)

        monkeypatch.setattr(qerase.linalg, "_jacobi_eigenvalues", counted)
        return sizes

    def test_diagonal_input_runs_no_loop(self, loop_sizes):
        assert hermitian_eigenvalues(diagonal([0.5, 0.25, 0.25])) == (0.25, 0.25, 0.5)
        values = [0.7, -0.0, 1e-300, -2.5, 1.0 / 3.0, 0.1, 3e12, 0.1]
        assert hermitian_eigenvalues(diagonal(values)) == tuple(sorted(values))
        assert loop_sizes == []

    def test_block_diagonal_input_solves_each_block_alone(self, loop_sizes):
        """A 3x3 block, a 2x2 block and a 1x1 block, relabeled by a
        permutation: only the 3x3 block runs the loop, the spectrum is the
        union of the blocks' spectra and the 1x1 entry comes back exact."""
        rng = random.Random(48)
        h = np.zeros((6, 6), dtype=complex)
        h[:3, :3] = to_numpy(random_hermitian(rng, 3))
        h[3:5, 3:5] = to_numpy(random_hermitian(rng, 2))
        h[5, 5] = 0.1
        m = permute(ComplexMatrix(h.tolist()), [4, 0, 5, 2, 1, 3])
        got = hermitian_eigenvalues(m)
        assert loop_sizes == [3]
        assert 0.1 in got and list(got) == sorted(got)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(h), rtol=0, atol=1e-14)


class TestDensityValidation:
    def test_accepts_valid_density(self):
        rng = random.Random(21)
        rho = random_density(rng, 4)
        assert density_matrix(rho) is rho

    def test_accepts_raw_rows(self):
        m = density_matrix([[0.5, 0], [0, 0.5]])
        assert isinstance(m, ComplexMatrix)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            density_matrix(diagonal([1.0, 1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            density_matrix(ComplexMatrix([[0.5, 0.5], [0, 0.5]]))

    def test_rejects_imaginary_diagonal(self):
        # the defect includes the diagonal, where conj(m[i,i]) must equal m[i,i]
        with pytest.raises(ValueError, match="Hermitian"):
            density_matrix(ComplexMatrix([[0.5 + 1e-11j, 0], [0, 0.5 - 1e-11j]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            density_matrix(diagonal([1.5, -0.5]))

    def test_accepts_coherent_pure_state(self):
        # uniform pure state: each row's coherences sum to twice its diagonal
        # entry, yet the spectrum is (0, 0, 1)
        third = 1.0 / 3.0
        rho = ComplexMatrix([[third] * 3 for _ in range(3)])
        assert density_matrix(rho) is rho

    def test_rejects_hidden_negative_eigenvalue(self):
        # diagonal fine, off-diagonal pushes one eigenvalue to -0.1
        rho = ComplexMatrix([[0.5, 0.6], [0.6, 0.5]])
        with pytest.raises(ValueError, match="eigenvalue"):
            density_matrix(rho)

    @staticmethod
    def _qubit_blocks(rng):
        """Random 2x2 density blocks: full rank, uniform in the Bloch ball,
        and near pure with 1 - r log-uniform down to 1e-14."""
        for _ in range(200):
            yield random_density(rng, 2)
            yield qubit_from_bloch(random_bloch(rng))
            r = 1.0 - 10.0 ** rng.uniform(-14, -1)
            v = [rng.gauss(0, 1) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            yield qubit_from_bloch(BlochVector(*(r * x / norm for x in v)))

    def test_closed_form_2x2_matches_numpy_and_jacobi(self):
        rng = random.Random(22)
        for m in self._qubit_blocks(rng):
            got = hermitian_eigenvalues(m)
            want = np.linalg.eigvalsh(to_numpy(m))
            jacobi = _jacobi_eigenvalues(m.rows)
            tol = 4 * math.ulp(max(abs(want[0]), abs(want[1])))
            assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol
            assert abs(got[0] - jacobi[0]) <= tol
            # the Jacobi rotation's largest eigenvalue is off by up to 3 ulp(1)
            assert abs(got[1] - jacobi[1]) <= 4 * math.ulp(1.0)

    def test_closed_form_2x2_matches_exact_arithmetic_on_density_blocks(self):
        """Both eigenvalues of 6,000 density blocks, near-pure ones
        included, within 1 ulp(1) of a 50-digit oracle."""
        rng = random.Random(25)
        with localcontext() as ctx:
            ctx.prec = 50
            for m in itertools.chain.from_iterable(self._qubit_blocks(rng) for _ in range(10)):
                (a, b), (_, d) = m.rows
                a, d = Decimal(a.real), Decimal(d.real)
                radius = (((a - d) / 2) ** 2 + Decimal(b.real) ** 2 + Decimal(b.imag) ** 2).sqrt()
                exact = ((a + d) / 2 - radius, (a + d) / 2 + radius)
                for lam, want in zip(hermitian_eigenvalues(m), exact):
                    assert abs(Decimal(lam) - want) <= Decimal(math.ulp(1.0))

    def test_closed_form_2x2_matches_exact_arithmetic_on_indefinite_blocks(self):
        rng = random.Random(23)
        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(300):
                m = random_hermitian(rng, 2)
                (a, b), (_, d) = m.rows
                a, d = Decimal(a.real), Decimal(d.real)
                radius = (((a - d) / 2) ** 2 + Decimal(b.real) ** 2 + Decimal(b.imag) ** 2).sqrt()
                exact = ((a + d) / 2 - radius, (a + d) / 2 + radius)
                scale = float(max(map(abs, exact)))
                for lam, want in zip(hermitian_eigenvalues(m), exact):
                    assert abs(Decimal(lam) - want) <= 2 * Decimal(math.ulp(scale))

    def test_block_screen_decides_as_the_full_spectrum(self):
        """Random, randomly permuted block-diagonal states with the smallest
        eigenvalue placed within 1e-9 of the floor, on either side."""
        rng = random.Random(24)
        decided = {True: 0, False: 0}
        for _ in range(600):
            n = rng.randint(2, 8)
            h = np.zeros((n, n), dtype=complex)
            start = 0
            while start < n:
                k = rng.randint(1, n - start)
                h[start:start + k, start:start + k] = to_numpy(random_hermitian(rng, k))
                start += k
            order = list(range(n))
            rng.shuffle(order)
            h = h[np.ix_(order, order)]
            mu = np.linalg.eigvalsh(h)
            target = EIGENVALUE_FLOOR + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14, -9)
            # eigenvalues scale(mu - mu[0]) + target, trace 1
            scale = (1.0 - n * target) / (mu.sum() - n * mu[0])
            m = ComplexMatrix((scale * (h - mu[0] * np.eye(n)) + target * np.eye(n)).tolist())
            lo = np.linalg.eigvalsh(to_numpy(m))[0]
            if abs(lo - EIGENVALUE_FLOOR) < 1e-14:
                continue
            rejects = lo < EIGENVALUE_FLOOR
            if rejects:
                with pytest.raises(ValueError, match="eigenvalue"):
                    density_matrix(m)
            else:
                assert density_matrix(m) is m
            decided[rejects] += 1
        assert min(decided.values()) > 200

    def test_rejects_negative_eigenvalue_hidden_in_a_3x3_block(self):
        # diagonal 1/3 and couplings 0.4: eigenvalues 1.133 and -0.067 (twice)
        block = (1, 4, 6)
        rows = [[0.0] * 8 for _ in range(8)]
        for i in block:
            for j in block:
                rows[i][j] = 1.0 / 3.0 if i == j else 0.4
        with pytest.raises(ValueError, match="eigenvalue"):
            density_matrix(rows)

    @pytest.mark.parametrize("c, accepted", [(0.2, False), (0.15, True)])
    def test_walk_merges_blocks_that_hold_several_indices(self, c, accepted):
        """Links (0,3), (1,2), (2,3): the walk labels {0,3} and {1,2} before
        (2,3) merges them into the path 0-3-2-1, whose smallest eigenvalue is
        0.25 - 2c cos(pi/5), though each linked pair alone has 0.25 - c."""
        rows = np.zeros((8, 8))
        rows[range(4), range(4)] = 0.25
        for i, j in ((0, 3), (1, 2), (2, 3)):
            rows[i, j] = rows[j, i] = c
        path = np.linalg.eigvalsh(rows[:4, :4])[0]
        assert path == pytest.approx(0.25 - 2.0 * c * math.cos(math.pi / 5.0), abs=1e-15)
        lo = np.linalg.eigvalsh(rows)[0]  # the other four indices add eigenvalue 0
        assert bool(lo >= EIGENVALUE_FLOOR) is accepted
        if accepted:
            assert density_matrix(rows.tolist()) == ComplexMatrix(rows.tolist())
        else:
            with pytest.raises(ValueError, match=f"eigenvalue {lo:.3e} below"):
                density_matrix(rows.tolist())

    @pytest.mark.parametrize("i, j", [(2, 5), (5, 2)])
    def test_one_sided_link_joins_a_block(self, i, j):
        """r[i][j] = 1e-13 with its mirror 0 is within the hermiticity
        tolerance, and it still couples i and j: as one block the pair has
        eigenvalue x - 5e-14 below the floor, though each diagonal x is above."""
        x = EIGENVALUE_FLOOR + 2.5e-14
        rows = [[0.0] * 8 for _ in range(8)]
        rows[i][i] = rows[j][j] = x
        rows[0][0] = 1.0 - 2.0 * x
        rows[i][j] = 1e-13
        with pytest.raises(ValueError, match="eigenvalue"):
            density_matrix(rows)

    def test_entropy_rejects_as_density_matrix(self):
        """von_neumann_entropy validates in density_matrix's own pass: each
        of 5,000 sparse near-Hermitian matrices is accepted by both or
        rejected by both with the same message."""
        rng = random.Random(551)
        rejected = 0
        for _ in range(5000):
            rows = _sparse_hermitian(rng, rng.choice((1, 2, 3, 4, 8)))
            want = _outcome(density_matrix, rows)
            assert _outcome(von_neumann_entropy, rows) == want
            assert _outcome(von_neumann_entropy, ComplexMatrix(rows)) == want
            rejected += want != "ok"
        assert 1000 < rejected < 4000

    def test_entropy_checks_in_density_matrix_order(self):
        # each matrix fails every check from its message's on: hermiticity
        # first, then the trace, then the eigenvalue floor
        cases = [
            ([[1.5, 0.5], [0.0, -0.25]], "not Hermitian"),
            ([[1.5, 0.0], [0.0, -0.25]], "trace"),
            ([[1.25, 0.0], [0.0, -0.25]], "eigenvalue -2.500e-01 below"),
        ]
        for rows, message in cases:
            for check in (density_matrix, von_neumann_entropy):
                with pytest.raises(ValueError, match=message):
                    check(rows)

    def test_the_edge_grid_fills_few_pattern_plans(self):
        """Every state the package builds is a qubit (x) a diagonal
        reservoir, so its nonzero patterns are few, edge cases included:
        analyze and the propagate calls over pure states on and off the z
        axis, the exact ground state, beta in {0, 1, inf} and an SI gap
        must fill a small part of the pattern-plan cache and evict nothing,
        and fill two Kronecker-order plans, both for a diagonal right
        factor."""
        blochs = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                  (0.6, 0.0, 0.8), (0.3, -0.2, 0.4), (0.0, 0.0, 0.5), (0.0, 0.0, 0.0)]
        specs = [ThermalSpec.from_beta(beta) for beta in (0.0, 1.0, math.inf)]
        specs.append(ThermalSpec.from_temperature(10.0, delta=1.986e-22, k_B=1.380649e-23))
        qerase.linalg._pattern_plan.cache_clear()
        qerase.linalg._kron_order.cache_clear()
        for (x, y, z), spec in itertools.product(blochs, specs):
            b = BlochVector(x, y, z)
            qerase.analyze(b, spec)
            final = qerase.apply_channel(qerase.composite_initial(b, spec))
            qerase.memory_ground_fidelity(final)
            qerase.reservoir_marginal(final)
            qerase.reservoir_final_closed_form(b, spec)
            dist = qerase.PathDistribution.from_beta(spec.beta * spec.delta)
            photon = qerase.simulate(b, dist)
            qerase.path_marginal(photon)
            qerase.polarization_marginal(photon)
            qerase.path_final_closed_form(b, dist)
        info = qerase.linalg._pattern_plan.cache_info()
        assert info.misses == info.currsize <= info.maxsize // 4, info
        # a qubit (x) 4 diagonal values: the plain order of the composite
        # state, and simulate's with the circuit's relabeling
        info = qerase.linalg._kron_order.cache_info()
        assert info.misses == info.currsize == 2, info
        for perm in (None, DEFAULT_CIRCUIT_PERMUTATION):
            qerase.linalg._kron_order(2, 4, True, perm)
        assert qerase.linalg._kron_order.cache_info().misses == 2
