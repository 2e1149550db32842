import random

import numpy as np
import pytest

import qerase.verify
from conftest import numpy_permutation, to_numpy
from qerase.linalg import ComplexMatrix, permutation_matrix
from qerase.thermo import ErasureReport
from qerase.channel import ERASURE_PERMUTATION, build_circuit, circuit_permutation
from qerase.verify import (
    CheckResult,
    all_passed,
    check_circuit_synthesis,
    check_closed_form,
    check_commutator,
    check_encoding_equivalence,
    check_energy_conservation,
    check_entropy_conservation,
    check_memory_entropy_drop,
    check_memory_reset,
    check_optics_transformations,
    check_permutation_identity,
    check_unitarity,
    run_verification,
)


def _photon_shifted(report: ErasureReport) -> ErasureReport:
    """The report with its photon energy 1e-3 too high, every other field copied."""
    fields = {name: getattr(report, name) for name in report.__slots__}
    fields["photon_energy"] += 1e-3
    return ErasureReport(**fields)


def _swap_columns(matrix: ComplexMatrix, a: int, b: int) -> ComplexMatrix:
    rows = [list(row) for row in matrix.rows]
    for row in rows:
        row[a], row[b] = row[b], row[a]
    return ComplexMatrix(rows)


class TestIndividualChecks:
    def test_unitarity_passes_on_real_unitary(self):
        assert check_unitarity(permutation_matrix(ERASURE_PERMUTATION)).status == "pass"

    def test_unitarity_fails_on_scaled_matrix(self):
        broken = ComplexMatrix((0.9 * numpy_permutation(ERASURE_PERMUTATION)).tolist())
        assert check_unitarity(broken).status == "fail"

    def test_permutation_identity_passes(self):
        result = check_permutation_identity(permutation_matrix(ERASURE_PERMUTATION))
        assert result.status == "pass"

    def test_permutation_identity_catches_swapped_columns(self):
        # still unitary, but no longer the erasure map
        mutated = _swap_columns(permutation_matrix(ERASURE_PERMUTATION), 1, 2)
        assert check_unitarity(mutated).status == "pass"
        result = check_permutation_identity(mutated)
        assert result.status == "fail"
        assert "entry" in result.detail

    def test_circuit_synthesis_passes(self):
        result = check_circuit_synthesis()
        assert result.status == "pass"
        assert "4 CNOTs" in result.detail

    def test_circuit_synthesis_reports_the_dense_distance(self, monkeypatch):
        # with the last gate dropped the tuples differ; the reported distance
        # is the Frobenius distance of the dense matrices
        short = build_circuit()[:-1]
        monkeypatch.setattr("qerase.verify.build_circuit", lambda: short)
        result = check_circuit_synthesis()
        assert result.status == "fail"
        target = numpy_permutation(ERASURE_PERMUTATION)
        dist = float(np.linalg.norm(numpy_permutation(circuit_permutation(short)) - target))
        assert dist > 0.0
        assert result.detail == f"3 CNOTs, Frobenius distance {dist!r}"

    def test_closed_form_sampling(self):
        result = check_closed_form(draws=50, rng=random.Random(1))
        assert result.status == "pass"

    def test_memory_reset_sampling(self):
        result = check_memory_reset(draws=50, rng=random.Random(2))
        assert result.status == "pass"

    def test_commutator_pass_and_skip(self):
        result = check_commutator(1.0)
        assert result.status == "pass"
        assert "2.8284271247461903" in result.detail
        skipped = check_commutator(0.0)
        assert skipped.status == "skip"
        assert skipped.passed

    def test_optics_checks(self):
        assert check_optics_transformations().status == "pass"
        assert check_encoding_equivalence().status == "pass"


def _first_call_shifted(fn):
    """`fn` with 1e-3 added to the result of its first call only: a shift
    on every call would cancel in S_f - S_i."""
    shifts = iter([1e-3])
    return lambda *args: fn(*args) + next(shifts, 0.0)


class TestSampledCheckFailures:
    """A sampled check stops at the first draw over its tolerance and names
    it. Each case corrupts what one check compares so that draw 0 is off by
    1e-3."""

    @pytest.mark.parametrize(
        "check,attr,corrupt,detail",
        [
            (
                check_closed_form,
                "final_state_closed_form",
                lambda f: lambda b, spec: ComplexMatrix(
                    (to_numpy(f(b, spec)) + 1e-3 * np.eye(8)).tolist()
                ),
                "draw 0: entry deviation 1.000e-03",
            ),
            (
                check_entropy_conservation,
                "von_neumann_entropy",
                _first_call_shifted,
                "draw 0: |S_f - S_i| = 1.000e-03",
            ),
            (
                check_memory_entropy_drop,
                "entropy_decrease",
                lambda f: lambda b: f(b) + 1e-3,
                "draw 0: route gap 1.000e-03",
            ),
            (
                check_energy_conservation,
                "analyze",
                lambda f: lambda b, spec: _photon_shifted(f(b, spec)),
                "draw 0: U_i - U_f misses the photon energy by 1.000e-03",
            ),
        ],
        ids=["closed_form", "entropy_conservation", "memory_entropy_drop",
             "energy_conservation"],
    )
    def test_first_failing_draw_is_reported(self, monkeypatch, check, attr, corrupt, detail):
        monkeypatch.setattr(qerase.verify, attr, corrupt(getattr(qerase.verify, attr)))
        result = check(draws=5, rng=random.Random(4))
        assert result.name == check.__name__.removeprefix("check_")
        assert result.status == "fail"
        assert result.detail == detail


class TestBattery:
    def test_full_battery_passes(self):
        results = run_verification(draws=60, seed=7)
        assert all_passed(results)
        names = [r.name for r in results]
        assert names.count("unitarity") == 1
        assert "closed_form" in names
        assert "encoding_equivalence" in names
        assert len(names) == len(set(names))

    def test_battery_is_deterministic_for_a_seed(self):
        a = run_verification(draws=30, seed=99)
        b = run_verification(draws=30, seed=99)
        assert [(r.name, r.status, r.detail) for r in a] == [
            (r.name, r.status, r.detail) for r in b
        ]

    def test_zero_delta_skips_commutator_only(self):
        results = run_verification(delta=0.0, draws=20, seed=3)
        by_name = {r.name: r for r in results}
        assert by_name["commutator_nonzero"].status == "skip"
        assert all_passed(results)

    def test_all_passed_rejects_failures(self):
        good = CheckResult(name="a", status="pass", detail="")
        bad = CheckResult(name="b", status="fail", detail="")
        assert all_passed([good])
        assert not all_passed([good, bad])

    def test_skip_counts_as_passed(self):
        assert CheckResult(name="s", status="skip", detail="").passed
