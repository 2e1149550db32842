import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qerase.channel
import qerase.states
import qerase.thermo
import qerase.verify
from conftest import numpy_permutation, to_numpy
from qerase.cli import main
from qerase.linalg import ComplexMatrix, compose_permutations
from qerase.states import ThermalSpec
from qerase.thermo import ErasureReport, commutator_norm
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
    check_memory_heat_temperature_independence,
    check_memory_reset,
    check_optics_transformations,
    check_permutation_identity,
    check_reservoir_heat_sign,
    check_unitarity,
    run_verification,
)


def _photon_shifted(report: ErasureReport) -> ErasureReport:
    """The report with its photon energy 1e-3 too high, every other field copied."""
    fields = {name: getattr(report, name) for name in report.__slots__}
    fields["photon_energy"] += 1e-3
    return ErasureReport(**fields)


def _swap_columns(perm: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    swapped = list(perm)
    swapped[a], swapped[b] = perm[b], perm[a]
    return tuple(swapped)


L1_COLUMNS = (1, 3, 5, 7)  # the inputs with the ancilla in l1, which preselection leaves empty


def _l1_rearrangements() -> list[tuple[int, ...]]:
    """The 23 wrong channel maps that keep the image of every l0 column and
    only rearrange the images of the l1 columns: no check on states sees them."""
    images = tuple(ERASURE_PERMUTATION[c] for c in L1_COLUMNS)
    wrong = []
    for shuffled in itertools.permutations(images):
        if shuffled != images:
            perm = list(ERASURE_PERMUTATION)
            for col, row in zip(L1_COLUMNS, shuffled):
                perm[col] = row
            wrong.append(tuple(perm))
    return wrong


class TestIndividualChecks:
    def test_unitarity_passes_on_real_unitary(self):
        result = check_unitarity(ERASURE_PERMUTATION)
        assert result.status == "pass"
        assert result.detail == "U†U = 1 within 1e-12"

    def test_unitarity_fails_on_a_non_bijection(self):
        # column 1 lands on row 0 as column 0 does, so row 5 is never reached
        assert check_unitarity((0, 0, 3, 6, 2, 7, 1, 4)).status == "fail"
        assert check_unitarity(ERASURE_PERMUTATION[:7]).status == "fail"

    def test_unitarity_judges_as_the_package_judges_a_permutation(self):
        # 0.0 sorts and compares as 0, but cannot index a basis: refused as
        # `linalg._check_permutation` refuses it
        perm = (0.0, 1, 2, 3, 4, 5, 6, 7)
        with pytest.raises(ValueError, match="not a permutation of 0..7"):
            compose_permutations(perm)
        result = check_unitarity(perm)
        assert (result.status, result.detail) == (
            "fail", f"U†U != 1: {perm} is no bijection of 0..7")

    def test_permutation_identity_passes(self):
        result = check_permutation_identity()
        assert result.status == "pass"
        assert result.detail == "columns map by (0, 5, 3, 6, 2, 7, 1, 4)"

    def test_permutation_identity_catches_swapped_columns(self, wrong_channel):
        # still unitary, but no longer the erasure map; the check compares
        # with its own copy, so it sees the map past apply_channel's check
        mutated = _swap_columns(ERASURE_PERMUTATION, 1, 2)
        assert check_unitarity(mutated).status == "pass"
        wrong_channel(mutated)
        result = check_permutation_identity()
        assert result.status == "fail"
        assert "column 1" in result.detail

    def test_permutation_identity_reads_the_applied_map(self, monkeypatch):
        # the check reads the channel through `apply_channel`, one basis
        # projector |c><c| per column, in column order
        inputs = []
        apply = qerase.verify.apply_channel

        def recorded(rho):
            inputs.append(to_numpy(rho))
            return apply(rho)

        monkeypatch.setattr(qerase.verify, "apply_channel", recorded)
        assert check_permutation_identity().status == "pass"
        assert len(inputs) == 8
        for col, rho in enumerate(inputs):
            np.testing.assert_array_equal(rho, np.diag(np.eye(8)[col]))

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


class TestCheckFailures:
    """Each check names what it found wrong when what it reads is corrupted."""

    def test_memory_reset_names_the_first_unreset_draw(self, monkeypatch):
        monkeypatch.setattr(qerase.verify, "memory_ground_fidelity", lambda rho: 0.5)
        result = check_memory_reset(draws=5, rng=random.Random(4))
        assert (result.status, result.detail) == ("fail", "draw 0: fidelity 0.5")

    def test_a_nan_deviation_fails_its_draw(self, monkeypatch):
        # a NaN is over no tolerance by `>`, and `max` would drop it
        monkeypatch.setattr(qerase.thermo, "entropy_decrease", lambda b: math.nan)
        result = check_memory_entropy_drop(draws=5, rng=random.Random(1))
        assert (result.status, result.detail) == ("fail", "draw 0: route gap nan")

    def test_memory_entropy_drop_reads_the_record_named_entropy_decrease(self, monkeypatch):
        # every residual made distinct and the entropy record moved last: the
        # check reports the residual of the record of that name, wherever it is
        residuals = {"memory heat": 1e-3, "reservoir heat": 2e-3, "photon energy": 3e-3,
                     "limit temperature": 4e-3, "entropy decrease": 5e-3}
        original = qerase.verify._cross_check

        def reordered(b, spec):
            report, records = original(b, spec)
            moved = {}
            for name, residual in residuals.items():
                closed, traced, _, tol = records[name]
                moved[name] = closed, traced, residual, tol
            return report, moved

        monkeypatch.setattr(qerase.verify, "_cross_check", reordered)
        result = check_memory_entropy_drop(draws=5, rng=random.Random(1))
        assert (result.status, result.detail) == ("fail", "draw 0: route gap 5.000e-03")

    @pytest.mark.parametrize("above", [False, True])
    def test_memory_entropy_drop_judges_by_the_records_tolerance(self, monkeypatch, above):
        # a residual of exactly the tolerance the record carries passes, and
        # the next double above it fails
        original = qerase.verify._cross_check

        def at_tolerance(b, spec):
            report, records = original(b, spec)
            closed, traced, _, tol = records["entropy decrease"]
            residual = math.nextafter(tol, 1.0) if above else tol
            return report, {**records, "entropy decrease": (closed, traced, residual, tol)}

        monkeypatch.setattr(qerase.verify, "_cross_check", at_tolerance)
        result = check_memory_entropy_drop(draws=5, rng=random.Random(1))
        assert result.status == ("fail" if above else "pass")

    def test_reservoir_heat_sign_catches_a_negative_heat(self, monkeypatch):
        monkeypatch.setattr(qerase.verify, "heat_reservoir", lambda b, spec: -1e-3)
        result = check_reservoir_heat_sign(draws=5, rng=random.Random(4))
        assert result.status == "fail"
        assert result.detail == "draw 0: Q_R = -0.001 negative at beta = 0.0"

    def test_reservoir_heat_sign_checks_the_zero_temperature_balance(self, monkeypatch):
        monkeypatch.setattr(qerase.verify, "heat_reservoir", lambda b, spec: 0.0)
        result = check_reservoir_heat_sign(draws=5, rng=random.Random(4))
        assert result.status == "fail"
        assert result.detail == "at T = 0, Q_R = 0.0 but -Q_M = 0.5"

    def test_commutator_fails_on_a_vanishing_norm(self, monkeypatch):
        monkeypatch.setattr(qerase.verify, "commutator_norm", lambda perm, spec: 0.0)
        result = check_commutator(1.0)
        assert result.status == "fail"
        assert result.detail == "|[U, H]|_F = 0.0 (2*sqrt(2)*delta = 2.8284271247461903)"

    def test_optics_transformations_name_the_misrouted_input(self, monkeypatch):
        # with no element in the circuit, |H,1> stays put but |H,2> does too
        monkeypatch.setattr(qerase.verify, "DEFAULT_CIRCUIT_PERMUTATION", tuple(range(8)))
        result = check_optics_transformations()
        assert result.status == "fail"
        assert result.detail == "input (pol=0, path=2) lands on mode 1, expected 3"


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
                "verify.final_state_closed_form",
                lambda f: lambda b, spec: ComplexMatrix(
                    (to_numpy(f(b, spec)) + 1e-3 * np.eye(8)).tolist()
                ),
                "draw 0: entry deviation 1.000e-03",
            ),
            (
                check_entropy_conservation,
                "verify.von_neumann_entropy",
                _first_call_shifted,
                "draw 0: |S_f - S_i| = 1.000e-03",
            ),
            (
                check_memory_entropy_drop,
                "thermo.entropy_decrease",
                lambda f: lambda b: f(b) + 1e-3,
                "draw 0: route gap 1.000e-03",
            ),
            (
                check_energy_conservation,
                "verify.analyze",
                lambda f: lambda b, spec: _photon_shifted(f(b, spec)),
                "draw 0: U_i - U_f misses the photon energy by 1.000e-03",
            ),
            (
                check_memory_heat_temperature_independence,
                "verify.heat_memory",
                lambda f: lambda b, spec: f(b, spec) + 1e-3,
                "draw 0: Q_M spread 1.000e-03 across beta grid",
            ),
        ],
        ids=["closed_form", "entropy_conservation", "memory_entropy_drop",
             "energy_conservation", "memory_heat_temperature_independence"],
    )
    def test_first_failing_draw_is_reported(self, monkeypatch, check, attr, corrupt, detail):
        module, name = attr.split(".")
        owner = getattr(qerase, module)
        monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
        result = check(draws=5, rng=random.Random(4))
        assert result.name == check.__name__.removeprefix("check_")
        assert result.status == "fail"
        assert result.detail == detail


class TestWrongChannelMaps:
    def test_there_are_23_l1_rearrangements(self):
        wrong = _l1_rearrangements()
        assert len(set(wrong)) == 23 and ERASURE_PERMUTATION not in wrong
        assert all(sorted(perm) == list(range(8)) for perm in wrong)

    @pytest.mark.parametrize("wrong", _l1_rearrangements(), ids=str)
    def test_battery_fails_every_l1_rearrangement(self, wrong_channel, capsys, wrong):
        wrong_channel(wrong)  # past apply_channel's own check
        results = run_verification(draws=40)
        # the states the checks draw never populate an l1 column, so only the
        # check that reads the applied map sees the fault
        assert [r.name for r in results if not r.passed] == ["permutation_identity"]
        first = next(c for c in range(8) if wrong[c] != ERASURE_PERMUTATION[c])
        assert f"column {first} " in results[1].detail
        assert main(["verify", "--draws", "40"]) == 1
        assert "permutation_identity" in capsys.readouterr().out


    def test_battery_lists_a_map_that_apply_channel_refuses(self, monkeypatch, capsys):
        # with the map changed alone, apply_channel refuses it on every call:
        # each check that applies the channel fails with the refusal, and the
        # battery still lists all 13 checks
        wrong = _l1_rearrangements()[0]
        monkeypatch.setattr(qerase.channel, "ERASURE_PERMUTATION", wrong)
        results = run_verification(draws=40)
        assert len(results) == 13
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == [
            "permutation_identity", "closed_form", "memory_reset", "entropy_conservation",
            "memory_entropy_drop", "memory_heat_temperature_independence",
            "energy_conservation",
        ]
        refusal = f"erasure permutation: {wrong} is not the CNOT circuit's {ERASURE_PERMUTATION}"
        assert failed[0].detail == refusal
        assert all(r.detail == f"draw 0: {refusal}" for r in failed[1:])
        assert main(["verify", "--draws", "40"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == [r.name for r in results]

    def test_battery_lists_every_check_when_analyze_raises(self, wrong_channel, capsys):
        # this map, past apply_channel's own check, breaks the reservoir heat,
        # so `analyze` refuses to answer; the two checks that call it fail and
        # name the draw and the refusal
        wrong_channel((3, 5, 0, 6, 2, 7, 1, 4))
        results = run_verification(draws=40)
        assert len(results) == 13
        refused = {r.name: r for r in results if "closed form" in r.detail}
        assert sorted(refused) == ["energy_conservation", "memory_heat_temperature_independence"]
        for result in refused.values():
            assert result.status == "fail"
            assert re.fullmatch(r"draw \d+: reservoir heat: closed form .* disagree", result.detail)
        assert main(["verify", "--draws", "40"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert [c["name"] for c in doc["checks"]] == [r.name for r in results]


    def test_battery_lists_every_check_when_a_state_is_refused(self, monkeypatch, capsys):
        # a reservoir with a negative population fails the density check of
        # every state a sampled check forms: those checks fail and name the
        # draw and the refusal, the battery still lists all 13, and the CLI
        # exits 1, not 2, its code for input it refuses
        monkeypatch.setattr(qerase.states, "_gibbs", lambda x: (1.2, -0.2))
        results = run_verification(draws=5)
        assert len(results) == 13
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == [
            "closed_form", "memory_reset", "entropy_conservation", "memory_entropy_drop",
            "memory_heat_temperature_independence", "energy_conservation",
        ]
        for result in failed:
            assert re.fullmatch(r"draw 0: matrix has eigenvalue \S+ below -1e-10", result.detail)
        assert main(["verify", "--draws", "5"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == [r.name for r in results]


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

    def test_entropy_drop_keeps_its_bits(self, monkeypatch):
        # the 25 entropy draws of the default battery: their worst deviation
        # and exact sum, whose bits reading analyze's record must keep (the
        # verify goldens show only 4 digits)
        gaps = []
        original = qerase.verify._sampled

        def recorded(name, draws, rng, deviation, *formats):
            def kept(b, spec):
                gaps.append(deviation(b, spec))
                return gaps[-1]

            wrapped = kept if name == "memory_entropy_drop" else deviation
            return original(name, draws, rng, wrapped, *formats)

        monkeypatch.setattr(qerase.verify, "_sampled", recorded)
        results = run_verification(draws=1000)
        assert len(gaps) == 25
        assert (max(gaps).hex(), math.fsum(gaps).hex()) == (
            "0x1.6000000000000p-52", "0x1.1500000000000p-49")
        [detail] = [r.detail for r in results if r.name == "memory_entropy_drop"]
        assert detail == "25 draws, closed vs spectral within 3.053e-16"

    def test_zero_delta_skips_commutator_only(self):
        results = run_verification(delta=0.0, draws=20, seed=3)
        by_name = {r.name: r for r in results}
        assert by_name["commutator_nonzero"].status == "skip"
        assert all_passed(results)

    @pytest.mark.parametrize("delta", [5e-324, 1e-320, 1e-300, 1e-160, 1e200, 1e300, 6e307,
                                       7e307, 1.7976931348623157e308])
    def test_extreme_gaps_pass_the_commutator_check(self, delta):
        assert check_commutator(delta).status == "pass"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(
        st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1024)),
    ))
    def test_every_finite_gap_passes_the_commutator_check(self, delta):
        """The norm is delta times 2 sqrt(2), the norm in units of the gap,
        formed once; the check compares in units of the gap at every delta."""
        result = check_commutator(delta)
        assert result.status == "pass"
        norm = commutator_norm(ERASURE_PERMUTATION, ThermalSpec(beta=0.0, delta=delta))
        assert norm == delta * math.sqrt(8.0)
        assert result.detail == f"|[U, H]|_F = {norm!r} (2*sqrt(2)*delta = {norm!r})"

    def test_a_huge_gap_runs_the_whole_battery(self):
        results = run_verification(delta=1e200, draws=5)
        assert len(results) == 13
        assert all_passed(results)

    @pytest.mark.parametrize("delta, draws, message", [
        (-1.0, 5, "delta must be finite and >= 0, got -1.0"),
        (math.nan, 5, "delta must be finite and >= 0, got nan"),
        (math.inf, 5, "delta must be finite and >= 0, got inf"),
        (1.0, 0, "draws must be >= 1, got 0"),
        (1.0, 2.5, "draws must be an integer, got 2.5"),
        (1.0, 40.0, "draws must be an integer, got 40.0"),
    ])
    def test_refuses_what_the_cli_refuses_before_any_check(
        self, monkeypatch, delta, draws, message
    ):
        def unitarity(perm):
            raise AssertionError("a check ran")

        monkeypatch.setattr("qerase.verify.check_unitarity", unitarity)
        with pytest.raises(ValueError) as exc:
            run_verification(delta=delta, draws=draws)
        assert str(exc.value) == message

    def test_all_passed_rejects_failures(self):
        good = CheckResult(name="a", status="pass", detail="")
        bad = CheckResult(name="b", status="fail", detail="")
        assert all_passed([good])
        assert not all_passed([good, bad])

    def test_skip_counts_as_passed(self):
        assert CheckResult(name="s", status="skip", detail="").passed
