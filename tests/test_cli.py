import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qerase.cli
import qerase.optics
import qerase.thermo
from qerase.linalg import _matrix, compose_permutations
from qerase.states import BlochVector, ThermalSpec
from qerase.thermo import (
    analyze,
    entropy_decrease,
    heat_memory,
    heat_reservoir,
    limit_temperature,
)
from qerase.cli import (
    K_B_SI,
    SWEEP_COLUMNS,
    _fmt,
    build_parser,
    cmd_convert_units,
    cmd_erase,
    cmd_sweep,
    main,
)
from qerase.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def untag(value):
    if value == "infinite":
        return math.inf
    if value == "-infinite":
        return -math.inf
    if value == "undefined":
        return math.nan
    return float(value)


class TestEraseCommand:
    def test_json_payload_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "erase", "--bloch", "0.5,0,0", "--beta", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["command"] == "erase"
        assert doc["units"] == "natural"
        assert doc["inputs"]["bloch"] == [0.5, 0.0, 0.0]
        report = doc["report"]
        for key in (
            "delta_S",
            "Q_M",
            "Q_R",
            "Q_E",
            "photon_energy",
            "U_initial",
            "U_final",
            "T",
            "T_limit",
            "landauer_violated",
            "landauer_margin",
        ):
            assert key in report

    def test_json_round_trip_recomputes(self, capsys):
        code, out, _ = run_cli(
            capsys, "erase", "--bloch", "0.3,-0.2,0.4", "--temperature", "0.7"
        )
        assert code == 0
        doc = json.loads(out)
        b = BlochVector(*(float(x) for x in doc["inputs"]["bloch"]))
        spec = ThermalSpec.from_beta(
            untag(doc["inputs"]["beta"]),
            untag(doc["inputs"]["delta"]),
            untag(doc["inputs"]["k_B"]),
        )
        fresh = analyze(b, spec)
        report = doc["report"]
        assert untag(report["delta_S"]) == pytest.approx(fresh.delta_s, abs=1e-10)
        assert untag(report["Q_M"]) == pytest.approx(fresh.q_memory, abs=1e-10)
        assert untag(report["Q_R"]) == pytest.approx(fresh.q_reservoir, abs=1e-10)
        assert untag(report["Q_E"]) == pytest.approx(fresh.q_environment, abs=1e-10)
        assert untag(report["photon_energy"]) == pytest.approx(
            fresh.photon_energy, abs=1e-10
        )
        assert untag(report["U_initial"]) == pytest.approx(fresh.u_initial, abs=1e-10)
        assert untag(report["U_final"]) == pytest.approx(fresh.u_final, abs=1e-10)
        assert untag(report["T_limit"]) == pytest.approx(fresh.t_limit, abs=1e-10)
        assert untag(report["T"]) == pytest.approx(fresh.temperature, abs=1e-10)
        assert report["landauer_violated"] == fresh.landauer_violated
        assert untag(report["landauer_margin"]) == pytest.approx(
            fresh.landauer_margin, abs=1e-10
        )

    def test_default_run_is_zero_temperature(self, capsys):
        _, out, _ = run_cli(capsys, "erase")
        doc = json.loads(out)
        assert doc["inputs"]["beta"] == "infinite"
        assert doc["inputs"]["temperature"] == 0.0
        assert doc["report"]["delta_S"] == pytest.approx(math.log(2.0), rel=1e-12)
        assert doc["report"]["landauer_violated"] is False

    def test_si_gap_reproduces_the_kelvin_scale(self, capsys):
        _, out, _ = run_cli(capsys, "erase", "--delta-si", "1.986e-22")
        doc = json.loads(out)
        assert doc["units"] == "SI"
        assert doc["inputs"]["k_B"] == pytest.approx(1.380649e-23, rel=1e-12)
        assert doc["report"]["T_limit"] == pytest.approx(10.3762518612822, rel=1e-11)

    @pytest.mark.parametrize("thermal, want", [
        (["--delta-si", "1e-22", "--temperature", "1e-310"], ("infinite", 0.0)),
        (["--units", "SI", "--beta", "1e-310"], (1e-310, "infinite")),
    ], ids=["cold", "hot"])
    def test_underflowing_si_product_is_not_an_error(self, capsys, thermal, want):
        # k_B T or k_B beta rounds to 0: beta or T is infinite, exit 0
        code, out, err = run_cli(capsys, "erase", *thermal)
        assert (code, err) == (0, "")
        inputs = json.loads(out)["inputs"]
        assert (inputs["beta"], inputs["temperature"]) == want

    def test_ground_state_tags_undefined_limit(self, capsys):
        _, out, _ = run_cli(capsys, "erase", "--bloch", "0,0,1", "--beta", "2")
        doc = json.loads(out)
        assert doc["report"]["T_limit"] == "undefined"
        assert doc["report"]["delta_S"] == 0.0

    def test_pure_transverse_tags_infinite_limit(self, capsys):
        _, out, _ = run_cli(capsys, "erase", "--bloch", "1,0,0", "--beta", "2")
        doc = json.loads(out)
        assert doc["report"]["T_limit"] == "infinite"
        assert doc["report"]["landauer_violated"] is False

    def test_infinite_temperature_margin_tag(self, capsys):
        _, out, _ = run_cli(capsys, "erase", "--temperature", "inf")
        doc = json.loads(out)
        assert doc["inputs"]["beta"] == 0.0
        assert doc["report"]["landauer_margin"] == "infinite"
        assert doc["report"]["landauer_violated"] is True

    def test_csv_format(self, capsys):
        _, out, _ = run_cli(
            capsys, "erase", "--bloch", "0.5,0,0", "--beta", "1", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        header, data = rows
        assert header[:3] == ["r_x", "r_y", "r_z"]
        assert "T_limit" in header
        record = dict(zip(header, data))
        assert float(record["delta_S"]) == pytest.approx(0.562335144619, abs=1e-11)
        assert record["landauer_violated"] == "true"
        assert record["units"] == "natural"

    def test_text_format(self, capsys):
        _, out, _ = run_cli(
            capsys, "erase", "--bloch", "0,0,0", "--format", "text"
        )
        assert "erasure run (natural units)" in out
        assert "delta_S" in out
        assert "T_limit" in out

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "erase", "--bloch", "0,0,0", "--beta", "0")
        doc = json.loads(out)
        # 1/ln 4 rounded to 12 significant digits
        assert doc["report"]["T_limit"] == 0.721347520444

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "erase", "--bloch", "0.1,0,0", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "erase"

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, _, err = run_cli(capsys, "erase", "--output", str(target))
        assert code == 3
        assert "error" in err

    def test_invalid_bloch_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["erase", "--bloch", "0.9,0.9,0.9"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["--beta", "abc"], "argument --beta: not a number: 'abc'"),
        (["--bloch", "1,2"], "expected three comma-separated components, got '1,2'"),
        (["--bloch", "a,b,c"], "non-numeric component in 'a,b,c'"),
    ])
    def test_malformed_argument_exits_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["erase", *argv])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_beta_and_temperature_conflict(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["erase", "--beta", "1", "--temperature", "1"])
        assert excinfo.value.code == 2

    def test_delta_conflict_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "erase", "--delta", "1", "--delta-si", "1e-22"
        )
        assert code == 2
        assert "either" in err

    def test_natural_units_with_an_si_gap_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "erase", "--units", "natural", "--delta-si", "1.986e-22"
        )
        assert (code, out) == (2, "")
        assert err == "error: --delta-si is in joules; it cannot run with --units natural\n"

    def test_si_units_with_an_si_gap_runs(self, capsys):
        code, out, _ = run_cli(capsys, "erase", "--units", "SI", "--delta-si", "1.986e-22")
        assert code == 0
        assert json.loads(out)["units"] == "SI"

    def test_negative_delta_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "erase", "--delta", "-1")
        assert code == 2
        assert "positive" in err

    def test_negative_beta_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "erase", "--beta", "-2")
        assert code == 2

    def test_failed_cross_check_exits_one_without_a_traceback(self, capsys, monkeypatch):
        # `analyze` checks Q_R in units of the gap, the closed form `_heat_reservoir`
        original = qerase.thermo._heat_reservoir
        monkeypatch.setattr(
            qerase.thermo, "_heat_reservoir", lambda *args: (1.0 + 1e-8) * original(*args)
        )
        for gap in ([], ["--delta-si", "1.986e-22", "--temperature", "12"]):
            code, out, err = run_cli(capsys, "erase", *gap)
            assert code == 1
            assert out == ""
            assert err.startswith("error: reservoir heat: closed form ")
            assert "Traceback" not in err

    def test_negative_entropy_closed_form_exits_one(self, capsys, monkeypatch):
        # near purity dS ~ 1.5e-11 is below the route tolerance, so only the
        # sign check sees the flip; it is a failed check, not a bad input
        original = qerase.thermo.entropy_decrease
        monkeypatch.setattr(qerase.thermo, "entropy_decrease", lambda b: -original(b))
        code, out, err = run_cli(capsys, "erase", "--bloch", "0,0,0.999999999999", "--beta", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: entropy decrease: closed form -")
        assert err.endswith(" is negative\n")

    def test_near_pure_memory_reports_the_heat_entropy_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "erase", "--format", "csv", "--beta", "10",
            "--bloch=-0.09177774222663736,0.5804673280311704,-0.8090947728161947",
        )
        assert code == 0
        header, data = list(csv.reader(io.StringIO(out)))
        record = dict(zip(header, data))
        assert float(record["T_limit"]) == pytest.approx(
            -float(record["Q_M"]) / float(record["delta_S"]), rel=1e-11
        )


class TestSweepCommand:
    def test_csv_schema_and_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--r", "0.5", "--n-theta", "5", "--n-phi", "4"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(SWEEP_COLUMNS)
        data = rows[1:]
        assert len(data) == 5 * 4
        thetas = [float(row[0]) for row in data]
        # theta-major: first block shares theta = 0, last shares theta = pi
        assert thetas[:4] == [0.0] * 4
        assert thetas[-4:] == pytest.approx([math.pi] * 4, abs=1e-11)
        phis = [float(row[1]) for row in data[:4]]
        assert phis == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2], abs=1e-11)
        assert max(float(row[1]) for row in data) < 2.0 * math.pi - 1e-9

    def test_row_values_match_library(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--r", "0.3", "--n-theta", "3", "--n-phi", "2"
        )
        rows = list(csv.reader(io.StringIO(out)))
        record = dict(zip(rows[0], rows[2]))  # theta = 0, phi = pi
        b = BlochVector(
            float(record["r_x"]), float(record["r_y"]), float(record["r_z"])
        )
        assert float(record["T_limit"]) == pytest.approx(
            limit_temperature(b, ThermalSpec(beta=math.inf)), rel=1e-9
        )
        assert float(record["Q_M"]) == pytest.approx(-(1 - b.r_z) / 2, rel=1e-9)

    @pytest.mark.parametrize("thermal", [["--beta", "inf"], ["--temperature", "0.9"]],
                             ids=["cold", "warm"])
    @pytest.mark.parametrize("delta", ["1", "2"])
    @pytest.mark.parametrize("r", ["0", "0.5", repr(1.0 - 1e-9), "1"])
    def test_every_cell_is_the_public_closed_form(self, capsys, r, delta, thermal):
        """Each row prints, bit for bit, the public closed forms on the row's
        own BlochVector, T_limit as `limit_temperature` over the gap."""
        argv = ["sweep", "--r", r, "--n-theta", "5", "--n-phi", "4", "--delta", delta, *thermal]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        args = build_parser().parse_args(argv)
        raw = cmd_sweep(args)["rows"]
        d = float(delta)
        spec = (ThermalSpec.from_temperature(0.9, d) if "--temperature" in thermal
                else ThermalSpec.from_beta(math.inf, d))
        assert len(rows) == len(raw) == 5 * 4
        for row, (theta, phi, r_x, r_y, r_z, *_) in zip(rows, raw):
            b = BlochVector(r_x, r_y, r_z)
            assert row == [_fmt(x) for x in (
                theta, phi, b.r_x, b.r_y, b.r_z, entropy_decrease(b), heat_memory(b, spec),
                heat_reservoir(b, spec), limit_temperature(b, spec) / spec.delta,
            )]

    def test_each_row_is_one_analyze_call(self, capsys, monkeypatch):
        """Each row takes one path, `analyze`'s: one call per cell, which
        evaluates ΔS once and Q_M twice, for its record and inside
        `_limit_temperature`, all counted through the thermo module's names
        and the `analyze` binding the CLI calls."""
        calls = {"analyze": 0, "entropy_decrease": 0, "_heat_memory": 0}
        for name in calls:
            original = getattr(qerase.thermo, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(qerase.thermo, name, counted)
        monkeypatch.setattr(qerase.cli, "analyze", qerase.thermo.analyze)
        code, _, _ = run_cli(
            capsys, "sweep", "--r", "0.5", "--n-theta", "4", "--n-phi", "3",
            "--temperature", "0.9",
        )
        assert code == 0
        assert calls == {"analyze": 12, "entropy_decrease": 12, "_heat_memory": 24}

    @pytest.mark.parametrize("name, record", [
        ("entropy_decrease", "entropy decrease"),
        ("_heat_memory", "memory heat"),
        ("_heat_reservoir", "reservoir heat"),
    ])
    def test_a_wrong_closed_form_exits_one(self, capsys, monkeypatch, tmp_path, name, record):
        """A closed form off by 1e-6 fails its trace route in the first row:
        `sweep` exits 1 with the record's reason on stderr, as `erase` does,
        and prints no row, on stdout or to the output file."""
        original = getattr(qerase.thermo, name)
        monkeypatch.setattr(qerase.thermo, name, lambda *args: (1.0 + 1e-6) * original(*args))
        target = tmp_path / "sweep.csv"
        for output in ([], ["--output", str(target)]):
            code, out, err = run_cli(capsys, "sweep", "--r", "0.5", "--temperature", "0.9",
                                     *output)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {record}: closed form ")
        assert not target.exists()

    def test_a_failing_cell_is_named(self, capsys, monkeypatch, tmp_path):
        """A failure injected at one mid-grid cell exits 1 with `analyze`'s
        message, then that cell's indices and angles, and prints no row."""
        original = qerase.thermo._heat_memory
        bad = BlochVector(0.5 * math.sin(math.pi / 2) * math.cos(math.pi),
                          0.5 * math.sin(math.pi / 2) * math.sin(math.pi),
                          0.5 * math.cos(math.pi / 2))  # cell i=2, j=1 of a 5x2 grid

        def wrong(b):
            return original(b) + (1e-6 if b == bad else 0.0)

        monkeypatch.setattr(qerase.thermo, "_heat_memory", wrong)
        target = tmp_path / "sweep.csv"
        argv = ["sweep", "--r", "0.5", "--n-theta", "5", "--n-phi", "2", "--beta", "1"]
        for output in ([], ["--output", str(target)]):
            code, out, err = run_cli(capsys, *argv, *output)
            assert (code, out) == (1, "")
            assert err.startswith("error: memory heat: closed form ")
            assert err.endswith(f" (cell i=2, j=1: theta={math.pi / 2!r}, phi={math.pi!r})\n")
        assert not target.exists()

    def test_zero_temperature_default_balances_heats(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--r", "0.4", "--n-theta", "3", "--n-phi", "2"
        )
        for row in csv.DictReader(io.StringIO(out)):
            assert float(row["Q_R"]) == -float(row["Q_M"])

    def test_finite_beta_shrinks_reservoir_heat(self, capsys):
        _, cold, _ = run_cli(
            capsys, "sweep", "--r", "0.4", "--n-theta", "3", "--n-phi", "1"
        )
        _, warm, _ = run_cli(
            capsys, "sweep", "--r", "0.4", "--n-theta", "3", "--n-phi", "1",
            "--beta", "1",
        )
        cold_rows = list(csv.DictReader(io.StringIO(cold)))
        warm_rows = list(csv.DictReader(io.StringIO(warm)))
        for c, w in zip(cold_rows, warm_rows):
            assert float(w["Q_R"]) <= float(c["Q_R"]) + 1e-15
            assert float(w["Q_M"]) == float(c["Q_M"])

    def test_t_limit_column_is_gap_invariant(self, capsys):
        """T_limit is in units of delta / k_B, taken from the rule on Q_M in
        units of the gap, so it has the same bits at every gap, the smallest
        and the largest double included; Q_M scales with the gap."""
        argv = ["sweep", "--r", "0.5", "--n-theta", "3", "--n-phi", "1", "--temperature", "0.9"]
        printed, exact = [], []
        for delta in ("1", "2.5", "0.6", "5e-324", "1.7976931348623157e308"):
            code, out, _ = run_cli(capsys, *argv, "--delta", delta)
            assert code == 0
            printed.append(list(csv.DictReader(io.StringIO(out))))
            rows = cmd_sweep(build_parser().parse_args([*argv, "--delta", delta]))["rows"]
            exact.append([row[-1].hex() for row in rows])
        unit_rows, scaled_rows = printed[:2]
        assert [row["T_limit"] for row in unit_rows] == [
            "0.444574738734", "0.889149477469", "1.3337242162"]
        assert all([row["T_limit"] for row in rows] == [row["T_limit"] for row in unit_rows]
                   for rows in printed)
        assert exact == [exact[0]] * 5
        for a, b in zip(unit_rows, scaled_rows):
            assert float(b["Q_M"]) == pytest.approx(2.5 * float(a["Q_M"]), rel=1e-12)

    def test_pole_of_pure_sweep_is_undefined(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--r", "1", "--n-theta", "3", "--n-phi", "1"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["T_limit"] == "undefined"  # r_z = 1 exactly at theta = 0
        assert rows[0]["delta_S_nats"] == "0"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--r", "0.2", "--n-theta", "3", "--n-phi", "2",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("theta,phi")

    def test_invalid_radius_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--r", "1.5")
        assert code == 2
        assert "[0, 1]" in err

    def test_too_few_samples_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--r", "0.5", "--n-theta", "1")
        assert code == 2


class TestOpticsCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "optics", "--pol", "0.6,0,0.8", "--p1", "0.75")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "optics"
        assert doc["inputs"]["p_1"] == 0.75
        assert doc["polarization_fidelity_H"] == 1.0
        assert doc["encoding_equivalent"] is True
        assert doc["closed_form_max_deviation"] == 0.0
        assert len(doc["final_state"]) == 8
        assert len(doc["final_state"][0]) == 8
        assert len(doc["final_state"][0][0]) == 2
        assert len(doc["path_marginal"]) == 4
        assert doc["mode_labels"][0] == "|H,1>"

    def test_named_polarizations(self, capsys):
        _, out_h, _ = run_cli(capsys, "optics", "--pol", "H")
        doc = json.loads(out_h)
        assert doc["inputs"]["pol"] == [0.0, 0.0, 1.0]
        _, out_v, _ = run_cli(capsys, "optics", "--pol", "v")
        assert json.loads(out_v)["inputs"]["pol"] == [0.0, 0.0, -1.0]

    def test_text_format(self, capsys):
        _, out, _ = run_cli(capsys, "optics", "--pol", "H", "--format", "text")
        assert "encodings agree  true" in out
        assert "path marginal" in out

    @pytest.mark.parametrize("swap, want", [
        ((0, 3), "error: path marginal: simulation and closed form differ by 1.0, more than 1e-12"),
        ((0, 4), "error: encoding: input |H,1>: circuit sends it to |V,1>, channel says |H,1>"),
    ])
    def test_a_wrong_circuit_exits_one(self, capsys, monkeypatch, swap, want):
        """A circuit that sends |H,1> to path 4 moves the path marginal off
        its closed form; one that flips it to |V,1> keeps the marginal of an
        H photon on path 1 and breaks the encoding. Either exits 1 with the
        reason on stderr and prints no number."""
        wrong = compose_permutations(qerase.optics.DEFAULT_CIRCUIT_PERMUTATION,
                                     qerase.optics._swap(*swap))
        monkeypatch.setattr(qerase.optics, "DEFAULT_CIRCUIT_PERMUTATION", wrong)
        code, out, err = run_cli(capsys, "optics", "--pol", "H", "--p1", "1")
        assert (code, out, err) == (1, "", want + "\n")

    def test_a_closed_form_off_by_more_than_the_tolerance_exits_one(self, capsys, monkeypatch):
        original = qerase.optics.path_final_closed_form

        def off(pol, dist):
            return _matrix(tuple(x * (1.0 + 1e-9) for x in original(pol, dist)._flat), 4)

        monkeypatch.setattr(qerase.optics, "path_final_closed_form", off)
        code, out, err = run_cli(capsys, "optics", "--pol", "0.6,0,0.8", "--p1", "0.75")
        assert (code, out) == (1, "")
        assert err == ("error: path marginal: simulation and closed form differ by"
                       " 6.750000558497504e-10, more than 1e-12\n")

    def test_invalid_weight_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "optics", "--p1", "1.5")
        assert code == 2

    def test_overflowing_polarization_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optics", "--pol=1e200,0,0"])
        assert excinfo.value.code == 2
        assert "unphysical Bloch vector" in capsys.readouterr().err


class TestVerifyCommand:
    def test_passing_battery_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--draws", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert {c["status"] for c in doc["checks"]} == {"pass"}
        assert doc["parameters"]["draws"] == 40

    def test_text_format_lists_every_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--draws", "30", "--format", "text")
        assert code == 0
        assert "all checks passed" in out
        assert out.count("PASS") >= 10

    def test_zero_delta_skips_commutator(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--delta", "0", "--draws", "20")
        assert code == 0
        doc = json.loads(out)
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["commutator_nonzero"] == "skip"

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "qerase.verify.run_verification",
            lambda **kwargs: [CheckResult(name="forced", status="fail", detail="boom")],
        )
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_negative_draws_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--draws", "0")
        assert code == 2

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_exits_two_before_the_battery(self, capsys, monkeypatch, delta):
        def first_check(*args):
            raise AssertionError("the battery ran")

        # `run_verification` checks its inputs first, then runs this check
        monkeypatch.setattr("qerase.verify.check_unitarity", first_check)
        code, out, err = run_cli(capsys, "verify", "--delta", delta)
        assert code == 2
        assert out == ""
        assert f"delta must be finite and >= 0, got {float(delta)!r}" in err


class TestConvertUnits:
    def test_kelvin_to_natural(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert-units", "--delta-si", "1.986e-22", "--kelvin",
            "10.3762518612822",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["natural"] == pytest.approx(0.7213475204444817, rel=1e-11)
        assert doc["beta_delta"] == pytest.approx(math.log(4.0), rel=1e-11)

    def test_natural_to_kelvin_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "convert-units", "--delta-si", "1.986e-22", "--natural",
            "0.7213475204444817",
        )
        doc = json.loads(out)
        assert doc["kelvin"] == pytest.approx(10.3762518612822, rel=1e-11)

    def test_zero_kelvin_tags_infinite_beta(self, capsys):
        _, out, _ = run_cli(
            capsys, "convert-units", "--delta-si", "1e-22", "--kelvin", "0"
        )
        doc = json.loads(out)
        assert doc["beta_delta"] == "infinite"
        assert doc["natural"] == 0.0

    def test_beta_delta_is_the_one_erase_runs_at(self):
        # at this gap and temperature, (delta / k_B) / T and (1 / (k_B T)) delta
        # differ in the last bit; both subcommands must take the second
        parser = build_parser()
        erase = cmd_erase(parser.parse_args(
            ["erase", "--delta-si", "1.986e-22", "--temperature", "4.2"]
        ))["inputs"]
        convert = cmd_convert_units(parser.parse_args(
            ["convert-units", "--delta-si", "1.986e-22", "--kelvin", "4.2"]
        ))
        assert convert["beta_delta"] == erase["beta"] * erase["delta"]

    def test_negative_natural_temperature_is_reported_in_kelvin(self, capsys):
        code, out, err = run_cli(
            capsys, "convert-units", "--delta-si", "1.986e-22", "--natural", "-1"
        )
        assert (code, out) == (2, "")
        assert f"temperature must be >= 0, got {-1.986e-22 / K_B_SI!r}" in err

    def test_requires_exactly_one_direction(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["convert-units", "--delta-si", "1e-22"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main([
                "convert-units", "--delta-si", "1e-22", "--kelvin", "1",
                "--natural", "1",
            ])
        assert excinfo.value.code == 2

    def test_non_positive_gap_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "convert-units", "--delta-si", "0", "--kelvin", "1")
        assert code == 2

    @pytest.mark.parametrize("direction", ["--kelvin", "--natural"])
    def test_nan_temperature_exits_two(self, capsys, direction):
        code, out, err = run_cli(
            capsys, "convert-units", "--delta-si", "1.986e-22", direction, "nan"
        )
        assert code == 2
        assert out == ""
        assert "temperature must be >= 0, got nan" in err

    @pytest.mark.parametrize("direction, value, kelvin, natural", [
        ("--natural", "0", 0.0, 0.0),
        ("--natural", "1e-300", 7.24297051604e22, 1e-300),
        ("--kelvin", "1e300", 1e300, 1.380649e-23),
        ("--kelvin", "inf", "infinite", "infinite"),
    ])
    def test_a_gap_past_k_B_times_the_float_range_converts(
        self, capsys, direction, value, kelvin, natural
    ):
        # delta / k_B overflows: each temperature is formed as (t a) / b, so
        # 0 natural units is 0 K, not 0 * inf, and a finite kelvin value is
        # not divided by inf into a false 0
        code, out, _ = run_cli(capsys, "convert-units", "--delta-si", "1e300", direction, value)
        assert code == 0
        doc = json.loads(out)
        assert doc["kelvin_per_natural"] == "infinite"
        assert (doc["kelvin"], doc["natural"]) == (kelvin, natural)


DOUBLE_EDGES = (0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)
TAGS = ("infinite", "-infinite", "undefined")
doubles = st.one_of(  # by exponent, over the whole range, and its edges
    st.sampled_from(DOUBLE_EDGES),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1024)),
)
radii = st.one_of(  # [0, 1] by exponent, and near purity
    st.sampled_from((0.0, 5e-324, 2.2250738585072014e-308, 1.0)),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 0)),
    st.builds(lambda e: 1.0 - math.ldexp(1.0, -e), st.integers(1, 53)),
)
DIRECTIONS = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (-0.6, 0.0, 0.8),
              (0.48, -0.6, 0.64))


def _bloch_argument(r, direction):
    return "--bloch=" + ",".join(repr(r * c) for c in direction)


thermals = st.tuples(st.sampled_from(("--beta", "--temperature")), doubles.map(repr))
commands = st.one_of(
    st.builds(lambda bloch, gap, delta, thermal: ("erase", bloch, gap, repr(delta), *thermal),
              st.builds(_bloch_argument, radii, st.sampled_from(DIRECTIONS)),
              st.sampled_from(("--delta", "--delta-si")), doubles, thermals),
    st.builds(lambda r, delta, thermal: ("sweep", "--r", repr(r), "--n-theta", "3",
                                         "--n-phi", "2", "--delta", repr(delta), *thermal),
              radii, doubles, thermals),
    st.builds(lambda delta, direction, t: ("convert-units", "--delta-si", repr(delta),
                                           direction, repr(t)),
              doubles, st.sampled_from(("--kelvin", "--natural")), doubles),
    st.builds(lambda delta: ("verify", "--delta", repr(delta), "--draws", "3"), doubles),
)


def _leaves(value):
    """Every scalar of a JSON document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


weights = st.one_of(  # signed, by exponent, and the edges of [0, 1]
    st.sampled_from((0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52,
                     math.nan, math.inf)),
    st.builds(lambda sign, m, e: sign * math.ldexp(m, e), st.sampled_from((1.0, -1.0)),
              st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1024)),
)
polarizations = st.one_of(
    st.sampled_from(("H", "V")),
    st.builds(lambda r, direction: ",".join(repr(r * c) for c in direction),
              st.one_of(radii, st.floats(0.0, 1.0)), st.sampled_from(DIRECTIONS)),
)


class TestInputDomain:
    """Every subcommand over its input domain: gaps, temperatures, inverse
    temperatures and radii drawn by exponent over the whole double range,
    with its edges, and Bloch vectors near purity."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(commands)
    def test_every_run_exits_0_or_refuses_a_zero_gap(self, argv):
        """Inside the domain each run exits 0 and prints only finite numbers
        or tags. A gap of 0 is the one input outside it, which exits 2 with
        a message, except `verify --delta 0`, which skips the commutator
        check. No run exits 1 or raises."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        gap = float(argv[argv.index("--delta-si" if "--delta-si" in argv else "--delta") + 1])
        if gap == 0.0 and argv[0] != "verify":
            assert (code, out.getvalue()) == (2, ""), argv
            assert err.getvalue().startswith("error: ") and "must be positive" in err.getvalue()
            return
        assert (code, err.getvalue()) == (0, ""), argv
        if argv[0] == "sweep":
            rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
            assert all(cell in TAGS or math.isfinite(float(cell)) for row in rows for cell in row)
        else:  # JSON prints a float that is not finite only as a bare Infinity or NaN
            json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(f"{argv}: {name}"))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(polarizations, weights, st.sampled_from(("json", "text")))
    def test_optics_exits_0_or_refuses_a_weight_outside_0_1(self, pol, p1, fmt):
        """Each weight in [0, 1] runs and prints only finite numbers; any
        other exits 2 with a message. The `=` form passes a negative weight,
        which argparse would read as an option."""
        argv = ["optics", f"--pol={pol}", f"--p1={p1!r}", "--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if not 0.0 <= p1 <= 1.0:
            assert (code, out.getvalue()) == (2, ""), argv
            assert err.getvalue().startswith("error: "), argv
            return
        assert (code, err.getvalue()) == (0, ""), argv
        if fmt == "json":  # a float that is not finite prints as a bare Infinity or NaN, or a tag
            doc = json.loads(out.getvalue(),
                             parse_constant=lambda name: pytest.fail(f"{argv}: {name}"))
            assert not set(TAGS) & set(_leaves(doc)), argv
        else:
            assert not any(word in out.getvalue() for word in ("inf", "nan", "undefined")), argv


class TestParserPlumbing:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "qerase"

    def test_output_is_each_subcommand_s_last_option(self):
        """Every subcommand takes `--output PATH`, added after its own
        options, so each help lists it last."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == ["convert-units", "erase", "optics", "sweep", "verify"]
        for name, parser in sub.choices.items():
            last = parser._actions[-1]
            assert (last.option_strings, last.default, last.metavar) == (
                ["--output"], None, "PATH"), name

    def test_help_is_the_stock_formatter_s(self, monkeypatch):
        """Every parser formats with the formatter that reads the terminal
        width only when it formats, and its help and usage at 40, 80 and
        200 columns are those of a parser built with argparse's own
        formatter, whose subcommands' prog argparse derives itself."""
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def built():
            parser = build_parser()
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return [parser, *(sub.choices[name] for name in sorted(sub.choices))]

        ours = built()
        assert {p.formatter_class for p in ours} == {qerase.cli._HelpFormatter}
        with monkeypatch.context() as stock:
            stock.setattr(qerase.cli, "_HelpFormatter", argparse.HelpFormatter)
            stock.setattr(argparse.ArgumentParser, "add_subparsers",
                          lambda self, prog, **kwargs: add_subparsers(self, **kwargs))
            theirs = built()
        assert {p.formatter_class for p in theirs} == {argparse.HelpFormatter}
        helps = set()
        for columns in (40, 80, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            for got, want in zip(ours, theirs):
                assert got.format_help() == want.format_help(), (columns, got.prog)
                assert got.format_usage() == want.format_usage(), (columns, got.prog)
            helps.add(ours[1].format_help())
        assert len(helps) == 3  # each width wraps the help its own way

    @pytest.mark.parametrize("text, code", [
        ("inf", 0), (" INF ", 0), ("Infinity", 0), ("+inf", 0), ("infinite", 0),
        ("INFINITE", 0), ("infinit", 2), ("-infinite", 2),
    ])
    def test_beta_reads_each_spelling_of_infinity(self, capsys, text, code):
        """`--beta` reads what `float` reads as inf, in any case, signed or
        padded, and the tag `infinite` that the CLI prints; nothing else."""
        try:
            got = main(["erase", f"--beta={text}"])
        except SystemExit as exc:  # argparse's rejection
            got = exc.code
        out, err = capsys.readouterr()
        assert got == code
        if code:
            assert "not a number" in err
        else:
            assert json.loads(out)["inputs"]["beta"] == "infinite"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qerase", "erase", "--bloch", "0,0,0"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "erase"
