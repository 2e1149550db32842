import csv
import io
import json
import math
import subprocess
import sys

import pytest

import qerase.cli
import qerase.thermo
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
        original = qerase.thermo.heat_reservoir
        monkeypatch.setattr(
            qerase.thermo, "heat_reservoir", lambda *args: (1.0 + 1e-8) * original(*args)
        )
        code, out, err = run_cli(capsys, "erase")
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

    def test_each_row_evaluates_entropy_and_memory_heat_once(self, capsys, monkeypatch):
        """ΔS and Q_M run once per row, counted through the CLI's bindings
        and the thermo module's, which `limit_temperature` reads."""
        calls = {"entropy_decrease": 0, "heat_memory": 0}
        for name in calls:
            original = getattr(qerase.thermo, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(qerase.thermo, name, counted)
            monkeypatch.setattr(qerase.cli, name, counted)
        code, _, _ = run_cli(
            capsys, "sweep", "--r", "0.5", "--n-theta", "4", "--n-phi", "3",
            "--temperature", "0.9",
        )
        assert code == 0
        assert calls == {"entropy_decrease": 12, "heat_memory": 12}

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
        _, unit, _ = run_cli(
            capsys, "sweep", "--r", "0.5", "--n-theta", "3", "--n-phi", "1"
        )
        _, scaled, _ = run_cli(
            capsys, "sweep", "--r", "0.5", "--n-theta", "3", "--n-phi", "1",
            "--delta", "2.5",
        )
        unit_rows = list(csv.DictReader(io.StringIO(unit)))
        scaled_rows = list(csv.DictReader(io.StringIO(scaled)))
        for a, b in zip(unit_rows, scaled_rows):
            assert float(a["T_limit"]) == pytest.approx(float(b["T_limit"]), rel=1e-12)
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
        def battery(**kwargs):
            raise AssertionError("the battery ran")

        monkeypatch.setattr("qerase.verify.run_verification", battery)
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


class TestParserPlumbing:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "qerase"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qerase", "erase", "--bloch", "0,0,0"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "erase"
