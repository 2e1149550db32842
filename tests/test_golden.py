"""Golden CLI outputs: exact stdout bytes and exit code of each subcommand.

Each case runs `qerase.cli.main` in process and compares stdout with
`tests/golden/<name>.out` byte for byte. The files pin every format, the
12-digit rounding, the `infinite`/`undefined` tags and every `verify`
detail string, so a refactor that changes no behaviour changes no file.
The cases run once more in a `python -S` interpreter, where site-packages
are off the path, so the CLI must print the same bytes on the standard
library alone.

Regenerate the files only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from qerase.cli import main
from qerase.verify import CheckResult

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
MISSING_DIR = "no-such-directory/out.txt"

# (name, argv, exit code)
CASES = [
    ("erase_default_json", ["erase"], 0),
    ("erase_json", ["erase", "--bloch", "0.5,0,0", "--temperature", "0.9"], 0),
    ("erase_csv", ["erase", "--bloch", "0.5,0,0", "--temperature", "0.9", "--format", "csv"], 0),
    ("erase_text", ["erase", "--bloch", "0.5,0,0", "--temperature", "0.9", "--format", "text"], 0),
    ("erase_si_json", ["erase", "--delta-si", "1.986e-22", "--bloch", "0.3,-0.2,0.4",
                       "--temperature", "12"], 0),
    ("erase_si_csv", ["erase", "--delta-si", "1.986e-22", "--bloch", "0.3,-0.2,0.4",
                      "--temperature", "12", "--format", "csv"], 0),
    ("erase_si_text", ["erase", "--delta-si", "1.986e-22", "--bloch", "0.3,-0.2,0.4",
                       "--temperature", "12", "--format", "text"], 0),
    ("erase_units_si_json", ["erase", "--units", "SI", "--bloch", "0.1,0.2,0.3",
                             "--beta", "5e22"], 0),
    ("erase_undefined_json", ["erase", "--bloch", "0,0,1", "--beta", "2"], 0),
    ("erase_undefined_csv", ["erase", "--bloch", "0,0,1", "--beta", "2", "--format", "csv"], 0),
    ("erase_undefined_text", ["erase", "--bloch", "0,0,1", "--beta", "2", "--format", "text"], 0),
    ("erase_infinite_json", ["erase", "--bloch", "1,0,0", "--beta", "2"], 0),
    ("erase_infinite_csv", ["erase", "--bloch", "1,0,0", "--beta", "2", "--format", "csv"], 0),
    ("erase_infinite_text", ["erase", "--bloch", "1,0,0", "--beta", "2", "--format", "text"], 0),
    ("erase_hot_json", ["erase", "--temperature", "inf"], 0),
    ("erase_hot_csv", ["erase", "--temperature", "inf", "--format", "csv"], 0),
    ("erase_hot_text", ["erase", "--temperature", "inf", "--format", "text"], 0),
    ("erase_gap_json", ["erase", "--delta", "0.6", "--bloch", "0.3,-0.2,0.4",
                        "--temperature", "0.9"], 0),
    ("sweep_pole", ["sweep", "--r", "1", "--n-theta", "3", "--n-phi", "2"], 0),
    ("sweep_warm", ["sweep", "--r", "0.5", "--n-theta", "4", "--n-phi", "3",
                    "--temperature", "0.9", "--delta", "2"], 0),
    ("optics_h_json", ["optics", "--pol", "H"], 0),
    ("optics_h_text", ["optics", "--pol", "H", "--format", "text"], 0),
    ("optics_v_json", ["optics", "--pol", "V", "--p1", "0.25"], 0),
    ("optics_v_text", ["optics", "--pol", "V", "--p1", "0.25", "--format", "text"], 0),
    ("optics_mixed_json", ["optics", "--pol", "0.6,0,0.8", "--p1", "0.75"], 0),
    ("optics_mixed_text", ["optics", "--pol", "0.3,-0.4,0.1", "--p1", "0.5",
                           "--format", "text"], 0),
    ("verify_json", ["verify", "--draws", "40"], 0),
    ("verify_text", ["verify", "--draws", "40", "--format", "text"], 0),
    ("verify_delta0_json", ["verify", "--delta", "0", "--draws", "20", "--seed", "3"], 0),
    ("verify_delta0_text", ["verify", "--delta", "0", "--draws", "20", "--seed", "3",
                            "--format", "text"], 0),
    ("verify_gap_json", ["verify", "--delta", "0.6", "--draws", "20", "--seed", "3"], 0),
    ("convert_kelvin", ["convert-units", "--delta-si", "1.986e-22", "--kelvin", "300"], 0),
    ("convert_natural", ["convert-units", "--delta-si", "1.986e-22", "--natural",
                         "0.7213475204444817"], 0),
    ("convert_zero_kelvin", ["convert-units", "--delta-si", "1e-22", "--kelvin", "0"], 0),
    ("verify_forced_failure_json", ["verify"], 1),
    ("verify_forced_failure_text", ["verify", "--format", "text"], 1),
    ("exit2_no_command", [], 2),
    ("exit2_bad_bloch", ["erase", "--bloch", "0.9,0.9,0.9"], 2),
    ("exit2_overflow_bloch", ["erase", "--bloch=1e200,0,0"], 2),
    ("exit2_beta_and_temperature", ["erase", "--beta", "1", "--temperature", "1"], 2),
    ("exit2_delta_conflict", ["erase", "--delta", "1", "--delta-si", "1e-22"], 2),
    ("exit2_negative_delta", ["erase", "--delta", "-1"], 2),
    ("exit2_negative_beta", ["erase", "--beta", "-2"], 2),
    ("exit2_sweep_radius", ["sweep", "--r", "1.5"], 2),
    ("exit2_sweep_negative_radius", ["sweep", "--r", "-0.1"], 2),
    ("exit2_sweep_n_theta", ["sweep", "--r", "0.5", "--n-theta", "1"], 2),
    ("exit2_sweep_n_phi", ["sweep", "--r", "0.5", "--n-phi", "0"], 2),
    ("exit2_sweep_zero_delta", ["sweep", "--r", "0.5", "--delta", "0"], 2),
    ("exit2_sweep_infinite_delta", ["sweep", "--r", "0.5", "--delta", "inf"], 2),
    ("exit2_sweep_negative_beta", ["sweep", "--r", "0.5", "--beta", "-1"], 2),
    ("exit2_sweep_nan_beta", ["sweep", "--r", "0.5", "--beta", "nan"], 2),
    ("exit2_sweep_zero_delta_temperature", ["sweep", "--r", "0.5", "--delta", "0",
                                            "--temperature", "1"], 2),
    ("exit2_optics_weight", ["optics", "--p1", "1.5"], 2),
    ("exit2_verify_draws", ["verify", "--draws", "0"], 2),
    ("exit2_verify_delta", ["verify", "--delta", "-1"], 2),
    ("exit2_convert_gap", ["convert-units", "--delta-si", "0", "--kelvin", "1"], 2),
    ("exit2_convert_direction", ["convert-units", "--delta-si", "1e-22"], 2),
    ("exit2_convert_nan_kelvin", ["convert-units", "--delta-si", "1.986e-22",
                                  "--kelvin", "nan"], 2),
    ("exit2_verify_nan_delta", ["verify", "--delta", "nan"], 2),
    ("exit3_erase_output", ["erase", "--output", MISSING_DIR], 3),
    ("exit3_sweep_output", ["sweep", "--r", "0.5", "--n-theta", "2", "--n-phi", "1",
                            "--output", MISSING_DIR], 3),
]


def _forced_failure(**kwargs):
    return [CheckResult(name="forced", status="fail", detail="boom")]


def run_case(name: str, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI run; argparse's SystemExit counts as a
    return. The forced-failure cases replace the battery with one failing
    check, as tests/test_cli.py does."""
    out = io.StringIO()
    battery = (mock.patch("qerase.verify.run_verification", _forced_failure)
               if "forced_failure" in name else nullcontext())
    with redirect_stdout(out), redirect_stderr(io.StringIO()), battery:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got_code, got_out = run_case(name, argv)
    assert got_code == code
    want = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert got_out.encode("utf-8") == want
    if code >= 2:
        assert want == b""


WRITTEN = [c for c in CASES if c[2] < 2]


@pytest.mark.parametrize("name,argv,code", WRITTEN, ids=[c[0] for c in WRITTEN])
def test_output_file_holds_the_golden_bytes(name, argv, code, tmp_path, monkeypatch):
    """With `--output FILE` the same bytes go to the file and none to stdout."""
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "out.txt"
    got_code, got_out = run_case(name, [*argv, "--output", str(target)])
    assert got_code == code
    assert got_out == ""
    assert target.read_bytes() == (GOLDEN_DIR / f"{name}.out").read_bytes()


# `run_case` over [name, argv] pairs read from stdin, with the standard
# library alone; writes {name: [exit code, stdout]} as JSON
STDLIB_ONLY_RUNNER = """
import io, json, sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from unittest import mock
from qerase.cli import main
from qerase.verify import CheckResult

def forced_failure(**kwargs):
    return [CheckResult(name="forced", status="fail", detail="boom")]

results = {}
for name, argv in json.load(sys.stdin):
    out = io.StringIO()
    battery = (mock.patch("qerase.verify.run_verification", forced_failure)
               if "forced_failure" in name else nullcontext())
    with redirect_stdout(out), redirect_stderr(io.StringIO()), battery:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results[name] = [code, out.getvalue()]
json.dump(results, sys.stdout)
"""


def _python_s(args, cwd, stdin=""):
    return subprocess.run(
        [sys.executable, "-S", *args], input=stdin.encode("utf-8"), capture_output=True,
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC_DIR)), check=False,
    )


def test_golden_output_on_the_standard_library_alone(tmp_path):
    """Every case in one `python -S` interpreter, and `verify_json` once more
    through `python -S -m qerase` and `python -O -S -m qerase`, so the entry
    point stays covered and no check hides in an `assert` that -O strips."""
    done = _python_s(["-c", STDLIB_ONLY_RUNNER], tmp_path, json.dumps([c[:2] for c in CASES]))
    assert done.returncode == 0, done.stderr.decode()
    results = json.loads(done.stdout)
    for name, _, code in CASES:
        got_code, got_out = results[name]
        assert (name, got_code) == (name, code)
        assert got_out.encode("utf-8") == (GOLDEN_DIR / f"{name}.out").read_bytes(), name
    for optimize in ([], ["-O"]):
        entry = _python_s([*optimize, "-m", "qerase", "verify", "--draws", "40"], tmp_path)
        assert entry.returncode == 0, (optimize, entry.stderr.decode())
        assert entry.stdout == (GOLDEN_DIR / "verify_json.out").read_bytes(), optimize


def test_every_golden_file_has_a_case():
    names = {c[0] for c in CASES}
    assert len(names) == len(CASES)
    assert {p.stem for p in GOLDEN_DIR.glob("*.out")} == names


if __name__ == "__main__":
    import os
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, argv, code in CASES:
                got_code, got_out = run_case(name, argv)
                if got_code != code:
                    sys.exit(f"{name}: exit code {got_code}, expected {code}")
                (GOLDEN_DIR / f"{name}.out").write_bytes(got_out.encode("utf-8"))
        finally:
            os.chdir(here)
    print(f"wrote {len(CASES)} golden files to {GOLDEN_DIR}")
