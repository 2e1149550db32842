"""The README quick-start runs on the standard library alone and prints what
its comments say, and each CLI example prints what the README shows."""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qerase.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text("utf-8")

# a `qerase ...` command alone in a sh block, then the JSON it prints
JSON_EXAMPLES = re.findall(r"```sh\n(qerase [^\n]*)\n```\s*```json\n(.*?)```", README, re.S)
# a `qerase ...` command with a `# <report field>: <value> K` comment
COMMENTED = re.findall(r"^(qerase [^#\n]*?)\s+# (\w+): (\S+) K$", README, re.M)


def quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    return blocks[0]


def expected_prefixes(code: str) -> list[str]:
    """First token of each print's trailing comment, less a trailing `...`
    or `,`: `# 0.8891...  bound` expects a line starting `0.8891`."""
    return [
        re.sub(r"(\.\.\.|,)$", "", line.split("#", 1)[1].split()[0])
        for line in code.splitlines()
        if line.startswith("print(")
    ]


def test_quick_start_prints_what_its_comments_say():
    code = quick_start()
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    want = expected_prefixes(code)
    assert want == ["0.5623", "-0.5", "0.8891", "True", "1.0"]
    lines = proc.stdout.splitlines()
    assert len(lines) == len(want), lines
    for line, prefix in zip(lines, want):
        assert line.startswith(prefix), (line, prefix)


def test_quick_start_never_loads_optics():
    """The README says the quick start loads no optics: the package binds
    each name on first use."""
    code = quick_start() + "\nimport sys\nprint(sorted(sys.modules))\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert "qerase.thermo" in loaded and "qerase.optics" not in loaded


def run_example(command: str, capsys) -> dict:
    argv = shlex.split(command)[1:]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_every_cli_example_is_found():
    assert [shlex.split(cmd)[1] for cmd, _ in JSON_EXAMPLES] == ["erase", "convert-units"]
    assert [key for _, key, _ in COMMENTED] == ["T_limit"]


@pytest.mark.parametrize("command,shown", JSON_EXAMPLES, ids=[c for c, _ in JSON_EXAMPLES])
def test_cli_example_prints_the_json_shown(command, shown, capsys):
    got, want = run_example(command, capsys), json.loads(shown)
    assert list(got) == list(want)
    for key, value in want.items():
        assert got[key] == value, key


@pytest.mark.parametrize("command,key,value", COMMENTED, ids=[c for c, _, _ in COMMENTED])
def test_cli_example_comment_states_the_reported_kelvin(command, key, value, capsys):
    got = run_example(command, capsys)
    assert got["units"] == "SI"
    assert got["report"][key] == float(value)
