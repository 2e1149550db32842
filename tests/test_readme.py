"""The README quick-start runs on the standard library alone and prints what
its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
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
