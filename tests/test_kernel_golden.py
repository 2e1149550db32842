"""The source of every kernel the package generates, pinned as golden text.

The hot path is source that `linalg._compile` turns into functions at run
time. With every builder's cache cleared, this test records the name and
source of each `_compile` call of a fixed list of kernels: those that the
draws of `test_output_bits.py` compile for `analyze` and the propagate
calls, and the route kernel of each key `analyze` reaches from the zero
patterns of its factors: a qubit with or without its coherence, on either
pole or neither, and a reservoir with or without its excited weight. It
compares each builder's kernels, in name order, with
`tests/golden/kernels/<builder>.txt` and prints a unified diff on a
mismatch. Each source is written with a line break after each ", ", so a
moved index shows as the lines it moves.

A change that moves a kernel commits the new files, and `CHANGES.md` says
why the kernel moved. Regenerate them with:

    PYTHONPATH=src python tests/test_kernel_golden.py
"""

import difflib
import math
import sys
from pathlib import Path

import qerase
from qerase import linalg, thermo

from test_output_bits import _draws, _propagate

KERNEL_DIR = Path(__file__).parent / "golden" / "kernels"

# the builder of each kernel, by the first word of the kernel's name
BUILDERS = {"products": "product_kernel", "trace": "trace_plan", "pattern": "pattern_plan",
            "route": "route_kernel"}

# (Bloch vector, beta): each zero pattern of the qubit and of the reservoir
ZERO_PATTERNS = [(b, beta) for b in ((0.0, 0.0, 0.5), (0.5, 0.0, 0.0), (0.0, 0.0, 1.0),
                                     (1e-7, 0.0, 1.0), (0.0, 0.0, -1.0), (1e-7, 0.0, -1.0))
                 for beta in (1.0, math.inf)]


def _compiled() -> dict[str, str]:
    """{kernel name: source} of every kernel the fixed list compiles, each
    builder's cache cleared first; `thermo` binds its own `_compile`."""
    for cache in (linalg._kron_plan, linalg._product_kernel, linalg._trace_plan,
                  linalg._pattern_plan, thermo._route_kernel):
        cache.cache_clear()
    sources = {}

    def recorded(source, name, compile=linalg._compile):
        sources[name] = source
        return compile(source, name)

    saved = linalg._compile, thermo._compile
    linalg._compile = thermo._compile = recorded
    try:
        for b, spec, _ in _draws("analyze"):
            _refused_or(qerase.analyze, b, spec)
        for b, spec, beta in _draws("propagate"):
            _refused_or(_propagate, b, spec, beta)
        for b, beta in ZERO_PATTERNS:
            _refused_or(qerase.analyze, qerase.BlochVector(*b), qerase.ThermalSpec.from_beta(beta))
    finally:
        linalg._compile, thermo._compile = saved
    return sources


def _refused_or(call, *args):
    try:
        call(*args)
    except (ValueError, ArithmeticError):
        pass


def _files(sources: dict[str, str]) -> dict[str, str]:
    """{file name: text} with one file per builder, its kernels in name
    order, each a `# <name>` line and its source broken after each ", "."""
    files = dict.fromkeys((f"{builder}.txt" for builder in BUILDERS.values()), "")
    for name in sorted(sources):
        file = f"{BUILDERS[name.split()[0]]}.txt"
        files[file] += f"# {name}\n" + sources[name].replace(", ", ",\n") + "\n\n"
    return files


def test_each_kernel_source_is_the_golden_one():
    files = _files(_compiled())
    assert sorted(p.name for p in KERNEL_DIR.glob("*.txt")) == sorted(files)
    diff = []
    for file, got in files.items():
        want = (KERNEL_DIR / file).read_text()
        diff += difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                     f"golden/kernels/{file}", f"compiled {file}")
    assert not diff, "kernel source moved:\n" + "".join(diff)


if __name__ == "__main__":
    KERNEL_DIR.mkdir(exist_ok=True)
    for file, text in _files(_compiled()).items():
        (KERNEL_DIR / file).write_text(text)
    sys.exit(0)
