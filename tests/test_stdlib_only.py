"""The runtime package imports nothing outside the standard library, and
loads none of the standard modules it does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "qerase").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """Top-level module of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"linalg.py", "thermo.py", "cli.py"}


def test_every_absolute_import_is_stdlib():
    outside = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside, sorted(outside)


def asserts(path: Path) -> list[int]:
    """Line of every `assert` statement in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_check_depends_on_assert():
    """`python -O` strips `assert`, so no check in the package may use one."""
    found = [f"{path.name}:{line}" for path in SOURCES for line in asserts(path)]
    assert not found, found


def test_assert_guard_sees_an_assert(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = 1\nassert x == 1, 'message'\n")
    assert asserts(probe) == [2]


def test_guard_sees_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy.linalg\nfrom scipy import sparse\nfrom . import linalg\n")
    assert absolute_imports(probe) == ["numpy", "scipy"]


def unused_imports(path: Path) -> list[str]:
    """Every name an `import` or `from ... import` binds in one source file
    that no other line of it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [name for name in bound if name not in read]


def test_every_import_is_used():
    """A deletion must not strand an import. `__init__.py` is exempt: its
    imports are the public re-exports."""
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for name in unused_imports(path)
    ]
    assert not found, found


def test_import_guard_sees_an_unused_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\nimport os.path\nfrom json import dumps as d, loads\n"
        "print(os.sep, loads)\n"
    )
    assert unused_imports(probe) == ["math", "d"]


COMPILERS = {"eval", "exec", "compile"}
BUILDERS = {"linalg._product_kernel", "linalg._trace_plan", "linalg._pattern_plan",
            "thermo._route_kernel"}


def references(path: Path) -> list[tuple[str, str]]:
    """(module.function, name) for every name or attribute one source file
    reads, the function being the top-level definition it sits in, or
    `module.<module>` outside one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for top in tree.body:
        where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.append((where, node.id))
            elif isinstance(node, ast.Attribute):
                found.append((where, node.attr))
    return found


def cached(path: Path) -> set[str]:
    """module.function of every top-level function in one source file that
    an `lru_cache(...)` decorates."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {f"{path.stem}.{node.name}" for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "lru_cache"
                    for d in node.decorator_list)}


def test_only_compile_turns_source_into_code():
    """`eval`, `exec` and `compile` appear only inside `linalg._compile`, and
    `_compile` is called only by the four `lru_cache`d kernel builders, so
    each builder's `cache_info().misses` counts its compiles."""
    found = [ref for path in SOURCES for ref in references(path)]
    assert sorted({where for where, name in found if name in COMPILERS}) == ["linalg._compile"]
    assert {where for where, name in found if name == "_compile"} == BUILDERS
    assert BUILDERS <= set().union(*map(cached, SOURCES))


def test_compile_guard_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import builtins\nrun = exec\n"
        "def f(s):\n    return builtins.eval(s)\n"
        "class C:\n    def g(self, s):\n        return compile(s, '', 'eval')\n"
    )
    assert [ref for ref in references(probe) if ref[1] in COMPILERS] == [
        ("probe.<module>", "exec"), ("probe.f", "eval"), ("probe.C", "compile")]


def loaded_modules(*args: str) -> set[str]:
    """Every module a fresh `python -S` loads while running `args`, read from
    its `-X importtime` log; module names do not depend on the host's speed."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


UNUSED = {"__future__", "dataclasses", "inspect", "typing", "random", "qerase.verify"}


SUBMODULES = {f"qerase.{m}" for m in ("linalg", "record", "states", "channel", "thermo", "optics")}
ERASE = ("-m", "qerase", "erase", "--bloch", "0.5,0,0", "--temperature", "0.9")


def test_package_import_leaves_out_typing_random_and_verify():
    """The package with every submodule loaded (which `import qerase` alone
    does not do) has no `__future__`, `dataclasses` (nor its `inspect`, which
    imports `typing` on some interpreters), `typing`, `random` or `verify`."""
    loaded = loaded_modules("-c", "import qerase; qerase.analyze; qerase.simulate")
    assert loaded >= SUBMODULES
    assert sorted(loaded & UNUSED) == []


def test_package_import_loads_no_submodule():
    loaded = loaded_modules("-c", "import qerase")
    assert "qerase" in loaded
    assert sorted(name for name in loaded if name.startswith("qerase.")) == []


def test_analyze_leaves_out_optics():
    loaded = loaded_modules("-c", "import qerase; qerase.analyze")
    assert "qerase.thermo" in loaded
    assert "qerase.optics" not in loaded


def test_simulate_leaves_out_thermo():
    loaded = loaded_modules("-c", "import qerase; qerase.simulate")
    assert "qerase.optics" in loaded
    assert "qerase.thermo" not in loaded


def test_erase_command_leaves_out_typing():
    """`erase` loads neither `__future__`, `dataclasses`, `inspect` and
    `typing` nor the `verify` battery and its `random`."""
    loaded = loaded_modules(*ERASE)
    assert "qerase.cli" in loaded
    assert sorted(loaded & UNUSED) == []


def test_erase_command_leaves_out_optics_and_csv():
    """Only `optics` simulates the photon, only the CSV layouts write CSV,
    and only a help or usage message reads the terminal width, through
    `shutil`."""
    loaded = loaded_modules(*ERASE)
    assert "qerase.thermo" in loaded
    assert sorted(loaded & {"qerase.optics", "csv", "shutil"}) == []


FIRST_OPS = (
    "import qerase\n"
    "b, spec = qerase.BlochVector(0.3, -0.2, 0.4), qerase.ThermalSpec.from_beta(0.7)\n"
    "qerase.analyze(b, spec)\n"
    "final = qerase.apply_channel(qerase.composite_initial(b, spec))\n"
    "photon = qerase.simulate(b, qerase.PathDistribution.from_beta(0.7))\n"
    "qerase.memory_ground_fidelity(final), qerase.reservoir_marginal(final)\n"
    "qerase.path_marginal(photon), qerase.polarization_marginal(photon)\n"
    "from qerase import linalg, thermo\n"
    "builders = (linalg._product_kernel, linalg._trace_plan, linalg._pattern_plan,\n"
    "            thermo._route_kernel)\n"
    "assert all(f.cache_info().misses for f in builders)\n"
)


def test_compiling_kernels_loads_no_linecache():
    """A kernel is compiled under its `<qerase ...>` name and its source is
    not registered for tracebacks, so neither `erase` nor a first `analyze`
    and propagate op, which compile every builder's kernels, loads
    `linecache` or the `tokenize` it imports beyond what the bare
    interpreter loads (3.13 loads `linecache` at start-up)."""
    bare = loaded_modules("-c", "pass")
    for loaded in (loaded_modules(*ERASE), loaded_modules("-c", FIRST_OPS)):
        assert "qerase.thermo" in loaded
        assert sorted((loaded - bare) & {"linecache", "tokenize"}) == []
