"""A mutation census of the closed forms and the helpers `analyze` reports
through: which single-site mutants its cross-check catches.

Each mutant changes one site of one function, parsed with `ast` from the
function's own source: a binary operator swapped, + <-> - or * <-> /, or a
numeric constant c made c * (1 + 1e-6), and 0 made 1e-6. Each entry of
`thermo`'s level tables gives one mutant more, by the same constant rule. A
function mutant is installed as a module attribute in every `qerase` module
that binds the function, a table mutant in `thermo`, with `_route_kernel`'s
cache cleared around it, since its kernels read the tables when they are
compiled; every patch is undone in a `finally`.

Each mutant runs `analyze` on a fixed grid: six Bloch vectors, beta in {0,
1e-9, 1, 10, 50, inf} at delta = k_B = 1, and an SI gap of 1.986e-22 J at
300 K and at 1 K. At a point, `analyze` returns the unmutated report (no
change), raises (the point is seen), or returns another report (the mutant
survives there). A mutant survives if it survives at any point; else it is
refused if a point is seen, and else it changes nothing on the grid.

A point counts as seen whatever `analyze` raises there, and `REFUSED` lists
the exception types each refused mutant raised, so a crash, a type other
than the `ArithmeticError` and `ValueError` that `analyze` raises by
contract, is not mistaken for a catch. The gate: the census is the
committed one, `NO_CHANGE`, `REFUSED` and `SURVIVORS`, the last with a
reason per survivor, so a new survivor fails, and so does a survivor that
is now caught: the table shrinks only on purpose. The census is
derandomized and stdlib only, and runs in well under a second.
"""

import ast
import collections
import functools
import inspect
import math
import sys
import textwrap
import time
import types

import qerase
from qerase import states, thermo

# (module, name) of every function mutated, in census order
FUNCTIONS = (
    (thermo, "entropy_decrease"), (thermo, "_heat_memory"), (thermo, "_heat_reservoir"),
    (thermo, "_photon_energy"), (thermo, "_limit_rule"), (thermo, "_limit_temperature"),
    (thermo, "_landauer_margin"), (states, "_gibbs"), (states, "_reservoir_diagonal"),
    (states, "qubit_from_bloch"),
)
LEVEL_TABLES = ("_MEMORY_LEVELS", "_RESERVOIR_LEVELS", "_COMPOSITE_LEVELS")

BLOCHS = ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.9), (0.0, 0.0, -0.9),
          (0.3, -0.2, 0.4), (0.0, 0.0, 1.0 - 1e-6))
BETAS = (0.0, 1e-9, 1.0, 10.0, 50.0, math.inf)
DELTA_SI, K_B_SI = 1.986e-22, 1.380649e-23  # J, J/K
SI_KELVINS = (300.0, 1.0)

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


# Why each survivor survives; ROADMAP items 4 and 5 own the fixes.
NEAR_PURE = ("dS or Q_M moves by under ROUTE_TOL at 1 - r = 1e-6, and T_limit = -Q_M/dS "
             "by 1e-6 relative; T_limit's record checks it against the rule only")
RESERVOIR_HEAT = "Q_R moves by at most 9.1e-11, under ROUTE_TOL, where (1 - r_z) tanh(x/2) is small"
PHOTON = "the photon energy moves by under ROUTE_TOL, absolute, where p_e is small (beta >= 10)"
GIBBS = ("p_e moves, so the photon energy by under ROUTE_TOL where p_e is small, and U_i and "
         "U_f with it; only their difference has a record")
ENERGIES = ("U_i and U_f move together, by up to 3.4e-5; only their difference, the photon "
            "energy, has a record")
QUBIT = ("the excited population moves by 5e-13 at 1 - r = 1e-6, within TRACE_TOL, and U_i "
         "and U_f by under ROUTE_TOL")
RULE = "T_limit's record compares the closed form with this same rule, so nothing checks it"
MARGIN = "the Landauer margin and its verdict have no record"

NO_CHANGE = (
    'entropy_decrease: min(b.r, 1.0): 1.0 -> 1.000001',
    'entropy_decrease: r >= 1.0: 1.0 -> 1.000001',
    'entropy_decrease: return 0.0: 0.0 -> 1e-06',
    '_limit_rule: delta_s == 0.0: 0.0 -> 1e-06',
    '_limit_rule: q_m == 0.0: 0.0 -> 1e-06',
    '_landauer_margin: 0.0 if delta_s == 0.0 else k_B * temperature ...: 0.0 -> 1e-06',
    '_landauer_margin: delta_s == 0.0: 0.0 -> 1e-06',
    'qubit_from_bloch: b.r_x - 1j * b.r_y: - -> +',
    '_MEMORY_LEVELS[0]: 0 -> 1e-06',
    '_MEMORY_LEVELS[5]: 1 -> 1.000001',
    '_MEMORY_LEVELS[7]: 1 -> 1.000001',
    '_RESERVOIR_LEVELS[0]: 0 -> 1e-06',
    '_RESERVOIR_LEVELS[5]: 0 -> 1e-06',
    '_RESERVOIR_LEVELS[7]: 1 -> 1.000001',
    '_COMPOSITE_LEVELS[5]: 1 -> 1.000001',
    '_COMPOSITE_LEVELS[7]: 2 -> 2.000002',
)

REFUSED = {  # label: the exception types it raised
    'entropy_decrease: LN2 - r * math.log(1.0 + r) - 0.5 * (1.0 - r)...: - -> +':
        ('ArithmeticError',),
    'entropy_decrease: LN2 - r * math.log(1.0 + r): - -> +': ('ArithmeticError',),
    'entropy_decrease: 0.5 * (1.0 - r) * math.log((1.0 - r) * (1.0 +...: * -> /':
        ('ArithmeticError', 'ZeroDivisionError'),
    'entropy_decrease: r * math.log(1.0 + r): * -> /': ('ArithmeticError', 'ZeroDivisionError'),
    'entropy_decrease: 0.5 * (1.0 - r): * -> /': ('ArithmeticError',),
    'entropy_decrease: 1.0 - r: - -> +': ('ArithmeticError',),
    'entropy_decrease: (1.0 - r) * (1.0 + r): * -> /': ('ArithmeticError',),
    'entropy_decrease: 1.0 + r: + -> -': ('ArithmeticError',),
    'entropy_decrease: 1.0 - r #2: 1.0 -> 1.000001': ('ArithmeticError',),
    'entropy_decrease: 1.0 - r #3: - -> +': ('ArithmeticError',),
    'entropy_decrease: 1.0 + r #2: + -> -': ('ArithmeticError',),
    'entropy_decrease: 1.0 + r #3: 1.0 -> 1.000001': ('ArithmeticError',),
    'entropy_decrease: 1.0 - r #4: 1.0 -> 1.000001': ('ArithmeticError',),
    '_heat_memory: -0.5 * (1.0 - b.r_z): * -> /': ('ArithmeticError',),
    '_heat_memory: 1.0 - b.r_z: - -> +': ('ArithmeticError',),
    '_heat_memory: 1.0 - b.r_z #2: 1.0 -> 1.000001': ('ArithmeticError',),
    '_heat_reservoir: 0.5 * (1.0 - b.r_z): * -> /': ('ArithmeticError',),
    '_heat_reservoir: 1.0 - b.r_z: - -> +': ('ArithmeticError',),
    '_photon_energy: (1.0 - b.r_z) * _gibbs(x)[1]: * -> /':
        ('ArithmeticError', 'ZeroDivisionError'),
    '_photon_energy: _gibbs(x)[1]: 1 -> 1.000001': ('TypeError',),
    '_reservoir_diagonal: g + e: + -> -': ('ValueError', 'ZeroDivisionError'),
    '_reservoir_diagonal: g / weight: / -> *': ('ValueError',),
    'qubit_from_bloch: (b.r_x - 1j * b.r_y) / 2.0: / -> *': ('ValueError',),
    'qubit_from_bloch: (b.r_x - 1j * b.r_y) / 2.0 #2: 2.0 -> 2.000002': ('ArithmeticError',),
    'qubit_from_bloch: _checked(flat, 2): 2 -> 2.000002': ('TypeError',),
    'qubit_from_bloch: 1j * b.r_y: * -> /': ('ValueError', 'ZeroDivisionError'),
    'qubit_from_bloch: (1.0 + b.r_z) / 2.0: / -> *': ('ValueError',),
    'qubit_from_bloch: (1.0 - b.r_z) / 2.0: / -> *': ('ValueError',),
    'qubit_from_bloch: 1j * b.r_y #2: 1j -> 1.000001j': ('ArithmeticError',),
    'qubit_from_bloch: 1.0 + b.r_z: + -> -': ('ValueError',),
    'qubit_from_bloch: (1.0 + b.r_z) / 2.0 #2: 2.0 -> 2.000002': ('ValueError',),
    'qubit_from_bloch: 1.0 - b.r_z: - -> +': ('ValueError',),
    'qubit_from_bloch: 1.0 + b.r_z #2: 1.0 -> 1.000001': ('ValueError',),
    'qubit_from_bloch: 1.0 - b.r_z #2: 1.0 -> 1.000001': ('ValueError',),
    '_MEMORY_LEVELS[1]: 0 -> 1e-06': ('ArithmeticError',),
    '_MEMORY_LEVELS[2]: 0 -> 1e-06': ('ArithmeticError',),
    '_MEMORY_LEVELS[3]: 0 -> 1e-06': ('ArithmeticError',),
    '_MEMORY_LEVELS[4]: 1 -> 1.000001': ('ArithmeticError',),
    '_MEMORY_LEVELS[6]: 1 -> 1.000001': ('ArithmeticError',),
    '_RESERVOIR_LEVELS[1]: 0 -> 1e-06': ('ArithmeticError',),
    '_RESERVOIR_LEVELS[2]: 1 -> 1.000001': ('ArithmeticError',),
    '_RESERVOIR_LEVELS[3]: 1 -> 1.000001': ('ArithmeticError',),
    '_RESERVOIR_LEVELS[4]: 0 -> 1e-06': ('ArithmeticError',),
    '_RESERVOIR_LEVELS[6]: 1 -> 1.000001': ('ArithmeticError',),
}

SURVIVORS = {  # label: its reason
    'entropy_decrease: 0.5 * (1.0 - r) #2: 0.5 -> 0.5000005': NEAR_PURE,
    'entropy_decrease: 1.0 + r #4: 1.0 -> 1.000001': NEAR_PURE,
    '_heat_memory: -0.5: 0.5 -> 0.5000005': NEAR_PURE,
    '_heat_reservoir: 0.5 * (1.0 - b.r_z) * math.tanh(x / 2.0): * -> /': RESERVOIR_HEAT,
    '_heat_reservoir: 0.5 * (1.0 - b.r_z) #2: 0.5 -> 0.5000005': RESERVOIR_HEAT,
    '_heat_reservoir: x / 2.0: / -> *': RESERVOIR_HEAT,
    '_heat_reservoir: 1.0 - b.r_z #2: 1.0 -> 1.000001': RESERVOIR_HEAT,
    '_heat_reservoir: x / 2.0 #2: 2.0 -> 2.000002': RESERVOIR_HEAT,
    '_photon_energy: 1.0 - b.r_z: - -> +': PHOTON,
    '_photon_energy: 1.0 - b.r_z #2: 1.0 -> 1.000001': PHOTON,
    '_limit_rule: -q_m / delta_s: / -> *': RULE,
    '_landauer_margin: q_memory + (0.0 if delta_s == 0.0 else k_B * ...: + -> -': MARGIN,
    '_landauer_margin: k_B * temperature * delta_s: * -> /': MARGIN,
    '_landauer_margin: k_B * temperature: * -> /': MARGIN,
    '_gibbs: 1.0 / (1.0 + w): / -> *': GIBBS,
    '_gibbs: 1.0 / (1.0 + w) #2: 1.0 -> 1.000001': GIBBS,
    '_gibbs: 1.0 + w: + -> -': GIBBS,
    '_gibbs: w * p_g: * -> /': GIBBS,
    '_gibbs: 1.0 + w #2: 1.0 -> 1.000001': GIBBS,
    '_reservoir_diagonal: p_g / 2.0: / -> *': ENERGIES,
    '_reservoir_diagonal: p_e / 2.0: / -> *': ENERGIES,
    '_reservoir_diagonal: p_g / 2.0 #2: 2.0 -> 2.000002': ENERGIES,
    '_reservoir_diagonal: p_e / 2.0 #2: 2.0 -> 2.000002': ENERGIES,
    '_reservoir_diagonal: e / weight: / -> *': ENERGIES,
    'qubit_from_bloch: (1.0 - b.r_z) / 2.0 #2: 2.0 -> 2.000002': QUBIT,
    '_COMPOSITE_LEVELS[0]: 0 -> 1e-06': ENERGIES,
    '_COMPOSITE_LEVELS[1]: 0 -> 1e-06': ENERGIES,
    '_COMPOSITE_LEVELS[2]: 1 -> 1.000001': ENERGIES,
    '_COMPOSITE_LEVELS[3]: 1 -> 1.000001': ENERGIES,
    '_COMPOSITE_LEVELS[4]: 1 -> 1.000001': ENERGIES,
    '_COMPOSITE_LEVELS[6]: 2 -> 2.000002': ENERGIES,
}


def _points():
    specs = [qerase.ThermalSpec.from_beta(beta) for beta in BETAS]
    specs += [qerase.ThermalSpec.from_temperature(t, DELTA_SI, K_B_SI) for t in SI_KELVINS]
    return [(qerase.BlochVector(*b), spec) for b in BLOCHS for spec in specs]


def _nudged(c):
    return 1e-6 if c == 0 else c * (1 + 1e-6)


def _function_mutants(module, name):
    """(label, mutant) for each site of module.name, in `ast.walk` order. The
    label names the function, the site's source (its operation's, for a
    constant; past 48 characters, its first 45 and "..."), with ` #j` on
    its j-th repeat, and the change, so it holds while other sites come and
    go; the mutant reads module's globals, as the function does."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(module, name))))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    seen = collections.Counter()
    for site in ast.walk(tree):
        if isinstance(site, ast.BinOp) and type(site.op) in SWAPS:
            field, was, now = "op", site.op, SWAPS[type(site.op)]()
            change = f"{SYMBOLS[type(was)]} -> {SYMBOLS[type(now)]}"
        elif isinstance(site, ast.Constant) and type(site.value) in (int, float, complex):
            field, was, now = "value", site.value, _nudged(site.value)
            change = f"{was!r} -> {now!r}"
        else:
            continue
        text = ast.unparse(site if field == "op" else parents[site])
        text = text if len(text) <= 48 else text[:45] + "..."
        seen[text] += 1
        label = f"{name}: {text}{f' #{seen[text]}' if seen[text] > 1 else ''}: {change}"
        setattr(site, field, now)
        namespace = dict(vars(module))  # the annotations are evaluated here
        exec(compile(tree, f"<mutant {label}>", "exec"), namespace)
        setattr(site, field, was)
        yield label, types.FunctionType(namespace[name].__code__, vars(module), name)


def _mutants():
    """(label, patches, tables) for every mutant, in census order: patches
    bind each name it replaces in each module, and tables is true for a
    level-table mutant, around which the route kernels are cleared."""
    loaded = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "qerase"]
    for module, name in FUNCTIONS:
        original = getattr(module, name)
        binders = [m for m in loaded if vars(m).get(name) is original]
        for label, mutant in _function_mutants(module, name):
            yield label, [(m, name, mutant) for m in binders], False
    for table in LEVEL_TABLES:
        levels = getattr(thermo, table)
        for k, level in enumerate(levels):
            nudged = (*levels[:k], _nudged(level), *levels[k + 1:])
            yield f"{table}[{k}]: {level!r} -> {nudged[k]!r}", [(thermo, table, nudged)], True


def _outcome(b, spec):
    """analyze's report on (b, spec) as its repr, or the type it raises."""
    try:
        return repr(qerase.analyze(b, spec))
    except Exception as exc:  # every type is recorded, so a crash shows
        return type(exc)


def census():
    """{label: ("no change",) | ("refused", types) | ("survives", n)} over
    every mutant: types are the sorted names of the exception types it
    raised, and n the points where it survives."""
    points = _points()
    want = [_outcome(b, spec) for b, spec in points]
    assert not any(isinstance(w, type) for w in want), "the unmutated grid raises"
    result = {}
    for label, patches, tables in _mutants():
        assert label not in result, label
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, value in patches:
                setattr(module, name, value)
            if tables:
                thermo._route_kernel.cache_clear()
            got = [_outcome(b, spec) for b, spec in points]
        finally:
            for module, name, value in saved:
                setattr(module, name, value)
            if tables:
                thermo._route_kernel.cache_clear()
        raised = tuple(sorted({g.__name__ for g in got if isinstance(g, type)}))
        survives = sum(not isinstance(g, type) and g != w for g, w in zip(got, want))
        result[label] = (("survives", survives) if survives else
                         ("refused", raised) if raised else ("no change",))
    return result


def counts(result):
    """The number of mutants that change nothing, are refused and survive."""
    verdicts = collections.Counter(verdict[0] for verdict in result.values())
    return verdicts["no change"], verdicts["refused"], verdicts["survives"]


@functools.lru_cache(maxsize=1)
def _timed():
    """The census and its wall time in seconds, taken once per session."""
    start = time.perf_counter()
    return census(), time.perf_counter() - start


def _result():
    return _timed()[0]


def test_the_census_covers_every_site_in_under_a_second():
    result, seconds = _timed()
    assert seconds < 1.0
    assert len(result) == len(NO_CHANGE) + len(REFUSED) + len(SURVIVORS)


def test_no_mutant_survives_that_the_table_does_not_list():
    result = _result()
    survivors = {label for label, verdict in result.items() if verdict[0] == "survives"}
    assert sorted(survivors - set(SURVIVORS)) == []


def test_every_listed_survivor_still_survives():
    """A survivor that is now caught leaves the table in the same change."""
    result = _result()
    survivors = {label for label, verdict in result.items() if verdict[0] == "survives"}
    assert sorted(set(SURVIVORS) - survivors) == []
    assert all(reason for reason in SURVIVORS.values())


def test_each_refused_mutant_raises_the_listed_types():
    """What each refused mutant raises, so a crash, a `TypeError` or a
    `ZeroDivisionError` say, is never counted as a catch unseen."""
    result = _result()
    assert {label: verdict[1] for label, verdict in result.items()
            if verdict[0] == "refused"} == REFUSED


def test_the_unseen_mutants_are_listed():
    result = _result()
    assert sorted(label for label, verdict in result.items()
                  if verdict[0] == "no change") == sorted(NO_CHANGE)


if __name__ == "__main__":
    print("no change {}, refused {}, surviving {}".format(*counts(census())))
