#!/usr/bin/env python3
"""The qerase benchmark: one command, two workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {analyze,propagate} --seed N \
        --seconds S --trace {0,1}

It benchmarks the package under src/ of the checkout it sits in. Load is one
closed loop in this process: the next operation starts when the last one has
returned. With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced pass. Details go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import calls
import oracle
import spans
import workloads
from kernel import NOMINAL_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9  # fresh interpreters per run, spread over it; the median is reported
INTERPRETER_PROBES = 7
WARMUP_OPS = 64
TRACE_CHUNK = 64  # operations per untraced/traced alternation
REF_CHUNK = 128  # library operations between two reference-kernel timings
TAIL_BEYOND = 10  # the tail percentile leaves this many samples beyond it
OP_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "ops_per_ref": "op/ref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and kept in the details file, not gated on: in wall-clock units
# they follow the host's drifting speed.
ALSO_SHOWN_UNITS = {"ops_per_s": "op/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "setup_wall_s": "s"}

# Per-layer metric -> span name; the value is the median duration of one call.
LAYER_SPANS = {
    "linalg.matmul_us": "linalg.matmul[8]",
    "linalg.eigh_2x2_us": "linalg.hermitian_eigenvalues[2]",
    "linalg.eigh_8x8_us": "linalg.hermitian_eigenvalues[8]",
    "linalg.partial_trace_us": "linalg.partial_trace",
    "linalg.matrix_init_us": "linalg.matrix_init",
    "linalg.density_matrix_us": "linalg.density_matrix",
    "linalg.kron_us": "linalg.kron",
    "states.composite_initial_us": "states.composite_initial",
    "channel.apply_channel_us": "channel.apply_channel",
    "channel.memory_marginal_us": "channel.memory_marginal",
    "channel.reservoir_marginal_us": "channel.reservoir_marginal",
    "channel.final_state_closed_form_us": "channel.final_state_closed_form",
    "channel.reservoir_final_closed_form_us": "channel.reservoir_final_closed_form",
    "thermo.internal_energy_us": "thermo.internal_energy",
    "thermo.build_hamiltonians_us": "thermo.build_hamiltonians",
    "thermo.von_neumann_entropy_us": "thermo.von_neumann_entropy",
    "optics.simulate_us": "optics.simulate",
    "optics.path_marginal_us": "optics.path_marginal",
}
CLOSED_FORMS = tuple(f"thermo.{f}" for f in (
    "entropy_decrease", "heat_memory", "heat_reservoir", "photon_energy",
    "limit_temperature", "landauer_check"))
ROUTE_QUANTITIES = ("entropy_decrease", "memory_heat", "reservoir_heat",
                    "photon_energy", "limit_temperature")
VERIFY_CHECKS = (
    "unitarity", "permutation_identity", "circuit_synthesis", "closed_form",
    "memory_reset", "entropy_conservation", "memory_entropy_drop",
    "memory_heat_temperature_independence", "reservoir_heat_sign",
    "energy_conservation", "commutator", "optics_transformations",
    "encoding_equivalence")
CLI_KINDS = ("erase", "sweep", "optics", "verify", "convert-units")


def _kind_key(kind: str) -> str:
    return kind.replace("-", "_")


# Per-layer metric -> span name, any matrix size; the mean calls per operation.
CALL_COUNTS = {
    "linalg.matrix_init_calls": "linalg.matrix_init",
    "linalg.matmul_calls": "linalg.matmul",
    "linalg.partial_trace_calls": "linalg.partial_trace",
    "linalg.eigh_calls": "linalg.hermitian_eigenvalues",
    "linalg.density_matrix_calls": "linalg.density_matrix",
    "linalg.kron_calls": "linalg.kron",
}

PER_LAYER_UNITS = {
    **{name: "us" for name in LAYER_SPANS},
    **{name: "count" for name in CALL_COUNTS},
    "thermo.closed_form_us": "us",
    "thermo.cross_check_us": "us",
    **{f"thermo.route_failures.{q}": "count" for q in ROUTE_QUANTITIES},
    **{f"{m}.self_us": "us" for m in spans.MODULES},
    **{f"verify.{c}_ms": "ms" for c in VERIFY_CHECKS},
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    **{f"cli.{_kind_key(k)}_s": "s" for k in CLI_KINDS},
    **{f"cli.{_kind_key(k)}_handler_ms": "ms" for k in CLI_KINDS},
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "code.source_lines": "count",
    "failed_frac": "ratio",
}


median = spans.median_or_zero


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that still has
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0) if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def peak_rss_kb(status: str = "/proc/self/status") -> int:
    """VmHWM: the process's own peak RSS. ru_maxrss would also count the
    RSS of whatever process started this one, at the time it did."""
    with open(status, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in {status}")


def window_stats(walls, ref: float) -> dict:
    """Median and tail of one window of operations, in ms and in ref, where
    `ref` is the kernel time around the window."""
    in_ref = [w / ref for w in walls]
    tail_ms, pct, n = tail(walls)
    return {
        "latency_p50_ms": 1e3 * median(walls),
        "latency_tail_ms": 1e3 * tail_ms,
        "latency_p50_ref": median(in_ref),
        "latency_tail_ref": tail(in_ref)[0],
        "_seconds": sum(walls),
        "_refs": sum(in_ref),
        "_note": f"p{pct:.2f} of {n} ops",
    }


def summarize(windows: list[dict], completed: int, kernel: list[float]) -> dict:
    """End-to-end time metrics: per-window latencies, median over windows;
    throughput over all operations, which the windows cover."""
    out = {name: median([w[name] for w in windows]) for name in (
        "latency_p50_ms", "latency_tail_ms", "latency_p50_ref", "latency_tail_ref")}
    out["ops_per_s"] = completed / sum(w["_seconds"] for w in windows)
    out["ops_per_ref"] = completed / sum(w["_refs"] for w in windows)
    out["_refs_ms"] = 1e3 * median(kernel)
    out["_tail_note"] = f"{windows[0]['_note']}, median of {len(windows)} windows"
    return out


class Outcomes:
    """Attempted, completed and failed operations over the batch's distinct
    inputs. A run times the batch many times over, as many passes as fit in
    --seconds, so `attempted` and `failed` are taken from one pass: they are
    then fixed by the seed and do not depend on the host's speed. Every later
    operation is still judged, and one whose outcome differs from its
    input's first is an unexpected failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known = Counter()  # known false alarms by units and decade of 1 - r
        self.unexpected = 0
        self.messages: list[str] = []  # the first few unexpected failures

    def record(self, completed: bool, known: bool, message: str, draw: workloads.Draw) -> None:
        self.attempted += 1
        if completed:
            return
        self.failed += 1
        if known:
            decade = math.floor(math.log10(draw.one_minus_r or 1e-300))
            self.known[f"{'SI' if draw.si else 'natural'}, 1-r in [1e{decade}, 1e{decade + 1})"] += 1
        else:
            self.unexpected_failure(message)

    def unexpected_failure(self, message: str) -> None:
        self.unexpected += 1
        if len(self.messages) < 5:
            self.messages.append(message)

    @property
    def correct(self) -> bool:
        return self.unexpected == 0


# ---- library workloads: analyze, propagate -------------------------------


class LibraryBench:
    def __init__(self, q, workload: str, seed: int) -> None:
        self.q = q
        self.workload = workload
        self.draws = (workloads.analyze_batch if workload == "analyze"
                      else workloads.propagate_batch)(seed)
        self.items = calls.prepare(q, self.draws)
        self.op = calls.OPS[workload]
        self.outcomes = Outcomes()

    def _call(self, item):
        try:
            return self.op(self.q, item), None
        except Exception as exc:  # a raising operation is a failed operation
            return None, exc

    def untraced(self, seconds: float, between) -> dict:
        for item in self.items[:WARMUP_OPS]:
            self._call(item)
        gc.collect()
        pairs = list(zip(self.draws, self.items))
        windows, kernel, completed = [], [], 0
        first: list[tuple[bool, bool]] = []  # each input's outcome on the first pass
        r_before = reference_s()
        t_start = perf_counter()
        while True:
            for start in range(0, len(pairs), REF_CHUNK):
                walls = []
                for k, (draw, item) in enumerate(pairs[start:start + REF_CHUNK], start):
                    t0 = perf_counter()
                    out, err = self._call(item)
                    walls.append(perf_counter() - t0)
                    ok, known, message = calls.judge(self.workload, draw, out, err)
                    completed += ok
                    if len(first) < len(pairs):
                        self.outcomes.record(ok, known, message, draw)
                        first.append((ok, known))
                    elif (ok, known) != first[k]:
                        self.outcomes.unexpected_failure(
                            f"input {k} changed outcome between passes: {message}")
                r_after = reference_s()
                kernel.append((r_before + r_after) / 2.0)
                r_before = r_after
                windows.append(window_stats(walls, kernel[-1]))
            done = (perf_counter() - t_start) / seconds
            if done >= 1.0:
                break
            between(done)
            r_before = reference_s()
        metrics = summarize(windows, completed, kernel)
        metrics["peak_rss_mb"] = peak_rss_kb() / 1024.0
        return metrics

    def _interleaved(self, tracer: spans.Tracer, routes: Counter | None) -> tuple[float, float]:
        """One pass over the batch in chunks, each run untraced and then
        traced, so both see the same host speed. Every traced operation is
        judged; with `routes` its outcome is also recorded, and analyze's
        route failures are counted there. Returns the untraced and the traced
        (root span) seconds."""
        plain = traced = 0.0
        pairs = list(zip(self.draws, self.items))
        for start in range(0, len(pairs), TRACE_CHUNK):
            chunk = pairs[start:start + TRACE_CHUNK]
            for _, item in chunk:
                t0 = perf_counter()
                self._call(item)
                plain += perf_counter() - t0
            with tracer:
                for draw, item in chunk:
                    i = tracer.open_op("op")
                    out, err = self._call(item)
                    traced += tracer.close_op(i)
                    completed, known, message = calls.judge(self.workload, draw, out, err)
                    if routes is None:
                        if not completed and not known:
                            self.outcomes.unexpected_failure(f"traced pass: {message}")
                        continue
                    self.outcomes.record(completed, known, message, draw)
                    if isinstance(err, ArithmeticError):
                        routes[calls.route_quantity(err)] += 1
        return plain, traced

    def traced(self, seconds: float, between) -> tuple[dict, spans.Tracer]:
        """Per-layer metrics and the tracer of one fully traced pass over the
        batch, whose outcomes are the run's; then passes that wrap only the
        stages, for coverage, until `seconds` have gone by."""
        t_start = perf_counter()
        full, routes = spans.Tracer(), Counter()
        plain, traced = self._interleaved(full, routes)
        metrics = span_metrics(full, full.durations())
        metrics["trace.overhead_frac"] = traced / plain - 1.0
        for q in ROUTE_QUANTITIES:
            metrics[f"thermo.route_failures.{q}"] = routes[q]
        # Stages are the calls analyze makes, or the public calls a propagate
        # op makes itself. Spans nested inside them add their cost to the
        # stages, so coverage comes from a pass that wraps only the stages.
        parent = "thermo.analyze" if self.workload == "analyze" else "op"
        stages = {full.names[full.name[i]].split("[")[0]
                  for i, p in enumerate(full.parent)
                  if p >= 0 and full.names[full.name[p]] == parent}
        light = spans.Tracer(select=lambda name: name == parent or name in stages)
        plain = 0.0
        while True:
            plain += self._interleaved(light, None)[0]
            done = (perf_counter() - t_start) / seconds
            if done >= 1.0:
                break
            between(done)
        dur = light.durations()
        covered = sum(dur[i] for i, p in enumerate(light.parent)
                      if p >= 0 and light.names[light.name[p]] == parent)
        metrics["trace.coverage"] = covered / plain
        return metrics, full


def span_metrics(tracer: spans.Tracer, dur: list[float]) -> dict:
    by_name = tracer.by_name(dur)
    metrics = {m: 1e6 * median(by_name.get(n, [])) for m, n in LAYER_SPANS.items()}
    ops = tracer.op_id + 1
    for m, base in CALL_COUNTS.items():
        metrics[m] = sum(len(d) for n, d in by_name.items() if n.split("[")[0] == base) / ops
    metrics["thermo.closed_form_us"] = 1e6 * median(
        [d for n in CLOSED_FORMS for d in by_name.get(n, [])])
    # The cross-check is everything analyze does besides its closed forms.
    closed_ids = {tracer.name_id(n) for n in CLOSED_FORMS}
    analyze_id = tracer.name_id("thermo.analyze")
    cross = {i: dur[i] for i, nid in enumerate(tracer.name) if nid == analyze_id}
    for i, (nid, p) in enumerate(zip(tracer.name, tracer.parent)):
        if p in cross and nid in closed_ids:
            cross[p] -= dur[i]
    metrics["thermo.cross_check_us"] = 1e6 * median(list(cross.values()))
    per_module = tracer.module_self_per_op(tracer.self_times(dur))
    for module, mean in per_module.items():
        metrics[f"{module}.self_us"] = 1e6 * mean
    return metrics


# ---- cli layers -----------------------------------------------------------


class CliLayers:
    """The cli.* and verify.* per-layer metrics, from one rotation of CLI
    operations: each as a `python -m qerase ...` subprocess, then in-process
    through `qerase.cli.main`. Every output is checked."""

    def __init__(self, seed: int, workdir: Path, outcomes: Outcomes) -> None:
        self.workdir = workdir
        self.sweep_path = workdir / "sweep.csv"
        self.rotation = workloads.cli_rotation(seed, str(self.sweep_path))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.outcomes = outcomes

    def _sweep_text(self, op) -> str | None:
        if op.kind != "sweep" or not self.sweep_path.exists():
            return None
        return self.sweep_path.read_text(encoding="utf-8")

    def _check(self, where: str, op, returncode, stdout: str, stderr: str = "") -> None:
        errors = oracle.check_cli(op, returncode, stdout, self._sweep_text(op))
        if errors:
            self.outcomes.unexpected_failure(
                f"{where} {op.kind} {op.label}: {'; '.join(errors)} {stderr[-500:]}".rstrip())

    def subprocess_op(self, op) -> float:
        """Wall seconds of one operation as a subprocess."""
        self.sweep_path.unlink(missing_ok=True)
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "qerase", *op.argv],
                                    stdout=fo, stderr=fe, cwd=ROOT, env=self.env)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # A blocking wait: Popen.wait(timeout) polls with sleeps
                # of up to 50 ms, which would blur the wall time.
                _, status = os.waitpid(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by waitpid
        self._check("subprocess", op, proc.returncode,
                    out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))
        return wall

    def _inprocess(self, op, tracer: spans.Tracer) -> float:
        """One op through `qerase.cli.main` in this process, in a root span
        named after its subcommand; returns the root span's duration."""
        self.sweep_path.unlink(missing_ok=True)
        buf = io.StringIO()
        with tracer:
            i = tracer.open_op(f"cli.{op.kind}")
            try:
                with contextlib.redirect_stdout(buf):
                    rc = sys.modules["qerase.cli"].main(list(op.argv))
            except Exception as exc:  # the subprocess would exit with 1
                rc = f"{type(exc).__name__}: {exc}"
            finally:
                seconds = tracer.close_op(i)
        self._check("in-process", op, rc, buf.getvalue())
        return seconds

    def metrics(self) -> dict:
        walls = [self.subprocess_op(op) for op in self.rotation]
        # Each op runs twice in a row in-process: with only the verify checks
        # wrapped (handler and check times), then fully traced (self times).
        light = spans.Tracer(select=lambda name: name.startswith("verify.check_"))
        full = spans.Tracer()
        plain = []
        for op in self.rotation:
            plain.append(self._inprocess(op, light))
            self._inprocess(op, full)
        per_module = full.module_self_per_op(full.self_times(full.durations()))
        metrics = {f"{m}.self_us": 1e6 * per_module[m] for m in ("cli", "verify")}
        light_by_name = light.by_name(light.durations())
        for check in VERIFY_CHECKS:
            metrics[f"verify.{check}_ms"] = 1e3 * median(
                light_by_name.get(f"verify.check_{check}", []))
        for kind in CLI_KINDS:
            key = _kind_key(kind)
            ops = [k for k, op in enumerate(self.rotation) if op.kind == kind]
            metrics[f"cli.{key}_s"] = median([walls[k] for k in ops])
            metrics[f"cli.{key}_handler_ms"] = 1e3 * median([plain[k] for k in ops])
        return metrics


# The CLI is not a workload of its own: the reference kernel, timed in the
# parent, tracks subprocesses of a second or two too poorly for their tail
# latency to hold a bound on the shared VM. Its layers (cli.*, verify.*) are
# measured in the traced run of this workload instead.
CLI_LAYERS_ON = "propagate"


# ---- set-up and context ---------------------------------------------------


def _run_probe(argv: list[str]) -> tuple[float, str]:
    t0 = perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S, check=False)
    wall = perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"probe {argv[1:]} failed: {done.stderr[-500:]}")
    return wall, done.stdout


class SetupProbes:
    """Set-up time in fresh interpreters (probe.py). The probes are spread
    over the timed phase, between passes, so that together they
    sample the host's speed at several moments. A first probe only warms
    the bytecode cache and is not counted."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(SRC)]
        self.rows: list[dict] = []
        self._probe()
        self.rows.clear()
        self._probe()

    def _probe(self) -> None:
        row = json.loads(_run_probe(self.argv)[1].strip().splitlines()[-1])
        if not row["ok"]:
            raise RuntimeError(f"the first {self.workload} operation gave a wrong result")
        self.rows.append(row)

    def between(self, done: float) -> None:
        """Called between passes with the share of the timed phase done."""
        while len(self.rows) < min(SETUP_PROBES, 1 + int(done * (SETUP_PROBES - 1))):
            self._probe()

    def medians(self, interpreter: bool) -> dict:
        """`setup_s` is each probe's set-up wall time scaled to the nominal
        kernel time by the kernel timed in the same fresh interpreter."""
        while len(self.rows) < SETUP_PROBES:
            self._probe()
        out = {key: median([r[key] for r in self.rows])
               for key in ("import_s", "cli_import_s", "kernel_s")}
        out["setup_wall_s"] = median([r["setup_s"] for r in self.rows])
        out["setup_s"] = median([r["setup_s"] * NOMINAL_S / r["kernel_s"] for r in self.rows])
        if interpreter:
            out["interpreter_s"] = median(
                [_run_probe([sys.executable, "-c", "pass"])[0] for _ in range(INTERPRETER_PROBES)])
        return out


def run_context(args, cpus: list[int]) -> dict:
    files = sorted((SRC / "qerase").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        lines += data.count(b"\n")
        digest.update(f.name.encode() + b"\0" + data)
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30, check=False)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "source_lines": lines,
    }


# ---- command line ---------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(args, q, workdir: Path, cpus: list[int]) -> tuple[dict, dict]:
    """Returns (result line, details)."""
    context = run_context(args, cpus)
    setup = SetupProbes(args.workload, args.seed)
    bench = LibraryBench(q, args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if not args.trace:
        e2e = bench.untraced(args.seconds, setup.between)
        probes = setup.medians(interpreter=False)
        e2e["setup_s"] = probes["setup_s"]
        e2e["setup_wall_s"] = probes["setup_wall_s"]
        metrics = _metric_block(e2e, END_TO_END_UNITS)
        notes = {
            "latency_tail_ref": e2e["_tail_note"],
            "reference_kernel_ms": e2e["_refs_ms"],
            "also_shown": _metric_block(e2e, ALSO_SHOWN_UNITS),
        }
    else:
        # The traced replay alone; spans are written out once the run is over.
        layer, tracer = bench.traced(args.seconds, setup.between)
        probes = setup.medians(interpreter=True)
        if args.workload == CLI_LAYERS_ON:
            layer.update(CliLayers(args.seed, workdir, bench.outcomes).metrics())
        layer["cli.interpreter_s"] = probes["interpreter_s"]
        layer["cli.import_s"] = probes["cli_import_s"]
        layer["code.source_lines"] = context["source_lines"]
        layer["failed_frac"] = bench.outcomes.failed / bench.outcomes.attempted
        for name in PER_LAYER_UNITS:  # layers this workload never calls
            layer.setdefault(name, 0.0)
        metrics = _metric_block(layer, PER_LAYER_UNITS)
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
        notes = {"spans": len(tracer.end)}
    outcomes = bench.outcomes
    result = {
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    details = {
        "context": context,
        "probes": probes,
        "notes": notes,
        "failed_frac": outcomes.failed / outcomes.attempted,
        "known_false_alarms": dict(outcomes.known),
        "unexpected_failures": outcomes.unexpected,
        "unexpected_messages": outcomes.messages,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    return result, details


def report(details: dict) -> None:
    ctx = details["context"]
    print(f"qerase benchmark: workload={ctx['workload']} seed={ctx['seed']} "
          f"seconds={ctx['seconds']} trace={ctx['trace']}")
    print(f"  python {ctx['python']}, nproc {ctx['nproc']}, commit {ctx['commit'] or 'unknown'}, "
          f"source {ctx['source_sha256'][:12]} ({ctx['source_lines']} lines)")
    res = details["result"]
    print(f"  ops attempted {res['attempted']}, failed {res['failed']} "
          f"(failed_frac {details['failed_frac']:.4f}), outputs correct: {res['correct']}")
    for key, count in sorted(details["known_false_alarms"].items()):
        print(f"    known false alarm (limit temperature, near-pure), {key}: {count}")
    for message in details["unexpected_messages"]:
        print(f"    UNEXPECTED: {message}")
    notes = details["notes"]
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    if "also_shown" in notes:
        print(f"  not gated (reference kernel median {notes['reference_kernel_ms']:.4g} ms):")
        for name, m in notes["also_shown"].items():
            print(f"    {name:<42} {m['value']:>14.6g} {m['unit']}")
        print(f"    {'failed_frac':<42} {details['failed_frac']:>14.6g} ratio")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "qerase" / "__init__.py").is_file():
        print(f"perfbench: no qerase package under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qerase

    if Path(qerase.__file__).resolve().parent != (SRC / "qerase").resolve():
        print(f"perfbench: imported qerase from {qerase.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # The whole run, subprocesses included, stays on one CPU, so the
    # reference kernel and the operations see the same vCPU.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result, details = run(args, qerase, workdir, cpus)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
