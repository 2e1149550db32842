"""Spans around the calls into each qerase module, recorded from outside it.

`Tracer.install` wraps, in place, every public function of the seven qerase
modules, a few public classmethods and `ComplexMatrix.__init__`, in every
module namespace that holds them. Calls the package makes internally are then
seen as well, and nothing under src/ changes. `uninstall` puts the originals
back. Spans stay in flat in-memory arrays until the run writes them out.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
from array import array
from time import perf_counter

MODULES = ("linalg", "states", "channel", "thermo", "optics", "verify", "cli")
# Span names of these functions carry the matrix dimension, e.g. linalg.matmul[8].
BY_DIM = frozenset({"linalg.matmul", "linalg.hermitian_eigenvalues"})
CLASSMETHODS = (
    ("optics", "PathDistribution", "from_beta"),
    ("states", "ThermalSpec", "from_beta"),
    ("states", "ThermalSpec", "from_temperature"),
)


class Tracer:
    """Records spans; `select`, given a span name, limits what is wrapped."""

    def __init__(self, select=None) -> None:
        self.select = select
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # The benchmark's own root span of one operation.
    def open_op(self, name: str) -> int:
        self.op_id += 1
        i = len(self.end)
        self.name.append(self.name_id(name))
        self.parent.append(-1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close_op(self, i: int) -> float:
        self.end[i] = perf_counter()
        self._stack.pop()
        return self.end[i] - self.start[i]

    def _wants(self, name: str) -> bool:
        return self.select is None or self.select(name)

    def _wrap(self, fn, name: str):
        names, parent, op, start, end, stack = (
            self.name, self.parent, self.op, self.start, self.end, self._stack)
        tracer = self
        if name in BY_DIM:
            ids: dict[int, int] = {}

            def name_of(args) -> int:
                dim = args[0].dim
                nid = ids.get(dim)
                if nid is None:
                    nid = ids[dim] = tracer.name_id(f"{name}[{dim}]")
                return nid
        else:
            fixed = self.name_id(name)

            def name_of(args) -> int:
                return fixed

        def traced(*args, **kwargs):
            i = len(end)
            names.append(name_of(args))
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"qerase.{m}") for m in MODULES]
        namespaces = [sys.modules["qerase"], *modules]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if self._wants(f"{short}.{attr}"):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, hit[1])
        matrix = sys.modules["qerase.linalg"].ComplexMatrix
        if self._wants("linalg.matrix_init"):
            self._patch(matrix, "__init__", self._wrap(matrix.__init__, "linalg.matrix_init"))
        for short, cls_name, attr in CLASSMETHODS:
            cls = getattr(sys.modules[f"qerase.{short}"], cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(original, classmethod) and self._wants(name):
                self._patch(cls, attr, classmethod(self._wrap(original.__func__, name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- analysis -------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self, dur: list[float]) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        return [d - c for d, c in zip(dur, covered)]

    def by_name(self, dur: list[float]) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for nid, d in zip(self.name, dur):
            out.setdefault(self.names[nid], []).append(d)
        return out

    def module_self_per_op(self, self_t: list[float]) -> dict[str, float]:
        """Per module, the mean self time an operation spent in it."""
        out = dict.fromkeys(MODULES, 0.0)
        for nid, t in zip(self.name, self_t):
            module = self.names[nid].split(".", 1)[0]
            if module in out:
                out[module] += t
        return {m: total / (self.op_id + 1) for m, total in out.items()}

    def write(self, path) -> None:
        """Gzipped JSON, one column per field; a span's id is its row.
        Times are integer nanoseconds from the first span's start."""
        t0 = self.start[0] if self.start else 0.0
        columns = {
            "names": self.names,
            "name": self.name.tolist(),
            "op": self.op.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(columns, fh)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
