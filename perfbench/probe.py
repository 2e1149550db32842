"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 perfbench/probe.py WORKLOAD SEED SRC_DIR

Times, from just before `import qerase`, the import and the workload's first
operation (which fills the lru_cached unitaries), then `import qerase.cli`,
then the reference kernel (median of 5 runs) to gauge this interpreter's
speed. Interpreter start-up is not included. Prints one JSON line.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import calls
import kernel
import workloads


def main(workload: str, seed: int, src: str) -> int:
    draws = (workloads.analyze_batch if workload == "analyze" else workloads.propagate_batch)(seed)
    first = draws[0]
    sys.path.insert(0, src)

    t0 = perf_counter()
    import qerase
    t_import = perf_counter()
    item = calls.prepare(qerase, [first])[0]
    try:
        out, err = calls.OPS[workload](qerase, item), None
    except Exception as exc:  # judged below like any other failed operation
        out, err = None, exc
    t_op = perf_counter()
    import qerase.cli
    cli_import = (t_import - t0) + (perf_counter() - t_op)
    completed, known, _ = calls.judge(workload, first, out, err)
    ok = completed or known

    kernel_s = sorted(kernel.reference_s() for _ in range(5))[2]
    print(json.dumps({"setup_s": t_op - t0, "import_s": t_import - t0,
                      "cli_import_s": cli_import, "kernel_s": kernel_s, "ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
