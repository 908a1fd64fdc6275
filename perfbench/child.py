"""One benchmark process: set-up probe, norm batch, or a traced CLI request.

    python3 perfbench/child.py setup SPECS.json
    python3 perfbench/child.py norms TASKS.json OUT.json
    python3 perfbench/child.py cli ARGS...

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``.
When ``PERFBENCH_TRACE`` names a file, the symseq functions are wrapped in
spans first and the spans are written there when the process ends; the
request id comes from ``PERFBENCH_REQUEST``.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _build(spec: dict):
    from symseq import lattice_from_json, space_from_json

    if "lattice" in spec:
        return lattice_from_json(spec["lattice"])
    return space_from_json(spec["space"])


def setup(path: str) -> int:
    """Import symseq and its CLI, then build every space the workload names."""
    import symseq  # noqa: F401
    import symseq.cli  # noqa: F401

    with open(path) as fh:
        for spec in json.load(fh):
            _build(spec)
    return 0


def norms(path: str, out_path: str) -> int:
    """Evaluate the norm batch ``repeats`` times; report values and times.

    Spaces and operators are built before the clock starts.  Every repeat
    must give bit-identical values.
    """
    import numpy as np
    from symseq import lattices, operators, spaces

    with open(path) as fh:
        batch = json.load(fh)
    jobs = []
    for task in batch["tasks"]:
        target = _build(task)
        op = operators.parse_operator(task["op"]) if task.get("op") else None
        x = np.asarray(task["x"], dtype=float) * task.get("scale", 1.0)
        jobs.append(("lattice" in task, target, op, x))
    times, values = [], None
    for _ in range(batch["repeats"]):
        got = []
        t0 = time.perf_counter()
        for is_lattice, target, op, x in jobs:
            if is_lattice:
                got.append(lattices.lattice_norm(target, x))
            else:
                got.append(spaces.norm(target, x if op is None else operators.apply_array(op, x)))
        times.append(time.perf_counter() - t0)
        got = [float(v) for v in got]
        if values is not None and got != values:
            raise SystemExit("norm batch changed between repeats")
        values = got
    with open(out_path, "w") as fh:
        json.dump({"values": values, "times": times}, fh)
    return 0


def cli(argv: list[str]) -> int:
    import symseq.cli

    try:
        symseq.cli.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    return 0


def main() -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        import tracing

        tracer = tracing.Tracer(os.environ.get("PERFBENCH_REQUEST", ""))
        tracing.install(tracer)
    mode, args = sys.argv[1], sys.argv[2:]
    try:
        if mode == "setup":
            return setup(*args)
        if mode == "norms":
            return norms(*args)
        if mode == "cli":
            return cli(args)
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main())
