"""Reference figures for the benchmark README; not a workload.

    python3 perfbench/reference.py

Prints, from the root of a checkout:

* ``symseq verify --suite all --seed 7`` run through the real CLI, its wall
  time and its output, then each check's own elapsed time from an
  in-process ``run_checks(seed=7)`` (the CLI does not print them);
* an l^p and an Orlicz ``scan`` with ``SEQSPACE_THREADS=2`` against unset,
  alternating which runs first, median of ``REPEATS`` each.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
ENV.pop("SEQSPACE_THREADS", None)
REPEATS = 3

SCANS = [
    ("l^p", ["scan", "--space", '{"kind":"lp","p":2}', "--grid", "1.0:1.8:17"]),
    ("orlicz t^1.5", ["scan", "--space", '{"kind":"orlicz","orlicz":{"form":"power","p":1.5}}',
                      "--grid", "1.2:2.0:9"]),
]

PER_CHECK = """
from symseq.verify import run_checks
for r in run_checks(seed=7):
    print(f"{r.crit_id:2d} {r.elapsed:8.2f}s {'PASS' if r.passed else 'FAIL'} {r.name}")
"""


def timed(argv: list[str], env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    out = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
    return time.perf_counter() - t0, out.stdout


def main() -> int:
    py = sys.executable

    wall, out = timed([py, "-m", "symseq.cli", "verify", "--suite", "all", "--seed", "7"], ENV)
    print(f"symseq verify --suite all --seed 7: {wall:.1f}s wall")
    print(out, end="")
    print("per check (in-process run_checks(seed=7), CheckResult.elapsed):")
    print(timed([py, "-c", PER_CHECK], ENV)[1], end="")

    threaded = dict(ENV, SEQSPACE_THREADS="2")
    for label, argv in SCANS:
        serial, two = [], []
        for i in range(REPEATS):
            order = [(serial, ENV), (two, threaded)]
            for sink, env in order if i % 2 == 0 else order[::-1]:
                sink.append(timed([py, "-m", "symseq.cli"] + argv, env)[0])
        print(f"scan {label}: unset {statistics.median(serial):.2f}s, "
              f"SEQSPACE_THREADS=2 {statistics.median(two):.2f}s "
              f"(median of {REPEATS}; {' '.join(argv[3:])})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
