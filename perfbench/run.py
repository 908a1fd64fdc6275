"""symseq benchmark: one client, a closed loop of fixed sessions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds the session's inputs
from the seed, measures set-up time, then runs whole sessions (rounds) one
request at a time until S seconds of rounds have passed, at least one.
Every output is checked by ``oracles``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics of the traced rounds, each run after an untraced round, which gives
the tracing overhead.  Spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import sessions  # noqa: E402
import tracing  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
# set-up probes before and after the rounds; setup_s is their median
SETUP_BEFORE, SETUP_AFTER = 5, 4


class Runner:
    """Starts one child process at a time and records its wall time and RSS."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("SEQSPACE_THREADS", None)
        self.env.pop("PERFBENCH_TRACE", None)

    def spawn(self, argv: list[str], name: str, env_extra: dict | None = None) -> dict:
        env = dict(self.env, **(env_extra or {}))
        out_path = self.workdir / f"{name}.out"
        err_path = self.workdir / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "returncode": proc.returncode,
            "wall_s": t1 - t0,
            "rss_mib": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(),
            "stderr": err_path.read_text(),
        }


def run_round(runner: Runner, requests, traced: bool, tag: str) -> dict:
    """Run the session's requests in order; return timings and check verdicts."""
    py = sys.executable
    child = str(HERE / "child.py")
    results, traces = [], []
    t_start = time.perf_counter()
    for req in requests:
        name = f"{tag}-{req.rid}"
        extra, trace_path = None, None
        if traced:
            trace_path = runner.workdir / f"{name}.spans"
            extra = {"PERFBENCH_TRACE": str(trace_path), "PERFBENCH_REQUEST": name}
        norm_out = None
        if req.kind == "norms":
            in_path = runner.workdir / f"{req.rid}.tasks.json"
            out_path = runner.workdir / f"{name}.values.json"
            res = runner.spawn([py, child, "norms", str(in_path), str(out_path)], name, extra)
            if res["returncode"] == 0:
                norm_out = json.loads(out_path.read_text())
        elif traced:
            res = runner.spawn([py, child, "cli"] + req.argv, name, extra)
        else:
            res = runner.spawn([py, "-m", "symseq.cli"] + req.argv, name)
        res["norms"] = norm_out
        results.append((req, res))
        if traced:
            head, spans = tracing.read_spans(str(trace_path))
            traces.append({"head": head, "spans": spans, "wall_s": res["wall_s"],
                           "cli": req.kind != "norms", "rid": name})
    wall = time.perf_counter() - t_start

    ops = []
    for req, res in results:
        verdicts = req.check(res["returncode"], res["stdout"], res["norms"])
        ops.extend(verdicts)
        for v in verdicts:
            if v.problems and not v.known_fault:
                print(f"[{tag}-{req.rid}] " + "; ".join(v.problems), file=sys.stderr)
                if res["stderr"].strip():
                    print(res["stderr"].strip()[-2000:], file=sys.stderr)
    return {"wall_s": wall, "results": results, "ops": ops, "traces": traces}


def round_metrics(rnd: dict) -> dict:
    def total(kinds):
        return sum(res["wall_s"] for req, res in rnd["results"] if req.kind in kinds)

    scans = [(req.points, res["wall_s"]) for req, res in rnd["results"] if req.kind == "scan"]
    batches = [(len(res["norms"]["values"]) * len(res["norms"]["times"]), sum(res["norms"]["times"]))
               for req, res in rnd["results"] if req.kind == "norms" and res["norms"]]
    return {
        "wall_s": rnd["wall_s"],
        "index_s": total(("index", "fset")),
        "scan_points_per_s": sum(p for p, _ in scans) / sum(t for _, t in scans),
        "witness_s": total(("witness",)),
        "verify_s": total(("verify",)),
        "norms_per_s": sum(n for n, _ in batches) / sum(t for _, t in batches),
        "peak_rss_mib": max(res["rss_mib"] for _, res in rnd["results"]),
    }


def breakdown(rnd: dict, top: int = 4) -> list[str]:
    """Human-readable per-request view of a traced round: where time went."""
    lines = []
    for tr in rnd["traces"]:
        calls, self_s, _ = tracing.span_totals(tr["spans"])
        run_s = sum(s[4] - s[3] for s in tr["spans"] if s[2] == "cli.run")
        parts = sorted(self_s.items(), key=lambda kv: -kv[1])[:top]
        body = ", ".join(f"{k} {v:.3f}s/{calls[k]}" for k, v in parts)
        start = f" start {tr['wall_s'] - run_s:.3f}s" if tr["cli"] else ""
        lines.append(f"  {tr['rid']}: wall {tr['wall_s']:.3f}s{start}; self: {body}")
    return lines


def write_trace(path: Path, rounds: list[dict]) -> None:
    with open(path, "w") as fh:
        for rnd in rounds:
            for tr in rnd["traces"]:
                for sid, parent, name, start, end, extra in tr["spans"]:
                    fh.write(json.dumps({"request": tr["rid"], "id": sid, "parent": parent,
                                         "name": name, "start": start, "end": end,
                                         "attrs": extra}) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sessions.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps the request it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "symseq" / "cli.py").is_file():
        print(f"error: no symseq sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    requests = sessions.build(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir)
    try:
        for req in requests:
            if req.batch is not None:
                (workdir / f"{req.rid}.tasks.json").write_text(json.dumps(req.batch))
        (workdir / "setup.json").write_text(json.dumps(sessions.setup_specs(requests)))

        setup_times = []

        def probe_setup(count: int) -> None:
            for _ in range(count):
                res = runner.spawn([sys.executable, str(HERE / "child.py"), "setup",
                                    str(workdir / "setup.json")], f"setup{len(setup_times)}")
                if res["returncode"] != 0:
                    raise SystemExit(f"set-up probe failed:\n{res['stderr']}")
                setup_times.append(res["wall_s"])

        if not args.trace:
            probe_setup(SETUP_BEFORE)

        plain, traced = [], []
        measured = 0.0
        while not plain or measured < args.seconds:
            rnd = run_round(runner, requests, traced=False, tag=f"r{len(plain)}")
            plain.append(rnd)
            measured += rnd["wall_s"]
            if args.trace:
                rnd = run_round(runner, requests, traced=True, tag=f"t{len(traced)}")
                traced.append(rnd)
                measured += rnd["wall_s"]

        if not args.trace:
            probe_setup(SETUP_AFTER)

        ops = [op for rnd in plain + traced for op in rnd["ops"]]
        failed = sum(1 for op in ops if op.problems)
        correct = not any(op.problems and not op.known_fault for op in ops)

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            per_round = [tracing.layer_metrics(rnd["traces"], list(units)) for rnd in traced]
            values = {k: statistics.mean(m[k] for m in per_round) for k in per_round[0]}
            values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                          - statistics.median(r["wall_s"] for r in plain))
            trace_path = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
            write_trace(trace_path, traced)
            print(f"traced round of {args.workload} (seed {args.seed}), "
                  f"spans in {trace_path.relative_to(ROOT)}:")
            for line in breakdown(traced[-1]):
                print(line)
            print(f"  tracing overhead: {values['trace.overhead_s']:.3f}s on untraced wall "
                  f"{statistics.median(r['wall_s'] for r in plain):.3f}s")
        else:
            per_round = [round_metrics(rnd) for rnd in plain]
            values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
            values["setup_s"] = statistics.median(setup_times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
