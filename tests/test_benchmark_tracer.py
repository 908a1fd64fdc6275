"""What the benchmark's tracer reads from symseq, held as a test.

``perfbench/child.py cli ARGS`` runs one CLI request; with ``PERFBENCH_TRACE``
set, ``perfbench/tracing.install`` first wraps every public function, the
verify checks, ``Seq`` construction and ``OrliczFn.__call__``, and the spans
are written to that file when the request ends.  The wrapping must not
change a stdout byte, and the span file must still carry the attributes the
per-layer metrics are read from.  One request per layer that the tracer
reads beyond plain spans: the branching witness, an Orlicz index and a
verify check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
POWER_LOG = '{"kind":"orlicz","orlicz":{"form":"power_log","p":2,"a":0.6}}'

# request, and the spans (name: attribute keys) its trace must hold
REQUESTS = {
    "un": (["witness", "--kind", "un", "--p", "2", "--n", "5"],
           {"spectral.branching_witness": {"materialized"}}),
    "fset": (["fset", "--space", POWER_LOG], {"indices.index_report": set()}),
    "verify9": (["verify", "--suite", "9"],
                {"verify.check_09": set(), "spectral.check_disjoint_supports": set()}),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(traced, plain) finished processes and the span file, per request;
    all six processes run at once, so the module costs one slow start."""
    tmp = tmp_path_factory.mktemp("trace")
    pipes = {"cwd": ROOT, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True}
    procs = {}
    for name, (argv, _) in REQUESTS.items():
        trace = tmp / f"{name}.jsonl"
        env = {**os.environ, "PERFBENCH_TRACE": str(trace), "PERFBENCH_REQUEST": name}
        procs[name] = (
            subprocess.Popen([sys.executable, str(CHILD), "cli", *argv], env=env, **pipes),
            subprocess.Popen([sys.executable, "-m", "symseq.cli", *argv], **pipes),
            trace,
        )
    out = {}
    for name, (traced, plain, trace) in procs.items():
        out[name] = (traced.communicate(timeout=60), traced.returncode,
                     plain.communicate(timeout=60), plain.returncode, trace)
    return out


@pytest.mark.parametrize("name", list(REQUESTS))
def test_traced_request_keeps_stdout_and_writes_the_attributes_the_metrics_read(runs, name):
    (out, err), code, (plain_out, plain_err), plain_code, trace = runs[name]
    assert code == plain_code == 0, (err, plain_err)
    assert out == plain_out and out
    lines = trace.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["request"] == name
    assert {"orlicz_calls", "orlicz_elements"} <= head.keys()
    spans = [json.loads(line) for line in lines[1:]]
    names = {span[2] for span in spans}
    assert "cli.run" in names
    for want, keys in REQUESTS[name][1].items():
        attrs = [span[5] or {} for span in spans if span[2] == want]
        assert attrs, (want, sorted(names))
        assert all(keys <= a.keys() for a in attrs), (want, attrs)
