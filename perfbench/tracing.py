"""Spans around symseq's public functions, installed from outside the package.

``install`` wraps every public function of every symseq module, under each
name a caller looks it up by (``symseq.spectral.norm`` as well as
``symseq.spaces.norm``), plus the verify checks, ``Seq`` construction and
``OrliczFn`` evaluation.  A span records its name, start, end, parent span
and request id; spans stay in memory until ``Tracer.write`` at process exit.
``layer_metrics`` turns the spans of a round into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("cli", "verify", "indices", "_limits", "spaces", "operators",
           "lattices", "spectral", "seq")

# metric prefix per module; a metric name may not start with "_"
PREFIX = {"_limits": "limits"}

_FAMILY = {"Lp": "lp", "LpQ": "lpq", "Lorentz": "lorentz", "Orlicz": "orlicz"}


def _norm_family(space, *_args, **_kwargs) -> str:
    return _FAMILY.get(type(space).__name__, "other")


def _terms(out, term, points) -> dict:
    # points are sorted, so the last one is how far the stream ran
    return {"terms": int(points[-1]) if len(points) else 0}


# extra counts recorded on a span from the call's result and arguments
ATTRS = {
    "indices.partial_sums_at": _terms,
    "spectral.residual_scan": lambda out, *a, **k: {"points": len(out)},
    "spectral.branching_witness": lambda out, *a, **k: {"materialized": int(out.materialized)},
    "spectral.rational_dilation": lambda out, *a, **k: {"keys": len(out)},
}


class Tracer:
    """In-memory span recorder for one request (one process)."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self._stack: list[int] = []
        self.orlicz_calls = 0
        self.orlicz_elements = 0

    def wrap(self, name: str, fn, label=None):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(*args, **kwargs)}"
            rec = [len(spans), stack[-1] if stack else -1, span_name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(out, *args, **kwargs)
            return out

        return traced

    def count_orlicz(self, call):
        """Count N evaluations and their elements, charged to the open span."""
        tracer = self

        @functools.wraps(call)
        def counted(fn_self, t):
            out = call(fn_self, t)
            tracer.orlicz_calls += 1
            tracer.orlicz_elements += out.size
            if tracer._stack:
                rec = tracer.spans[tracer._stack[-1]]
                if rec[5] is None:
                    rec[5] = {}
                rec[5]["N_calls"] = rec[5].get("N_calls", 0) + 1
            return out

        return counted

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"request": self.request_id,
                                 "orlicz_calls": self.orlicz_calls,
                                 "orlicz_elements": self.orlicz_elements}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _rebind(pkg_modules: list, old, new) -> None:
    for mod in pkg_modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    """Wrap symseq's public functions in place; call before any request runs."""
    import symseq
    import symseq.cli

    mods = {name: sys.modules[f"symseq.{name}"] for name in MODULES}
    everywhere = [symseq] + list(mods.values())
    for name, mod in mods.items():
        public = getattr(mod, "__all__", ["run"])
        for attr in public:
            fn = getattr(mod, attr, None)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            span = f"{PREFIX.get(name, name)}.{attr}"
            label = _norm_family if span == "spaces.norm" else None
            _rebind(everywhere, fn, tracer.wrap(span, fn, label))
    checks = mods["verify"].ALL_CHECKS
    for i, (cid, title, fn) in enumerate(checks):
        wrapped = tracer.wrap(f"verify.check_{cid:02d}", fn)
        checks[i] = (cid, title, wrapped)
        _rebind(everywhere, fn, wrapped)
    seq_cls = mods["seq"].Seq
    seq_cls.__init__ = tracer.wrap("seq.Seq", seq_cls.__init__)
    orlicz_cls = mods["spaces"].OrliczFn
    orlicz_cls.__call__ = tracer.count_orlicz(orlicz_cls.__call__)


# ---------------------------------------------------------------------------
# aggregation on the benchmark side


def read_spans(path: str) -> tuple[dict, list[list]]:
    with open(path) as fh:
        head = json.loads(fh.readline())
        return head, [json.loads(line) for line in fh]


def span_totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: call count, self time, summed attributes."""
    child_time = defaultdict(float)
    for sid, parent, _name, start, end, _attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, self_s, attrs = defaultdict(int), defaultdict(float), defaultdict(lambda: defaultdict(int))
    for sid, _parent, name, start, end, extra in spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time[sid]
        for key, val in (extra or {}).items():
            attrs[name][key] += val
    return calls, self_s, attrs


def layer_metrics(requests: list[dict], names: list[str]) -> dict[str, float]:
    """The per-layer metrics ``names`` of one traced round.

    A name ``<span>.calls`` counts spans, ``<span>.self_s`` sums their self
    time and ``<span>.<attr>`` sums a recorded attribute; a few names are
    derived below.  Each entry of ``requests`` holds ``head`` and ``spans``
    read back from one traced process, its wall time ``wall_s`` and whether
    it ran the CLI.
    """
    calls, self_s = defaultdict(int), defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(int))
    start_s = 0.0
    for req in requests:
        req_calls, req_self, req_attrs = span_totals(req["spans"])
        for name, n in req_calls.items():
            calls[name] += n
            self_s[name] += req_self[name]
            for key, val in req_attrs.get(name, {}).items():
                attrs[name][key] += val
        if req["cli"]:
            run_s = sum(end - start for _, _, name, start, end, _ in req["spans"] if name == "cli.run")
            start_s += req["wall_s"] - run_s
    out: dict[str, float] = {}
    for metric in names:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(base, 0)
        elif field == "self_s":
            out[metric] = self_s.get(base, 0.0)
        else:
            out[metric] = attrs.get(base, {}).get(field, 0)
    out["spaces.norm.calls"] = sum(n for name, n in calls.items() if name.startswith("spaces.norm."))
    n_orlicz = calls.get("spaces.norm.orlicz", 0)
    evals = attrs.get("spaces.norm.orlicz", {}).get("N_calls", 0)
    out["spaces.orlicz_evals_per_norm"] = evals / n_orlicz if n_orlicz else 0.0
    out["spaces.OrliczFn.calls"] = sum(r["head"]["orlicz_calls"] for r in requests)
    out["spaces.OrliczFn.elements"] = sum(r["head"]["orlicz_elements"] for r in requests)
    out["cli.start_s"] = start_s
    out["trace.spans"] = sum(len(r["spans"]) for r in requests)
    return out
