"""The three workloads: fixed request lists whose inputs come from a seed.

A session is one round of requests, run one after another.  ``index``,
``fset``, ``scan``, ``witness`` and ``verify`` go through the real CLI;
a ``norms`` request is one fresh process that evaluates a batch of norms
in-process.  Each request knows how to check its own output with the
oracles; a check yields one ``OpResult`` per operation (one per CLI
request, one per norm in a batch).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("index-stream", "orlicz-roots", "exact-spectral")

# the Orlicz functions of orlicz-roots, as CLI JSON descriptors
ORLICZ_FNS = [
    {"form": "power", "p": 1.5},
    {"form": "power", "p": 3.0},
    {"form": "power_log", "p": 2.0, "a": 0.6},
]

# Wide-magnitude inputs: c * x with c far from 1.  spaces.norm raises the
# unscaled entries to the power for l^p, l^{p,q} and Lorentz, so at p = 2
# these overflow to inf (c = 1e200) or underflow to 0.0 (c = 1e-200).  They
# do not depend on the seed and fail on every run until the norm scales by
# max|x| first; they are counted as failed operations, not as wrong output.
WIDE_X = [3.0, -4.0, 12.0, 1.0, 0.5, 2.0]
WIDE_SCALES = (1e-200, 1e200)
WIDE_SPACES = [
    {"kind": "lp", "p": 2.0},
    {"kind": "lpq", "p": 3.0, "q": 2.0},
    {"kind": "lorentz", "q": 2.0, "weights": {"form": "power", "theta": 0.25}},
]


@dataclass
class OpResult:
    problems: list[str]
    known_fault: bool = False


@dataclass
class Request:
    rid: str
    kind: str                      # index | fset | scan | witness | verify | norms
    argv: list[str] = field(default_factory=list)
    check: Callable | None = None  # (returncode, stdout, norm_output) -> [OpResult]
    points: int = 0                # lambda grid points, for scans
    batch: dict | None = None      # tasks and repeats, for norm batches


def _lp(p: float) -> dict:
    return {"kind": "lp", "p": p}


def _lorentz(q: float, theta: float) -> dict:
    return {"kind": "lorentz", "q": q, "weights": {"form": "power", "theta": theta}}


def _orlicz(desc: dict) -> dict:
    return {"kind": "orlicz", "orlicz": desc}


def _j(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cli(rid: str, kind: str, argv: list[str], check) -> Request:
    """A CLI request whose JSON (or text) output is one operation."""

    def evaluate(returncode: int, stdout: str, _norms) -> list[OpResult]:
        if returncode != 0:
            return [OpResult([f"{rid}: exit code {returncode}"])]
        try:
            return [OpResult(check(stdout))]
        except (ValueError, KeyError, TypeError) as e:
            return [OpResult([f"{rid}: unreadable output: {e!r}"])]

    return Request(rid, kind, argv, evaluate)


def index_req(rid: str, space: dict) -> Request:
    return _cli(rid, "index", ["index", "--space", _j(space)],
                lambda out: oracles.check_index(space, json.loads(out)))


def fset_req(rid: str, space: dict) -> Request:
    return _cli(rid, "fset", ["fset", "--space", _j(space)],
                lambda out: oracles.check_fset(space, json.loads(out)))


def scan_req(rid: str, space: dict, center: float, half: float, steps: int, seed: int) -> Request:
    grid = f"{center - half!r}:{center + half!r}:{steps}"
    req = _cli(rid, "scan", ["scan", "--space", _j(space), "--grid", grid, "--seed", str(seed)],
               lambda out: oracles.check_scan(space, json.loads(out)))
    req.points = steps
    return req


def vn_req(rid: str, p: float, n: int, space: dict | None = None) -> Request:
    argv = ["witness", "--kind", "vn", "--p", repr(p), "--n", str(n)]
    if space is None:
        return _cli(rid, "witness", argv, lambda out: oracles.check_vn_lp(p, n, json.loads(out)))
    return _cli(rid, "witness", argv + ["--space", _j(space)],
                lambda out: oracles.check_vn_space(space, p, n, json.loads(out)))


def un_req(rid: str, p: float, n: int) -> Request:
    return _cli(rid, "witness", ["witness", "--kind", "un", "--p", repr(p), "--n", str(n)],
                lambda out: oracles.check_un(p, n, json.loads(out)))


def verify_req(rid: str, ids: list[int], seed: int) -> Request:
    argv = ["verify", "--suite", ",".join(map(str, ids)), "--seed", str(seed)]

    def evaluate(returncode: int, stdout: str, _norms) -> list[OpResult]:
        return [OpResult(oracles.check_verify(ids, returncode, stdout))]

    return Request(rid, "verify", argv, evaluate)


def norms_req(rid: str, tasks: list[dict], repeats: int) -> Request:
    """One process evaluating ``tasks``; each task is one operation."""

    def evaluate(returncode: int, _stdout: str, out) -> list[OpResult]:
        if returncode != 0 or out is None:
            return [OpResult([f"{rid}: exit code {returncode}"]) for _ in tasks]
        values = out["values"]
        results = []
        by_label = dict(zip((t["label"] for t in tasks), values))
        for task, got in zip(tasks, values):
            problems = oracles.check_norm(task, got)
            pair = task.get("doubling_of")
            if pair is not None:
                problems += oracles.check_doubling_identity(
                    float(task["space"]["p"]), by_label[pair], got)
            results.append(OpResult(problems, known_fault="scale" in task))
        return results

    return Request(rid, "norms", check=evaluate, batch={"tasks": tasks, "repeats": repeats})


def _vectors(rng, lengths, per_length: int) -> list[list[float]]:
    return [rng.standard_normal(n).tolist() for n in lengths for _ in range(per_length)]


def wide_tasks() -> list[dict]:
    return [
        {"label": f"wide-{i}-c{scale:.0e}", "space": space, "x": WIDE_X, "scale": scale}
        for i, space in enumerate(WIDE_SPACES)
        for scale in WIDE_SCALES
    ]


# ---------------------------------------------------------------------------
# workloads


def _norm_tasks(tag: str, spaces: list[dict], vecs: list, ops=(None,)) -> list[dict]:
    tasks = []
    for i, sp in enumerate(spaces):
        for j, x in enumerate(vecs):
            for op in ops:
                task = {"label": f"{tag}{i}-{j}-{op}", "space": sp, "x": x, "op": op}
                if op == "doubling" and sp["kind"] == "lp":
                    task["doubling_of"] = f"{tag}{i}-{j}-None"
                tasks.append(task)
    return tasks


# Cheap requests sit between the long ones, and each kind of short sample is
# split over several requests: this machine's speed drifts over seconds, so
# spreading the short samples across the session keeps one slow stretch from
# moving a whole metric.


def index_stream(seed: int, rng) -> list[Request]:
    """Two 2^30-term partial-sum streams, criterion 6, and cheap requests."""
    theta = float(rng.choice([0.1, 0.25, 0.3, 0.4]))
    p_lpq = float(rng.choice([2.5, 3.0, 4.0, 5.0, 6.0]))
    vecs = _vectors(rng, (16, 128, 1024, 4096), 3)
    batches = [
        ("lp", [_lp(1.5), _lp(2.0), _lp(3.0)]),
        ("lpq", [{"kind": "lpq", "p": 3.0, "q": 2.0}, {"kind": "lpq", "p": 2.0, "q": 4.0}]),
        ("lorentz", [_lorentz(2.0, 0.25), _lorentz(1.0, 0.3)]),
    ]
    first, second = [], []
    for i, ((tag, spaces), p) in enumerate(zip(batches, (1.5, 2.0, 3.0))):
        tasks = _norm_tasks(tag, spaces, vecs)
        scans = [scan_req(f"scan-lp-{i}-{half}", _lp(p), 2.0 ** (1.0 / p),
                          float(rng.uniform(0.2, 0.4)), 5, seed) for half in "ab"]
        first.append([norms_req(f"norms-{tag}-a", tasks, repeats=150),
                      vn_req(f"vn-lp-{i}", p, int(rng.integers(16, 1025))), scans[0]])
        second.append([norms_req(f"norms-{tag}-b", tasks, repeats=150), scans[1]])
    return (first[0] + [index_req("index-lorentz", _lorentz(2.0, theta))]
            + first[1] + second[0] + [fset_req("fset-lpq", {"kind": "lpq", "p": p_lpq, "q": 2.0})]
            + first[2] + second[1] + [verify_req("verify-6", [6], seed)]
            + second[2] + [vn_req("vn-lp-3", 1.0, int(rng.integers(16, 1025)))])


def orlicz_roots(seed: int, rng) -> list[Request]:
    """Luxemburg and inverse bisection everywhere; no partial-sum streaming."""
    vecs = _vectors(rng, (16, 256, 1024, 4096), 3)
    coords = [np.abs(rng.standard_normal(n)).tolist() for n in (6, 12, 24) for _ in range(2)]
    un_tasks = [{"label": f"un{i}-{j}", "lattice": {"kind": "un", "orlicz": N}, "x": a}
                for i, N in enumerate(ORLICZ_FNS) for j, a in enumerate(coords)]
    star = 2.0 ** (1.0 / 1.5)
    scans = [scan_req(f"scan-orlicz-{i}", _orlicz(ORLICZ_FNS[0]), star + shift,
                      float(rng.uniform(0.1, 0.2)), 3, seed)
             for i, shift in enumerate((-0.1, 0.1))]
    reqs = []
    for i, (N, p) in enumerate(zip(ORLICZ_FNS, (1.5, 3.0, 2.0))):
        tasks = _norm_tasks(f"o{i}-", [_orlicz(N)], vecs)
        reqs += [
            norms_req(f"norms-orlicz-{i}-a", tasks, repeats=80),
            index_req(f"index-orlicz-{i}", _orlicz(N)),
            vn_req(f"vn-orlicz-{i}", p, 16, _orlicz(N)),
            norms_req(f"norms-orlicz-{i}-b", tasks, repeats=80),
            fset_req(f"fset-orlicz-{i}", _orlicz(N)),
        ]
        reqs.append([scans[0], verify_req("verify-11-a", [11], seed), scans[1]][i])
        if i == 0:
            reqs.append(norms_req("norms-un-a", un_tasks, repeats=30))
    return reqs + [norms_req("norms-un-b", un_tasks, repeats=30),
                   verify_req("verify-11-b", [11], seed)]


def exact_spectral(seed: int, rng) -> list[Request]:
    """Fraction-keyed witnesses, exact operator checks, operator images."""
    p_un = sorted(float(p) for p in rng.choice([1.0, 1.5, 2.0, 3.0], size=3, replace=False))
    p_lp = float(rng.choice([1.5, 2.0, 3.0]))
    theta = float(rng.choice([0.1, 0.25, 0.3]))
    ops = (None, "doubling", "sigma_up:2", "sigma_up:3", "sigma_down:2", "sigma_down:3", "Q")
    vecs = _vectors(rng, (16, 256, 2048), 1)
    lp_tasks = _norm_tasks("lp", [_lp(1.5), _lp(2.0), _lp(3.0)], vecs, ops)
    lorentz_tasks = _norm_tasks("lorentz", [_lorentz(2.0, 0.25), _lorentz(1.0, 0.3)], vecs, ops)
    scans = [
        [scan_req(f"scan-lp-{i}", _lp(p_lp), 2.0 ** (1.0 / p_lp),
                  float(rng.uniform(0.2, 0.4)), 5, seed) for i in range(2)],
        [scan_req(f"scan-lorentz-{i}", _lorentz(2.0, theta), 2.0 ** (0.5 - theta),
                  float(rng.uniform(0.2, 0.4)), 5, seed) for i in range(2)],
    ]
    return [
        norms_req("norms-lp", lp_tasks, repeats=120),
        un_req("un-a", p_un[0], 5),
        verify_req("verify-4", [4], seed),
        scans[0][0],
        fset_req("fset-lp", _lp(p_lp)),
        norms_req("norms-lorentz", lorentz_tasks, repeats=120),
        verify_req("verify-9", [9], seed),
        scans[1][0],
        index_req("index-lp", _lp(p_lp)),
        un_req("un-b", p_un[1], 5),
        verify_req("verify-10", [10], seed),
        verify_req("verify-7", [7], seed),
        scans[0][1],
        fset_req("fset-lp-1", _lp(1.0)),
        un_req("un-c", p_un[2], 5),
        scans[1][1],
        norms_req("norms-wide", wide_tasks(), repeats=100),
    ]


SESSIONS = {
    "index-stream": index_stream,
    "orlicz-roots": orlicz_roots,
    "exact-spectral": exact_spectral,
}


def build(workload: str, seed: int) -> list[Request]:
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return SESSIONS[workload](seed, rng)


def setup_specs(requests: list[Request]) -> list[dict]:
    """Every distinct space and lattice a session builds, for the set-up probe."""
    seen, specs = set(), []

    def add(spec: dict):
        key = _j(spec)
        if key not in seen:
            seen.add(key)
            specs.append(spec)

    for req in requests:
        if req.batch is not None:
            for task in req.batch["tasks"]:
                add({"lattice": task["lattice"]} if "lattice" in task else {"space": task["space"]})
        elif "--space" in req.argv:
            add({"space": json.loads(req.argv[req.argv.index("--space") + 1])})
    return specs
