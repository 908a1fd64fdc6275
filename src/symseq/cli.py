"""Command-line front end: norms, index reports, residual scans, witnesses.

One binary, six subcommands (norm, index, fset, scan, witness, verify), all
funnelled through a RunConfig so that a JSON config file can reproduce any
invocation.  On a conflict between a flag and the config file the file wins
and the override is announced on stderr; silent merges hide mistakes.

Determinism contract: identical config + seed produce byte-identical output.
JSON is emitted with sorted keys, CSV rows carry a schema_version column,
floats render through repr, and nothing time- or host-dependent is written.

Exit codes: 0 success, 1 failed verification, 2 malformed JSON, 3 unknown
space/lattice kind, 4 parameter violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .indices import index_report, report_to_json
from .lattices import EX, UN, lattice_from_json, lattice_norm, lattice_to_json
from .operators import apply_array, parse_operator
from .spaces import Lp, Orlicz, norm, space_from_json, space_to_json
from .spectral import branching_witness, doubling_orbit_witness, residual_scan
from .verify import run_checks

SCHEMA_VERSION = 1
DEFAULT_SEED = 7

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_JSON = 2
EXIT_UNKNOWN_KIND = 3
EXIT_BAD_PARAMETER = 4


class CliError(Exception):
    """Carries the exit code next to the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs; one field per flag, None = unset."""

    command: str
    space: object = None       # JSON text or already-decoded dict
    lattice: object = None
    vector: object = None      # JSON text or list of numbers
    operator: str | None = None
    kind: str | None = None
    p: float | None = None
    q: float | None = None
    n: int | None = None
    dim: int | None = None
    n_max: int | None = None
    j_max: int | None = None
    k_max: int | None = None
    grid: object = None        # "start:stop:steps" or explicit list
    seed: int | None = None
    suite: str | None = None
    format: str | None = None
    out: str | None = None


# ---------------------------------------------------------------------------
# argument parsing and config-file merge


def _add_io_flags(sp: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sp.add_argument("--config", help="JSON config file; wins over flags on conflict")
    sp.add_argument("--out", help="write output to this path instead of stdout")
    sp.add_argument("--format", choices=formats, default=None)
    sp.add_argument("--seed", type=int, default=None)


def _add_space_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--space", help='space as JSON, e.g. \'{"kind":"lp","p":2}\'')
    sp.add_argument("--p", type=float, default=None,
                    help="shorthand for an l^p space (with --q: l^{p,q})")
    sp.add_argument("--q", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symseq",
        description="norms, dilation indices, residual scans and witnesses "
                    "for symmetric sequence spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="evaluate a space or lattice norm")
    _add_space_flags(p_norm)
    p_norm.add_argument("--lattice", help="lattice as JSON (kinds ex, wlq, un)")
    p_norm.add_argument("--vector", help="JSON array of coefficients")
    p_norm.add_argument("--operator", default=None,
                        help="apply first: sigma_up:m | sigma_down:m | tau:n | "
                             "doubling | doubling_inv | S | Q | R:n | T:lambda | Dl:lambda")
    _add_io_flags(p_norm, ("json", "csv"))

    p_index = sub.add_parser("index", help="dilation and fundamental indices with intervals")
    _add_space_flags(p_index)
    for flag in ("--n-max", "--j-max", "--k-max"):
        p_index.add_argument(flag, type=int, default=None)
    _add_io_flags(p_index, ("json", "csv"))

    p_fset = sub.add_parser("fset", help="the interval [1/beta, 1/alpha]")
    _add_space_flags(p_fset)
    for flag in ("--n-max", "--j-max", "--k-max"):
        p_fset.add_argument(flag, type=int, default=None)
    _add_io_flags(p_fset, ("json", "csv"))

    p_scan = sub.add_parser("scan", help="residual estimates over a lambda grid")
    _add_space_flags(p_scan)
    p_scan.add_argument("--grid", help="start:stop:steps (inclusive endpoints)")
    p_scan.add_argument("--dim", type=int, default=None)
    _add_io_flags(p_scan, ("json", "csv"))

    p_wit = sub.add_parser("witness", help="approximate-eigenvector witnesses")
    p_wit.add_argument("--kind", choices=("vn", "un"), default=None,
                       help="vn: doubling orbit; un: two-branch construction")
    _add_space_flags(p_wit)
    p_wit.add_argument("--n", type=int, default=None)
    _add_io_flags(p_wit, ("json", "csv"))

    p_ver = sub.add_parser("verify", help="run the end-to-end check suite")
    p_ver.add_argument("--suite", default=None,
                       help='"all" or comma-separated check ids, e.g. 1,4,12')
    _add_io_flags(p_ver, ("table", "json", "csv"))
    return parser


def parse_args(argv: list[str] | None = None) -> RunConfig:
    args = build_parser().parse_args(argv)
    values = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                text = fh.read()
        except OSError as e:
            raise CliError(EXIT_BAD_PARAMETER, f"cannot read config file: {e}") from e
        cfg = _decode_json(text, f"config file {config_path}")
        if not isinstance(cfg, dict):
            raise CliError(EXIT_BAD_PARAMETER, "config file must hold a JSON object")
        for key, val in cfg.items():
            name = key.replace("-", "_")
            if name == "command" or name not in values:
                print(f"warning: ignoring unknown config key {key!r}", file=sys.stderr)
                continue
            if values[name] is not None and values[name] != val:
                print(
                    f"warning: config file overrides --{name.replace('_', '-')}"
                    f"={values[name]!r} with {val!r}",
                    file=sys.stderr,
                )
            values[name] = val
    return RunConfig(**values)


def _decode_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(EXIT_BAD_JSON, f"malformed JSON in {what}: {e}") from e


def _structured(raw, what: str):
    """Accept either JSON text (from a flag) or a decoded object (from config)."""
    return _decode_json(raw, what) if isinstance(raw, str) else raw


def _load_space(config: RunConfig):
    raw = config.space
    if raw is None:
        if config.p is None:
            raise CliError(EXIT_BAD_PARAMETER,
                           "this command needs --space (or the --p shorthand)")
        obj = ({"kind": "lpq", "p": config.p, "q": config.q}
               if config.q is not None else {"kind": "lp", "p": config.p})
    else:
        obj = _structured(raw, "--space")
    if not isinstance(obj, dict):
        raise CliError(EXIT_BAD_PARAMETER, "--space must be a JSON object")
    try:
        space = space_from_json(obj)
    except KeyError as e:
        _reraise_key_error(e, "space")
    return space, space_to_json(space)


def _load_lattice(config: RunConfig):
    obj = _structured(config.lattice, "--lattice")
    if not isinstance(obj, dict):
        raise CliError(EXIT_BAD_PARAMETER, "--lattice must be a JSON object")
    try:
        lat = lattice_from_json(obj)
    except KeyError as e:
        _reraise_key_error(e, "lattice")
    return lat, lattice_to_json(lat)


def _reraise_key_error(e: KeyError, what: str):
    msg = e.args[0] if e.args else ""
    if isinstance(msg, str) and msg.startswith("unknown"):
        raise CliError(EXIT_UNKNOWN_KIND, msg) from e
    raise CliError(EXIT_BAD_PARAMETER, f"{what} object is missing key {msg!r}") from e


def _load_vector(config: RunConfig) -> list[float]:
    if config.vector is None:
        raise CliError(EXIT_BAD_PARAMETER, "norm needs --vector")
    obj = _structured(config.vector, "--vector")
    if not isinstance(obj, list) or not all(isinstance(v, (int, float)) for v in obj):
        raise CliError(EXIT_BAD_PARAMETER, "--vector must be a JSON array of numbers")
    return [float(v) for v in obj]


def _parse_grid(raw) -> list[float]:
    if raw is None:
        raise CliError(EXIT_BAD_PARAMETER, "scan needs --grid start:stop:steps")
    if isinstance(raw, (list, tuple)):
        return [float(g) for g in raw]
    parts = str(raw).split(":")
    if len(parts) != 3:
        raise CliError(EXIT_BAD_PARAMETER, "--grid must look like start:stop:steps")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise CliError(EXIT_BAD_PARAMETER, f"--grid must look like start:stop:steps: {e}") from e
    if steps < 1:
        raise CliError(EXIT_BAD_PARAMETER, "--grid needs at least one step")
    if steps == 1:
        return [start]
    return [float(g) for g in np.linspace(start, stop, steps)]


# ---------------------------------------------------------------------------
# rendering


def _num(x: float):
    return "inf" if x == math.inf else float(x)


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format(config: RunConfig, default: str = "json") -> str:
    return config.format if config.format is not None else default


def _method(spec) -> str:
    """Provenance tag of a norm: Orlicz values come from the bracketed solver."""
    if isinstance(spec, EX):
        spec = spec.base
    return "root_find" if isinstance(spec, (Orlicz, UN)) else "closed_form"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_norm(config: RunConfig) -> int:
    if (config.space is None and config.p is None) == (config.lattice is None):
        raise CliError(EXIT_BAD_PARAMETER, "norm needs exactly one of --space / --lattice")
    vec = _load_vector(config)
    space_json = lattice_json = None
    if config.lattice is not None:
        if config.operator is not None:
            raise CliError(EXIT_BAD_PARAMETER,
                           "--operator acts on ambient sequences, not lattice coefficients")
        lat, lattice_json = _load_lattice(config)
        value = lattice_norm(lat, vec)
        method = _method(lat)
    else:
        space, space_json = _load_space(config)
        x = np.asarray(vec, dtype=float)
        if config.operator is not None:
            x = apply_array(parse_operator(config.operator), x)
        value = norm(space, x)
        method = _method(space)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "norm",
        "space": space_json,
        "lattice": lattice_json,
        "operator": config.operator,
        "input_len": len(vec),
        "value": _num(float(value)),
        "method": method,
    }
    if _format(config) == "csv":
        _emit(config, _render_csv(
            ["schema_version", "command", "value", "method"],
            [[SCHEMA_VERSION, "norm", float(value), method]],
        ))
    else:
        _emit(config, _render_json(payload))
    return EXIT_OK


def _index_kwargs(config: RunConfig) -> dict:
    kw = {}
    for name in ("n_max", "j_max", "k_max"):
        val = getattr(config, name)
        if val is not None:
            kw[name] = int(val)
    return kw


def _cmd_index(config: RunConfig) -> int:
    space, space_json = _load_space(config)
    report = index_report(space, **_index_kwargs(config))
    if _format(config) == "csv":
        method = report.method
        rows = [
            [SCHEMA_VERSION, "alpha", report.alpha.lo, report.alpha.hi,
             report.alpha.point, method["alpha"]],
            [SCHEMA_VERSION, "beta", report.beta.lo, report.beta.hi,
             report.beta.point, method["beta"]],
            [SCHEMA_VERSION, "mu", report.mu, report.mu, report.mu, method["mu"]],
            [SCHEMA_VERSION, "nu", report.nu, report.nu, report.nu, method["nu"]],
        ]
        _emit(config, _render_csv(
            ["schema_version", "index", "lo", "hi", "point", "method"], rows))
    else:
        payload = {"schema_version": SCHEMA_VERSION, "command": "index",
                   "space": space_json}
        payload.update(report_to_json(report))
        _emit(config, _render_json(payload))
    return EXIT_OK


def _cmd_fset(config: RunConfig) -> int:
    space, space_json = _load_space(config)
    report = index_report(space, **_index_kwargs(config))
    lo, hi = report.f_interval
    if _format(config) == "csv":
        _emit(config, _render_csv(
            ["schema_version", "f_lo", "f_hi", "method"],
            [[SCHEMA_VERSION, _num(lo), _num(hi), report.method["alpha"]]],
        ))
    else:
        _emit(config, _render_json({
            "schema_version": SCHEMA_VERSION,
            "command": "fset",
            "space": space_json,
            "f_interval": [_num(lo), _num(hi)],
            "alpha": report.alpha.point,
            "beta": report.beta.point,
            "method": report.method["alpha"],
            "params": dict(report.params),
        }))
    return EXIT_OK


def _cmd_scan(config: RunConfig) -> int:
    space, space_json = _load_space(config)
    lams = _parse_grid(config.grid)
    kw = {"seed": config.seed if config.seed is not None else DEFAULT_SEED}
    if config.dim is not None:
        kw["dim"] = int(config.dim)
    points = residual_scan(space, lams, **kw)
    if _format(config) == "csv":
        rows = [[SCHEMA_VERSION, pt.lam, pt.estimate, pt.method, pt.dim, pt.seed]
                for pt in points]
        _emit(config, _render_csv(
            ["schema_version", "lambda", "residual_estimate", "method", "dim", "seed"],
            rows))
    else:
        _emit(config, _render_json({
            "schema_version": SCHEMA_VERSION,
            "command": "scan",
            "space": space_json,
            "dim": points[0].dim,
            "seed": points[0].seed,
            "points": [
                {"lambda": pt.lam, "residual_estimate": float(pt.estimate),
                 "method": pt.method, "params": dict(pt.params)}
                for pt in points
            ],
        }))
    return EXIT_OK


def _cmd_witness(config: RunConfig) -> int:
    if config.kind not in ("vn", "un"):
        raise CliError(EXIT_BAD_PARAMETER, "witness needs --kind vn or --kind un")
    if config.p is None:
        raise CliError(EXIT_BAD_PARAMETER, "witness needs --p")
    if config.n is None or config.n < 1:
        raise CliError(EXIT_BAD_PARAMETER, "witness needs --n >= 1")
    p, n = float(config.p), int(config.n)
    method = "closed_form"
    if config.kind == "vn":
        space = _load_space(config)[0] if config.space is not None else Lp(p)
        method = _method(space)
        rep = doubling_orbit_witness(space, p, n)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "witness",
            "kind": "vn",
            "p": p,
            "n": n,
            "lambda": rep.lam,
            "norm_value": rep.norm_value,
            "residual": rep.residual,
            "predicted": rep.predicted,
            "support": rep.support,
            "method": method,
        }
        fields_out = ["lambda", "norm_value", "residual", "predicted", "support"]
    else:
        rep = branching_witness(p, n)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "witness",
            "kind": "un",
            "p": p,
            "n": n,
            "norm_value": rep.norm_value,
            "d2_residual": rep.d2_residual,
            "d3_residual": rep.d3_residual,
            "d2_predicted": rep.d2_predicted,
            "d3_predicted": rep.d3_predicted,
            "support": rep.support,
            "method": method,
        }
        fields_out = ["norm_value", "d2_residual", "d2_predicted",
                      "d3_residual", "d3_predicted", "support"]
    if _format(config) == "csv":
        rows = [[SCHEMA_VERSION, config.kind, p, n, name, payload[name], method]
                for name in fields_out]
        _emit(config, _render_csv(
            ["schema_version", "kind", "p", "n", "field", "value", "method"], rows))
    else:
        _emit(config, _render_json(payload))
    return EXIT_OK


def _parse_suite(raw: str | None) -> list[int] | None:
    if raw is None or raw == "all":
        return None
    try:
        ids = [int(part) for part in raw.split(",") if part]
    except ValueError as e:
        raise CliError(EXIT_BAD_PARAMETER,
                       f'--suite must be "all" or comma-separated ids: {e}') from e
    if not ids:
        raise CliError(EXIT_BAD_PARAMETER, "--suite selected no checks")
    return ids


def _cmd_verify(config: RunConfig) -> int:
    only = _parse_suite(config.suite)
    results = run_checks(only=only, seed=config.seed)
    if not results:
        raise CliError(EXIT_BAD_PARAMETER, "--suite selected no checks")
    fmt = _format(config, default="table")
    if fmt == "json":
        _emit(config, _render_json({
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "seed": config.seed,
            "passed": all(r.passed for r in results),
            "results": [
                {"id": r.crit_id, "name": r.name, "passed": r.passed,
                 "detail": r.detail}
                for r in results
            ],
        }))
    elif fmt == "csv":
        rows = [[SCHEMA_VERSION, r.crit_id, r.name,
                 "pass" if r.passed else "fail", r.detail] for r in results]
        _emit(config, _render_csv(
            ["schema_version", "id", "name", "status", "detail"], rows))
    else:
        lines = [
            f"[{r.crit_id:2d}] {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
            for r in results
        ]
        n_pass = sum(r.passed for r in results)
        lines.append(f"{n_pass}/{len(results)} checks passed")
        _emit(config, "\n".join(lines) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


_COMMANDS = {
    "norm": _cmd_norm,
    "index": _cmd_index,
    "fset": _cmd_fset,
    "scan": _cmd_scan,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        return _COMMANDS[config.command](config)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ValueError as e:
        print(f"error: parameter violation: {e}", file=sys.stderr)
        return EXIT_BAD_PARAMETER


def main(argv: list[str] | None = None) -> None:
    try:
        config = parse_args(argv)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(e.code)
    sys.exit(run(config))


if __name__ == "__main__":
    main()
