"""Command-line front end: norms, index reports, residual scans, witnesses.

One binary, six subcommands (norm, index, fset, scan, witness, verify), all
funnelled through a RunConfig so that a JSON config file, whose values pass
their flags' types and choices, can reproduce any invocation.  On a conflict
between a flag and the config file the file wins and the override is
announced on stderr; silent merges hide mistakes.

One output path: each subcommand returns its result as data (a JSON payload,
a CSV header, CSV rows and an exit code); ``run`` alone renders it and writes
it once, to stdout or ``--out``.  A command that fails writes nothing there.
Inputs that size an allocation are refused before it is made.  The CLI's
own caps are a 4,096-point grid and a ``witness --kind vn`` support 2^n - 1
that prints; the library refuses the rest (an operator image past 2^24
entries, an index window outside ``index_report``'s rule, a ``witness
--kind un`` past n = 256), and ``run`` makes its ``ValueError`` exit 4.

Determinism contract: identical config + seed produce byte-identical output.
JSON is emitted with sorted keys and never holds NaN or infinity, every CSV
row carries a schema_version column, floats render through repr, and nothing
time- or host-dependent is written.

Exit codes: 0 success, 1 failed verification, 2 malformed JSON, 3 unknown
space/lattice kind, 4 parameter violation (argparse usage errors and an
unwritable ``--out`` among them).
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
from .spaces import Orlicz, norm, space_from_json, space_to_json
from .spectral import branching_witness, doubling_orbit_witness, residual_scan
from .verify import ALL_CHECKS, run_checks

SCHEMA_VERSION = 1
DEFAULT_SEED = 7

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_JSON = 2
EXIT_UNKNOWN_KIND = 3
EXIT_BAD_PARAMETER = 4

# the most lambda points one scan takes
_MAX_GRID = 4096

# each subcommand's output formats; the first is its default
_FORMATS = dict.fromkeys(("norm", "index", "fset", "scan", "witness"), ("json", "csv"))
_FORMATS["verify"] = ("table", "json", "csv")


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


def _add_space_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--space", help='space as JSON, e.g. \'{"kind":"lp","p":2}\'')
    sp.add_argument("--p", type=float, default=None,
                    help="shorthand for an l^p space (with --q: l^{p,q})")
    sp.add_argument("--q", type=float, default=None)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which is EXIT_BAD_JSON here: a bad
    flag is a parameter violation.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_PARAMETER, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    for name, text in (("index", "dilation and fundamental indices with intervals"),
                       ("fset", "the interval [1/beta, 1/alpha]")):
        sp = sub.add_parser(name, help=text)
        _add_space_flags(sp)
        for flag in ("--n-max", "--j-max", "--k-max"):
            sp.add_argument(flag, type=int, default=None)

    p_scan = sub.add_parser("scan", help="residual estimates over a lambda grid")
    _add_space_flags(p_scan)
    p_scan.add_argument("--grid", help="start:stop:steps (inclusive endpoints)")
    p_scan.add_argument("--dim", type=int, default=None)

    p_wit = sub.add_parser("witness", help="approximate-eigenvector witnesses")
    p_wit.add_argument("--kind", choices=("vn", "un"), default=None,
                       help="vn: doubling orbit; un: two-branch construction")
    _add_space_flags(p_wit)
    p_wit.add_argument("--n", type=int, default=None)

    p_ver = sub.add_parser("verify", help="run the end-to-end check suite")
    p_ver.add_argument("--suite", default=None,
                       help='"all" or comma-separated check ids, e.g. 1,4,12')
    for name, sp in sub.choices.items():  # each subcommand's io flags come last
        sp.add_argument("--config", help="JSON config file; wins over flags on conflict")
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.add_argument("--format", choices=_FORMATS[name], default=None)
        sp.add_argument("--seed", type=int, default=None)
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
        cfg = _structured(text, f"config file {config_path}")
        if not isinstance(cfg, dict):
            raise CliError(EXIT_BAD_PARAMETER, "config file must hold a JSON object")
        for key, val in cfg.items():
            name = key.replace("-", "_")
            if name == "command" or name not in values:
                print(f"warning: ignoring unknown config key {key!r}", file=sys.stderr)
                continue
            flag = "--" + name.replace("_", "-")
            if not _config_value_ok(values["command"], name, val):
                raise CliError(EXIT_BAD_PARAMETER,
                               f"config key {key!r}: {val!r} is not a value {flag} takes")
            if values[name] is not None and values[name] != val:
                print(f"warning: config file overrides {flag}={values[name]!r} with {val!r}",
                      file=sys.stderr)
            values[name] = val
    return RunConfig(**values)


def _is_number(v) -> bool:
    # bool is an int subclass, but JSON true is not a number
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _config_value_ok(command: str, name: str, val) -> bool:
    """Whether a config value passes its flag's type and choices (None unsets
    it); space, lattice, vector and grid take JSON, which their loaders check."""
    if val is None or name in ("space", "lattice", "vector", "grid"):
        return True
    if name in ("p", "q"):
        return _is_number(val) or val in ("inf", "infinity")
    if name in ("n", "dim", "n_max", "j_max", "k_max", "seed"):
        return isinstance(val, int) and not isinstance(val, bool)
    choices = {"kind": ("vn", "un"), "format": _FORMATS[command]}.get(name)
    return val in choices if choices else isinstance(val, str)  # operator, suite, out


def _structured(raw, what: str):
    """Decode JSON text (from a flag or a config file); a decoded object (a
    config value) passes through."""
    if not isinstance(raw, str):
        return raw
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise CliError(EXIT_BAD_JSON, f"malformed JSON in {what}: {e}") from e


def _load_spec(raw, what: str, from_json, to_json):
    """A space or lattice from a --space / --lattice value, and its JSON echo."""
    obj = _structured(raw, f"--{what}")
    if not isinstance(obj, dict):
        raise CliError(EXIT_BAD_PARAMETER, f"--{what} must be a JSON object")
    try:
        spec = from_json(obj)
    except KeyError as e:
        msg = e.args[0] if e.args else ""
        if isinstance(msg, str) and msg.startswith("unknown"):
            raise CliError(EXIT_UNKNOWN_KIND, msg) from e
        raise CliError(EXIT_BAD_PARAMETER, f"{what} object is missing key {msg!r}") from e
    return spec, to_json(spec)


def _load_space(config: RunConfig):
    raw = config.space
    if raw is None:
        if config.p is None:
            raise CliError(EXIT_BAD_PARAMETER,
                           "this command needs --space (or the --p shorthand)")
        raw = ({"kind": "lpq", "p": config.p, "q": config.q}
               if config.q is not None else {"kind": "lp", "p": config.p})
    # --p is the witness exponent; elsewhere it, like --q, is shorthand
    # for a space and would be dropped beside --space
    elif config.q is not None or (config.p is not None and config.command != "witness"):
        flag = "--q" if config.q is not None else "--p"
        raise CliError(EXIT_BAD_PARAMETER,
                       f"{flag} is a space shorthand; give it or --space, not both")
    return _load_spec(raw, "space", space_from_json, space_to_json)


def _load_vector(config: RunConfig) -> list[float]:
    if config.vector is None:
        raise CliError(EXIT_BAD_PARAMETER, "norm needs --vector")
    obj = _structured(config.vector, "--vector")
    if not isinstance(obj, list) or not all(_is_number(v) for v in obj):
        raise CliError(EXIT_BAD_PARAMETER, "--vector must be a JSON array of numbers")
    return [float(v) for v in obj]


def _parse_grid(raw) -> list[float]:
    if raw is None:
        raise CliError(EXIT_BAD_PARAMETER, "scan needs --grid start:stop:steps")
    if isinstance(raw, (list, tuple)):
        if len(raw) > _MAX_GRID:
            raise CliError(EXIT_BAD_PARAMETER,
                           f"a grid list holds at most {_MAX_GRID} numbers, got {len(raw)}")
        for i, g in enumerate(raw):
            if not _is_number(g):
                raise CliError(EXIT_BAD_PARAMETER, f"a grid list holds at most {_MAX_GRID} "
                                                   f"numbers; entry {i} is {g!r}, not a number")
            if not 0 < g <= sys.float_info.max:
                raise CliError(EXIT_BAD_PARAMETER,
                               f"grid entry {i} must be positive and finite, got {g!r}")
        return [float(g) for g in raw]
    parts = str(raw).split(":")
    if len(parts) != 3:
        raise CliError(EXIT_BAD_PARAMETER, "--grid must look like start:stop:steps")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise CliError(EXIT_BAD_PARAMETER, f"--grid must look like start:stop:steps: {e}") from e
    # both ends positive keeps stop - start finite inside np.linspace
    if not (0 < start < math.inf and 0 < stop < math.inf):
        raise CliError(EXIT_BAD_PARAMETER, "--grid start and stop must be positive and finite")
    if steps < 1:
        raise CliError(EXIT_BAD_PARAMETER, "--grid needs at least one step")
    if steps > _MAX_GRID:
        raise CliError(EXIT_BAD_PARAMETER, f"a grid takes at most {_MAX_GRID} points")
    if steps == 1:
        return [start]
    return [float(g) for g in np.linspace(start, stop, steps)]


# ---------------------------------------------------------------------------
# subcommands: each returns (JSON payload, CSV header, CSV rows, exit code)


def _num(x: float):
    return "inf" if x == math.inf else float(x)


def _method(spec) -> str:
    """Provenance tag of a norm: Orlicz values, UN(N) = EX(Orlicz(N)) among
    them, come from a root solve."""
    if isinstance(spec, EX):
        spec = spec.base
    return "root_find" if isinstance(spec, (Orlicz, UN)) else "closed_form"


def _cmd_norm(config: RunConfig):
    if (config.space is None and config.p is None) == (config.lattice is None):
        raise CliError(EXIT_BAD_PARAMETER, "norm needs exactly one of --space / --lattice")
    vec = _load_vector(config)
    space_json = lattice_json = None
    if config.lattice is not None:
        if config.operator is not None:
            raise CliError(EXIT_BAD_PARAMETER,
                           "--operator acts on ambient sequences, not lattice coefficients")
        if config.q is not None:
            raise CliError(EXIT_BAD_PARAMETER, "--q is a space shorthand; --lattice takes none")
        lat, lattice_json = _load_spec(config.lattice, "lattice",
                                       lattice_from_json, lattice_to_json)
        value = lattice_norm(lat, vec)
        method = _method(lat)
    else:
        space, space_json = _load_space(config)
        x = np.asarray(vec, dtype=float)
        if config.operator is not None:
            # an image that overflows is refused by norm's own finite check
            with np.errstate(over="ignore", invalid="ignore"):
                x = apply_array(parse_operator(config.operator), x)
        value = norm(space, x)
        method = _method(space)
    payload = {"space": space_json, "lattice": lattice_json, "operator": config.operator,
               "input_len": len(vec), "value": _num(float(value)), "method": method}
    return payload, ["command", "value", "method"], [["norm", float(value), method]], EXIT_OK


def _index(config: RunConfig):
    """The space's JSON and its index report, which index and fset print."""
    space, space_json = _load_space(config)
    window = {name: getattr(config, name) for name in ("n_max", "j_max", "k_max")
              if getattr(config, name) is not None}
    return space_json, index_report(space, **window)


def _cmd_index(config: RunConfig):
    space_json, report = _index(config)
    a, b, method = report.alpha, report.beta, report.method
    rows = [
        ["alpha", a.lo, a.hi, a.point, method["alpha"]],
        ["beta", b.lo, b.hi, b.point, method["beta"]],
        ["mu", report.mu, report.mu, report.mu, method["mu"]],
        ["nu", report.nu, report.nu, report.nu, method["nu"]],
    ]
    payload = {"space": space_json, **report_to_json(report)}
    return payload, ["index", "lo", "hi", "point", "method"], rows, EXIT_OK


def _cmd_fset(config: RunConfig):
    space_json, report = _index(config)
    lo, hi = (_num(f) for f in report.f_interval)
    method = report.method["alpha"]
    payload = {"space": space_json, "f_interval": [lo, hi], "alpha": report.alpha.point,
               "beta": report.beta.point, "method": method, "params": dict(report.params)}
    return payload, ["f_lo", "f_hi", "method"], [[lo, hi, method]], EXIT_OK


def _cmd_scan(config: RunConfig):
    space, space_json = _load_space(config)
    # the scan is seed-free; its output echoes the seed for schema 1
    seed = config.seed if config.seed is not None else DEFAULT_SEED
    points = residual_scan(space, _parse_grid(config.grid),
                           **({} if config.dim is None else {"dim": config.dim}))
    payload = {"space": space_json, "dim": points[0].dim, "seed": seed, "points": [
        {"lambda": pt.lam, "residual_estimate": float(pt.estimate), "method": pt.method,
         "params": dict(pt.params)} for pt in points]}
    rows = [[pt.lam, pt.estimate, pt.method, pt.dim, seed] for pt in points]
    return payload, ["lambda", "residual_estimate", "method", "dim", "seed"], rows, EXIT_OK


def _vn_print_bound() -> int | None:
    """The largest n whose vn support 2^n - 1 prints: it has floor(n log10 2)
    + 1 digits, and str() refuses an int past the interpreter's digit limit
    (4,300 by default, so n <= 14,284; 0 or no limit gives None)."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return math.ceil(digits / math.log10(2)) - 1 if digits else None


def _cmd_witness(config: RunConfig):
    if config.kind not in ("vn", "un"):
        raise CliError(EXIT_BAD_PARAMETER, "witness needs --kind vn or --kind un")
    if config.p is None:
        raise CliError(EXIT_BAD_PARAMETER, "witness needs --p")
    if config.n is None or config.n < 1:
        raise CliError(EXIT_BAD_PARAMETER, "witness needs --n >= 1")
    p, n = float(config.p), config.n
    if config.kind == "vn":
        space = _load_space(config)[0]
        n_print = _vn_print_bound()
        if n_print is not None and n > n_print:
            raise CliError(EXIT_BAD_PARAMETER,
                           f"witness --kind vn needs n <= {n_print}: a larger n has a support "
                           "2^n - 1 past Python's int-to-string digit limit")
        method = _method(space)
        rep = doubling_orbit_witness(space, p, n)
        names = ("lambda", "norm_value", "residual", "predicted", "support")
        values = (rep.lam, rep.norm_value, rep.residual, rep.predicted, rep.support)
    else:
        if config.space is not None or config.q is not None:
            raise CliError(EXIT_BAD_PARAMETER,
                           "witness --kind un lives on l^p; it takes no --space or --q")
        method = "closed_form"
        rep = branching_witness(p, n)
        names = ("norm_value", "d2_residual", "d2_predicted", "d3_residual", "d3_predicted", "support")
        values = (rep.norm_value, rep.d2_residual, rep.d2_predicted,
                  rep.d3_residual, rep.d3_predicted, rep.support)
    payload = {"kind": config.kind, "p": p, "n": n, "method": method, **dict(zip(names, values))}
    rows = [[config.kind, p, n, name, value, method] for name, value in zip(names, values)]
    return payload, ["kind", "p", "n", "field", "value", "method"], rows, EXIT_OK


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
    unknown = sorted(set(ids) - {cid for cid, _, _ in ALL_CHECKS})
    if unknown:
        raise CliError(EXIT_BAD_PARAMETER,
                       f"--suite names no check with id {', '.join(map(str, unknown))}")
    return ids


def _cmd_verify(config: RunConfig):
    results = run_checks(only=_parse_suite(config.suite), seed=config.seed)
    passed = all(r.passed for r in results)
    payload = {"seed": config.seed, "passed": passed, "results": [
        {"id": r.crit_id, "name": r.name, "passed": r.passed, "detail": r.detail}
        for r in results]}
    rows = [[r.crit_id, r.name, "pass" if r.passed else "fail", r.detail] for r in results]
    code = EXIT_OK if passed else EXIT_VERIFY_FAILED
    return payload, ["id", "name", "status", "detail"], rows, code


def _render(fmt: str, command: str, payload: dict, header: list, rows: list) -> str:
    """The one renderer.  JSON gains schema_version and command, CSV a
    leading schema_version column; verify's table is read off its rows."""
    if fmt == "json":
        body = {"schema_version": SCHEMA_VERSION, "command": command, **payload}
        return json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if fmt == "table":
        lines = [f"[{cid:2d}] {status.upper()} {name}: {detail}"
                 for cid, name, status, detail in rows]
        n_pass = sum(status == "pass" for _, _, status, _ in rows)
        lines.append(f"{n_pass}/{len(rows)} checks passed")
        return "\n".join(lines) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema_version", *header])
    writer.writerows([SCHEMA_VERSION, *row] for row in rows)
    return buf.getvalue()


_COMMANDS = {
    "norm": _cmd_norm,
    "index": _cmd_index,
    "fset": _cmd_fset,
    "scan": _cmd_scan,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def run(config: RunConfig) -> int:
    """Execute one subcommand, then render and write its result; returns the
    exit code.  Nothing else writes output, so a failed command writes none."""
    try:
        payload, header, rows, code = _COMMANDS[config.command](config)
        text = _render(config.format or _FORMATS[config.command][0], config.command,
                       payload, header, rows)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ValueError as e:
        print(f"error: parameter violation: {e}", file=sys.stderr)
        return EXIT_BAD_PARAMETER
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write --out: {e}", file=sys.stderr)
            return EXIT_BAD_PARAMETER
    else:
        sys.stdout.write(text)
    return code


def main(argv: list[str] | None = None) -> None:
    try:
        config = parse_args(argv)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(e.code)
    sys.exit(run(config))


if __name__ == "__main__":
    main()
