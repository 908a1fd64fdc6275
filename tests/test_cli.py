"""Command-line contract: schemas, determinism, exit codes, config merge."""

import csv
import functools
import importlib.util
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symseq import cli, operators, spectral, verify
from symseq.cli import (
    EXIT_BAD_JSON,
    EXIT_BAD_PARAMETER,
    EXIT_UNKNOWN_KIND,
    EXIT_VERIFY_FAILED,
    CliError,
    main,
    parse_args,
    run,
)
from symseq.lattices import lattice_from_json
from symseq.spaces import LpQ
from symseq.spectral import doubling_orbit_witness


def _run(argv, capsys):
    code = run(parse_args(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# documented examples ----------------------------------------------------------


def test_fset_lp2_reports_the_point_interval(capsys):
    code, out, _ = _run(["fset", "--space", '{"kind":"lp","p":2}'], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["f_interval"] == [2.0, 2.0]
    assert payload["schema_version"] == 1
    assert payload["method"] == "closed_form"


def test_witness_un_example(capsys):
    code, out, _ = _run(["witness", "--kind", "un", "--p", "2", "--n", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["d2_residual"] == pytest.approx(2.0**-0.5, abs=1e-4)
    assert payload["method"] == "closed_form"


def test_verify_single_check_passes(capsys):
    code, out, _ = _run(["verify", "--suite", "9", "--seed", "7"], capsys)
    assert code == 0
    assert "PASS" in out and "1/1 checks passed" in out


def test_verify_refuses_ids_no_check_has(capsys):
    code, out, err = _run(["verify", "--suite", "9,99,0"], capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert "no check with id 0, 99" in err


def test_verify_failing_check_exits_nonzero(capsys, monkeypatch):
    def failing():
        return verify.CheckResult(8, "witness rates", False, "forced failure", 0.0)

    monkeypatch.setattr(verify, "ALL_CHECKS", [(8, "witness rates", failing)])
    code, out, _ = _run(["verify", "--suite", "8"], capsys)
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL" in out


# norm subcommand ----------------------------------------------------------------


def test_norm_vector_json(capsys):
    code, out, _ = _run(
        ["norm", "--space", '{"kind":"lp","p":2}', "--vector", "[3, 4]"], capsys
    )
    assert code == 0
    assert json.loads(out)["value"] == 5.0


def test_norm_with_operator(capsys):
    code, out, _ = _run(
        ["norm", "--space", '{"kind":"lp","p":1}', "--vector", "[1, 2]",
         "--operator", "sigma_up:3"], capsys
    )
    assert json.loads(out)["value"] == 9.0


@pytest.mark.parametrize("operator", ["doubling:7", "Q:junk"])
def test_norm_refuses_an_argument_to_an_operator_that_takes_none(operator, capsys):
    code, out, err = _run(
        ["norm", "--space", '{"kind":"lp","p":1}', "--vector", "[1, 2]",
         "--operator", operator], capsys
    )
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert f"bad operator argument in {operator!r}" in err


# the smallest refused arguments on 2 entries, S on 25 and a sigma_1/m whose
# padded block would fill 8 TiB: a missing cap would allocate at most 256 MiB
# on the first four, not gigabytes
@pytest.mark.parametrize("operator, vector, spelled", [
    pytest.param("R:25", "[1, 2]", "AvgProjectN(n=25) on 2 entries", id="R:25"),
    pytest.param("sigma_up:8388609", "[1, 2]", "DilateUp(m=8388609) on 2 entries",
                 id="sigma_up:8388609"),
    pytest.param("tau:16777215", "[1, 2]", "Shift(n=16777215) on 2 entries", id="tau:16777215"),
    pytest.param("sigma_down:1099511627776", "[1, 2]",
                 "DilateDown(m=1099511627776) on 2 entries", id="sigma_down:1099511627776"),
    pytest.param("S", json.dumps([1] * 25), "BlockEmbed() on 25 entries", id="S"),
])
def test_norm_refuses_an_operator_image_past_the_cap_before_making_it(operator, vector, spelled,
                                                                     capsys):
    tracemalloc.start()
    try:
        code, out, err = _run(
            ["norm", "--space", '{"kind":"lp","p":2}', "--vector", vector, "--operator", operator],
            capsys
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert f"operator {spelled} would build" in err and "2^24-entry cap" in err
    assert peak < 1 << 20


@pytest.mark.parametrize("operator", ["sigma_up:99999999999999999999",
                                      "sigma_down:99999999999999999999", "R:100000000",
                                      "tau:-100000000000000000000"])
def test_norm_of_an_empty_image_ignores_the_operator_argument(operator, capsys):
    code, out, err = _run(["norm", "--p", "2", "--vector", "[]", "--operator", operator], capsys)
    assert code == 0 and json.loads(out)["value"] == 0.0, err


def test_norm_refuses_a_non_finite_lambda_without_a_warning():
    for operator in ("T:inf", "T:nan", "Dl:-inf"):
        proc = subprocess.run(
            [sys.executable, "-m", "symseq.cli", "norm", "--space", '{"kind":"lp","p":2}',
             "--vector", "[1, 2]", "--operator", operator],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_BAD_PARAMETER and proc.stdout == ""
        assert f"bad operator argument in {operator!r}" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


def test_norm_refuses_an_operator_image_that_overflows_without_a_warning():
    # T and Dl overflow in their multiply, sigma_1/m and R_n in the block sum,
    # which is refused even where the mean would fit
    for operator, vector in [("T:1e308", "[1e308, 1]"), ("Dl:-1e308", "[1e308, 1]"),
                             ("sigma_down:2", "[1e308, 1e308]"), ("R:1", "[1e308, 1e308]")]:
        proc = subprocess.run(
            [sys.executable, "-m", "symseq.cli", "norm", "--p", "2", "--vector", vector,
             "--operator", operator],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_BAD_PARAMETER and proc.stdout == "", operator
        assert "norm input must be finite" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_norm_refuses_json_booleans_in_the_vector(capsys):
    code, out, err = _run(["norm", "--p", "2", "--vector", "[true, 3]"], capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert "--vector must be a JSON array of numbers" in err


def test_norm_lattice(capsys):
    code, out, _ = _run(
        ["norm", "--lattice", '{"kind":"ex","base":{"kind":"lp","p":1}}',
         "--vector", "[1, 1]"], capsys
    )
    # ||e_1 + e_2||_EX = 1 + 2 dyadic-block masses in l^1
    assert json.loads(out)["value"] == pytest.approx(3.0)


ORLICZ_15 = '{"kind":"orlicz","orlicz":{"form":"power","p":1.5}}'


def test_norm_orlicz_is_tagged_root_find(capsys):
    argv = ["norm", "--space", ORLICZ_15, "--vector", "[3, 4]"]
    code, out, _ = _run(argv, capsys)
    payload = json.loads(out)
    assert code == 0 and payload["method"] == "root_find"
    assert payload["value"] == pytest.approx((3**1.5 + 4**1.5) ** (1 / 1.5), rel=1e-14)
    _, out, _ = _run(argv + ["--format", "csv"], capsys)
    assert out.splitlines()[1].endswith(",root_find")


def test_norm_un_and_ex_orlicz_are_tagged_root_find(capsys):
    for lattice in ('{"kind":"un","orlicz":{"form":"power","p":2}}',
                    '{"kind":"ex","base":' + ORLICZ_15 + '}'):
        code, out, _ = _run(["norm", "--lattice", lattice, "--vector", "[1, 2]"], capsys)
        assert code == 0 and json.loads(out)["method"] == "root_find"
    # UN over t^2 is the weighted l^2 norm sqrt(1 + 2 * 4)
    _, out, _ = _run(["norm", "--lattice", '{"kind":"un","orlicz":{"form":"power","p":2}}',
                      "--vector", "[1, 2]"], capsys)
    assert json.loads(out)["value"] == pytest.approx(3.0, rel=1e-14)


def test_witness_vn_orlicz_is_tagged_root_find(capsys):
    argv = ["witness", "--kind", "vn", "--p", "1.5", "--n", "4", "--space", ORLICZ_15]
    code, out, _ = _run(argv, capsys)
    assert code == 0 and json.loads(out)["method"] == "root_find"
    _, out, _ = _run(argv + ["--format", "csv"], capsys)
    assert all(ln.endswith(",root_find") for ln in out.splitlines()[1:])
    _, out, _ = _run(["witness", "--kind", "vn", "--p", "1.5", "--n", "4"], capsys)
    assert json.loads(out)["method"] == "closed_form"


def test_witness_un_refuses_space_flags(capsys, tmp_path):
    base = ["witness", "--kind", "un", "--p", "2", "--n", "2"]
    orlicz = '{"kind":"orlicz","orlicz":{"form":"power","p":3}}'
    for extra in (["--space", orlicz], ["--q", "1"]):
        code, out, err = _run(base + extra, capsys)
        assert code == EXIT_BAD_PARAMETER and out == ""
        assert "--space or --q" in err
    cfg = tmp_path / "un.json"
    cfg.write_text(json.dumps({"space": json.loads(orlicz)}))
    code, out, _ = _run(base + ["--config", str(cfg)], capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""


def test_witness_vn_q_shorthand_runs_on_lpq(capsys):
    code, out, _ = _run(["witness", "--kind", "vn", "--p", "2", "--q", "1", "--n", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    want = doubling_orbit_witness(LpQ(2.0, 1.0), 2.0, 3)
    assert payload["residual"] == want.residual and payload["predicted"] is None
    _, lp_out, _ = _run(["witness", "--kind", "vn", "--p", "2", "--n", "3"], capsys)
    assert json.loads(lp_out)["residual"] != want.residual


def test_norm_requires_exactly_one_source(capsys):
    code, _, err = _run(["norm", "--vector", "[1]"], capsys)
    assert code == EXIT_BAD_PARAMETER
    code, _, err = _run(
        ["norm", "--space", '{"kind":"lp","p":2}',
         "--lattice", '{"kind":"un","orlicz":{"form":"power","p":2}}',
         "--vector", "[1]"], capsys
    )
    assert code == EXIT_BAD_PARAMETER


def test_p_shorthand_builds_spaces(capsys):
    code, out, _ = _run(["norm", "--p", "2", "--vector", "[3, 4]"], capsys)
    assert json.loads(out)["value"] == 5.0
    code, out, _ = _run(["norm", "--p", "3", "--q", "2", "--vector", "[1, 0]"], capsys)
    assert json.loads(out)["space"] == {"kind": "lpq", "p": 3.0, "q": 2.0}


LP3 = '{"kind":"lp","p":3}'


@pytest.mark.parametrize("argv", [
    ["fset", "--space", LP3, "--q", "1"],
    ["index", "--space", LP3, "--q", "1"],
    ["scan", "--space", LP3, "--q", "1", "--grid", "1:2:2"],
    ["norm", "--space", LP3, "--q", "1", "--vector", "[1]"],
    ["witness", "--kind", "vn", "--p", "2", "--q", "1", "--n", "3", "--space", LP3],
    ["fset", "--space", LP3, "--p", "1"],
    ["index", "--space", LP3, "--p", "1"],
    ["scan", "--space", LP3, "--p", "1", "--grid", "1:2:2"],
    ["norm", "--space", LP3, "--p", "1", "--vector", "[1]"],
    ["norm", "--lattice", '{"kind":"un","orlicz":{"form":"power","p":2}}',
     "--q", "1", "--vector", "[1]"],
])
def test_space_shorthand_beside_space_is_refused(argv, capsys):
    code, out, err = _run(argv, capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert "shorthand" in err


def test_witness_p_beside_space_is_the_exponent(capsys):
    code, out, _ = _run(["witness", "--kind", "vn", "--p", "2", "--n", "3",
                         "--space", LP3], capsys)
    assert code == 0 and json.loads(out)["p"] == 2.0


# exit codes -----------------------------------------------------------------------


def test_exit_code_malformed_json(capsys):
    code, _, err = _run(["norm", "--space", '{"kind":', "--vector", "[1]"], capsys)
    assert code == EXIT_BAD_JSON
    assert "malformed JSON" in err


def test_exit_code_unknown_kind(capsys):
    code, _, err = _run(["norm", "--space", '{"kind":"zeta"}', "--vector", "[1]"], capsys)
    assert code == EXIT_UNKNOWN_KIND
    assert "unknown space kind" in err
    code, _, err = _run(
        ["norm", "--lattice", '{"kind":"zeta"}', "--vector", "[1]"], capsys
    )
    assert code == EXIT_UNKNOWN_KIND
    assert "unknown lattice kind" in err


def test_exit_code_parameter_violation(capsys):
    code, _, err = _run(
        ["norm", "--space", '{"kind":"lp","p":0.25}', "--vector", "[1]"], capsys
    )
    assert code == EXIT_BAD_PARAMETER
    assert "parameter violation" in err
    code, _, err = _run(
        ["scan", "--space", '{"kind":"lp","p":2}', "--grid", "nope"], capsys
    )
    assert code == EXIT_BAD_PARAMETER


def test_scan_past_2_63_block_positions_exits_before_any_work(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "lattice_norm", lambda *a: calls.append(a))
    code, out, err = _run(
        ["scan", "--space", '{"kind":"lpq","p":3,"q":2}', "--grid", "1.1:1.3:2",
         "--dim", str(1 << 70)], capsys
    )
    assert code == EXIT_BAD_PARAMETER and out == "" and calls == []
    assert "2^63" in err


def test_scan_floors_log2_dim_in_integers(capsys):
    # float log2 rounds 2^63 - 1 up to 63: the l^p orbit grid reached m = 2^63
    code, out, _ = _run(["scan", "--p", "2", "--grid", "1:1:1", "--dim", str((1 << 63) - 1),
                         "--format", "csv"], capsys)
    assert code == 0
    assert math.isfinite(float(list(csv.DictReader(io.StringIO(out)))[0]["residual_estimate"]))


def test_witness_vn_refuses_a_support_that_cannot_print_before_computing(capsys, monkeypatch):
    # 2^14284 - 1 has 4,300 digits, Python's default int-to-string limit
    for fmt in ("json", "csv"):
        code, out, _ = _run(["witness", "--kind", "vn", "--p", "2", "--n", "14284",
                             "--format", fmt], capsys)
        assert code == 0 and str((1 << 14284) - 1) in out
    monkeypatch.setattr(cli, "doubling_orbit_witness", lambda *a: pytest.fail("computed"))
    for n in (14285, 1 << 20):
        code, out, err = _run(["witness", "--kind", "vn", "--p", "2", "--n", str(n)], capsys)
        assert code == EXIT_BAD_PARAMETER and out == ""
        assert "n <= 14284" in err


def test_norm_ex_lattice_does_not_echo_a_cap_key(capsys):
    lattice = '{"kind":"ex","base":{"kind":"lpq","p":3,"q":2},"cap":5}'
    code, out, _ = _run(["norm", "--lattice", lattice, "--vector", "[1, 1]"], capsys)
    assert code == 0
    assert json.loads(out)["lattice"] == {"kind": "ex", "base": {"kind": "lpq", "p": 3.0, "q": 2.0}}


@pytest.mark.parametrize("vector", ["[NaN, 1.0]", "[Infinity, 1.0]", "[1.0, -Infinity]"])
@pytest.mark.parametrize("lattice", [
    '{"kind":"ex","base":{"kind":"lp","p":2}}',
    '{"kind":"un","orlicz":{"form":"power","p":2}}',
    '{"kind":"wlq","q":2,"weights":{"form":"geometric","ratio":2}}',
])
def test_norm_lattice_refuses_non_finite_vectors(lattice, vector, capsys):
    code, out, err = _run(["norm", "--lattice", lattice, "--vector", vector], capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert "norm input must be finite" in err


def _power_log(p, a):
    return {"form": "power_log", "p": p, "a": a}


# every number a descriptor reads: (flag, key, descriptor with v at that key)
DESCRIPTOR_NUMBERS = [pytest.param(*case, id=case_id) for case_id, case in {
    "lp-p": ("space", "p", lambda v: {"kind": "lp", "p": v}),
    "lpq-p": ("space", "p", lambda v: {"kind": "lpq", "p": v, "q": 2}),
    "lpq-q": ("space", "q", lambda v: {"kind": "lpq", "p": 3, "q": v}),
    "lorentz-q": ("space", "q", lambda v: {
        "kind": "lorentz", "q": v, "weights": {"form": "power", "theta": 0.25}}),
    "lorentz-theta": ("space", "theta", lambda v: {
        "kind": "lorentz", "q": 2, "weights": {"form": "power", "theta": v}}),
    "lorentz-values": ("space", "values[1]", lambda v: {
        "kind": "lorentz", "q": 1, "weights": {"form": "array", "values": [1, v]}}),
    "orlicz-power-p": ("space", "p", lambda v: {
        "kind": "orlicz", "orlicz": {"form": "power", "p": v}}),
    "orlicz-power_log-p": ("space", "p", lambda v: {
        "kind": "orlicz", "orlicz": _power_log(v, 0.6)}),
    "orlicz-power_log-a": ("space", "a", lambda v: {"kind": "orlicz", "orlicz": _power_log(2, v)}),
    "ex-p": ("lattice", "p", lambda v: {"kind": "ex", "base": {"kind": "lp", "p": v}}),
    "un-p": ("lattice", "p", lambda v: {"kind": "un", "orlicz": {"form": "power", "p": v}}),
    "wlq-q": ("lattice", "q", lambda v: {
        "kind": "wlq", "q": v, "weights": {"form": "geometric", "ratio": 2}}),
    "wlq-ratio": ("lattice", "ratio", lambda v: {
        "kind": "wlq", "q": 2, "weights": {"form": "geometric", "ratio": v}}),
    "wlq-values": ("lattice", "values[0]", lambda v: {
        "kind": "wlq", "q": 2, "weights": {"form": "array", "values": [v, 1]}}),
    "wlq-theta": ("lattice", "theta", lambda v: {"kind": "wlq", "q": 2, "weights": {
        "form": "lorentz_blocks", "weights": {"form": "power", "theta": v}}}),
}.items()]


@pytest.mark.parametrize("bad", [None, True, False, [2], {}],
                         ids=["null", "true", "false", "array", "object"])
@pytest.mark.parametrize("flag, key, descriptor", DESCRIPTOR_NUMBERS)
def test_descriptor_numbers_refuse_other_json_types(flag, key, descriptor, bad, capsys):
    argv = ["norm", f"--{flag}", json.dumps(descriptor(bad)), "--vector", "[3, 4]"]
    code, out, err = _main(argv, capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert f"descriptor key {key!r} must be a number" in err and "Traceback" not in err


def test_descriptor_numbers_still_read_strings(capsys):
    for space, want in [('{"kind":"lp","p":"2"}', 5.0), ('{"kind":"lp","p":"infinity"}', 4.0),
                        ('{"kind":"lpq","p":"2","q":"inf"}', 3.0 * 2.0**0.5)]:
        code, out, _ = _run(["norm", "--space", space, "--vector", "[3, 4]"], capsys)
        assert code == 0 and json.loads(out)["value"] == pytest.approx(want)
    code, out, err = _run(["norm", "--space", '{"kind":"lp","p":"two"}', "--vector", "[3]"], capsys)
    assert code == EXIT_BAD_PARAMETER and out == "" and "could not convert" in err


@pytest.mark.parametrize("weights", [
    {"form": "array", "values": [1, 2, -3]},
    {"form": "array", "values": [1, 2, 0]},
    {"form": "geometric", "ratio": 1e-300},
    {"form": "geometric", "ratio": 1e300},
])
def test_wlq_weights_past_the_probe_are_checked_where_read(weights, capsys):
    lattice = json.dumps({"kind": "wlq", "q": 2, "weights": weights})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(["norm", "--lattice", lattice, "--vector", "[1, 2, 3]"], capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert "weights mu must be finite and positive" in err
    # the first two coordinates pass the constructor's probe and still work
    code, out, _ = _run(["norm", "--lattice", lattice, "--vector", "[1, 2]"], capsys)
    assert code == 0


def test_distinct_messages_per_error_class(capsys):
    _, _, err_json = _run(["norm", "--space", "{", "--vector", "[1]"], capsys)
    _, _, err_kind = _run(["norm", "--space", '{"kind":"x"}', "--vector", "[1]"], capsys)
    _, _, err_para = _run(["norm", "--space", '{"kind":"lp","p":0}', "--vector", "[1]"], capsys)
    assert len({err_json, err_kind, err_para}) == 3


# output plumbing ------------------------------------------------------------------


def test_scan_csv_schema(capsys):
    code, out, _ = _run(
        ["scan", "--space", '{"kind":"lp","p":2}', "--grid", "1.0:1.5:3",
         "--dim", "64", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "schema_version,lambda,residual_estimate,method,dim,seed"
    assert len(lines) == 4
    assert lines[1].startswith("1,1.0,")


def test_index_csv_rows(capsys):
    code, out, _ = _run(
        ["index", "--space", '{"kind":"lp","p":2}', "--format", "csv"], capsys
    )
    lines = out.splitlines()
    assert lines[0] == "schema_version,index,lo,hi,point,method"
    assert [ln.split(",")[1] for ln in lines[1:]] == ["alpha", "beta", "mu", "nu"]
    assert all(ln.endswith("closed_form") for ln in lines[1:])


def test_byte_identical_reruns(capsys):
    argv = ["scan", "--space", '{"kind":"lp","p":2}', "--grid", "0.9:1.7:5",
            "--dim", "128", "--seed", "13", "--format", "csv"]
    _, first, _ = _run(argv, capsys)
    _, second, _ = _run(argv, capsys)
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        ["fset", "--space", '{"kind":"lp","p":2}', "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["f_interval"] == [2.0, 2.0]


def test_an_unwritable_out_exits_4_without_a_traceback(tmp_path, capsys):
    target = tmp_path / "absent" / "x.json"
    code, out, err = _main(["fset", "--p", "2", "--out", str(target)], capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert "cannot write --out" in err and str(target) in err
    assert "Traceback" not in err and not target.exists()


def test_help_still_exits_0(capsys):
    # usage errors exit 4 (test_a_failed_command_writes_no_output); help is no error
    code, out, _ = _main(["scan", "--help"], capsys)
    assert code == 0 and "--grid" in out


def test_scan_points_do_not_depend_on_the_seed(capsys):
    for space in (LORENTZ, ORLICZ_15):
        argv = ["scan", "--space", space, "--grid", "0.9:1.7:5"]
        outs = [json.loads(_run(argv + ["--seed", s], capsys)[1]) for s in ("1", "9")]
        assert [o["seed"] for o in outs] == [1, 9]
        assert outs[0]["points"] == outs[1]["points"]


def test_infinite_fset_renders_inf(capsys):
    _, out, _ = _run(["fset", "--space", '{"kind":"lp","p":"inf"}'], capsys)
    assert json.loads(out)["f_interval"] == ["inf", "inf"]


# config file merge ------------------------------------------------------------------


def test_config_file_wins_with_warning(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"space": {"kind": "lp", "p": 2}, "vector": [3, 4]}))
    code, out, err = _run(
        ["norm", "--config", str(cfg), "--vector", "[1]"], capsys
    )
    assert code == 0
    assert json.loads(out)["value"] == 5.0
    assert "overrides --vector" in err


def test_config_unknown_keys_warn(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"space": {"kind": "lp", "p": 1}, "vector": [1],
                               "wat": True}))
    code, _, err = _run(["norm", "--config", str(cfg)], capsys)
    assert code == 0
    assert "ignoring unknown config key 'wat'" in err


def test_config_malformed_json_exit(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{nope")
    with pytest.raises(CliError) as exc:
        parse_args(["fset", "--config", str(cfg)])
    assert exc.value.code == EXIT_BAD_JSON


def test_config_missing_file(tmp_path):
    with pytest.raises(CliError) as exc:
        parse_args(["fset", "--config", str(tmp_path / "absent.json")])
    assert exc.value.code == EXIT_BAD_PARAMETER


# console entry point -----------------------------------------------------------------


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "symseq.cli", "fset", "--space", '{"kind":"lp","p":2}'],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["f_interval"] == [2.0, 2.0]


def test_requests_never_load_numpy_ma():
    # numpy's first np.unique imports numpy.ma (~13 ms); no request needs it
    code = (
        "import sys\n"
        "from symseq.cli import parse_args, run\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "for argv in (['fset', '--space', '{\"kind\":\"lp\",\"p\":2}'],\n"
        "             ['fset', '--space', '{\"kind\":\"lpq\",\"p\":3,\"q\":2}'],\n"
        "             ['norm', '--lattice', '{\"kind\":\"ex\",\"base\":{\"kind\":\"lpq\",\"p\":3,\"q\":2}}',\n"
        "              '--vector', '[1, 2, 3]']):\n"
        "    assert run(parse_args(argv)) == 0\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, capture_output=True)


def test_requests_never_load_numpy_random():
    # importing numpy.random costs 12-15 ms; only scans and verify draw vectors
    code = (
        "import sys\n"
        "from symseq.cli import parse_args, run\n"
        "assert 'numpy.random' not in sys.modules\n"
        "orl = '{\"kind\":\"orlicz\",\"orlicz\":{\"form\":\"power\",\"p\":1.5}}'\n"
        "for argv in (['index', '--space', orl], ['fset', '--space', orl],\n"
        "             ['norm', '--space', orl, '--vector', '[1, 2, 3]'],\n"
        "             ['witness', '--kind', 'vn', '--space', orl, '--p', '1.5', '--n', '8'],\n"
        "             ['witness', '--kind', 'un', '--p', '2', '--n', '3']):\n"
        "    assert run(parse_args(argv)) == 0\n"
        "    assert 'numpy.random' not in sys.modules, argv\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, capture_output=True)


# one output path ------------------------------------------------------------------


def _main(argv, capsys):
    """Exit code, stdout and stderr of ``main``, argparse errors included."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


LP2 = '{"kind":"lp","p":2}'
LORENTZ = '{"kind":"lorentz","q":2,"weights":{"form":"power","theta":0.25}}'
EVERY_COMMAND = [
    ["norm", "--p", "2", "--vector", "[3, 4]"],
    ["norm", "--lattice", '{"kind":"un","orlicz":{"form":"power","p":2}}', "--vector", "[1, 2]"],
    ["index", "--space", LP2],
    ["fset", "--space", ORLICZ_15],
    ["scan", "--space", LP2, "--grid", "1.0:1.2:2", "--dim", "16"],
    ["witness", "--kind", "vn", "--p", "2", "--n", "3"],
    ["witness", "--kind", "un", "--p", "2", "--n", "3"],
    ["verify", "--suite", "9"],
]


@pytest.mark.parametrize("argv, fmt", [
    (argv, fmt) for argv in EVERY_COMMAND
    for fmt in (None, "json", "csv") + (("table",) if argv[0] == "verify" else ())
])
def test_every_format_carries_the_schema(argv, fmt, capsys):
    code, out, _ = _run(argv + (["--format", fmt] if fmt else []), capsys)
    assert code == 0
    fmt = fmt or ("table" if argv[0] == "verify" else "json")
    if fmt == "json":
        payload = json.loads(out)
        assert payload["schema_version"] == 1 and payload["command"] == argv[0]
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert header[0] == "schema_version" and rows
        assert all(row[0] == "1" and len(row) == len(header) for row in rows)
    else:
        lines = out.splitlines()
        assert lines[0].startswith("[ 9] PASS ") and lines[-1] == "1/1 checks passed"


@pytest.mark.parametrize("argv, want", [
    (["norm", "--space", "{", "--vector", "[1]"], EXIT_BAD_JSON),
    (["index", "--space", '{"kind":'], EXIT_BAD_JSON),
    (["scan", "--p", "2", "--grid", "1:2:2", "--format", "table"], EXIT_BAD_PARAMETER),
    (["witness", "--kind", "wn", "--p", "2", "--n", "3"], EXIT_BAD_PARAMETER),
    (["verify", "--suite"], EXIT_BAD_PARAMETER),
    (["norm", "--lattice", '{"kind":"zeta"}', "--vector", "[1]"], EXIT_UNKNOWN_KIND),
    (["fset", "--space", '{"kind":"zeta"}'], EXIT_UNKNOWN_KIND),
    (["scan", "--space", '{"kind":"zeta"}', "--grid", "1:2:2"], EXIT_UNKNOWN_KIND),
    (["witness", "--kind", "vn", "--p", "2", "--n", "3", "--space", '{"kind":"zeta"}'],
     EXIT_UNKNOWN_KIND),
    (["norm", "--p", "2", "--vector", "[1, 2]", "--operator", "R:25"], EXIT_BAD_PARAMETER),
    (["index", "--space", LORENTZ, "--n-max", "60"], EXIT_BAD_PARAMETER),
    (["fset", "--p", "2", "--n-max", "0"], EXIT_BAD_PARAMETER),
    (["scan", "--p", "2", "--grid", "1:2:4097"], EXIT_BAD_PARAMETER),
    (["witness", "--kind", "un", "--p", "1", "--n", "257"], EXIT_BAD_PARAMETER),
    (["verify", "--suite", "9,99"], EXIT_BAD_PARAMETER),
])
def test_a_failed_command_writes_no_output(argv, want, tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, err = _main(argv + ["--out", str(target)], capsys)
    assert code == want and err
    assert out == "" and not target.exists()


@pytest.mark.parametrize("argv, message", [
    (["index", "--space", LORENTZ, "--n-max", "60"], "every summed point j 2^n below 2^63"),
    (["index", "--space", LORENTZ, "--j-max", "0"], "1 <= j_max <= 2^20"),
    (["fset", "--space", LORENTZ, "--n-max", "1", "--j-max", str((1 << 20) + 1)],
     "1 <= j_max <= 2^20"),
    (["index", "--space", ORLICZ_15, "--k-max", "-1"], "k_max >= 0"),
    (["fset", "--space", ORLICZ_15, "--n-max", "900", "--k-max", "97"], "n_max + k_max <= 996"),
    (["scan", "--p", "2", "--grid", "1:2:5000", "--dim", "1"], "at most 4096"),
    (["witness", "--kind", "un", "--p", "1", "--n", "600"], "n <= 256"),
])
def test_size_producing_inputs_are_refused_before_allocating(argv, message, capsys):
    # each case is past its cap by enough to show in the peak, but would
    # allocate only megabytes if a check went missing
    tracemalloc.start()
    try:
        code, out, err = _run(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert message in err
    assert peak < 1 << 20


LORENTZ_BLOCKS_ARRAY = ('{"kind":"wlq","q":2,"weights":{"form":"lorentz_blocks",'
                        '"weights":{"form":"array","values":[1,0.5,0.25,0.1]}}}')


@pytest.mark.parametrize("argv, message", [
    (["norm", "--lattice", LORENTZ_BLOCKS_ARRAY, "--vector", "[1, 2]"],
     'form "lorentz_blocks" reads w(2^(k-1)) at every block k, so it needs "power" weights'),
    (["witness", "--kind", "vn", "--p", "2", "--n", "63", "--space", LORENTZ],
     "needs n <= 62 on Lorentz"),
    (["witness", "--kind", "vn", "--p", "2", "--n", "63", "--space", '{"kind":"lpq","p":3,"q":2}'],
     "needs n <= 62 on LpQ"),
    (["witness", "--kind", "vn", "--p", "2", "--n", "64", "--space", ORLICZ_15],
     "needs n <= 63 on Orlicz"),
])
def test_refusals_name_what_the_caller_asked_for(argv, message, capsys):
    # not the kernel each input would reach: an array-weight lookup, or the
    # 63 block / 64 coordinate caps of the EX and UN norms
    code, out, err = _run(argv, capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert message in err
    if argv[0] == "witness":
        n = int(argv[argv.index("--n") + 1]) - 1
        argv[argv.index("--n") + 1] = str(n)
        code, out, _ = _run(argv, capsys)
        assert code == 0 and json.loads(out)["n"] == n


def test_a_nan_result_exits_4_instead_of_writing_invalid_json(monkeypatch, capsys):
    def nan_witness(p, n):
        return spectral.BranchingReport(p, n, math.nan, 1.0, 1.0, 1.0, 1.0, 9, False)

    monkeypatch.setattr(cli, "branching_witness", nan_witness)
    argv = ["witness", "--kind", "un", "--p", "2", "--n", "3"]
    code, out, err = _run(argv, capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert "not JSON compliant" in err
    # CSV has no such limit: it prints nan as Python does
    code, out, _ = _run(argv + ["--format", "csv"], capsys)
    assert code == 0 and "norm_value,nan," in out


@pytest.mark.parametrize("command, cfg, message", [
    (["scan", "--p", "2", "--grid", "1:1.2:2"], {"format": "xml"}, "config key 'format': 'xml'"),
    (["fset", "--p", "2"], {"format": "table"}, "config key 'format': 'table'"),
    (["scan", "--p", "2", "--grid", "1:1.2:2"], {"dim": 1.5}, "config key 'dim': 1.5"),
    (["fset", "--p", "2"], {"n-max": True}, "config key 'n-max': True is not a value --n-max takes"),
    (["witness", "--p", "2", "--n", "3"], {"kind": "xx"}, "config key 'kind'"),
    (["witness", "--kind", "un", "--n", "3"], {"p": True}, "config key 'p'"),
    (["verify"], {"suite": 9}, "config key 'suite'"),
    (["verify", "--suite", "9"], {"seed": "7"}, "config key 'seed'"),
    (["norm", "--p", "2", "--vector", "[1]"], {"out": 5}, "config key 'out'"),
    (["scan", "--p", "2"], {"grid": [1.0] * 4097}, "a grid list holds at most 4096 numbers"),
    (["scan", "--p", "2"], {"grid": [1.0, True]}, "a grid list holds at most 4096 numbers"),
    (["scan", "--p", "2"], {"grid": [1.0, "a"]}, "entry 1 is 'a', not a number"),
    (["scan", "--p", "2"], {"grid": [1.0, math.inf]}, "grid entry 1 must be positive and finite"),
    (["scan", "--p", "2"], {"grid": [math.nan]}, "grid entry 0 must be positive and finite"),
])
def test_config_values_pass_their_flags_checks(command, cfg, message, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _main(command + ["--config", str(path)], capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert message in err


def test_config_values_of_the_flags_type_are_taken(tmp_path, capsys):
    for command, cfg in [
        (["fset"], {"p": "inf", "n_max": 8, "format": "csv"}),
        (["verify"], {"suite": "9", "seed": 3, "format": "table"}),
        (["scan", "--p", "2"], {"grid": [1.0, 1.5], "dim": 16, "q": None}),
    ]:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = _main(command + ["--config", str(path)], capsys)
        assert code == 0 and out


@pytest.mark.parametrize("grid", ["nan:1:3", "inf:inf:1", "1:inf:2", "-1:1:3", "1e308:-1e308:3"])
def test_scan_refuses_a_grid_end_it_cannot_use(grid, capsys):
    # refused before np.linspace, which would warn on each of these first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(["scan", "--p", "2", f"--grid={grid}"], capsys)
    assert code == EXIT_BAD_PARAMETER and out == "" and not caught
    assert "--grid start and stop must be positive and finite" in err


@pytest.mark.parametrize("p, grid", [("10", "1e-31:1e-31:1"), ("2", "1e-300:1e-300:1"),
                                     ("100", "1e-300:1e-5:3")])
def test_scan_takes_a_lambda_near_zero(p, grid, capsys):
    code, out, err = _run(["scan", "--p", p, "--grid", grid], capsys)
    assert code == 0 and err == ""
    for pt in json.loads(out)["points"]:
        assert pt["residual_estimate"] == pytest.approx(2.0 ** (1.0 / float(p)), rel=1e-5)


@pytest.mark.parametrize("space", [LORENTZ, '{"kind":"lpq","p":3,"q":2}', ORLICZ_15])
def test_scan_refuses_a_lambda_its_search_would_overflow(space, capsys):
    # (1/lambda)^13 overflows on 14 blocks, where numpy used to warn and the
    # norm refused the inf it made
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(["scan", "--space", space, "--grid", "1e-25:1e-25:1"], capsys)
    assert code == EXIT_BAD_PARAMETER and out == "" and not caught
    assert "cannot take lambda = 1e-25" in err and "dim = 16384" in err


# the fuzzes below check what they print against perfbench/oracles.py

_ORACLES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


@functools.cache
def _oracles():
    """perfbench/oracles.py, loaded read-only once; it needs scipy, a test dependency."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", _ORACLES_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SCAN_FUZZ_SPACES = ['{"kind":"lp","p":2}', '{"kind":"lp","p":1}', '{"kind":"lp","p":"inf"}',
                    '{"kind":"lpq","p":3,"q":2}', '{"kind":"lpq","p":2,"q":4}', LORENTZ, ORLICZ_15]


# the oracle's l^p residual scales log2 sums by p, which p = inf makes 0 * inf
_SCAN_ORACLE_SKIPS = {'{"kind":"lp","p":"inf"}'}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(space=st.sampled_from(SCAN_FUZZ_SPACES), log_lam=st.floats(-300.0, 308.0),
       dim=st.sampled_from([1, 2, 4, 64, 1 << 14]))
@example(space=LORENTZ, log_lam=-25.0, dim=1 << 14)
@example(space='{"kind":"lp","p":2}', log_lam=300.0, dim=1 << 14)
def test_scan_exits_cleanly_at_any_lambda(space, log_lam, dim):
    lam = 10.0**log_lam
    argv = ["scan", "--space", space, "--grid", f"{lam!r}:{lam!r}:1", "--dim", str(dim)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = run(parse_args(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, EXIT_BAD_PARAMETER), (argv, err)
    assert not caught and "Traceback" not in err and "warning" not in err.lower()
    if code == EXIT_BAD_PARAMETER:
        assert out == ""
        return
    payload = json.loads(out)
    for pt in payload["points"]:
        assert math.isfinite(pt["residual_estimate"]) and pt["residual_estimate"] >= 0.0
    if space not in _SCAN_ORACLE_SKIPS:
        bad = _oracles().check_scan(json.loads(space), payload)
        assert not bad, (argv, bad)


# an infinite Orlicz p (a string, or 1e400, which JSON reads as inf) is
# refused when the descriptor is parsed, before any command does work
INF_ORLICZ = ['{"form":"power","p":"inf"}', '{"form":"power","p":1e400}',
              '{"form":"power_log","p":"inf","a":0.6}', '{"form":"power_log","p":1e400,"a":0.6}']


@pytest.mark.parametrize("orlicz", INF_ORLICZ)
@pytest.mark.parametrize("command", [
    ["norm", "--vector", "[1, 2]"], ["index"], ["fset"], ["scan", "--grid", "1.0:1.2:2"],
    ["witness", "--kind", "vn", "--p", "2", "--n", "3"],
], ids=lambda argv: argv[0] if argv[0] != "witness" else "witness-vn")
def test_every_command_refuses_an_infinite_orlicz_p(orlicz, command, capsys):
    space = f'{{"kind":"orlicz","orlicz":{orlicz}}}'
    code, out, err = _run(command + ["--space", space], capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert "needs a finite p" in err and "p = inf" in err


NORM_FUZZ_SPACES = [LP2, '{"kind":"lp","p":1}', '{"kind":"lp","p":"inf"}',
                    '{"kind":"lpq","p":3,"q":2}', LORENTZ, ORLICZ_15,
                    '{"kind":"orlicz","orlicz":{"form":"power_log","p":2,"a":0.6}}']
NORM_FUZZ_LATTICES = ['{"kind":"ex","base":{"kind":"lp","p":2}}',
                      '{"kind":"wlq","q":2,"weights":{"form":"geometric","ratio":2}}',
                      '{"kind":"wlq","q":1.5,"weights":{"form":"array","values":[1,2,4,8]}}',
                      '{"kind":"wlq","q":2,"weights":{"form":"lorentz_blocks",'
                      '"weights":{"form":"power","theta":0.25}}}',
                      '{"kind":"un","orlicz":{"form":"power","p":2}}']
# the fuzz runs under a 2^16-entry cap, so that an image at its edge stays
# far below the 4 MiB peak; arguments are small, at either cap's edge, or
# past 2^40, so that a missing cap fails at the allocator, not zero-filling
_FUZZ_CAP = 1 << 16
_FUZZ_ARGS = [0, 1, 2, 3, 15, 16, 17, 23, 24, 25, (1 << 15) - 1, 1 << 15, _FUZZ_CAP - 1, _FUZZ_CAP,
              _FUZZ_CAP + 1, (1 << 23) + 1, (1 << 24) + 1, 1 << 40, 10**20]


def _operator_text(name, arg, sign, log_lam):
    """One operator of the grammar; each draw takes every part, used or not."""
    if name in ("sigma_up", "sigma_down"):
        return f"{name}:{max(arg, 1)}"
    if name in ("tau", "R"):
        return f"{name}:{sign * arg if name == 'tau' else arg}"
    if name in ("T", "Dl"):
        return f"{name}:{sign * 10.0**log_lam!r}"
    return name


_fuzz_operator = st.builds(_operator_text, st.sampled_from(
    ["sigma_up", "sigma_down", "tau", "doubling", "doubling_inv", "S", "Q", "R", "T", "Dl", None]),
    st.sampled_from(_FUZZ_ARGS), st.sampled_from([-1, 1]), st.floats(-320.0, 308.0))


_fuzz_entry = st.one_of(st.just(0.0), st.builds(lambda sign, x: sign * 10.0**x,
                                                  st.sampled_from([-1.0, 1.0]),
                                                  st.floats(-320.0, 308.0)))


# the operators perfbench/oracles.py writes out again
_ORACLE_OPERATORS = {"doubling", "sigma_up", "sigma_down", "Q"}


def _oracle_checks_norm(oracles, flag, desc, operator, vector):
    """Whether the oracle norms this draw to its tolerance: every space, the
    un lattice, and the operators above.  Sums hold across the float range.
    A Luxemburg root stops at an absolute 1e-300 (brentq's xtol), 1e-10
    relative only for norms of 1e-290 and up, and its bracket doubles up
    from max|x| / 2 with no overflow guard.  So an Orlicz or un draw is
    checked only when max|x| <= norm <= n max|x| (2^n max|x| on un, for n
    entries) lies in [1e-290, 1e307], or is 0."""
    if flag == "--lattice" and desc["kind"] != "un":
        return False
    if operator is not None and operator.split(":")[0] not in _ORACLE_OPERATORS:
        return False
    if desc["kind"] not in ("orlicz", "un"):
        return True
    image = oracles.apply_op(operator, vector)
    top = float(np.max(np.abs(image), initial=0.0))
    bound = top * (2.0 ** image.size if desc["kind"] == "un" else image.size)
    return top == 0.0 or 1e-290 <= top and bound <= 1e307


@settings(max_examples=150, derandomize=True, deadline=None)
@given(target=st.sampled_from([("--space", v) for v in NORM_FUZZ_SPACES]
                              + [("--lattice", v) for v in NORM_FUZZ_LATTICES]),
       operator=_fuzz_operator, vector=st.lists(_fuzz_entry, max_size=64))
@example(target=("--space", LP2), operator="sigma_down:1099511627776", vector=[1.0, 2.0])
@example(target=("--space", LP2), operator="sigma_up:100000000000000000000", vector=[])
def test_norm_exits_cleanly_on_any_operator_and_vector(target, operator, vector):
    argv = ["norm", *target, "--vector", json.dumps(vector)]
    if operator is not None and target[0] == "--space":
        argv += ["--operator", operator]
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(operators, "_MAX_IMAGE", _FUZZ_CAP):
            warnings.simplefilter("always")
            with redirect_stdout(out), redirect_stderr(err):
                code = run(parse_args(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, EXIT_BAD_PARAMETER), (argv, err)
    assert not caught and "Traceback" not in err and "warning" not in err.lower(), argv
    assert peak < 4 << 20, argv
    if code == EXIT_BAD_PARAMETER:
        assert out == ""
        return
    payload = json.loads(out)
    value = payload["value"]
    assert value == "inf" or value >= 0.0, argv
    flag, desc = target[0], json.loads(target[1])
    if flag == "--lattice":
        assert lattice_from_json(payload["lattice"]) == lattice_from_json(desc), argv
        operator = None  # a lattice takes no operator
    oracles = _oracles()
    if _oracle_checks_norm(oracles, flag, desc, operator, vector):
        task = {"label": " ".join(argv), "x": vector, "op": operator,
                ("space" if flag == "--space" else "lattice"): desc}
        bad = oracles.check_norm(task, float(value))
        assert not bad, (argv, bad)


# index and fset windows: every space family, every edge of the window rule

FUZZ_SPACES = [
    '{"kind":"lp","p":2}',
    '{"kind":"lp","p":"inf"}',
    '{"kind":"lpq","p":3,"q":2}',
    '{"kind":"lpq","p":2,"q":"inf"}',
    '{"kind":"lpq","p":2,"q":4}',
    LORENTZ,
    '{"kind":"lorentz","q":1,"weights":{"form":"power","theta":0.3}}',
    ORLICZ_15,
    '{"kind":"orlicz","orlicz":{"form":"power_log","p":2,"a":0.6}}',
]
# each edge of the rule, one step either side: n_max >= 1, 1 <= j_max <= 2^20,
# k_max >= 0, n_max + k_max <= 996, and j 2^n < 2^63 on the beta subgrid too
_N_EDGES = [0, 1, 2, 15, 16, 42, 55, 56, 57, 61, 62, 63, 796, 797, 995, 996, 997]
_J_EDGES = [0, 1, 2, 63, 64, 65, 95, 96, 1000, (1 << 18) - 64, 1 << 18, (1 << 20) - 1,
            1 << 20, (1 << 20) + 1]
_K_EDGES = [-1, 0, 1, 120, 200, 934, 935, 995, 996, 997]


def _edge_or_any(edges, lo, hi):
    return st.none() | st.sampled_from(edges) | st.integers(lo, hi)


def _window_flags(n_max, j_max, k_max):
    pairs = (("--n-max", n_max), ("--j-max", j_max), ("--k-max", k_max))
    return [arg for flag, v in pairs if v is not None for arg in (flag, str(v))]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(command=st.sampled_from(["index", "fset"]), space=st.sampled_from(FUZZ_SPACES),
       n_max=_edge_or_any(_N_EDGES, 0, 1000), j_max=_edge_or_any(_J_EDGES, 0, (1 << 20) + 2),
       k_max=_edge_or_any(_K_EDGES, -1, 1000))
@example(command="index", space=LORENTZ, n_max=None, j_max=None, k_max=None)
@example(command="fset", space='{"kind":"lpq","p":3,"q":2}', n_max=None, j_max=None, k_max=None)
@example(command="index", space=LORENTZ, n_max=15, j_max=1 << 18, k_max=None)
@example(command="fset", space='{"kind":"lpq","p":3,"q":2}', n_max=42, j_max=1 << 20, k_max=None)
def test_index_windows_exit_cleanly_in_bounded_memory(command, space, n_max, j_max, k_max):
    argv = [command, "--space", space] + _window_flags(n_max, j_max, k_max)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracemalloc.start()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = run(parse_args(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, EXIT_BAD_PARAMETER), (argv, err)
    assert not caught and "Traceback" not in err and "warning" not in err.lower()
    assert peak < 2 << 20, (argv, peak)
    if code == EXIT_BAD_PARAMETER:
        assert out == "" and "index_report needs" in err
        return
    payload = json.loads(out)
    alpha, beta = payload["alpha"], payload["beta"]
    if command == "index":
        for end in (alpha, beta):
            assert end["lo"] <= end["point"] <= end["hi"]
        alpha, beta = alpha["point"], beta["point"]
    want = ["inf" if beta == 0.0 else 1.0 / beta, "inf" if alpha == 0.0 else 1.0 / alpha]
    assert payload["f_interval"] == want
    oracles = _oracles()
    check = oracles.check_index if command == "index" else oracles.check_fset
    if n_max is None and j_max is None and k_max is None:
        bad = check(json.loads(space), payload)
    else:
        # criteria 5 and 6 hold the closed forms and alpha <= beta + 1e-6 at
        # the default window only: at n_max <= 4 the points of l^{3,2} cross
        # by up to 4.6e-4 (see CHANGES.md); their intervals still meet
        with mock.patch.object(oracles, "index_target", lambda space: None), \
                mock.patch.object(oracles, "ORDER_SLACK", math.inf):
            bad = check(json.loads(space), payload)
        if command == "index":
            assert payload["alpha"]["lo"] <= payload["beta"]["hi"], argv
    assert not bad, (argv, bad)


# array weights name what they hold and what a request reads

ARRAY3 = '{"kind":"lorentz","q":2,"weights":{"form":"array","values":[1,0.5,0.25]}}'


@pytest.mark.parametrize("argv, position", [
    (["index"], 1 << 30), (["fset"], 1 << 30), (["scan", "--grid", "1:2:3"], 16383),
    (["witness", "--kind", "vn", "--p", "2", "--n", "4"], 15),
    (["norm", "--vector", "[1, 2, 3, 4]"], 4),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_short_array_weights_name_their_length_and_the_position_read(argv, position, capsys):
    code, out, err = _run(argv + ["--space", ARRAY3], capsys)
    assert code == EXIT_BAD_PARAMETER and out == ""
    assert (f"array weights hold 3 values, but this request reads w_k at k = {position}; "
            "use power weights or a longer array") in err


# witness and verify: derandomized fuzzes over every flag they take


def _fuzz_main(argv):
    """(exit code, stdout, stderr, Python warnings, tracemalloc peak) of ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracemalloc.start()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    main(argv)
                    code = None  # main always exits
                except SystemExit as e:
                    code = e.code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, out.getvalue(), err.getvalue(), caught, peak


# every family, an array too short for most n, and descriptors that are
# malformed (exit 2), of an unknown kind (exit 3) or out of range (exit 4)
WITNESS_SPACES = [
    LP2, '{"kind":"lp","p":1}', '{"kind":"lp","p":"inf"}', '{"kind":"lpq","p":3,"q":2}',
    '{"kind":"lpq","p":2,"q":4}', '{"kind":"lpq","p":2,"q":"inf"}', LORENTZ, ARRAY3,
    '{"kind":"lorentz","q":1,"weights":{"form":"array","values":[1,1,1,1,1,1,1]}}',
    ORLICZ_15, '{"kind":"orlicz","orlicz":{"form":"power_log","p":2,"a":0.6}}',
]
_UNKNOWN_KIND = '{"kind":"lq","p":2}'
BAD_WITNESS_SPACES = [
    '{"kind":"lp","p":2', "[1, 2]", '{"kind":"lp"}', '{"kind":"lp","p":0.5}', _UNKNOWN_KIND,
    '{"kind":"lp","p":null}', '{"kind":"orlicz","orlicz":{"form":"power_log","p":2,"a":0.9}}',
    '{"kind":"lorentz","q":2,"weights":{"form":"power","theta":60}}',
    '{"kind":"lorentz","q":2,"weights":{"form":"array","values":[]}}',
]
_WITNESS_P = ["nan", "inf", "-inf", "-1", "0", "0.5", "1", "1.5", "2", "3", "10", "1e308",
              "5e-324", "two"]
_WITNESS_N = ["-1", "0", "1", "2", "3", "12", "256", "257", "14284", "14285", "1.5"]
# the oracles rebuild v_n entry by entry (2^n - 1 of them), so they check n <= 12
_ORACLE_N = 12


def _witness_target(kind):
    """(kind, space): vn draws a space, valid or not, or none (l^p); un,
    which takes no space, mostly draws none."""
    spaces = WITNESS_SPACES + BAD_WITNESS_SPACES
    nones = [None] * (len(spaces) // 2 if kind == "vn" else 2 * len(spaces))
    return st.tuples(st.just(kind), st.sampled_from(nones + spaces))


# valid draws outweigh the refusals, so that the oracles see ~30 witnesses
@settings(max_examples=90, derandomize=True, deadline=None)
@given(target=st.sampled_from(["vn"] * 3 + ["un"] * 3 + ["wn", None]).flatmap(_witness_target),
       p=st.floats(1.0, 20.0).map(repr) | st.sampled_from(_WITNESS_P + [None]),
       n=st.integers(1, _ORACLE_N).map(str) | st.sampled_from(_WITNESS_N + [None]))
@example(target=("vn", ORLICZ_15), p="2", n="12")
@example(target=("un", None), p="1.5", n="12")
@example(target=("vn", None), p="3", n="14284")
@example(target=("un", None), p="1", n="5")
def test_witness_exits_cleanly_and_matches_the_oracles(target, p, n):
    kind, space = target
    argv = ["witness"] + [f"{flag}={v}" for flag, v in
                          (("--kind", kind), ("--space", space), ("--p", p), ("--n", n))
                          if v is not None]
    code, out, err, caught, peak = _fuzz_main(argv)
    assert code in (0, EXIT_BAD_JSON, EXIT_BAD_PARAMETER) or (
        code == EXIT_UNKNOWN_KIND and space == _UNKNOWN_KIND), (argv, err)
    assert not caught and "Traceback" not in err and "warning" not in err.lower(), argv
    # every witness runs on block or orbit coefficients, never on its ambient
    # support: the largest draw, un at n = 256, peaks near 2.2 MiB
    assert peak < 4 << 20, (argv, peak)
    if code != 0:
        assert out == "", argv
        return
    payload, p, n = json.loads(out), float(p), int(n)
    assert (payload["kind"], payload["p"], payload["n"]) == (kind, p, n)
    if n > _ORACLE_N:
        return
    oracles = _oracles()
    if kind == "un":
        bad = oracles.check_un(p, n, payload)
    elif space is None:
        bad = oracles.check_vn_lp(p, n, payload)
    else:
        bad = oracles.check_vn_space(json.loads(space), p, n, payload)
    assert not bad, (argv, bad)


# checks 6 and 9 run in milliseconds; every other suite string is refused
_CHEAP_SUITES = ["6", "9", "6,9", "9,6", "6,6", " 9", "6,"]
_BAD_SUITES = ["", ",", "13", "0", "-1", "6,13", "x", "6;9", "all,6", "1e1"]
_SEEDS = ["-1", "0", "1", "7", str(2**63), str(2**64), str(-(2**70)), "1.5", "seed"]
_CONFIGS = ['{"suite": "6", "seed": 3}', '{"suite": "9", "format": "csv"}', '{"seed": 0}',
            '{"suite": 9}', '{"format": "xml"}', '{"seed": "7"}', '{"bogus": 1}',
            '{"suite": "13"}', '{"suite": ""}', "{", "[1]", '{"seed": null}']


@settings(max_examples=100, derandomize=True, deadline=None)
@given(suite=st.none() | st.sampled_from(_CHEAP_SUITES + _BAD_SUITES),
       seed=st.none() | st.sampled_from(_SEEDS) | st.integers(0, 2**64).map(str),
       fmt=st.none() | st.sampled_from(["table", "json", "csv", "xml"]),
       config=st.none() | st.sampled_from(_CONFIGS))
@example(suite="6,9", seed="7", fmt="table", config=None)
@example(suite="9", seed=None, fmt="json", config='{"suite": "6", "seed": 3}')
def test_verify_exits_cleanly_on_any_suite_seed_format_and_config(suite, seed, fmt, config):
    if suite is None and (config is None or '"suite": "' not in config):
        suite = "9"  # never the whole suite
    argv = ["verify"] + [f"{flag}={v}" for flag, v in
                         (("--suite", suite), ("--seed", seed), ("--format", fmt)) if v is not None]
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(config)
            argv.append(f"--config={path}")
        code, out, err, caught, peak = _fuzz_main(argv)
    assert code in (0, EXIT_BAD_JSON, EXIT_BAD_PARAMETER), (argv, err)
    assert not caught and "Traceback" not in err, argv
    # the one stderr warning is the config file's own
    for line in err.splitlines():
        assert "warning" not in line.lower() or line.startswith(
            ("warning: ignoring unknown config key", "warning: config file overrides")), argv
    assert peak < 8 << 20, (argv, peak)
    if code != 0:
        assert out == "", argv
        return
    cfg = json.loads(config) if config else {}
    ids = sorted({int(part) for part in str(cfg.get("suite", suite)).split(",") if part.strip()})
    fmt = cfg.get("format", fmt) or "table"
    if fmt == "table":
        assert not _oracles().check_verify(ids, code, out), argv
    elif fmt == "json":
        payload = json.loads(out)
        assert payload["passed"] and sorted(r["id"] for r in payload["results"]) == ids
    else:
        header, *rows = csv.reader(io.StringIO(out))
        assert header[:3] == ["schema_version", "id", "name"]
        assert sorted(int(r[1]) for r in rows) == ids and {r[3] for r in rows} == {"pass"}
