"""Command-line contract: schemas, determinism, exit codes, config merge."""

import json
import subprocess
import sys

import pytest

from symseq import verify
from symseq.cli import (
    EXIT_BAD_JSON,
    EXIT_BAD_PARAMETER,
    EXIT_UNKNOWN_KIND,
    EXIT_VERIFY_FAILED,
    CliError,
    parse_args,
    run,
)


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
