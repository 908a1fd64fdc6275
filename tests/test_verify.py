"""The verify driver: the run's seed reaches every check that draws vectors,
and the harness fails a check that overruns its budget."""

import ast
import dataclasses
import inspect
import types

from symseq import verify


def _payload(result):
    return dataclasses.replace(result, elapsed=0.0)


def test_run_checks_passes_the_seed(monkeypatch):
    s = 3
    seen = []
    rng = verify._rng

    def recording(seed, offset):
        seen.append((seed, offset))
        return rng(seed, offset)

    monkeypatch.setattr(verify, "_rng", recording)
    (via_run,) = verify.run_checks(only=[4], seed=s)
    direct = verify.check_intertwining_exact(seed=s)
    assert _payload(via_run) == _payload(direct)
    assert seen == [(s, 4), (s, 4)]


def test_default_seed_is_the_master_stream():
    (via_run,) = verify.run_checks(only=[10])
    assert _payload(via_run) == _payload(verify.check_shift_machinery())


def test_seed_streams_do_not_overlap():
    # seed + offset once collided: (0, 10) and (7, 3) drew the same vectors
    first = [verify._rng(s, o).integers(1 << 62) for s, o in ((0, 10), (7, 3))]
    assert first[0] != first[1]


def test_harness_fails_a_check_over_its_budget(monkeypatch):
    ticks = iter([100.0, 110.0])
    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    result = verify.check_orbit_disjointness()
    assert not result.passed
    assert result.detail == "runtime 10.0s exceeds 10s"
    assert (result.crit_id, result.name, result.elapsed) == (9, "orbit disjointness", 10.0)


def test_a_check_takes_a_seed_exactly_when_it_draws():
    tree = ast.parse(inspect.getsource(verify))
    checks = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")}
    assert {fn.__name__ for _, _, fn in verify.ALL_CHECKS} == set(checks)
    for name, node in checks.items():
        draws = any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_rng"
                    for call in ast.walk(node))
        takes_seed = "seed" in [arg.arg for arg in node.args.args]
        assert draws == takes_seed, name
