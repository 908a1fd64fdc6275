"""The verify driver: the run's seed reaches every check that draws vectors."""

import dataclasses

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
