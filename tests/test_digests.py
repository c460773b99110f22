"""Pinned SHA-256 digests of run exports and of an ensemble report.

A change that leaves RNG consumption and the recorded values alone must keep
these digests.  A change that alters them on purpose re-pins them and says
why in CHANGES.md.
"""

import hashlib

import pytest

from kremoval.engine import RunConfig, run
from kremoval.ensemble import report_to_json, run_ensemble
from kremoval.trajectory import TrajectoryParams


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cfg, csv_digest, summary_digest", [
    (RunConfig(n=120, k=3, seed=4, materialize_at=50_000),
     "5be94d51f4aa4d750eb21897658a6764a1e55d1d4bb8432ab8875d761dbe17ec",
     "d4dc8db9ab1572ac9945557226621eca53e846e0bd774f01aeb6db5bfaa31d06"),
    (RunConfig(n=30, k=4, seed=2, materialize_at=0),    # sampling only
     "b2ea28e7e71847927f35ec731396d5f0e090a6e0cb54c56732be0e33f13d9b77",
     "8af09c561549ae8d19cd01a09c127e0644783c7f5a6658b5b47e901cf7e548c3"),
    (RunConfig(n=30, k=4, seed=3),                      # indexed only
     "407b00f3b2f34513984dc02970d4fdb3bdfe35ede7426d442c4d8f11b72ac02c",
     "9675cb50c35d30b4d03e7bd3caaabdddf5d8525c4610e1454c06d7fd0d5a78a8"),
    (RunConfig(n=100, k=4, seed=5, stop="p_floor", p_floor=0.5),
     "10abee1a1e5db26022fd46672f5138dbd11e46e2e07858c97fbe53a1d83e70a8",
     "2b158e99f11db9ae4cffcd8abde0719fb1ff865a35d4a78dbfd09e5004405b8c"),
    (RunConfig(n=16, k=5, seed=6, checkpoint_stride=1),
     "fcadb7f6733e156cf7a20d43de81e4835046a506d760462bb069495deea12b5a",
     "c192318c70106c2eaf1edf1d6d05ad0b2f9cbd1e6403342c7c4ab6d33e7f0fab"),
    (RunConfig(n=20, k=5, seed=7, materialize_at=0),     # k=5 sampling only
     "879bc8c45e3e3b83581ed0cecc62bf5536ee409b96850187a38f57dbc86ee46e",
     "203bcb9f05070e95236e67d226cfcef95f7abdf3b674e851a5cc84a67d657c88"),
])
def test_run_digests(cfg, csv_digest, summary_digest):
    trace = run(cfg)
    assert sha256(trace.to_csv()) == csv_digest
    assert sha256(trace.summary_json()) == summary_digest


def test_scored_ensemble_report_digest():
    # one config scored against the envelopes (its traces are kept), one not
    grid = [RunConfig(n=30, k=4, seed=0, stop="p_floor", p_floor=0.5),
            RunConfig(n=24, k=4, seed=0)]
    report = run_ensemble(grid, trials=2, master_seed=3,
                          params=TrajectoryParams(k=4, n=30, p_floor=0.5))
    assert sha256(report_to_json(report)) == (
        "19c6f04c094d33433c0cd1b1db0fc28ebf68e8d44c4b64abf0f07a0503db7a4d")
