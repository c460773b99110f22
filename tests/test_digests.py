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
     "b819efc0e8c76507c012a2f924d039b452c5d0b3a46b460f009c0329573668c1"),
    (RunConfig(n=30, k=4, seed=2, materialize_at=0),    # sampling only
     "b2ea28e7e71847927f35ec731396d5f0e090a6e0cb54c56732be0e33f13d9b77",
     "0733fa5264e9f46310ba28c0ecb35aed4c5805b391b9a865f77ccbf37a829455"),
    (RunConfig(n=30, k=4, seed=3),                      # indexed only
     "407b00f3b2f34513984dc02970d4fdb3bdfe35ede7426d442c4d8f11b72ac02c",
     "6910cdeae72a65d6a15849d66eb7232ac9da36d0f6f5099993855f0b4ba3ecbc"),
    (RunConfig(n=100, k=4, seed=5, stop="p_floor", p_floor=0.5),
     "10abee1a1e5db26022fd46672f5138dbd11e46e2e07858c97fbe53a1d83e70a8",
     "f9d9242265d763dae21cfe486f6883db90d92b14bffe560716ce66622f5f648b"),
    (RunConfig(n=16, k=5, seed=6, checkpoint_stride=1),
     "fcadb7f6733e156cf7a20d43de81e4835046a506d760462bb069495deea12b5a",
     "8d76bef61b439d5b059a1de3cd6a77e5cd2fd788bf09c39f1575f2a440860ad3"),
    (RunConfig(n=20, k=5, seed=7, materialize_at=0),     # k=5 sampling only
     "879bc8c45e3e3b83581ed0cecc62bf5536ee409b96850187a38f57dbc86ee46e",
     "879be5e92362c683930bd3a9cde36489a114dc58e598286a9f5b6d3b4887abb3"),
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
        "5bd05dbefb616831137bb975955466b148347c876a8a052b209f0a97948fd6ca")
