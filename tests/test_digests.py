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
     "8b97320cce8d6edac2dde827895f8fd0b379e06863f40c151dc0dd3f2570e538",
     "01b0bb49d348cc5a4ca9e2538088ef9c4567d9f5916f83fcb5c44698db1a732d"),
    (RunConfig(n=30, k=4, seed=2, materialize_at=0),    # sampling only
     "b2ea28e7e71847927f35ec731396d5f0e090a6e0cb54c56732be0e33f13d9b77",
     "8af09c561549ae8d19cd01a09c127e0644783c7f5a6658b5b47e901cf7e548c3"),
    (RunConfig(n=30, k=4, seed=3),                      # indexed only
     "d6afd243b45e878c804f75bb9f962d86cb11c6130ada5b827649dc3965925b2f",
     "223b52efde18766a8664817474712ed92fead75e879586ee2c0e4f3905c1fb4f"),
    (RunConfig(n=100, k=4, seed=5, stop="p_floor", p_floor=0.5),
     "44e264dabb14cc532545028589a3bfb834403448c055459ec16001d0c7c8bb8f",
     "dbde9caf7727e09e522e11bcfbca102a51f4f96d3020575b8c7d3f36f3c8d8ad"),
    (RunConfig(n=16, k=5, seed=6, checkpoint_stride=1),
     "41458c5d2bb59b4abf7d98a96d0086d5ec5476eb5a557701bb8de3ef8c5ade0a",
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
        "24e12a1acd0016655addc45333c89967f26d1d2c698fc6297ded657ff42d229e")
