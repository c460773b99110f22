"""Ensemble harness: determinism, aggregation, scoring, fitting."""

import json
import math

import pytest

from kremoval import ensemble
from kremoval.engine import RunConfig, run
from kremoval.ensemble import (
    concentration_score,
    exponent_fit,
    report_to_json,
    run_ensemble,
    trial_seed,
)
from kremoval.trajectory import TrajectoryParams


class TestDeterminism:
    def test_byte_identical_reports(self):
        grid = [RunConfig(n=10, k=4, seed=0), RunConfig(n=12, k=4, seed=0)]
        a = run_ensemble(grid, trials=4, master_seed=7)
        b = run_ensemble(grid, trials=4, master_seed=7)
        assert report_to_json(a) == report_to_json(b)

    def test_master_seed_changes_results(self):
        grid = [RunConfig(n=12, k=4, seed=0)]
        a = run_ensemble(grid, trials=4, master_seed=7)
        b = run_ensemble(grid, trials=4, master_seed=8)
        assert report_to_json(a) != report_to_json(b)

    def test_trial_seeds_distinct_and_stable(self):
        seeds = {trial_seed(5, g, t) for g in range(3) for t in range(50)}
        assert len(seeds) == 150
        assert trial_seed(5, 1, 2) == trial_seed(5, 1, 2)

    def test_parallel_matches_serial(self):
        grid = [RunConfig(n=10, k=3, seed=0)]
        a = run_ensemble(grid, trials=6, master_seed=3, jobs=1)
        b = run_ensemble(grid, trials=6, master_seed=3, jobs=2)
        assert report_to_json(a) == report_to_json(b)


class TestAggregation:
    def test_k6_grid(self):
        report = run_ensemble([RunConfig(n=6, k=4, seed=0)], trials=10, master_seed=1)
        cfg = report["configs"][0]
        assert all(s["M"] == 1 and s["final_edges"] == 9 for s in cfg["trial_summaries"])
        assert cfg["aggregate"]["mean_final_edges"] == 9.0
        assert cfg["aggregate"]["completed_to_M"] == 10

    def test_zero_trials_flagged(self):
        report = run_ensemble([RunConfig(n=6, k=4, seed=0)], trials=0, master_seed=1)
        assert report["configs"][0]["aggregate"]["undefined"]
        assert "error" in report["exponent_fit"]

    def test_json_round_trips(self):
        report = run_ensemble([RunConfig(n=8, k=3, seed=0)], trials=2, master_seed=2)
        parsed = json.loads(report_to_json(report))
        assert parsed["trials"] == 2


class TestExponentFit:
    def test_exact_power_law(self):
        data = {n: [float(n) ** 1.9] for n in (100, 200, 400, 800)}
        fit = exponent_fit(data)
        assert fit.slope == pytest.approx(1.9, abs=1e-9)
        assert fit.stderr == pytest.approx(0.0, abs=1e-9)

    def test_noisy_power_law(self):
        data = {n: [1.1 * n**1.5, 0.9 * n**1.5] for n in (100, 200, 400)}
        fit = exponent_fit(data)
        assert fit.slope == pytest.approx(1.5, abs=1e-6)
        lo, hi = fit.ci95
        assert lo <= fit.slope <= hi

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            exponent_fit({100: [5.0], 200: [7.0]})
        with pytest.raises(ValueError):
            exponent_fit({100: [5.0], 200: [7.0], 400: []})


class TestConcentrationScore:
    def test_empty_flagged(self):
        params = TrajectoryParams(k=4, n=50)
        assert "error" in concentration_score([], params)

    def test_initial_checkpoint_relative_deviation(self):
        # at i=0 the exact count is C(n,k) against the n^k/k! trajectory
        n = 100
        params = TrajectoryParams(k=4, n=n, p_floor=0.9)
        tr = run(RunConfig(n=n, k=4, seed=4, stop="p_floor", p_floor=0.95))
        score = concentration_score([tr], params)
        first = score["per_checkpoint"][0]
        expect = abs(math.comb(n, 4) * 24 / n**4 - 1)
        assert first["q_rel"] == pytest.approx(expect, rel=1e-9)
        assert expect == pytest.approx(0.058906, abs=1e-6)

    def test_mismatched_params_flagged(self):
        tr = run(RunConfig(n=12, k=4, seed=0))
        assert "error" in concentration_score([tr], TrajectoryParams(k=4, n=13))

    def test_buckets_and_rates(self):
        n = 60
        params = TrajectoryParams(k=4, n=n, p_floor=0.5)
        traces = [run(RunConfig(n=n, k=4, seed=s, stop="p_floor", p_floor=0.5))
                  for s in (1, 2)]
        score = concentration_score(traces, params)
        assert score["checkpoints"] > 0
        for cells in score["buckets"].values():
            for cell in cells.values():
                assert 0.0 <= cell["hit_rate"] <= 1.0
                assert cell["max_rel"] >= cell["mean_rel"] >= 0
                assert cell["max_rel_extreme"] >= cell["max_rel"]


class TestEnsembleScoring:
    def test_k4_report_includes_envelope_sections(self):
        params = TrajectoryParams(k=4, n=30, p_floor=0.5)
        grid = [RunConfig(n=30, k=4, seed=0, stop="p_floor", p_floor=0.5)]
        report = run_ensemble(grid, trials=3, master_seed=11, params=params)
        cfg = report["configs"][0]
        assert "buckets" in cfg["concentration"]
        assert "per_checkpoint" not in cfg["concentration"]
        assert set(cfg["max_residuals"]) == {"U", "L", "Z"}
        assert cfg["fitted_claim_constants"]["q_one_step_drop"] > 0

    def test_k3_skips_envelopes(self):
        report = run_ensemble([RunConfig(n=12, k=3, seed=0)], trials=2, master_seed=4)
        assert "skipped" in report["configs"][0]["concentration"]

    def test_invalid_config_raises_up_front(self):
        bad = RunConfig(n=6, k=4, seed=0, stop="p_floor", p_floor=2.0)
        with pytest.raises(ValueError):
            run_ensemble([bad], trials=1, master_seed=0)
        with pytest.raises(ValueError, match="panel_sizes"):
            run_ensemble([RunConfig(n=12, k=4, seed=0, panel_sizes={5: 3})], trials=1, master_seed=0)

    def test_per_trial_errors_recorded_not_fatal(self, monkeypatch):
        failing = trial_seed(9, 0, 1)

        def run_or_fail(cfg):
            if cfg.seed == failing:
                raise ZeroDivisionError("planted failure")
            return run(cfg)

        monkeypatch.setattr(ensemble, "run", run_or_fail)
        report = run_ensemble([RunConfig(n=8, k=3, seed=0)], trials=3, master_seed=9)
        cfg = report["configs"][0]
        assert cfg["errors"] == [{"trial": 1, "seed": failing,
                                  "type": "ZeroDivisionError", "error": "planted failure"}]
        assert [s["trial"] for s in cfg["trial_summaries"]] == [0, 2]
        json.loads(report_to_json(report))
