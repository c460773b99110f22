"""CLI surface: every subcommand drives its module and writes parseable output."""

import json

import pytest

from kremoval.cli import main


def test_run_writes_trace_and_summary(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    rc = main(["run", "--n", "10", "--k", "4", "--seed", "3",
               "--out", str(trace), "--summary", str(summary)])
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("i,p,edges,q_k,r_mean_m2")
    data = json.loads(summary.read_text())
    assert data["n"] == 10 and data["k"] == 4 and data["M"] is not None


def test_run_summary_to_stdout(capsys):
    rc = main(["run", "--n", "6", "--k", "4", "--seed", "1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["M"] == 1 and data["final_edges"] == 9


def test_run_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "k": 4, "seed": 5, "stop": "hitting_time"}))
    rc = main(["run", "--config", str(cfg), "--seed", "9"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 9 and data["n"] == 6


def test_sweep_deterministic_bytes(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["sweep", "--n", "8,10", "--k", "3", "--trials", "3",
            "--master-seed", "21"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert len(report["configs"]) == 2


def test_sweep_with_envelopes(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["sweep", "--n", "20", "--k", "4", "--trials", "2",
               "--master-seed", "3", "--stop", "p-floor", "--p-floor", "0.6",
               "--envelopes", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert "buckets" in report["configs"][0]["concentration"]


def test_verify_exit_code_and_report(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--max-n", "6", "--max-n-destroying", "5",
               "--ks", "3,4", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert {s["name"] for s in report["suites"]} >= {
        "one_step_drop_decomposition", "double_counting", "scalar_identities"}


def test_curves_csv(tmp_path):
    out = tmp_path / "curves.csv"
    rc = main(["curves", "--n", "100", "--k", "4", "--points", "12",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p,q_traj,q_upper,q_lower")
    assert len(lines) == 13


def test_report_text_and_json(tmp_path, capsys):
    rc = main(["report", "--n", "1000000", "--k", "4"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "tail-bound calculators" in text
    assert "increasing in m: True" in text

    out = tmp_path / "report.json"
    rc = main(["report", "--n", "1000000", "--k", "4", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["increasing_in_m"] is True
    assert data["horizon"]["vacuous_at_this_n"] is True


def test_gamma_flags_reach_params(tmp_path):
    out = tmp_path / "curves.csv"
    rc = main(["curves", "--n", "100", "--k", "4", "--points", "5",
               "--lambda", "2", "--mu", "3", "--gamma2", "1.5", "--gamma3", "1.25",
               "--out", str(out)])
    assert rc == 0


def test_unknown_stop_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--n", "6", "--k", "4", "--stop", "sideways"])


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unknown_config_keys_rejected(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "k": 4, "materialise_at": 0, "p_start": 0.8}))
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown config keys: materialise_at, p_start" in captured.err
