from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import socsamp as ss
from socsamp.cli import main as cli_main
from socsamp.harness import ConfigError, fmt, trial_config, write_trace

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return path


SMALL_CFG = """
[experiment]
agents = 4
opinions = 3
horizon = 300
replications = 3
master_seed = 4242
initial = samples:1,2,3,3
out_dir = {out}
stride = log
covariance = false
normality = false
connectivity_report = true
threads = 1

[network]
kind = complete

[sampling]
kind = direct

[schedule]
a = 1.0
gamma = 0.75
k0 = 0

[mixing]
b = 1.0
"""


def test_load_shipped_full_scale_config():
    cfg = ss.load_config(CONFIG_DIR / "consensus_n50.cfg")
    assert cfg.n_agents == 50
    assert cfg.n_opinions == 4
    assert cfg.schedule.exponent == 0.75
    assert cfg.replications == 1000
    assert cfg.policy.kind == "direct"
    np.testing.assert_array_equal(cfg.mixing.b_diag, np.ones(50))
    assert len(cfg.initial_samples) == 50
    assert all(1 <= x <= 4 for x in cfg.initial_samples)
    # the resolved draws follow the configured law, loosely
    hist = ss.empirical_distribution(cfg.initial_samples, 4)
    assert np.abs(hist - [0.2, 0.3, 0.4, 0.1]).max() < 0.25


def test_load_shipped_normality_config():
    cfg = ss.load_config(CONFIG_DIR / "normality_n5.cfg")
    assert cfg.n_agents == 5 and cfg.n_opinions == 3
    assert cfg.covariance and cfg.normality
    assert ss.spectral_gap(ss.mean_matrix(cfg.weight_model)) == pytest.approx(0.75)


def test_reject_schedule_exponent(tmp_path):
    text = SMALL_CFG.format(out=tmp_path).replace("gamma = 0.75", "gamma = 0.4")
    with pytest.raises(ConfigError, match="A1"):
        ss.load_config(write_cfg(tmp_path, text))


def test_reject_bad_column_sums(tmp_path):
    text = SMALL_CFG.format(out=tmp_path).replace(
        "kind = complete",
        "kind = fixed\nmatrix = 0.9,0.1,0,0, 0.2,0.8,0,0, 0,0,1,0, 0,0,0,1",
    )
    with pytest.raises(ConfigError, match="A2"):
        ss.load_config(write_cfg(tmp_path, text))


def test_reject_mixing_violation(tmp_path):
    text = SMALL_CFG.format(out=tmp_path).replace("b = 1.0", "b = 1.2")
    with pytest.raises(ConfigError, match="A4"):
        ss.load_config(write_cfg(tmp_path, text))


def test_reject_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ss.load_config(tmp_path / "nope.cfg")


def test_config_round_trip(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    path = tmp_path / "roundtrip.cfg"
    ss.save_config(cfg, path)
    again = ss.load_config(path)
    assert cfg == again
    assert ss.config_digest(cfg) == ss.config_digest(again)


def test_trial_seeds_are_stable():
    assert ss.derive_trial_seed(1, 0) == ss.derive_trial_seed(1, 0)
    assert ss.derive_trial_seed(1, 0) != ss.derive_trial_seed(1, 1)
    assert ss.derive_trial_seed(2, 0) != ss.derive_trial_seed(1, 0)


def test_run_experiment_outputs(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "r")))
    summary = ss.run_experiment(cfg)
    out = Path(summary.out_dir)
    assert (out / "summary.txt").exists()
    assert (out / "timing.txt").exists()
    for i in range(cfg.replications):
        assert (out / f"trace_{i}.csv").exists()
    header = (out / f"trace_0.csv").read_text().splitlines()[0]
    assert header == "k,agent,component,value"
    assert summary.passed
    assert "config_digest" in summary.summary_text


def test_run_experiment_determinism_and_trace_format(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "a")))
    s1 = ss.run_experiment(cfg)
    s2 = ss.run_experiment(cfg, out_dir=tmp_path / "b")
    assert s1.summary_text == s2.summary_text
    t1 = (tmp_path / "a" / "trace_1.csv").read_bytes()
    t2 = (tmp_path / "b" / "trace_1.csv").read_bytes()
    assert t1 == t2
    # 17 significant digit decimals in values
    line = t1.decode().splitlines()[1]
    value = line.split(",")[-1]
    assert value == fmt(float(value))


def test_null_config_constant_trace(tmp_path):
    text = SMALL_CFG.format(out=tmp_path / "null").replace(
        "kind = complete", "kind = fixed\nmatrix = 1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1"
    ).replace("replications = 3", "replications = 1").replace(
        "connectivity_report = true", "connectivity_report = false"
    )
    cfg = ss.load_config(write_cfg(tmp_path, text))
    summary = ss.run_experiment(cfg)
    assert summary.passed
    trace = (Path(summary.out_dir) / "trace_0.csv").read_text().splitlines()[1:]
    q0 = ss.initial_state(cfg.initial_samples, cfg.n_opinions).q
    for row in trace:
        k, agent, comp, value = row.split(",")
        assert float(value) == q0[int(agent) - 1, int(comp) - 1]


def test_replay_matches_original_checkpoints(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "r")))
    traces = ss.run_trials(cfg)
    rerun = ss.replay_trial(cfg, 1, stride="all")
    original = traces[1]
    lookup = dict(zip(rerun.checkpoints, rerun.snapshots))
    for k, snap in zip(original.checkpoints, original.snapshots):
        np.testing.assert_array_equal(lookup[k], snap)
    # no harness output reads the mean-increment series, so neither records it
    assert original.mean_increments is None and rerun.mean_increments is None


def test_replay_rejects_out_of_range(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    with pytest.raises(ConfigError, match="out of range"):
        ss.replay_trial(cfg, 7)


def test_trial_permutation_only_reorders_outputs(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    traces = {tc_i: ss.run_trials(replace(cfg, replications=3))[tc_i] for tc_i in range(3)}
    # running trial 2 alone reproduces the batch's trial 2
    solo = ss.run_trial(trial_config(cfg, 2))
    np.testing.assert_array_equal(solo.final_state.q, traces[2].final_state.q)


def test_audit_assumptions_pass_and_fail(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    results = {name: ok for name, ok, _ in ss.audit_assumptions(cfg)}
    assert results == {"A1": True, "A2": True, "A4": True}
    null_text = SMALL_CFG.format(out=tmp_path).replace(
        "kind = complete", "kind = fixed\nmatrix = 1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1"
    )
    null_cfg = ss.load_config(write_cfg(tmp_path, null_text))
    results = {name: ok for name, ok, _ in ss.audit_assumptions(null_cfg)}
    assert results["A2"] is False


# ----------------------------------------------------------------- cli


def test_cli_check(tmp_path, capsys):
    path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path))
    assert cli_main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "A1: pass" in out and "A2: pass" in out and "A4: pass" in out


def test_cli_check_fails_on_disconnected(tmp_path, capsys):
    text = SMALL_CFG.format(out=tmp_path).replace(
        "kind = complete", "kind = fixed\nmatrix = 1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1"
    )
    path = write_cfg(tmp_path, text)
    assert cli_main(["check", str(path)]) == 1
    assert "A2: FAIL" in capsys.readouterr().out


def test_cli_analyze(tmp_path, capsys):
    path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "an"))
    assert cli_main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "lambda2" in out
    report = (tmp_path / "an" / "report.txt").read_text()
    assert report.startswith("q_star = ")
    assert "s_tilde" in report


def test_cli_analyze_identity_weights_fails_stability(tmp_path, capsys):
    text = SMALL_CFG.format(out=tmp_path).replace(
        "kind = complete", "kind = fixed\nmatrix = 1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1"
    )
    path = write_cfg(tmp_path, text)
    assert cli_main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "stability condition failed" in err and "lambda2 = 1" in err


def test_cli_simulate_and_replay(tmp_path, capsys):
    path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "sim"))
    assert cli_main(["simulate", str(path)]) == 0
    assert cli_main(["replay", str(path), "--trial", "1", "--out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    original = (tmp_path / "sim" / "trace_1.csv").read_text().splitlines()[1:]
    replay = (tmp_path / "sim" / "replay_trial_1.csv").read_text().splitlines()[1:]
    replay_map = {}
    for row in replay:
        k, agent, comp, value = row.split(",")
        replay_map[(k, agent, comp)] = value
    for row in original:
        k, agent, comp, value = row.split(",")
        assert replay_map[(k, agent, comp)] == value


def test_cli_flag_overrides(tmp_path):
    path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "ignored"))
    out = tmp_path / "flagged"
    assert cli_main([
        "simulate", str(path), "--out", str(out), "--replications", "2",
        "--seed", "99", "--stride", "50,100",
    ]) == 0
    summary = (out / "summary.txt").read_text()
    assert "replications = 2" in summary
    assert "master_seed = 99" in summary
    assert "checkpoints = 50,100,300" in summary
    assert not (out / "trace_2.csv").exists()


def test_cli_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate", "x.cfg"])
    assert exc.value.code == 2


def test_cli_missing_config(capsys):
    assert cli_main(["check", "does_not_exist.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


def test_write_trace_layout(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    trace = ss.run_trial(trial_config(cfg, 0))
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    rows = path.read_text().splitlines()
    n_rows = len(trace.checkpoints) * cfg.n_agents * cfg.n_opinions
    assert len(rows) == n_rows + 1
    first = rows[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[2] == "1"
