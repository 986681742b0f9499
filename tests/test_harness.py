import dataclasses
import gc
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import socsamp as ss
import socsamp.cli as cli
import socsamp.harness as harness
from socsamp.cli import main as cli_main
from socsamp.harness import ConfigError, fmt, fmt_vector, write_trace

from oracles import (
    dense_asymptotic_covariance,
    reference_fmt_vector,
    reference_trace_text,
)

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
    np.testing.assert_array_equal(cfg.b, np.ones(50))
    assert not cfg.b.flags.writeable
    assert len(cfg.initial_samples) == 50
    assert all(1 <= x <= 4 for x in cfg.initial_samples)
    # the resolved draws follow the configured law, loosely
    hist = ss.network_average(ss.initial_state(cfg.initial_samples, 4))
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


# one case per check of ExperimentConfig.__post_init__: (field updates,
# expected message)
STRIDE_MESSAGE = r"experiment.stride: checkpoints must lie in 0\.\.horizon"
INVALID_FIELDS = {
    "no agents": ({"n_agents": 0}, "agents and opinions must be positive"),
    "no opinions": ({"n_opinions": 0}, "agents and opinions must be positive"),
    "no replications": ({"replications": 0}, "replications: must be at least 1"),
    "no steps": ({"horizon": 0}, "horizon: must be at least 1"),
    "short samples": ({"initial_samples": (1, 2, 3)}, "got 3 samples for 4 agents"),
    "sample too high": ({"initial_samples": (1, 2, 3, 4)}, r"sample 3 out of range 1\.\.3"),
    "sample zero": ({"initial_samples": (0, 2, 3, 3)}, r"sample 0 out of range 1\.\.3"),
    "weight model size": (
        {"weight_model": ss.fixed_model(ss.metropolis_complete(5))},
        "weight model has 5 agents, expected 4",
    ),
    "mixing size": ({"b": np.ones(3)}, "mixing.b: expected 1 or 4 values, got 3"),
    "no b": ({"b": []}, "mixing.b: expected 1 or 4 values, got 0"),
    "negative b": (
        {"b": [1.0, -0.5, 1.0, 1.0]},
        r"mixing\.b: A4 violated: b_ii must lie in \[0, 1\], got -0\.5 at i=2",
    ),
    "nan b": ({"b": np.nan}, r"mixing\.b: A4 violated: .*got nan at i=1"),
    "stride past horizon": ({"stride": (0, 50, 9999)}, STRIDE_MESSAGE),
    "negative stride": ({"stride": (-1,)}, STRIDE_MESSAGE),
    # the stride is checked again when only the horizon changes
    "horizon below stride": ({"stride": (50, 100), "horizon": 80}, STRIDE_MESSAGE),
    "no threads": ({"threads": 0}, "experiment.threads: must be at least 1"),
    "negative threads": ({"threads": -2}, "experiment.threads: must be at least 1"),
    "covariance at a vertex": (
        {"initial_samples": (2, 2, 2, 2), "covariance": True},
        r"experiment\.covariance: every initial sample is 2, so the limit q\* is "
        "a vertex",
    ),
    "normality at a vertex": (
        {"initial_samples": (3, 3, 3, 3), "normality": True},
        r"experiment\.normality: every initial sample is 3,",
    ),
    "covariance with censoring of order the step size": (
        {"covariance": True,
         "policy": ss.SamplingPolicy("censored", censor_floor_scale=0.5, censor_exponent=1.0)},
        r"experiment\.covariance: censored sampling with exponent 1 < 2 ",
    ),
    "normality with censoring below exponent 2": (
        {"normality": True,
         "policy": ss.SamplingPolicy("censored", censor_floor_scale=0.5, censor_exponent=1.5)},
        r"experiment\.normality: censored sampling with exponent 1\.5 < 2 ",
    ),
    "normality with every b_ii 0": (
        {"normality": True, "b": 0.0},
        r"experiment\.normality: every b_ii is 0, ",
    ),
    "covariance with an unstable mean network": (
        {"covariance": True, "weight_model": ss.fixed_model(np.eye(4))},
        r"experiment\.covariance: asymptotic-normality stability condition failed: "
        r"lambda2 = 1 is not below 1 - delta/2 = 1",
    ),
    "normality at a = 0.5 and gamma 1": (
        {"normality": True, "schedule": ss.StepSchedule(0.5, 1.0, 0)},
        r"experiment\.normality: asymptotic-normality stability condition failed: "
        r"lambda2 = .* is not below 1 - delta/2 = 0",
    ),
    "normality at gamma 1 with b below 1": (
        {"normality": True, "b": [1.0, 0.6, 1.0, 1.0],
         "schedule": ss.StepSchedule(1.0, 1.0, 0)},
        r"experiment\.normality: gamma = 1 with b_ii = 0\.6 at i=2, ",
    ),
    "nan covariance threshold": (
        {"max_cov_rel_error": np.nan},
        "experiment.max_cov_rel_error: must be finite and nonnegative",
    ),
    "nan normality threshold": (
        {"min_normality_pass": np.nan},
        r"experiment\.min_normality_pass: must lie in \[0, 1\]",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_FIELDS))
def test_experiment_config_refuses_invalid_fields(tmp_path, case):
    # direct construction and replace() run the same checks
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    updates, message = INVALID_FIELDS[case]
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    with pytest.raises(ConfigError, match=message):
        ss.ExperimentConfig(**{**fields, **updates})
    with pytest.raises(ConfigError, match=message):
        replace(cfg, **updates)


THEORY_NETWORKS = {
    "complete": lambda n: ss.fixed_model(ss.metropolis_complete(n)),
    "identity": lambda n: ss.fixed_model(np.eye(n)),
    "birkhoff": lambda n: ss.birkhoff_model(n, (0.4, 0.3, 0.3)),
}


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("a, gamma", [(1.0, 0.75), (1.0, 1.0), (0.5, 1.0), (2.0, 1.0)])
@pytest.mark.parametrize("network", sorted(THEORY_NETWORKS))
def test_theory_config_is_refused_before_its_trials_or_gets_its_report(
    tmp_path, network, a, gamma, trials
):
    # every precondition of the prediction is checked before the first
    # trial: a config with both checks on is refused at construction (an
    # unstable mean network: lambda2 = 1 for the identity, and
    # 1 - delta/2 = 0 at a = 0.5, gamma = 1), or its run is refused before
    # it writes anything (one trial), or the report of its final states
    # exists
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "out")))
    updates = {
        "weight_model": THEORY_NETWORKS[network](cfg.n_agents), "replications": trials,
        "schedule": ss.StepSchedule(a, gamma, 0), "covariance": True, "normality": True,
    }
    if network == "identity" or (a, gamma) == (0.5, 1.0):
        with pytest.raises(ConfigError, match="stability condition failed"):
            replace(cfg, **updates)
        return
    cfg = replace(cfg, **updates)
    if trials < 2:
        with pytest.raises(ConfigError, match="need at least two trials"):
            ss.run_experiment(cfg)
        assert not (tmp_path / "out").exists()
        return
    rng = np.random.default_rng(5)
    final_states = rng.dirichlet(np.ones(cfg.n_opinions), size=(trials, cfg.n_agents))
    report = harness.theory_report(cfg, final_states)
    assert np.isfinite(report.cov_rel_error)
    assert np.isfinite(report.normality_pass_fraction)


@pytest.mark.parametrize(
    "updates",
    [{"b": 0.0}, {"b": [1.0, 0.6, 1.0, 1.0], "schedule": ss.StepSchedule(1.0, 1.0, 0)}],
    ids=["b-0", "gamma-1-b-below-1"],
)
def test_covariance_check_alone_stays_accepted(tmp_path, updates):
    # the normality refusals leave the covariance check, whose error is at
    # the Monte Carlo floor in both cases
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    assert replace(cfg, covariance=True, **updates).covariance


# the configs the benchmark runs, and those shipped beside them
BENCHMARK_CONFIGS = sorted(
    [*CONFIG_DIR.glob("*.cfg"), *(CONFIG_DIR.parent / "perfbench" / "configs").glob("*.cfg")]
)


def test_benchmark_configs_are_all_found():
    assert sorted(p.name for p in BENCHMARK_CONFIGS) == [
        "analyze_n150.cfg", "consensus_n50.cfg", "normality_n5.cfg",
        "random_censored.cfg",
    ]


@pytest.mark.parametrize("path", BENCHMARK_CONFIGS, ids=lambda p: p.name)
def test_benchmark_configs_load_and_pass_check(path, capsys):
    ss.load_config(path)
    assert cli_main(["check", str(path)]) == 0


def test_analyze_n150_meets_the_benchmark_gate(tmp_path, capsys):
    # the benchmark's analyze workload gates on the Lyapunov residual
    path = CONFIG_DIR.parent / "perfbench" / "configs" / "analyze_n150.cfg"
    assert cli_main(["analyze", str(path), "--out", str(tmp_path)]) == 0
    report = dict(
        line.split(" = ", 1) for line in (tmp_path / "report.txt").read_text().splitlines()
    )
    assert float(report["lyapunov_residual"]) <= 1e-10


@pytest.mark.parametrize("m", [3, 4, 6, 7])
def test_default_initial_is_the_uniform_law(tmp_path, m):
    # no initial key draws as random: with 1/M for every opinion; for M = 4
    # that is random:0.25,0.25,0.25,0.25
    text = SMALL_CFG.format(out=tmp_path).replace("opinions = 3", f"opinions = {m}")
    default = ss.load_config(
        write_cfg(tmp_path, text.replace("initial = samples:1,2,3,3\n", ""))
    )
    uniform = "random:" + ",".join([repr(1.0 / m)] * m)
    spelled = ss.load_config(
        write_cfg(tmp_path, text.replace("samples:1,2,3,3", uniform))
    )
    assert default.initial_samples == spelled.initial_samples
    assert len(default.initial_samples) == 4


def test_reject_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ss.load_config(tmp_path / "nope.cfg")


ROUND_TRIP_CFG = """
[experiment]
agents = 4
opinions = 3
horizon = 300
replications = 7
master_seed = 99
initial = samples:1,2,3,3
out_dir = {out}
stride = 1,5,10
covariance = true
normality = true
connectivity_report = false
threads = 3
max_cov_rel_error = 0.35
min_normality_pass = 0.75

[network]
kind = birkhoff-random
mixing = 0.5,0.3,0.2
tau = 1e-3
window = 2

[sampling]
kind = censored
c = 0.3
exponent = 2.5
renormalize = false

[schedule]
a = 0.8
gamma = 0.9
k0 = 2

[mixing]
b = 0.7,0.6,1.0,0.9
"""


def test_config_round_trip(tmp_path):
    # every field is compared on its own: ``==`` compares the serialized
    # text, so it cannot see a field that the serializer drops
    cfg = ss.load_config(write_cfg(tmp_path, ROUND_TRIP_CFG.format(out=tmp_path)))
    for f in dataclasses.fields(cfg):
        if f.default is not dataclasses.MISSING:
            assert getattr(cfg, f.name) != f.default, f"{f.name} left at its default"
    path = tmp_path / "roundtrip.cfg"
    path.write_text(harness.serialize_config(cfg), encoding="utf-8")
    again = ss.load_config(path)
    for f in dataclasses.fields(cfg):
        got, want = getattr(again, f.name), getattr(cfg, f.name)
        if dataclasses.is_dataclass(want):
            for g in dataclasses.fields(want):
                np.testing.assert_array_equal(
                    getattr(got, g.name), getattr(want, g.name),
                    err_msg=f"{f.name}.{g.name}",
                )
        elif isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want, err_msg=f.name)
        else:
            assert got == want, f.name
    assert cfg == again
    assert ss.config_digest(cfg) == ss.config_digest(again)


# configs of the other network kinds, and one that gives only the keys
# without a default, with the digests recorded before the loader read its
# keys from one table
IID_CFG = """
[experiment]
agents = 4
opinions = 3
horizon = 300
replications = 5
master_seed = 17
initial = random:0.5,0.25,0.25
stride = 0,10,300

[network]
kind = iid-finite-support
support = 1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1 ;
  0.5,0.5,0,0, 0.5,0.5,0,0, 0,0,0.5,0.5, 0,0,0.5,0.5 ;
  0.5,0,0,0.5, 0,0.5,0.5,0, 0,0.5,0.5,0, 0.5,0,0,0.5
probabilities = 0.2,0.5,0.3
tau = 1e-3

[sampling]
kind = censored
c = 0.25

[mixing]
b = 0.9
"""

SWITCHING_CFG = """
[experiment]
agents = 4
opinions = 3
horizon = 300
initial = samples:1,2,3,1
connectivity_report = false

[network]
kind = switching-periodic
support = 0.5,0.5,0,0, 0.5,0.5,0,0, 0,0,0.5,0.5, 0,0,0.5,0.5 ;
  0.5,0,0,0.5, 0,0.5,0.5,0, 0,0.5,0.5,0, 0.5,0,0,0.5
window = 1

[schedule]
gamma = 1.0
k0 = 3
"""

MINIMAL_CFG = """
[experiment]
agents = 4
opinions = 3
horizon = 300
"""

RECORDED_DIGESTS = {
    "iid": (IID_CFG, "910610ffd8e564101e3196430ad48926bffec6f2cd69004aca61711a5a642cef"),
    "switching": (
        SWITCHING_CFG, "4a5c4dc922300270a0f2b0172bc9892d9071d3b84448971b3898b32e5e87fd8d"
    ),
    "minimal": (
        MINIMAL_CFG, "c857d53c0639abcc23f05424a06f022f63c9b350794dc836c40f879d9214b169"
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_DIGESTS))
def test_config_digest_matches_recorded_and_round_trips(tmp_path, name):
    text, digest = RECORDED_DIGESTS[name]
    cfg = ss.load_config(write_cfg(tmp_path, text))
    assert ss.config_digest(cfg) == digest
    path = tmp_path / "roundtrip.cfg"
    path.write_text(harness.serialize_config(cfg), encoding="utf-8")
    again = ss.load_config(path)
    assert harness.serialize_config(again) == harness.serialize_config(cfg)
    assert ss.config_digest(again) == digest


def readme_key_table():
    """(key, default) of each row of README's table of config keys."""
    text = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return [
        tuple(cell.strip() for cell in line.strip("|").split("|")[:2])
        for line in section.splitlines()
        if line.startswith("| `")
    ]


def test_readme_key_table_matches_the_loader(tmp_path):
    rows = readme_key_table()
    assert [key.strip("`") for key, _ in rows] == [
        f"{section}.{key}" for section, keys in harness._KEYS.items() for key in keys
    ]
    assert [key for key, default in rows if default == "none"] == [
        "`experiment.agents`", "`experiment.opinions`", "`experiment.horizon`",
    ]
    # a file that spells out every default in the table loads as one that
    # gives only the keys without one
    spelled = {"experiment": ["agents = 4", "opinions = 3", "horizon = 300"]}
    for key, default in rows:
        section, name = key.strip("`").split(".")
        _, _, *kinds = harness._KEYS[section][name]
        if kinds:
            assert re.findall(r"`([^`]+)`", default) == kinds, key
        elif re.fullmatch(r"`[^`]+`", default):
            spelled.setdefault(section, []).append(f"{name} = {default.strip('`')}")
        else:
            assert default in ("none", "uniform law"), key
    text = "".join(
        f"[{section}]\n" + "\n".join(lines) + "\n\n" for section, lines in spelled.items()
    )
    path = tmp_path / "spelled.cfg"
    path.write_text(text, encoding="utf-8")
    assert harness.serialize_config(ss.load_config(path)) == harness.serialize_config(
        ss.load_config(write_cfg(tmp_path, MINIMAL_CFG))
    )


def test_trial_seeds_are_stable():
    assert ss.derive_trial_seed(1, 0) == ss.derive_trial_seed(1, 0)
    assert ss.derive_trial_seed(1, 0) != ss.derive_trial_seed(1, 1)
    assert ss.derive_trial_seed(2, 0) != ss.derive_trial_seed(1, 0)


def test_run_experiment_outputs(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "r")))
    summary = ss.run_experiment(cfg)
    out = Path(summary.out_dir)
    assert (out / "summary.txt").exists()
    timing = (out / "timing.txt").read_text().splitlines()
    assert [line.split(" = ")[0] for line in timing] == [
        "wall_clock_seconds", "trials_seconds", "kernel_seconds",
        "trace_write_seconds", "join_seconds", "audit_seconds", "theory_seconds",
        "outputs_seconds",
    ]
    seconds = dict(line.split(" = ") for line in timing)
    assert all(float(t) >= 0.0 for t in seconds.values())
    # one worker steps and writes inside the trials phase
    assert float(seconds["kernel_seconds"]) + float(
        seconds["trace_write_seconds"]
    ) <= float(seconds["trials_seconds"]) + 0.002
    # one trace file, and no part file left beside it
    assert sorted(p.name for p in out.iterdir()) == [
        "summary.txt", "timing.txt", "traces.csv",
    ]
    rows = (out / "traces.csv").read_text().splitlines()
    assert rows[0] == "trial,k,agent,component,value"
    assert {row.split(",")[0] for row in rows[1:]} == {"0", "1", "2"}
    assert summary.passed
    assert "config_digest" in summary.summary_text


def test_run_experiment_determinism_and_trace_format(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "a")))
    s1 = ss.run_experiment(cfg)
    s2 = ss.run_experiment(replace(cfg, out_dir=str(tmp_path / "b")))
    assert s1.summary_text == s2.summary_text
    t1 = (tmp_path / "a" / "traces.csv").read_bytes()
    t2 = (tmp_path / "b" / "traces.csv").read_bytes()
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
    trace = (Path(summary.out_dir) / "traces.csv").read_text().splitlines()[1:]
    q0 = ss.initial_state(cfg.initial_samples, cfg.n_opinions)
    for row in trace:
        trial, k, agent, comp, value = row.split(",")
        assert trial == "0"
        assert float(value) == q0[int(agent) - 1, int(comp) - 1]


def test_replay_matches_original_checkpoints(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "r")))
    results = ss.run_trials(cfg)
    harness.join_traces(cfg)
    rerun = ss.replay_trial(replace(cfg, stride="all"), 1)
    lookup = dict(zip(rerun.checkpoints, rerun.snapshots[0]))
    # the run keeps no snapshots, so compare with trial 1's rows of the
    # traces it wrote; %.17g round-trips, so the comparison stays exact
    rows = [
        row.split(",", 1)[1]
        for row in (tmp_path / "r" / "traces.csv").read_text().splitlines()[1:]
        if row.startswith("1,")
    ]
    assert len(rows) == len(results.checkpoints) * cfg.n_agents * cfg.n_opinions
    assert {int(row.split(",")[0]) for row in rows} == set(results.checkpoints)
    for row in rows:
        k, agent, comp, value = row.split(",")
        assert float(value) == lookup[int(k)][int(agent) - 1, int(comp) - 1]


@pytest.mark.parametrize("threads", [1, 2])
def test_run_trials_writes_traces_and_keeps_no_snapshots(tmp_path, threads):
    # the chunks write the traces; the parent gets the consensus errors,
    # diagnostics and final states, and no snapshot arrays
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "r")))
    cfg = replace(cfg, threads=threads)
    results = ss.run_trials(cfg)
    harness.join_traces(cfg)
    trials = [(i, ss.derive_trial_seed(cfg.master_seed, i)) for i in range(3)]
    full = ss.run_chunk(cfg, trials)
    assert results.trial_indices.tolist() == [0, 1, 2]
    assert results.snapshots is None
    # the arrays returned are the per-trial rows the parent reads
    assert {k for k, v in vars(results).items() if isinstance(v, np.ndarray)} == {
        "trial_indices", "consensus_errors", "final_states",
    }
    assert results.checkpoints == full.checkpoints
    for name in ("trial_indices", "consensus_errors", "final_states"):
        np.testing.assert_array_equal(
            getattr(results, name), getattr(full, name), err_msg=name, strict=True
        )
    assert list(results.diagnostics) == list(full.diagnostics)
    for name, values in full.diagnostics.items():
        np.testing.assert_array_equal(
            results.diagnostics[name], values, err_msg=name, strict=True
        )
    # each chunk timed its stepping and its trace writing
    assert results.kernel_seconds > 0.0 and results.trace_write_seconds > 0.0
    written = (tmp_path / "r" / "traces.csv").read_text()
    assert written == reference_trace_text(full)
    assert [p.name for p in (tmp_path / "r").iterdir()] == ["traces.csv"]


@pytest.mark.parametrize("threads", [1, 2])
def test_aborted_run_leaves_no_output_files(tmp_path, monkeypatch, threads):
    # one trial per chunk, and only the last chunk aborts: the chunks before
    # it have written their part files, which the run must delete
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "out")))
    cfg = replace(cfg, threads=threads)
    monkeypatch.setattr(harness, "CHUNK_ROWS", cfg.n_agents)
    ss.run_experiment(replace(cfg, out_dir=str(tmp_path / "earlier")))
    earlier = (tmp_path / "earlier" / "traces.csv").read_bytes()
    last = cfg.replications - 1
    stepped = harness.run_chunk

    def run_chunk(cfg, trials):
        index, seed = trials[-1]
        if index == last:
            raise ss.TrialAborted(2, {}, index, seed)
        return stepped(cfg, trials)

    monkeypatch.setattr(harness, "run_chunk", run_chunk)
    with pytest.raises(ss.TrialAborted, match=rf"^trial {last} \(seed "):
        ss.run_experiment(cfg)
    assert list((tmp_path / "out").iterdir()) == []
    # the traces of an earlier complete run are replaced only by a complete run
    with pytest.raises(ss.TrialAborted):
        ss.run_experiment(replace(cfg, out_dir=str(tmp_path / "earlier")))
    assert sorted(p.name for p in (tmp_path / "earlier").iterdir()) == [
        "summary.txt", "timing.txt", "traces.csv",
    ]
    assert (tmp_path / "earlier" / "traces.csv").read_bytes() == earlier


def test_rerun_into_the_same_directory_leaves_no_stale_trace_bytes(tmp_path, monkeypatch):
    # a rerun replaces traces.csv whole: the longer file of an earlier run
    # leaves no bytes behind, and the file is the one a fresh directory gets
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "out")))
    cfg = replace(cfg, threads=2, replications=6)
    monkeypatch.setattr(harness, "CHUNK_ROWS", 2 * cfg.n_agents)
    ss.run_experiment(replace(cfg, horizon=500))
    ss.run_experiment(replace(cfg, horizon=50))
    ss.run_experiment(replace(cfg, horizon=50, out_dir=str(tmp_path / "fresh")))
    assert (tmp_path / "out" / "traces.csv").read_bytes() == (
        tmp_path / "fresh" / "traces.csv"
    ).read_bytes()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "summary.txt", "timing.txt", "traces.csv",
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_rerun_with_fewer_trials_leaves_only_its_traces(tmp_path, monkeypatch, threads):
    # a rerun replaces traces.csv whole: the rows of trials 3-5 of the first
    # run are gone, on the serial and on the pool path, and the file is the
    # one a fresh directory gets
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "out")))
    cfg = replace(cfg, threads=threads, horizon=50)
    monkeypatch.setattr(harness, "CHUNK_ROWS", 2 * cfg.n_agents)
    ss.run_experiment(replace(cfg, replications=6))
    ss.run_experiment(replace(cfg, replications=3))
    ss.run_experiment(replace(cfg, replications=3, out_dir=str(tmp_path / "fresh")))
    rows = (tmp_path / "out" / "traces.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"0", "1", "2"}
    assert (tmp_path / "out" / "traces.csv").read_bytes() == (
        tmp_path / "fresh" / "traces.csv"
    ).read_bytes()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "summary.txt", "timing.txt", "traces.csv",
    ]


def test_traces_do_not_depend_on_workers_or_chunk_size(tmp_path, monkeypatch):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    cfg = replace(cfg, replications=5, horizon=100)
    written = {}
    for rows in (harness.CHUNK_ROWS, cfg.n_agents):  # one trial per chunk
        monkeypatch.setattr(harness, "CHUNK_ROWS", rows)
        for threads in (1, 2):
            out = tmp_path / f"{rows}_{threads}"
            ss.run_experiment(replace(cfg, threads=threads, out_dir=str(out)))
            written[rows, threads] = (out / "traces.csv").read_bytes()
    assert len(set(written.values())) == 1


def test_run_trials_starts_no_more_workers_than_chunks(tmp_path, monkeypatch):
    # two trials make two chunks; a forked pool of four workers would start
    # all four at the first submit
    started, spawned = [], []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

        def _spawn_process(self):  # each worker process the pool starts
            spawned.append(1)
            super()._spawn_process()

    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "r")))
    cfg = replace(cfg, replications=2, threads=4)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    assert ss.run_trials(cfg).trial_indices.tolist() == [0, 1]
    assert started == [2]
    assert 1 <= len(spawned) <= 2


def test_replay_rejects_out_of_range(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    with pytest.raises(ConfigError, match="out of range"):
        ss.replay_trial(cfg, 7)


def test_trial_permutation_only_reorders_outputs(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    results = ss.run_trials(replace(cfg, replications=3))
    # running trial 2 alone reproduces the batch's trial 2
    solo = ss.run_chunk(cfg, [(2, ss.derive_trial_seed(cfg.master_seed, 2))])
    np.testing.assert_array_equal(solo.final_states[0], results.final_states[2])


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
    # tau bounds each step's mean, not the period's: each step mixes one pair
    # at 1e-3, which the period halves
    switching_text = SMALL_CFG.format(out=tmp_path).replace(
        "agents = 4", "agents = 3"
    ).replace("samples:1,2,3,3", "samples:1,2,3").replace(
        "kind = complete",
        "kind = switching-periodic\n"
        "support = 0.999,0.001,0, 0.001,0.999,0, 0,0,1 ;"
        " 1,0,0, 0,0.999,0.001, 0,0.001,0.999\n"
        "tau = 1e-3\nwindow = 1",
    )
    switching_cfg = ss.load_config(write_cfg(tmp_path, switching_text))
    audit = {name: (ok, detail) for name, ok, detail in ss.audit_assumptions(switching_cfg)}
    assert audit["A2"] == (
        True, "doubly stochastic support; min nonzero mean weight 0.001 vs tau 0.001; "
        "jointly connected (window 1)",
    )


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
    assert "\nx_tilde = " in report


def read_report(path):
    """``report.txt`` as scalars and matrices, rebuilt from its shape lines."""
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    mats = {}
    for key in values:
        if key.endswith("_shape"):
            name = key[: -len("_shape")]
            shape = tuple(int(v) for v in values[key].split(","))
            mats[name] = np.array(values[name].split(","), dtype=float).reshape(shape)
    return values, mats


def test_cli_analyze_report_rebuilds_dense_covariance(tmp_path, capsys):
    path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "an"))
    assert cli_main(["analyze", str(path)]) == 0
    capsys.readouterr()
    values, mats = read_report(tmp_path / "an" / "report.txt")
    assert list(values)[:8] == [
        "q_star", "lambda2", "delta", "stability_margin", "lyapunov_residual",
        "cov_rel_error", "normality_pass_fraction", "kronecker_factors",
    ]
    assert values["kronecker_factors"] == (
        "sigma = kron(I_N, c); s0 = kron(g, c); s = kron(x, c); "
        "s_tilde = kron(x_tilde, c)"
    )
    assert list(mats) == ["c", "g", "x", "x_tilde"]
    cfg = ss.load_config(path)
    q_star = np.array(values["q_star"].split(","), dtype=float)
    dense = dense_asymptotic_covariance(
        ss.mean_matrix(cfg.weight_model), q_star, float(values["delta"])
    )
    c = mats["c"]
    for name, factor in (("s0", "g"), ("s", "x"), ("s_tilde", "x_tilde")):
        rebuilt = np.kron(mats[factor], c)
        err = np.linalg.norm(rebuilt - dense[name]) / np.linalg.norm(dense[name])
        assert err <= 1e-12, name
    np.testing.assert_array_equal(np.kron(np.eye(cfg.n_agents), c), dense["sigma"])


def test_cli_analyze_single_agent_reports_failure(tmp_path, capsys):
    text = SMALL_CFG.format(out=tmp_path / "an").replace(
        "agents = 4", "agents = 1"
    ).replace("samples:1,2,3,3", "samples:2")
    path = write_cfg(tmp_path, text)
    assert cli_main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("analysis failed: ") and "two agents" in err
    assert not (tmp_path / "an" / "report.txt").exists()


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
    original = (tmp_path / "sim" / "traces.csv").read_text().splitlines()
    replay = (tmp_path / "sim" / "replay_trial_1.csv").read_text().splitlines()
    assert replay[0] == original[0] == "trial,k,agent,component,value"
    replay_map = {}
    for row in replay[1:]:
        trial, k, agent, comp, value = row.split(",")
        assert trial == "1"
        replay_map[(k, agent, comp)] = value
    ones = [row for row in original[1:] if row.startswith("1,")]
    assert ones
    for row in ones:
        trial, k, agent, comp, value = row.split(",")
        assert replay_map[(k, agent, comp)] == value


def test_cli_replay_stride(tmp_path, capsys):
    # replay is dense unless --stride names the checkpoints
    path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "rep"))
    written = {}
    for flags in ([], ["--stride", "50,100"]):
        assert cli_main(["replay", str(path), "--trial", "0", *flags]) == 0
        rows = (tmp_path / "rep" / "replay_trial_0.csv").read_text().splitlines()[1:]
        written[bool(flags)] = {int(row.split(",")[1]) for row in rows}
    capsys.readouterr()
    assert written[False] == set(range(301))
    assert written[True] == {50, 100, 300}


def test_cli_flag_overrides(tmp_path):
    path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "ignored"))
    # a flag's text is not interpolated, as a file's value would be
    out = tmp_path / "flag%ged"
    assert cli_main([
        "simulate", str(path), "--out", str(out), "--replications", "2",
        "--seed", "99", "--stride", "50,100",
    ]) == 0
    summary = (out / "summary.txt").read_text()
    assert "replications = 2" in summary
    assert "master_seed = 99" in summary
    assert "checkpoints = 50,100,300" in summary
    rows = (out / "traces.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"0", "1"}


@pytest.mark.parametrize(
    "command, flags",
    [("check", []),
     ("simulate", ["--seed", "7", "--replications", "2", "--out", "{out}",
                   "--threads", "1", "--stride", "50,100"]),
     ("analyze", ["--out", "{out}"]),
     ("replay", ["--trial", "1", "--out", "{out}"]),
     ("replay", ["--trial", "1", "--out", "{out}", "--stride", "50"])],
    ids=["check", "simulate-all-flags", "analyze", "replay", "replay-stride"],
)
def test_cli_builds_its_config_once(tmp_path, monkeypatch, capsys, command, flags):
    constructions = []
    post_init = harness.ExperimentConfig.__post_init__

    def counting_post_init(self):
        constructions.append(self)
        post_init(self)

    monkeypatch.setattr(harness.ExperimentConfig, "__post_init__", counting_post_init)
    text = SMALL_CFG.format(out=tmp_path / "out").replace(
        "covariance = false", "covariance = true"
    )
    path = write_cfg(tmp_path, text)
    flags = [flag.format(out=tmp_path / "flagged") for flag in flags]
    # a covariance check at two trials may miss its threshold
    assert cli_main([command, str(path), *flags]) in (0, 1)
    capsys.readouterr()
    assert len(constructions) == 1


def test_cli_seed_redraws_random_initial_opinions(tmp_path, capsys):
    # --seed stands in for the file's master_seed, so random: initial
    # opinions are drawn from it and the run is that of a copy of the file
    # with that seed
    text = (CONFIG_DIR / "consensus_n50.cfg").read_text(encoding="utf-8")
    text = text.replace("horizon = 20000", "horizon = 200")
    original = write_cfg(tmp_path, text)
    reseeded = tmp_path / "reseeded.cfg"
    reseeded.write_text(
        text.replace("master_seed = 20230917", "master_seed = 5"), encoding="utf-8"
    )
    assert ss.load_config(reseeded).initial_samples != ss.load_config(original).initial_samples
    assert ss.load_config(original, {"master_seed": "5"}) == ss.load_config(reseeded)
    with pytest.raises(ConfigError, match="experiment.seed: unknown key"):
        ss.load_config(original, {"seed": "5"})
    common = ["--replications", "2", "--stride", "100"]
    assert cli_main(
        ["simulate", str(original), "--seed", "5", "--out", str(tmp_path / "flag"), *common]
    ) == 0
    assert cli_main(
        ["simulate", str(reseeded), "--out", str(tmp_path / "copy"), *common]
    ) == 0
    capsys.readouterr()
    assert (tmp_path / "flag" / "summary.txt").read_bytes() == (
        tmp_path / "copy" / "summary.txt"
    ).read_bytes()


def test_cli_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate", "x.cfg"])
    assert exc.value.code == 2


def test_cli_missing_config(capsys):
    assert cli_main(["check", "does_not_exist.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


IDENTITY_4 = "1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1"

# a = 0.5 at gamma = 1 asks lambda2 < 1 - delta/2 = 0, which no mean network
# meets
UNSTABLE = {
    "covariance = false": "covariance = true", "a = 1.0": "a = 0.5", "gamma = 0.75": "gamma = 1",
}

# N=3, a=1e200, gamma=0.51, b=0.5: the estimates overflow at step 2
DIVERGING = {
    "agents = 4": "agents = 3", "samples:1,2,3,3": "samples:1,2,2",
    "a = 1.0": "a = 1e200", "gamma = 0.75": "gamma = 0.51", "b = 1.0": "b = 0.5",
}


@pytest.mark.parametrize(
    "command,edits,flags,prefix",
    [
        ("simulate", None, ["--replications", "0"],
         "config error: experiment.replications: must be at least 1"),
        ("simulate", None, ["--stride", "0,50,9999"],
         "config error: experiment.stride: checkpoints must lie in 0..horizon"),
        ("simulate", {"horizon = 300": "horizon = 0"}, [],
         "config error: experiment.horizon: must be at least 1"),
        ("replay", None, ["--trial", "5000"],
         "config error: trial index 5000 out of range 0..2"),
        ("simulate", DIVERGING, [],
         "simulation failed: trial 0 (seed "),
        ("replay", DIVERGING, ["--trial", "0"],
         "simulation failed: trial 0 (seed "),
        ("check", {"samples:1,2,3,3": "samples:1,x,3,3"}, [],
         "config error: experiment.initial: invalid literal for int() with base 10: 'x'"),
        ("check", {"b = 1.0": "b = x"}, [],
         "config error: mixing: could not convert string to float: 'x'"),
        ("check", {"b = 1.0": "b = "}, [],
         "config error: mixing.b: expected 1 or 4 values, got 0"),
        ("check", {"threads = 1": "threads = two"}, [],
         "config error: experiment: invalid literal for int() with base 10: 'two'"),
        ("check", {"covariance = false": "covariance = maybe"}, [],
         "config error: experiment: Not a boolean: maybe"),
        ("simulate", {"threads = 1": "threads = 0"}, [],
         "config error: experiment.threads: must be at least 1"),
        ("simulate", None, ["--threads", "-2"],
         "config error: experiment.threads: must be at least 1"),
        ("simulate", None, ["--threads", "two"],
         "config error: experiment: invalid literal for int() with base 10: 'two'\n"),
        ("simulate", None, ["--seed", "x"],
         "config error: experiment: invalid literal for int() with base 10: 'x'\n"),
        # the file's value is read, and refused, under the flag that replaces it
        ("simulate", {"master_seed = 4242": "master_seed = x"}, ["--seed", "5"],
         "config error: experiment: invalid literal for int() with base 10: 'x'\n"),
        # the predicted covariance is zero at a vertex: its relative error and
        # the normality pass fraction would be nan
        ("simulate", {"samples:1,2,3,3": "samples:2,2,2,2",
                      "covariance = false": "covariance = true",
                      "normality = false": "normality = true"}, [],
         "config error: experiment.covariance: every initial sample is 2, "
         "so the limit q* is a vertex"),
        ("simulate", {"opinions = 3": "opinions = 1", "samples:1,2,3,3": "samples:1,1,1,1",
                      "normality = false": "normality = true"}, [],
         "config error: experiment.normality: every initial sample is 1,"),
        # censoring of order the step size keeps the limit out of the
        # asymptotic normality regime, so no prediction is checked
        ("simulate", {"kind = direct": "kind = censored\nc = 0.5\nexponent = 1.0",
                      "covariance = false": "covariance = true"}, [],
         "config error: experiment.covariance: censored sampling with exponent 1 < 2 "),
        ("analyze", {"kind = direct": "kind = censored\nc = 0.5\nexponent = 1.99",
                     "normality = false": "normality = true"}, [],
         "config error: experiment.normality: censored sampling with exponent 1.99 < 2 "),
        # normality where the scaled disagreement is not normal, or the test
        # misses at the covariance's Monte Carlo floor
        ("simulate", {"b = 1.0": "b = 0", "normality = false": "normality = true"}, [],
         "config error: experiment.normality: every b_ii is 0, "),
        ("simulate", {"b = 1.0": "b = 1,0.6,1,1", "gamma = 0.75": "gamma = 1",
                      "normality = false": "normality = true"}, [],
         "config error: experiment.normality: gamma = 1 with b_ii = 0.6 at i=2, "),
        # b outside [0, 1], NaN among them, and a wrong count
        ("simulate", {"b = 1.0": "b = nan"}, [],
         "config error: mixing.b: A4 violated: b_ii must lie in [0, 1], got nan at i=1"),
        ("simulate", {"b = 1.0": "b = 1,1,-0.1,1"}, [],
         "config error: mixing.b: A4 violated: b_ii must lie in [0, 1], got -0.1 at i=3"),
        ("simulate", {"b = 1.0": "b = 1.5"}, [],
         "config error: mixing.b: A4 violated: b_ii must lie in [0, 1], got 1.5 at i=1"),
        ("simulate", {"b = 1.0": "b = 1,1"}, [],
         "config error: mixing.b: expected 1 or 4 values, got 2"),
        # non-finite protocol parameters
        ("simulate", {"kind = direct": "kind = censored\nc = nan"}, [],
         "config error: sampling: censor floor scale must be finite and nonnegative"),
        ("simulate", {"kind = direct": "kind = censored\nc = inf"}, [],
         "config error: sampling: censor floor scale must be finite and nonnegative"),
        ("simulate", {"kind = direct": "kind = censored\nexponent = nan"}, [],
         "config error: sampling: censor exponent must be finite and >= 1"),
        ("simulate", {"kind = direct": "kind = censored\nexponent = inf"}, [],
         "config error: sampling: censor exponent must be finite and >= 1"),
        ("simulate", {"a = 1.0": "a = nan"}, [],
         "config error: schedule: A1 violated: amplitude a must be positive and finite"),
        ("simulate", {"a = 1.0": "a = inf"}, [],
         "config error: schedule: A1 violated: amplitude a must be positive and finite"),
        ("simulate", {"kind = complete": "kind = complete\ntau = nan"}, [],
         "config error: network: tau must be positive and finite"),
        ("simulate", {"kind = complete": "kind = birkhoff-random\nmixing = 0.5,nan,0.5"},
         [], "config error: network: mixing weights must be finite and nonnegative"),
        ("simulate", {"kind = complete": "kind = iid-finite-support\n"
                      "support = 1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1 ; "
                      "0,1,0,0,1,0,0,0,0,0,0,1,0,0,1,0\nprobabilities = nan,0.5"},
         [], "config error: network: selection probabilities must be finite and "
         "nonnegative"),
        # text configparser cannot read
        ("check", {"threads = 1": "threads = 1\nthreads = 2"}, [],
         "config error: config file: While reading from "),
        ("check", {"[mixing]": "[network]\n[mixing]"}, [],
         "config error: config file: While reading from "),
        ("check", {"[experiment]\n": ""}, [],
         "config error: config file: File contains no section headers. file: "),
        ("check", {"k0 = 0": "k0 = 0\nstray"}, [],
         "config error: config file: Source contains parsing errors: "),
        # verdict thresholds that no run could meet, or that every run meets
        ("simulate", {"threads = 1": "threads = 1\nmax_cov_rel_error = nan"}, [],
         "config error: experiment.max_cov_rel_error: must be finite and nonnegative"),
        ("simulate", {"threads = 1": "threads = 1\nmax_cov_rel_error = inf"}, [],
         "config error: experiment.max_cov_rel_error: must be finite and nonnegative"),
        ("simulate", {"threads = 1": "threads = 1\nmax_cov_rel_error = -0.1"}, [],
         "config error: experiment.max_cov_rel_error: must be finite and nonnegative"),
        ("simulate", {"threads = 1": "threads = 1\nmin_normality_pass = nan"}, [],
         "config error: experiment.min_normality_pass: must lie in [0, 1]"),
        ("simulate", {"threads = 1": "threads = 1\nmin_normality_pass = 1.5"}, [],
         "config error: experiment.min_normality_pass: must lie in [0, 1]"),
        ("simulate", {"threads = 1": "threads = 1\nmin_normality_pass = -0.1"}, [],
         "config error: experiment.min_normality_pass: must lie in [0, 1]"),
        # keys and sections the parser does not read
        ("check", {"threads = 1": "threads = 1\nrecord_nosie = false"}, [],
         "config error: experiment.record_nosie: unknown key\n"),
        ("check", {"threads = 1": "threads = 1\nrecord_noise = false"}, [],
         "config error: experiment.record_noise: unknown key\n"),
        ("check", {"[mixing]": "[mixng]"}, [],
         "config error: mixng: unknown section\n"),
        # [network] keys the kind does not read, or that it needs
        ("check", {"kind = complete": f"kind = fixed\nmatrix = {IDENTITY_4}\n"
                   "probabilities = 0.3,0.7\nmixing = 0.5,0.5"}, [],
         "config error: network.probabilities: the fixed kind does not read it\n"),
        ("check", {"kind = complete": f"matrix = {IDENTITY_4}"}, [],
         "config error: network.matrix: the complete kind does not read it\n"),
        ("check", {"kind = complete": "kind = switching-periodic\n"
                   f"support = {IDENTITY_4}\nprobabilities = 1"}, [],
         "config error: network.probabilities: the switching-periodic kind does not "
         "read it\n"),
        ("check", {"kind = complete": "kind = fixed"}, [],
         "config error: network: No option 'matrix' in section: 'network'\n"),
        ("check", {"kind = complete": "kind = ring"}, [],
         "config error: network.kind: unknown kind 'ring'\n"),
        # the keys without a default
        ("check", {"agents = 4\n": ""}, [],
         "config error: experiment: No option 'agents' in section: 'experiment'\n"),
        ("check", {"opinions = 3\n": ""}, [],
         "config error: experiment: No option 'opinions' in section: 'experiment'\n"),
        ("check", {"horizon = 300\n": ""}, [],
         "config error: experiment: No option 'horizon' in section: 'experiment'\n"),
        # the stability condition of the prediction, under every command
        *[(command, UNSTABLE, flags,
           "config error: experiment.covariance: asymptotic-normality stability "
           "condition failed: lambda2 = ")
          for command, flags in (("check", []), ("simulate", []), ("analyze", []),
                                 ("replay", ["--trial", "0"]))],
        ("simulate", {"kind = complete": f"kind = fixed\nmatrix = {IDENTITY_4}",
                      "normality = false": "normality = true"}, [],
         "config error: experiment.normality: asymptotic-normality stability "
         "condition failed: lambda2 = 1 is not below 1 - delta/2 = 1\n"),
        # a sample covariance needs two trials, from the file or the flag
        ("simulate", {"covariance = false": "covariance = true",
                      "replications = 3": "replications = 1"}, [],
         "config error: experiment.covariance: need at least two trials for a "
         "sample covariance, got replications = 1\n"),
        ("simulate", {"normality = false": "normality = true"}, ["--replications", "1"],
         "config error: experiment.normality: need at least two trials for a "
         "sample covariance, got replications = 1\n"),
    ],
    ids=["replications-0", "stride-past-horizon", "horizon-0", "replay-out-of-range",
         "simulate-diverges", "replay-diverges", "initial-not-int", "b-not-float",
         "b-empty", "threads-not-int", "covariance-not-bool", "threads-0",
         "threads-flag-negative", "threads-flag-not-int", "seed-flag-not-int",
         "seed-not-int-under-flag", "covariance-at-vertex", "normality-one-opinion",
         "covariance-censored-exponent-1", "normality-censored-exponent-1.99",
         "normality-b-0", "normality-gamma-1-b-below-1",
         "b-nan", "b-negative", "b-above-1", "b-wrong-count",
         "c-nan", "c-inf", "exponent-nan", "exponent-inf", "a-nan", "a-inf",
         "tau-nan", "birkhoff-mixing-nan", "iid-probabilities-nan",
         "duplicate-option", "duplicate-section", "no-section-header", "line-without-equals",
         "max-cov-rel-error-nan", "max-cov-rel-error-inf", "max-cov-rel-error-negative",
         "min-normality-pass-nan", "min-normality-pass-above-1",
         "min-normality-pass-negative", "misspelled-key", "removed-record-noise",
         "unknown-section", "network-keys-of-other-kinds", "network-key-without-kind",
         "switching-probabilities", "fixed-without-matrix", "network-kind-unknown",
         "no-agents", "no-opinions", "no-horizon", "check-unstable", "simulate-unstable",
         "analyze-unstable", "replay-unstable", "simulate-identity-weights",
         "simulate-one-trial", "simulate-one-trial-flag"],
)
def test_cli_refusals_exit_2_with_one_line(
    tmp_path, capsys, command, edits, flags, prefix
):
    text = SMALL_CFG.format(out=tmp_path / "out")
    for old, new in (edits or {}).items():
        text = text.replace(old, new)
    path = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        # a warning would be a second stderr line
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_main([command, str(path), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not any((tmp_path / "out").rglob("*"))


# runs the CLI with scipy.special unimportable, as if scipy were missing
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy.special"] = None
from socsamp.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "key, edits",
    [("covariance", {"covariance = false": "covariance = true"}),
     ("normality", {"normality = false": "normality = true"})],
)
def test_theory_config_without_scipy_is_refused_before_any_trial(tmp_path, key, edits):
    text = SMALL_CFG.format(out=tmp_path / "out")
    for old, new in edits.items():
        text = text.replace(old, new)
    path = write_cfg(tmp_path, text)
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, "simulate", str(path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert out.stderr.startswith(f"config error: experiment.{key}: the theory needs scipy")
    assert out.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("replications", [1, 2, 7, 1000])
def test_column_median_equals_np_median_bit_for_bit(replications):
    rng = np.random.default_rng(replications)
    errs = rng.exponential(size=(replications, 9))
    errs[:, 1] = 0.0  # ties
    errs[: replications // 2, 2] = np.inf
    assert harness._column_median(errs).tobytes() == np.median(errs, axis=0).tobytes()
    errs[replications // 3, 4] = np.nan
    errs[:, 5] = -np.nan  # NaN keeps its sign bit, as np.median returns it
    got = harness._column_median(errs)
    assert got.tobytes() == np.median(errs, axis=0).tobytes()
    assert np.isnan(got[[4, 5]]).all() and not np.isnan(got[[0, 1, 2, 3]]).any()


def test_cli_freezes_the_objects_alive_at_start_for_its_run_only(tmp_path, monkeypatch):
    seen = []
    run = cli._run

    def counting_run(args, cfg):
        seen.append(gc.get_freeze_count())
        return run(args, cfg)

    monkeypatch.setattr(cli, "_run", counting_run)
    path = write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path / "out"))
    assert gc.get_freeze_count() == 0
    assert cli_main(["check", str(path)]) == 0
    assert seen[0] > 0 and gc.get_freeze_count() == 0


def test_write_trace_layout(tmp_path):
    cfg = ss.load_config(write_cfg(tmp_path, SMALL_CFG.format(out=tmp_path)))
    results = ss.run_chunk(cfg, [(0, ss.derive_trial_seed(cfg.master_seed, 0))])
    path = tmp_path / "t.csv"
    write_trace(results, path)
    rows = path.read_text().splitlines()
    n_rows = len(results.checkpoints) * cfg.n_agents * cfg.n_opinions
    assert len(rows) == n_rows + 1
    assert rows[0] == "trial,k,agent,component,value"
    assert rows[1].split(",")[:4] == ["0", "0", "1", "1"]


def test_formatters_match_per_value_reference(tmp_path):
    # the whole-file trace writer and fmt_vector against fmt applied one
    # value at a time, bit for bit, on the edge values and log-uniform ones
    rng = np.random.default_rng(17)
    edges = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
             -1.7976931348623157e308, 0.1, 1 / 3, 2.0**53]
    spread = rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-323.5, 308.2, 10_000)
    values = np.concatenate([edges, spread])
    assert np.isfinite(values).all() and np.signbit(values[0])
    # fmt_vector formats each distinct value once, so repeats go in too
    repeats = np.random.default_rng(18).permutation(np.resize(values[:40], 4000))
    for v in (values, values[:12].reshape(3, 4), [], [np.nan, np.inf, -np.inf],
              repeats, [-0.0, 0.0, np.nan, -0.0, np.nan, 1.0]):
        assert fmt_vector(v) == reference_fmt_vector(v)
    # traces of assorted shapes, so the cached template is rebuilt and reused:
    # one file of a trial, then one of three trials sharing the template
    path, start = tmp_path / "t.csv", 0
    while start < len(values):
        c, n, m = (int(x) for x in rng.integers(1, 7, size=3))
        checkpoints = tuple(sorted(int(k) for k in rng.choice(10_000, c, replace=False)))
        indices = rng.integers(0, 10_000, 3)
        snapshots = np.stack([
            np.resize(np.roll(values, -start - j * c * n * m), (c, n, m))
            for j in range(3)
        ])
        for count in (1, 3):
            results = SimpleNamespace(
                trial_indices=indices[:count], checkpoints=checkpoints,
                snapshots=snapshots[:count],
            )
            write_trace(results, path)
            assert path.read_bytes() == reference_trace_text(results).encode()
        start += c * n * m
    # a dense stride, as replay writes it: every step from 0 to the horizon
    results = SimpleNamespace(
        trial_indices=np.array([7]), checkpoints=tuple(range(201)),
        snapshots=np.resize(values, (1, 201, 3, 4)),
    )
    write_trace(results, path)
    assert path.read_bytes() == reference_trace_text(results).encode()
