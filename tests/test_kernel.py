"""The trial-batched step kernel against recorded outputs and itself.

The digests below were recorded from the per-trial step loop that the kernel
replaced; the kernel must reproduce them byte for byte, whatever the worker
count.  Within the kernel, a trial's trace must not depend on the chunk it is
stepped in.
"""

import hashlib
import pickle
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import socsamp as ss
from socsamp.harness import CHUNK_ROWS, derive_trial_seed, trial_chunks, trial_config

from conftest import random_trial_config
from oracles import per_trial_reference

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "normality_n5": (
        "configs/normality_n5.cfg",
        20,
        {
            "summary.txt": "f783ce1ad75f59dacde432e9773623d34fb6a269f9d0c89ffcdddfcee1bc5990",
            "report.txt": "54bc908c33213deb902344015b9dc6d6e3e9c6e5c1c6d60bb8921c37f0deafc9",
            "traces": "a58eab78cb80b8057e4ae31e4483ab278824f5f56444d4a3a3b82f5042f419c6",
        },
    ),
    "random_censored": (
        "perfbench/configs/random_censored.cfg",
        3,
        {
            "summary.txt": "0caa3703e8bf63ddb35bdfb76e6058739c281a09b57ff70ea336a2ef2630a058",
            "traces": "67495db6d40bfc961aa7880df63e2b2660882e46ef229481d0f20fced0850a13",
        },
    ),
    "consensus_n50": (
        "configs/consensus_n50.cfg",
        2,
        {
            "summary.txt": "7c34a73a311432794a5b8189c7facb78b31c6b0acd4380f0b8c8d91dffe83250",
            "traces": "60b600726dfd82f7fcfaf02a93d863c1ef370af6f5d0426b66ac812a72c9e8e4",
        },
    ),
}


def output_digests(out):
    """sha256 of summary.txt, report.txt and of all traces in trial order."""
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("summary.txt", "report.txt")
        if (out / name).exists()
    }
    traces = sorted(out.glob("trace_*.csv"), key=lambda p: int(p.stem.split("_")[1]))
    h = hashlib.sha256()
    for path in traces:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    digests["traces"] = h.hexdigest()
    return digests, len(traces)


@pytest.mark.parametrize(
    "name,threads",
    [("normality_n5", 1), ("normality_n5", 2), ("random_censored", 1),
     ("consensus_n50", 1)],
)
def test_outputs_match_recorded_digests(tmp_path, name, threads):
    path, replications, expected = GOLDEN[name]
    cfg = ss.load_config(ROOT / path)
    cfg = replace(cfg, replications=replications, threads=threads)
    ss.run_experiment(cfg, out_dir=tmp_path)
    digests, n_traces = output_digests(tmp_path)
    assert n_traces == replications
    assert digests == expected


def assert_same_trace(a, b):
    for f in fields(ss.TrialTrace):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "final_state":
            assert x.step_index == y.step_index
            x, y = x.q, y.q
        if f.name == "diagnostics":
            assert asdict(x) == asdict(y)
        elif f.name == "snapshots":
            assert len(x) == len(y)
            for sx, sy in zip(x, y):
                np.testing.assert_array_equal(sx, sy)
        elif x is None or isinstance(x, (int, float, list)):
            assert x == y, f.name
        else:
            np.testing.assert_array_equal(x, y, err_msg=f.name)


@pytest.mark.parametrize("renormalize", [True, False])
def test_chunk_size_does_not_change_traces(renormalize):
    # every trial of every chunk equals the same trial stepped alone by the
    # per-trial reference loop, bit for bit
    rng = np.random.default_rng(808)
    n_trials = 9
    totals = dict.fromkeys(("silent_messages", "clamped_agents"), 0)
    censored = 0
    for idx in range(12):
        tc, _ = random_trial_config(rng, idx, horizon=150, renormalize=renormalize)
        censored += tc.policy.kind == "censored"
        trials = [(j, derive_trial_seed(tc.seed, j)) for j in range(n_trials)]
        whole = ss.run_chunk(tc, trials)
        sevens = ss.run_chunk(tc, trials[:7]) + ss.run_chunk(tc, trials[7:])
        for j, (index, seed) in enumerate(trials):
            alone = replace(tc, trial_index=index, seed=seed)
            single = ss.run_trial(alone)
            assert_same_trace(per_trial_reference(alone), whole[j])
            assert_same_trace(single, whole[j])
            assert_same_trace(single, sevens[j])
            for key in totals:
                totals[key] += getattr(single.diagnostics, key)
    # the corpus reaches the per-row branches: censor, clamp, and silence
    assert censored and totals["clamped_agents"]
    if not renormalize:
        assert totals["silent_messages"]


def test_trial_chunks_cover_trials_in_order():
    assert trial_chunks(1000, 5, 2) == [(0, 500), (500, 1000)]
    assert trial_chunks(2, 50, 1) == [(0, 2)]
    assert trial_chunks(3, 2, 8) == [(0, 1), (1, 2), (2, 3)]
    # many rows split even a one-worker run into chunks of at most
    # CHUNK_ROWS rows
    bounds = trial_chunks(1000, 50, 1)
    assert len(bounds) == 13 and bounds[0][0] == 0 and bounds[-1][1] == 1000
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert all((b - a) * 50 <= CHUNK_ROWS for a, b in bounds)
    # a trial with more rows than CHUNK_ROWS is a chunk of its own
    assert trial_chunks(3, CHUNK_ROWS + 1, 1) == [(0, 1), (1, 2), (2, 3)]


def blowup_config(horizon=40, seed=1):
    # b < 1 retains a multiple of the estimate each step; amplitude 1e200
    # makes that multiple overflow at step 2
    model = ss.fixed_model(ss.metropolis_complete(3))
    return ss.TrialConfig(
        n_agents=3, n_opinions=2, initial_samples=(1, 2, 2), weight_model=model,
        mixing=ss.MixingMatrices.from_b(0.5, 3), policy=ss.SamplingPolicy("direct"),
        schedule=ss.StepSchedule(1e200, 0.51, 0), horizon=horizon, seed=seed,
    )


def test_trial_abort_names_trial_seed_and_step():
    tc = blowup_config()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ss.TrialAborted, match="at step 2;") as alone:
            ss.run_trial(replace(tc, trial_index=4, seed=99))
        assert (alone.value.trial_index, alone.value.seed) == (4, 99)
        assert alone.value.step_index == 2
        # in a chunk, the first trial in chunk order is the one reported,
        # with the diagnostics it has when run alone
        with pytest.raises(ss.TrialAborted) as chunked:
            ss.run_chunk(tc, [(4, 99), (1, 5), (2, 6)])
    assert (chunked.value.trial_index, chunked.value.seed) == (4, 99)
    assert str(chunked.value) == str(alone.value)
    # the abort survives a trip through a process pool
    copy = pickle.loads(pickle.dumps(chunked.value))
    assert (copy.step_index, copy.trial_index, copy.seed) == (2, 4, 99)
    assert str(copy) == str(chunked.value)


def test_trial_abort_diagnostics_match_reference_loop():
    # random weights give the failing step a martingale noise larger than
    # step 1's, which the diagnostics must hold, as the reference loop's do
    model = ss.birkhoff_model(3, (0.5, 0.3, 0.2))
    tc = replace(blowup_config(seed=3), weight_model=model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ss.TrialAborted) as kernel:
            ss.run_trial(tc)
        with pytest.raises(ss.TrialAborted) as reference:
            per_trial_reference(tc)
    assert kernel.value.step_index == reference.value.step_index == 2
    assert str(kernel.value) == str(reference.value)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_trials_reports_aborted_trial(tmp_path, threads):
    tc = blowup_config()
    cfg = ss.ExperimentConfig(
        n_agents=tc.n_agents, n_opinions=tc.n_opinions, horizon=tc.horizon,
        replications=4, master_seed=3, initial_samples=tc.initial_samples,
        weight_model=tc.weight_model, mixing=tc.mixing, policy=tc.policy,
        schedule=tc.schedule, out_dir=str(tmp_path), threads=threads,
    )
    seed = trial_config(cfg, 0).seed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(RuntimeError, match=rf"^trial 0 \(seed {seed}\) aborted: "
                           r"non-finite value encountered at step 2;"):
            ss.run_trials(cfg)
