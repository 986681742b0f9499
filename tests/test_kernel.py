"""The trial-batched step kernel against recorded outputs and itself.

The trace digests below were recorded from the per-trial step loop that the
kernel replaced; the kernel must reproduce them byte for byte, whatever the
worker count.  That loop wrote one ``trace_<i>.csv`` per trial, so the
digest is taken over those files as rebuilt from ``traces.csv``.  ``normality_n5``'s summary and report digests were re-recorded
when the asymptotic covariance became Kronecker-factored: the report stores
the factors, and the summary's ``lyapunov_residual`` and ``cov_rel_error``
moved in their last digits.  The three summary digests were re-recorded
again when the config lost its ``record_noise`` field: the serialized config
lost a line, so ``config_digest`` changed, and no other summary line did.
``PINNED`` holds the values the dense solve gave.
Within the kernel, a trial's trace must not depend on the chunk it is stepped
in.
"""

import functools
import hashlib
import pickle
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import socsamp as ss
from socsamp import dynamics
from socsamp.harness import CHUNK_ROWS, derive_trial_seed, trial_chunks

from conftest import random_trial_config
from oracles import per_trial_reference, random_doubly_stochastic

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "normality_n5": (
        "configs/normality_n5.cfg",
        20,
        {
            "summary.txt": "8e947f99eb521cb6b35b02efc7019a8bfa49f1e92d22d38fc2298e19e57ecb2d",
            "report.txt": "8f8182d58f14b7e1842ff10555127ea39df4ea00248e1291a4669a8beb15d5a1",
            "traces": "a58eab78cb80b8057e4ae31e4483ab278824f5f56444d4a3a3b82f5042f419c6",
        },
    ),
    "random_censored": (
        "perfbench/configs/random_censored.cfg",
        3,
        {
            "summary.txt": "874b1ac1694ad1ff9fb676fa356638f1aa78588f0474ae7e3e4bfd99db913221",
            "traces": "67495db6d40bfc961aa7880df63e2b2660882e46ef229481d0f20fced0850a13",
        },
    ),
    "consensus_n50": (
        "configs/consensus_n50.cfg",
        2,
        {
            "summary.txt": "a85ba9543b5ab4889de3299586ec3d5ae04f2aafd0742aa3f2d6600e68b103b2",
            "traces": "60b600726dfd82f7fcfaf02a93d863c1ef370af6f5d0426b66ac812a72c9e8e4",
        },
    ),
}

# (value, relative tolerance) from the dense (N-1)M-dimensional solve
PINNED = {
    "normality_n5": {
        "cov_rel_error": (0.9206434068889839, 1e-12),
        "normality_pass_fraction": (0.8333333333333334, 0.0),
    },
}


def output_digests(out):
    """sha256 of summary.txt, report.txt and of all traces in trial order.

    The ``traces`` digest hashes each trial's trace as the per-trial loop
    wrote it, a ``trace_<i>.csv`` file with a ``k,agent,component,value``
    header: the trial's rows of ``traces.csv`` without the trial column.
    """
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("summary.txt", "report.txt")
        if (out / name).exists()
    }
    header, *rows = (out / "traces.csv").read_text().splitlines(keepends=True)
    assert header == "trial,k,agent,component,value\n"
    per_trial = {}
    for row in rows:
        trial, rest = row.split(",", 1)
        per_trial.setdefault(int(trial), []).append(rest)
    # the trial column runs 0..R-1, one block per trial, in order
    assert list(per_trial) == list(range(len(per_trial)))
    assert [row.split(",", 1)[0] for row in rows] == [
        str(trial) for trial, lines in per_trial.items() for _ in lines
    ]
    h = hashlib.sha256()
    for trial, lines in per_trial.items():
        h.update(f"trace_{trial}.csv".encode())
        h.update(("k,agent,component,value\n" + "".join(lines)).encode())
    digests["traces"] = h.hexdigest()
    return digests, len(per_trial)


@pytest.mark.parametrize(
    "name,threads",
    [("normality_n5", 1), ("normality_n5", 2), ("random_censored", 1),
     ("random_censored", 2), ("consensus_n50", 1)],
)
def test_outputs_match_recorded_digests(tmp_path, name, threads):
    path, replications, expected = GOLDEN[name]
    cfg = ss.load_config(ROOT / path)
    cfg = replace(cfg, replications=replications, threads=threads, out_dir=str(tmp_path))
    ss.run_experiment(cfg)
    digests, n_traces = output_digests(tmp_path)
    assert n_traces == replications
    assert digests == expected
    summary = dict(
        line.split(" = ", 1)
        for line in (tmp_path / "summary.txt").read_text().splitlines()
    )
    for key, (value, rel) in PINNED.get(name, {}).items():
        assert float(summary[key]) == pytest.approx(value, rel=rel, abs=0.0), key


def assert_same_trace(a, b):
    # every field, arrays and diagnostics with their shapes and dtypes
    for f in fields(ss.TrialResults):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "diagnostics":
            assert list(x) == list(y) == list(dynamics.DIAGNOSTICS)
            for name in x:
                np.testing.assert_array_equal(x[name], y[name], err_msg=name, strict=True)
        else:
            np.testing.assert_array_equal(x, y, err_msg=f.name, strict=True)


def kernel_corpus(renormalize):
    """15 random protocol configs, each with 9 trials, at H=150.

    The random corpus need not draw them, so three configs are set by hand:
    a birkhoff network with censored sampling and b != 1, as random_censored
    runs, whose permutations cross a block boundary at H=150; an iid network
    with M = 9 opinions and N = 12 agents, where numpy sums a row of M
    pairwise; and a switching network of period 3, which divides neither 7
    nor the default window of 128 steps.
    """
    rng = np.random.default_rng(808)
    for idx in range(15):
        tc, (_, base_seed), _ = random_trial_config(
            rng, idx, horizon=150, renormalize=renormalize
        )
        censored = ss.SamplingPolicy(
            "censored", censor_floor_scale=0.5, censor_exponent=1.0,
            renormalize=renormalize,
        )
        if idx == 12:
            tc = replace(
                tc,
                weight_model=ss.birkhoff_model(tc.n_agents, (0.4, 0.3, 0.3)),
                b=0.6,
                policy=censored,
            )
        elif idx == 13:
            n, m = 12, 9
            mats = [random_doubly_stochastic(rng, n) for _ in range(3)]
            tc = replace(
                tc, n_agents=n, n_opinions=m,
                initial_samples=tuple(int(x) for x in rng.integers(1, m + 1, n)),
                weight_model=ss.iid_model(mats, (0.5, 0.3, 0.2), tau=1e-9),
                b=rng.uniform(0.0, 1.0, n),
                policy=censored,
            )
        elif idx == 14:
            mats = [random_doubly_stochastic(rng, tc.n_agents) for _ in range(3)]
            tc = replace(
                tc, weight_model=ss.switching_model(mats, tau=1e-9, window=2),
                policy=ss.SamplingPolicy("direct"),
            )
        yield tc, [(j, derive_trial_seed(base_seed, j)) for j in range(9)]


@functools.lru_cache(maxsize=None)
def corpus_references(renormalize):
    """``(config, trials, reference results)`` of :func:`kernel_corpus`: the
    trials stepped one at a time by the reference loop, then joined."""
    return [
        (tc, trials, ss.TrialResults.concatenate(
            [per_trial_reference(tc, i, s)[0] for i, s in trials]
        ))
        for tc, trials in kernel_corpus(renormalize)
    ]


@pytest.mark.parametrize("renormalize", [True, False])
def test_chunk_size_does_not_change_traces(renormalize):
    # every trial of every chunk equals the same trial stepped alone by the
    # per-trial reference loop, bit for bit
    totals = dict.fromkeys(("silent_messages", "clamped_agents"), 0)
    censored = 0
    kinds = set()
    for tc, trials, references in corpus_references(renormalize):
        censored += tc.policy.kind == "censored"
        kinds.add(tc.weight_model.kind)
        whole = ss.run_chunk(tc, trials)
        sevens = ss.TrialResults.concatenate(
            [ss.run_chunk(tc, trials[:7]), ss.run_chunk(tc, trials[7:])]
        )
        singles = ss.TrialResults.concatenate(
            [ss.run_chunk(tc, [trial]) for trial in trials]
        )
        assert_same_trace(references, whole)
        assert_same_trace(singles, whole)
        assert_same_trace(singles, sevens)
        for key in totals:
            totals[key] += singles.diagnostics[key].sum()
    # the corpus reaches the per-row branches: censor, clamp, and silence
    assert censored and totals["clamped_agents"]
    assert "birkhoff-random" in kinds
    if not renormalize:
        assert totals["silent_messages"]


def test_one_agent_records_its_martingale_noise():
    # a lone agent silenced at step 1 (floor 1.2 above its one-hot estimate)
    # with b < 1 leaves its vertex, so its messages then differ from their
    # distributions: the kernel records the noise (1 - b)(Y - P) as the
    # reference loop does.  The projected noise of one agent is 0
    cfg = ss.ExperimentConfig(
        n_agents=1, n_opinions=3, horizon=200, replications=1, master_seed=0,
        initial_samples=(2,), weight_model=ss.fixed_model([[1.0]]), b=0.9,
        policy=ss.SamplingPolicy("censored", 1.2, 2.0, renormalize=False),
        schedule=ss.StepSchedule(1.0, 0.75, 0),
    )
    results = ss.run_chunk(cfg, [(0, 11)])
    assert_same_trace(per_trial_reference(cfg, 0, 11)[0], results)
    diagnostics = results.diagnostics
    assert diagnostics["silent_messages"][0] > 0
    assert diagnostics["max_martingale_norm"][0] > 0.0
    assert diagnostics["max_noise_norm"][0] == 0.0


WINDOWS = pytest.mark.parametrize(
    "window", [1, 7, None], ids=["window-1", "window-7", "window-default"]
)


def set_window(monkeypatch, window):
    if window is not None:
        monkeypatch.setattr(dynamics, "window_steps", lambda values: window)


@WINDOWS
def test_window_length_does_not_change_traces(monkeypatch, window):
    # a window's reductions give every step's diagnostics and snapshots the
    # bits of the per-step reference loop; at H=150, 7-step windows end at
    # the block boundary with a 2-step window and at the horizon with a
    # 1-step one
    set_window(monkeypatch, window)
    for renormalize in (True, False):
        for tc, trials, references in corpus_references(renormalize):
            assert_same_trace(references, ss.run_chunk(tc, trials))


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


def blowup_config(horizon=40):
    # b < 1 retains a multiple of the estimate each step; amplitude 1e200
    # makes that multiple overflow at step 2
    model = ss.fixed_model(ss.metropolis_complete(3))
    return ss.ExperimentConfig(
        n_agents=3, n_opinions=2, horizon=horizon, replications=1, master_seed=0,
        initial_samples=(1, 2, 2), weight_model=model,
        b=0.5, policy=ss.SamplingPolicy("direct"),
        schedule=ss.StepSchedule(1e200, 0.51, 0),
    )


def test_trial_abort_names_trial_seed_and_step():
    tc = blowup_config()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ss.TrialAborted, match="at step 2;") as alone:
            ss.run_chunk(tc, [(4, 99)])
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
    tc = replace(blowup_config(), weight_model=model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ss.TrialAborted) as kernel:
            ss.run_chunk(tc, [(0, 3)])
        with pytest.raises(ss.TrialAborted) as reference:
            per_trial_reference(tc, 0, 3)
    assert kernel.value.step_index == reference.value.step_index == 2
    assert str(kernel.value) == str(reference.value)


def late_blowup_config(amplitude):
    # birkhoff weights make the overflow step depend on the draws: at
    # a=1e30, gamma=1 seed 3 overflows at step 11 and seeds 8 and 17 at
    # step 12; at a=1e40 seed 3 overflows at step 8
    return replace(
        blowup_config(), weight_model=ss.birkhoff_model(3, (0.5, 0.3, 0.2)),
        schedule=ss.StepSchedule(amplitude, 1.0, 0),
    )


@WINDOWS
@pytest.mark.parametrize(
    "amplitude,trials,step",
    [(1e30, [(0, 3)], 11), (1e40, [(0, 3)], 8),
     (1e30, [(0, 8), (1, 17), (2, 3)], 12)],
    # with 7-step windows: step 11 is mid-window, step 8 starts one
    ids=["mid-window", "window-start", "trial-0-after-trial-2"],
)
def test_window_length_keeps_aborts(monkeypatch, window, amplitude, trials, step):
    tc = late_blowup_config(amplitude)
    set_window(monkeypatch, window)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ss.TrialAborted) as kernel:
            ss.run_chunk(tc, trials)
        with pytest.raises(ss.TrialAborted) as reference:
            per_trial_reference(tc, *trials[0])
        if len(trials) == 3:
            # trial 2 aborts first and is reset; the chunk steps on until
            # trial 0 aborts a step later and ends it
            with pytest.raises(ss.TrialAborted, match="at step 11;"):
                per_trial_reference(tc, *trials[2])
    assert kernel.value.step_index == reference.value.step_index == step
    assert (kernel.value.trial_index, kernel.value.seed) == trials[0]
    assert kernel.value.diagnostics == reference.value.diagnostics
    assert list(kernel.value.diagnostics) == list(dynamics.DIAGNOSTICS)
    assert [type(v) for v in kernel.value.diagnostics.values()] == [
        type(v) for v in reference.value.diagnostics.values()
    ]
    assert str(kernel.value) == str(reference.value)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_trials_reports_aborted_trial(tmp_path, threads):
    cfg = replace(
        blowup_config(), replications=4, master_seed=3, out_dir=str(tmp_path),
        threads=threads,
    )
    seed = derive_trial_seed(cfg.master_seed, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(RuntimeError, match=rf"^trial 0 \(seed {seed}\) aborted: "
                           r"non-finite value encountered at step 2;"):
            ss.run_trials(cfg)
