"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Budgeted wall-clock limits are asserted alongside the statistical claims.
"""

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import socsamp as ss
from socsamp.dynamics import _martingale_noise
from socsamp.harness import theory_report
from socsamp.network import (
    BIRKHOFF,
    birkhoff_permutation_blocks,
    birkhoff_weights,
    step_mean_matrices,
)
from socsamp.sampling import policy_matrix

from conftest import random_trial_config
from oracles import (
    draw_messages,
    lyapunov_quadrature,
    per_trial_reference,
    random_doubly_stochastic,
    reference_stream,
    strongly_connected_bruteforce,
    transitive_closure,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_conservation_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    max_sum_drift = 0.0
    max_avg_drift = 0.0
    max_noise_frac = 0.0
    max_running_gap = 0.0
    n_configs = 200
    for idx in range(n_configs):
        tc, trial, conserving = random_trial_config(rng, idx, horizon=1000)
        tr = ss.run_chunk(tc, [trial])
        diagnostics = {name: v.item() for name, v in tr.diagnostics.items()}
        initial_avg = ss.network_average(
            ss.initial_state(tc.initial_samples, tc.n_opinions)
        )
        max_sum_drift = max(max_sum_drift, diagnostics["max_sum_drift"])
        if conserving:
            for snap in tr.snapshots[0]:
                drift = float(np.abs(snap.mean(axis=0) - initial_avg).max())
                max_avg_drift = max(max_avg_drift, drift)
        max_noise_frac = max(
            max_noise_frac,
            diagnostics["max_noise_norm"] / diagnostics["noise_norm_bound"],
        )
        if not conserving:
            # the limit is the initial average plus the accumulated message
            # noise: the reference loop's series of average shifts must sum
            # to the kernel's final average
            _, increments = per_trial_reference(
                tc, *trial, policy_matrix, record_noise=False
            )
            running = initial_avg + increments.sum(axis=0)
            max_running_gap = max(
                max_running_gap,
                float(np.abs(running - ss.network_average(tr.final_states[0])).max()),
            )
    elapsed = time.perf_counter() - t0
    ok = (
        max_sum_drift <= 1e-9
        and max_avg_drift <= 1e-9
        and max_noise_frac <= 1.0
        and max_running_gap <= 1e-9
        and elapsed < 30.0
    )
    report(
        1,
        "conservation laws",
        ok,
        f"{n_configs} configs, sum drift {max_sum_drift:.2e}, "
        f"avg drift {max_avg_drift:.2e}, noise/bound {max_noise_frac:.3f}, "
        f"running-limit gap {max_running_gap:.2e}, {elapsed:.1f}s",
    )
    assert max_sum_drift <= 1e-9
    assert max_avg_drift <= 1e-9
    assert max_noise_frac <= 1.0
    assert max_running_gap <= 1e-9
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 2


@pytest.fixture(scope="module")
def fullscale_run(tmp_path_factory):
    cfg = ss.load_config(CONFIG_DIR / "consensus_n50.cfg")
    out = tmp_path_factory.mktemp("fullscale")
    cfg = replace(cfg, replications=10, out_dir=str(out / "single"), threads=1)
    t0 = time.perf_counter()
    summary = ss.run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, summary, elapsed


def test_criterion_2_consensus_reproduction(fullscale_run):
    cfg, summary, elapsed = fullscale_run
    medians = dict(zip(summary.checkpoints, summary.consensus_error_median))
    err_200 = medians[200]
    err_final = medians[20000]
    ratio = err_final / err_200
    # Asymptotic normality: the error scaled by 1/sqrt(d_k) has a
    # non-degenerate limit, so the error decays like sqrt(d_k) and the ratio
    # is predicted by sqrt(d_20000 / d_200) (0.178 for gamma = 0.75). Twelve
    # master seeds at this fixture's R=10 gave 0.87-1.19 times the prediction;
    # a k^-0.25 decay (0.316) or a collapsed fluctuation at k^-0.5 (0.1)
    # falls outside the band.
    predicted = np.sqrt(cfg.schedule.step_size(20000) / cfg.schedule.step_size(200))
    lo, hi = 0.7 * predicted, 1.3 * predicted
    ratio_ok = lo <= ratio <= hi
    abs_ok = err_final <= 0.05
    ok = ratio_ok and abs_ok and elapsed < 120.0
    report(
        2,
        "consensus reproduction",
        ok,
        f"median err(200) {err_200:.4f}, err(20000) {err_final:.4f}, "
        f"ratio {ratio:.3f} (predicted sqrt(d_20000/d_200) = {predicted:.3f}, "
        f"need in [{lo:.3f}, {hi:.3f}]), abs <= 0.05: {abs_ok}, {elapsed:.1f}s",
    )
    assert elapsed < 120.0
    assert abs_ok, f"median error at horizon {err_final:.4f} exceeds 0.05"
    assert ratio_ok, (
        f"median error ratio {ratio:.3f} is outside [{lo:.3f}, {hi:.3f}], "
        f"0.7-1.3 times the predicted sqrt(d_20000/d_200) = {predicted:.3f}"
    )


# ---------------------------------------------------------------- criterion 3


@pytest.fixture(scope="module")
def normality_run(tmp_path_factory):
    t0 = time.perf_counter()
    cfg = ss.load_config(CONFIG_DIR / "normality_n5.cfg")
    # run_trials writes the 1000 traces, so keep them out of the checkout
    cfg = replace(cfg, out_dir=str(tmp_path_factory.mktemp("normality")))
    results = ss.run_trials(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, results.final_states, elapsed


def test_criterion_3_asymptotic_normality(normality_run):
    cfg, final_states, trial_time = normality_run
    t0 = time.perf_counter()
    assert ss.spectral_gap(ss.mean_matrix(cfg.weight_model)) >= 0.4  # lambda2 <= 0.6
    rep = theory_report(cfg, final_states)
    elapsed = trial_time + time.perf_counter() - t0
    cov_ok = rep.cov_rel_error <= 0.20
    norm_ok = rep.normality_pass_fraction >= 0.90
    ok = cov_ok and norm_ok and elapsed < 180.0
    report(
        3,
        "asymptotic normality",
        ok,
        f"cov rel error {rep.cov_rel_error:.3f} (<= 0.20), "
        f"KS pass fraction {rep.normality_pass_fraction:.3f} (>= 0.90), "
        f"{elapsed:.1f}s",
    )
    assert cov_ok, f"covariance relative error {rep.cov_rel_error:.3f}"
    assert norm_ok, f"KS pass fraction {rep.normality_pass_fraction:.3f}"
    assert elapsed < 180.0


def test_criterion_3_scaling_more_trials_do_not_hurt(normality_run):
    # Monte Carlo consistency: doubling the replication count on the same
    # seed family does not increase the covariance error
    cfg, final_states, _ = normality_run
    rep_half = theory_report(cfg, final_states[:500])
    rep_full = theory_report(cfg, final_states)
    assert rep_full.cov_rel_error <= rep_half.cov_rel_error


def test_criterion_3_partial_transmission_passes_both_gates(tmp_path):
    # with b = 0.6 the driving noise is (W - B)(Y - P) at consensus; the
    # prediction from (W - I)(Y - P) missed both gates here (0.764 / 0.00)
    cfg = ss.load_config(CONFIG_DIR / "normality_n5.cfg")
    assert (cfg.replications, cfg.horizon, cfg.master_seed) == (1000, 500, 712)
    cfg = replace(cfg, b=0.6, threads=2, out_dir=str(tmp_path))
    summary = ss.run_experiment(cfg)
    assert summary.passed, summary.failures


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_lyapunov_integral_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst_rel = 0.0
    worst_res = 0.0
    n_cases = 50
    for _ in range(n_cases):
        dim = int(rng.integers(1, 13))
        raw = rng.normal(size=(dim, dim))
        margin = max(np.linalg.eigvals(raw).real.max(), 0.0) + rng.uniform(0.3, 1.5)
        a = raw - margin * np.eye(dim)
        g = rng.normal(size=(dim, dim))
        s0 = g @ g.T
        s = ss.lyapunov_solve(a, s0)
        worst_res = max(worst_res, ss.lyapunov_residual(a, s, s0))
        quad = lyapunov_quadrature(a, s0)
        worst_rel = max(
            worst_rel, float(np.linalg.norm(quad - s) / np.linalg.norm(s))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and worst_res <= 1e-10 and elapsed < 10.0
    report(
        4,
        "lyapunov vs quadrature",
        ok,
        f"{n_cases} cases, worst rel diff {worst_rel:.2e} (<= 1e-6), "
        f"worst residual {worst_res:.2e} (<= 1e-10), {elapsed:.1f}s",
    )
    assert worst_rel <= 1e-6
    assert worst_res <= 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 5


def _replay_martingale(tc, seed, freeze_k, n_replays, replay_seed):
    tr = ss.run_chunk(tc, [(0, seed)])
    frozen = dict(zip(tr.checkpoints, tr.snapshots[0]))[freeze_k]
    delta = tc.schedule.step_size(freeze_k + 1)
    model = tc.weight_model
    means = step_mean_matrices(model)
    wbar = means[(freeze_k + 1) % len(means)]
    b = tc.b[:, None]
    rng = reference_stream(replay_seed, 99)
    n, m = tc.n_agents, tc.n_opinions
    basis = ss.build_projection(n)
    samples = np.empty((n_replays, n * m))
    max_eps = 0.0
    p = np.empty_like(frozen)
    policy_matrix(tc.policy, frozen, delta, p)
    for r in range(n_replays):
        if model.kind == BIRKHOFF:
            perms = next(birkhoff_permutation_blocks(model, [rng], 1))[0, 0]
            w = birkhoff_weights(model, perms)
        else:
            w = model.support[0]
        y = draw_messages(p, rng.random(n))
        mart = _martingale_noise(w, wbar, b, y - p, p)
        samples[r] = mart.reshape(-1)
        max_eps = max(max_eps, float(np.linalg.norm(basis.t1 @ mart)))
    return samples, max_eps


def test_criterion_5_martingale_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    n_replays = 2000
    worst_score = 0.0
    worst_eps_frac = 0.0
    for pair in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 5))
        if pair % 2:
            model = ss.fixed_model(ss.metropolis_complete(n))
        else:
            model = ss.birkhoff_model(n, (0.4, 0.3, 0.3))
        b = np.ones(n) if pair % 3 else np.full(n, 0.6)
        initial = tuple(int(x) for x in rng.integers(1, m + 1, size=n))
        seed = int(rng.integers(0, 2**63))
        tc = ss.ExperimentConfig(
            n_agents=n,
            n_opinions=m,
            horizon=50,
            replications=1,
            master_seed=0,
            initial_samples=initial,
            weight_model=model,
            b=b,
            policy=ss.SamplingPolicy("direct"),
            schedule=ss.StepSchedule(1.0, 0.75, 0),
            stride=(5, 20, 50),
        )
        freeze_k = int(rng.choice([5, 20, 50]))
        samples, max_eps = _replay_martingale(
            tc, seed, freeze_k, n_replays, replay_seed=int(rng.integers(0, 2**63))
        )
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n_replays)
        # four standard errors, with a roundoff floor for exactly-zero noise
        allowance = np.maximum(4.0 * se, 1e-14)
        assert (np.abs(mean) <= allowance).all(), (
            f"pair {pair}: worst |mean|/allowance "
            f"{np.max(np.abs(mean) / allowance):.2f}"
        )
        worst_score = max(worst_score, float(np.max(np.abs(mean) / allowance)))
        worst_eps_frac = max(
            worst_eps_frac, max_eps / ss.noise_norm_bound(n, m)
        )
    elapsed = time.perf_counter() - t0
    ok = worst_eps_frac <= 1.0 and elapsed < 30.0
    report(
        5,
        "martingale property",
        ok,
        f"20 pairs x {n_replays} replays, worst |mean|/allowance {worst_score:.2f}, "
        f"noise/bound {worst_eps_frac:.3f}, {elapsed:.1f}s",
    )
    assert worst_eps_frac <= 1.0
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 6


def _random_switching_model(rng):
    n = int(rng.integers(2, 6))
    period = int(rng.integers(1, 4))
    mats = [
        random_doubly_stochastic(rng, n, n_perms=int(rng.integers(1, 3)))
        for _ in range(period)
    ]
    window = int(rng.integers(0, period + 1))
    return ss.switching_model(mats, tau=1e-9, window=window)


def _jointly_connected_bruteforce(model):
    mats = (
        list(model.support)
        if model.kind == "switching-periodic"
        else [ss.mean_matrix(model)]
    )
    period = len(mats)
    for offset in range(period):
        acc = sum(mats[(offset + s) % period] for s in range(model.window + 1))
        if not transitive_closure(np.asarray(acc) > 0).all():
            return False
    return True


def test_criterion_6_connectivity_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    cases = 0
    # exhaustive digraphs on three nodes
    off_diag = [(i, j) for i in range(3) for j in range(3) if i != j]
    for bits in itertools.product([False, True], repeat=len(off_diag)):
        adj = np.eye(3, dtype=bool)
        for (i, j), bit in zip(off_diag, bits):
            adj[i, j] = bit
        assert ss.strongly_connected(adj) == strongly_connected_bruteforce(adj)
        cases += 1
    # randomized digraphs up to five nodes
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        adj = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        assert ss.strongly_connected(adj) == strongly_connected_bruteforce(adj)
        cases += 1
    # windowed joint connectivity against the brute-force union closure
    for _ in range(300):
        model = _random_switching_model(rng)
        assert ss.jointly_connected(model) == _jointly_connected_bruteforce(model)
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = cases >= 1000 and elapsed < 5.0
    report(6, "connectivity oracle", ok, f"{cases} cases, {elapsed:.1f}s")
    assert cases >= 1000
    assert elapsed < 5.0


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_projection_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_orth = 0.0
    worst_annihilation = 0.0
    worst_reconstruction = 0.0
    for n in range(2, 51):
        basis = ss.build_projection(n)
        worst_orth = max(
            worst_orth,
            float(np.abs(basis.t @ basis.t.T - np.eye(n)).max()),
        )
        worst_annihilation = max(
            worst_annihilation, float(np.abs(basis.t1 @ np.ones(n)).max())
        )
        m = int(rng.integers(1, 6))
        q = rng.normal(size=(n, m))
        rebuilt = basis.t1.T @ (basis.t1 @ q) + q.mean(axis=0)
        worst_reconstruction = max(
            worst_reconstruction, float(np.abs(rebuilt - q).max())
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_orth <= 1e-12
        and worst_annihilation <= 1e-12
        and worst_reconstruction <= 1e-10
        and elapsed < 5.0
    )
    report(
        7,
        "projection correctness",
        ok,
        f"orthogonality {worst_orth:.2e}, annihilation {worst_annihilation:.2e}, "
        f"reconstruction {worst_reconstruction:.2e}, {elapsed:.1f}s",
    )
    assert worst_orth <= 1e-12
    assert worst_annihilation <= 1e-12
    assert worst_reconstruction <= 1e-10
    assert elapsed < 5.0


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_determinism_across_thread_counts(fullscale_run, tmp_path):
    cfg, summary, _ = fullscale_run
    threaded = replace(cfg, threads=2, out_dir=str(tmp_path / "threaded"))
    summary2 = ss.run_experiment(threaded)
    same = summary.summary_text == summary2.summary_text
    trace_same = (Path(summary.out_dir) / "traces.csv").read_bytes() == (
        Path(summary2.out_dir) / "traces.csv"
    ).read_bytes()
    report(
        8,
        "determinism across thread counts",
        same and trace_same,
        f"summaries identical: {same}, traces identical: {trace_same}",
    )
    assert same
    assert trace_same
