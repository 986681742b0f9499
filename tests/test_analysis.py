import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import socsamp as ss
from socsamp.analysis import (
    StabilityError,
    _kolmogorov_sf,
    _ks_normal_pvalue,
    lyapunov_residual,
    normality_test,
    weight_noise_moment,
)
from socsamp.harness import load_config, theory_report, write_report
from socsamp.network import birkhoff_permutation_blocks, birkhoff_weights, iid_picks
from socsamp.sampling import WEIGHT_DOMAIN, substreams

from oracles import (
    dense_asymptotic_covariance,
    lyapunov_quadrature,
    random_doubly_stochastic,
)


# ------------------------------------------------------------- projection


def test_projection_two_agents():
    basis = ss.build_projection(2)
    expected = np.array([1.0, -1.0]) / math.sqrt(2)
    row = basis.t1[0]
    assert np.allclose(row, expected) or np.allclose(row, -expected)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 50])
def test_projection_orthogonality(n):
    basis = ss.build_projection(n)
    np.testing.assert_allclose(basis.t @ basis.t.T, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(basis.t1 @ np.ones(n), 0.0, atol=1e-12)
    np.testing.assert_allclose(basis.t1 @ basis.t1.T, np.eye(n - 1), atol=1e-12)
    np.testing.assert_allclose(basis.t[-1], np.full(n, 1 / math.sqrt(n)), atol=1e-12)


def test_projection_deterministic_across_calls():
    a, b = ss.build_projection(9), ss.build_projection(9)
    np.testing.assert_array_equal(a.t, b.t)


def test_projection_rejects_single_agent():
    with pytest.raises(ValueError):
        ss.build_projection(1)


def test_reduced_coordinate_reconstruction(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 6))
        basis = ss.build_projection(n)
        q = rng.normal(size=(n, m))
        # the disagreement rows and the network average together give q back
        rebuilt = basis.t1.T @ (basis.t1 @ q) + q.mean(axis=0)
        np.testing.assert_allclose(rebuilt, q, atol=1e-10)


# ------------------------------------------------------------- consensus limit


def test_q_star_prediction_is_histogram():
    state0 = ss.initial_state([1, 1, 2, 3], 3)
    np.testing.assert_allclose(ss.q_star_prediction(state0), [0.5, 0.25, 0.25])


def test_q_star_prediction_single_agent():
    state0 = np.array([[0.3, 0.7]])
    np.testing.assert_allclose(ss.q_star_prediction(state0), [0.3, 0.7])


# ------------------------------------------------------------- reduced drift


def test_reduced_drift_uniform_mean_is_minus_identity():
    n = 6
    basis = ss.build_projection(n)
    rd = ss.reduced_drift(ss.metropolis_complete(n), basis, 0.0)
    np.testing.assert_allclose(rd.fbar, -np.eye(n - 1), atol=1e-12)
    assert rd.lambda2 == pytest.approx(0.0, abs=1e-12)


def test_reduced_drift_identity_mean_fails_stability():
    basis = ss.build_projection(3)
    with pytest.raises(StabilityError) as err:
        ss.reduced_drift(np.eye(3), basis, 0.0)
    assert err.value.lambda2 == pytest.approx(1.0)
    assert "lambda2" in str(err.value)


def test_reduced_drift_two_agent_scalar():
    basis = ss.build_projection(2)
    rd = ss.reduced_drift(np.array([[0.75, 0.25], [0.25, 0.75]]), basis, 0.0)
    np.testing.assert_allclose(rd.fbar, [[-0.5]], atol=1e-14)


def test_reduced_drift_negative_semidefinite(rng):
    for _ in range(15):
        n = int(rng.integers(2, 8))
        wbar = random_doubly_stochastic(rng, n)
        basis = ss.build_projection(n)
        try:
            rd = ss.reduced_drift(wbar, basis, 0.0)
        except StabilityError:
            continue
        assert rd.fbar.shape == (n - 1, n - 1)
        eigs = np.linalg.eigvalsh(rd.fbar + rd.fbar.T)
        assert eigs.max() <= 1e-10


def test_reduced_drift_shift_uses_delta():
    basis = ss.build_projection(4)
    rd = ss.reduced_drift(ss.metropolis_complete(4), basis, 0.5)
    np.testing.assert_allclose(rd.shifted, rd.fbar + 0.25 * np.eye(3), atol=1e-14)
    # strict inequality in the stability check
    with pytest.raises(StabilityError):
        ss.reduced_drift(np.eye(4), basis, 0.0)


# ------------------------------------------------------------- driving noise


def test_s0_zero_for_vertex_limit():
    n = 3
    basis = ss.build_projection(n)
    c = ss.categorical_covariance(np.array([1.0, 0.0]), 1)
    g = ss.s0_matrix(ss.fixed_model(ss.metropolis_complete(n)), 1.0, basis)
    np.testing.assert_allclose(c, 0.0, atol=1e-14)
    np.testing.assert_allclose(np.kron(g, c), 0.0, atol=1e-14)


def test_s0_zero_for_identity_mean():
    basis = ss.build_projection(3)
    g = ss.s0_matrix(ss.fixed_model(np.eye(3)), 1.0, basis)
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_s0_two_agent_scalar_formula():
    basis = ss.build_projection(2)
    wbar = np.array([[0.75, 0.25], [0.25, 0.75]])
    sigma2 = 0.37
    g = ss.s0_matrix(ss.fixed_model(wbar), 1.0, basis)
    row = (basis.t1 @ (wbar - np.eye(2))).reshape(-1)
    np.testing.assert_allclose(g, [[float(row @ row)]], atol=1e-14)
    # one opinion with message variance sigma2: s0 = kron(g, [[sigma2]])
    expected = sigma2 * float(row @ row)
    np.testing.assert_allclose(np.kron(g, [[sigma2]]), [[expected]], atol=1e-14)


# transmission coefficients with every case: 1, strictly between, and 0
MIXED_B = np.array([1.0, 0.6, 0.0, 0.85, 0.3])


def assert_mean_of_draws(moment, weights, b):
    """``moment`` against the mean of ``(W - B)(W - B).T`` over the ``weights``
    drawn, entry by entry within five standard errors of that mean."""
    v = weights - np.diag(b)
    products = v @ v.swapaxes(-1, -2)
    mean = products.mean(axis=0)
    stderr = products.std(axis=0, ddof=1) / math.sqrt(len(products))
    assert np.all(np.abs(mean - moment) <= 5.0 * stderr + 1e-12), (mean - moment) / stderr


@pytest.mark.parametrize("b", [1.0, MIXED_B], ids=["b-1", "b-mixed"])
def test_weight_noise_moment_birkhoff_matches_kernel_draws(b):
    model = ss.birkhoff_model(5, (0.4, 0.35, 0.25))
    perms = np.concatenate(
        list(birkhoff_permutation_blocks(model, substreams(range(4), WEIGHT_DOMAIN), 5000)),
        axis=1,
    )
    weights = birkhoff_weights(model, perms).reshape(-1, 5, 5)
    assert_mean_of_draws(weight_noise_moment(model, b), weights, np.broadcast_to(b, 5))


@pytest.mark.parametrize("b", [1.0, MIXED_B], ids=["b-1", "b-mixed"])
def test_weight_noise_moment_iid_matches_kernel_draws(b):
    rng = np.random.default_rng(31)
    support = [random_doubly_stochastic(rng, 5) for _ in range(3)]
    model = ss.iid_model(support, (0.5, 0.3, 0.2), tau=1e-9)
    picks = iid_picks(model, substreams(range(4), WEIGHT_DOMAIN), 5000)
    weights = np.stack(model.support)[picks.reshape(-1)]
    assert_mean_of_draws(weight_noise_moment(model, b), weights, np.broadcast_to(b, 5))


def test_weight_noise_moment_fixed_and_switching_are_exact():
    rng = np.random.default_rng(32)
    mats = [random_doubly_stochastic(rng, 5) for _ in range(3)]
    v = [w - np.diag(MIXED_B) for w in mats]
    np.testing.assert_allclose(
        weight_noise_moment(ss.fixed_model(mats[0], tau=1e-9), MIXED_B),
        v[0] @ v[0].T, rtol=0.0, atol=1e-15,
    )
    # one period of the matrices the kernel steps with, support[k % 3]
    period = [v[k % 3] @ v[k % 3].T for k in range(1, 4)]
    np.testing.assert_allclose(
        weight_noise_moment(ss.switching_model(mats, tau=1e-9), MIXED_B),
        sum(period) / 3, rtol=0.0, atol=1e-15,
    )


def test_s0_fixed_unit_b_keeps_l_lt_and_agrees_with_the_moment(rng):
    # a fixed network with every b_ii = 1 computes g = L L.T, bit for bit as
    # before the moment existed, and the moment gives the same g to rounding
    for n in (2, 5, 9):
        basis = ss.build_projection(n)
        wbar = random_doubly_stochastic(rng, n)
        model = ss.fixed_model(wbar, tau=1e-9)
        left = basis.t1 @ (wbar - np.eye(n))
        g = left @ left.T
        np.testing.assert_array_equal(ss.s0_matrix(model, 1.0, basis), (g + g.T) / 2.0)
        moment = basis.t1 @ weight_noise_moment(model, 1.0) @ basis.t1.T
        np.testing.assert_allclose(moment, g, rtol=0.0, atol=1e-14)
        # b != 1 changes g: B (Y - P) no longer cancels the self-weight
        assert not np.allclose(ss.s0_matrix(model, 0.6, basis), g)


def test_s0_symmetric_psd(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        basis = ss.build_projection(n)
        wbar = random_doubly_stochastic(rng, n)
        g = ss.s0_matrix(ss.fixed_model(wbar, tau=1e-9), 1.0, basis)
        c = ss.categorical_covariance(rng.dirichlet(np.ones(m)), 1)
        assert g.shape == (n - 1, n - 1)
        np.testing.assert_array_equal(g, g.T)
        np.testing.assert_allclose(c, c.T, atol=1e-14)
        assert np.linalg.eigvalsh(g).min() >= -1e-12
        assert np.linalg.eigvalsh(c).min() >= -1e-12
        assert np.linalg.eigvalsh(np.kron(g, c)).min() >= -1e-12


# ------------------------------------------------------------- lyapunov


def test_lyapunov_minus_identity():
    s = ss.lyapunov_solve(-np.eye(4), np.eye(4))
    np.testing.assert_allclose(s, 0.5 * np.eye(4), atol=1e-12)


def test_lyapunov_scalar():
    s = ss.lyapunov_solve(np.array([[-0.5]]), np.array([[0.25]]))
    np.testing.assert_allclose(s, [[0.25]], atol=1e-12)
    quad = lyapunov_quadrature(np.array([[-0.5]]), np.array([[0.25]]))
    np.testing.assert_allclose(s, quad, atol=1e-8)


def test_lyapunov_diagonal():
    a = np.diag([-1.0, -2.0])
    s = ss.lyapunov_solve(a, np.eye(2))
    np.testing.assert_allclose(s, np.diag([0.5, 0.25]), atol=1e-12)
    np.testing.assert_allclose(lyapunov_quadrature(a, np.eye(2)), s, atol=1e-8)


def test_lyapunov_rejects_unstable():
    with pytest.raises(ValueError, match="not stable"):
        ss.lyapunov_solve(np.array([[0.1]]), np.array([[1.0]]))


def test_lyapunov_residual_invariant(rng):
    for _ in range(20):
        d = int(rng.integers(1, 10))
        raw = rng.normal(size=(d, d))
        a = raw - (max(np.linalg.eigvals(raw).real.max(), 0) + 0.5) * np.eye(d)
        g = rng.normal(size=(d, d))
        s0 = g @ g.T
        s = ss.lyapunov_solve(a, s0)
        assert lyapunov_residual(a, s, s0) <= 1e-10


def test_lyapunov_residual_kronecker_factor(rng):
    # the factored residual is the dense residual of kron(s, c), also far
    # from a solution
    for _ in range(10):
        d, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        a, s, s0 = (rng.normal(size=(d, d)) for _ in range(3))
        c = ss.categorical_covariance(rng.dirichlet(np.ones(m)), 1)
        dense = lyapunov_residual(
            np.kron(a, np.eye(m)), np.kron(s, c), np.kron(s0, c)
        )
        assert lyapunov_residual(a, s, s0, c) == pytest.approx(dense, rel=1e-12)


# ------------------------------------------------------------- embedding


def test_s_tilde_zero_map():
    basis = ss.build_projection(3)
    np.testing.assert_array_equal(ss.s_tilde(np.zeros((2, 2)), basis), np.zeros((3, 3)))


def test_s_tilde_two_agent_hand_kronecker():
    basis = ss.build_projection(2)
    out = ss.s_tilde(np.array([[0.8]]), basis)
    np.testing.assert_allclose(out, 0.4 * np.array([[1, -1], [-1, 1]]), atol=1e-14)


def test_s_tilde_consensus_direction_null(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        basis = ss.build_projection(n)
        g = rng.normal(size=(n - 1, n - 1))
        out = ss.s_tilde(g @ g.T, basis)
        np.testing.assert_allclose(np.ones(n) @ out, 0.0, atol=1e-10)
        assert np.linalg.eigvalsh(out).min() >= -1e-10


# ------------------------------------------------------------- factored vs dense


def rel_error(factored, dense):
    # exact zeros on both sides (a vertex q*) count as agreement
    return float(np.linalg.norm(factored - dense) / max(np.linalg.norm(dense), 1e-300))


def assert_matches_dense(rep, dense, n, tol=1e-12):
    np.testing.assert_array_equal(np.kron(np.eye(n), rep.c), dense["sigma"])
    assert rel_error(np.kron(rep.g, rep.c), dense["s0"]) <= tol
    assert rel_error(np.kron(rep.x, rep.c), dense["s"]) <= tol
    assert rel_error(np.kron(rep.x_tilde, rep.c), dense["s_tilde"]) <= tol


def test_factored_covariance_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    solved = dict.fromkeys((0.0, 1.0), 0)
    vertices = 0
    for _ in range(60):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 6))
        delta = float(rng.choice([0.0, 1.0]))
        wbar = random_doubly_stochastic(rng, n)
        if delta:
            # mixing toward the uniform mean keeps lambda2 below 1/2 more often
            wbar = 0.5 * wbar + 0.5 / n
        vertex = rng.random() < 0.5
        if vertex:
            q_star = np.eye(m)[rng.integers(m)]  # c = 0
        else:
            q_star = rng.dirichlet(np.ones(m))
        model = ss.fixed_model(wbar, tau=1e-9)
        try:
            rep = ss.asymptotic_report(model, delta, q_star, m)
        except StabilityError:
            continue
        solved[delta] += 1
        vertices += vertex
        assert rep.x.shape == rep.g.shape == (n - 1, n - 1)
        assert rep.x_tilde.shape == (n, n) and rep.c.shape == (m, m)
        assert rep.lyapunov_residual <= 1e-10
        assert_matches_dense(rep, dense_asymptotic_covariance(wbar, q_star, delta), n)
    assert min(solved.values()) >= 10, solved
    assert 10 <= vertices <= sum(solved.values()) - 10


def test_factored_covariance_matches_dense_oracle_at_n150():
    # the size of the analyze benchmark: 150 agents, 4 opinions
    n, m = 150, 4
    wbar = ss.metropolis_complete(n)
    q_star = np.array([0.3, 0.3, 0.25, 0.15])
    rep = ss.asymptotic_report(ss.fixed_model(wbar), 1.0, q_star, m)
    assert rep.x.shape == (n - 1, n - 1)
    assert_matches_dense(rep, dense_asymptotic_covariance(wbar, q_star, 1.0), n)


# ------------------------------------------------------------- monte carlo


def test_empirical_covariance_degenerate_trials():
    n, m = 3, 2
    basis = ss.build_projection(n)
    state = ss.initial_state([1, 2, 2], m)
    cov, samples = ss.empirical_scaled_covariance(
        [state, state, state], ss.network_average(state), basis, 0.1
    )
    np.testing.assert_allclose(cov, 0.0, atol=1e-20)
    assert samples.shape == (3, (n - 1) * m)


def test_empirical_covariance_needs_two_trials():
    basis = ss.build_projection(2)
    state = ss.initial_state([1, 2], 2)
    with pytest.raises(ValueError, match="two trials"):
        ss.empirical_scaled_covariance([state], np.array([0.5, 0.5]), basis, 0.1)


def test_normality_self_test_against_null():
    rng = np.random.default_rng(1)
    reps, npts = 400, 1000
    passes = 0
    for _ in range(reps):
        res = normality_test(rng.normal(size=(npts, 1)), np.array([1.0]))
        passes += res.pass_fraction == 1.0
    assert passes / reps >= 0.99


def test_normality_rejects_uniform_samples():
    rng = np.random.default_rng(3)
    samples = rng.uniform(-1, 1, size=(1000, 1))
    res = normality_test(samples, np.array([1.0]))
    assert res.p_values[0] < 0.01
    assert res.pass_fraction == 0.0


def test_normality_excludes_degenerate_components():
    rng = np.random.default_rng(4)
    samples = np.column_stack([rng.normal(size=500), np.zeros(500)])
    res = normality_test(samples, np.array([1.0, 0.0]))
    assert res.degenerate == [1]
    assert np.isnan(res.p_values[1])
    assert res.pass_fraction == 1.0


def test_normality_flags_anomalous_components():
    rng = np.random.default_rng(5)
    samples = np.column_stack([rng.normal(size=500), rng.normal(size=500)])
    res = normality_test(samples, np.array([1.0, 0.0]))
    assert res.anomalies == [1]
    assert res.pass_fraction == pytest.approx(0.5)


# The in-package KS p-value must reproduce scipy's exact test bit for bit;
# scipy.stats is imported here only as the oracle.


@pytest.mark.parametrize("n", [1, 2, 5, 20, 139, 140, 141, 1000, 2000])
def test_ks_pvalue_matches_scipy_kstest(n):
    import scipy.stats

    rng = np.random.default_rng(n)
    draws = [
        rng.normal(size=n),
        rng.normal(size=n) + 0.3,  # shifted
        1.5 * rng.normal(size=n),  # scaled
        rng.standard_t(2, size=n),  # heavy tails
    ]
    for z in draws:
        assert _ks_normal_pvalue(z) == float(scipy.stats.kstest(z, "norm").pvalue)


def _kolmogorov_branch(n, d):
    """The method Simard & L'Ecuyer's dispatch picks for ``Pr(D_n > d)``."""
    t, nx2 = n * d, n * d * d
    if d <= 0.5 / n or d >= 1:
        return "support edge"
    if t <= 1:
        if t <= 0.5:
            return "t <= 0.5"
        return "Ruben-Gambino, n <= 140" if n <= 140 else "Ruben-Gambino, n > 140"
    if t >= n - 1:
        return "t >= n - 1"
    if d >= 0.5:
        return "x >= 0.5"
    if n <= 140:
        if nx2 <= 0.754693:
            return "DMTW, n <= 140"
        return "Pomeranz" if nx2 <= 4 else "2 smirnov, n <= 140"
    if nx2 >= 370:
        return "nx^2 >= 370"
    if nx2 >= 2.2:
        return "2 smirnov, n > 140"
    if n <= 100000 and n * d**1.5 <= 1.4:
        return "DMTW, n > 140"
    return "Pelz-Good"


def _kolmogorov_grid():
    """(n, d) points on both sides of every threshold of the dispatch."""
    # at n = 100001 only 2 smirnov still reads above 0 just below nx^2 = 370;
    # d = 2e-5 takes Pelz-Good below z = 0.0417, where it is 0
    points = [(100000, 5e-4), (100001, 5e-4), (100001, 2e-5)]
    for n in (1, 2, 3, 5, 20, 139, 140, 141, 1000, 2000, 100001):
        ds = list(np.linspace(0.0, 1.0, 41))
        ds += [0.5 / n, np.nextafter(0.5 / n, 1.0), 0.75 / n, 1.0 / n, 1.5 / n,
               (n - 1) / n, np.nextafter((n - 1) / n, 0.0), 0.5,
               np.nextafter(0.5, 0.0)]
        for c in (0.754693, 2.2, 4.0, 370.0):
            ds += [math.sqrt(c / n) * (1 - 2e-3), math.sqrt(c / n) * (1 + 2e-3)]
        knee = (1.4 / n) ** (2 / 3)  # n d**1.5 = 1.4
        ds += [knee * (1 - 2e-3), knee * (1 + 2e-3), 2 * knee]
        points += [(n, float(d)) for d in ds if 0.0 <= d <= 1.0]
    return points


def test_kolmogorov_sf_matches_scipy_kstwo_on_every_branch():
    import scipy.stats

    grid = _kolmogorov_grid()
    assert {_kolmogorov_branch(n, d) for n, d in grid} == {
        "support edge", "t <= 0.5", "Ruben-Gambino, n <= 140",
        "Ruben-Gambino, n > 140", "t >= n - 1", "x >= 0.5", "DMTW, n <= 140",
        "Pomeranz", "2 smirnov, n <= 140", "nx^2 >= 370", "2 smirnov, n > 140",
        "DMTW, n > 140", "Pelz-Good",
    }
    for n, d in grid:
        expected = float(scipy.stats.kstwo.sf(d, n))
        assert _kolmogorov_sf(np.float64(d), n) == expected, (n, d)


def test_ks_pvalue_of_a_sample_with_nan_is_nan():
    rng = np.random.default_rng(7)
    for n in (3, 200):  # 200 would reach Pelz-Good with a NaN statistic
        z = rng.normal(size=n)
        z[1] = np.nan
        assert math.isnan(_ks_normal_pvalue(z))
    res = normality_test(np.array([[0.1], [np.nan], [0.3]]), np.array([1.0]))
    assert math.isnan(res.p_values[0]) and res.pass_fraction == 0.0


ROOT = Path(__file__).resolve().parent.parent

# after each command, prints "modules" and a JSON pair: its exit code and
# the scipy and numpy.ma modules loaded so far
SCIPY_BOUNDARY_SCRIPT = """
import json, sys
from socsamp.cli import main
from socsamp.harness import load_config

def report(code):
    mods = [m for m in sys.modules if m.partition(".")[0] == "scipy"
            or m == "numpy.ma" or m.startswith("numpy.ma.")]
    print("modules", json.dumps([code, sorted(mods)]))

consensus, censored, normality, out = sys.argv[1:]
report(None)
report(main(["check", consensus]))
report(main(["simulate", censored, "--replications", "1", "--out", out]))
report(main(["replay", censored, "--trial", "0", "--stride", "log", "--out", out]))
load_config(normality)
report(None)
"""


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    # scipy loads only for configs that ask for theory: importing the CLI
    # and checking, simulating or replaying a config without covariance or
    # normality loads no scipy module (nor numpy.ma), and loading a theory
    # config loads the two modules its theory uses.  scipy.stats, most of
    # scipy's import time, stays out in every case.
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_BOUNDARY_SCRIPT,
         str(ROOT / "configs" / "consensus_n50.cfg"),
         str(ROOT / "perfbench" / "configs" / "random_censored.cfg"),
         str(ROOT / "configs" / "normality_n5.cfg"),
         str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    steps = [json.loads(line.removeprefix("modules "))
             for line in out.stdout.splitlines() if line.startswith("modules ")]
    assert steps[:4] == [[None, []], [0, []], [0, []], [0, []]]
    theory = set(steps[4][1])
    assert {"scipy.linalg", "scipy.special"} <= theory
    assert "scipy.stats" not in theory  # scipy itself loads numpy.ma


def test_cli_analyze_without_theory_checks_writes_the_in_process_report(tmp_path):
    # consensus_n50 asks for neither covariance nor normality, so a fresh
    # process loads scipy.linalg only when analyze reaches the Lyapunov solve
    config = ROOT / "configs" / "consensus_n50.cfg"
    subprocess.run(
        [sys.executable, "-m", "socsamp.cli", "analyze", str(config),
         "--out", str(tmp_path / "cli")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    cfg = load_config(config)
    assert not (cfg.covariance or cfg.normality)
    expected = write_report(theory_report(cfg), tmp_path / "api")
    assert (tmp_path / "cli" / "report.txt").read_bytes() == expected.read_bytes()


# ------------------------------------------------------------- diagnostics


def test_joint_stability_margin_positive_when_connected():
    basis = ss.build_projection(4)
    model = ss.fixed_model(ss.metropolis_complete(4))
    assert ss.joint_stability_margin(model, basis) > 0.5


def test_joint_stability_margin_zero_for_identity():
    basis = ss.build_projection(3)
    model = ss.fixed_model(np.eye(3))
    assert ss.joint_stability_margin(model, basis) == pytest.approx(0.0, abs=1e-12)


def test_asymptotic_report_theory_only():
    model = ss.fixed_model(ss.metropolis_complete(5))
    q_star = np.array([0.4, 0.4, 0.2])
    rep = ss.asymptotic_report(model, 0.0, q_star, 3)
    assert rep.lambda2 == pytest.approx(0.0, abs=1e-12)
    assert rep.lyapunov_residual <= 1e-10
    assert rep.empirical_cov is None
    # uniform mean graph: x = g / 2 exactly, so s = s0 / 2
    np.testing.assert_allclose(rep.x, rep.g / 2, atol=1e-12)


def test_asymptotic_report_refuses_trials_at_a_vertex():
    # the predicted covariance is zero at a vertex; the relative error of an
    # empirical covariance against it would be 0/0
    model = ss.fixed_model(ss.metropolis_complete(5))
    q_star = np.array([0.0, 1.0, 0.0])
    finals = [np.tile(q_star, (5, 1))] * 4
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="q\\* is a vertex"):
            ss.asymptotic_report(
                model, 0.0, q_star, 3, final_states=finals, final_step_size=0.1
            )
