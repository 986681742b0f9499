import math

import numpy as np
import pytest

import socsamp as ss
from socsamp.analysis import StabilityError, lyapunov_residual, normality_test

from oracles import lyapunov_quadrature, random_doubly_stochastic


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
        xi = ss.reduce_state(q, basis)
        rebuilt = ss.reconstruct_state(xi, q.mean(axis=0), basis)
        np.testing.assert_allclose(rebuilt, q, atol=1e-10)


# ------------------------------------------------------------- consensus limit


def test_q_star_prediction_is_histogram():
    state0 = ss.initial_state([1, 1, 2, 3], 3)
    np.testing.assert_allclose(ss.q_star_prediction(state0), [0.5, 0.25, 0.25])


def test_q_star_prediction_single_agent():
    state0 = ss.StackedState(np.array([[0.3, 0.7]]))
    np.testing.assert_allclose(ss.q_star_prediction(state0), [0.3, 0.7])


# ------------------------------------------------------------- reduced drift


def test_reduced_drift_uniform_mean_is_minus_identity():
    n, m = 6, 3
    basis = ss.build_projection(n)
    rd = ss.reduced_drift(ss.metropolis_complete(n), basis, m, 0.0)
    np.testing.assert_allclose(rd.fbar, -np.eye((n - 1) * m), atol=1e-12)
    assert rd.lambda2 == pytest.approx(0.0, abs=1e-12)


def test_reduced_drift_identity_mean_fails_stability():
    basis = ss.build_projection(3)
    with pytest.raises(StabilityError) as err:
        ss.reduced_drift(np.eye(3), basis, 2, 0.0)
    assert err.value.lambda2 == pytest.approx(1.0)
    assert "lambda2" in str(err.value)


def test_reduced_drift_two_agent_scalar():
    basis = ss.build_projection(2)
    rd = ss.reduced_drift(np.array([[0.75, 0.25], [0.25, 0.75]]), basis, 1, 0.0)
    np.testing.assert_allclose(rd.fbar, [[-0.5]], atol=1e-14)


def test_reduced_drift_negative_semidefinite(rng):
    for _ in range(15):
        n = int(rng.integers(2, 8))
        wbar = random_doubly_stochastic(rng, n)
        basis = ss.build_projection(n)
        try:
            rd = ss.reduced_drift(wbar, basis, 2, 0.0)
        except StabilityError:
            continue
        eigs = np.linalg.eigvalsh(rd.fbar + rd.fbar.T)
        assert eigs.max() <= 1e-10


def test_reduced_drift_shift_uses_delta():
    basis = ss.build_projection(4)
    rd = ss.reduced_drift(ss.metropolis_complete(4), basis, 2, 0.5)
    np.testing.assert_allclose(rd.shifted, rd.fbar + 0.25 * np.eye(6), atol=1e-14)
    # strict inequality in the stability check
    with pytest.raises(StabilityError):
        ss.reduced_drift(np.eye(4), basis, 2, 0.0)


# ------------------------------------------------------------- driving noise


def test_s0_zero_for_vertex_limit():
    n, m = 3, 2
    basis = ss.build_projection(n)
    sigma = ss.categorical_covariance(np.array([1.0, 0.0]), n)
    s0 = ss.s0_matrix(ss.fixed_model(ss.metropolis_complete(n)), basis, sigma, m)
    np.testing.assert_allclose(s0, 0.0, atol=1e-14)


def test_s0_zero_for_identity_mean():
    n, m = 3, 2
    basis = ss.build_projection(n)
    sigma = np.eye(n * m)
    s0 = ss.s0_matrix(np.eye(n), basis, sigma, m)
    np.testing.assert_allclose(s0, 0.0, atol=1e-14)


def test_s0_two_agent_scalar_formula():
    n, m = 2, 1
    basis = ss.build_projection(n)
    wbar = np.array([[0.75, 0.25], [0.25, 0.75]])
    sigma2 = 0.37
    s0 = ss.s0_matrix(wbar, basis, sigma2 * np.eye(2), m)
    row = (basis.t1 @ (wbar - np.eye(2))).reshape(-1)
    expected = sigma2 * float(row @ row)
    np.testing.assert_allclose(s0, [[expected]], atol=1e-14)


def test_s0_symmetric_psd(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        basis = ss.build_projection(n)
        wbar = random_doubly_stochastic(rng, n)
        q = rng.dirichlet(np.ones(m))
        sigma = ss.categorical_covariance(q, n)
        s0 = ss.s0_matrix(wbar, basis, sigma, m)
        np.testing.assert_allclose(s0, s0.T, atol=1e-14)
        assert np.linalg.eigvalsh(s0).min() >= -1e-12


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


# ------------------------------------------------------------- embedding


def test_s_tilde_zero_map():
    basis = ss.build_projection(3)
    np.testing.assert_array_equal(
        ss.s_tilde(np.zeros((4, 4)), basis, 2), np.zeros((6, 6))
    )


def test_s_tilde_two_agent_hand_kronecker():
    basis = ss.build_projection(2)
    s = np.array([[0.8]])
    out = ss.s_tilde(s, basis, 1)
    np.testing.assert_allclose(out, 0.4 * np.array([[1, -1], [-1, 1]]), atol=1e-14)


def test_s_tilde_consensus_direction_null(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        basis = ss.build_projection(n)
        g = rng.normal(size=((n - 1) * m, (n - 1) * m))
        out = ss.s_tilde(g @ g.T, basis, m)
        ones = np.kron(np.ones(n), np.eye(m))
        np.testing.assert_allclose(ones @ out @ ones.T, 0.0, atol=1e-10)
        assert np.linalg.eigvalsh(out).min() >= -1e-10


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
    # uniform mean graph: s = s0 / 2 exactly
    np.testing.assert_allclose(rep.s, rep.s0 / 2, atol=1e-12)
