"""Theoretical predictions and statistical verification.

The state space splits orthogonally into the consensus line (multiples of the
all-ones vector per component) and the disagreement subspace picked out by the
rows of ``T1``.  Consensus means the reduced coordinate
``xi = (T1 kron I_M) Q`` vanishes; scaled by the square root of the step size
it converges in distribution to a zero-mean normal whose covariance ``S``
solves a continuous Lyapunov equation driven by the network and message
noise.  The network acts on agents and the message noise on opinions, so
``S = kron(x, c)`` with an (n-1)-square agent factor ``x`` and the M-square
message covariance ``c``; only the factors are built.  This module builds
those objects and compares them against Monte Carlo trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.stats

from .network import mean_matrix, spectral_gap, step_mean_matrices
from .sampling import categorical_covariance
from .state import as_opinion_vector, network_average

DEGENERATE_VARIANCE = 1e-12


class StabilityError(ValueError):
    """Raised when the mean network does not mix fast enough for the
    asymptotic-normality covariance to exist."""

    def __init__(self, lambda2, delta):
        super().__init__(
            "asymptotic-normality stability condition failed: "
            f"lambda2 = {lambda2:.12g} is not below 1 - delta/2 = {1 - delta / 2:.12g}"
        )
        self.lambda2 = lambda2
        self.delta = delta


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthogonal split of agent space into disagreement rows and the mean.

    ``t`` is an orthogonal n-by-n matrix whose last row is ``1/sqrt(n)`` in
    every entry; ``t1`` holds the first n-1 rows, so ``t1 @ ones == 0`` and
    ``t1 @ t1.T == I``.  Built from a fixed Householder reflection, hence
    identical across runs and platforms.
    """

    t1: np.ndarray
    t: np.ndarray

    @property
    def n_agents(self):
        return self.t.shape[0]


def build_projection(n):
    if n < 2:
        raise ValueError("need at least two agents for a disagreement basis")
    # Householder reflection carrying e_n to the normalized all-ones vector
    v = np.full(n, -1.0 / math.sqrt(n))
    v[n - 1] += 1.0
    t = np.eye(n) - np.outer(v, v) * (2.0 / (v @ v))
    t1 = np.ascontiguousarray(t[:-1])
    t = np.ascontiguousarray(t)
    t1.setflags(write=False)
    t.setflags(write=False)
    return ProjectionBasis(t1=t1, t=t)


def q_star_prediction(state0):
    """Consensus limit in the conserving regime (b_ii = 1): the initial average."""
    return network_average(state0)


def disagreement_rows(wbar, basis):
    """``L = T1 (wbar - I)``: the mean drift seen from the disagreement rows."""
    wbar = np.asarray(wbar, dtype=float)
    return basis.t1 @ (wbar - np.eye(basis.n_agents))


@dataclass(frozen=True)
class ReducedDrift:
    """Mean drift restricted to the disagreement subspace, plus its shift.

    Both are (n-1)-by-(n-1) agent-space cores: the drift of the reduced
    coordinate is ``kron(fbar, I_M)``, the same for every opinion.
    ``fbar + fbar.T`` is negative semidefinite for any doubly stochastic
    mean; the shifted matrix must be strictly stable for the asymptotic
    covariance to exist.
    """

    fbar: np.ndarray
    shifted: np.ndarray
    lambda2: float
    delta: float


def reduced_drift(wbar, basis, delta):
    """Build the reduced drift core ``L T1.T`` and verify the stability condition.

    Raises :class:`StabilityError` when ``lambda2 >= 1 - delta/2``.
    """
    wbar = np.asarray(wbar, dtype=float)
    lam2 = 1.0 - spectral_gap(wbar)
    if not lam2 < 1.0 - delta / 2.0:
        raise StabilityError(lam2, delta)
    fbar = disagreement_rows(wbar, basis) @ basis.t1.T
    shifted = fbar + (delta / 2.0) * np.eye(fbar.shape[0])
    return ReducedDrift(fbar=fbar, shifted=shifted, lambda2=lam2, delta=delta)


def s0_matrix(wbar, basis):
    """Agent-space factor ``g = L L.T`` of the reduced driving noise, where
    ``L`` is :func:`disagreement_rows` of the mean matrix ``wbar``.

    Every agent's message has the same limit covariance ``c``, so the
    driving noise is ``kron(L, I) kron(I_N, c) kron(L, I).T = kron(g, c)``.
    """
    left = disagreement_rows(wbar, basis)
    g = left @ left.T
    return (g + g.T) / 2.0


def lyapunov_solve(a, s0, residual_tol=1e-10):
    """Solve ``a s + s a.T = -s0`` for the stationary covariance ``s``.

    Equals the integral of ``expm(a t) s0 expm(a.T t)`` over t >= 0, which
    exists because all eigenvalues of ``a`` must have negative real part.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    s0 = np.atleast_2d(np.asarray(s0, dtype=float))
    eigs = np.linalg.eigvals(a)
    worst = eigs[np.argmax(eigs.real)]
    if worst.real >= 0:
        raise ValueError(
            f"matrix is not stable: eigenvalue {worst:.12g} has nonnegative real part"
        )
    s = scipy.linalg.solve_continuous_lyapunov(a, -s0)
    s = (s + s.T) / 2.0
    scale = max(1.0, float(np.linalg.norm(s0)))
    for _ in range(3):
        residual = a @ s + s @ a.T + s0
        if np.linalg.norm(residual) <= residual_tol * scale:
            break
        correction = scipy.linalg.solve_continuous_lyapunov(a, -residual)
        s = s + (correction + correction.T) / 2.0
    return s


def lyapunov_residual(a, s, s0, c=None):
    """Frobenius norm of ``a s + s a.T + s0`` relative to ``max(1, |s0|)``.

    With a factor ``c``, the same for the Kronecker-factored equation with
    drift ``kron(a, I)``, source ``kron(s0, c)`` and solution ``kron(s, c)``:
    its residual is ``kron(a s + s a.T + s0, c)``, whose norm is the product
    of the factors' norms.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    s0 = np.atleast_2d(np.asarray(s0, dtype=float))
    c_norm = 1.0 if c is None else float(np.linalg.norm(c))
    residual = np.linalg.norm(a @ s + s @ a.T + s0) * c_norm
    return float(residual / max(1.0, np.linalg.norm(s0) * c_norm))


def s_tilde(x, basis):
    """Embed the agent-space factor into the full agent space: ``T1.T x T1``.

    The full-space covariance is ``kron(s_tilde(x), c)``.  The embedding has
    no variance along the consensus direction: ``ones @ s_tilde(x) == 0``.
    """
    out = basis.t1.T @ np.atleast_2d(np.asarray(x, dtype=float)) @ basis.t1
    return (out + out.T) / 2.0


def empirical_scaled_covariance(final_states, q_ref, basis, delta_k):
    """Sample covariance of the scaled disagreement coordinate across trials.

    Each trial contributes ``xi / sqrt(delta_k)`` computed from its final
    ``(N, M)`` state; returns ``(covariance, samples)`` with one sample row
    per trial.
    """
    if len(final_states) < 2:
        raise ValueError("need at least two trials for a sample covariance")
    q_ref = np.asarray(q_ref, dtype=float)
    rows = [
        (basis.t1 @ (np.asarray(q, dtype=float) - q_ref[None, :])).reshape(-1)
        for q in final_states
    ]
    samples = np.asarray(rows) / math.sqrt(delta_k)
    cov = np.atleast_2d(np.cov(samples, rowvar=False, ddof=1))
    return cov, samples


@dataclass
class NormalityResult:
    p_values: np.ndarray
    pass_fraction: float
    tested: list
    degenerate: list
    anomalies: list
    significance: float


def normality_test(samples, predicted_variances, significance=0.01):
    """Per-component Kolmogorov-Smirnov tests against the standard normal.

    Components are standardized by their predicted standard deviation.
    Components whose predicted variance is below ``DEGENERATE_VARIANCE`` are
    excluded as degenerate when the samples agree they are constant;
    otherwise they are flagged as anomalies and counted as failures.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    predicted = np.asarray(predicted_variances, dtype=float).reshape(-1)
    if samples.shape[1] != predicted.size:
        raise ValueError("one predicted variance per component is required")
    p_values = np.full(predicted.size, np.nan)
    tested, degenerate, anomalies = [], [], []
    passes = 0
    for j in range(predicted.size):
        if predicted[j] < DEGENERATE_VARIANCE:
            if float(np.var(samples[:, j])) >= DEGENERATE_VARIANCE:
                anomalies.append(j)
            else:
                degenerate.append(j)
            continue
        z = samples[:, j] / math.sqrt(predicted[j])
        p = float(scipy.stats.kstest(z, "norm").pvalue)
        p_values[j] = p
        tested.append(j)
        if p >= significance:
            passes += 1
    denom = len(tested) + len(anomalies)
    fraction = passes / denom if denom else math.nan
    return NormalityResult(
        p_values=p_values,
        pass_fraction=fraction,
        tested=tested,
        degenerate=degenerate,
        anomalies=anomalies,
        significance=significance,
    )


def joint_stability_margin(model, basis):
    """Smallest eigenvalue of the summed negated symmetric reduced drift.

    Positive iff the mean graphs mix jointly over one period; a diagnostic
    for the existence of the contraction constant used by the convergence
    argument.
    """
    n = basis.n_agents
    acc = np.zeros((n - 1, n - 1))
    for w in step_mean_matrices(model):
        f = disagreement_rows(w, basis) @ basis.t1.T
        acc += f + f.T
    return float(np.linalg.eigvalsh(-acc)[0])


@dataclass
class AsymptoticReport:
    """Theory-side objects plus optional Monte Carlo comparisons.

    The covariances are kept as Kronecker factors: the message covariance
    is ``kron(I_N, c)``, the driving noise ``kron(g, c)``, the reduced
    covariance ``S = kron(x, c)`` and its embedding ``kron(x_tilde, c)``.
    """

    q_star: np.ndarray
    lambda2: float
    delta: float
    stability_margin: float
    c: np.ndarray
    g: np.ndarray
    x: np.ndarray
    x_tilde: np.ndarray
    lyapunov_residual: float
    empirical_cov: np.ndarray | None = None
    cov_rel_error: float = math.nan
    p_values: np.ndarray | None = None
    normality_pass_fraction: float = math.nan


def asymptotic_report(
    model,
    delta,
    q_star,
    n_opinions,
    final_states=None,
    final_step_size=None,
    significance=0.01,
):
    """Assemble the asymptotic covariance report for one configuration.

    Uses the exact one-hot message covariance at the consensus limit.  The
    drift ``kron(fbar, I_M)`` and the noise ``kron(g, c)`` share their
    Kronecker structure, so ``S = kron(x, c)`` where ``x`` solves the
    (n-1)-dimensional equation ``F x + x F.T = -g``.  When ``final_states``
    from repeated trials are supplied (together with the step size of their
    last update), the empirical scaled covariance and per-component
    normality tests are attached.
    """
    q_star = as_opinion_vector(q_star, n_opinions)
    basis = build_projection(model.n)
    wbar = mean_matrix(model)
    drift = reduced_drift(wbar, basis, delta)
    c = categorical_covariance(q_star, 1)
    g = s0_matrix(wbar, basis)
    x = lyapunov_solve(drift.shifted, g)
    report = AsymptoticReport(
        q_star=q_star,
        lambda2=drift.lambda2,
        delta=delta,
        stability_margin=joint_stability_margin(model, basis),
        c=c,
        g=g,
        x=x,
        x_tilde=s_tilde(x, basis),
        lyapunov_residual=lyapunov_residual(drift.shifted, x, g, c),
    )
    if final_states is not None:
        if final_step_size is None:
            raise ValueError("final_step_size is required with final_states")
        if not c.any():
            raise ValueError(
                "q* is a vertex, so the predicted covariance is zero: there is "
                "nothing to compare the trials with"
            )
        cov, samples = empirical_scaled_covariance(
            final_states, q_star, basis, final_step_size
        )
        s = np.kron(x, c)  # the size of the sample covariance it is compared with
        report.empirical_cov = cov
        report.cov_rel_error = float(
            np.linalg.norm(cov - s) / np.linalg.norm(s)
        )
        result = normality_test(
            samples, np.kron(np.diag(x), np.diag(c)), significance
        )
        report.p_values = result.p_values
        report.normality_pass_fraction = result.pass_fraction
    return report
