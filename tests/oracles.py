"""Independent oracles used by the tests.

These deliberately take different computational routes than the library:
brute-force transitive closure for reachability, direct numerical
quadrature of the matrix-exponential integral for the stationary covariance,
a row-at-a-time sampling map, and a one-trial-at-a-time step loop for the
trial-batched kernel.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg


def transitive_closure(adj):
    """Boolean reachability matrix by iterated composition (brute force)."""
    a = np.asarray(adj, dtype=bool)
    n = a.shape[0]
    reach = a | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    return reach


def strongly_connected_bruteforce(adj):
    """Every ordered pair reachable, via the full transitive closure."""
    return bool(transitive_closure(adj).all())


def lyapunov_quadrature(a, s0, tail_tol=1e-16):
    """Quadrature of integral of expm(a t) s0 expm(a.T t) over t >= 0.

    Truncates at a horizon where the integrand norm is negligible, then
    integrates adaptively.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    s0 = np.atleast_2d(np.asarray(s0, dtype=float))
    scale = max(1.0, float(np.linalg.norm(s0)))
    horizon = 1.0
    while True:
        e = scipy.linalg.expm(a * horizon)
        if np.linalg.norm(e @ s0 @ e.T) < tail_tol * scale or horizon > 1e6:
            break
        horizon *= 1.5

    def integrand(t):
        e = scipy.linalg.expm(a * t)
        return e @ s0 @ e.T

    val, _ = scipy.integrate.quad_vec(
        integrand, 0.0, horizon, epsabs=1e-13, epsrel=1e-10
    )
    return val


def random_doubly_stochastic(rng, n, n_perms=3, min_coef=0.05):
    """Convex combination of the identity and random permutation matrices."""
    coefs = rng.dirichlet(np.ones(n_perms + 1))
    coefs = coefs * (1.0 - (n_perms + 1) * min_coef) + min_coef
    w = coefs[0] * np.eye(n)
    for c in coefs[1:]:
        perm = rng.permutation(n)
        w[np.arange(n), perm] += c
    return w


def _reference_row(policy, q, delta_k):
    """Sampling distribution of one censored estimate row, case by case."""
    from socsamp.sampling import censor_threshold

    kept = np.where(q >= censor_threshold(policy, delta_k), q, 0.0)
    total = float(kept.sum())
    if total > 0.0:
        if policy.renormalize or total > 1.0:
            return kept / total
        return kept
    if not policy.renormalize:
        return kept  # everything censored: the agent stays silent
    pos = np.clip(q, 0.0, None)
    ptot = float(pos.sum())
    if ptot > 0.0:
        return pos / ptot
    return np.full(q.size, 1.0 / q.size)


def reference_policy_matrix(policy, q, delta_k):
    """The sampling map one row at a time, with the library's return contract.

    ``policy_matrix`` must give the same bits, the same counts and the same
    count types (ints for one state, arrays for a batch).
    """
    q = np.asarray(q, dtype=float)
    neg_rows = (q < 0.0).any(axis=-1)
    if policy.kind == "direct" and not neg_rows.any():
        none = 0 if q.ndim == 2 else np.zeros(q.shape[:-2], dtype=np.int64)
        return q, none, none
    p = q.copy()
    fallback_rows = np.zeros_like(neg_rows)
    for i in np.ndindex(neg_rows.shape):
        pos = np.clip(q[i], 0.0, None)
        ptot = pos.sum()
        if policy.kind == "censored":
            p[i] = _reference_row(policy, q[i], delta_k)
            fallback_rows[i] = policy.renormalize and ptot <= 0.0
        elif neg_rows[i]:
            if ptot > 0.0:
                p[i] = pos / ptot if ptot > 1.0 else pos
            else:
                p[i] = 1.0 / q.shape[-1]
                fallback_rows[i] = True
    counts = [rows.sum(axis=-1) for rows in (fallback_rows, neg_rows)]
    if q.ndim == 2:
        counts = [int(c) for c in counts]
    return (p, *counts)


def per_trial_reference(config):
    """One trial stepped alone, with scalar diagnostics: the reference loop.

    This is the per-trial step loop the batched kernel replaced, kept as the
    reference that the kernel must reproduce bit for bit.  It draws the same
    streams as the kernel (a full uniform panel per agent, one weight stream
    per trial), maps estimates with :func:`reference_policy_matrix` and uses
    the library only for the weight draws.
    """
    from socsamp.dynamics import (
        TrialAborted, TrialDiagnostics, TrialTrace, noise_norm_bound,
        resolve_checkpoints,
    )
    from socsamp.network import FIXED, IID, SWITCHING, mean_matrix, sample_weight_matrix
    from socsamp.sampling import AGENT_DOMAIN, substream, weight_stream
    from socsamp.state import StackedState, initial_state

    n, m = config.n_agents, config.n_opinions
    model, schedule, horizon = config.weight_model, config.schedule, config.horizon
    checkpoints = set(resolve_checkpoints(config.checkpoints, horizon))
    q = initial_state(config.initial_samples, m).q.copy()
    initial_avg = q.mean(axis=0)
    a, b = config.mixing.a_diag, config.mixing.b_diag
    ab_col, b_col = (a + b)[:, None], b[:, None]
    conserving = bool(np.all(b == 1.0))

    uniforms = np.stack(
        [substream(config.seed, AGENT_DOMAIN, i).random(horizon) for i in range(n)]
    )
    wrng = weight_stream(config.seed)
    if model.kind == IID:
        support_idx = wrng.choice(
            len(model.support), size=horizon, p=np.asarray(model.probabilities)
        )
    wbar_static = None if model.kind == SWITCHING else mean_matrix(model)

    diag = TrialDiagnostics()
    diag.noise_norm_bound = noise_norm_bound(n, m)
    record_noise = config.record_noise and n >= 2
    mean_increments = np.zeros((horizon, m)) if config.record_mean_increments else None
    kept, snapshots, errs, spreads = [], [], [], []

    def snapshot(k):
        kept.append(k)
        snapshots.append(q.copy())
        errs.append(float(np.abs(q - initial_avg).max()))
        spreads.append(float(np.abs(q - q.mean(axis=0)).max()))

    if 0 in checkpoints:
        snapshot(0)
    delta = math.nan
    qmin = float(q.min())
    for k in range(1, horizon + 1):
        delta = schedule.step_size(k)
        if model.kind in (FIXED, SWITCHING):
            w = wbar = sample_weight_matrix(model, k)
        elif model.kind == IID:
            w, wbar = model.support[support_idx[k - 1]], wbar_static
        else:
            w, wbar = sample_weight_matrix(model, k, wrng), wbar_static

        if config.policy.kind == "direct" and qmin >= 0.0:
            p = q
        else:
            p, fallbacks, clamped = reference_policy_matrix(config.policy, q, delta)
            diag.uniform_fallbacks += fallbacks
            diag.clamped_agents += clamped

        cdf = np.cumsum(p, axis=1)
        u = uniforms[:, k - 1]
        idx = (u[:, None] < cdf).argmax(axis=1)
        rows = np.flatnonzero(u < cdf[:, -1])
        y = np.zeros((n, m))
        y[rows, idx[rows]] = 1.0
        diag.silent_messages += n - rows.size

        ym_q = y - q
        ym_p = ym_q if p is q else y - p
        if record_noise:
            mart = w @ ym_p - b_col * ym_p
            if wbar is not w:
                mart += (w - wbar) @ p
            sq = float((mart * mart).sum())
            diag.max_martingale_norm = max(diag.max_martingale_norm, math.sqrt(sq))
            col_mean = mart.mean(axis=0)
            proj = math.sqrt(max(sq - n * float(col_mean @ col_mean), 0.0))
            diag.max_noise_norm = max(diag.max_noise_norm, proj)
        if mean_increments is not None:
            mean_increments[k - 1] = (delta / n) * ((w.sum(axis=0) - b) @ ym_q)

        if conserving:
            q = q + delta * (w @ y - y)
        else:
            q = q + delta * (w @ y - ab_col * q - b_col * ym_q)

        qmin = float(q.min())
        if qmin < 0.0:
            diag.simplex_violation_agent_steps += int((q < 0.0).any(axis=1).sum())
            diag.max_negative_component = max(diag.max_negative_component, -qmin)
        drift = float(np.abs(q.sum(axis=1) - 1.0).max())
        if not drift < math.inf:
            raise TrialAborted(k, diag, config.trial_index, config.seed)
        diag.max_sum_drift = max(diag.max_sum_drift, drift)
        if k in checkpoints:
            snapshot(k)

    return TrialTrace(
        config.trial_index, config.seed, kept, snapshots, errs, spreads,
        StackedState(q, step_index=horizon), delta, diag, mean_increments, initial_avg,
    )
