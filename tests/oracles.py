"""Independent oracles used by the tests.

These deliberately take different computational routes than the library:
brute-force transitive closure for reachability, direct numerical
quadrature of the matrix-exponential integral for the stationary covariance,
a row-at-a-time sampling map, a whole-row five-pass inverse-CDF draw for
the component-at-a-time three-pass one, a one-matrix-at-a-time birkhoff
weight draw for the block-streamed batched one, a one-trial-at-a-time step
loop for the trial-batched kernel, the dense (N-1)M-dimensional Lyapunov
solve for the Kronecker-factored asymptotic covariance, a bincount
histogram for the network average of one-hot states, a
one-value-at-a-time writer for the whole-file trace and vector formatters,
and numpy's own SeedSequence for the array-hashed random streams.
It also holds :func:`draw_messages`, the validating draw the statistical
tests use.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg


def reference_stream(seed, *path):
    """The generator addressed by (seed, path), built by numpy's SeedSequence
    one stream at a time."""
    seq = np.random.SeedSequence(int(seed) % 2**64, spawn_key=path)
    return np.random.Generator(np.random.PCG64(seq))


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


def empirical_distribution(samples, n_opinions):
    """Fraction of the 1-based ``samples`` taking each label, by bincount."""
    counts = np.bincount(np.asarray(samples) - 1, minlength=n_opinions)
    return counts / float(len(samples))


def random_doubly_stochastic(rng, n, n_perms=3, min_coef=0.05):
    """Convex combination of the identity and random permutation matrices."""
    coefs = rng.dirichlet(np.ones(n_perms + 1))
    coefs = coefs * (1.0 - (n_perms + 1) * min_coef) + min_coef
    w = coefs[0] * np.eye(n)
    for c in coefs[1:]:
        perm = rng.permutation(n)
        w[np.arange(n), perm] += c
    return w


def reference_inverse_cdf_draw(p, uniforms):
    """One-hot inverse-CDF draws over whole rows, in five passes.

    The CDF along the last axis, ``u < cdf``, a cast to float, the shifted
    difference and the last column.  Returns ``(messages, active)`` with
    ``active`` boolean; ``draw_columns`` must give the same messages and
    a last work row of 1.0 exactly where ``active`` is True.
    """
    below = uniforms[..., None] < np.add.accumulate(p, axis=-1)
    messages = below.astype(float)
    messages[..., 1:] -= messages[..., :-1]
    return messages, below[..., -1]


def draw_messages(p, uniforms):
    """Inverse-CDF one-hot draws, one uniform per row, with validation.

    ``p`` is one distribution, a matrix of rows, or a batch ``(..., M)``.
    Rows must be finite and nonnegative with sums at most 1 (tiny
    tolerance); residual mass of a sub-stochastic row yields the zero
    (silent) message.
    """
    from socsamp.sampling import draw_columns

    p = np.atleast_2d(np.asarray(p, dtype=float))
    if not np.isfinite(p).all():
        raise ValueError("non-finite component in sampling distribution")
    if (p < 0.0).any():
        raise ValueError("negative component in sampling distribution")
    if (np.cumsum(p, axis=-1)[..., -1] > 1.0 + 1e-12).any():
        raise ValueError("sampling distribution components sum to more than 1")
    u = np.asarray(uniforms, dtype=float)
    if u.size != p.size // p.shape[-1]:
        raise ValueError("need exactly one uniform per distribution row")
    m, rows = p.shape[-1], u.size
    messages = np.empty(p.shape)
    draw_columns(
        p.reshape(rows, m).T, u.reshape(rows), messages.reshape(rows, m).T,
        np.zeros((m + 1, rows)),
    )
    return messages


def reference_weight_matrix(model, rng):
    """One birkhoff weight matrix, one ``rng.permutation`` per coefficient.

    ``mixing[0] * I`` plus each remaining coefficient added along its own
    fresh permutation, drawn in coefficient order.
    """
    n = model.n
    w = model.mixing[0] * np.eye(n)
    for c in model.mixing[1:]:
        perm = rng.permutation(n)
        w[np.arange(n), perm] += c
    return w


def dense_asymptotic_covariance(wbar, q_star, delta):
    """The asymptotic covariance built densely in the full product space.

    Kronecker-expands the reduced drift ``kron(T1 (wbar - I) T1.T, I_M)``
    and the message covariance ``kron(I_N, diag(q*) - q* q*.T)``, forms the
    driving noise ``s0`` from them, solves the (N-1)M-dimensional Lyapunov
    equation and embeds the solution with ``kron(T1, I_M)``.  Returns a dict
    with ``sigma``, ``s0``, ``s`` and ``s_tilde``.
    """
    from socsamp.analysis import build_projection, lyapunov_solve

    wbar = np.asarray(wbar, dtype=float)
    q = np.asarray(q_star, dtype=float)
    n, m = wbar.shape[0], q.size
    t1 = build_projection(n).t1
    eye_m = np.eye(m)
    shifted = np.kron(t1 @ (wbar - np.eye(n)) @ t1.T, eye_m)
    shifted += (delta / 2.0) * np.eye(shifted.shape[0])
    sigma = np.kron(np.eye(n), np.diag(q) - np.outer(q, q))
    left = np.kron(t1 @ (wbar - np.eye(n)), eye_m)
    s0 = left @ sigma @ left.T
    s0 = (s0 + s0.T) / 2.0
    s = lyapunov_solve(shifted, s0)
    embed = np.kron(t1, eye_m)
    s_tilde = embed.T @ s @ embed
    return {
        "sigma": sigma,
        "s0": s0,
        "s": s,
        "s_tilde": (s_tilde + s_tilde.T) / 2.0,
    }


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


def reference_policy_matrix(policy, q, delta_k, out):
    """The sampling map one row at a time, with the library's contract.

    Writes the distributions into ``out`` and returns the per-state counts
    ``(uniform_fallbacks, clamped_agents)``; ``policy_matrix`` must write
    the same bits and give the same counts.
    """
    q = np.asarray(q, dtype=float)
    neg_rows = (q < 0.0).any(axis=-1)
    fallback_rows = np.zeros_like(neg_rows)
    np.copyto(out, q)
    for i in np.ndindex(neg_rows.shape):
        pos = np.clip(q[i], 0.0, None)
        ptot = pos.sum()
        if policy.kind == "censored":
            out[i] = _reference_row(policy, q[i], delta_k)
            fallback_rows[i] = policy.renormalize and ptot <= 0.0
        elif neg_rows[i]:
            if ptot > 0.0:
                out[i] = pos / ptot if ptot > 1.0 else pos
            else:
                out[i] = 1.0 / q.shape[-1]
                fallback_rows[i] = True
    return fallback_rows.sum(axis=-1), neg_rows.sum(axis=-1)


def per_trial_reference(
    config, trial_index, seed, policy_map=reference_policy_matrix, record_noise=True
):
    """One trial stepped alone, with scalar diagnostics: the reference loop.

    This is the per-trial step loop the batched kernel replaced, kept as the
    reference that the kernel must reproduce bit for bit.  It steps trial
    ``(trial_index, seed)`` of the experiment ``config`` and draws the same
    streams as the kernel (a full uniform panel per agent, one weight stream
    per trial), draws birkhoff weights with :func:`reference_weight_matrix`
    and maps estimates with ``policy_map``.  The default map is
    :func:`reference_policy_matrix`; a check of something other than the map
    may pass the library's ``policy_matrix``, which gives the same bits in
    half the time.  A check that reads no noise diagnostic may pass
    ``record_noise=False``, which leaves them 0 and steps faster.

    Returns ``(results, mean_increments)``, the first a one-trial
    :class:`socsamp.TrialResults`.  Row ``k - 1`` of the
    ``(horizon, M)`` series is step ``k``'s shift of the network average,
    ``(d_k / N) (1ᵀW - bᵀ)(Y - Q)``: the accumulated message noise whose sum,
    added to the initial average, is the trial's limit.  With every
    ``b_ii = 1`` each term is zero up to rounding.
    """
    from socsamp.dynamics import (
        DIAGNOSTICS, TrialAborted, TrialResults, noise_norm_bound,
        resolve_checkpoints,
    )
    from socsamp.network import FIXED, IID, SWITCHING, mean_matrix
    from socsamp.sampling import AGENT_DOMAIN, WEIGHT_DOMAIN
    from socsamp.state import initial_state

    n, m = config.n_agents, config.n_opinions
    model, schedule, horizon = config.weight_model, config.schedule, config.horizon
    checkpoints = set(resolve_checkpoints(config.stride, horizon))
    q = initial_state(config.initial_samples, m).copy()
    initial_avg = q.mean(axis=0)
    b = config.b
    a = 1.0 - b
    ab_col, b_col = (a + b)[:, None], b[:, None]
    conserving = bool(np.all(b == 1.0))

    uniforms = np.stack(
        [reference_stream(seed, AGENT_DOMAIN, i).random(horizon) for i in range(n)]
    )
    wrng = reference_stream(seed, WEIGHT_DOMAIN)
    if model.kind == IID:
        support_idx = wrng.choice(
            len(model.support), size=horizon, p=np.asarray(model.probabilities)
        )
    wbar_static = None if model.kind == SWITCHING else mean_matrix(model)

    # the counters are ints and the maxima floats, as an abort prints them
    diag = {name: 0.0 if name.startswith("max_") else 0 for name in DIAGNOSTICS}
    diag["noise_norm_bound"] = noise_norm_bound(n, m)
    mean_increments = np.zeros((horizon, m))
    kept, snapshots, errs = [], [], []

    def snapshot(k):
        kept.append(k)
        snapshots.append(q.copy())
        errs.append(float(np.abs(q - initial_avg).max()))

    if 0 in checkpoints:
        snapshot(0)
    qmin = float(q.min())
    for k in range(1, horizon + 1):
        delta = schedule.step_size(k)
        if model.kind in (FIXED, SWITCHING):
            w = wbar = model.support[k % len(model.support)]
        elif model.kind == IID:
            w, wbar = model.support[support_idx[k - 1]], wbar_static
        else:
            w, wbar = reference_weight_matrix(model, wrng), wbar_static

        if config.policy.kind == "direct" and qmin >= 0.0:
            p = q
        else:
            p = np.empty((n, m))
            fallbacks, clamped = policy_map(config.policy, q, delta, p)
            diag["uniform_fallbacks"] += int(fallbacks)
            diag["clamped_agents"] += int(clamped)

        cdf = np.cumsum(p, axis=1)
        u = uniforms[:, k - 1]
        idx = (u[:, None] < cdf).argmax(axis=1)
        rows = np.flatnonzero(u < cdf[:, -1])
        y = np.zeros((n, m))
        y[rows, idx[rows]] = 1.0
        diag["silent_messages"] += n - rows.size

        ym_q = y - q
        ym_p = ym_q if p is q else y - p
        if record_noise:
            mart = w @ ym_p - b_col * ym_p
            if wbar is not w:
                mart += (w - wbar) @ p
            sq = float((mart * mart).sum())
            diag["max_martingale_norm"] = max(diag["max_martingale_norm"], math.sqrt(sq))
            col_mean = mart.mean(axis=0)
            proj = math.sqrt(max(sq - n * float(col_mean @ col_mean), 0.0))
            diag["max_noise_norm"] = max(diag["max_noise_norm"], proj)
        mean_increments[k - 1] = (delta / n) * ((w.sum(axis=0) - b) @ ym_q)

        if conserving:
            q = q + delta * (w @ y - y)
        else:
            q = q + delta * (w @ y - ab_col * q - b_col * ym_q)

        qmin = float(q.min())
        if qmin < 0.0:
            diag["simplex_violation_agent_steps"] += int((q < 0.0).any(axis=1).sum())
            diag["max_negative_component"] = max(diag["max_negative_component"], -qmin)
        drift = float(np.abs(q.sum(axis=1) - 1.0).max())
        if not drift < math.inf:
            raise TrialAborted(k, diag, trial_index, seed)
        diag["max_sum_drift"] = max(diag["max_sum_drift"], drift)
        if k in checkpoints:
            snapshot(k)

    final = q[None]
    final.setflags(write=False)
    results = TrialResults(
        trial_indices=np.array([trial_index], dtype=np.int64),
        checkpoints=tuple(kept),
        snapshots=np.array([snapshots]),
        consensus_errors=np.array([errs]),
        final_states=final,
        diagnostics={name: np.array([value]) for name, value in diag.items()},
    )
    return results, mean_increments


def reference_fmt(x):
    """One value with 17 significant digits; + 0.0 folds negative zero."""
    return f"{float(x) + 0.0:.17g}"


def reference_fmt_vector(v):
    return ",".join(reference_fmt(x) for x in np.asarray(v, dtype=float).reshape(-1))


def reference_trace_text(results):
    """A trace file's text built one line and one value at a time."""
    lines = ["trial,k,agent,component,value"]
    for trial, snapshots in zip(results.trial_indices, results.snapshots):
        for k, snap in zip(results.checkpoints, snapshots):
            for i in range(snap.shape[0]):
                for mcomp in range(snap.shape[1]):
                    value = reference_fmt(snap[i, mcomp])
                    lines.append(f"{trial},{k},{i + 1},{mcomp + 1},{value}")
    return "\n".join(lines) + "\n"
