"""Opinion vectors, the agents' state matrix, and averaging utilities.

Opinion labels are 1-based integers in ``1..M`` at every public interface;
array indices are 0-based internally.  Estimate vectors always sum to 1 but
may carry small negative components while the protocol is running, so
nonnegativity is counted as a diagnostic rather than kept as an invariant.
"""

from __future__ import annotations

import numpy as np

SUM_TOL = 1e-12


def as_opinion_vector(values, n_opinions=None):
    """Validate and return a length-M estimate vector (components sum to 1)."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("opinion vector must be one-dimensional and nonempty")
    if n_opinions is not None and v.size != n_opinions:
        raise ValueError(f"expected length {n_opinions}, got {v.size}")
    total = float(v.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"components must sum to 1 within {SUM_TOL}, got {total!r}")
    return v


def _check_samples(samples, n_opinions):
    xs = []
    for i, x in enumerate(samples):
        xi = int(x)
        if xi != x or not 1 <= xi <= n_opinions:
            raise ValueError(f"sample {i} out of range: {x!r} not in 1..{n_opinions}")
        xs.append(xi)
    if not xs:
        raise ValueError("need at least one sample")
    return xs


def initial_state(samples, n_opinions):
    """One-hot starting state: agent i holds the unit vector of its sample.

    A state is an ``(N, M)`` array, agent-major: row i is agent i's
    estimate, so ``q.reshape(-1)`` has agent i in entries
    ``i*M .. (i+1)*M - 1``, the order of the block-diagonal covariances.
    The returned array is read-only.
    """
    xs = _check_samples(samples, n_opinions)
    q = np.zeros((len(xs), n_opinions))
    q[np.arange(len(xs)), [x - 1 for x in xs]] = 1.0
    q.setflags(write=False)
    return q


def network_average(state):
    """Mean of the agents' estimate vectors."""
    return np.asarray(state, dtype=float).mean(axis=0)


def consensus_error(state, target):
    """Largest per-agent sup-norm deviation from ``target``.

    A batch of states ``(..., N, M)`` takes one target per state, or one
    length-M target for all, and gives an array with one error per state.
    """
    q = np.asarray(state, dtype=float)
    t = np.asarray(target, dtype=float)
    if not 1 <= t.ndim < q.ndim or t.shape[-1] != q.shape[-1]:
        raise ValueError(
            f"target shape {t.shape} does not match opinion count {q.shape[-1]}"
        )
    err = np.abs(q - t[..., None, :]).max(axis=(-2, -1))
    return float(err) if err.ndim == 0 else err
