"""Opinion vectors, stacked network state, and averaging utilities.

Opinion labels are 1-based integers in ``1..M`` at every public interface;
array indices are 0-based internally.  Estimate vectors always sum to 1 but
may carry small negative components while the protocol is running, so
nonnegativity is a separate predicate (:func:`is_simplex`) rather than an
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def is_simplex(values, tol=0.0):
    """True iff every component is >= -tol."""
    return bool(np.all(np.asarray(values, dtype=float) >= -tol))


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


def empirical_distribution(samples, n_opinions):
    """Fraction of samples taking each label, as a length-M vector.

    Entries are exact multiples of 1/N and sum to 1.
    """
    xs = _check_samples(samples, n_opinions)
    counts = np.bincount([x - 1 for x in xs], minlength=n_opinions)
    return counts / float(len(xs))


def initial_state(samples, n_opinions):
    """One-hot starting state: agent i holds the unit vector of its sample."""
    xs = _check_samples(samples, n_opinions)
    q = np.zeros((len(xs), n_opinions))
    q[np.arange(len(xs)), [x - 1 for x in xs]] = 1.0
    return StackedState(q, step_index=0)


@dataclass(frozen=True)
class StackedState:
    """All agents' estimates at one step, agent-major.

    Row i of ``q`` is agent i's length-M estimate, so the stacked vector
    ``q.reshape(-1)`` has agent i in entries ``i*M .. (i+1)*M - 1``, the
    order of the block-diagonal covariances.  The array is marked read-only;
    updates construct a new state.
    """

    q: np.ndarray
    step_index: int = 0

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.q, dtype=float))
        if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1:
            raise ValueError("state must be a nonempty (agents, opinions) matrix")
        if self.step_index < 0:
            raise ValueError("step_index must be nonnegative")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def n_agents(self):
        return self.q.shape[0]

    @property
    def n_opinions(self):
        return self.q.shape[1]

    def agent(self, i):
        """Estimate vector of agent ``i`` (0-based)."""
        return self.q[i]


def _as_matrix(state):
    return state.q if isinstance(state, StackedState) else np.asarray(state, dtype=float)


def network_average(state):
    """Mean of the agents' estimate vectors."""
    return _as_matrix(state).mean(axis=0)


def consensus_error(state, target):
    """Largest per-agent sup-norm deviation from ``target``.

    A batch of states ``(..., N, M)`` takes one target per state, or one
    length-M target for all, and gives an array with one error per state.
    """
    q = _as_matrix(state)
    t = np.asarray(target, dtype=float)
    if not 1 <= t.ndim < q.ndim or t.shape[-1] != q.shape[-1]:
        raise ValueError(
            f"target shape {t.shape} does not match opinion count {q.shape[-1]}"
        )
    err = np.abs(q - t[..., None, :]).max(axis=(-2, -1))
    return float(err) if err.ndim == 0 else err
