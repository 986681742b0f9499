"""Message generation: estimate-to-distribution maps and one-hot draws.

Randomness is consumed through named substreams so that the message of agent
``i`` at step ``k`` of trial ``t`` is a pure function of
``(trial seed, agent, step)``: each agent has its own counter-seeded stream
and step ``k`` uses exactly the k-th uniform of that stream.  Identical
arguments replay identically across runs and worker schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import as_opinion_vector

_MASK64 = (1 << 64) - 1

# substream domain tags; fixed forever so derived draws stay reproducible
AGENT_DOMAIN = 1
WEIGHT_DOMAIN = 2
INIT_DOMAIN = 3

# steps of uniforms drawn per (trial, agent) generator call.  A call costs
# about 1 us plus 4 ns per uniform, so 128-step blocks keep the call
# overhead under 10 ns per agent-step, against about 300 ns for the rest of
# the step; a full (trials, agents, horizon) panel would instead grow
# without bound in the horizon
BLOCK_STEPS = 128


def substream(seed, *path):
    """Independent generator addressed by (seed, path)."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64, spawn_key=tuple(int(p) for p in path)
    )
    return np.random.Generator(np.random.PCG64(ss))


def message_uniform_blocks(seeds, n_agents, horizon):
    """Message uniforms of the trials ``seeds``, streamed in blocks of steps.

    Yields arrays of shape ``(trials, agents, steps)``, each holding the next
    ``BLOCK_STEPS`` steps (fewer in the last block).  Concatenated along the
    last axis they give, for each (trial, agent), the first ``horizon``
    uniforms of that agent's substream: a generator's draws continue where
    its last draw stopped, so the block length does not change the values.
    """
    streams = [substream(seed, AGENT_DOMAIN, i)
               for seed in seeds for i in range(n_agents)]
    for start in range(0, horizon, BLOCK_STEPS):
        block = np.empty((len(seeds), n_agents, min(BLOCK_STEPS, horizon - start)))
        for gen, row in zip(streams, block.reshape(len(streams), -1)):
            gen.random(out=row)
        yield block


def weight_stream(seed):
    return substream(seed, WEIGHT_DOMAIN)


def init_stream(seed):
    return substream(seed, INIT_DOMAIN)


@dataclass(frozen=True)
class SamplingPolicy:
    """Map from an internal estimate to the message distribution.

    ``direct`` transmits the estimate as-is.  ``censored`` zeroes components
    below the step-dependent floor ``c * delta_k**exponent`` and then either
    renormalizes the survivors (default) or leaves the vector sub-stochastic;
    :func:`policy_matrix` applies the policy to every row.

    With ``exponent = 1`` the censoring distortion is proportional to the
    step size, which keeps the consensus limit finite; ``exponent >= 2``
    makes it vanish relative to the step size, the regime the asymptotic
    normality result needs.
    """

    kind: str = "direct"
    censor_floor_scale: float = 0.0
    censor_exponent: float = 2.0
    renormalize: bool = True

    def __post_init__(self):
        if self.kind not in ("direct", "censored"):
            raise ValueError(f"unknown sampling policy kind {self.kind!r}")
        if self.censor_floor_scale < 0:
            raise ValueError("censor floor scale must be nonnegative")
        if self.censor_exponent < 1:
            raise ValueError("censor exponent must be >= 1")


def censor_threshold(policy, delta_k):
    return policy.censor_floor_scale * delta_k ** policy.censor_exponent


def _count(rows):
    counts = rows.sum(axis=-1)
    return int(counts) if counts.ndim == 0 else counts


def policy_matrix(policy, q, delta_k):
    """Per-agent sampling distributions for a state matrix or a batch of them.

    ``q`` has shape ``(N, M)`` or ``(..., N, M)``, one estimate per row:

    * ``direct`` returns ``q`` itself (same array) when no component is
      negative.  A row with a negative in-flight component keeps its
      positive part, scaled to sum 1 only when it exceeds 1.
    * ``censored`` zeroes the components below :func:`censor_threshold`
      (negative ones always fall below it) and renormalizes the survivors.
      Without renormalization it scales a row only when its sum exceeds 1,
      and a row with nothing left stays zero: the agent is silent.  With
      renormalization a row with nothing left falls back to its positive
      part, renormalized (the whole of ``q`` for a proper distribution).
    * A row falling back to its positive part with no positive mass at all
      becomes the uniform distribution.

    Returns ``(p, uniform_fallbacks, clamped_agents)``, counting the rows
    set to uniform and the rows with a negative component: ints for one
    state, one count per state (an array over the leading axes) for a
    batch.  Each row depends only on its own estimate, so a batch gives the
    rows a single state would.
    """
    q = np.asarray(q, dtype=float)
    neg_rows = (q < 0.0).any(axis=-1)
    fallbacks = np.zeros_like(neg_rows)
    if policy.kind == "direct":
        if not neg_rows.any():
            return q, _count(fallbacks), _count(neg_rows)
        # rows rebuilt from the positive part, and the sum it is scaled above
        p, rebuilt, cap = q.copy(), neg_rows, 1.0
    else:
        p = np.where(q >= censor_threshold(policy, delta_k), q, 0.0)
        totals = p.sum(axis=-1)
        live = totals > 0.0
        scaled = live if policy.renormalize else live & (totals > 1.0)
        p[scaled] /= totals[scaled, None]
        rebuilt, cap = ~live & policy.renormalize, 0.0
    if rebuilt.any():  # rare, so the common censored call skips the block
        pos = np.clip(q[rebuilt], 0.0, None)
        totals = pos.sum(axis=-1)
        scaled = totals > cap
        pos[scaled] /= totals[scaled, None]
        empty = ~(totals > 0.0)
        pos[empty] = 1.0 / q.shape[-1]
        p[rebuilt] = pos
        fallbacks[rebuilt] = empty
    return p, _count(fallbacks), _count(neg_rows)


def inverse_cdf_draw(p, uniforms):
    """One-hot draws by inverse CDF, one uniform per row, without validation.

    ``p`` has shape ``(..., M)`` with finite nonnegative rows, and
    ``uniforms`` the shape ``p.shape[:-1]``.  Returns ``(messages, active)``:
    a row whose uniform falls beyond its total mass gets the zero (silent)
    message and ``active`` False.  Use :func:`draw_messages` for rows that
    are not known to be valid.
    """
    # a nonnegative row has a nondecreasing CDF, so ``u < cdf`` switches on
    # once, at the drawn component, and stays on
    below = uniforms[..., None] < np.add.accumulate(p, axis=-1)
    messages = below.astype(float)
    messages[..., 1:] -= messages[..., :-1]
    return messages, below[..., -1]


def draw_messages(p, uniforms):
    """Inverse-CDF one-hot draws, one uniform per row.

    ``p`` is one distribution, a matrix of rows, or a batch ``(..., M)``.
    Rows must be finite and nonnegative with sums at most 1 (tiny
    tolerance); residual mass of a sub-stochastic row yields the zero
    (silent) message.
    """
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
    return inverse_cdf_draw(p, u.reshape(p.shape[:-1]))[0]


def categorical_covariance(q_star, n_agents):
    """Exact covariance of a one-hot draw at the consensus limit.

    Each agent contributes the block ``diag(q*) - q* q*^T``, which is what a
    categorical sample actually realizes; its rows sum to zero, matching the
    sum-preserving message deviations.
    """
    q = as_opinion_vector(q_star)
    block = np.diag(q) - np.outer(q, q)
    return np.kron(np.eye(n_agents), block)
