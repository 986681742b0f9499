"""Message generation: estimate-to-distribution maps and one-hot draws.

Randomness is consumed through named substreams so that the message of agent
``i`` at step ``k`` of trial ``t`` is a pure function of
``(trial seed, agent, step)``: each agent has its own counter-seeded stream
and step ``k`` uses exactly the k-th uniform of that stream.  Identical
arguments replay identically across runs and worker schedules.
"""

from __future__ import annotations

import math
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
    Every block is written into one buffer and overwrites the last one, so a
    caller that keeps a block copies it.
    """
    streams = [substream(seed, AGENT_DOMAIN, i)
               for seed in seeds for i in range(n_agents)]
    values = np.empty(len(streams) * min(BLOCK_STEPS, horizon))
    for start in range(0, horizon, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, horizon - start)
        block = values[: len(streams) * steps].reshape(len(streams), steps)
        for gen, row in zip(streams, block):
            gen.random(out=row)
        yield block.reshape(len(seeds), n_agents, steps)


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
        # a NaN fails each comparison
        if not 0 <= self.censor_floor_scale < math.inf:
            raise ValueError("censor floor scale must be finite and nonnegative")
        if not 1 <= self.censor_exponent < math.inf:
            raise ValueError("censor exponent must be finite and >= 1")


def censor_threshold(policy, delta_k):
    return policy.censor_floor_scale * delta_k ** policy.censor_exponent


def _count(rows):
    counts = np.add.reduce(rows, axis=-1)
    return int(counts) if counts.ndim == 0 else counts


def _no_count(q):
    """What :func:`_count` gives for the rows of ``q`` with no row set."""
    return 0 if q.ndim == 2 else np.zeros(q.shape[:-2], dtype=np.int64)


def policy_matrix(policy, q, delta_k, nonnegative=False, out=None):
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

    ``nonnegative`` says that no component of ``q`` is negative or NaN, as
    a caller that has taken ``q``'s minimum knows; it must not be set
    otherwise.  A renormalized ``censored`` map whose every row keeps mass
    then skips the search for negative rows, divides the survivors straight
    into ``out``, an array of ``q``'s shape, and returns it.  Every other
    call returns ``q`` itself or a new array, so a caller that passes
    ``out`` tells the two apart by identity; the hint changes no bit and no
    count.  ``direct`` does not read it: a caller that knows ``q`` is
    nonnegative can use ``q`` without the call.
    """
    q = np.asarray(q, dtype=float)
    if policy.kind != "direct":
        p = np.where(q >= censor_threshold(policy, delta_k), q, 0.0)
        # the ufunc reductions without the ndarray methods' Python wrappers
        totals = np.add.reduce(p, axis=-1, keepdims=True)
        if (
            nonnegative
            and policy.renormalize
            and np.minimum.reduce(totals, axis=None) > 0.0
        ):  # every row keeps mass, and no row has a negative component
            none = _no_count(q)
            return np.divide(p, totals, out=p if out is None else out), none, none
    neg_rows = np.logical_or.reduce(q < 0.0, axis=-1)
    if policy.kind == "direct":
        if not neg_rows.any():
            return q, _no_count(q), _count(neg_rows)
        # rows rebuilt from the positive part, and the sum it is scaled above
        p, rebuilt, cap = q.copy(), neg_rows, 1.0
    else:
        if not policy.renormalize:  # nothing is rebuilt
            np.divide(p, totals, out=p, where=totals > 1.0)
            return p, _no_count(q), _count(neg_rows)
        live = totals > 0.0
        np.divide(p, totals, out=p, where=live)
        rebuilt, cap = ~live[..., 0], 0.0
    if not np.logical_or.reduce(rebuilt, axis=None):  # the common censored call
        return p, _no_count(q), _count(neg_rows)
    pos = np.clip(q[rebuilt], 0.0, None)
    totals = pos.sum(axis=-1)
    scaled = totals > cap
    pos[scaled] /= totals[scaled, None]
    empty = ~(totals > 0.0)
    pos[empty] = 1.0 / q.shape[-1]
    p[rebuilt] = pos
    fallbacks = np.zeros_like(neg_rows)
    fallbacks[rebuilt] = empty
    return p, _count(fallbacks), _count(neg_rows)


# rows from which draw_columns sums the CDF by whole components.  Under
# timeit, np.add.accumulate's loop over M in each row costs about 8 ns per
# value, against about 1.5 us per call of a component add; at M = 3 and 4
# the two cross between 100 and 200 rows (2,500 rows: 56 us against 10 us)
CDF_ROW_ADDS = 200


def draw_columns(components, uniforms, messages, work):
    """One-hot draws by inverse CDF, one uniform per row, without validation.

    ``components`` and ``messages`` are ``(M, rows)`` views, one component
    of every row per row of the view (the transposed view of a C-contiguous
    ``(rows, M)`` array), and ``uniforms`` holds one value per row.  Each
    row's distribution must be finite and nonnegative; a uniform beyond the
    row's total mass gets the zero (silent) message.  ``work`` is a
    C-contiguous ``(M + 1, rows)`` float array whose row 0 is zero; it
    receives the CDF and then the comparison, and its last row is 1.0 where
    a message was sent.  A caller that draws every step builds these views
    once, so the draw allocates nothing and builds no view but the two row
    ranges of ``work``.

    The draw takes three passes, one component at a time: the CDF,
    ``u < cdf`` and the difference of adjacent components.  From
    ``CDF_ROW_ADDS`` rows on, the CDF is component 0 and then ``M - 1`` adds
    of whole components, which sum in ``np.add.accumulate``'s order without
    its loop over M in each row.
    """
    below = work[1:]
    if len(uniforms) < CDF_ROW_ADDS:
        np.add.accumulate(components, axis=0, out=below)
    else:
        np.copyto(below[0], components[0])
        for c in range(1, len(components)):
            np.add(below[c - 1], components[c], out=below[c])
    # a nonnegative row has a nondecreasing CDF, so ``u < cdf`` switches on
    # once, at the drawn component, and stays on
    np.less(uniforms, below, out=below)
    np.subtract(below, work[:-1], out=messages)


def categorical_covariance(q_star, n_agents):
    """Exact covariance of a one-hot draw at the consensus limit.

    Each agent contributes the block ``diag(q*) - q* q*^T``, which is what a
    categorical sample actually realizes; its rows sum to zero, matching the
    sum-preserving message deviations.
    """
    q = as_opinion_vector(q_star)
    block = np.diag(q) - np.outer(q, q)
    return np.kron(np.eye(n_agents), block)
