"""Message generation: estimate-to-distribution maps and one-hot draws.

Randomness is consumed through named substreams so that the message of agent
``i`` at step ``k`` of trial ``t`` is a pure function of
``(trial seed, agent, step)``: each agent has its own counter-seeded stream
and step ``k`` uses exactly the k-th uniform of that stream.  Identical
arguments replay identically across runs and worker schedules.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence hash: a pool of 4 uint32 words, mixed and then read
# out by these constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class _StateWords(ISeedSequence):
    """The state words of one PCG64, hashed beforehand by
    :func:`_pcg64_state_words`; PCG64 asks for them once, when it is built."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _lanes(values, inner, outer):
    """One int with a 64-bit lane per stream: each of ``values`` fills
    ``inner`` lanes in turn, and that run repeats ``outer`` times."""
    run = b"".join(v.to_bytes(8, "little") * inner for v in values)
    return int.from_bytes(run * outer, "little")


def _pcg64_state_words(words, streams):
    """``SeedSequence.generate_state(4, np.uint64)`` of many streams at once.

    ``words`` are the words a SeedSequence assembles, the entropy zero-padded
    to the pool size and then the spawn key, each given as one int whose
    64-bit lane ``i`` holds stream ``i``'s word (see :func:`_lanes`).  The
    hash runs once on these ints, step by step as numpy's runs on one
    stream: a 32-bit word times a 32-bit constant stays inside its lane, and
    masking every lane to 32 bits after each product gives the uint32
    wrap-around.  Python's own int arithmetic does it, so the hash runs no
    numpy integer loop: the same hash on uint32 arrays faulted in 0.3 MB of
    numpy's code that the rest of a run does not touch (a consensus_n50
    run's peak RSS, numpy 2.4 on x86_64).  Returns a C-contiguous
    ``(streams, 4)`` uint64 array, one stream per row.
    """
    ones = _lanes([1], streams, 1)
    mask32, mask16 = _MASK32 * ones, 0xFFFF * ones
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const * ones
        hash_const = hash_const * _MULT_A & _MASK32
        value = (value * hash_const) & mask32
        return value ^ ((value >> 16) & mask16)

    def mix(x, y):
        # x * L - y * R modulo 2**32, with y * (2**32 - R) added in place of
        # the subtraction, so that no lane borrows from the next
        result = ((x * _MIX_MULT_L) & mask32) + ((y * (2**32 - _MIX_MULT_R)) & mask32)
        result &= mask32
        return result ^ ((result >> 16) & mask16)

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ (hash_const * ones)
        hash_const = hash_const * _MULT_B & _MASK32
        value = (value * hash_const) & mask32
        out.append(value ^ ((value >> 16) & mask16))
    # generate_state reads each pair of uint32 words as a little-endian uint64
    state = np.empty((streams, 4), dtype=np.uint64)
    for j in range(4):
        pair = out[2 * j] | (out[2 * j + 1] << 32)
        state[:, j] = np.frombuffer(pair.to_bytes(8 * streams, "little"), dtype="<u8")
    return state


def substreams(seeds, *path):
    """Independent generators addressed by (seed, path), one per element of
    the product of ``seeds`` and the path, seeds outermost.

    Each path entry is an int or a sequence of ints in [0, 2**32).  The
    generator of ``(seed, k1, k2, ...)`` is numpy's
    ``Generator(PCG64(SeedSequence(seed mod 2**64, spawn_key=(k1, k2, ...))))``,
    bit for bit, but the seed hash runs once for all of them.
    """
    seeds = [int(s) & _MASK64 for s in seeds]
    keys = [[int(k)] if isinstance(k, numbers.Integral) else [int(v) for v in k]
            for k in path]
    if not all(0 <= v <= _MASK32 for k in keys for v in k):
        raise ValueError("substream path entries must be ints in [0, 2**32)")
    # stream order is the product's: factor f's value changes every
    # prod(sizes[f + 1:]) streams
    sizes = [len(seeds), *(len(k) for k in keys)]

    def lanes(factor, values):
        return _lanes(values, math.prod(sizes[factor + 1:]), math.prod(sizes[:factor]))

    words = [lanes(0, [s & _MASK32 for s in seeds]), lanes(0, [s >> 32 for s in seeds]), 0, 0]
    words += [lanes(factor, k) for factor, k in enumerate(keys, start=1)]
    state = _pcg64_state_words(words, math.prod(sizes))
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in state]


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
    streams = substreams(seeds, AGENT_DOMAIN, range(n_agents))
    values = np.empty(len(streams) * min(BLOCK_STEPS, horizon))
    for start in range(0, horizon, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, horizon - start)
        block = values[: len(streams) * steps].reshape(len(streams), steps)
        for gen, row in zip(streams, block):
            gen.random(out=row)
        yield block.reshape(len(seeds), n_agents, steps)


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


def policy_matrix(policy, q, delta_k, out, nonnegative=False):
    """Per-agent sampling distributions for a state matrix or a batch of them.

    ``q`` is a float array of shape ``(N, M)`` or ``(..., N, M)``, one
    estimate per row, and the distributions are written into ``out``, a
    C-contiguous float array of ``q``'s shape that does not overlap it:

    * ``direct`` copies ``q``.  A row with a negative in-flight component
      keeps its positive part, scaled to sum 1 only when it exceeds 1.
    * ``censored`` zeroes the components below :func:`censor_threshold`
      (negative ones always fall below it) and renormalizes the survivors.
      Without renormalization it scales a row only when its sum exceeds 1,
      and a row with nothing left stays zero: the agent is silent.  With
      renormalization a row with nothing left falls back to its positive
      part, renormalized (the whole of ``q`` for a proper distribution).
    * A row falling back to its positive part with no positive mass at all
      becomes the uniform distribution.

    Returns ``(uniform_fallbacks, clamped_agents)``, counting the rows set
    to uniform and the rows with a negative component per state: a number
    for one state, an array over the leading axes for a batch, or 0 for
    every state.  Each row depends only on its own estimate, so a batch
    gives the rows a single state would.

    ``nonnegative`` says that no component of ``q`` is negative or NaN, as
    a caller that has taken ``q``'s minimum knows; it must not be set
    otherwise.  A renormalized ``censored`` map whose every row keeps mass
    then skips the search for negative rows and divides its survivors in
    place; the hint changes no bit and no count.  ``direct`` does not read
    it: a caller that knows ``q`` is nonnegative can use ``q`` without the
    call.
    """
    if policy.kind != "direct":
        np.copyto(out, 0.0)
        np.copyto(out, q, where=q >= censor_threshold(policy, delta_k))
        # the ufunc reductions without the ndarray methods' Python wrappers
        totals = np.add.reduce(out, axis=-1)
        # each row divided by its total on the (M, rows) column views, which
        # spares the buffer as large as ``q`` that numpy fills with a
        # broadcast operand
        columns, row_totals = out.reshape(-1, q.shape[-1]).T, totals.reshape(-1)
        if (
            nonnegative
            and policy.renormalize
            and np.minimum.reduce(totals, axis=None) > 0.0
        ):  # every row keeps mass, and no row has a negative component
            np.divide(columns, row_totals, out=columns, order="C")
            return 0, 0
    neg_rows = np.logical_or.reduce(q < 0.0, axis=-1)
    clamped = np.add.reduce(neg_rows, axis=-1)
    if policy.kind == "direct":
        np.copyto(out, q)
        # rows rebuilt from the positive part, and the sum it is scaled above
        rebuilt, cap = neg_rows, 1.0
    elif not policy.renormalize:  # nothing is rebuilt
        np.divide(columns, row_totals, out=columns, where=row_totals > 1.0, order="C")
        return 0, clamped
    else:
        live = totals > 0.0
        np.divide(columns, row_totals, out=columns, where=live.reshape(-1), order="C")
        rebuilt, cap = ~live, 0.0
    if not np.logical_or.reduce(rebuilt, axis=None):  # the common censored call
        return 0, clamped
    pos = np.clip(q[rebuilt], 0.0, None)
    totals = pos.sum(axis=-1)
    scaled = totals > cap
    pos[scaled] /= totals[scaled, None]
    empty = ~(totals > 0.0)
    pos[empty] = 1.0 / q.shape[-1]
    out[rebuilt] = pos
    fallbacks = np.zeros_like(neg_rows)
    fallbacks[rebuilt] = empty
    return np.add.reduce(fallbacks, axis=-1), clamped


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
