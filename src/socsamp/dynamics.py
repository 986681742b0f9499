"""Protocol state machine: step schedules, the per-step update, and trials.

One step is a synchronous round: every agent draws a one-hot message from its
sampling distribution, transmits, and moves its estimate by

    Q_i <- (1 - d*a_ii) Q_i - d*b_ii Y_i + d * sum_j w_ij Y_j

with step size ``d``, self-weight included in the neighbor sum.  The noise
split used throughout the analysis writes the realized increment as
``d * (drift + censor_noise + martingale_noise)`` where the drift uses the
mean weight matrix; :func:`_martingale_noise` computes the last part.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from .network import (
    BIRKHOFF,
    FIXED,
    IID,
    SWITCHING,
    birkhoff_permutation_blocks,
    birkhoff_weights,
    iid_picks,
    mean_matrix,
)
from .sampling import (
    BLOCK_STEPS,
    inverse_cdf_draw,
    message_uniform_blocks,
    policy_matrix,
    weight_stream,
)
from .state import StackedState, consensus_error, initial_state

A4_TOL = 1e-12


@dataclass(frozen=True)
class StepSchedule:
    """Decreasing step sizes ``a / (k + k0)**gamma`` for steps ``k >= 1``.

    The exponent must lie in (1/2, 1] so the steps are square-summable but
    not summable.  ``limit_constant`` is the limit of
    ``1/d_{k+1} - 1/d_k``: ``1/a`` when gamma is exactly 1, else 0.
    """

    amplitude: float = 1.0
    exponent: float = 0.75
    offset: int = 0

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("A1 violated: amplitude a must be positive")
        if not 0.5 < self.exponent <= 1.0:
            raise ValueError(
                f"A1 violated: exponent gamma must be in (1/2, 1], got {self.exponent}"
            )
        if self.offset < 0:
            raise ValueError("A1 violated: offset k0 must be nonnegative")

    @property
    def limit_constant(self):
        return 1.0 / self.amplitude if self.exponent == 1.0 else 0.0

    def step_size(self, k):
        if k < 1:
            raise ValueError(f"step index starts at 1, got {k}")
        return self.amplitude / (k + self.offset) ** self.exponent


@dataclass(frozen=True)
class MixingMatrices:
    """Diagonal retention/transmission coefficients with a_ii + b_ii = 1."""

    a_diag: np.ndarray
    b_diag: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_diag, dtype=float)
        b = np.asarray(self.b_diag, dtype=float)
        if a.shape != b.shape or a.ndim != 1 or a.size == 0:
            raise ValueError("mixing diagonals must be equal-length nonempty vectors")
        if (a < 0).any() or (b < 0).any():
            i = int(np.argmin(np.minimum(a, b)))
            raise ValueError(
                f"A4 violated: coefficients must be nonnegative at i={i + 1}"
            )
        gap = np.abs(a + b - 1.0)
        if gap.max() > A4_TOL:
            i = int(gap.argmax())
            raise ValueError(
                f"A4 violated: a_ii+b_ii = {a[i] + b[i]!r} at i={i + 1}"
            )
        for name, arr in (("a_diag", a), ("b_diag", b)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_b(cls, b, n_agents):
        b = np.asarray(b, dtype=float)
        if b.ndim == 0:
            b = np.full(n_agents, float(b))
        return cls(1.0 - b, b)

    @property
    def n_agents(self):
        return self.b_diag.shape[0]


@dataclass
class TrialDiagnostics:
    """Counters and maxima accumulated while a trial runs."""

    simplex_violation_agent_steps: int = 0
    max_negative_component: float = 0.0
    silent_messages: int = 0
    uniform_fallbacks: int = 0
    clamped_agents: int = 0
    max_sum_drift: float = 0.0
    max_noise_norm: float = 0.0
    max_martingale_norm: float = 0.0
    noise_norm_bound: float = math.nan


@dataclass
class TrialTrace:
    trial_index: int
    seed: int
    checkpoints: list
    snapshots: list
    consensus_errors: list
    final_state: StackedState
    diagnostics: TrialDiagnostics


class TrialAborted(RuntimeError):
    """A trial hit a non-finite value; names the trial, its seed and the step."""

    def __init__(self, step_index, diagnostics, trial_index, seed):
        super().__init__(
            f"trial {trial_index} (seed {seed}) aborted: "
            f"non-finite value encountered at step {step_index}; "
            f"diagnostics: {asdict(diagnostics)}"
        )
        self.step_index = step_index
        self.diagnostics = diagnostics
        self.trial_index = trial_index
        self.seed = seed

    def __reduce__(self):
        # RuntimeError pickles only the message, which __init__ cannot take
        args = (self.step_index, self.diagnostics, self.trial_index, self.seed)
        return type(self), args


def default_checkpoints(horizon):
    """Logarithmic checkpoints 1, 2, 5, 10, ... plus 0 and the horizon."""
    ks = {0, horizon}
    scale = 1
    while scale <= horizon:
        for c in (1, 2, 5):
            if c * scale <= horizon:
                ks.add(c * scale)
        scale *= 10
    return tuple(sorted(ks))


def resolve_checkpoints(spec, horizon):
    if spec == "log" or spec is None:
        return default_checkpoints(horizon)
    if spec == "all":
        return tuple(range(horizon + 1))
    ks = sorted({int(k) for k in spec})
    if any(k < 0 or k > horizon for k in ks):
        raise ValueError("checkpoints must lie in 0..horizon")
    if horizon not in ks:
        ks.append(horizon)
    return tuple(ks)


def _increment(w, q, y, ym_q, ab_col, b_col, out=None):
    """``(Q_{k+1} - Q_k) / d`` of one round, for one state or a batch.

    ``ab_col`` and ``b_col`` are None when every ``b_ii`` is 1: the retained
    and the transmitted own estimate then cancel, leaving ``W Y - Y``, and
    ``ym_q`` is not read.  The increment is written into ``out`` when given.
    Its rows sum to 0 when every message is one-hot and every estimate sums
    to 1.  A silent (all-zero) message carries no mass, so the agents that
    hear it lose component sum.
    """
    inc = np.matmul(w, y, out=out)
    if ab_col is None:
        inc -= y
    else:
        inc -= ab_col * q
        inc -= b_col * ym_q
    return inc


def _martingale_noise(w, wbar, b_col, ym_p, p, out=None):
    """``(W - B)(Y - P) + (W - Wbar) P`` for one state or a batch.

    ``b_col`` is None when every ``b_ii`` is 1, where ``B (Y - P)`` is
    ``Y - P`` exactly.  The second term is left out when ``w is wbar``, where
    it is zero.  The noise is written into ``out`` when given.
    """
    mart = np.matmul(w, ym_p, out=out)
    mart -= ym_p if b_col is None else b_col * ym_p
    if wbar is not w:
        mart += (w - wbar) @ p
    return mart


def _mixing_columns(mix):
    """``(ab_col, b_col)`` as :func:`_increment` takes them."""
    b = mix.b_diag
    if np.all(b == 1.0):
        return None, None
    return (mix.a_diag + b)[:, None], b[:, None]


def noise_norm_bound(n_agents, n_opinions):
    """Static bound on the projected martingale-noise norm per step."""
    return float(n_agents**2 * n_opinions**2)


# a window buffer of run_chunk holds at most this many doubles, 512 KiB.  A
# window saves per-call overhead, which counts at a few hundred values per
# step, where the longest windows step fastest.  At thousands of values per
# step a call already spans enough of them, and a longer window would only
# push the step's data out of cache and add to each worker's peak memory
WINDOW_VALUES = 1 << 16


def window_steps(values_per_step):
    """Steps per window of :func:`run_chunk`, for states of that many values.

    As many as fit in ``WINDOW_VALUES`` doubles, at least one and at most one
    block of uniforms.
    """
    return max(1, min(BLOCK_STEPS, WINDOW_VALUES // values_per_step))


# the kernel finds non-finite values itself and raises TrialAborted; numpy's
# overflow warnings would only repeat that on stderr
@np.errstate(over="ignore", invalid="ignore")
def run_chunk(cfg, trials):
    """Step a chunk of trials together on one ``(R, N, M)`` state.

    ``cfg`` is an experiment config; the kernel reads its protocol fields
    ``n_agents``, ``n_opinions``, ``initial_samples``, ``weight_model``,
    ``mixing``, ``policy``, ``schedule``, ``horizon``, ``stride`` (the
    checkpoints) and ``record_noise``.  ``trials`` holds
    ``(trial_index, seed)`` pairs, one per trial of the chunk.

    Step ``k`` (1-based) samples each trial's weight matrix, forms the
    sampling distributions from the current states, draws the messages
    using the pre-assigned uniform of each (trial, agent, step), and applies
    the update with step size ``schedule.step_size(k)``.  Every trial draws
    from its own streams and every operation acts on each trial's slice
    alone, so a trial's trace is the same bits in any chunk, a chunk of one
    included.

    The steps run in windows of :func:`window_steps` steps.  Inside a window
    a step does only what the next step reads: it writes its state, and its
    martingale noise when noise is recorded, into a row of a window buffer.
    It draws its messages with the three-pass :func:`inverse_cdf_draw` into
    buffers allocated once per chunk, and computes the noise and the update
    with ``out=`` and in place.  On the fixed and switching networks under
    the direct policy with every ``b_ii = 1``, the one array a step
    allocates is the copy of its uniforms out of their block.
    The diagnostics (silent messages, noise norms, sum drift, negativity,
    finiteness) and the snapshots at checkpoints are then taken over the
    whole window in a few calls; the silent count reads the last row of each
    step's draw buffer.  Maxima, counts and snapshots do not depend on the
    order they are taken in, so the window length never changes a bit.

    A trial that hits a non-finite value is put back to its initial state
    and stepped on, so that it cannot disturb the rest; the chunk then
    raises :class:`TrialAborted` for the first such trial in chunk order,
    with its index, seed, step and the diagnostics it had at that step.  A
    window that finds a non-finite value is stepped again from its start,
    one step per window, with the draws it used, so each abort is handled
    at its own step.
    """
    n, m = cfg.n_agents, cfg.n_opinions
    model = cfg.weight_model
    schedule = cfg.schedule
    horizon = cfg.horizon
    checkpoints = resolve_checkpoints(cfg.stride, horizon)
    indices = [int(i) for i, _ in trials]
    seeds = [int(s) for _, s in trials]
    chunk = len(seeds)

    q0 = initial_state(cfg.initial_samples, m).q
    initial_avg = q0.mean(axis=0)
    ab_col, b_col = _mixing_columns(cfg.mixing)

    if model.kind == IID:
        support = np.stack(model.support)
        picks = iid_picks(model, [weight_stream(s) for s in seeds], horizon)
    wbar_static = mean_matrix(model) if model.kind in (IID, BIRKHOFF) else None

    # each block of steps' uniforms, (steps, chunk, n), and birkhoff
    # permutations, (steps, chunk, count, n)
    uniform_blocks = (
        np.moveaxis(block, -1, 0)
        for block in message_uniform_blocks(seeds, n, horizon)
    )
    if model.kind == BIRKHOFF:
        permutation_blocks = (
            np.moveaxis(block, 1, 0)
            for block in birkhoff_permutation_blocks(
                model, [weight_stream(s) for s in seeds], horizon
            )
        )
    else:
        permutation_blocks = repeat(None)

    # agent-steps with a negative component, silent messages, uniform
    # fallbacks and clamped agents, per trial
    counts = np.zeros((4, chunk), dtype=np.int64)
    violations, silent, fallbacks, clamped = counts
    max_negative = np.zeros(chunk)
    # a window writes each step's squared martingale norm, squared projected
    # noise norm (both 0 without noise recording) and sum drift into
    # ``now``; one fmax.reduce folds them into ``maxima``.  sqrt is monotone
    # and correctly rounded, so the root of the largest square is the
    # largest root, bit for bit
    window = min(window_steps(chunk * n * m), horizon)
    maxima = np.zeros((3, chunk))
    now = np.zeros((3, window, chunk))
    bound = noise_norm_bound(n, m)

    def diagnostics(r):
        return TrialDiagnostics(
            simplex_violation_agent_steps=violations[r].item(),
            max_negative_component=max_negative[r].item(),
            silent_messages=silent[r].item(),
            uniform_fallbacks=fallbacks[r].item(),
            clamped_agents=clamped[r].item(),
            max_sum_drift=maxima[2, r].item(),
            max_noise_norm=math.sqrt(maxima[1, r]),
            max_martingale_norm=math.sqrt(maxima[0, r]),
            noise_norm_bound=bound,
        )

    record_noise = cfg.record_noise and n >= 2
    # the states after each step of a window, the martingale noise of each
    # step, and each step's draw work of inverse_cdf_draw, whose last row
    # marks the agents that sent a message
    states = np.empty((window, chunk, n, m))
    noises = np.empty_like(states) if record_noise else None
    draws = np.zeros((window, m + 1, chunk * n))
    # one step's messages, their differences from the state and from the
    # sampling distributions, and its increment
    y, ym_q, ym_p, inc = np.empty((4, chunk, n, m))
    snapshots = np.empty((chunk, len(checkpoints), n, m))
    errs = np.empty((chunk, len(checkpoints)))

    q = np.repeat(q0[None], chunk, axis=0)
    if checkpoints[0] == 0:
        snapshots[:, 0] = q
        errs[:, 0] = consensus_error(q, initial_avg)

    aborted = {}  # chunk position -> (step, diagnostics at that step)
    # the direct policy passes nonnegative estimates through unchanged, so
    # policy_matrix runs only once a negative component has been seen (a
    # non-finite trial is reset before the next step)
    direct = cfg.policy.kind == "direct"
    pass_through = direct  # the one-hot initial estimates are nonnegative

    def windows():
        """Each window: the steps before its block, the block's uniforms and
        permutations, and the window's (start, stop) positions in the block."""
        first = 0
        for us, perms in zip(uniform_blocks, permutation_blocks):
            for start in range(0, len(us), window):
                yield first, us, perms, (start, min(start + window, len(us)))
            first += len(us)

    for first, us, perms, span in windows():
        # the window's start, to step it again from
        saved = q.copy(), counts.copy(), max_negative.copy(), pass_through
        spans = [span]  # the windows left to step, last first
        while spans:
            a, b = spans.pop()
            clean = direct  # every state of the window passed through
            for j in range(a, b):
                k = first + j + 1
                delta = schedule.step_size(k)
                if model.kind == FIXED:
                    w = wbar = model.support[0]
                elif model.kind == SWITCHING:
                    w = wbar = model.support[k % len(model.support)]
                elif model.kind == IID:
                    w, wbar = support[picks[k - 1]], wbar_static
                else:
                    w, wbar = birkhoff_weights(model, perms[j]), wbar_static

                if pass_through:
                    p = q
                else:
                    p, fell_back, clamps = policy_matrix(cfg.policy, q, delta)
                    if p is not q:
                        fallbacks += fell_back
                        clamped += clamps
                inverse_cdf_draw(p, us[j], out=y, work=draws[j - a])

                if record_noise:
                    np.subtract(y, p, out=ym_p)
                    _martingale_noise(w, wbar, b_col, ym_p, p, out=noises[j - a])
                if ab_col is not None:  # the update reads y - q only when b != 1
                    np.subtract(y, q, out=ym_q)
                _increment(w, q, y, ym_q, ab_col, b_col, out=inc)
                inc *= delta
                q = np.add(q, inc, out=states[j - a])
                # one reduction over the chunk; a NaN fails it too
                pass_through = direct and np.minimum.reduce(q, axis=None) >= 0.0
                clean = clean and pass_through

            steps = b - a
            window_states = states[:steps]
            mart_sq, noise_sq, drift = now[:, :steps]
            if record_noise:
                mart = noises[:steps]
                # mart.mean(axis=2) without its Python wrapper; the batched
                # matmul gives each step and trial the bits of
                # col_mean @ col_mean, einsum rounds differently
                col_mean = np.add.reduce(mart, axis=2) / n
                cc = (col_mean[..., None, :] @ col_mean[..., :, None])[..., 0, 0]
                mart *= mart  # the buffer is rewritten by the next window
                np.add.reduce(mart.reshape(steps, chunk, -1), axis=2, out=mart_sq)
                # the starting maximum 0 stands in for the clamp of a
                # negative difference at 0
                np.subtract(mart_sq, n * cc, out=noise_sq)
            np.abs(window_states.sum(axis=3) - 1.0).max(axis=2, out=drift)
            # each step's active row holds a 1.0 per agent that sent a message
            sent = np.add.reduce(draws[:steps, m].reshape(steps, chunk, n), axis=(0, 2))
            silent += steps * n - sent.astype(np.int64)
            if not clean:
                # a NaN fails the comparison, so it adds to no count
                qmin = window_states.min(axis=(2, 3))
                neg = qmin < 0.0
                if neg.any():
                    rows = (window_states < 0.0).any(axis=3).sum(axis=2)
                    violations += np.where(neg, rows, 0).sum(axis=0)
                    np.fmax(max_negative, np.fmax.reduce(-qmin), out=max_negative)
            # max() passes a NaN on, so one comparison finds every bad trial
            if not drift.max() < math.inf:
                if steps > 1:
                    q, saved_counts, saved_negative, pass_through = saved
                    counts[:] = saved_counts
                    max_negative[:] = saved_negative
                    spans = [(j, j + 1) for j in reversed(range(a, b))]
                    continue
                # an aborted trial's diagnostics hold the noise maxima
                # of the failing step but not its drift
                np.fmax(maxima[:2], now[:2, 0], out=maxima[:2])
                bad = ~np.isfinite(drift[0])
                for r in np.flatnonzero(bad):
                    aborted.setdefault(int(r), (k, diagnostics(r)))
                q[bad] = q0
                if 0 in aborted:
                    break  # no earlier trial in the chunk can abort instead
            # fmax keeps the old maximum over a NaN, as max() does
            np.fmax(maxima, np.fmax.reduce(now[:, :steps], axis=1), out=maxima)

            lo = bisect_right(checkpoints, first + a)
            hi = bisect_right(checkpoints, first + b)
            if lo < hi:
                taken = window_states[np.subtract(checkpoints[lo:hi], first + a + 1)]
                snapshots[:, lo:hi] = taken.swapaxes(0, 1)
                errs[:, lo:hi] = consensus_error(taken, initial_avg).T
        if 0 in aborted:
            break

    if aborted:
        r = min(aborted)
        step, diag = aborted[r]
        raise TrialAborted(step, diag, indices[r], seeds[r])

    final = q.copy()  # not a view that holds the window buffer
    return [
        TrialTrace(
            trial_index=indices[r],
            seed=seeds[r],
            checkpoints=list(checkpoints),
            snapshots=list(snapshots[r]),
            consensus_errors=errs[r].tolist(),
            final_state=StackedState(final[r], step_index=horizon),
            diagnostics=diagnostics(r),
        )
        for r in range(chunk)
    ]
