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
from dataclasses import dataclass, fields
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
    WEIGHT_DOMAIN,
    draw_columns,
    message_uniform_blocks,
    policy_matrix,
    substreams,
)
from .state import consensus_error, initial_state


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
        # a NaN or an infinite value fails each check
        if not 0 < self.amplitude < math.inf:
            raise ValueError("A1 violated: amplitude a must be positive and finite")
        if not 0.5 < self.exponent <= 1.0:
            raise ValueError(
                f"A1 violated: exponent gamma must be in (1/2, 1], got {self.exponent}"
            )
        if not 0 <= self.offset < math.inf:
            raise ValueError("A1 violated: offset k0 must be finite and nonnegative")

    @property
    def limit_constant(self):
        return 1.0 / self.amplitude if self.exponent == 1.0 else 0.0

    def step_size(self, k):
        if k < 1:
            raise ValueError(f"step index starts at 1, got {k}")
        return self.amplitude / (k + self.offset) ** self.exponent


# the diagnostics of a trial, in the order an abort prints them
DIAGNOSTICS = (
    "simplex_violation_agent_steps", "max_negative_component", "silent_messages",
    "uniform_fallbacks", "clamped_agents", "max_sum_drift", "max_noise_norm",
    "max_martingale_norm", "noise_norm_bound",
)


@dataclass
class TrialResults:
    """A run of trials as arrays with one row per trial, in trial order.

    ``snapshots`` is ``(trials, checkpoints, N, M)``, or None once written;
    ``diagnostics`` maps each name of ``DIAGNOSTICS`` to a ``(trials,)``
    array, int64 for the counters and float64 for the maxima.  The seconds
    are the worker time spent stepping and writing traces, 0 when untimed.
    """

    trial_indices: np.ndarray
    checkpoints: tuple
    snapshots: np.ndarray | None
    consensus_errors: np.ndarray
    final_states: np.ndarray
    diagnostics: dict
    kernel_seconds: float = 0.0
    trace_write_seconds: float = 0.0

    @staticmethod
    def concatenate(parts):
        """The results of ``parts``, runs at the same checkpoints, in order:
        their arrays joined and their seconds summed."""
        def join(values):
            if isinstance(values[0], dict):
                return {name: join([v[name] for v in values]) for name in values[0]}
            if isinstance(values[0], np.ndarray):
                return np.concatenate(values)
            return sum(values) if isinstance(values[0], float) else values[0]

        joined = TrialResults(
            *(join([getattr(p, f.name) for p in parts]) for f in fields(TrialResults))
        )
        joined.final_states.setflags(write=False)
        return joined


class TrialAborted(RuntimeError):
    """A trial hit a non-finite value; names the trial, its seed, the step
    and, by the names of ``DIAGNOSTICS``, its diagnostics at that step."""

    def __init__(self, step_index, diagnostics, trial_index, seed):
        super().__init__(
            f"trial {trial_index} (seed {seed}) aborted: "
            f"non-finite value encountered at step {step_index}; "
            f"diagnostics: {diagnostics}"
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


def _increment(w, q, y, ym_q, b, out=None, scratch=None):
    """``(Q_{k+1} - Q_k) / d`` of one round, for one state or a batch.

    ``b`` holds the ``b_ii``, as a column or repeated to ``q``'s shape (a
    column makes numpy allocate a broadcast buffer on every call), and is
    None when every ``b_ii`` is 1: the retained and the transmitted own
    estimate then cancel, leaving ``W Y - Y``, and ``ym_q`` is not read.
    Otherwise the round is ``W Y - Q - B (Y - Q)``: ``a_ii = 1 - b_ii``
    and, in floating point, ``(1 - b) + b == 1`` for every ``b`` in [0, 1],
    so ``Q`` is subtracted as it is, the bits of its product with ``A + B``.
    The increment is written into ``out`` and the ``b_ii`` products into
    ``scratch``, an array of ``q``'s shape, when given; no input is
    written.  The increment's rows sum to 0 when every message is one-hot
    and every estimate sums to 1.  A silent (all-zero) message carries no
    mass, so the agents that hear it lose component sum.
    """
    inc = np.matmul(w, y, out=out)
    if b is None:
        inc -= y
    else:
        inc -= q
        inc -= np.multiply(b, ym_q, out=scratch)
    return inc


def _martingale_noise(w, wbar, b_col, ym_p, p, out=None, scratch=None, diff=None):
    """``(W - B)(Y - P) + (W - Wbar) P`` for one state or a batch.

    ``b_col`` is None when every ``b_ii`` is 1, where ``B (Y - P)`` is
    ``Y - P`` exactly.  The second term is left out when ``w is wbar``, where
    it is zero, and ``p`` is not read.  When given, ``out`` takes the noise,
    ``scratch`` (``ym_p``'s shape) ``B (Y - P)`` and then ``(W - Wbar) P``,
    and ``diff`` ``W - Wbar``; no input is written.
    """
    mart = np.matmul(w, ym_p, out=out)
    mart -= ym_p if b_col is None else np.multiply(b_col, ym_p, out=scratch)
    if wbar is not w:
        mart += np.matmul(np.subtract(w, wbar, out=diff), p, out=scratch)
    return mart


def noise_norm_bound(n_agents, n_opinions):
    """Static bound on the projected martingale-noise norm per step."""
    return float(n_agents**2 * n_opinions**2)


def _row_sums(x, out):
    """``x.sum(axis=-1)``, bit for bit, written into ``out``.

    Below 8 components numpy adds a row's components one after the other to
    0.0, as adds of whole components do, in a few calls instead of a short
    loop per row.  From 8 up numpy sums pairwise, and its own reduction is
    kept.
    """
    m = x.shape[-1]
    if m >= 8:
        return np.add.reduce(x, axis=-1, out=out)
    np.add(x[..., 0], 0.0, out=out)  # the start 0.0 folds a negative zero
    for c in range(1, m):
        out += x[..., c]
    return out


def _row_maxima(x, out):
    """``np.maximum.reduce(x, axis=-1)`` of nonnegative or NaN values, into ``out``.

    A maximum is exact in any order, and ``np.maximum`` passes a NaN on as
    the reduction does.  numpy reduces a short contiguous row in a loop of
    its own, about 70 ns a row under timeit, so below 8 values a row a few
    calls over whole slices take less: 281 against 22 us for 4,000 rows of
    5.  From 8 up the calls cost more than the rows on the windows
    :func:`run_chunk` steps, and the reduction is kept.
    """
    if x.shape[-1] >= 8:
        return np.maximum.reduce(x, axis=-1, out=out)
    np.copyto(out, x[..., 0])
    for c in range(1, x.shape[-1]):
        np.maximum(out, x[..., c], out=out)
    return out


def _agent_sums(x, work):
    """``np.add.reduce(x, axis=2)`` of a ``(steps, chunk, N, M)`` array, bit for bit.

    With M > 1 numpy adds the N agents of each column one after the other.
    An agent-major copy of ``x``, made in the flat ``work`` of at least
    ``x.size`` values, is reduced over its leading axis in the same order,
    one whole contiguous row at a time.  With M = 1 the agent axis is the
    contiguous one, which numpy sums pairwise from N = 8, so its own
    reduction is kept.
    """
    if x.shape[-1] == 1:
        return np.add.reduce(x, axis=2)
    major = work[: x.size].reshape(x.shape[2], *x.shape[:2], x.shape[3])
    np.copyto(major, x.transpose(2, 0, 1, 3))
    return np.add.reduce(major, axis=0)


def _sent_counts(messages):
    """Messages sent per trial in a window's ``(steps, chunk, N, M)`` draws.

    Each message is one-hot or silent, so this counts its ones: over the
    steps first, adding whole contiguous rows, then over each trial's
    ``N * M`` values.  Every partial sum is a small integer, exact in any
    order.
    """
    per_trial = np.add.reduce(messages, axis=0)
    sent = np.add.reduce(per_trial.reshape(len(per_trial), -1), axis=1)
    return sent.astype(np.int64)


# a window buffer of run_chunk holds at most this many doubles, 512 KiB.  The
# buffers hold a window's states, messages and noise, and its weight
# matrices, which count toward the cap where they outnumber the N * M values
# of a trial-step's state: N * N values per step on switching networks, and
# on random ones N * N per trial-step for the matrices and as many for their
# differences from the mean, which share the cap.  A window saves per-call
# overhead, which counts at a few hundred values per step, where the longest
# windows step fastest.  At thousands of values per step a call already
# spans enough of them, and a longer window would only push the step's data
# out of cache and add to each worker's peak memory
WINDOW_VALUES = 1 << 16


def window_steps(values_per_step):
    """Steps per window of :func:`run_chunk`, for that many values per step.

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
    ``b``, ``policy``, ``schedule``, ``horizon`` and ``stride`` (the
    checkpoints).  ``trials`` holds ``(trial_index, seed)`` pairs, one per
    trial of the chunk.

    Step ``k`` (1-based) takes each trial's weight matrix, forms the
    sampling distributions from the current states, draws the messages
    using the pre-assigned uniform of each (trial, agent, step), and applies
    the update with step size ``schedule.step_size(k)``.  Every trial draws
    from its own streams and every operation acts on each trial's slice
    alone, so a trial's results are the same bits in any chunk, a chunk of
    one included.  Returns the chunk's :class:`TrialResults`.

    The steps run in windows of :func:`window_steps` steps, and a step does
    only what the next step reads.  Once per step: the sampling map, the
    three-pass :func:`draw_columns` into a row of a window buffer of
    messages, the update, written into a row of a window buffer of states,
    and the minimum of the new state.  That one nonnegativity test decides
    how much work the next step's map does: the direct policy passes a
    nonnegative state through without a call, the censored map skips its
    search for negatives, and a window whose every state passed skips its
    negativity diagnostics.  The map writes each step's distributions into
    that step's row of a window buffer, the stash.  The draw reads and
    writes column views of the step buffers built once per chunk, and the
    step sizes of a window are computed when it starts.  Once per window:
    its uniforms, copied out of their block into a step-major buffer; the
    weight matrices of all its steps (a broadcast view of a fixed network,
    a stack of a switching network's matrices, the picked support of an iid
    network, one :func:`birkhoff_weights` call for a birkhoff one); the
    martingale noise of all its steps, in one
    :func:`_martingale_noise` call on the kept messages and sampling
    distributions; the diagnostics (silent messages, noise norms, sum
    drift, negativity, finiteness) and the snapshots at checkpoints.  Every
    buffer is allocated once per chunk, so a step that passes its state
    through allocates no array memory.  Maxima, counts and snapshots do not
    depend on the order they are taken in, and the window reductions add in
    numpy's order (see :func:`_row_sums`, :func:`_row_maxima` and
    :func:`_agent_sums`), so the window length never changes a bit.

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

    q0 = initial_state(cfg.initial_samples, m)
    initial_avg = q0.mean(axis=0)
    b_col = None if np.all(cfg.b == 1.0) else cfg.b[:, None]
    # the b_ii of every entry of a step's (chunk, N, M) state
    b_state = None
    if b_col is not None:
        b_state = np.tile(np.repeat(cfg.b, m), chunk).reshape(chunk, n, m)

    random_weights = model.kind in (IID, BIRKHOFF)
    if model.kind == SWITCHING:
        period = np.stack(model.support)
    elif model.kind == IID:
        support = np.stack(model.support)
        picks = iid_picks(model, substreams(seeds, WEIGHT_DOMAIN), horizon)
    wbar_static = mean_matrix(model) if random_weights else None
    # the values of one step's weight matrices, and on random networks of
    # their differences from the mean
    weight_values = {FIXED: 0, SWITCHING: n * n}.get(model.kind, 2 * chunk * n * n)

    # birkhoff permutations of each block of steps, (steps, chunk, count, n)
    if model.kind == BIRKHOFF:
        permutation_blocks = (
            np.moveaxis(block, 1, 0)
            for block in birkhoff_permutation_blocks(
                model, substreams(seeds, WEIGHT_DOMAIN), horizon
            )
        )
    else:
        permutation_blocks = repeat(None)

    def window_weights(first, a, b, perms):
        """The weight matrices of steps ``first + a + 1 .. first + b``, one
        per step, and ``(w, wbar)`` of those steps, shaped to broadcast
        against their ``(steps, chunk, N, M)`` states."""
        if random_weights:
            out = weights[0, : b - a]
            if model.kind == IID:  # picks are in range; mode "raise" copies out
                ws = np.take(support, picks[first + a : first + b], 0, out, "wrap")
            else:
                ws = birkhoff_weights(model, perms[a:b], out=out)
            return ws, ws, wbar_static
        if model.kind == FIXED:
            ws = np.broadcast_to(model.support[0], (b - a, n, n))
        else:
            ws = period[np.arange(first + a + 1, first + b + 1) % len(period)]
        w = ws[:, None]
        return ws, w, w

    # agent-steps with a negative component, silent messages, uniform
    # fallbacks and clamped agents, per trial
    counts = np.zeros((4, chunk), dtype=np.int64)
    violations, silent, fallbacks, clamped = counts
    max_negative = np.zeros(chunk)
    # a window writes each step's squared martingale norm, squared projected
    # noise norm and sum drift into ``now``; one fmax.reduce folds them into
    # ``maxima``.  sqrt is monotone and correctly rounded, so the root of the
    # largest square is the largest root, bit for bit
    window = min(window_steps(max(chunk * n * m, weight_values)), horizon)
    maxima = np.zeros((3, chunk))
    now = np.zeros((3, window, chunk))
    # a window's weight matrices on a random network, then their differences
    weights = np.empty((2, window, chunk, n, n)) if random_weights else None
    bound = noise_norm_bound(n, m)

    def diagnostics():
        """Every trial's diagnostics so far, by name."""
        return dict(zip(DIAGNOSTICS, (
            violations, max_negative, silent, fallbacks, clamped, maxima[2],
            np.sqrt(maxima[1]), np.sqrt(maxima[0]), np.full(chunk, bound),
        )))

    # row 0 of ``states`` holds a window's starting state and row i the
    # state after its i-th step.  ``messages`` holds each step's messages,
    # then their differences from the sampling distributions, and then
    # serves the window reductions as scratch.  ``noises`` holds each step's
    # martingale noise.  ``stash`` keeps the sampling distributions of the
    # steps that run the sampling map.  On fixed and switching networks that
    # is ``noises`` itself, which no step reads and which the noise call
    # only writes; on random networks the noise reads the distributions
    # apart from Y - P, so they get a buffer of their own.  ``scratch``
    # holds the b != 1 products and the products with W - Wbar
    states = np.empty((window + 1, chunk, n, m))
    messages = np.empty((window, chunk, n, m))
    noises = stash = np.empty_like(messages)
    if random_weights:
        stash = np.empty_like(messages)
    scratch = step_scratch = None
    if b_col is not None or random_weights:
        scratch = np.empty_like(messages)
        step_scratch = scratch[0]
    # one step's increment, its messages' differences from its state (read
    # only when b != 1), and its draw work for draw_columns
    inc = np.empty((chunk, n, m))
    ym_q = np.empty_like(inc) if b_col is not None else None
    work = np.zeros((m + 1, chunk * n))
    # a window's uniforms in step-major order
    window_uniforms = np.empty((window, chunk, n))
    # the step buffers as draw_columns reads and writes them: each step's
    # (M, rows) column view, and its uniforms as one row.  These views of
    # the whole buffers are built once, and a step's view of one costs half
    # a reshaped and transposed view of its row.  Lists of every step's
    # views would cost less again, but hold about 150 bytes a view: 0.13 MB
    # more peak memory for consensus_n50's 128-step windows
    def columns(buf):
        return buf.reshape(len(buf), chunk * n, m).transpose(0, 2, 1)

    state_columns, message_columns = columns(states), columns(messages)
    stash_columns = columns(stash)
    uniform_rows = window_uniforms.reshape(window, chunk * n)
    snapshots = np.empty((chunk, len(checkpoints), n, m))
    errs = np.empty((chunk, len(checkpoints)))

    q = np.repeat(q0[None], chunk, axis=0)
    if checkpoints[0] == 0:
        snapshots[:, 0] = q
        errs[:, 0] = consensus_error(q, initial_avg)

    aborted = {}  # chunk position -> (step, diagnostics at that step)
    # whether the state has no negative or NaN component (a non-finite trial
    # is reset before the next step).  The direct policy passes such a state
    # through unchanged, so policy_matrix runs only once a negative
    # component has been seen, and the censored map is told, so that it
    # skips its search for negatives
    direct = cfg.policy.kind == "direct"
    nonnegative = True  # the one-hot initial estimates

    def windows():
        """Each window: the steps before it, its uniforms, step-major, and
        its permutations."""
        first = 0
        blocks = message_uniform_blocks(seeds, n, horizon)
        for block, perms in zip(blocks, permutation_blocks):
            for a in range(0, block.shape[-1], window):
                b = min(a + window, block.shape[-1])
                us = window_uniforms[: b - a]
                np.copyto(us, block[..., a:b].transpose(2, 0, 1))
                yield first + a, us, None if perms is None else perms[a:b]
            first += block.shape[-1]

    for first, us, perms in windows():
        # the window's start, to step it again from
        saved = q.copy(), counts.copy(), max_negative.copy(), nonnegative
        spans = [(0, len(us))]  # the step ranges left to step, last first
        while spans:
            a, b = spans.pop()
            steps = b - a
            ws, w_window, wbar_window = window_weights(first, a, b, perms)
            ks = range(first + a + 1, first + b + 1)
            deltas = [schedule.step_size(k) for k in ks]
            states[0] = q
            q = states[0]
            clean = True  # every state of the window is nonnegative
            mapped = []  # the steps that ran the sampling map
            counted = []  # the map's counts at those steps
            for i, delta in enumerate(deltas):
                if direct and nonnegative:
                    p_columns = state_columns[i]
                else:
                    counted.append(
                        policy_matrix(cfg.policy, q, delta, stash[i], nonnegative)
                    )
                    mapped.append(i)
                    p_columns = stash_columns[i]
                draw_columns(p_columns, uniform_rows[a + i], message_columns[i], work)
                y = messages[i]
                if ym_q is not None:
                    np.subtract(y, q, out=ym_q)
                _increment(ws[i], q, y, ym_q, b_state, out=inc, scratch=step_scratch)
                inc *= delta
                q = np.add(q, inc, out=states[i + 1])
                # one reduction over the chunk; a NaN fails it too
                nonnegative = np.minimum.reduce(q, axis=None) >= 0.0
                clean = clean and nonnegative

            window_states = states[1 : steps + 1]
            window_messages = messages[:steps]
            mart_sq, noise_sq, drift = now[:, :steps]
            silent += steps * n - _sent_counts(window_messages)
            # each step's sampling distributions: its state, or the stash
            p_window = states[:steps]
            if mapped:
                # the hinted map counts with the int 0, which Python's sum
                # adds without a numpy call.  Two numpy adds a step made a
                # random_censored chunk 3-5% slower (2-core x86_64)
                fallbacks += sum(fell_back for fell_back, _ in counted)
                clamped += sum(clamps for _, clamps in counted)
                if len(mapped) < steps:
                    passed = np.ones((steps, 1, 1, 1), dtype=bool)
                    passed[mapped] = False
                    np.copyto(stash[:steps], p_window, where=passed)
                p_window = stash[:steps]
            ym_p = np.subtract(window_messages, p_window, out=window_messages)
            mart = _martingale_noise(
                w_window, wbar_window, b_col, ym_p,
                p_window if random_weights else None, out=noises[:steps],
                scratch=None if scratch is None else scratch[:steps],
                diff=None if weights is None else weights[1, :steps],
            )
            # the bits of mart.mean(axis=2); the batched matmul gives
            # each step and trial the bits of col_mean @ col_mean,
            # einsum rounds differently
            col_mean = _agent_sums(mart, messages.reshape(-1))
            col_mean /= n
            cc = (col_mean[..., None, :] @ col_mean[..., :, None])[..., 0, 0]
            mart *= mart  # the buffer is rewritten by the next window
            np.add.reduce(mart.reshape(steps, chunk, -1), axis=2, out=mart_sq)
            # the starting maximum 0 stands in for the clamp of a
            # negative difference at 0
            np.subtract(mart_sq, n * cc, out=noise_sq)
            # each row's |sum - 1|, in the messages buffer, which the window
            # has done with
            sums = messages.reshape(-1)[: steps * chunk * n].reshape(steps, chunk, n)
            _row_sums(window_states, out=sums)
            sums -= 1.0
            np.abs(sums, out=sums)
            _row_maxima(sums, out=drift)
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
                    q, saved_counts, saved_negative, nonnegative = saved
                    counts[:] = saved_counts
                    max_negative[:] = saved_negative
                    spans = [(j, j + 1) for j in reversed(range(a, b))]
                    continue
                # an aborted trial's diagnostics hold the noise maxima
                # of the failing step, step b of this one-step window, but
                # not its drift
                np.fmax(maxima[:2], now[:2, 0], out=maxima[:2])
                bad = ~np.isfinite(drift[0])
                diag = diagnostics()
                for r in np.flatnonzero(bad):
                    at_step = {name: v[r].item() for name, v in diag.items()}
                    aborted.setdefault(int(r), (first + b, at_step))
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
    final.setflags(write=False)
    return TrialResults(
        trial_indices=np.array(indices, dtype=np.int64),
        checkpoints=checkpoints,
        snapshots=snapshots,
        consensus_errors=errs,
        final_states=final,
        diagnostics=diagnostics(),
    )
