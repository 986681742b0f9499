"""Protocol state machine: step schedules, the per-step update, and trials.

One step is a synchronous round: every agent draws a one-hot message from its
sampling distribution, transmits, and moves its estimate by

    Q_i <- (1 - d*a_ii) Q_i - d*b_ii Y_i + d * sum_j w_ij Y_j

with step size ``d``, self-weight included in the neighbor sum.  The noise
split used throughout the analysis writes the realized increment as
``d * (drift + censor_noise + martingale_noise)`` where the drift uses the
mean weight matrix; :func:`decompose_step` reproduces that split exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .network import BIRKHOFF, FIXED, IID, SWITCHING, mean_matrix, sample_weight_matrix
from .sampling import (
    SamplingPolicy,
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
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("mixing diagonals must be equal-length vectors")
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


@dataclass(frozen=True)
class StepDecomposition:
    """Split of one realized increment into drift and the two noise parts.

    ``delta_k * (drift + censor_noise + martingale_noise)`` equals the
    realized increment exactly.
    """

    drift: np.ndarray
    censor_noise: np.ndarray
    martingale_noise: np.ndarray


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


@dataclass(frozen=True)
class TrialConfig:
    n_agents: int
    n_opinions: int
    initial_samples: tuple
    weight_model: object
    mixing: MixingMatrices
    policy: SamplingPolicy
    schedule: StepSchedule
    horizon: int
    seed: int
    checkpoints: object = "log"
    trial_index: int = 0
    record_noise: bool = True
    record_mean_increments: bool = True

    def __post_init__(self):
        if self.n_agents < 1 or self.n_opinions < 1:
            raise ValueError("need at least one agent and one opinion state")
        if len(self.initial_samples) != self.n_agents:
            raise ValueError(
                f"got {len(self.initial_samples)} initial samples for "
                f"{self.n_agents} agents"
            )
        if self.weight_model.n != self.n_agents:
            raise ValueError("weight model size does not match agent count")
        if self.mixing.n_agents != self.n_agents:
            raise ValueError("mixing diagonal length does not match agent count")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")


@dataclass
class TrialTrace:
    trial_index: int
    seed: int
    checkpoints: list
    snapshots: list
    consensus_errors: list
    disagreements: list
    final_state: StackedState
    final_step_size: float
    diagnostics: TrialDiagnostics
    mean_increments: np.ndarray | None = None
    initial_average: np.ndarray | None = None


class TrialAborted(RuntimeError):
    """A trial hit a non-finite value; names the trial, its seed and the step."""

    def __init__(self, step_index, diagnostics, trial_index=None, seed=None):
        super().__init__(
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


def _check_update_args(state, w, mix, messages):
    n, m = state.n_agents, state.n_opinions
    w = np.asarray(w, dtype=float)
    y = np.asarray(messages, dtype=float)
    if w.shape != (n, n):
        raise ValueError(f"weight matrix shape {w.shape} does not match {n} agents")
    if y.shape != (n, m):
        raise ValueError(f"messages shape {y.shape} does not match state ({n}, {m})")
    if mix.n_agents != n:
        raise ValueError("mixing diagonal length does not match agent count")
    return w, y


def _increment(w, q, y, ym_q, ab_col, b_col):
    """``(Q_{k+1} - Q_k) / d`` of one round, for one state or a batch.

    ``ab_col`` is None when every ``b_ii`` is 1: the retained and the
    transmitted own estimate then cancel, leaving ``W Y - Y``.
    """
    if ab_col is None:
        return w @ y - y
    return w @ y - ab_col * q - b_col * ym_q


def _martingale_noise(w, wbar, b_col, ym_p, p):
    """``(W - B)(Y - P) + (W - Wbar) P`` for one state or a batch.

    The second term is left out when ``w is wbar``, where it is zero.
    """
    mart = w @ ym_p - b_col * ym_p
    if wbar is not w:
        mart += (w - wbar) @ p
    return mart


def _mixing_columns(mix):
    """``(ab_col, b_col)`` as :func:`_increment` takes them."""
    b = mix.b_diag
    ab_col = None if np.all(b == 1.0) else (mix.a_diag + b)[:, None]
    return ab_col, b[:, None]


def update_step(state, w, mix, messages, delta_k):
    """One synchronous protocol round.

    With one-hot messages and estimates that sum to 1, each agent's
    component sum is preserved (up to rounding, which b != 1 lets build up).
    A silent (all-zero) message, which censored sampling without
    renormalization emits, carries no mass, so the agents that hear it lose
    component sum: silent runs do not conserve it.
    """
    w, y = _check_update_args(state, w, mix, messages)
    q = state.q
    increment = _increment(w, q, y, y - q, *_mixing_columns(mix))
    return StackedState(q + delta_k * increment, state.step_index + 1)


def decompose_step(state, w, wbar, mix, p, messages, delta_k):
    """Drift / censoring-noise / martingale-noise split of one step.

    ``wbar`` must be the mean of the weight-matrix model in force; ``p`` is
    the matrix of per-agent sampling distributions the messages were drawn
    from.
    """
    w, y = _check_update_args(state, w, mix, messages)
    wbar = np.asarray(wbar, dtype=float)
    p = np.asarray(p, dtype=float)
    q = state.q
    b = mix.b_diag[:, None]
    drift = wbar @ q - q
    censor = wbar @ (p - q) - b * (p - q)
    mart = _martingale_noise(w, wbar, b, y - p, p)
    return StepDecomposition(drift, censor, mart)


def noise_norm_bound(n_agents, n_opinions, scale=1.0):
    """Static bound on the projected martingale-noise norm per step."""
    return scale * n_agents**2 * n_opinions**2


def run_trial(config):
    """Execute one trial: :func:`run_chunk` on a chunk of one."""
    return run_chunk(config, [(config.trial_index, config.seed)])[0]


def run_chunk(config, trials):
    """Step a chunk of trials together on one ``(R, N, M)`` state.

    ``trials`` holds ``(trial_index, seed)`` pairs; trial ``r`` of the chunk
    is ``config`` with that index and seed (``config``'s own are not used).
    Step ``k`` (1-based) samples each trial's weight matrix, forms the
    sampling distributions from the current states, draws the messages
    using the pre-assigned uniform of each (trial, agent, step), and applies
    the update with step size ``schedule.step_size(k)``.  Every trial draws
    from its own streams and every operation acts on each trial's slice
    alone, so a trial's trace is the same bits in any chunk, a chunk of one
    included.

    A trial that hits a non-finite value is put back to its initial state
    and stepped on, so that it cannot disturb the rest; the chunk then
    raises :class:`TrialAborted` for the first such trial in chunk order,
    with its index, seed, step and the diagnostics it had at that step.
    """
    n, m = config.n_agents, config.n_opinions
    model = config.weight_model
    schedule = config.schedule
    horizon = config.horizon
    checkpoints = resolve_checkpoints(config.checkpoints, horizon)
    column = {k: c for c, k in enumerate(checkpoints)}
    indices = [int(i) for i, _ in trials]
    seeds = [int(s) for _, s in trials]
    chunk = len(seeds)

    q0 = initial_state(config.initial_samples, m).q
    initial_avg = q0.mean(axis=0)
    q = np.repeat(q0[None], chunk, axis=0)
    ab_col, b_col = _mixing_columns(config.mixing)
    b = config.mixing.b_diag

    if model.kind == IID:
        probs = np.asarray(model.probabilities)
        support = np.stack(model.support)
        small = np.min_scalar_type(len(model.support) - 1)
        picks = np.stack([
            weight_stream(s).choice(len(model.support), size=horizon, p=probs)
            .astype(small)
            for s in seeds
        ], axis=1)
    elif model.kind == BIRKHOFF:
        weight_rngs = [weight_stream(s) for s in seeds]
    wbar_static = mean_matrix(model) if model.kind in (IID, BIRKHOFF) else None

    violations = np.zeros(chunk, dtype=np.int64)
    silent = np.zeros(chunk, dtype=np.int64)
    fallbacks = np.zeros(chunk, dtype=np.int64)
    clamped = np.zeros(chunk, dtype=np.int64)
    max_negative = np.zeros(chunk)
    # a step writes its squared martingale norm, squared projected noise
    # norm and sum drift into ``now``; one fmax folds them into ``maxima``.
    # sqrt is monotone and correctly rounded, so the root of the largest
    # square is the largest root, bit for bit
    maxima = np.zeros((3, chunk))
    now = np.zeros((3, chunk))
    mart_sq, noise_sq, drift = now
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

    record_noise = config.record_noise and n >= 2
    mean_increments = (
        np.zeros((chunk, horizon, m)) if config.record_mean_increments else None
    )
    # column sums of W less b, as a row: the mean increment is d/n times
    # this row times Y - Q
    if model.kind == FIXED:
        excess = (model.support[0].sum(axis=0) - b)[None, :]
    snapshots = np.empty((chunk, len(checkpoints), n, m))
    errs = np.empty((chunk, len(checkpoints)))
    spreads = np.empty((chunk, len(checkpoints)))

    def snapshot(c):
        snapshots[:, c] = q
        errs[:, c] = consensus_error(q, initial_avg)
        spreads[:, c] = consensus_error(q, q.mean(axis=1))

    if 0 in column:
        snapshot(column[0])

    aborted = {}  # chunk position -> (step, diagnostics at that step)
    # the direct policy passes nonnegative estimates through unchanged, so
    # policy_matrix runs only once a negative component has been seen (a
    # non-finite trial is reset before the next step)
    direct = config.policy.kind == "direct"
    pass_through = direct  # the one-hot initial estimates are nonnegative
    delta = math.nan
    uniforms = chain.from_iterable(
        np.moveaxis(block, -1, 0)
        for block in message_uniform_blocks(seeds, n, horizon)
    )
    for k, u in enumerate(uniforms, start=1):
        delta = schedule.step_size(k)
        if model.kind == FIXED:
            w = wbar = model.support[0]
        elif model.kind == SWITCHING:
            w = wbar = model.support[k % len(model.support)]
        elif model.kind == IID:
            w, wbar = support[picks[k - 1]], wbar_static
        else:
            w = np.stack([sample_weight_matrix(model, k, g) for g in weight_rngs])
            wbar = wbar_static

        if pass_through:
            p = q
        else:
            p, fell_back, clamps = policy_matrix(config.policy, q, delta)
            if p is not q:
                fallbacks += fell_back
                clamped += clamps
        y, active = inverse_cdf_draw(p, u)
        if not active.all():
            silent += n - active.sum(axis=1)

        ym_q = y - q
        ym_p = ym_q if p is q else y - p

        if record_noise:
            mart = _martingale_noise(w, wbar, b_col, ym_p, p)
            np.add.reduce((mart * mart).reshape(chunk, -1), axis=1, out=mart_sq)
            # mart.mean(axis=1) without its Python wrapper; the batched matmul
            # gives each trial's col_mean @ col_mean bits, einsum rounds
            # differently.  The starting maximum 0 stands in for the clamp
            # of a negative difference at 0.
            col_mean = np.add.reduce(mart, axis=1) / n
            cc = (col_mean[:, None, :] @ col_mean[:, :, None])[:, 0, 0]
            np.subtract(mart_sq, n * cc, out=noise_sq)

        if mean_increments is not None:
            if model.kind != FIXED:
                excess = (w.sum(axis=-2) - b)[..., None, :]
            shift = excess @ ym_q
            mean_increments[:, k - 1] = (delta / n) * shift[..., 0, :]

        q = q + delta * _increment(w, q, y, ym_q, ab_col, b_col)

        # one reduction over the chunk in the common all-nonnegative case;
        # a NaN fails the comparison too and takes the per-trial path
        pass_through = direct and q.min() >= 0.0
        if not pass_through:
            qmin = q.min(axis=(1, 2))
            neg = qmin < 0.0
            if neg.any():
                rows = (q < 0.0).any(axis=2).sum(axis=1)
                violations += np.where(neg, rows, 0)
                np.fmax(max_negative, -qmin, out=max_negative)
        np.abs(q.sum(axis=2) - 1.0).max(axis=1, out=drift)
        # max() passes a NaN on, so one comparison finds every bad trial
        if not drift.max() < math.inf:
            # an aborted trial's diagnostics hold the noise maxima of the
            # failing step but not its drift
            np.fmax(maxima[:2], now[:2], out=maxima[:2])
            bad = ~np.isfinite(drift)
            for r in np.flatnonzero(bad):
                aborted.setdefault(int(r), (k, diagnostics(r)))
            q[bad] = q0
            if 0 in aborted:
                break  # no earlier trial in the chunk can abort instead
        # fmax keeps the old maximum over a NaN, as max() does
        np.fmax(maxima, now, out=maxima)

        if k in column:
            snapshot(column[k])

    if aborted:
        r = min(aborted)
        step, diag = aborted[r]
        raise TrialAborted(step, diag, trial_index=indices[r], seed=seeds[r])

    return [
        TrialTrace(
            trial_index=indices[r],
            seed=seeds[r],
            checkpoints=list(checkpoints),
            snapshots=list(snapshots[r]),
            consensus_errors=errs[r].tolist(),
            disagreements=spreads[r].tolist(),
            final_state=StackedState(q[r], step_index=horizon),
            final_step_size=delta,
            diagnostics=diagnostics(r),
            mean_increments=None if mean_increments is None else mean_increments[r],
            initial_average=initial_avg.copy(),
        )
        for r in range(chunk)
    ]
