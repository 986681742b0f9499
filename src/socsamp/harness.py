"""Configuration, Monte Carlo orchestration, and output emission.

Config files are flat INI text with sections ``experiment``, ``network``,
``sampling``, ``schedule``, and ``mixing``; matrices are inline row-major
comma-separated decimals or ``file:<path>`` references.  All outputs are
UTF-8 with LF line endings and 17 significant digits, and are byte-identical
for identical (config, master seed) regardless of worker count.  Wall-clock
time is written to a separate ``timing.txt`` so the deterministic files stay
deterministic.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import StabilityError, asymptotic_report, q_star_prediction
from .dynamics import (
    MixingMatrices,
    StepSchedule,
    TrialAborted,
    TrialConfig,
    run_chunk,
    run_trial,
)
from .network import (
    WeightMatrixModel,
    birkhoff_model,
    fixed_model,
    iid_model,
    jointly_connected,
    mean_matrix,
    metropolis_complete,
    switching_model,
)
from .sampling import SamplingPolicy
from .state import initial_state


class ConfigError(ValueError):
    pass


def fmt(x):
    return f"{float(x) + 0.0:.17g}"  # +0.0 folds negative zero


def fmt_vector(v):
    return ",".join(fmt(x) for x in np.asarray(v, dtype=float).reshape(-1))


@dataclass(eq=False)
class ExperimentConfig:
    n_agents: int
    n_opinions: int
    horizon: int
    replications: int
    master_seed: int
    initial_samples: tuple
    weight_model: WeightMatrixModel
    mixing: MixingMatrices
    policy: SamplingPolicy
    schedule: StepSchedule
    out_dir: str = "runs/out"
    stride: object = "log"
    covariance: bool = False
    normality: bool = False
    connectivity_report: bool = True
    threads: int = 1
    max_cov_rel_error: float = 0.20
    min_normality_pass: float = 0.90
    record_noise: bool = True

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return serialize_config(self) == serialize_config(other)


def derive_trial_seed(master_seed, trial_index):
    """Stable 64-bit per-trial seed from (master seed, trial index)."""
    digest = hashlib.sha256(
        f"socsamp:{int(master_seed)}:{int(trial_index)}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _parse_matrix(text, n, base_dir, key):
    text = text.strip()
    if text.startswith("file:"):
        path = Path(base_dir) / text[5:].strip()
        if not path.exists():
            raise ConfigError(f"{key}: matrix file not found: {path}")
        text = path.read_text()
    values = [float(tok) for tok in text.replace("\n", ",").split(",") if tok.strip()]
    if len(values) != n * n:
        raise ConfigError(
            f"{key}: expected {n * n} row-major entries for a {n}x{n} matrix, "
            f"got {len(values)}"
        )
    return np.asarray(values, dtype=float).reshape(n, n)


def _parse_floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _resolve_initial(spec, n_agents, n_opinions, master_seed):
    spec = spec.strip()
    if spec.startswith("samples:"):
        xs = [int(tok) for tok in spec[len("samples:"):].split(",") if tok.strip()]
        if len(xs) != n_agents:
            raise ConfigError(
                f"experiment.initial: got {len(xs)} samples for {n_agents} agents"
            )
        return tuple(xs)
    if spec.startswith("random:"):
        probs = _parse_floats(spec[len("random:"):])
        if len(probs) != n_opinions:
            raise ConfigError(
                f"experiment.initial: need {n_opinions} probabilities, got {len(probs)}"
            )
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError(
                "experiment.initial: probabilities must be nonnegative and sum to 1"
            )
        from .sampling import init_stream

        rng = init_stream(master_seed)
        draws = rng.choice(n_opinions, size=n_agents, p=np.asarray(probs))
        return tuple(int(x) + 1 for x in draws)
    raise ConfigError(
        "experiment.initial must start with 'samples:' or 'random:'"
    )


def _parse_stride(text):
    text = text.strip()
    if text in ("log", "all"):
        return text
    try:
        return tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError as e:
        raise ConfigError(f"experiment.stride: {e}") from e


def _build_model(cp, n, base_dir):
    kind = cp.get("network", "kind", fallback="complete").strip()
    tau = cp.getfloat("network", "tau", fallback=1e-6)
    window = cp.getint("network", "window", fallback=0)
    try:
        if kind == "complete":
            return fixed_model(metropolis_complete(n), tau=tau, window=window)
        if kind == "fixed":
            w = _parse_matrix(cp.get("network", "matrix"), n, base_dir, "network.matrix")
            return fixed_model(w, tau=tau, window=window)
        if kind == "iid-finite-support":
            mats = [
                _parse_matrix(part, n, base_dir, "network.support")
                for part in cp.get("network", "support").split(";")
            ]
            probs = _parse_floats(cp.get("network", "probabilities"))
            return iid_model(mats, probs, tau=tau, window=window)
        if kind == "switching-periodic":
            mats = [
                _parse_matrix(part, n, base_dir, "network.support")
                for part in cp.get("network", "support").split(";")
            ]
            return switching_model(mats, tau=tau, window=window)
        if kind == "birkhoff-random":
            mixing = _parse_floats(cp.get("network", "mixing"))
            return birkhoff_model(n, mixing, tau=tau, window=window)
    except (ValueError, configparser.NoOptionError) as e:
        raise ConfigError(f"network: {e}") from e
    raise ConfigError(f"network.kind: unknown kind {kind!r}")


def load_config(path):
    """Parse and fully validate an experiment config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(path, encoding="utf-8")
    base_dir = path.parent
    try:
        n = cp.getint("experiment", "agents")
        m = cp.getint("experiment", "opinions")
        horizon = cp.getint("experiment", "horizon")
        replications = cp.getint("experiment", "replications", fallback=1)
        master_seed = cp.getint("experiment", "master_seed", fallback=0)
    except (configparser.Error, ValueError) as e:
        raise ConfigError(f"experiment: {e}") from e
    if n < 1 or m < 1:
        raise ConfigError("experiment: agents and opinions must be positive")
    if replications < 1:
        raise ConfigError("experiment.replications: must be at least 1")

    model = _build_model(cp, n, base_dir)
    try:
        schedule = StepSchedule(
            amplitude=cp.getfloat("schedule", "a", fallback=1.0),
            exponent=cp.getfloat("schedule", "gamma", fallback=0.75),
            offset=cp.getint("schedule", "k0", fallback=0),
        )
    except ValueError as e:
        raise ConfigError(f"schedule: {e}") from e
    try:
        policy = SamplingPolicy(
            kind=cp.get("sampling", "kind", fallback="direct").strip(),
            censor_floor_scale=cp.getfloat("sampling", "c", fallback=0.0),
            censor_exponent=cp.getfloat("sampling", "exponent", fallback=2.0),
            renormalize=cp.getboolean("sampling", "renormalize", fallback=True),
        )
    except ValueError as e:
        raise ConfigError(f"sampling: {e}") from e
    b_text = cp.get("mixing", "b", fallback="1.0")
    b_vals = _parse_floats(b_text)
    b = np.full(n, b_vals[0]) if len(b_vals) == 1 else np.asarray(b_vals)
    if b.size != n:
        raise ConfigError(f"mixing.b: expected 1 or {n} values, got {b.size}")
    try:
        mixing = MixingMatrices.from_b(b, n)
    except ValueError as e:
        raise ConfigError(f"mixing: {e}") from e

    initial = _resolve_initial(
        cp.get("experiment", "initial", fallback=f"random:{','.join(['%g' % (1.0 / m)] * m)}"),
        n, m, master_seed,
    )
    for i, x in enumerate(initial):
        if not 1 <= x <= m:
            raise ConfigError(f"experiment.initial: sample {i} out of range 1..{m}")

    return ExperimentConfig(
        n_agents=n,
        n_opinions=m,
        horizon=horizon,
        replications=replications,
        master_seed=master_seed,
        initial_samples=initial,
        weight_model=model,
        mixing=mixing,
        policy=policy,
        schedule=schedule,
        out_dir=cp.get("experiment", "out_dir", fallback="runs/out").strip(),
        stride=_parse_stride(cp.get("experiment", "stride", fallback="log")),
        covariance=cp.getboolean("experiment", "covariance", fallback=False),
        normality=cp.getboolean("experiment", "normality", fallback=False),
        connectivity_report=cp.getboolean(
            "experiment", "connectivity_report", fallback=True
        ),
        threads=cp.getint("experiment", "threads", fallback=1),
        max_cov_rel_error=cp.getfloat("experiment", "max_cov_rel_error", fallback=0.20),
        min_normality_pass=cp.getfloat("experiment", "min_normality_pass", fallback=0.90),
        record_noise=cp.getboolean("experiment", "record_noise", fallback=True),
    )


def serialize_config(cfg):
    """Canonical round-trippable text form of a config."""
    out = io.StringIO()
    out.write("[experiment]\n")
    out.write(f"agents = {cfg.n_agents}\n")
    out.write(f"opinions = {cfg.n_opinions}\n")
    out.write(f"horizon = {cfg.horizon}\n")
    out.write(f"replications = {cfg.replications}\n")
    out.write(f"master_seed = {cfg.master_seed}\n")
    out.write(f"initial = samples:{','.join(str(x) for x in cfg.initial_samples)}\n")
    out.write(f"out_dir = {cfg.out_dir}\n")
    stride = cfg.stride if isinstance(cfg.stride, str) else ",".join(
        str(k) for k in cfg.stride
    )
    out.write(f"stride = {stride}\n")
    out.write(f"covariance = {str(cfg.covariance).lower()}\n")
    out.write(f"normality = {str(cfg.normality).lower()}\n")
    out.write(f"connectivity_report = {str(cfg.connectivity_report).lower()}\n")
    out.write(f"threads = {cfg.threads}\n")
    out.write(f"max_cov_rel_error = {fmt(cfg.max_cov_rel_error)}\n")
    out.write(f"min_normality_pass = {fmt(cfg.min_normality_pass)}\n")
    out.write(f"record_noise = {str(cfg.record_noise).lower()}\n")
    model = cfg.weight_model
    out.write("\n[network]\n")
    out.write(f"kind = {model.kind}\n")
    out.write(f"tau = {fmt(model.tau)}\n")
    out.write(f"window = {model.window}\n")
    if model.kind == "fixed":
        out.write(f"matrix = {fmt_vector(model.support[0])}\n")
    elif model.kind in ("iid-finite-support", "switching-periodic"):
        out.write(
            "support = " + " ; ".join(fmt_vector(w) for w in model.support) + "\n"
        )
        if model.kind == "iid-finite-support":
            out.write(f"probabilities = {fmt_vector(model.probabilities)}\n")
    else:
        out.write(f"mixing = {fmt_vector(model.mixing)}\n")
    out.write("\n[sampling]\n")
    out.write(f"kind = {cfg.policy.kind}\n")
    out.write(f"c = {fmt(cfg.policy.censor_floor_scale)}\n")
    out.write(f"exponent = {fmt(cfg.policy.censor_exponent)}\n")
    out.write(f"renormalize = {str(cfg.policy.renormalize).lower()}\n")
    out.write("\n[schedule]\n")
    out.write(f"a = {fmt(cfg.schedule.amplitude)}\n")
    out.write(f"gamma = {fmt(cfg.schedule.exponent)}\n")
    out.write(f"k0 = {cfg.schedule.offset}\n")
    out.write("\n[mixing]\n")
    out.write(f"b = {fmt_vector(cfg.mixing.b_diag)}\n")
    return out.getvalue()


def save_config(cfg, path):
    Path(path).write_text(serialize_config(cfg), encoding="utf-8", newline="\n")


def config_digest(cfg):
    """Digest of the experiment identity.

    Where outputs land and how many workers run them do not change what is
    computed, so ``out_dir`` and ``threads`` are normalized away.
    """
    canonical = replace(cfg, out_dir="", threads=1)
    return hashlib.sha256(serialize_config(canonical).encode()).hexdigest()


def trial_config(cfg, trial_index):
    """Trial ``trial_index`` of the experiment, seeded from the master seed.

    Nothing the harness writes reads the mean-increment series, so it is not
    recorded.
    """
    return TrialConfig(
        n_agents=cfg.n_agents,
        n_opinions=cfg.n_opinions,
        initial_samples=cfg.initial_samples,
        weight_model=cfg.weight_model,
        mixing=cfg.mixing,
        policy=cfg.policy,
        schedule=cfg.schedule,
        horizon=cfg.horizon,
        seed=derive_trial_seed(cfg.master_seed, trial_index),
        checkpoints=cfg.stride,
        trial_index=trial_index,
        record_noise=cfg.record_noise,
        record_mean_increments=False,
    )


# (trial, agent) rows stepped together in one chunk.  The kernel's cost per
# agent-step stops falling at about 4000 rows (normality_n5 and
# consensus_n50 alike), and a chunk's uniform block then holds
# CHUNK_ROWS * BLOCK_STEPS doubles, 4 MiB
CHUNK_ROWS = 4096


def trial_chunks(replications, n_agents, workers):
    """Contiguous ``(start, stop)`` trial ranges, at least one per worker.

    A chunk holds at most ``CHUNK_ROWS`` (trial, agent) rows unless a
    single trial has more, so the per-step Python overhead is paid once for
    enough rows to hide it; the sizes differ by at most one.
    """
    by_rows = -(-replications * n_agents // CHUNK_ROWS)
    count = min(replications, max(workers, by_rows))
    edges = [replications * j // count for j in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _chunk_worker(tc, trials):
    try:
        return run_chunk(tc, trials)
    except TrialAborted as e:
        raise RuntimeError(
            f"trial {e.trial_index} (seed {e.seed}) aborted: {e}"
        ) from e


def run_trials(cfg):
    """All replications, stepped in chunks of trials.

    Trial results do not depend on the worker count or the chunk sizes.
    """
    tc = trial_config(cfg, 0)
    chunks = [
        [(i, derive_trial_seed(cfg.master_seed, i)) for i in range(start, stop)]
        for start, stop in trial_chunks(
            cfg.replications, cfg.n_agents, cfg.threads
        )
    ]
    if cfg.threads <= 1 or len(chunks) == 1:
        results = [_chunk_worker(tc, trials) for trials in chunks]
    else:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(_chunk_worker, [tc] * len(chunks), chunks))
    return [trace for traces in results for trace in traces]


def audit_assumptions(cfg):
    """Pass/fail audit of the standing assumptions: schedule, network, mixing."""
    results = []
    sched = cfg.schedule
    results.append(
        (
            "A1",
            True,
            f"delta_k = {fmt(sched.amplitude)}/(k+{sched.offset})^{fmt(sched.exponent)}"
            f", limit constant {fmt(sched.limit_constant)}",
        )
    )
    model = cfg.weight_model
    wbar = mean_matrix(model)
    nz = wbar[wbar > 0]
    tau_ok = bool(nz.size == 0 or nz.min() >= model.tau)
    connected = jointly_connected(model)
    a2_ok = tau_ok and connected
    results.append(
        (
            "A2",
            a2_ok,
            f"doubly stochastic support; min nonzero mean weight "
            f"{fmt(nz.min() if nz.size else 0.0)} vs tau {fmt(model.tau)}; "
            f"{'jointly connected' if connected else 'NOT jointly connected'} "
            f"(window {model.window})",
        )
    )
    gap = np.abs(cfg.mixing.a_diag + cfg.mixing.b_diag - 1.0).max()
    results.append(("A4", bool(gap <= 1e-12), f"max |a_ii+b_ii-1| = {fmt(gap)}"))
    return results


@dataclass
class RunSummary:
    config_digest: str
    checkpoints: tuple
    consensus_error_min: np.ndarray
    consensus_error_median: np.ndarray
    consensus_error_max: np.ndarray
    diagnostics: dict
    report: object
    passed: bool
    failures: list
    out_dir: str
    summary_text: str
    wall_clock: float


def _aggregate_diagnostics(traces):
    totals = {
        "simplex_violation_agent_steps": 0,
        "silent_messages": 0,
        "uniform_fallbacks": 0,
        "clamped_agents": 0,
    }
    maxima = {
        "max_sum_drift": 0.0,
        "max_noise_norm": 0.0,
        "max_martingale_norm": 0.0,
        "max_negative_component": 0.0,
    }
    for tr in traces:
        d = tr.diagnostics
        for key in totals:
            totals[key] += getattr(d, key)
        for key in maxima:
            maxima[key] = max(maxima[key], getattr(d, key))
    out = dict(totals)
    out.update(maxima)
    out["noise_norm_bound"] = traces[0].diagnostics.noise_norm_bound
    return out


def write_trace(trace, path):
    lines = ["k,agent,component,value"]
    for k, snap in zip(trace.checkpoints, trace.snapshots):
        for i in range(snap.shape[0]):
            for mcomp in range(snap.shape[1]):
                lines.append(f"{k},{i + 1},{mcomp + 1},{fmt(snap[i, mcomp])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _matrix_lines(name, mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return [
        f"{name}_shape = {mat.shape[0]},{mat.shape[1]}",
        f"{name} = {fmt_vector(mat)}",
    ]


def report_text(report):
    lines = [
        f"q_star = {fmt_vector(report.q_star)}",
        f"lambda2 = {fmt(report.lambda2)}",
        f"delta = {fmt(report.delta)}",
        f"stability_margin = {fmt(report.stability_margin)}",
        f"lyapunov_residual = {fmt(report.lyapunov_residual)}",
        f"cov_rel_error = {fmt(report.cov_rel_error)}",
        f"normality_pass_fraction = {fmt(report.normality_pass_fraction)}",
    ]
    lines += _matrix_lines("sigma", report.sigma)
    lines += _matrix_lines("s0", report.s0)
    lines += _matrix_lines("s", report.s)
    lines += _matrix_lines("s_tilde", report.s_tilde)
    if report.empirical_cov is not None:
        lines += _matrix_lines("empirical_cov", report.empirical_cov)
    if report.p_values is not None:
        lines.append(f"p_values = {fmt_vector(report.p_values)}")
    return "\n".join(lines) + "\n"


def run_experiment(cfg, out_dir=None):
    """Run all replications, write traces and summaries, evaluate predicates.

    The summary is reproducible byte-for-byte for identical config and master
    seed; the exit predicate fails when an enabled analysis check misses its
    threshold or the assumption audit fails.
    """
    t0 = time.perf_counter()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces = run_trials(cfg)
    for tr in traces:
        write_trace(tr, out / f"trace_{tr.trial_index}.csv")

    checkpoints = tuple(traces[0].checkpoints)
    errs = np.asarray([tr.consensus_errors for tr in traces])
    err_min = errs.min(axis=0)
    err_med = np.median(errs, axis=0)
    err_max = errs.max(axis=0)
    diagnostics = _aggregate_diagnostics(traces)

    failures = []
    audit = audit_assumptions(cfg) if cfg.connectivity_report else []
    for name, ok, detail in audit:
        if not ok:
            failures.append(f"assumption {name} failed: {detail}")

    report = None
    if cfg.covariance or cfg.normality:
        q_star = q_star_prediction(initial_state(cfg.initial_samples, cfg.n_opinions))
        try:
            report = asymptotic_report(
                cfg.weight_model,
                cfg.schedule.limit_constant,
                q_star,
                cfg.n_opinions,
                final_states=[tr.final_state for tr in traces],
                final_step_size=traces[0].final_step_size,
            )
        except (StabilityError, ValueError) as e:
            failures.append(f"analysis failed: {e}")
        if report is not None:
            if cfg.covariance and not report.cov_rel_error <= cfg.max_cov_rel_error:
                failures.append(
                    f"covariance mismatch: rel error {fmt(report.cov_rel_error)} "
                    f"> {fmt(cfg.max_cov_rel_error)}"
                )
            if cfg.normality and not (
                report.normality_pass_fraction >= cfg.min_normality_pass
            ):
                failures.append(
                    f"normality: pass fraction {fmt(report.normality_pass_fraction)} "
                    f"< {fmt(cfg.min_normality_pass)}"
                )

    digest = config_digest(cfg)
    lines = [
        f"config_digest = {digest}",
        f"agents = {cfg.n_agents}",
        f"opinions = {cfg.n_opinions}",
        f"horizon = {cfg.horizon}",
        f"replications = {cfg.replications}",
        f"master_seed = {cfg.master_seed}",
        f"checkpoints = {','.join(str(k) for k in checkpoints)}",
        f"consensus_error_min = {fmt_vector(err_min)}",
        f"consensus_error_median = {fmt_vector(err_med)}",
        f"consensus_error_max = {fmt_vector(err_max)}",
    ]
    for key in sorted(diagnostics):
        lines.append(f"diag_{key} = {diagnostics[key]}")
    for name, ok, detail in audit:
        lines.append(f"assumption_{name} = {'pass' if ok else 'FAIL'}: {detail}")
    if report is not None:
        lines.append(f"lambda2 = {fmt(report.lambda2)}")
        lines.append(f"lyapunov_residual = {fmt(report.lyapunov_residual)}")
        lines.append(f"cov_rel_error = {fmt(report.cov_rel_error)}")
        lines.append(
            f"normality_pass_fraction = {fmt(report.normality_pass_fraction)}"
        )
    passed = not failures
    lines.append(f"passed = {str(passed).lower()}")
    lines.append(f"failures = {'; '.join(failures)}")
    summary_text = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary_text, encoding="utf-8", newline="\n")
    if report is not None:
        (out / "report.txt").write_text(
            report_text(report), encoding="utf-8", newline="\n"
        )
    wall = time.perf_counter() - t0
    (out / "timing.txt").write_text(f"wall_clock_seconds = {wall:.3f}\n", encoding="utf-8")

    return RunSummary(
        config_digest=digest,
        checkpoints=checkpoints,
        consensus_error_min=err_min,
        consensus_error_median=err_med,
        consensus_error_max=err_max,
        diagnostics=diagnostics,
        report=report,
        passed=passed,
        failures=failures,
        out_dir=str(out),
        summary_text=summary_text,
        wall_clock=wall,
    )


def replay_trial(cfg, trial_index, stride="all"):
    """Re-run one trial by its derived seed with a dense (or given) stride."""
    if not 0 <= trial_index < cfg.replications:
        raise ConfigError(
            f"trial index {trial_index} out of range 0..{cfg.replications - 1}"
        )
    tc = replace(trial_config(cfg, trial_index), checkpoints=stride)
    return run_trial(tc)
