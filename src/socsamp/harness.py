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
import copy
import functools
import hashlib
import io
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import asymptotic_report, check_prediction, q_star_prediction
from .dynamics import StepSchedule, TrialResults, resolve_checkpoints, run_chunk
from .network import (
    BIRKHOFF,
    FIXED,
    IID,
    KINDS,
    SWITCHING,
    WeightMatrixModel,
    birkhoff_model,
    fixed_model,
    iid_model,
    jointly_connected,
    metropolis_complete,
    step_mean_matrices,
    switching_model,
)
from .sampling import INIT_DOMAIN, SamplingPolicy, substreams
from .state import initial_state


class ConfigError(ValueError):
    pass


def _check_counts(n_agents, n_opinions):
    if n_agents < 1 or n_opinions < 1:
        raise ConfigError("experiment: agents and opinions must be positive")


def fmt(x):
    return f"{float(x) + 0.0:.17g}"  # +0.0 folds negative zero


def fmt_vector(v):
    """``fmt`` of every entry, comma-separated.

    Report matrices repeat most of their values, so each distinct value is
    formatted once, in one ``%`` operation, and the strings are spread back
    over the entries by ``np.unique``'s inverse index.
    """
    values = np.asarray(v, dtype=float).ravel() + 0.0  # folds negative zero
    distinct, inverse = np.unique(values, return_inverse=True)
    strings = ("%.17g\0" * len(distinct) % tuple(distinct.tolist())).split("\0")
    return ",".join([strings[i] for i in inverse.tolist()])


@dataclass(eq=False)
class ExperimentConfig:
    """One experiment: the protocol, its Monte Carlo run and its checks.

    Construction validates the fields, so a config made by
    :func:`load_config`, by hand or by ``dataclasses.replace`` either runs
    or raises :class:`ConfigError`.  ``b`` takes the transmission
    coefficients ``b_ii`` as one value for every agent or one per agent,
    each in [0, 1], and holds them as a read-only vector; the retention
    coefficients are ``a_ii = 1 - b_ii``.
    """

    n_agents: int
    n_opinions: int
    horizon: int
    replications: int
    master_seed: int
    initial_samples: tuple
    weight_model: WeightMatrixModel
    b: np.ndarray
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

    def __post_init__(self):
        n, m = self.n_agents, self.n_opinions
        _check_counts(n, m)
        if self.replications < 1:
            raise ConfigError("experiment.replications: must be at least 1")
        if self.horizon < 1:
            raise ConfigError("experiment.horizon: must be at least 1")
        if len(self.initial_samples) != n:
            raise ConfigError(
                f"experiment.initial: got {len(self.initial_samples)} samples "
                f"for {n} agents"
            )
        for i, x in enumerate(self.initial_samples):
            if not 1 <= x <= m:
                raise ConfigError(f"experiment.initial: sample {i} out of range 1..{m}")
        b = np.array(self.b, dtype=float)
        if b.size == 1:
            b = np.full(n, b.item())
        if b.shape != (n,):
            raise ConfigError(f"mixing.b: expected 1 or {n} values, got {b.size}")
        # a NaN fails both comparisons
        outside = ~((b >= 0.0) & (b <= 1.0))
        if outside.any():
            i = int(outside.argmax())
            raise ConfigError(
                f"mixing.b: A4 violated: b_ii must lie in [0, 1], got {float(b[i])!r} "
                f"at i={i + 1}"
            )
        b.setflags(write=False)
        self.b = b
        if self.threads < 1:
            raise ConfigError("experiment.threads: must be at least 1")
        # a NaN fails each comparison
        if not 0.0 <= self.max_cov_rel_error < math.inf:
            raise ConfigError(
                "experiment.max_cov_rel_error: must be finite and nonnegative"
            )
        if not 0.0 <= self.min_normality_pass <= 1.0:
            raise ConfigError("experiment.min_normality_pass: must lie in [0, 1]")
        if self.weight_model.n != n:
            raise ConfigError(
                f"network: weight model has {self.weight_model.n} agents, expected {n}"
            )
        try:
            resolve_checkpoints(self.stride, self.horizon)
        except ValueError as e:
            raise ConfigError(f"experiment.stride: {e}") from e
        _check_theory(self)

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return serialize_config(self) == serialize_config(other)


def _check_theory(cfg, trials=None):
    """:func:`check_prediction` of a config with a check on, as a ConfigError."""
    if cfg.covariance or cfg.normality:
        try:
            check_prediction(cfg, trials)
        except ValueError as e:
            raise ConfigError(f"experiment.{e}") from None


def derive_trial_seed(master_seed, trial_index):
    """Stable 64-bit per-trial seed from (master seed, trial index)."""
    digest = hashlib.sha256(
        f"socsamp:{int(master_seed)}:{int(trial_index)}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@contextmanager
def _malformed(key):
    """Refuse a value that does not parse with a ConfigError naming ``key``.

    A ConfigError raised inside names its own key and passes through.  The
    message is one line: configparser spreads some of its own over several.
    """
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, configparser.Error) as e:
        message = " ".join(line.strip() for line in str(e).splitlines())
        raise ConfigError(f"{key}: {message}") from e


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
    """The initial opinions of ``experiment.initial``.

    No spec draws them from the uniform law, as ``random:`` with ``1/M``
    for every opinion would.
    """
    if spec is None:
        probs = [1.0 / n_opinions] * n_opinions
    else:
        if spec.startswith("samples:"):
            return tuple(
                int(tok) for tok in spec[len("samples:"):].split(",") if tok.strip()
            )
        if not spec.startswith("random:"):
            raise ConfigError(
                "experiment.initial must start with 'samples:' or 'random:'"
            )
        probs = _parse_floats(spec[len("random:"):])
        if len(probs) != n_opinions:
            raise ConfigError(
                f"experiment.initial: need {n_opinions} probabilities, got {len(probs)}"
            )
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError(
                "experiment.initial: probabilities must be nonnegative and sum to 1"
            )
    (rng,) = substreams([master_seed], INIT_DOMAIN)
    draws = rng.choice(n_opinions, size=n_agents, p=np.asarray(probs))
    return tuple(int(x) + 1 for x in draws)


def _parse_stride(text):
    text = text.strip()
    if text in ("log", "all"):
        return text
    try:
        return tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError as e:
        raise ConfigError(f"experiment.stride: {e}") from e


# Every key of the config file, by section in file order, as
# ``(field, syntax, *kinds)``.  The field is the attribute the key sets, of
# the ExperimentConfig or of its weight model, policy or schedule; a key the
# file leaves out leaves it at the dataclass default.  A syntax that is a
# type reads with configparser's getter of that type; :func:`_read` parses
# the others.  A ``[network]`` key with kinds is read, and required, by
# those kinds only.
_KEYS = {
    "experiment": {
        "agents": ("n_agents", int), "opinions": ("n_opinions", int),
        "horizon": ("horizon", int), "replications": ("replications", int),
        "master_seed": ("master_seed", int), "initial": ("initial_samples", "initial"),
        "out_dir": ("out_dir", str), "stride": ("stride", "stride"),
        "covariance": ("covariance", bool), "normality": ("normality", bool),
        "connectivity_report": ("connectivity_report", bool), "threads": ("threads", int),
        "max_cov_rel_error": ("max_cov_rel_error", float),
        "min_normality_pass": ("min_normality_pass", float),
    },
    "network": {
        "kind": ("kind", str), "tau": ("tau", float), "window": ("window", int),
        "matrix": ("support", "matrix", FIXED),
        "support": ("support", "matrices", IID, SWITCHING),
        "probabilities": ("probabilities", "floats", IID),
        "mixing": ("mixing", "floats", BIRKHOFF),
    },
    "sampling": {
        "kind": ("kind", str), "c": ("censor_floor_scale", float),
        "exponent": ("censor_exponent", float), "renormalize": ("renormalize", bool),
    },
    "schedule": {
        "a": ("amplitude", float), "gamma": ("exponent", float), "k0": ("offset", int),
    },
    "mixing": {"b": ("b", "floats")},
}
_GETTERS = {int: "getint", float: "getfloat", bool: "getboolean", str: "get"}
# initial stays text, which the counts and the seed resolve
_PARSERS = {"initial": str, "stride": _parse_stride, "floats": _parse_floats}
# each syntax's text, the inverse of its reading
_FORMATS = {
    int: str, float: fmt, bool: lambda v: str(v).lower(), str: str, "floats": fmt_vector,
    "initial": lambda v: "samples:" + ",".join(map(str, v)),
    "stride": lambda v: v if isinstance(v, str) else ",".join(map(str, v)),
    "matrix": lambda v: fmt_vector(v[0]),
    "matrices": lambda v: " ; ".join(map(fmt_vector, v)),
}


def _refuse_unknown_keys(cp):
    """Refuse a section or key that :func:`load_config` does not read,
    which would otherwise be ignored without a word, a misspelling say."""
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"{section}: unknown section")
        for key in cp.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")


def _read(cp, section, n=None, base_dir=None):
    """The fields that the keys of ``section`` in the file set, by name;
    matrices are ``n`` by ``n``, their files relative to ``base_dir``."""
    values = {}
    for key in cp.options(section) if cp.has_section(section) else ():
        field, syntax, *_ = _KEYS[section][key]
        value = cp.get(section, key)
        if syntax in _GETTERS:
            value = getattr(cp, _GETTERS[syntax])(section, key)
        elif syntax in ("matrix", "matrices"):
            parts = value.split(";") if syntax == "matrices" else [value]
            value = tuple(_parse_matrix(p, n, base_dir, f"{section}.{key}") for p in parts)
        else:
            value = _PARSERS[syntax](value)
        values[field] = value
    return values


def _build_model(cp, n, base_dir):
    """The ``[network]`` weight model: its kind's factory, called with the
    fields the file sets."""
    kind = cp.get("network", "kind", fallback="complete")
    if kind not in ("complete", *KINDS):
        raise ConfigError(f"network.kind: unknown kind {kind!r}")
    with _malformed("network"):
        for key, (_, _, *kinds) in _KEYS["network"].items():
            if kind in kinds:
                cp.get("network", key)  # configparser names a missing key
            elif kinds and cp.has_option("network", key):
                raise ConfigError(f"network.{key}: the {kind} kind does not read it")
        options = _read(cp, "network", n, base_dir)
        options.pop("kind", None)
        if kind == "complete":
            return fixed_model(metropolis_complete(n), **options)
        if kind == FIXED:
            return fixed_model(*options.pop("support"), **options)
        if kind == BIRKHOFF:
            return birkhoff_model(n, **options)
        return (iid_model if kind == IID else switching_model)(**options)


def load_config(path, overrides=None):
    """Parse and fully validate an experiment config file.

    ``overrides`` maps ``[experiment]`` keys to text that stands in for the
    file's, read as the file's keys are once all of the file is, so the
    config is that of a copy of the file with those keys, ``random:``
    initial opinions drawn from its ``master_seed`` included.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with _malformed("config file"):
        cp.read(path, encoding="utf-8")
    _refuse_unknown_keys(cp)
    with _malformed("experiment"):
        for key in ("agents", "opinions", "horizon"):
            cp.get("experiment", key)  # configparser names a missing key
        # the dataclass has no default for these two
        experiment = {"replications": 1, "master_seed": 0, **_read(cp, "experiment")}
    if overrides:
        # no interpolation: a flag's text is taken as given, % and all
        flags = configparser.ConfigParser(interpolation=None)
        flags.read_dict({"experiment": overrides})
        _refuse_unknown_keys(flags)
        with _malformed("experiment"):
            experiment.update(_read(flags, "experiment"))
    n, m = experiment["n_agents"], experiment["n_opinions"]
    # the network and the default initial opinions are built from the counts
    _check_counts(n, m)

    model = _build_model(cp, n, path.parent)
    with _malformed("schedule"):
        schedule = StepSchedule(**_read(cp, "schedule"))
    with _malformed("sampling"):
        policy = SamplingPolicy(**_read(cp, "sampling"))
    with _malformed("mixing"):
        b = _read(cp, "mixing").get("b", 1.0)
    with _malformed("experiment.initial"):
        initial = _resolve_initial(
            experiment.pop("initial_samples", None), n, m, experiment["master_seed"]
        )
    with _malformed("experiment"):
        return ExperimentConfig(
            **experiment, initial_samples=initial, weight_model=model, b=b,
            policy=policy, schedule=schedule,
        )


def serialize_config(cfg):
    """Canonical round-trippable text form of a config: every key of
    ``_KEYS`` that its network kind reads, in table order."""
    owners = {"network": cfg.weight_model, "sampling": cfg.policy, "schedule": cfg.schedule}
    sections = []
    for section, keys in _KEYS.items():
        owner = owners.get(section, cfg)
        lines = [f"[{section}]\n"]
        for key, (field, syntax, *kinds) in keys.items():
            if not kinds or owner.kind in kinds:
                lines.append(f"{key} = {_FORMATS[syntax](getattr(owner, field))}\n")
        sections.append("".join(lines))
    return "\n".join(sections)


def config_digest(cfg):
    """Digest of the experiment identity.

    Where outputs land and how many workers run them do not change what is
    computed, so ``out_dir`` and ``threads`` are normalized away on a copy,
    which is not validated again.
    """
    canonical = copy.copy(cfg)
    canonical.out_dir, canonical.threads = "", 1
    return hashlib.sha256(serialize_config(canonical).encode()).hexdigest()


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


TRACE_HEADER = "trial,k,agent,component,value\n"


def _part_paths(cfg):
    """The part file of each chunk of :func:`trial_chunks`, in chunk order."""
    count = len(trial_chunks(cfg.replications, cfg.n_agents, cfg.threads))
    return [Path(cfg.out_dir) / f"traces.csv.part{j}" for j in range(count)]


def _write_chunk(cfg, trials, part):
    """Step one chunk and write its trials' trace rows to ``part``.

    Returns the results without their snapshots, so only the consensus
    errors, diagnostics and final states go back to the parent, with the
    seconds spent stepping and writing.
    """
    start = time.perf_counter()
    results = run_chunk(cfg, trials)
    stepped = time.perf_counter()
    write_trace(results, part)
    return replace(
        results, snapshots=None, kernel_seconds=stepped - start,
        trace_write_seconds=time.perf_counter() - stepped,
    )


def run_trials(cfg):
    """All replications, stepped in chunks of trials.

    Each chunk, in a worker process when ``cfg.threads`` > 1, writes the
    trace rows of its trials to its own part file in ``cfg.out_dir``, which
    :func:`join_traces` joins into ``traces.csv``.  Returns one
    :class:`TrialResults` whose ``snapshots`` is None, with the chunks'
    seconds summed in chunk order.  When a chunk fails, every chunk is
    waited for, every part file is deleted, and the first failure in chunk
    order is raised.  Trial results and trace bytes do not depend on the
    worker count or the chunk sizes.
    """
    chunks = [
        [(i, derive_trial_seed(cfg.master_seed, i)) for i in range(start, stop)]
        for start, stop in trial_chunks(
            cfg.replications, cfg.n_agents, cfg.threads
        )
    ]
    parts = _part_paths(cfg)
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    try:
        if cfg.threads <= 1 or len(chunks) == 1:
            results = [_write_chunk(cfg, *job) for job in zip(chunks, parts)]
        else:
            # a forked pool starts all its workers at the first submit, and
            # leaving it waits for every chunk
            with ProcessPoolExecutor(max_workers=min(cfg.threads, len(chunks))) as pool:
                futures = [pool.submit(_write_chunk, cfg, *job) for job in zip(chunks, parts)]
            results = [future.result() for future in futures]
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise
    return TrialResults.concatenate(results)


def join_traces(cfg):
    """Join the part files of :func:`run_trials` into ``traces.csv``.

    The rows of every later part, without its header, are appended to the
    first part in chunk order, which then replaces ``traces.csv`` whole, so
    the file holds one complete run or is left as it was.  ``os.sendfile``
    copies the rows in the operating system; they never pass through this
    process.  The part files are deleted, whether the join succeeds or not.
    """
    first, *rest = parts = _part_paths(cfg)
    try:
        # r+ and a seek, not append mode, which sendfile refuses
        with open(first, "r+b") as dst:
            dst.seek(0, os.SEEK_END)
            for part in rest:
                with open(part, "rb") as src:
                    offset = len(TRACE_HEADER)
                    while sent := os.sendfile(dst.fileno(), src.fileno(), offset, 1 << 30):
                        offset += sent
        os.replace(first, Path(cfg.out_dir) / "traces.csv")
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


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
    # construction refused a step mean below tau: only connectivity can fail
    nz = np.concatenate([w[w > 0] for w in step_mean_matrices(model)])
    connected = jointly_connected(model)
    results.append(
        (
            "A2",
            connected,
            f"doubly stochastic support; min nonzero mean weight "
            f"{fmt(nz.min())} vs tau {fmt(model.tau)}; "
            f"{'jointly connected' if connected else 'NOT jointly connected'} "
            f"(window {model.window})",
        )
    )
    gap = np.abs((1.0 - cfg.b) + cfg.b - 1.0).max()
    results.append(("A4", bool(gap <= 1e-12), f"max |a_ii+b_ii-1| = {fmt(gap)}"))
    return results


@dataclass
class RunSummary:
    checkpoints: tuple
    consensus_error_median: np.ndarray
    passed: bool
    failures: list
    out_dir: str
    summary_text: str


def _column_median(a):
    """``np.median(a, axis=0)`` bit for bit, by its partition (NaNs last) and
    its NaN rule, without the ``numpy.ma`` import it makes on first call."""
    r = len(a)
    kth = [r // 2] if r % 2 else [r // 2 - 1, r // 2]
    part = np.partition(a, [*kth, -1], axis=0)
    mid = part[r // 2] if r % 2 else (part[r // 2 - 1] + part[r // 2]) / 2.0
    return np.where(np.isnan(part[-1]), part[-1], mid)


@functools.lru_cache(maxsize=1)
def _trace_template(checkpoints, n_agents, n_opinions):
    """One trial's trace rows as one ``%`` template: a line per value with
    its checkpoint, agent and component filled in, after ``\0``, the slot
    of the trial index.

    Every trial of a run shares it, so it is built once per process.  Each
    checkpoint's lines are one ``join`` of the slot and the checkpoint over
    the line ends that follow it, which every checkpoint shares.
    """
    ends = [""] + [
        f",{i},{c},%.17g\n"
        for i in range(1, n_agents + 1)
        for c in range(1, n_opinions + 1)
    ]
    return "".join(f"\0,{k}".join(ends) for k in checkpoints)


def write_trace(results, path):
    """Write the snapshots of ``results`` to ``path``: the
    ``trial,k,agent,component,value`` header, then lines trial-,
    checkpoint-, agent-, then component-major; values as :func:`fmt` writes
    them.

    Each trial's lines are formatted by one ``%`` over the shared template
    with the trial index filled in, and written as they are made.
    """
    _, _, n, m = results.snapshots.shape
    template = _trace_template(results.checkpoints, n, m)
    # + 0.0 folds negative zero, as fmt does
    snapshots = results.snapshots + 0.0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER)
        for index, values in zip(results.trial_indices.tolist(), snapshots):
            fh.write(template.replace("\0", str(index)) % tuple(values.ravel().tolist()))


def _matrix_lines(name, mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return [
        f"{name}_shape = {mat.shape[0]},{mat.shape[1]}",
        f"{name} = {fmt_vector(mat)}",
    ]


def report_text(report):
    """``report.txt``: seven scalar lines, then the covariance factors."""
    lines = [
        f"q_star = {fmt_vector(report.q_star)}",
        f"lambda2 = {fmt(report.lambda2)}",
        f"delta = {fmt(report.delta)}",
        f"stability_margin = {fmt(report.stability_margin)}",
        f"lyapunov_residual = {fmt(report.lyapunov_residual)}",
        f"cov_rel_error = {fmt(report.cov_rel_error)}",
        f"normality_pass_fraction = {fmt(report.normality_pass_fraction)}",
        # how the factors rebuild the dense, agent-major covariances
        "kronecker_factors = sigma = kron(I_N, c); s0 = kron(g, c); "
        "s = kron(x, c); s_tilde = kron(x_tilde, c)",
    ]
    for name in ("c", "g", "x", "x_tilde"):
        lines += _matrix_lines(name, getattr(report, name))
    if report.empirical_cov is not None:
        lines += _matrix_lines("empirical_cov", report.empirical_cov)
    if report.p_values is not None:
        lines.append(f"p_values = {fmt_vector(report.p_values)}")
    lines.append("")  # the closing newline, without a copy of the whole text
    return "\n".join(lines)


def theory_report(cfg, final_states=None):
    """:func:`asymptotic_report` of ``cfg``'s protocol at its initial average.

    With ``final_states``, the ``(trials, N, M)`` final states at
    ``cfg.horizon``, the report also compares them with the prediction.
    Raises ``ValueError`` (:class:`StabilityError` among them) when the
    prediction does not exist, which a config with a check on refuses at
    construction, and a run before its trials (:func:`check_prediction`).
    """
    q_star = q_star_prediction(initial_state(cfg.initial_samples, cfg.n_opinions))
    return asymptotic_report(
        cfg.weight_model,
        cfg.schedule.limit_constant,
        q_star,
        cfg.n_opinions,
        b=cfg.b,
        final_states=final_states,
        final_step_size=cfg.schedule.step_size(cfg.horizon),
    )


def write_report(report, out_dir):
    """Write :func:`report_text` to ``report.txt`` in ``out_dir``, made if
    missing, and return its path."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    path = Path(out_dir) / "report.txt"
    path.write_text(report_text(report), encoding="utf-8", newline="\n")
    return path


def run_experiment(cfg):
    """Run all replications, write traces and summaries into
    ``cfg.out_dir``, evaluate predicates.

    The summary is reproducible byte-for-byte for identical config and master
    seed; the exit predicate fails when an enabled analysis check misses its
    threshold or the assumption audit fails.  ``timing.txt`` gives the wall
    time and the seconds of each phase: the trials with their part files,
    then within them the chunks' stepping and trace writing (worker
    seconds, summed over the chunks, so with several workers they can
    exceed the wall time), the join into ``traces.csv``, the audit, the
    theory and the outputs.
    """
    marks = [time.perf_counter()]
    _check_theory(cfg, cfg.replications)  # construction checks all but the trial count
    out = Path(cfg.out_dir)
    # run_trials makes the directory and writes the part files into it
    results = run_trials(cfg)
    marks.append(time.perf_counter())
    join_traces(cfg)
    marks.append(time.perf_counter())

    failures = []
    audit = audit_assumptions(cfg) if cfg.connectivity_report else []
    for name, ok, detail in audit:
        if not ok:
            failures.append(f"assumption {name} failed: {detail}")
    marks.append(time.perf_counter())

    report = None
    if cfg.covariance or cfg.normality:
        report = theory_report(cfg, results.final_states)
        if cfg.covariance and not report.cov_rel_error <= cfg.max_cov_rel_error:
            failures.append(
                f"covariance mismatch: rel error {fmt(report.cov_rel_error)} "
                f"> {fmt(cfg.max_cov_rel_error)}"
            )
        if cfg.normality and not report.normality_pass_fraction >= cfg.min_normality_pass:
            failures.append(
                f"normality: pass fraction {fmt(report.normality_pass_fraction)} "
                f"< {fmt(cfg.min_normality_pass)}"
            )
    marks.append(time.perf_counter())

    checkpoints = results.checkpoints
    errs = results.consensus_errors
    err_med = _column_median(errs)
    lines = [
        f"config_digest = {config_digest(cfg)}",
        f"agents = {cfg.n_agents}",
        f"opinions = {cfg.n_opinions}",
        f"horizon = {cfg.horizon}",
        f"replications = {cfg.replications}",
        f"master_seed = {cfg.master_seed}",
        f"checkpoints = {','.join(str(k) for k in checkpoints)}",
        f"consensus_error_min = {fmt_vector(errs.min(axis=0))}",
        f"consensus_error_median = {fmt_vector(err_med)}",
        f"consensus_error_max = {fmt_vector(errs.max(axis=0))}",
    ]
    # counters summed over the trials, maxima maximized
    for key, values in sorted(results.diagnostics.items()):
        total = values.sum() if values.dtype.kind == "i" else values.max()
        lines.append(f"diag_{key} = {total.item()}")
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
        write_report(report, out)
    marks.append(time.perf_counter())
    seconds = [marks[-1] - marks[0], marks[1] - marks[0], results.kernel_seconds,
               results.trace_write_seconds, *np.diff(marks[1:])]
    phases = ("wall_clock", "trials", "kernel", "trace_write", "join", "audit",
              "theory", "outputs")
    (out / "timing.txt").write_text(
        "".join(f"{p}_seconds = {t:.3f}\n" for p, t in zip(phases, seconds)),
        encoding="utf-8",
    )

    return RunSummary(
        checkpoints=checkpoints,
        consensus_error_median=err_med,
        passed=passed,
        failures=failures,
        out_dir=str(out),
        summary_text=summary_text,
    )


def replay_trial(cfg, trial_index):
    """Re-run one trial by its derived seed, at the checkpoints of ``cfg.stride``."""
    if not 0 <= trial_index < cfg.replications:
        raise ConfigError(
            f"trial index {trial_index} out of range 0..{cfg.replications - 1}"
        )
    seed = derive_trial_seed(cfg.master_seed, trial_index)
    return run_chunk(cfg, [(trial_index, seed)])
