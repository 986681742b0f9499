"""Benchmark of ``socsamp simulate`` and ``socsamp analyze``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload consensus_n50 --seed 1 --seconds 25 --trace 0

Every repeat is one CLI call in a fresh process, forked from a
``worker.py`` process that has done the set-up (imports and config load) and
runs nothing else.  This script is the only process that generates load, one
repeat at a time (closed loop, one client).  BLAS is pinned to one thread in
every process it starts.

``--trace 0`` samples set-up three times, in fresh processes, then repeats
the untraced call until ``--seconds`` are used (at least twice) and reports
the medians of the end-to-end metrics.  ``--trace 1`` makes a fixed set of
calls instead: the untraced call at the workload's worker count and, if that
differs, at one worker (both with the trial phase timed), the traced call at
one worker, and a traced call on at most ten trials that counts the weight
products; it reports the per-layer metrics.  Every call goes
through the correctness gate; the last line of standard output is the JSON
result.  Spans and per-repeat records are written under ``.perfbench_out/``.
See ``perfbench/README.md`` for the workloads, the metrics and the layer map,
and ``perfbench/baseline.json`` for the first numbers.  The self-test is
``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import MODULES as LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_REPEATS = 2
FLOP_TRIALS = 10
SETUP_SAMPLES = 3
RUN_LIMIT_S = 140  # no repeat starts that would end past this, so a run ends within 180 s
REPEAT_TIMEOUT_S = 170
DRIFT_TOL = 1e-9
VERDICT_CLAUSES = ("covariance mismatch:", "normality: pass fraction")
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    command: str  # "simulate" or "analyze"
    config: str  # relative to the checkout root
    replications: int | None
    threads: int
    conserving: bool  # b = 1 everywhere: component sums may not drift


WORKLOADS = {
    "consensus_n50": Workload("simulate", "configs/consensus_n50.cfg", 2, 1, True),
    "normality_n5": Workload("simulate", "configs/normality_n5.cfg", 1000, 2, True),
    "random_censored": Workload(
        "simulate", "perfbench/configs/random_censored.cfg", 3, 1, False
    ),
    "analyze_n150": Workload("analyze", "perfbench/configs/analyze_n150.cfg", None, 1, True),
}

FUNCTION_METRICS = (
    ("dynamics.run_trial", "self_s"),
    ("network.sample_weight_matrix", "s"),
    ("network.sample_weight_matrix", "calls"),
    ("sampling.policy_matrix", "s"),
    ("sampling.policy_matrix", "calls"),
    ("sampling.message_uniform_panel", "s"),
    ("sampling.message_uniform_panel", "calls"),
    ("state.consensus_error", "s"),
    ("state.consensus_error", "calls"),
    ("state.initial_state", "calls"),
    ("harness.run_trials", "s"),
    ("harness.write_trace", "s"),
    ("harness.write_trace", "calls"),
    ("harness.audit_assumptions", "s"),
    ("harness.report_text", "s"),
    ("analysis.asymptotic_report", "s"),
    ("analysis.lyapunov_solve", "s"),
    ("analysis.normality_test", "s"),
    ("analysis.empirical_scaled_covariance", "s"),
)


class RepeatError(RuntimeError):
    pass


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def key_values(path, max_lines=None):
    """``key = value`` lines of a summary or report (the first ``max_lines``)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if max_lines is not None and i >= max_lines:
                break
            key, sep, value = line.partition(" = ")
            if sep:
                values[key] = value.rstrip("\n")
    return values


def read_outputs(out_dir):
    """Digests of the deterministic files, plus the values the gate reads."""
    digests, values = {}, {}
    for name in ("summary.txt", "report.txt"):
        path = out_dir / name
        if path.exists():
            digests[name] = sha256_file(path)
    if "report.txt" in digests:
        values.update(key_values(out_dir / "report.txt", max_lines=8))
    if "summary.txt" in digests:
        values.update(key_values(out_dir / "summary.txt"))
    return digests, values


def verdict_misses(values):
    """Failure clauses of ``summary.txt`` that are Monte Carlo verdicts.

    At R=1000 the covariance and normality checks are statistical tests: on a
    few seeds in a hundred they miss their thresholds with the program
    working as designed.  Returns None if any other clause failed.
    """
    clauses = [c.strip() for c in values.get("failures", "").split(";") if c.strip()]
    if not all(c.startswith(VERDICT_CLAUSES) for c in clauses):
        return None
    return clauses


def gate(workload, exit_code, digests, values, reference):
    """Reasons a repeat failed; empty when it passed.

    ``reference`` holds the digests of the first repeat of the same workload
    and seed; a later repeat must reproduce them byte for byte.  A missed
    Monte Carlo verdict alone (exit code 1, ``passed = false``) is reported
    as an accuracy figure, not as a failed run.
    """
    reasons = []
    verdict_only = bool(verdict_misses(values))
    if exit_code != 0 and not (exit_code == 1 and verdict_only):
        reasons.append(f"CLI exit code {exit_code}")
    expected = "summary.txt" if workload.command == "simulate" else "report.txt"
    if expected not in digests:
        reasons.append(f"{expected} missing")
    if workload.command == "simulate" and values.get("passed") != "true":
        if not (values.get("passed") == "false" and verdict_only):
            reasons.append("summary.txt lacks passed = true")
    if workload.conserving and "diag_max_sum_drift" in values:
        drift = float(values["diag_max_sum_drift"])
        if not drift <= DRIFT_TOL:
            reasons.append(f"diag_max_sum_drift {drift!r} > {DRIFT_TOL}")
    if "lyapunov_residual" in values:
        residual = float(values["lyapunov_residual"])
        if not residual <= RESIDUAL_TOL:
            reasons.append(f"lyapunov_residual {residual!r} > {RESIDUAL_TOL}")
    if reference is not None:
        for name in sorted(set(reference) | set(digests)):
            if reference.get(name) != digests.get(name):
                reasons.append(f"{name} differs from the first repeat")
    return reasons


def accuracy(values):
    """Accuracy figures the outputs carry (deterministic for a seed).

    ``analyze`` reports NaN for the Monte Carlo comparisons it does not make;
    those are left out.
    """
    out = {}
    for key in ("cov_rel_error", "normality_pass_fraction"):
        if key in values and math.isfinite(float(values[key])):
            out[key] = float(values[key])
    if "consensus_error_median" in values:
        out["consensus_error_final"] = float(
            values["consensus_error_median"].split(",")[-1]
        )
    if "cov_rel_error" in out:
        out["verdict_misses"] = len(verdict_misses(values) or ())
    return out


def seeded_config(name, workload, seed):
    """Copy of the workload config whose master seed is the workload seed.

    The master seed drives the per-trial streams and any ``random:`` initial
    opinions, so every input of the run derives from ``seed``.
    """
    text = (ROOT / workload.config).read_text(encoding="utf-8")
    text, count = re.subn(r"(?m)^master_seed\s*=.*$", f"master_seed = {seed}", text)
    if count != 1:
        raise RepeatError(f"{workload.config}: expected one master_seed line")
    path = OUT / f"{name}-seed{seed}.cfg"
    path.write_text(text, encoding="utf-8")
    return path


class Worker:
    """A ``worker.py`` process: set-up once, then one forked CLI call per job."""

    def __init__(self, config):
        log = open(OUT / "worker.log", "a", encoding="utf-8")
        self.started = time.monotonic()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(ROOT), str(config)],
                cwd=ROOT,
                env=dict(os.environ, **BLAS_ENV),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )
        finally:
            log.close()
        self.buffer = b""
        self.setup = self._read(REPEAT_TIMEOUT_S)
        self.setup["setup_s"] = self.setup["loaded_at"] - self.started

    def _read(self, timeout):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self.kill()
                raise RepeatError(f"worker gave no answer within {timeout} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self.kill()
                raise RepeatError(
                    f"worker exited {self.proc.returncode}; see {OUT / 'worker.log'}"
                )
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def job(self, job):
        try:
            self.proc.stdin.write((json.dumps(job) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.kill()
            raise RepeatError("worker exited before the job") from None
        result = self._read(REPEAT_TIMEOUT_S)
        if "error" in result:
            raise RepeatError(result["error"])
        return result

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self):
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


class Series:
    """Repeats of one workload and seed, all gated against the first."""

    def __init__(self, name, seed):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.config = seeded_config(name, self.workload, seed)
        self.references = {}  # digests of the first repeat, per replication count
        self.attempted = 0
        self.records = []
        self.failures = []  # {"repeat": index, "reasons": [...]}, one per failed repeat
        self.problems = []  # checks on the run as a whole
        self.setups = []
        self.worker = None

    def __enter__(self):
        self.worker = Worker(self.config)
        self.setups.append(self.worker.setup)
        return self

    def __exit__(self, *exc):
        self.worker.close()

    def setup_sample(self):
        """Set up once more in a fresh process that then exits."""
        worker = Worker(self.config)
        worker.close()
        self.setups.append(worker.setup)

    def repeat(self, threads, mode, spans_out=None, replications=None):
        """One gated CLI call; ``replications`` overrides the workload's R."""
        index = self.attempted
        self.attempted += 1
        out_dir = OUT / self.name / f"repeat{index}"
        shutil.rmtree(out_dir, ignore_errors=True)
        w = self.workload
        replications = replications or w.replications
        argv = [w.command, str(self.config), "--out", str(out_dir), "--threads", str(threads)]
        if replications is not None:
            argv += ["--replications", str(replications)]
        job = {"argv": argv, "mode": mode, "spans_out": spans_out and str(spans_out)}
        try:
            record = self.worker.job(job)
            record["digests"], record["values"] = read_outputs(out_dir)
        except RepeatError as e:
            self.failures.append({"repeat": index, "reasons": [str(e)]})
            if self.worker.proc.poll() is not None:
                self.worker = Worker(self.config)
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        record.update(threads=threads, mode=mode, replications=replications)
        reference = self.references.setdefault(replications, record["digests"])
        reasons = gate(w, record["exit_code"], record["digests"], record["values"],
                       None if reference is record["digests"] else reference)
        record["gate"] = reasons
        self.records.append(record)
        if reasons:
            self.failures.append({"repeat": index, "reasons": reasons})
        return record


def measure(series, seconds):
    """Untraced repeats at the workload's worker count until ``seconds`` are used."""
    for _ in range(SETUP_SAMPLES - 1):
        series.setup_sample()
    threads = series.workload.threads
    start = time.monotonic()
    while True:
        series.repeat(threads, "plain")
        elapsed = time.monotonic() - start
        per_repeat = elapsed / series.attempted
        if series.attempted >= MIN_REPEATS and (
            elapsed + per_repeat > seconds or elapsed + per_repeat > RUN_LIMIT_S
        ):
            break
    ok = [r for r in series.records if not r["gate"]]
    if not ok:
        return None
    return {
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "setup_s": statistics.median(s["setup_s"] for s in series.setups),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in ok) / 1024.0,
    }


def nearest_rank(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure_traced(series):
    """Untraced and traced calls; per-layer metrics from the traced one."""
    workload = series.workload
    spans_out = OUT / f"{series.name}-seed{series.seed}-spans.json"
    timed = series.repeat(workload.threads, "timed")
    single = timed
    if workload.threads != 1:
        single = series.repeat(1, "timed")
    traced = series.repeat(1, "traced", spans_out)
    # Products are counted on the first trials only, and scaled to R: the
    # count costs a Python call per product.
    counted_r = workload.replications and min(workload.replications, FLOP_TRIALS)
    counted = series.repeat(1, "counted", replications=counted_r)
    if None in (timed, single, traced, counted):
        return None, {}

    summary = traced["trace"]
    functions, layers, counts = summary["functions"], summary["layers"], summary["counts"]
    metrics = {}
    for fn, field in FUNCTION_METRICS:
        metrics[f"{fn}.{field}"] = functions.get(fn, {}).get(field, 0)
    for layer in LAYERS:
        entry = layers.get(layer, {"s": 0.0, "self_s": 0.0})
        metrics[f"{layer}.s"] = entry["s"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
    metrics.update(counts)
    flops = counted["trace"]["counts"]["dynamics.matmul_flops"]
    metrics["dynamics.matmul_flops"] = (
        flops * workload.replications // counted_r if counted_r else flops
    )

    trials_ms = sorted(summary["run_trial_ms"])
    n_trials = len(trials_ms)
    steps = n_trials * series.setups[0]["horizon"]
    metrics["dynamics.run_trial.p50_ms"] = statistics.median(trials_ms) if trials_ms else 0.0
    metrics["dynamics.run_trial.p99_ms"] = nearest_rank(trials_ms, 0.99)
    metrics["dynamics.step_self_us"] = (
        1e6 * metrics["dynamics.run_trial.self_s"] / steps if steps else 0.0
    )
    # Serial trial time over worker-seconds of the parallel trial phase, both
    # untraced: the traced run_trial sum would carry the tracing overhead.
    metrics["harness.run_trials.parallel_eff"] = (
        single["run_trials_s"] / (workload.threads * timed["run_trials_s"])
        if timed["run_trials_s"] else 0.0
    )
    metrics["agent_steps_per_s"] = steps * series.setups[0]["n_agents"] / timed["wall_s"]
    metrics["trace_overhead_s"] = traced["wall_s"] - single["wall_s"]

    values = accuracy(timed["values"])
    metrics["analysis.cov_rel_error"] = values.get("cov_rel_error", 0.0)
    metrics["analysis.normality_pass_fraction"] = values.get("normality_pass_fraction", 0.0)
    metrics["state.consensus_error_final"] = values.get("consensus_error_final", 0.0)

    # The layers' self times partition the root span, which is the traced wall.
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    gap = abs(traced["wall_s"] - self_sum)
    checks = {"self_sum_s": self_sum, "traced_wall_s": traced["wall_s"], "gap_s": gap}
    if gap > max(metrics["trace_overhead_s"], 1e-3):
        series.problems.append(f"self times miss the traced wall by {gap} s")
    return metrics, checks


def git_revision():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "socsamp").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(series):
    worker = series.setups[0]["provenance"] if series.setups else {}
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **worker,
        "blas_threads": BLAS_ENV,
        "workload": series.name,
        "seed": series.seed,
    }


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_checkout():
    """Refuse to run without the program's sources and the shipped configs."""
    missing = [
        str(p) for p in (
            ROOT / "BENCHMARK.json",
            ROOT / "src" / "socsamp" / "cli.py",
            *(ROOT / w.config for w in WORKLOADS.values()),
        )
        if not p.is_file()
    ]
    if missing:
        raise SystemExit(f"not a socsamp checkout; missing: {', '.join(missing)}")


def run(name, seed, seconds, trace, units):
    OUT.mkdir(exist_ok=True)
    checks = {}
    with Series(name, seed) as series:
        if trace:
            metrics, checks = measure_traced(series)
        else:
            metrics = measure(series, seconds)
    if metrics is None:
        raise SystemExit(
            f"{name}: no usable repeat; failures: {json.dumps(series.failures)}"
        )
    wanted = units[1 if trace else 0]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise SystemExit(f"{name}: metrics not measured: {', '.join(missing)}")

    attempted = series.attempted
    failed = len(series.failures)
    prov = provenance(series)
    values = accuracy(series.records[0]["values"]) if series.records else {}
    record = {
        "provenance": prov,
        "trace": trace,
        "metrics": metrics,
        "accuracy": values,
        "checks": checks,
        "failures": series.failures,
        "problems": series.problems,
        "setups": series.setups,
        "repeats": [
            {k: v for k, v in r.items() if k not in ("trace", "values")}
            for r in series.records
        ],
    }
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    for key, value in prov.items():
        print(f"# {key}: {value}")
    for key in sorted(values):
        print(f"{key} = {values[key]!r}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} runs)")
    for key in sorted(wanted):
        print(f"{key} = {metrics[key]!r} {wanted[key]}")
    result = {
        "correct": failed == 0 and not series.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]} for k in wanted},
    }
    print(json.dumps(result))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    check_checkout()
    try:
        run(args.workload, args.seed, args.seconds, args.trace, load_units())
    except RepeatError as e:
        raise SystemExit(f"{args.workload}: {e}") from None


if __name__ == "__main__":
    main()
