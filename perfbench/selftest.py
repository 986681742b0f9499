"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload at a tiny size, untraced and traced: every metric named in
   BENCHMARK.json is emitted with its unit, and no run fails.  The traced
   run of ``normality_n5`` gates its one-worker outputs against its
   two-worker ones, so it also checks that ``summary.txt`` does not depend
   on the worker count.
2. A deliberately corrupted ``summary.txt`` counts as a failed run; a
   missed Monte Carlo verdict alone does not, any other failed clause does.
3. ``normality_n5`` at full size and the shipped seed reproduces the shipped
   accuracy: ``cov_rel_error`` 0.1584 and ``normality_pass_fraction`` 1.
4. In a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark exits nonzero without printing a result.

Exits nonzero on the first failed check.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

TINY = {
    "consensus_n50": {"horizon": "300", "replications": 2},
    "normality_n5": {
        "horizon": "100",
        "replications": 20,
        "max_cov_rel_error": "1e9",
        "min_normality_pass": "0",
    },
    "random_censored": {"horizon": "300", "replications": 2},
    "analyze_n150": {"agents": "12"},
}
SHIPPED_SEED = 712


def tiny_workloads(directory):
    """The workloads at a size that runs in a second or two.

    The normality thresholds are relaxed because 20 short trials cannot meet
    them; the full-size check below keeps them.
    """
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, workload in run.WORKLOADS.items():
        changes = dict(TINY[name])
        replications = changes.pop("replications", workload.replications)
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        cp.read(run.ROOT / workload.config, encoding="utf-8")
        for key, value in changes.items():
            cp.set("experiment", key, value)
        path = directory / f"{name}.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        out[name] = replace(workload, config=str(path), replications=replications)
    return out


def run_benchmark(name, seed, trace):
    """One benchmark run in this process; returns (result, printed lines)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.run(name, seed, 0.1, trace, run.load_units())
    lines = buffer.getvalue().strip().splitlines()
    return json.loads(lines[-1]), lines


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def check_metrics(units):
    for name in run.WORKLOADS:
        for trace in (0, 1):
            result, lines = run_benchmark(name, 5, trace)
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name} trace {trace}: result has exactly the contract keys",
            )
            wanted = units[trace]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, f"{name} trace {trace}: every metric with its unit")
            check(
                all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                f"{name} trace {trace}: every value is a number",
            )
            check(
                all(any(line.startswith(f"{k} = ") for line in lines) for k in wanted),
                f"{name} trace {trace}: every metric printed by name",
            )
            check(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                f"{name} trace {trace}: no failed run "
                f"({result['failed']} of {result['attempted']})",
            )


def check_corruption():
    real = run.read_outputs
    calls = []

    def corrupting(out_dir):
        calls.append(out_dir)
        if len(calls) == 2:
            path = out_dir / "summary.txt"
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace("passed = true", "passed = false"), encoding="utf-8")
        return real(out_dir)

    run.read_outputs = corrupting
    try:
        result, _ = run_benchmark("consensus_n50", 5, 0)
    finally:
        run.read_outputs = real
    check(
        not result["correct"] and result["failed"] == 1,
        f"corrupted summary.txt counted as a failed run "
        f"({result['failed']} of {result['attempted']})",
    )


def check_verdict_gate():
    workload = run.WORKLOADS["normality_n5"]
    digests = {"summary.txt": "x"}
    miss = {"passed": "false", "failures": "normality: pass fraction 0.8 < 0.9"}
    audit = {"passed": "false", "failures": "assumption A2 failed: x; " + miss["failures"]}
    check(not run.gate(workload, 1, digests, miss, None),
          "a missed Monte Carlo verdict alone is not a failed run")
    check(run.gate(workload, 1, digests, audit, None),
          "a failed assumption audit is a failed run")
    check(run.gate(workload, 1, digests, {"passed": "true", "failures": ""}, None),
          "exit code 1 without a missed verdict is a failed run")


def check_shipped_accuracy():
    with run.Series("normality_n5", SHIPPED_SEED) as series:
        record = series.repeat(series.workload.threads, "plain")
    check(record is not None and not record["gate"]
          and record["values"].get("passed") == "true",
          "normality_n5 at the shipped seed passes the gate with passed = true")
    values = run.accuracy(record["values"])
    check(
        round(values["cov_rel_error"], 4) == 0.1584
        and values["normality_pass_fraction"] == 1.0,
        f"normality_n5 at the shipped seed reproduces the shipped accuracy ({values})",
    )


def check_bare_directory():
    bare = run.OUT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "consensus_n50",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(
        proc.returncode != 0 and '"metrics"' not in proc.stdout,
        f"bare directory: exit {proc.returncode} without a result",
    )


def main():
    run.check_checkout()
    units = run.load_units()
    shipped = run.WORKLOADS
    run.OUT.mkdir(exist_ok=True)
    run.WORKLOADS = tiny_workloads(run.OUT / "selftest")
    try:
        check_metrics(units)
        check_corruption()
    finally:
        run.WORKLOADS = shipped
    check_verdict_gate()
    check_shipped_accuracy()
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
