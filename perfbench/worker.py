"""Set-up process for the benchmark's repeats; each repeat runs in a fork.

Started by ``run.py`` as ``python3 perfbench/worker.py <root> <config>`` with
the BLAS thread count pinned in its environment.  It imports socsamp from
``<root>/src``, loads the config, and prints one JSON line with the monotonic
time at which that finished (the end of set-up).  Then it reads one JSON job
per line from standard input.  For each job it forks a fresh process, which
makes one CLI call and exits, and prints one JSON line with the result: the
wall time of the call, its exit code, the peak RSS of the forked process and
of its largest pool child, and for traced jobs the per-layer summary.  The
worker itself never runs the CLI, so every call starts from the state the
imports left.

A job has ``argv`` (the CLI arguments) and a ``mode``:

* ``plain``: the CLI call with nothing wrapped.
* ``timed``: only ``harness.run_trials`` is wrapped, to time the trial phase.
* ``traced``: every wrapper of :class:`spans.Tracer`; the spans are written
  to ``job["spans_out"]`` when the call returns.
* ``counted``: the same wrappers plus the count of weight-matrix products.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _provenance():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _summarize(tracer):
    from spans import layer_of, self_times

    recorded = tracer.spans
    own = self_times(recorded)
    by_name = {}
    layers = {}
    for (name, start, end, parent), self_s in zip(recorded, own):
        entry = by_name.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
        layer = layers.setdefault(layer_of(name), {"s": 0.0, "self_s": 0.0})
        layer["self_s"] += self_s
        if parent < 0 or layer_of(recorded[parent][0]) != layer_of(name):
            layer["s"] += end - start
    trials_ms = [(end - start) * 1e3 for name, start, end, _ in recorded
                 if name == "dynamics.run_trial"]
    return {
        "functions": by_name,
        "layers": layers,
        "run_trial_ms": trials_ms,
        "counts": dict(tracer.counts),
        "span_count": len(recorded),
    }


def run_job(socsamp, job):
    """One CLI call in this (forked) process."""
    main_fn = socsamp.cli.main
    tracer = None
    trials_wall = []
    if job["mode"] in ("traced", "counted"):
        from spans import Tracer

        tracer = Tracer(count_flops=job["mode"] == "counted")
        main_fn = tracer.install(socsamp)
    elif job["mode"] == "timed":
        run_trials = socsamp.harness.run_trials

        def timed_run_trials(cfg):
            t0 = time.perf_counter()
            try:
                return run_trials(cfg)
            finally:
                trials_wall.append(time.perf_counter() - t0)

        socsamp.harness.run_trials = timed_run_trials

    t0 = time.perf_counter()
    code = main_fn(job["argv"])
    wall = time.perf_counter() - t0

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "wall_s": wall,
        "exit_code": code,
        "peak_rss_kb": own + children,
        "run_trials_s": sum(trials_wall) if trials_wall else None,
    }
    if tracer is not None:
        result["trace"] = _summarize(tracer)
    if job["mode"] == "traced":
        Path(job["spans_out"]).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"],
                        "spans": tracer.spans}),
            encoding="utf-8",
        )
    return result


def fork_job(socsamp, job):
    """Run ``job`` in a forked process and return its result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)  # the CLI's messages; stdout carries the protocol
            result = run_job(socsamp, job)
            with os.fdopen(write_fd, "w") as fh:
                fh.write(json.dumps(result))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"error": f"forked repeat ended with wait status {status}"}
    return json.loads(data)


def main():
    root = Path(sys.argv[1]).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))

    import socsamp
    import socsamp.cli
    import socsamp.harness

    if Path(socsamp.__file__).resolve().parent != src / "socsamp":
        raise SystemExit(f"socsamp imported from {socsamp.__file__}, not {src}")
    cfg = socsamp.harness.load_config(sys.argv[2])
    loaded_at = time.monotonic()
    _emit({
        "loaded_at": loaded_at,
        "n_agents": cfg.n_agents,
        "horizon": cfg.horizon,
        "provenance": _provenance(),
    })
    for line in sys.stdin:
        _emit(fork_job(socsamp, json.loads(line)))


if __name__ == "__main__":
    main()
