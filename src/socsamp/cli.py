"""Command-line entry points: simulate, analyze, check, replay."""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from pathlib import Path

from .dynamics import TrialAborted
from .harness import (
    ConfigError,
    _parse_stride,
    audit_assumptions,
    fmt,
    load_config,
    replay_trial,
    run_experiment,
    theory_report,
    write_report,
    write_trace,
)


def _add_common(sub):
    sub.add_argument("config", help="experiment config file")
    sub.add_argument("--seed", type=int, default=None, help="override master seed")
    sub.add_argument(
        "--replications", type=int, default=None, help="override replication count"
    )
    sub.add_argument("--out", default=None, help="override output directory")
    sub.add_argument("--threads", type=int, default=None, help="override worker count")
    sub.add_argument("--stride", default=None, help="override checkpoint stride")


def _apply_overrides(cfg, args):
    updates = {}
    if getattr(args, "replications", None) is not None:
        updates["replications"] = args.replications
    if args.out is not None:
        updates["out_dir"] = args.out
    if getattr(args, "threads", None) is not None:
        updates["threads"] = args.threads
    if args.stride is not None:
        updates["stride"] = _parse_stride(args.stride)
    return replace(cfg, **updates) if updates else cfg


def build_parser():
    parser = argparse.ArgumentParser(
        prog="socsamp",
        description="Simulate and analyze one-hot social-sampling consensus",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("simulate", help="run the Monte Carlo experiment"))
    _add_common(subs.add_parser("analyze", help="theory-side report, no trials"))
    check = subs.add_parser("check", help="audit the standing assumptions")
    check.add_argument("config")
    rep = subs.add_parser("replay", help="re-run a single trial by derived seed")
    _add_common(rep)
    rep.add_argument("--trial", type=int, required=True, help="trial index to replay")
    return parser


def main(argv=None):
    """Run one subcommand.

    Exit status: 0 on success, 1 only when ``simulate`` finishes but a
    check misses its threshold or the audit fails (or ``check`` finds a
    failed assumption), 2 when the input is refused with one line on
    stderr: ``config error:`` before any output is written,
    ``simulation failed:``, or ``analysis failed:`` from ``analyze`` of a
    config with neither check on.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    frozen = gc.get_freeze_count()
    try:
        # the seed is read with the file: random initial opinions derive from it
        cfg = load_config(args.config, master_seed=getattr(args, "seed", None))
        # What is alive once the config (a theory config's scipy with it) is
        # loaded outlives the command.  Frozen, the collector's full passes
        # skip it, and a forked pool worker's do not write to (and so copy) its
        # pages.  Unfrozen, how close the imports left the collector to its next
        # full pass decides whether a run pays one: 25-45 ms (2-core x86_64).
        gc.freeze()
        if args.command != "check":
            cfg = _apply_overrides(cfg, args)
        return _run(args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except TrialAborted as e:
        print(f"simulation failed: {e}", file=sys.stderr)
        return 2
    finally:
        if not frozen:
            gc.unfreeze()


def _run(args, cfg):
    if args.command == "check":
        all_ok = True
        for name, ok, detail in audit_assumptions(cfg):
            print(f"{name}: {'pass' if ok else 'FAIL'} ({detail})")
            all_ok = all_ok and ok
        return 0 if all_ok else 1

    if args.command == "simulate":
        summary = run_experiment(cfg)
        print(f"summary written to {Path(summary.out_dir) / 'summary.txt'}")
        if not summary.passed:
            for failure in summary.failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        return 0

    if args.command == "analyze":
        try:
            report = theory_report(cfg)
        except ValueError as e:  # StabilityError among them
            print(f"analysis failed: {e}", file=sys.stderr)
            return 2
        path = write_report(report, cfg.out_dir)
        print(f"q_star = {','.join(fmt(x) for x in report.q_star)}")
        print(f"lambda2 = {fmt(report.lambda2)}")
        print(f"delta = {fmt(report.delta)}")
        print(f"lyapunov_residual = {fmt(report.lyapunov_residual)}")
        print(f"report written to {path}")
        return 0

    # replay, the last of the parser's subcommands: dense unless --stride
    # names the checkpoints
    if args.stride is None:
        cfg = replace(cfg, stride="all")
    results = replay_trial(cfg, args.trial)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"replay_trial_{args.trial}.csv"
    write_trace(results, path)
    print(f"trace written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
