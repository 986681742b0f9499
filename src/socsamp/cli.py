"""Command-line entry points: simulate, analyze, check, replay."""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .dynamics import TrialAborted
from .harness import (
    ConfigError,
    audit_assumptions,
    fmt,
    load_config,
    replay_trial,
    run_experiment,
    theory_report,
    write_report,
    write_trace,
)


# each flag of simulate, analyze and replay, by its argparse dest, and the
# [experiment] key whose text it gives load_config
_FLAGS = {
    "seed": "master_seed", "replications": "replications", "out": "out_dir",
    "threads": "threads", "stride": "stride",
}


def _add_common(sub):
    sub.add_argument("config", help="experiment config file")
    for dest, key in _FLAGS.items():
        sub.add_argument(f"--{dest}", help=f"override experiment.{key}")


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
    rep.set_defaults(stride="all")  # dense unless --stride names the checkpoints
    rep.add_argument("--trial", type=int, required=True, help="trial index to replay")
    return parser


def main(argv=None):
    """Run one subcommand.

    The flags given are ``[experiment]`` keys that :func:`load_config` reads
    with the file's, so each command builds and validates its config once.

    Exit status: 0 on success, 1 only when ``simulate`` finishes but a
    check misses its threshold or the audit fails (or ``check`` finds a
    failed assumption), 2 when the input is refused with one line on
    stderr: ``config error:`` before any output is written,
    ``simulation failed:``, or ``analysis failed:`` from ``analyze`` of a
    config with neither check on.  argparse exits 2 with its own usage text
    for an unknown subcommand or flag and a non-integer ``--trial``.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    frozen = gc.get_freeze_count()
    try:
        flags = vars(args)
        cfg = load_config(args.config, {
            key: flags[dest] for dest, key in _FLAGS.items() if flags.get(dest) is not None
        })
        # What is alive once the config (a theory config's scipy with it) is
        # loaded outlives the command.  Frozen, the collector's full passes
        # skip it, and a forked pool worker's do not write to (and so copy) its
        # pages.  Unfrozen, how close the imports left the collector to its next
        # full pass decides whether a run pays one: 25-45 ms (2-core x86_64).
        gc.freeze()
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

    # replay, the last of the parser's subcommands
    results = replay_trial(cfg, args.trial)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"replay_trial_{args.trial}.csv"
    write_trace(results, path)
    print(f"trace written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
