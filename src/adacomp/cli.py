"""Command-line entry points.

  adacomp run   --config cfg.json --out outdir
  adacomp sweep --config cfg.json --axis {L_T,minibatch,learners} --values 50,200,800 [--out outdir]

Every input comes from the arguments and the files they name. A sweep
builds each run's config through the same checks as the loaded one, so a
bad axis value is recorded in sweep.csv as a named config error and the
sweep goes on; so is a run directory that cannot be made or written.

Exit codes: 0 on success; 2 for a bad config, argument or data file, or a run
that needs more memory than the host has (a ``MemoryError``), with an
``error: ...`` line on stderr; 3 when a run diverges.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig
from .data import DataError
from .runner import SWEEP_AXES, run, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="adacomp",
                                     description="Residual-gradient compression experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment")
    run_p.add_argument("--config", required=True, help="experiment JSON")
    run_p.add_argument("--out", required=True, help="output directory")

    sweep_p = sub.add_parser("sweep", help="run the config across one axis")
    sweep_p.add_argument("--config", required=True, help="experiment JSON")
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True, help="comma-separated integers")
    sweep_p.add_argument("--out", default="sweep-out", help="output directory")

    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes the "-1,2" of "--values -1,2" for an option: read "--values=-1,2";
    # so too after "--v" to "--value", the prefixes argparse reads as --values
    i = next((i for i, a in enumerate(argv[:-1]) if len(a) > 2 and "--values".startswith(a)), -1)
    if i >= 0 and not argv[i + 1].startswith("--"):
        argv[i:i + 2] = [f"--values={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error: cannot read config file {args.config}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    # the run makes its directory only after the data and the cluster are built
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        print(f"error: --out {out}: {blocker} is not a directory", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "run":
        try:
            summary = run(cfg, out)
        except (ConfigError, DataError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except MemoryError as e:
            print(f"error: the run needs more memory than this host has: {e or 'MemoryError'}",
                  file=sys.stderr)
            return EXIT_CONFIG
        diverged = summary["diverged"]
        if diverged:
            print(f"run diverged: {diverged['reason']} at epoch {diverged['epoch']}, "
                  f"step {diverged['step']}; partial metrics written to {args.out}",
                  file=sys.stderr)
            return EXIT_DIVERGED
        print(f"final test error {summary['final_test_error']:.4f}, "
              f"mean compression rate {summary['mean_rate_overall']:.1f}x -> {args.out}")
        return EXIT_OK

    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print(f"error: --values must be comma-separated integers, got {args.values!r}",
              file=sys.stderr)
        return EXIT_CONFIG
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return EXIT_CONFIG
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        print(f"error: --values repeats {repeated}; each value runs once, in its own directory",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = sweep(cfg, args.axis, values, out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    for r in rows:
        err = "-" if r["final_test_error"] is None else f"{r['final_test_error']:.4f}"
        rate = "-" if r["mean_compression_rate"] is None else f"{r['mean_compression_rate']:.1f}x"
        print(f"{args.axis}={r['value']}: test error {err}, rate {rate} [{r['status']}]")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
