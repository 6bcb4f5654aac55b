"""Command-line front end.

Subcommands compose the experiment pipeline stages; every stage is a pure
function of (config, seed), so stages may be re-run or split across
invocations and still agree byte for byte.

Exit codes: 0 success, 2 configuration error, 3 simulation instability,
4 tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import stat
import sys

from .estimator import write_record_bundle
from .experiment import (
    _check_out_bundle,
    compare_reports,
    estimate_from_bundle,
    hammerstein_demo_config,
    read_experiment_config,
    run_experiment,
    run_records,
    write_generated_signals,
)
from .systems import ConfigurationError, InstabilityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_TOLERANCE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 with the JSON error, as for any invalid input
        raise ConfigurationError(f"{self.prog}: {message}")


def _add_common(sub: argparse.ArgumentParser, config_required: bool = True,
                workers: bool = False) -> None:
    sub.add_argument("--config", type=pathlib.Path, required=config_required,
                     help="experiment configuration file")
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed override (nonnegative integer)")
    if workers:
        sub.add_argument("--workers", type=int, default=1,
                         help="accepted and checked (>= 1), with no effect: "
                              "every run is one process")
    sub.add_argument("--out", type=pathlib.Path, default=pathlib.Path("."),
                     help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blakit",
        description="Multisine experiments: simulate nonlinear systems with "
                    "process noise and estimate their best linear approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, workers in (
            ("generate", "write the excitation signals", False),
            ("simulate", "simulate and write the record bundle", True),
            ("estimate", "estimate from an existing record bundle", False)):
        _add_common(sub.add_parser(name, help=text), workers=workers)

    comp = sub.add_parser("compare", help="compare two result bundles")
    comp.add_argument("bundle_a", type=pathlib.Path)
    comp.add_argument("bundle_b", type=pathlib.Path)
    comp.add_argument("--g-rel-tol", type=float, default=None,
                      help="max allowed relative response difference")
    comp.add_argument("--var-ratio-tol", type=float, default=None,
                      help="max allowed deviation of the total-variance ratio from 1")

    demo = sub.add_parser(
        "demo-hammerstein",
        help="run an experiment end to end: the canonical cubic Hammerstein "
             "one, or that of --config")
    _add_common(demo, config_required=False, workers=True)
    # The built-in demo's period; a --config run takes its sizes from the config.
    demo.add_argument("--samples-per-period", type=int,
                      help="default 4096; not with --config")

    return parser


def _load_config(args):
    config = read_experiment_config(args.config)
    if args.seed is not None:
        config = type(config)(**{**config.__dict__, "master_seed": args.seed})
    return config


def _cmd_generate(args) -> int:
    written = write_generated_signals(_load_config(args), args.out)
    print(f"wrote {len(written)} signal files under {args.out / 'signals'}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    _check_out_bundle(config, args.out)
    record, _ = run_records(config)
    write_record_bundle(args.out / "records", record)
    print(f"wrote record bundle ({record.realization_count} realizations, "
          f"{record.period_count} periods) under {args.out / 'records'}")
    return EXIT_OK


def _print_comparison(summary: dict) -> int:
    """Print the analytic comparison, which says why a run exits 4; return the exit code."""
    print(json.dumps(summary["analytic_comparison"], indent=2, sort_keys=True))
    return EXIT_OK if summary["pass"] else EXIT_TOLERANCE


def _cmd_estimate(args) -> int:
    return _print_comparison(estimate_from_bundle(_load_config(args), args.out))


def _cmd_compare(args) -> int:
    summary, ok = compare_reports(args.bundle_a, args.bundle_b,
                                  g_rel_tol=args.g_rel_tol,
                                  var_ratio_tol=args.var_ratio_tol)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_TOLERANCE


def _cmd_demo(args) -> int:
    n = args.samples_per_period
    if args.config is None:
        config = hammerstein_demo_config(samples_per_period=4096 if n is None else n,
                                         master_seed=args.seed or 0)
    elif n is not None:
        raise ConfigurationError("--samples-per-period cannot be combined with --config")
    else:
        config = _load_config(args)
    return _print_comparison(run_experiment(config, args.out))


_COMMANDS = {
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "compare": _cmd_compare,
    "demo-hammerstein": _cmd_demo,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Checked before any command writes to --out.
        if getattr(args, "workers", 1) < 1:
            raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
        out = getattr(args, "out", pathlib.Path("."))  # compare writes nothing
        for path in (out, *out.parents):
            try:
                mode = path.stat().st_mode
            except (FileNotFoundError, NotADirectoryError):
                if path.is_symlink():  # lstat finds it: the command could not make it
                    raise ConfigurationError(
                        f"--out {out}: {path} is a symbolic link whose target is missing")
                continue  # absent: the command makes it
            except OSError as exc:  # e.g. a name too long for the OS
                raise ConfigurationError(f"--out {out}: {exc.strerror or exc}") from exc
            if not stat.S_ISDIR(mode):
                raise ConfigurationError(f"--out {out}: {path} exists and is not a directory")
        return _COMMANDS[args.command](args)
    # A MemoryError is a config too large to allocate; numpy's message gives the size.
    except (ConfigurationError, MemoryError) as exc:
        print(json.dumps({"error": "configuration", "message": str(exc) or "out of memory"}),
              file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as exc:
        print(json.dumps({"error": "instability", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_INSTABILITY


if __name__ == "__main__":
    raise SystemExit(main())
