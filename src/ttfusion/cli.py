"""Command-line front end: run, synth, sweep, verify-qreuse.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 invariant
violation (for example a nonzero Q/K/V reuse error).  The ``TTF_LOG``
environment variable selects verbosity: off (default), info, or debug.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from dataclasses import replace

from .frames import FrameError
from .report import InvariantError, sweep_csv, write_report
from .runconfig import SWEEP_PARAMETERS, ConfigError, load_config_file, parse_sweep_values
from .tensor_io import TensorFormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

logger = logging.getLogger("ttfusion")


def _configure_logging() -> None:
    level_name = os.environ.get("TTF_LOG", "off").lower()
    levels = {"off": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"TTF_LOG must be off, info, or debug, not {level_name!r}")
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(levels[level_name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ttf", description="Temporal token fusion experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", help="output directory (overrides output_dir)")
        p.add_argument("--seed", type=int, help="seed override")

    common(sub.add_parser("run", help="run one fusion sequence and write a report"))
    common(sub.add_parser("synth", help="write a synthetic frame sequence"))

    sweep = sub.add_parser("sweep", help="run a parameter sweep over shared frames")
    common(sweep)
    sweep.add_argument("--param", required=True, help=f"one of {', '.join(SWEEP_PARAMETERS)}")
    sweep.add_argument("--values", required=True, help="comma-separated values")

    verify = sub.add_parser(
        "verify-qreuse", help="replay a recorded run and re-check Q/K/V reuse"
    )
    verify.add_argument("--run", required=True, help="run directory with report.json")
    return parser


def _load_config(args):
    if not os.path.exists(args.config):
        raise FileNotFoundError(f"config file not found: {args.config}")
    config = load_config_file(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    return config


def _require_exact_reuse(failures: list[str]) -> None:
    """Print every nonzero Q/K/V reuse error line and raise if there is any."""
    if failures:
        for failure in failures:
            print(f"reuse-equivalence violation: {failure}", file=sys.stderr)
        raise InvariantError(f"{len(failures)} nonzero Q/K/V reuse errors")


def _cmd_run(args) -> int:
    from .experiment import REPORT_NAME, run_experiment

    config = _load_config(args)
    result = run_experiment(config, out_dir=config.output_dir)
    report_path = os.path.join(config.output_dir, REPORT_NAME)
    _require_exact_reuse(result.failures)
    aggregates = result.report["aggregates"]
    print(
        f"wrote {report_path}: {aggregates['steps']} steps, "
        f"mean fusion rate {aggregates['mean_fusion_rate_all']:.6f} (all) / "
        f"{aggregates['mean_fusion_rate_non_keyframe']:.6f} (non-keyframe)"
    )
    return EXIT_OK


def _cmd_synth(args) -> int:
    from .synthetic import write_sequence

    config = _load_config(args)
    if config.synth is None:
        raise ConfigError("synth needs synth_frames in the config")
    paths = write_sequence(config.synth, config.output_dir)
    print(f"wrote {len(paths)} frames to {config.output_dir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .experiment import run_sweep

    config = _load_config(args)
    values = parse_sweep_values(args.param, args.values)
    summary_path = os.path.join(config.output_dir, "sweep_summary.json")
    csv_path = os.path.join(config.output_dir, "sweep_summary.csv")
    # A sweep that fails must not leave an earlier sweep's summary behind.
    for path in (summary_path, csv_path):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    summary, results = run_sweep(config, args.param, values, out_dir=config.output_dir)
    write_report(summary_path, summary)
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write(sweep_csv(summary))
    _require_exact_reuse(
        [f"{args.param} = {value}: {failure}"
         for value, result in zip(values, results) for failure in result.failures]
    )
    for point in summary["points"]:
        print(
            f"{args.param} = {point['value']}: "
            f"mean fusion rate {point['mean_fusion_rate_all']:.6f}"
        )
    print(f"wrote {summary_path} and {csv_path}")
    return EXIT_OK


def _cmd_verify_qreuse(args) -> int:
    from .experiment import replay_run_dir

    report, failures = replay_run_dir(args.run)
    _require_exact_reuse(failures)
    aggregates = report["aggregates"]
    print(
        f"verified {aggregates['steps']} steps: all Q/K/V reuse errors are exactly 0 "
        f"({aggregates['total_saved_multiplications']} multiplications saved)"
    )
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
    "verify-qreuse": _cmd_verify_qreuse,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _configure_logging()
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FrameError, TensorFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        # Library precondition tripped by user-supplied data (for example
        # attention weights that are negative or sum above 1): treat as a
        # configuration error.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
