"""Command-line entry point.

    stabilab <coverage|rate|stability|efron-stein|bounds-table>
        --config <path.json> [--out <dir>] [--seed <u64>] [--emit csv,json,svg]

Exit codes: 0 success, 2 config error (a failure that the config alone
decides, before a draw; an unreadable or non-UTF-8 file included),
3 precondition failure (one that only the draws or the filesystem reveal:
the test_m gate, an overflow, a singular solve, a refused allocation, a locked
or unwritable output directory), 4 an inequality was empirically violated
beyond the Monte Carlo slack (a test failure signal, not a crash).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (
    ConfigError,
    PreconditionError,
    emit_report,
    load_config,
    parse_formats,
    run_experiment,
)

_COMMAND_KINDS = {
    "coverage": "coverage",
    "rate": "rate",
    "stability": "stability_sweep",
    "efron-stein": "efron_stein",
    "bounds-table": "bounds_table",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabilab",
        description="Seeded Monte Carlo verification of leave-one-out "
        "generalisation bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMAND_KINDS:
        p = sub.add_parser(command, help=f"run the {command} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
        p.add_argument(
            "--emit",
            default="csv,json",
            help="comma-separated output formats (csv,json,svg)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    expected_kind = _COMMAND_KINDS[args.command]
    try:
        config = load_config(args.config)
        if config.kind != expected_kind:
            raise ConfigError(
                f"config kind {config.kind!r} does not match command "
                f"{args.command!r} (expected {expected_kind!r})"
            )
        overrides = {"base_seed": args.seed, "out_dir": args.out}
        config = dataclasses.replace(
            config, **{k: v for k, v in overrides.items() if v is not None}
        )
        formats = parse_formats(args.emit.split(","), config.kind)
        report = run_experiment(config)
        written = emit_report(report, formats)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ValueError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, MemoryError) as exc:
        # An overflow, an exactly singular solve or a numerically singular
        # leave-one-out downdate, or an allocation numpy refused: the
        # config's values are beyond float64 range or conditioning, or its
        # sizes beyond this machine's memory.
        print(f"precondition failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    n_rows = len(report.rows)
    print(f"{config.kind}: {n_rows} rows, all_pass={report.all_pass}")
    if config.kind == "rate":
        fit = report.extras
        print(
            f"slope={fit['slope']:.4f} "
            f"ci=[{fit['slope_ci_low']:.4f}, {fit['slope_ci_high']:.4f}]"
        )
    for path in written:
        print(f"wrote {path}")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    if not report.all_pass:
        print("invariant violation: an inequality failed beyond MC slack", file=sys.stderr)
    return 0 if report.all_pass else 4


if __name__ == "__main__":
    raise SystemExit(main())
