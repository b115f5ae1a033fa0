"""Command-line interface.

Subcommands: count, block, recursion-check, transform, entropy, verify,
report.  Exit codes: 0 ok, 1 check failure, 2 configuration error (for
transform and entropy also an unreadable or malformed input CSV, or an
option outside its domain), 3 resource cap or budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import BudgetExceededError, ConfigError, DomainError, GeoBlockError, InsufficientDataError, RangeError
from .growth import GrowthSeries, _positive, rate_estimate, transform
from .harness import (
    FORMATS,
    ExperimentConfig,
    _parse_pairs,
    cmd_block,
    cmd_count,
    cmd_recursion_check,
    cmd_report,
    cmd_verify,
    parse_t_grid,
)

_CONFIG_COMMANDS = {
    "count": cmd_count,
    "block": cmd_block,
    "recursion-check": cmd_recursion_check,
    "verify": cmd_verify,
    "report": cmd_report,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="geoblock",
        description="Geodesic counting, blocking thresholds, and growth-rate verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="JSON experiment config")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--format", choices=FORMATS, help="output format override")
        p.add_argument("--t-grid", help="grid override, a:b:step or comma list")
        p.add_argument("--pairs", type=Path, help="JSON file with point pairs")

    for name in _CONFIG_COMMANDS:
        add_config_flags(sub.add_parser(name))

    p_tr = sub.add_parser("transform", help="apply the halving transform to a t,value CSV")
    p_tr.add_argument("--in", dest="infile", type=Path, required=True)
    p_tr.add_argument("--out", type=Path, required=True)
    p_tr.add_argument("--delta", type=float, default=1.0)

    p_en = sub.add_parser("entropy", help="estimate the exponential rate of a count CSV")
    p_en.add_argument("--in", dest="infile", type=Path, required=True)
    p_en.add_argument("--out", type=Path)
    p_en.add_argument("--mode", choices=["exponential", "polynomial", "quasi-polynomial"],
                      default="exponential")
    p_en.add_argument("--window", type=float, default=0.5)
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
    else:
        raise ConfigError("--config is required (JSON experiment description)")
    if args.seed is not None:
        cfg.seed = args.seed
    if args.format is not None:
        cfg.out_format = args.format
    if args.t_grid is not None:
        spec = args.t_grid
        cfg.t_grid = parse_t_grid(spec if ":" in spec else spec.split(","))
    if args.pairs is not None:
        try:
            cfg.pairs = _parse_pairs(json.loads(args.pairs.read_text()))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise ConfigError(f"cannot read pairs file {args.pairs}: {exc}") from exc
    return cfg


def _run_transform(args: argparse.Namespace) -> int:
    series = GrowthSeries.from_csv(args.infile)
    delta_sq = _positive(args.delta, "delta") ** 2
    rows = []
    for t, _ in series.samples:
        try:
            rows.append((t, float(transform(series, delta_sq, t))))
        except RangeError:
            continue
    if not rows:
        raise DomainError(f"--delta {args.delta} is too small for every row: each t halves down "
                          f"to it past the smallest sampled t, {series.t_range[0]}")
    skipped = len(series.samples) - len(rows)
    if skipped:
        print(f"skipped {skipped} rows whose halved arguments fall outside the sampled range",
              file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    GrowthSeries.from_pairs(rows).to_csv(args.out)
    return 0


def _run_entropy(args: argparse.Namespace) -> int:
    series = GrowthSeries.from_csv(args.infile)
    cls = rate_estimate(series, args.mode, args.window)
    text = json.dumps(cls.to_json(), indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


_SERIES_COMMANDS = {"transform": _run_transform, "entropy": _run_entropy}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _SERIES_COMMANDS:
            try:
                return _SERIES_COMMANDS[args.command](args)
            except (OSError, UnicodeDecodeError, DomainError, InsufficientDataError) as exc:
                # these commands' configuration: the input CSV (its text, its rows, enough of them) and the options
                raise ConfigError(str(exc)) from exc
        cfg = _load_config(args)
        return _CONFIG_COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except GeoBlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
