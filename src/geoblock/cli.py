"""Command-line interface.

Subcommands: count, block, recursion-check, transform, entropy, verify,
report.  Exit codes: 0 ok, 1 check failure, 2 configuration error,
3 resource cap or budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .errors import BudgetExceededError, ConfigError, GeoBlockError, RangeError
from .growth import GrowthSeries, TransformParams, rate_estimate, transform
from .harness import (
    ExperimentConfig,
    cmd_block,
    cmd_count,
    cmd_recursion_check,
    cmd_report,
    cmd_verify,
    format_sig,
    parse_t_grid,
)

_CONFIG_COMMANDS = {
    "count": cmd_count,
    "block": cmd_block,
    "recursion-check": cmd_recursion_check,
    "verify": cmd_verify,
    "report": cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoblock",
        description="Geodesic counting, blocking thresholds, and growth-rate verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="JSON experiment config")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--format", choices=["csv", "json"], help="output format override")
        p.add_argument("--t-grid", help="grid override, a:b:step or comma list")
        p.add_argument("--pairs", type=Path, help="JSON file with point pairs")
        p.add_argument("--workers", type=int, help="worker count override")

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
    if args.workers is not None:
        cfg.workers = max(1, args.workers)
    if args.format is not None:
        cfg.out_format = args.format
    if getattr(args, "t_grid", None):
        spec = args.t_grid
        cfg.t_grid = parse_t_grid(spec.split(",") if ("," in spec and ":" not in spec) else spec)
    if getattr(args, "pairs", None):
        from .harness import _parse_pairs

        try:
            cfg.pairs = _parse_pairs(json.loads(args.pairs.read_text()))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise ConfigError(f"cannot read pairs file {args.pairs}: {exc}") from exc
    return cfg


def _read_series_csv(path: Path) -> GrowthSeries:
    """A series from a CSV with a header and a t column.

    The values are the n column when there is one (count.csv: the largest n
    over the pairs at each t), else the column after t ('t,value',
    't,count,certified').  Non-positive values are dropped.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        if "t" not in fields[:-1]:
            raise ConfigError(f"{path}: needs a header with a t column and a value column")
        column = "n" if "n" in fields else fields[fields.index("t") + 1]
        best: dict[float, float] = {}
        for row in reader:
            t, v = float(row["t"]), float(row[column])
            best[t] = max(best.get(t, v), v)
    return GrowthSeries.from_pairs([(t, v) for t, v in best.items() if v > 0])


def _run_transform(args: argparse.Namespace) -> int:
    series = _read_series_csv(args.infile)
    params = TransformParams(args.delta)
    out_lines = ["t,value"]
    skipped = 0
    for t, _ in series.samples:
        try:
            val = transform(series, params, t)
        except RangeError:
            skipped += 1
            continue
        out_lines.append(f"{format_sig(t)},{format_sig(float(val))}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(out_lines) + "\n")
    if skipped:
        print(f"skipped {skipped} rows whose halved arguments fall outside the sampled range",
              file=sys.stderr)
    return 0


def _run_entropy(args: argparse.Namespace) -> int:
    series = _read_series_csv(args.infile)
    cls = rate_estimate(series, args.mode, args.window)
    text = json.dumps(cls.to_json(), indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "transform":
            return _run_transform(args)
        if args.command == "entropy":
            return _run_entropy(args)
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
