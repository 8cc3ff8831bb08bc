"""Command-line front end: sweep runs and capacity density tables."""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from esrc.analytic import GRID_MAX_BITS, BetaVector, capacity_pdf, default_capacity_grid
from esrc.runner import (
    PRESET_NAMES,
    ConfigError,
    emit_csv,
    parse_config,
    render_csv,
    run_sweep,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="esrc",
        description=(
            "Ergodic sum-rate capacity of zero-forcing receivers under "
            "semi-correlated Nakagami-m fading: Monte Carlo sweeps and "
            "analytic capacity densities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a parameter sweep and emit a CSV table")
    run_p.add_argument("--config", required=True, help="path to the sweep configuration document")
    run_p.add_argument(
        "--preset",
        choices=PRESET_NAMES + ("none",),
        default=None,
        help="override the document's preset",
    )
    run_p.add_argument("--trials", type=int, default=None, help="override trials per point")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    run_p.add_argument(
        "--full-fit",
        action="store_true",
        help="also run the gamma ML fit with goodness-of-fit gates per user",
    )
    run_p.add_argument(
        "--allow-extended",
        action="store_true",
        help="lift the rho bound from [0, 0.5] to [0, 1)",
    )

    pdf_p = sub.add_parser(
        "pdf", help="tabulate the sum-capacity density for given per-user scales"
    )
    pdf_p.add_argument(
        "--betas", required=True, help="comma-separated positive per-user scales"
    )
    pdf_p.add_argument(
        "--grid-max",
        type=float,
        default=None,
        help="top of the capacity grid in bits (default: automatic tail coverage)",
    )
    pdf_p.add_argument("--points", type=int, default=512, help="number of grid points")
    pdf_p.add_argument("--out", default=None, help="output table path (default: stdout)")
    return parser


def _parse_betas(raw):
    items = [item.strip() for item in raw.split(",")]
    if any(not item for item in items):
        raise ConfigError(f"empty entry in --betas list {raw!r}")
    try:
        values = [float(item) for item in items]
    except ValueError:
        raise ConfigError(f"--betas must be comma-separated reals, got {raw!r}") from None
    return values


def _write_text(text, destination):
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _cmd_run(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    plan = parse_config(
        text,
        preset=args.preset,
        trials=args.trials,
        seed=args.seed,
        allow_extended=args.allow_extended,
    )
    if args.out is not None:
        # an unwritable destination fails here, before any point runs; "a"
        # truncates nothing, and a file created for the check is removed
        existed = os.path.lexists(args.out)
        open(args.out, "a").close()
        if not existed:
            os.remove(args.out)
    rows = run_sweep(plan, full_fit=args.full_fit)
    if args.out is None:
        sys.stdout.write(render_csv(rows))
    else:
        emit_csv(rows, args.out)
    return 0 if all(row.status == "ok" for row in rows) else 1


def _cmd_pdf(args):
    betas = BetaVector(_parse_betas(args.betas))
    if args.points < 8:
        raise ConfigError(f"--points out of range [8, inf), got {args.points}")
    if args.grid_max is None:
        grid = default_capacity_grid(betas, points=args.points)
    else:
        if not 0.0 < args.grid_max <= GRID_MAX_BITS:
            raise ConfigError(
                f"--grid-max out of range (0, {GRID_MAX_BITS:g}], got {args.grid_max!r}"
            )
        grid = np.linspace(args.grid_max / args.points, args.grid_max, args.points)
    density = capacity_pdf(betas, grid)
    lines = ["# bits density"]
    for t, f in zip(grid, density):
        lines.append(f"{t:.9g} {f:.9g}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_pdf(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
