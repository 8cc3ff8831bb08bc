"""Command-line front end: sweep runs and capacity density tables."""

from __future__ import annotations

import argparse
import importlib.util
import logging
import os
import sys

import esrc
from esrc.analytic import BetaVector, capacity_pdf, default_capacity_grid

# `esrc pdf` never runs the Monte Carlo stack, so these modules run only on
# first attribute access. They are registered now, not imported later, so
# that a caller can still wrap their functions right after `import esrc.cli`.
for _name in ("runner", "zf", "statfit"):
    if f"esrc.{_name}" not in sys.modules:
        _spec = importlib.util.find_spec(f"esrc.{_name}")
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        sys.modules[_spec.name] = _module = importlib.util.module_from_spec(_spec)
        setattr(esrc, _name, _module)
        _spec.loader.exec_module(_module)
# runner.PRESETS' names, listed so `--help` runs no runner; a test holds them equal
_PRESET_CHOICES = ("fig1", "fig2", "fig3", "none")


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
        choices=_PRESET_CHOICES,
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
        raise ValueError(f"empty entry in --betas list {raw!r}")
    try:
        values = [float(item) for item in items]
    except ValueError:
        raise ValueError(f"--betas must be comma-separated reals, got {raw!r}") from None
    return values


def parse_config(text, **overrides):
    return esrc.runner.parse_config(text, **overrides)


def run_sweep(plan, full_fit=False):
    return esrc.runner.run_sweep(plan, full_fit=full_fit)


def write_text(text, destination):
    """Write a finished table to the path `destination`, or to stdout when it is None."""
    if destination is None:
        sys.stdout.write(text)
        return
    with open(destination, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def emit_csv(rows, destination):
    """Write the CSV table; reruns of the same plan are byte-identical."""
    write_text(esrc.runner.render_csv(rows), destination)


def _check_destination(destination):
    """Fail on an unwritable `--out` before any work runs, leaving no file behind."""
    if destination is not None:
        existed = os.path.lexists(destination)
        open(destination, "a").close()
        if not existed:
            os.remove(destination)


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
    _check_destination(args.out)
    rows = run_sweep(plan, full_fit=args.full_fit)
    emit_csv(rows, args.out)
    return 0 if all(row.status == "ok" for row in rows) else 1


def _cmd_pdf(args):
    betas = BetaVector(_parse_betas(args.betas))
    grid = default_capacity_grid(betas, points=args.points, grid_max=args.grid_max)
    _check_destination(args.out)
    density = capacity_pdf(betas, grid)
    lines = ["# bits density"]
    for t, f in zip(grid, density):
        lines.append(f"{t:.9g} {f:.9g}")
    write_text("\n".join(lines) + "\n", args.out)
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
