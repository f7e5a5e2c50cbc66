"""Command-line surface: one subcommand per reproducible artifact.

`main` opens the one output (stdout or --out) for every subcommand. Each
sieving report runs through _run_report, which parses --limit and prices its
widest sweep plan once. `moments` is the moment figure, the only report with
the moment flags; `figure-data` (alias `compare`) is the maximal-gap figure,
one of the three record reports that share _records.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error or
an internal fault, 3 refused because the estimated runtime exceeds the budget.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
from typing import TextIO

from . import expmodel, reports, tauio
from .gapstats import plan_sweep, tau_histogram
from .reports import BudgetExceeded, DEFAULT_BUDGET_SECONDS, parse_limit
from .sieve import BoundaryRule

__all__ = ["main"]


def _budget_seconds(text: str) -> float:
    """A budget is a finite number of seconds above zero; --force lifts it."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected finite seconds > 0, got {text!r}")
    return value


def _add_run_flags(parser: argparse.ArgumentParser, report, limit_help: str | None = None) -> None:
    parser.add_argument("--limit", required=True, help=limit_help)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--budget-seconds", type=_budget_seconds, default=DEFAULT_BUDGET_SECONDS)
    parser.add_argument("--force", action="store_true", help="ignore the runtime budget")
    parser.set_defaults(func=_run_report, report=report)


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"moment orders {text!r}: expected comma-separated integers")
    if any(k < 1 for k in ks) or len(set(ks)) < len(ks):
        raise ValueError(f"moment orders must be positive and distinct, got {text!r}")
    return ks


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout, or a buffer that reaches the file only once the report is
    complete, so a failed run leaves an existing file as it was."""
    if path is None:
        yield sys.stdout
        return
    buffer = io.StringIO()
    yield buffer
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(buffer.getvalue())


def _run_report(args: argparse.Namespace, out: TextIO) -> int:
    """Parse the limits (a comma list for table1 alone), refuse a run whose widest plan
    (2 to the largest limit) is over budget, then hand out and the limits to args.report."""
    texts = args.limit.split(",") if args.report is _table1 else [args.limit]
    limits = [parse_limit(text) for text in texts]
    plan = plan_sweep(limits, BoundaryRule.INCLUSIVE, include_first=True)
    reports.check_budget(plan, args.budget_seconds, args.force)
    return args.report(args, out, limits)


def _taus(args: argparse.Namespace, out: TextIO, limits: list[int]) -> int:
    out.write(tauio.format_tau(tau_histogram(limits[0])))
    return 0


def _moments(args: argparse.Namespace, out: TextIO, limits: list[int]) -> int:
    ks = _parse_ks(args.k)
    reports.write_figure_moments(out, limits[0], BoundaryRule(args.rule), args.include_first, ks)
    return 0


def _records(args: argparse.Namespace, out: TextIO, limits: list[int]) -> int:
    """Sieve the record gaps G_n up to the limit and hand them to args.write."""
    args.write(out, reports.collect_records(limits[0], use_fixture=args.use_fixture), limits[0])
    return 0


def _verify_tau(args: argparse.Namespace, out: TextIO, limits: list[int]) -> int:
    result = tauio.verify_tau(args.reference, limits[0])
    out.write(result.summary() + "\n")
    return 0 if result.matches else 1


def _cmd_expmodel(args: argparse.Namespace, out: TextIO) -> int:
    params = expmodel.ExpParams(n=args.n, rate=args.rate)
    fmt = reports.format_value
    lines = [
        f"n={params.n} rate={fmt(params.rate)}",
        f"max_mean_exact={fmt(expmodel.order_stat_mean(params.n, params.n, params.rate))}",
        f"max_var_exact={fmt(expmodel.order_stat_var(params.n, params.n, params.rate))}",
        f"min_quantile(q={args.q})={fmt(expmodel.min_order_quantile(args.q, params))}",
        f"max_quantile(q={args.q})={fmt(expmodel.max_order_quantile(args.q, params))}",
    ]
    if params.n > 1:
        lines.append(f"max_mean_asym={fmt(expmodel.max_order_mean_asym(params.n))}")
        lines.append(f"max_var_asym={fmt(expmodel.max_order_var_asym(params.n))}")
    if args.spacings:
        spacings = expmodel.simulate_spacings(args.spacings, args.seed)
        lines.append(
            f"spacings n={spacings.size} seed={args.seed} generator={expmodel.GENERATOR}"
            f" sum={float(spacings.sum()):.12f}"
        )
    out.write("\n".join(lines) + "\n")
    return 0


def _table1(args: argparse.Namespace, out: TextIO, limits: list[int]) -> int:
    reports.write_table1(out, reports.table1_rows(limits))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primegaps",
        description="Prime-gap statistics against the exponential model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("taus", help="emit tau gap counts in the record-file format")
    _add_run_flags(p, _taus)

    p = sub.add_parser("moments", help="gap moments against k! (log n)^k")
    p.add_argument("--rule", choices=["strict", "inclusive"], default="strict",
                   help="boundary rule at the limit (default strict)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--include-first", dest="include_first", action="store_true",
                       help="include the unique odd first gap d_1 = 1")
    group.add_argument("--exclude-first", dest="include_first", action="store_false")
    p.add_argument("--k", default="1,2,3,4", help="comma-separated moment orders")
    _add_run_flags(p, _moments, "sieve limit, decimal or 2^t")

    p = sub.add_parser("maximal-gaps", help="record gaps up to a limit (CSV)")
    _add_run_flags(p, _records)
    p.set_defaults(write=reports.write_records, use_fixture=False)

    p = sub.add_parser("verify-tau", help="recompute and diff a tau file")
    p.add_argument("--reference", required=True, help="tau file to check")
    _add_run_flags(p, _verify_tau)

    p = sub.add_parser("expmodel", help="exponential order-statistic closed forms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spacings", type=int, default=0,
                   help="also simulate this many normalised spacings")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_expmodel)

    p = sub.add_parser("table1", help="moment table over power-of-two limits")
    _add_run_flags(p, _table1, "comma-separated power-of-two limits, e.g. 2^15,2^18")

    p = sub.add_parser("table2", help="records exceeding the Granville scale")
    p.add_argument("--use-fixture", action="store_true")
    _add_run_flags(p, _records)
    p.set_defaults(write=reports.write_table2)

    p = sub.add_parser(
        "figure-data",
        aliases=["compare"],
        help="plot-ready CSV of the record gaps against the maximal-gap curves",
    )
    p.add_argument("--use-fixture", action="store_true",
                   help="extend the rows with the shipped record table")
    _add_run_flags(p, _records)
    p.set_defaults(write=reports.write_figure_maxgaps)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _output(args.out) as out:
            code = args.func(args, out)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`): stop quietly, and point
        # stdout at devnull so the interpreter's last flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
