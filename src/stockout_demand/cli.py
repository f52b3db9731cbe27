"""Command-line interface: batch simulation, estimation, and comparison.

Subcommands::

    simulate               draw visits from a config and write JSONL
    estimate               fit parameters from a JSONL visit file
    verify-counterexample  exact rational check of the conditional-demand
                           counter-example
    compare                correct / naive / sampled estimators over growing
                           dataset prefixes, as plot-ready CSV

Exit codes: 0 success, 1 usage error, 2 data error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .estimation import GRANULARITIES, catalog_probabilities, fit, fit_naive
from .io import (
    DataFormatError,
    RunConfig,
    SECTION7_PRESET,
    fit_result_json,
    offers_null,
    project_path,
    read_visits,
    write_visits,
)
from .likelihood import (
    TruncationPolicy,
    counterexample_bruteforce,
    counterexample_expectations,
)
from .simulate import simulate_dataset
from .types import InvalidObservation

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this interface promises 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.preset is not None:
        base = SECTION7_PRESET
    elif args.config is not None:
        base = RunConfig.load(args.config)
    else:
        raise DataFormatError("either --config or --preset is required")
    overrides = {}
    if getattr(args, "visits", None) is not None:
        overrides["visits"] = args.visits
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        from dataclasses import replace

        base = replace(base, **overrides)
    return base


def _default_granularity(config: RunConfig) -> str:
    return "sales" if config.include_null else "sales-no-null"


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    config = _load_config(args)
    granularity = args.granularity or _default_granularity(config)
    if config.include_null != offers_null(granularity):
        raise DataFormatError(
            f"a config with include_null {config.include_null} cannot be written at {granularity}"
        )
    paths = simulate_dataset(config.visit_config(), config.visits, config.seed)
    observations = [project_path(p, granularity) for p in paths]
    count = write_visits(args.out, observations, granularity)
    arrivals = [p.arrivals for p in paths]
    stockouts = [bool(p.segments()[0]) for p in paths]  # any stock-out order
    mean_arrivals = float(np.mean(arrivals)) if arrivals else 0.0
    stockout_freq = float(np.mean(stockouts)) if stockouts else 0.0
    print(
        f"wrote {count} visits to {args.out} "
        f"(granularity {granularity}, mean arrivals {mean_arrivals:.3f}, "
        f"stock-out frequency {stockout_freq:.3f})"
    )
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    if args.seed is not None and args.saa_samples is None:
        raise ValueError("--seed seeds the SAA sampler and needs --saa-samples")
    observations, granularity = read_visits(args.data, args.granularity)
    if not observations:
        raise DataFormatError("no visits in the data file")
    trunc = TruncationPolicy(m=args.truncation)
    # compile_dataset checks that the file's visits suit the estimator
    if args.naive:
        result = fit_naive(observations, trunc)
        label = "naive"
    else:
        result = fit(
            observations,
            granularity,
            trunc,
            saa_samples=args.saa_samples,
            seed=args.seed or 0,
        )
        label = "saa" if args.saa_samples is not None else "exact"
    text = fit_result_json(
        result,
        extra={
            "estimator": label,
            "granularity": granularity,
            "visits": len(observations),
            "data_path": args.data,
            "truncation": args.truncation,
        },
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _probability(text: str) -> Fraction:
    """A ``--prob`` value: a fraction strictly between 0 and 1."""
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"takes a fraction, got {text!r}") from None
    if not 0 < p < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text}")
    return p


def cmd_verify_counterexample(args: argparse.Namespace) -> int:
    p = args.prob
    correct, heuristic = counterexample_expectations(
        args.target_sales, args.other_sales, p
    )
    brute = counterexample_bruteforce(args.target_sales, args.other_sales, p)
    print(
        f"conditional expected pre-stock-out demand, sales "
        f"({args.target_sales}, {args.other_sales}), p = {p}:"
    )
    print(f"  correct   = {correct}")
    print(f"  brute     = {brute}")
    print(f"  heuristic = {heuristic}")
    if correct != brute:
        print("FAIL: closed form disagrees with enumeration", file=sys.stderr)
        return EXIT_DATA
    if correct == heuristic and args.other_sales > 0:
        print("FAIL: heuristic unexpectedly matches", file=sys.stderr)
        return EXIT_DATA
    print(f"{correct} vs {heuristic}, mismatch confirmed")
    return EXIT_OK


def _prefix_sizes(total: int, spec: Optional[str]) -> List[int]:
    if spec is not None:
        try:
            sizes = sorted({int(s) for s in spec.split(",")})
        except ValueError:
            raise ValueError(f"--prefixes takes comma-separated integers, got {spec!r}") from None
        if any(s < 1 or s > total for s in sizes):
            raise DataFormatError(f"prefix sizes must lie in [1, {total}]")
        return sizes
    sizes, size = [], 250
    while size < total:
        sizes.append(size)
        size *= 2
    sizes.append(total)
    return sizes


def cmd_compare(args: argparse.Namespace) -> int:
    observations, granularity = read_visits(args.data)
    if granularity not in ("sales", "sales-no-null"):
        raise DataFormatError("compare expects a sales-granularity file")
    config = _load_config(args)
    trunc = TruncationPolicy(m=args.truncation)
    includes_null = offers_null(granularity)
    if config.include_null != includes_null:
        raise DataFormatError(
            f"the config's include_null is {config.include_null}, "
            f"but the file's granularity is {granularity}"
        )
    # the fitted probabilities cover the products a prefix offers, the
    # truth the config's catalog: they must be the same products
    sizes = _prefix_sizes(len(observations), args.prefixes)
    catalog = sorted(config.catalog)
    for size in sizes:
        offered = sorted(
            {a for o in observations[:size] for a in o.initial_assortment.products}
        )
        if offered != catalog:
            raise DataFormatError(
                f"prefix {size} offers products {offered}, "
                f"but the config's catalog is {catalog}"
            )
    truth = catalog_probabilities(config.params(), config.catalog, includes_null)
    estimators = {
        "correct": lambda data: fit(data, granularity, trunc),
        "naive": lambda data: fit_naive(data, trunc),
        "saa": lambda data: fit(
            data,
            granularity,
            trunc,
            saa_samples=args.saa_samples,
            seed=args.seed or 0,
        ),
    }
    rows, not_mle = [], []
    for size in sizes:
        prefix = observations[:size]
        for name, runner in estimators.items():
            result = runner(prefix)
            if not result.converged:
                not_mle.append(f"prefix {size}, {name}: {result.message}")
            for key in sorted(truth, key=lambda a: (a is None, a)):
                label = "null" if key is None else f"P_{key}"
                rows.append(
                    [size, name, label, result.probabilities[key], truth[key]]
                )
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["prefix_size", "estimator", "parameter", "estimate", "truth"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    # as estimate does, write the fits, then exit 3 naming each that is not
    # the MLE
    for line in not_mle:
        print(line, file=sys.stderr)
    return EXIT_NO_CONVERGENCE if not_mle else EXIT_OK


# built on first use, not at import, then reused: an in-process caller
# such as a benchmark loop would otherwise pay for it on every call
@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="stockout-demand",
        description="Demand estimation under stock-outs: simulate, fit, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: _Parser) -> None:
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="run-config JSON path")
        source.add_argument(
            "--preset",
            choices=["section7"],
            help="built-in configuration preset",
        )

    p_sim = sub.add_parser("simulate", help="draw visits and write JSONL")
    add_config_args(p_sim)
    p_sim.add_argument("--out", required=True, help="output JSONL path")
    p_sim.add_argument("--visits", type=int, help="override config visit count")
    p_sim.add_argument("--seed", type=int, help="override config seed")
    p_sim.add_argument("--granularity", choices=GRANULARITIES)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="fit parameters from a visit file")
    p_est.add_argument("--data", required=True, help="JSONL visit file")
    p_est.add_argument("--granularity", choices=GRANULARITIES)
    p_est.add_argument("--truncation", type=int, help="fixed arrival-count cap")
    estimator = p_est.add_mutually_exclusive_group()
    estimator.add_argument("--saa-samples", type=int, help="stock-out vectors per count")
    estimator.add_argument("--naive", action="store_true", help="stock-out-blind baseline")
    p_est.add_argument("--seed", type=int, help="SAA sampling seed")
    p_est.add_argument("--out", help="write FitResult JSON here")
    p_est.set_defaults(func=cmd_estimate)

    p_ver = sub.add_parser(
        "verify-counterexample",
        help="exact check that the plausible conditional-demand heuristic is wrong",
    )
    p_ver.add_argument("--target-sales", type=int, default=2)
    p_ver.add_argument("--other-sales", type=int, default=2)
    p_ver.add_argument(
        "--prob", type=_probability, default="1/2", help="target choice probability"
    )
    p_ver.set_defaults(func=cmd_verify_counterexample)

    p_cmp = sub.add_parser(
        "compare", help="estimator comparison over growing prefixes (CSV)"
    )
    p_cmp.add_argument("--data", required=True, help="sales-granularity JSONL file")
    add_config_args(p_cmp)
    p_cmp.add_argument("--out", required=True, help="output CSV path")
    p_cmp.add_argument("--prefixes", help="comma-separated prefix sizes")
    p_cmp.add_argument("--truncation", type=int)
    p_cmp.add_argument("--saa-samples", type=int, default=1)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataFormatError, InvalidObservation, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
