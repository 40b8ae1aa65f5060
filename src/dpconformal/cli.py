"""Command-line entry points.

Subcommands mirror the experiments (``stability``, ``scaling``,
``quantile-demo``, ``realdata``) plus ``calibrate``, which exposes the
quantile-noise calibration on its own. Desk-scale defaults run in minutes;
``--paper-scale`` restores the full protocol sizes of ``stability`` and
``scaling``, and a ``--config`` file states its own.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .accounting import (BudgetSpec, InfeasibleBudgetError,
                         SgdAccountingRecord, calibrate_sigma_q,
                         default_orders, gaussian_profile, rdp_compose,
                         rdp_to_eps, sgd_profile)
from .conformal import METHODS
from .experiments import ExperimentConfig, load_config, run_experiment

# The presets hold only what differs from ExperimentConfig's defaults and
# the section defaults in experiments.EXPERIMENTS.
_PAPER_SCALE = {
    "scaling": {
        "trials": 30,
        "epsilons": (0.5, 1.0, 2.0),
        "sample_sizes": (10000, 15000, 20000, 25000, 30000),
        # At full scale the step count grows with n, so the default (slower)
        # schedule has room to train.
        "train": {},
    },
    "stability": {"trials": 30, "epsilons": (0.5, 1.0, 2.0)},
}

_DESK_DEFAULTS = {
    # Desk scale shortens the step budget with n, so the schedule is faster
    # than the full protocol's.
    "scaling": dict(methods=METHODS, train={"learning_rate": 1e-2}),
    "stability": dict(epsilons=(0.5, 1.0, 2.0), sample_sizes=(1000,)),
}


def _ranged(convert, ok, what: str):
    """An argparse type that converts the text and then requires ``ok``, so
    an out-of-range value is a usage error rather than a traceback."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = convert.__name__
    return parse


# Each comparison is False for NaN, which is therefore rejected too.
_positive_int = _ranged(int, lambda v: v >= 1, ">= 1")
_nonnegative_int = _ranged(int, lambda v: v >= 0, ">= 0")
_finite_positive = _ranged(float, lambda v: 0 < v < float("inf"), "finite > 0")
_nonnegative_float = _ranged(float, lambda v: v >= 0.0, ">= 0")
_unit_float = _ranged(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_open_unit_float = _ranged(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _experiment_parser(sub, name: str,
                       help_text: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", help="JSON config file (overrides defaults)")
    p.add_argument("--out", help="results CSV path")
    p.add_argument("--seed", type=_nonnegative_int,
                   help="base seed (>= 0; trial t adds t)")
    # The demo runs once; only the studies in _PAPER_SCALE have a preset.
    p.set_defaults(trials=None, paper_scale=False)
    if name != "quantile-demo":
        p.add_argument("--trials", type=_positive_int,
                       help="trials per grid cell (>= 1)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (>= 1; at most one per task)")
    if name in _PAPER_SCALE:
        p.add_argument("--paper-scale", action="store_true", help="restore "
                       "the full protocol sizes (not with --config)")
    return p


def _build_config(args, parser: argparse.ArgumentParser) -> ExperimentConfig:
    """The run's config. A config file that cannot be read, parsed or
    validated is a usage error (one line, exit code 2), as a bad flag is, and
    so are a desk default that needs a config file (realdata's CSV) and
    ``--paper-scale`` with a config file, whose values it would replace."""
    experiment = args.command.replace("-", "_")
    if args.config and args.paper_scale:
        parser.error("--paper-scale cannot be combined with --config; put "
                     "the paper-scale values in the config file")
    if args.config:
        try:
            config = load_config(args.config)
        except (OSError, TypeError, ValueError) as exc:
            parser.error(f"bad --config {args.config}: {exc}")
        if config.experiment != experiment:
            parser.error(f"--config is for {config.experiment!r}, not "
                         f"{experiment!r}")
    else:
        try:
            config = ExperimentConfig(experiment,
                                      **_DESK_DEFAULTS.get(experiment, {}))
        except ValueError as exc:  # realdata has no desk-default CSV
            parser.error(f"{exc}; pass one with --config")
    overrides = {}
    if args.paper_scale:
        overrides.update(_PAPER_SCALE[experiment])
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output"] = args.out
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _cmd_experiment(args, parser: argparse.ArgumentParser) -> int:
    config = _build_config(args, parser)
    rows = run_experiment(config, jobs=args.jobs)
    ok = sum(1 for r in rows if r["status"] == "ok")
    failed = sum(1 for r in rows if r["status"].startswith("failed"))
    where = config.output or "(not written; use --out)"
    print(f"{config.experiment}: {ok} trial rows ok, {failed} failed -> {where}")
    return 1 if failed else 0


def _cmd_calibrate(args) -> int:
    # calibrate_sigma_q does not read the budget's allocation p.
    budget = BudgetSpec(args.epsilon, args.delta)
    orders = default_orders()
    # Zero steps give the zero profile: no training stage.
    record = SgdAccountingRecord(args.sgd_sigma, args.sgd_rate, args.sgd_steps)
    train_profile = sgd_profile(record, orders)
    eps_train = rdp_to_eps(train_profile, args.delta)
    sigma_q = calibrate_sigma_q(train_profile, args.queries, budget)
    total = rdp_to_eps(
        rdp_compose([train_profile,
                     gaussian_profile(sigma_q, orders, queries=args.queries)]),
        args.delta)
    print(f"eps_train = {eps_train:.6g}")
    print(f"sigma_q   = {sigma_q:.6g}")
    print(f"eps_total = {total:.6g} (target {args.epsilon:g} "
          f"at delta {args.delta:g})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpconformal",
        description="Full-data differentially private conformal prediction "
                    "experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    experiments = {}
    for name, help_text in (
            ("stability", "coupled DP-SGD stability vs estimation error"),
            ("scaling", "prediction-set quality across sample sizes"),
            ("quantile-demo", "midpoint-search failure vs buffered search"),
            ("realdata", "CSV-ingested benchmark sweep")):
        experiments[name] = _experiment_parser(sub, name, help_text)

    cal = sub.add_parser("calibrate",
                         help="calibrate quantile noise against a budget")
    cal.add_argument("--epsilon", type=_finite_positive, required=True)
    cal.add_argument("--delta", type=_open_unit_float, default=1e-5)
    cal.add_argument("--queries", type=_positive_int, default=20)
    cal.add_argument("--sgd-sigma", type=_nonnegative_float, default=1.0,
                     help="training noise multiplier")
    cal.add_argument("--sgd-rate", type=_unit_float, default=0.01,
                     help="training sampling rate")
    cal.add_argument("--sgd-steps", type=_nonnegative_int, default=0,
                     help="training steps (0 = no training stage)")

    args = parser.parse_args(argv)
    if args.command == "calibrate":
        try:
            return _cmd_calibrate(args)
        except InfeasibleBudgetError as exc:
            cal.error(str(exc))
    return _cmd_experiment(args, experiments[args.command])


if __name__ == "__main__":
    sys.exit(main())
