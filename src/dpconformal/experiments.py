"""Experiment orchestration: seeded sweeps over (epsilon, n, allocation,
method) grids with deterministic CSV output.

Result rows use the fixed header
``experiment,method,epsilon,n,p,trial,coverage,efficiency,informativeness,
q_hat,sigma_q,eps_train,seed,status``; each sidecar of ``_SIDECARS`` writes
``<stem>_<name>.csv``, the series ``experiment,trial,step,metric,value`` with
grid-cell parameters in the metric name (e.g. ``gap/eps=0.5``). Aggregate
mean/sd rows are computed from the formatted per-trial values, so
recomputing them from the written file reproduces them exactly.

Trial t always runs with seed ``base_seed + t``: adding trials never
changes earlier rows, and grid cells sharing a trial index share their
random draws (the generators are prefix-stable in n), which pairs the
sweep's comparisons.

A task is one data cell (a scaling n, the realdata CSV) of one trial, built
once. It makes one ``conformal.run_pipelines`` call per training subset (the
pool, or the train half for the ``SPLIT_METHODS``), which trains every
distinct ``train_target`` of the subset's cells in lockstep and finishes each
cell from the model of its target, so ``dpscp_f`` and ``dpscp_a`` share a
model. A stability task trains every epsilon cell of a trial in one lockstep
``coupled_train`` call. A lockstep model is bit-equal to the one its cell
trains alone. Every cell's budget is checked when the config is read; a cell
whose calibration, training or finish fails gets a failed row, and a subset
whose call raises fails its own cells, while the others are unchanged. Every
file a run writes is byte-identical for every worker count. A realdata CSV
is parsed once per process.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import product, repeat
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .accounting import BudgetSpec, calibrate_sigma_sgd
from .conformal import (METHODS, SPLIT_METHODS, PipelineConfig,
                        _calibrated_runs, run_pipelines, split_train_size)
# Not called here: bench/layers.py wraps experiments.run_pipeline by name.
from .conformal import run_pipeline  # noqa: F401
from .data import (StandardizationStats, apply_standardizer,
                   fit_standardizer, gen_logistic, gen_multiclass, load_csv)
from .models import (CLASSIFICATION, MODEL_KINDS, REGRESSION, Dataset,
                     ModelSpec)
from .quantile import QuantileConfig, buffered_right_search, midpoint_search
from .training import TrainConfig, coupled_train

__all__ = ["ExperimentConfig", "RESULT_COLUMNS", "SERIES_COLUMNS",
           "load_config", "run_experiment", "s5_quantile_fixtures",
           "train_plan"]

RESULT_COLUMNS = ("experiment", "method", "epsilon", "n", "p", "trial",
                  "coverage", "efficiency", "informativeness", "q_hat",
                  "sigma_q", "eps_train", "seed", "status")
SERIES_COLUMNS = ("experiment", "trial", "step", "metric", "value")
_METRIC_COLUMNS = ("coverage", "efficiency", "informativeness", "q_hat",
                   "sigma_q", "eps_train")


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # Shortest round-trip form: parsing the written value recovers the exact
    # float, which keeps aggregate rows exactly recomputable from trial rows.
    return repr(float(value))


def _csv_rows(rows) -> str:
    """``rows`` of cells as ``csv.writer`` writes them, each cell through
    ``_fmt``. Less its line end, a row ending in an empty cell is its other
    cells and commas."""
    buf = io.StringIO()
    csv.writer(buf).writerows([*map(_fmt, cells)] for cells in rows)
    return buf.getvalue()


class _SeriesBlock(NamedTuple):
    """Series rows of one trial in compact form: for each integer
    ``steps[i]``, one row per metric in order, whose value is
    ``values[i][j]``. ``values`` is a (steps, metrics) array or nested
    sequence of numbers."""

    metrics: tuple[str, ...]
    steps: Sequence[int]
    values: Sequence


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    trials: int = 10
    seed: int = 2026
    alpha: float = 0.1
    delta: float = 1e-5
    epsilons: tuple[float, ...] = (0.5, 1.0)
    sample_sizes: tuple[int, ...] = (2500, 5000)
    allocations: tuple[float, ...] = (0.5,)
    methods: tuple[str, ...] = ("dpscp_f", "dpscp_a", "dp_split")
    generator: dict = field(default_factory=dict)
    csv_source: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    quantile: dict = field(default_factory=dict)
    output: str | None = None

    def __post_init__(self) -> None:
        spec = EXPERIMENTS.get(self.experiment)
        if spec is None:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        # An experiment accepts only what it reads: a section key outside its
        # table (a misspelt one too) or a field that it does not read, set
        # away from its default, is refused rather than ignored. An unread
        # field therefore holds its default, which the checks below pass.
        for key, f in _CONFIG_KEYS.items():
            value = getattr(self, f.name)
            if f.default_factory is dict:
                _OBJECT(key, value)
                unread = sorted(set(value) - set(spec.sections.get(key, ())))
                if unread:
                    raise ValueError(f"{self.experiment} does not read {key} "
                                     f"keys {unread}")
            elif (key not in ("experiment", *spec.fields)
                  and value != f.default):
                raise ValueError(f"{self.experiment} does not read {key}")
        # A JSON config may give 2.5, 300.0 or true where a count belongs.
        _COUNT("trials", self.trials)
        _count(0)("seed", self.seed)
        for n in self.sample_sizes:
            _COUNT("sample_sizes", n)
        _OPEN_UNIT("alpha", self.alpha)
        _path("output", self.output)
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}")
        if self.experiment == "stability" and len(self.sample_sizes) != 1:
            raise ValueError("stability takes exactly one sample size")
        for name in ("epsilons", "sample_sizes", "allocations", "methods"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            # A repeated value would run the same grid cells twice.
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        # BudgetSpec checks each cell; an infeasible epsilon fails at run time.
        for epsilon, p in product(self.epsilons, self.allocations):
            BudgetSpec(epsilon, self.delta, p)
        # Before the section rules: the csv path's rule takes the default,
        # None.
        if self.experiment == "realdata" and not isinstance(
                self.csv_source.get("path"), str | os.PathLike):
            raise ValueError("realdata needs a csv path (the csv section's "
                             "'path' key)")
        # Each section value, its default too, against its rule.
        sections = {key: _section(self, key) for key in spec.sections}
        for key, table in spec.sections.items():
            for name, (_, rule) in table.items():
                rule(f"{key} {name}", sections[key][name])
        gen = sections.get("generator", {})  # a class per corner of {-1,1}^dim
        if "classes" in gen and int(gen["classes"]) - 1 >> int(gen["dim"]):
            raise ValueError("generator classes must be <= 2 ** dim")
        if "hidden" in self.train and sections["train"]["model"] != "mlp":
            raise ValueError("train hidden is read by the mlp model only")


# The rules of the config values, each a check(name, value) that raises
# ValueError naming the key and the value when the value is not of the kind
# that the key takes or breaks the rule of the code that reads it
# (TrainConfig, QuantileConfig, ModelSpec, gen_multiclass, load_csv, the
# realdata split).
def _rule(takes: str, kind: Callable, must: str = "",
          holds: Callable = lambda v: True) -> Callable:
    def check(name: str, value) -> None:
        if not kind(value):
            raise ValueError(f"{name} takes {takes}, got {value!r}")
        if not holds(value):  # NaN holds no comparison
            raise ValueError(f"{name} must {must}, got {value!r}")
    return check


def _count(least: int) -> Callable:
    """An integer, not a bool or a float such as 2.0, >= ``least``."""
    return _rule("integers", lambda v: type(v) is not bool and isinstance(
        v, numbers.Integral), f"be >= {least}", lambda v: v >= least)


def _real(must: str, test: Callable) -> Callable:
    """A real number, not a bool, that holds its reader's rule as the float
    that the reader takes: an integer too large for a float breaks it."""
    return _rule("a number", lambda v: type(v) is not bool
                 and isinstance(v, numbers.Real), must,
                 lambda v: abs(v) <= sys.float_info.max and test(float(v)))


def _choice(*options) -> Callable:
    """One of ``options``, of its type too: true is not 1."""
    return _rule(f"one of {json.dumps(options)}", lambda v: any(
        type(v) is type(o) and v == o for o in options))


def _widths(name: str, value) -> None:
    _rule("a nonempty list of widths",
          lambda v: isinstance(v, list | tuple) and v)(name, value)
    for width in value:
        _COUNT(name, width)


_OBJECT = _rule("a JSON object", lambda v: isinstance(v, dict))
_path = _rule("a path", lambda v: isinstance(v, str | os.PathLike | None))
_COUNT = _count(1)
_POSITIVE = _real("be positive and finite", lambda v: 0.0 < v < math.inf)
_NONNEGATIVE = _real("be nonnegative and finite",
                     lambda v: 0.0 <= v < math.inf)
_OPEN_UNIT = _real("lie in (0, 1)", lambda v: 0.0 < v < 1.0)


# The JSON config key of each ExperimentConfig field, in field order: its
# name, except that csv_source is read from the "csv" key.
_CONFIG_KEYS = {"csv" if f.name == "csv_source" else f.name: f
                for f in fields(ExperimentConfig)}


def _section(config: ExperimentConfig, name: str) -> dict:
    """The config's values of section ``name`` laid over the defaults that
    its experiment's table gives them."""
    table = EXPERIMENTS[config.experiment].sections[name]
    return {**{key: default for key, (default, _) in table.items()},
            **getattr(config, _CONFIG_KEYS[name].name)}


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config (schema documented in the README)."""
    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**{
        f.name: tuple(raw[key]) if isinstance(f.default, tuple) else raw[key]
        for key, f in _CONFIG_KEYS.items() if key in raw})


def train_plan(n_train: int, epochs: int, batch_size: int) -> tuple[float, int]:
    """Sampling rate and step count for a batch-size/epoch prescription.

    Poisson subsampling has no fixed batch; the rate targets the requested
    mean batch size and the step count matches epochs * ceil(n / batch).
    """
    if n_train < 1 or epochs < 1 or batch_size < 1:
        raise ValueError("n_train, epochs, and batch_size must be >= 1")
    rate = min(1.0, batch_size / n_train)
    steps = epochs * math.ceil(n_train / batch_size)
    return rate, steps


# ---------------------------------------------------------------------------
# Per-trial workers (module-level for picklability)


def _failed(row: dict, exc: Exception) -> tuple[dict, dict]:
    return {**row, "status": f"failed:{type(exc).__name__}"}, {}


def _standardized(pool: Dataset, test: Dataset
                  ) -> tuple[Dataset, Dataset, StandardizationStats]:
    """Pool and test standardized in their own arrays, which the caller
    owns, with statistics fitted on the pool."""
    stats = fit_standardizer(pool)
    return (apply_standardizer(stats, pool, out=pool),
            apply_standardizer(stats, test, out=test), stats)


def _pipeline_groups(config: ExperimentConfig, rows: list[dict],
                     pool: Dataset, test: Dataset, stats: StandardizationStats
                     ) -> list[tuple[dict, dict]]:
    """The rows of the cells of one data cell, from one ``run_pipelines``
    call on the standardized pool per training subset, in the order of each
    subset's first row: a cell that its call fails gets a failed row, and a
    subset whose call raises fails its own cells only."""
    train = _section(config, "train")
    kind = train["model"]
    model = ModelSpec(kind, pool.dim, pool.n_classes or 1,
                      tuple(train["hidden"]) if kind == "mlp" else ())
    quantile = _section(config, "quantile")
    # Classification scores lie in [0, 1]; regression scores get a
    # conservative public range on the standardized target scale.
    quantile_template = QuantileConfig(
        range_lo=0.0, range_hi=1.0 if pool.task == CLASSIFICATION
        else float(quantile["range_hi"]), alpha=config.alpha,
        steps_n=int(quantile["steps"]), beta=float(quantile["beta"]),
        buffer_m=int(quantile["buffer"]))
    subsets: dict = {}
    for i, row in enumerate(rows):
        subsets.setdefault(row["method"] in SPLIT_METHODS, []).append(i)
    out: list = [None] * len(rows)
    for split, members in subsets.items():
        group = [rows[i] for i in members]
        try:
            rate, steps = train_plan(
                split_train_size(pool.n) if split else pool.n,
                int(train["epochs"]), int(train["batch_size"]))
            train_template = TrainConfig(
                learning_rate=float(train["learning_rate"]), steps=steps,
                sampling_rate=rate, clip_norm=float(train["clip_norm"]))
            reports = run_pipelines(pool, test, [PipelineConfig(
                method=row["method"],
                budget=BudgetSpec(row["epsilon"], config.delta, row["p"]),
                model=model, train_template=train_template,
                quantile_template=quantile_template,
                target_scale=stats.target_sd) for row in group],
                group[0]["seed"])
        except Exception as exc:  # the subset's cells fail, not the others
            reports = repeat(exc)
        for i, row, report in zip(members, group, reports):
            out[i] = (_failed(row, report) if isinstance(report, Exception)
                      else ({**row, "n": pool.n, "status": "ok",
                             "coverage": report.coverage,
                             "efficiency": report.efficiency,
                             "informativeness": report.informativeness,
                             "q_hat": report.q_hat, "sigma_q": report.sigma_q,
                             "eps_train": report.eps_train_spent}, {}))
    return out


def _data_stream(trial_seed: int) -> np.random.SeedSequence:
    """Child 0 of the trial's seed sequence, which seeds its data; the same
    child is ``conformal.run_pipelines``' split stream (``spawn(3)[0]``)."""
    return np.random.SeedSequence(trial_seed).spawn(1)[0]


# The pool and test are standardized in their row slices of the one
# generated matrix; building a cell peaks at about 1.5x what it keeps, the
# rest being gen_multiclass's per-row draws.
def _scaling_data(generator: tuple, n: int, trial_seed: int
                  ) -> tuple[Dataset, Dataset, StandardizationStats]:
    """Standardized pool and test for one (n, trial), with the statistics.

    Both come from a single generator draw so that they share the same class
    centroids; the test block comes first, making it identical across the
    n-grid, while pools at growing n are nested prefixes. The (n, trial)
    task builds it once, for both training subsets.
    """
    d, k, sep, flip, test_size = generator
    data_seed = int(_data_stream(trial_seed).generate_state(1)[0])
    both = gen_multiclass(test_size + n, d, k, sep, flip, data_seed)
    return _standardized(both.subset(slice(test_size, test_size + n)),
                         both.subset(slice(test_size)))


def _run_scaling_trial(config: ExperimentConfig,
                       rows: list[dict]) -> list[tuple[dict, dict]]:
    gen = _section(config, "generator")
    generator = (int(gen["dim"]), int(gen["classes"]), float(gen["class_sep"]),
                 float(gen["flip_y"]), int(gen["test_size"]))
    data = _scaling_data(generator, rows[0]["n"], rows[0]["seed"])
    return _pipeline_groups(config, rows, *data)


@lru_cache(maxsize=1)
def _parsed_csv(path: str, label_column: int, task: str, has_header: bool,
                version: tuple[int, int]) -> Dataset:
    """The parsed CSV, which every trial of the process reads: its arrays
    are read-only."""
    data = load_csv(path, label_column, task, has_header)
    data.features.flags.writeable = False
    data.labels.flags.writeable = False
    return data


def _csv_key(src: dict) -> tuple:
    """Memo key of the realdata CSV: its absolute path, the parse options
    and the file's version (mtime, size), so the CSV is parsed at most once
    per process for each version of the file. ``src`` is the resolved csv
    section."""
    path = os.path.abspath(src["path"])
    st = os.stat(path)
    return (path, int(src["label_column"]), src["task"], src["has_header"],
            (st.st_mtime_ns, st.st_size))


# The split is standardized in the rows it gathers, so a build peaks at about
# 1.25x what it keeps.
def _realdata_split(csv_key: tuple, test_fraction: float, trial_seed: int
                    ) -> tuple[Dataset, Dataset, StandardizationStats]:
    """Standardized pool and test of one trial's permuted split of the CSV,
    with the statistics; the trial's task builds it once, for both training
    subsets."""
    full = _parsed_csv(*csv_key)
    rng = np.random.Generator(np.random.PCG64(_data_stream(trial_seed)))
    perm = rng.permutation(full.n)
    n_test = max(1, int(math.floor(test_fraction * full.n)))
    return _standardized(full.subset(perm[n_test:]),
                         full.subset(perm[:n_test]))


def _run_realdata_trial(config: ExperimentConfig,
                        rows: list[dict]) -> list[tuple[dict, dict]]:
    src = _section(config, "csv")
    data = _realdata_split(_csv_key(src), float(src["test_fraction"]),
                           rows[0]["seed"])
    return _pipeline_groups(config, rows, *data)


def _run_stability_trial(config: ExperimentConfig,
                         rows: list[dict]) -> list[tuple[dict, dict]]:
    """Every epsilon cell of one stability trial: one data draw, then
    sigma_sgd per cell and one lockstep ``coupled_train`` over the
    calibrated cells, through ``conformal._calibrated_runs``. The cells share
    the trial seed, so they share masks, noise and extra-point flags and
    differ only in sigma_sgd."""
    trial_seed, n = rows[0]["seed"], rows[0]["n"]
    d = int(_section(config, "generator")["dim"])
    train = _section(config, "train")
    rate = float(train["rate"])
    steps = int(train["steps"])
    data_seed = int(_data_stream(trial_seed).generate_state(1)[0])
    data, theta = gen_logistic(n + 1, d, data_seed)
    base = data.subset(slice(n))
    extra = (data.features[n], int(data.labels[n]))

    def calibrate(row: dict) -> float:
        return calibrate_sigma_sgd(rate, steps, row["epsilon"], config.delta)

    def run_cells(sigmas: list) -> list:
        radius = train["projection_radius"]
        cfg = TrainConfig(
            learning_rate=float(train["learning_rate"]), steps=steps,
            sampling_rate=rate, clip_norm=float(train["clip_norm"]),
            projection_radius=None if radius is None else float(radius),
            seed=trial_seed)
        spec = ModelSpec("softmax_linear", d, 2)
        # Embed the logistic signal symmetrically into the two-class softmax
        # parameterization (class margins +/- theta/2 reproduce the link).
        theta_flat = np.concatenate([-theta / 2.0, theta / 2.0])
        return coupled_train(base, extra, spec, cfg, theta_star=theta_flat,
                             noise_multipliers=sigmas)

    out = []
    step_index = range(steps + 1)
    for row, run in zip(rows, _calibrated_runs(rows, calibrate, run_cells)):
        if isinstance(run, Exception):
            out.append(_failed(row, run))
            continue
        sigma_sgd, trace = run
        epsilon = row["epsilon"]
        block = _SeriesBlock(
            (f"gap/eps={epsilon:g}", f"error/eps={epsilon:g}"), step_index,
            np.column_stack([trace.gap_series, trace.error_series]))
        out.append(({**row, "status": "ok", "sigma_q": sigma_sgd,
                     "eps_train": epsilon}, {"series": [block]}))
    return out


def s5_quantile_fixtures() -> list[dict]:
    """The two adversarial single-injection score sets: a large tie jump and
    a tie-free staircase. Search ranges start where the first midpoint is the
    vulnerable query."""
    return [
        {
            "name": "tie_jump",
            "scores": [0.0] * 5 + [10.0] * 8 + [11.0],
            "alpha": 0.2,
            "range": (8.0, 11.0),
            "injection": 8.0,
            "target_order_stat": 10.0,
        },
        {
            "name": "no_ties",
            "scores": [float(v) for v in range(1, 11)],
            "alpha": 0.2,
            "range": (7.0, 10.0),
            "injection": 1.0,
            "target_order_stat": 9.0,
        },
    ]


def _run_quantile_demo_trial(config: ExperimentConfig,
                             rows: list[dict]) -> list[tuple[dict, dict]]:
    (row,) = rows
    fixture_name, variant = row["p"], row["method"]
    fixture = next(f for f in s5_quantile_fixtures()
                   if f["name"] == fixture_name)
    quantile = _section(config, "quantile")
    steps = int(quantile["steps"])
    noise = [0.0] * steps
    noise[0] = fixture["injection"]
    common = dict(
        range_lo=fixture["range"][0],
        range_hi=fixture["range"][1],
        alpha=fixture["alpha"],
        steps_n=steps,
        sigma_q=float(quantile["sigma"]),
        beta=float(quantile["beta"]),
        noise_override=tuple(noise),
    )
    if variant == "midpoint":
        result = midpoint_search(fixture["scores"],
                                 QuantileConfig(precision_delta=1e-3, **common))
    else:
        result = buffered_right_search(fixture["scores"],
                                       QuantileConfig(buffer_m=0, **common))
    prefix = f"{fixture_name}/{variant}"
    series = [
        _SeriesBlock(
            tuple(f"{prefix}/{name}" for name in
                  ("mid", "count", "noisy_count", "moved_right")),
            [s.step for s in result.trace],
            [(s.mid, s.true_count, s.noisy_count,
              1.0 if s.branch == "right" else 0.0) for s in result.trace]),
        _SeriesBlock((f"{fixture_name}/target_order_stat",), (0,),
                    ((fixture["target_order_stat"],),)),
    ]
    return [({**row, "status": "ok", "q_hat": result.q_hat,
              "sigma_q": common["sigma_q"]}, {"series": series})]


def _grid(config: ExperimentConfig) -> list[dict]:
    """Every grid cell as the skeleton of its result rows: the experiment,
    method, epsilon, n and p columns that the cell fixes."""
    if config.experiment == "scaling":
        cells = [{"method": method, "epsilon": eps, "n": n, "p": allocation}
                 for eps, n, allocation, method in product(
                     config.epsilons, config.sample_sizes, config.allocations,
                     config.methods)]
    elif config.experiment == "realdata":
        # n is the pool size, known once the CSV has been read.
        cells = [{"method": method, "epsilon": eps, "n": "", "p": allocation}
                 for eps, allocation, method in product(
                     config.epsilons, config.allocations, config.methods)]
    elif config.experiment == "stability":
        cells = [{"method": "dpsgd_coupled", "epsilon": eps,
                  "n": int(config.sample_sizes[0]), "p": ""}
                 for eps in config.epsilons]
    else:
        # The p column carries the quantile-demo fixture name.
        cells = [{"method": variant, "epsilon": "",
                  "n": len(fixture["scores"]), "p": fixture["name"]}
                 for fixture in s5_quantile_fixtures()
                 for variant in ("midpoint", "buffered_right")]
    return [{"experiment": config.experiment, **cell} for cell in cells]


class _Experiment(NamedTuple):
    """An experiment's trial runner and all that ``ExperimentConfig`` accepts
    for it: the top-level fields that it reads, and each section that it
    reads with each of the section's keys as its (default, rule)."""

    runner: Callable
    fields: tuple[str, ...]
    sections: dict


_SWEEP = ("trials", "seed", "alpha", "delta", "epsilons", "allocations",
          "methods", "output")
# The step size and clip of DP-SGD, which every trained model reads.
_STEP = {"learning_rate": (1e-3, _POSITIVE), "clip_norm": (1.0, _POSITIVE)}
_NET_TRAIN = {"model": ("mlp", _choice(*MODEL_KINDS)),
              "hidden": ((16, 16), _widths), "epochs": (50, _COUNT),
              "batch_size": (32, _COUNT), **_STEP}
_SEARCH = {"steps": (20, _COUNT), "beta": (0.05, _OPEN_UNIT),
           "buffer": (10, _count(0))}

EXPERIMENTS = {
    "stability": _Experiment(
        _run_stability_trial,
        ("trials", "seed", "delta", "epsilons", "sample_sizes", "output"),
        {"generator": {"dim": (10, _COUNT)},
         "train": {"rate": (0.02, _real("lie in (0, 1]",
                                        lambda v: 0 < v <= 1)),
                   "steps": (100, _COUNT), **_STEP,
                   # None: no projection.
                   "projection_radius": (None, lambda name, value: (
                       value is None or _POSITIVE(name, value)))}}),
    # Classification only: its scores lie in [0, 1], so no range_hi.
    "scaling": _Experiment(
        _run_scaling_trial, (*_SWEEP, "sample_sizes"),
        {"generator": {"dim": (10, _COUNT), "classes": (5, _count(2)),
                       "class_sep": (0.6, _NONNEGATIVE),
                       "flip_y": (0.01, _real("lie in [0, 1]",
                                              lambda v: 0 <= v <= 1)),
                       "test_size": (2000, _COUNT)},
         "train": _NET_TRAIN, "quantile": _SEARCH}),
    # One run on fixed fixtures, each with its own alpha and search range.
    "quantile_demo": _Experiment(
        _run_quantile_demo_trial, ("seed", "output"),
        {"quantile": {"steps": (20, _COUNT), "beta": (0.05, _OPEN_UNIT),
                      "sigma": (3.0, _NONNEGATIVE)}}),
    # The pool is the CSV, whose path is required. At a test_fraction of 0
    # or below the test split is one row; at 1 or above the pool is empty.
    "realdata": _Experiment(
        _run_realdata_trial, _SWEEP,
        {"csv": {"path": (None, _path), "label_column": (0, _count(0)),
                 "task": (REGRESSION, _choice(CLASSIFICATION, REGRESSION)),
                 "has_header": (True, _choice(True, False)),
                 "test_fraction": (0.2, _OPEN_UNIT)},
         "train": _NET_TRAIN,
         "quantile": {**_SEARCH, "range_hi": (10.0, _POSITIVE)}}),
}


def _safe_trial(config: ExperimentConfig, cells: list[dict],
                trial: int) -> list[tuple[dict, dict]]:
    """Run one task: the grid cells of one trial that share a data cell
    (every cell for stability, one cell for the quantile demo). A failure
    that no single cell or training subset owns, building the data cell
    among them, fails every cell of the task."""
    rows = [{**cell, "trial": trial, "seed": config.seed + trial}
            for cell in cells]
    try:
        return EXPERIMENTS[config.experiment].runner(config, rows)
    except Exception as exc:  # a failed trial becomes failed rows
        return [_failed(row, exc) for row in rows]


def _tasks(config: ExperimentConfig, cells: list[dict],
           trials: int) -> list[tuple[list[int], int]]:
    """(cell indices, trial) tasks, in the order of each task's first row in
    the output: one per data cell and trial. Scaling cells share a task when
    their n agrees and every realdata cell (whose n is "", the whole CSV)
    shares one, which runs each training subset's cells through one
    lockstep call at any batch size. Every stability cell of a trial shares
    one task, which trains all of them in lockstep. A quantile-demo cell
    runs alone."""
    groups: dict = {}
    for i, cell in enumerate(cells):
        key = i if config.experiment == "quantile_demo" else cell["n"]
        groups.setdefault(key, []).append(i)
    return [(members, t) for members in groups.values() for t in range(trials)]


def _format_row(row: dict) -> dict:
    return {col: _fmt(row.get(col, "")) for col in RESULT_COLUMNS}


def _aggregate_rows(cell_rows: list[dict]) -> list[dict]:
    """Mean/sd rows recomputed from the formatted per-trial strings."""
    out = []
    for stat in ("mean", "sd"):
        agg = dict(cell_rows[0])
        agg.update(trial=stat, seed="", status="aggregate")
        for col in _METRIC_COLUMNS:
            vals = [float(r[col]) for r in cell_rows
                    if r["status"] == "ok" and r[col] != ""]
            if not vals or (stat == "sd" and len(vals) < 2):
                agg[col] = ""
            elif stat == "mean":
                agg[col] = float(np.mean(vals))
            elif min(vals) == max(vals):
                # np.std would subtract a mean rounded off the common value.
                agg[col] = 0.0
            else:
                agg[col] = float(np.std(vals, ddof=1))
        out.append(_format_row(agg))
    return out


# A formatter yields each block in chunks of at most this many steps, each
# formatted from its own slice, so writing a trial row holds O(chunk) text
# and Python numbers however long its series is.
_CHUNK_STEPS = 256


def _series_chunks(row: dict, blocks: list[_SeriesBlock]) -> Iterator[str]:
    """The series rows ``csv.writer`` would write for the blocks of the
    trial row ``row``, byte for byte, in chunks of at most ``_CHUNK_STEPS``
    steps: the text cells go through ``csv`` quoting once per block, and the
    numbers never need it."""
    head = _csv_rows([(row["experiment"], row["trial"], "")])[:-2]
    for metrics, steps, values in blocks:
        names = [_csv_rows([(metric, "")])[:-2] for metric in metrics]
        # A float array's chunk becomes Python floats, whose repr is their
        # _fmt.
        floats = isinstance(values, np.ndarray) and values.dtype == float
        fmt = repr if floats else _fmt
        for lo in range(0, len(steps), _CHUNK_STEPS):
            chunk = values[lo:lo + _CHUNK_STEPS]
            lines = zip(steps[lo:lo + _CHUNK_STEPS],
                        chunk.tolist() if floats else chunk)
            yield "".join(f"{head}{step},{name}{fmt(value)}\r\n"
                          for step, vals in lines
                          for name, value in zip(names, vals))


# name: (columns of <stem>_<name>.csv, formatter of a trial row's payload
# into its text chunks)
_SIDECARS = {"series": (SERIES_COLUMNS, _series_chunks)}


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Run the configured sweep; returns the formatted result rows and, when
    ``config.output`` is set, writes ``<output>`` and ``<stem>_<name>.csv``
    for each entry of ``_SIDECARS``, header-only when no trial writes to it.

    Each task builds one data cell of one trial, trains the models of each
    training subset in lockstep and finishes every grid cell that uses
    them, so each data cell is built once at any ``jobs``; up to ``jobs``
    worker processes, and never more than there are tasks, run the tasks.
    Rows appear in deterministic (grid cell, trial) order with per-cell
    aggregate rows appended, regardless of worker count: a reorder buffer
    holds each finished row until every row before it is out, and the rows
    a task releases are flushed to disk before the next task's result is
    taken. Every file the run opens is closed when the run ends, after an
    error too, including an error opening a later file.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cells = _grid(config)
    trials = 1 if config.experiment == "quantile_demo" else config.trials
    tasks = _tasks(config, cells, trials)

    all_rows: list[dict] = []
    cell_rows: list[dict] = []
    # Finished rows waiting for their turn, keyed by output position.
    waiting: dict[int, tuple[dict, dict]] = {}
    position = 0
    with ExitStack() as stack:
        files = {}
        if config.output is not None:
            out = Path(config.output)
            out.parent.mkdir(parents=True, exist_ok=True)
            for name, (columns, text) in {
                    "": (RESULT_COLUMNS, lambda _, rows: (_csv_rows(rows),)),
                    **_SIDECARS}.items():
                path = out.with_name(f"{out.stem}_{name}.csv") if name else out
                fh = stack.enter_context(open(path, "w", newline=""))
                fh.write(_csv_rows([columns]))
                files[name] = fh, text
        mapper = map
        workers = min(jobs, len(tasks))
        if workers > 1:
            # The pool pulls in multiprocessing and its dependencies, which
            # no one-worker run needs. It forks all its workers at the first
            # submit, so it gets no more than there are tasks.
            from concurrent.futures import ProcessPoolExecutor
            mapper = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers)).map
        # Both maps yield in submission order.
        results = mapper(_safe_trial, repeat(config),
                         [[cells[i] for i in members] for members, _ in tasks],
                         [t for _, t in tasks])
        for (members, t), group in zip(tasks, results):
            for i, result in zip(members, group):
                waiting[i * trials + t] = result
            while position in waiting:
                row, payloads = waiting.pop(position)
                position += 1
                released = [_format_row(row)]
                cell_rows += released
                if len(cell_rows) == trials:
                    released += _aggregate_rows(cell_rows)
                    cell_rows = []
                all_rows += released
                payloads = {"": [r.values() for r in released], **payloads}
                for name, (fh, text) in files.items():
                    if name in payloads:
                        # Each chunk is written as it is formatted.
                        fh.writelines(text(row, payloads[name]))
            for fh, _ in files.values():
                fh.flush()
    return all_rows
