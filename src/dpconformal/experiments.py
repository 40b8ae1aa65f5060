"""Experiment orchestration: seeded sweeps over (epsilon, n, allocation,
method) grids with deterministic CSV output.

Result rows use the fixed header
``experiment,method,epsilon,n,p,trial,coverage,efficiency,informativeness,
q_hat,sigma_q,eps_train,seed,status``; per-step series use
``experiment,trial,step,metric,value`` with grid-cell parameters encoded in
the metric name (e.g. ``gap/eps=0.5``). Aggregate mean/sd rows are computed
from the formatted per-trial values, so recomputing them from the written
file reproduces them exactly.

Trial t always runs with seed ``base_seed + t``: adding trials never
changes earlier rows, and grid cells sharing a trial index share their
random draws (the generators are prefix-stable in n), which pairs the
sweep's comparisons.

A task is one training subset of one trial: one ``conformal.run_pipelines``
call trains every distinct ``train_target`` of its cells in lockstep and
finishes each cell from the model of its target, so ``dpscp_f`` and
``dpscp_a`` share a model. A stability task trains every epsilon cell of
a trial in one lockstep ``coupled_train`` call. A lockstep model is bit-equal
to the one its cell trains alone, and a cell whose calibration, training or
finish fails gets a failed row while the others are unchanged. Both CSVs are
byte-identical for every worker count. A data cell is built, and a realdata
CSV parsed, once per process.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import product, repeat
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .accounting import BudgetSpec, calibrate_sigma_sgd
from .conformal import (METHODS, PipelineConfig, run_pipelines,
                        split_train_size, train_target)
# Not called here: bench/layers.py wraps experiments.run_pipeline by name.
from .conformal import run_pipeline  # noqa: F401
from .data import (StandardizationStats, apply_standardizer,
                   fit_standardizer, gen_logistic, gen_multiclass, load_csv)
from .models import CLASSIFICATION, REGRESSION, Dataset, ModelSpec
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

EXPERIMENTS = ("stability", "scaling", "quantile_demo", "realdata")

# Every key that a nested config section may hold, with the value a trial
# runner reads when the config leaves it out. A key outside the table fails,
# so that a misspelt key is not ignored. realdata needs a csv path.
_SECTION_DEFAULTS = {
    "generator": {"dim": 10, "classes": 5, "class_sep": 0.6, "flip_y": 0.01,
                  "test_size": 2000},
    "csv": {"path": None, "label_column": 0, "task": REGRESSION,
            "has_header": True, "test_fraction": 0.2},
    "train": {"model": "mlp", "hidden": (16, 16), "epochs": 50,
              "batch_size": 32, "learning_rate": 1e-3, "clip_norm": 1.0,
              "rate": 0.02, "steps": 100, "projection_radius": None,
              "force_extra_off": False},
    "quantile": {"steps": 20, "beta": 0.05, "buffer": 10, "range_hi": 10.0,
                 "sigma": 3.0},
}


def _section(name: str, values: dict) -> dict:
    """The config's values of section ``name`` laid over its defaults."""
    return {**_SECTION_DEFAULTS[name], **values}


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


def _csv_prefix(*cells) -> str:
    """The cells as ``csv.writer`` writes them at the start of a row, each
    followed by its delimiter."""
    buf = io.StringIO()
    csv.writer(buf).writerow([*map(_fmt, cells), ""])
    return buf.getvalue()[:-2]


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
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name, section in (("generator", self.generator),
                              ("csv", self.csv_source), ("train", self.train),
                              ("quantile", self.quantile)):
            unknown = set(section) - set(_SECTION_DEFAULTS[name])
            if unknown:
                raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
        if self.experiment in ("scaling", "realdata"):
            bad = [m for m in self.methods if m not in METHODS]
            if bad:
                raise ValueError(f"unknown methods {bad}")
            if not self.methods or not self.epsilons or not self.allocations:
                raise ValueError("grid lists must be nonempty")
        if self.experiment == "scaling" and not self.sample_sizes:
            raise ValueError("scaling needs a sample size")
        if self.experiment == "stability" and len(self.sample_sizes) != 1:
            raise ValueError("stability takes exactly one sample size")
        if self.experiment == "realdata":
            if "path" not in self.csv_source:
                raise ValueError("realdata needs a csv path (the csv "
                                 "section's 'path' key)")
            # At 0 or below the test split is one row; at 1 or above the
            # pool is empty. NaN fails the check as well.
            fraction = _section("csv", self.csv_source)["test_fraction"]
            if not 0.0 < float(fraction) < 1.0:
                raise ValueError("csv test_fraction must lie in (0, 1), got "
                                 f"{fraction!r}")


# The JSON config key of each ExperimentConfig field, in field order: its
# name, except that csv_source is read from the "csv" key.
_CONFIG_KEYS = {"csv" if f.name == "csv_source" else f.name: f
                for f in fields(ExperimentConfig)}


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config (schema documented in the README)."""
    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, f in _CONFIG_KEYS.items():
        if key in raw:
            value = raw[key]
            if isinstance(f.default, tuple):
                value = tuple(value)
            elif f.default_factory is dict:
                value = dict(value)
            kwargs[f.name] = value
    return ExperimentConfig(**kwargs)


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


def _quantile_template(quantile: dict, alpha: float,
                       task: str) -> QuantileConfig:
    if task == CLASSIFICATION:
        lo, hi = 0.0, 1.0
    else:
        # Conservative public score range on the standardized target scale.
        lo, hi = 0.0, float(quantile["range_hi"])
    return QuantileConfig(
        range_lo=lo,
        range_hi=hi,
        alpha=alpha,
        steps_n=int(quantile["steps"]),
        sigma_q=0.0,
        beta=float(quantile["beta"]),
        buffer_m=int(quantile["buffer"]),
    )


def _failed(row: dict, exc: Exception) -> tuple[dict, list]:
    return {**row, "status": f"failed:{type(exc).__name__}"}, []


def _read_only(*datasets: Dataset) -> None:
    """Freeze the arrays of memoized data: every task of the process reads
    the one copy, so none may write into it."""
    for data in datasets:
        data.features.flags.writeable = False
        data.labels.flags.writeable = False


def _standardized(pool: Dataset, test: Dataset
                  ) -> tuple[Dataset, Dataset, StandardizationStats]:
    """Pool and test standardized in their own arrays, which the caller
    owns, with statistics fitted on the pool."""
    stats = fit_standardizer(pool)
    return (apply_standardizer(stats, pool, out=pool),
            apply_standardizer(stats, test, out=test), stats)


def _pipeline_group(config: ExperimentConfig, rows: list[dict], pool: Dataset,
                    test: Dataset, stats: StandardizationStats
                    ) -> list[tuple[dict, list]]:
    """The rows of the cells, which share one training subset, from one
    ``run_pipelines`` call on the standardized pool: a cell that it fails
    gets a failed row."""
    train = _section("train", config.train)
    epochs = int(train["epochs"])
    batch = int(train["batch_size"])
    budgets = [BudgetSpec(row["epsilon"], config.delta, row["p"])
               for row in rows]
    split, _ = train_target(rows[0]["method"], budgets[0])
    n_train = split_train_size(pool.n) if split else pool.n
    rate, steps = train_plan(n_train, epochs, batch)
    train_template = TrainConfig(
        learning_rate=float(train["learning_rate"]),
        steps=steps,
        sampling_rate=rate,
        clip_norm=float(train["clip_norm"]),
        noise_multiplier=0.0,
    )
    kind = train["model"]
    model = ModelSpec(kind, pool.dim, pool.n_classes or 1,
                      tuple(train["hidden"]) if kind == "mlp" else ())
    quantile_template = _quantile_template(
        _section("quantile", config.quantile), config.alpha, pool.task)
    pipes = [PipelineConfig(
        method=row["method"],
        budget=budget,
        model=model,
        train_template=train_template,
        quantile_template=quantile_template,
        alpha=config.alpha,
        target_scale=stats.target_scale,
    ) for row, budget in zip(rows, budgets)]
    reports = run_pipelines(pool, test, pipes, rows[0]["seed"])
    return [_failed(row, report) if isinstance(report, Exception) else
            ({**row, "n": pool.n, "status": "ok",
              "coverage": report.coverage, "efficiency": report.efficiency,
              "informativeness": report.informativeness,
              "q_hat": report.q_hat, "sigma_q": report.sigma_q,
              "eps_train": report.eps_train_spent}, [])
            for row, report in zip(rows, reports)]


# An (n, trial) has one task per training subset, two in all. Tasks run each
# subset for every trial in turn, so the tasks of one (n, trial) lie up to
# (sample sizes x trials) data cells apart. 32 cells hold the desk grid (2 x
# 10) and every trial of the paper's 30 at one n. A cell keeps (test_size + n)
# rows of d standardized features and one label: 2.8 MB at n = 30000,
# test_size 2000 and d = 10, so 32 such cells keep about 90 MB. The pool and
# test are standardized in their row slices of the one generated matrix;
# building a cell peaks at about 1.9x what it keeps, the rest being the
# pool-sized deviations that the standard deviation's np.std allocates.
@lru_cache(maxsize=32)
def _scaling_data(generator: tuple, n: int, trial_seed: int
                  ) -> tuple[Dataset, Dataset, StandardizationStats]:
    """Standardized pool and test for one (n, trial), with the statistics.

    Both come from a single generator draw so that they share the same class
    centroids; the test block comes first, making it identical across the
    n-grid, while pools at growing n are nested prefixes. Every task of the
    process with this data cell reads the one copy.
    """
    d, k, sep, flip, test_size = generator
    data_seed = int(np.random.SeedSequence(trial_seed).spawn(1)[0]
                    .generate_state(1)[0])
    both = gen_multiclass(test_size + n, d, k, sep, flip, data_seed)
    pool, test, stats = _standardized(
        both.subset(slice(test_size, test_size + n)),
        both.subset(slice(test_size)))
    _read_only(pool, test)
    return pool, test, stats


def _run_scaling_trial(config: ExperimentConfig,
                       rows: list[dict]) -> list[tuple[dict, list]]:
    gen = _section("generator", config.generator)
    generator = (int(gen["dim"]), int(gen["classes"]), float(gen["class_sep"]),
                 float(gen["flip_y"]), int(gen["test_size"]))
    data = _scaling_data(generator, rows[0]["n"], rows[0]["seed"])
    return _pipeline_group(config, rows, *data)


@lru_cache(maxsize=1)
def _parsed_csv(path: str, label_column: int, task: str, has_header: bool,
                version: tuple[int, int]) -> Dataset:
    data = load_csv(path, label_column, task, has_header)
    _read_only(data)
    return data


def _csv_key(src: dict) -> tuple:
    """Memo key of the realdata CSV: its absolute path, the parse options
    and the file's version (mtime, size), so the CSV is parsed at most once
    per process for each version of the file. ``src`` is the resolved csv
    section."""
    path = os.path.abspath(src["path"])
    st = os.stat(path)
    return (path, int(src["label_column"]), src["task"],
            bool(src["has_header"]), (st.st_mtime_ns, st.st_size))


# Bounded as _scaling_data is: a trial has one task per training subset (two
# in all), and they lie up to (trials) tasks apart. The split is standardized
# in the rows it gathers, so a build peaks at about 1.9x what it keeps, as a
# scaling cell does.
@lru_cache(maxsize=32)
def _realdata_split(csv_key: tuple, test_fraction: float, trial_seed: int
                    ) -> tuple[Dataset, Dataset, StandardizationStats]:
    """Standardized pool and test of one trial's permuted split of the CSV,
    with the statistics; every task of the trial reads the one copy."""
    full = _parsed_csv(*csv_key)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(trial_seed).spawn(1)[0]))
    perm = rng.permutation(full.n)
    n_test = max(1, int(math.floor(test_fraction * full.n)))
    pool, test, stats = _standardized(full.subset(perm[n_test:]),
                                      full.subset(perm[:n_test]))
    _read_only(pool, test)
    return pool, test, stats


def _run_realdata_trial(config: ExperimentConfig,
                        rows: list[dict]) -> list[tuple[dict, list]]:
    src = _section("csv", config.csv_source)
    data = _realdata_split(_csv_key(src), float(src["test_fraction"]),
                           rows[0]["seed"])
    return _pipeline_group(config, rows, *data)


def _run_stability_trial(config: ExperimentConfig,
                         rows: list[dict]) -> list[tuple[dict, list]]:
    """Every epsilon cell of one stability trial: one data draw, sigma_sgd
    per cell, and one lockstep ``coupled_train`` over the calibrated cells.
    The cells share the trial seed, so they share masks, noise and
    extra-point flags and differ only in sigma_sgd. A cell whose calibration
    or run fails fails alone."""
    trial_seed, n = rows[0]["seed"], rows[0]["n"]
    d = int(_section("generator", config.generator)["dim"])
    train = _section("train", config.train)
    rate = float(train["rate"])
    steps = int(train["steps"])
    data_seed = int(np.random.SeedSequence(trial_seed).spawn(1)[0]
                    .generate_state(1)[0])
    data, theta = gen_logistic(n + 1, d, data_seed)
    base = data.subset(slice(n))
    extra = (data.features[n], int(data.labels[n]))
    out: list = [None] * len(rows)
    sigmas = {}
    for i, row in enumerate(rows):
        try:
            sigmas[i] = calibrate_sigma_sgd(rate, steps, row["epsilon"],
                                            config.delta)
        except Exception as exc:  # an invalid epsilon fails its cell alone
            out[i] = _failed(row, exc)
    if not sigmas:
        return out
    try:
        radius = train["projection_radius"]
        cfg = TrainConfig(
            learning_rate=float(train["learning_rate"]),
            steps=steps,
            sampling_rate=rate,
            clip_norm=float(train["clip_norm"]),
            projection_radius=None if radius is None else float(radius),
            seed=trial_seed,
        )
        spec = ModelSpec("softmax_linear", d, 2)
        # Embed the logistic signal symmetrically into the two-class softmax
        # parameterization (class margins +/- theta/2 reproduce the link).
        theta_flat = np.concatenate([-theta / 2.0, theta / 2.0])
        schedule = None
        if train["force_extra_off"]:
            schedule = np.zeros(steps, dtype=bool)
        traces = coupled_train(base, extra, spec, cfg, theta_star=theta_flat,
                               extra_schedule=schedule,
                               noise_multipliers=list(sigmas.values()))
    except Exception as exc:  # a failure shared by every calibrated cell
        traces = [exc] * len(sigmas)
    step_index = range(steps + 1)
    for (i, sigma_sgd), trace in zip(sigmas.items(), traces):
        row = rows[i]
        if isinstance(trace, Exception):
            out[i] = _failed(row, trace)
            continue
        epsilon = row["epsilon"]
        block = _SeriesBlock(
            (f"gap/eps={epsilon:g}", f"error/eps={epsilon:g}"), step_index,
            np.column_stack([trace.gap_series, trace.error_series]))
        out[i] = ({**row, "status": "ok", "sigma_q": sigma_sgd,
                   "eps_train": epsilon}, [block])
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


def _fixture(name: str) -> dict:
    return next(f for f in s5_quantile_fixtures() if f["name"] == name)


def _run_quantile_demo_trial(config: ExperimentConfig,
                             rows: list[dict]) -> list[tuple[dict, list]]:
    (row,) = rows
    fixture_name, variant = row["p"], row["method"]
    fixture = _fixture(fixture_name)
    quantile = _section("quantile", config.quantile)
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
              "sigma_q": common["sigma_q"]}, series)]


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


_TRIAL_RUNNERS = {
    "scaling": _run_scaling_trial,
    "realdata": _run_realdata_trial,
    "stability": _run_stability_trial,
    "quantile_demo": _run_quantile_demo_trial,
}


def _safe_trial(config: ExperimentConfig, cells: list[dict],
                trial: int) -> list[tuple[dict, list]]:
    """Run one task: the grid cells of one trial that share a training
    subset (every cell for stability, one cell for the quantile demo). A
    failure that no single cell owns fails every cell of the task."""
    rows = [{**cell, "trial": trial, "seed": config.seed + trial}
            for cell in cells]
    try:
        return _TRIAL_RUNNERS[config.experiment](config, rows)
    except Exception as exc:  # a failed trial becomes failed rows
        return [_failed(row, exc) for row in rows]


def _training_subset(config: ExperimentConfig, cell: dict):
    """(n, split flag of ``train_target``) of a scaling or realdata cell: the
    training subset its task trains; None for other cells and for an invalid
    budget."""
    if config.experiment not in ("scaling", "realdata"):
        return None
    try:
        budget = BudgetSpec(cell["epsilon"], config.delta, cell["p"])
        return cell["n"], train_target(cell["method"], budget)[0]
    except (TypeError, ValueError):  # an invalid budget fails on its own
        return None


def _tasks(config: ExperimentConfig, cells: list[dict],
           trials: int) -> list[tuple[list[int], int]]:
    """(cell indices, trial) tasks, in the order of each task's first row in
    the output. Scaling and realdata cells of a trial share a task when
    their data cell (n; the whole CSV for realdata) and the split flag of
    ``train_target`` agree: one task per training subset and trial, which
    trains every distinct target of the subset in one lockstep call at any
    batch size. Every stability cell of a trial shares one task, which
    trains all of them in lockstep. Any other cell runs alone."""
    groups: dict = {}
    for i, cell in enumerate(cells):
        key = ("coupled" if config.experiment == "stability"
               else _training_subset(config, cell))
        groups.setdefault(i if key is None else key, []).append(i)
    tasks = [(members, t) for members in groups.values()
             for t in range(trials)]
    return sorted(tasks, key=lambda task: (task[0][0], task[1]))


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


def _series_text(experiment: str, trial: int,
                 blocks: list[_SeriesBlock]) -> str:
    """The rows ``csv.writer`` would write for the blocks, byte for byte:
    the text cells go through ``csv`` quoting once per block, and the
    numbers never need it."""
    head = _csv_prefix(experiment, trial)
    parts = []
    for metrics, steps, values in blocks:
        names = [_csv_prefix(metric) for metric in metrics]
        if isinstance(values, np.ndarray) and values.dtype == float:
            # Python floats, whose repr is their _fmt.
            parts.append("".join(f"{head}{step},{name}{value!r}\r\n"
                                 for step, row in zip(steps, values.tolist())
                                 for name, value in zip(names, row)))
        else:
            parts.append("".join(f"{head}{step},{name}{_fmt(value)}\r\n"
                                 for step, row in zip(steps, values)
                                 for name, value in zip(names, row)))
    return "".join(parts)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Run the configured sweep; returns the formatted result rows and, when
    ``config.output`` is set, writes ``<output>`` plus ``<stem>_series.csv``.

    Each task trains the models of one training subset of one trial in
    lockstep and finishes every grid cell that uses them; up to ``jobs``
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
    waiting: dict[int, tuple[dict, list]] = {}
    position = 0
    with ExitStack() as stack:
        series_fh = None
        if config.output is not None:
            out = Path(config.output)
            out.parent.mkdir(parents=True, exist_ok=True)
            result_fh = stack.enter_context(open(out, "w", newline=""))
            series_fh = stack.enter_context(
                open(out.with_name(out.stem + "_series.csv"), "w", newline=""))
            result_csv = csv.writer(result_fh)
            result_csv.writerow(RESULT_COLUMNS)
            csv.writer(series_fh).writerow(SERIES_COLUMNS)
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
            released = len(all_rows)
            while position in waiting:
                row, series = waiting.pop(position)
                position += 1
                formatted = _format_row(row)
                cell_rows.append(formatted)
                all_rows.append(formatted)
                if series_fh is not None:
                    series_fh.write(_series_text(row["experiment"],
                                                 row["trial"], series))
                if len(cell_rows) == trials:
                    all_rows += _aggregate_rows(cell_rows)
                    cell_rows = []
            if series_fh is not None:
                result_csv.writerows([row[col] for col in RESULT_COLUMNS]
                                     for row in all_rows[released:])
                result_fh.flush()
                series_fh.flush()
    return all_rows
