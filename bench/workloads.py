"""Workload definitions: a seeded experiment config per workload, plus the
regression CSV that ``realdata_csv`` reads.

Every input is a pure function of (workload, seed, size). The library only
sees the JSON config written here and, for ``realdata_csv``, the CSV.
README.md in this directory says why each workload exists and which layer
it stresses.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("scaling_mlp", "calib_sweep", "stability_coupled", "realdata_csv")

ALL_METHODS = ["dpscp_f", "dpscp_a", "dp_split", "split_cp", "naive_full"]
PRIVATE_METHODS = ["dpscp_f", "dpscp_a", "dp_split"]
# Methods whose per-cell coverage must clear the sanity band; dpscp_a and
# naive_full are allowed to undercover by design.
VALID_METHODS = ("dpscp_f", "dp_split", "split_cp")

_DESK_GENERATOR = {"dim": 10, "classes": 5, "class_sep": 0.6, "flip_y": 0.01,
                   "test_size": 2000}
_QUANTILE = {"steps": 20, "beta": 0.05, "buffer": 10}

# realdata_csv input: rows x features of a smooth nonlinear regression.
CSV_ROWS = {"full": 20000, "tiny": 1500}
CSV_FEATURES = 8


def _scaling_mlp(size: str) -> dict:
    # The CLI's desk scaling grid with the step budget cut to a few epochs,
    # so that one sweep takes seconds and a run holds several repeats.
    tiny = size == "tiny"
    return {
        "experiment": "scaling",
        "trials": 1,
        "alpha": 0.1,
        "epsilons": [0.5, 1.0],
        "sample_sizes": [300, 600] if tiny else [2500, 5000],
        "allocations": [0.5],
        "methods": ALL_METHODS,
        "generator": dict(_DESK_GENERATOR, test_size=300 if tiny else 2000),
        "train": {"model": "mlp", "hidden": [16, 16],
                  "epochs": 1 if tiny else 2, "batch_size": 32,
                  "learning_rate": 1e-2, "clip_norm": 1.0},
        "quantile": _QUANTILE,
    }


def _calib_sweep(size: str) -> dict:
    # One epoch of large Poisson batches keeps training cheap, while six
    # epsilons times three allocations give calibrate_sigma_sgd a new
    # (rate, steps, target) key in most cells: no product p * eps repeats.
    tiny = size == "tiny"
    return {
        "experiment": "scaling",
        "trials": 1,
        "alpha": 0.1,
        "epsilons": [0.7, 2.3] if tiny else [0.3, 0.7, 1.1, 1.7, 2.3, 3.1],
        "sample_sizes": [2000] if tiny else [20000],
        "allocations": [0.25, 0.5, 0.75],
        "methods": PRIVATE_METHODS,
        "generator": dict(_DESK_GENERATOR, test_size=300 if tiny else 2000),
        "train": {"model": "softmax_linear", "epochs": 1,
                  "batch_size": 200 if tiny else 2000,
                  "learning_rate": 1e-2, "clip_norm": 1.0},
        "quantile": _QUANTILE,
    }


def _stability_coupled(size: str) -> dict:
    # Small Poisson batches (q = 0.02 of n = 1000, about 20 rows) make the
    # per-step overhead of the two coupled updates dominate, and each trial
    # writes 2 (T + 1) series rows.
    tiny = size == "tiny"
    return {
        "experiment": "stability",
        "trials": 1 if tiny else 2,
        "alpha": 0.1,
        "epsilons": [0.5, 1.0, 2.0],
        "sample_sizes": [1000],
        "generator": {"dim": 10},
        "train": {"rate": 0.02, "steps": 50 if tiny else 2000,
                  "learning_rate": 1e-3, "clip_norm": 1.0},
    }


def _realdata_csv(size: str, csv_path: str) -> dict:
    tiny = size == "tiny"
    return {
        "experiment": "realdata",
        "trials": 1,
        "alpha": 0.1,
        "epsilons": [0.5, 1.0],
        "allocations": [0.5],
        "methods": ALL_METHODS,
        "csv": {"path": csv_path, "label_column": CSV_FEATURES,
                "task": "regression", "has_header": True,
                "test_fraction": 0.2},
        "train": {"model": "mlp", "hidden": [32, 16],
                  "epochs": 1 if tiny else 2, "batch_size": 128,
                  "learning_rate": 1e-2, "clip_norm": 1.0},
        "quantile": _QUANTILE,
    }


def write_regression_csv(path: Path, rows: int, seed: int) -> None:
    """Features first, target last; every value in shortest round-trip form."""
    rng = np.random.default_rng([seed, 0xC5F])
    x = rng.standard_normal((rows, CSV_FEATURES))
    w = rng.uniform(-1.0, 1.0, CSV_FEATURES)
    y = np.sin(x @ w) + 0.5 * x[:, 0] * x[:, 1] + 0.3 * rng.standard_normal(rows)
    header = [f"x{j}" for j in range(CSV_FEATURES)] + ["y"]
    lines = [",".join(header)]
    for row in np.column_stack([x, y]).tolist():
        lines.append(",".join(repr(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def prepare(workload: str, seed: int, size: str, workdir: Path) -> Path:
    """Write the workload's inputs into workdir; returns the config path."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "realdata_csv":
        csv_path = workdir / "regression.csv"
        write_regression_csv(csv_path, CSV_ROWS[size], seed)
        config = _realdata_csv(size, str(csv_path.resolve()))
    else:
        config = {"scaling_mlp": _scaling_mlp, "calib_sweep": _calib_sweep,
                  "stability_coupled": _stability_coupled}[workload](size)
    config["seed"] = seed
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return config_path
