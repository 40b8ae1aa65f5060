"""The gate runs: every CLI run whose files must stay byte-identical for
every ``--jobs`` value and, in a change that does not mean to change
results, to the parent commit.

    python tools/gate_runs.py --src SRC --out DIR --jobs N --inputs DIR

runs each entry of ``RUNS`` with the package under SRC (the directory that
holds ``dpconformal/``, such as a checkout's ``src``) at ``--jobs N``; each
run writes ``DIR/<name>.csv`` and its sidecars. An ``--inputs`` directory
that holds no config yet gets them first: the configs of ``CONFIGS`` and
the inputs of the bench workloads of ``WORKLOADS``. Two trees run from one
inputs directory read the same files. The script exits 1 when a run's exit
code is not the one its entry expects. Compare two output directories with
``diff -r``: the tree at ``--jobs 1`` with the same tree at ``--jobs 2``,
and the parent at ``--jobs 1`` with the change at ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ALL_METHODS = ["dpscp_f", "dpscp_a", "dp_split", "split_cp", "naive_full"]

# Hand-written configs, each written to <inputs>/<name>.json. A csv path is
# relative to the inputs directory and written out absolute.
CONFIGS = {
    "demo_config": {"experiment": "quantile_demo", "seed": 31,
                    "quantile": {"steps": 12, "sigma": 0.8}},
    "demo_central": {"experiment": "quantile_demo",
                     "quantile": {"steps": 2, "beta": 0.3}},
    "demo_far_tail": {"experiment": "quantile_demo",
                      "quantile": {"steps": 12, "beta": 1e-12}},
    "criterion10": {
        "experiment": "scaling", "trials": 3, "seed": 1234,
        "epsilons": [1.0], "sample_sizes": [600], "allocations": [0.5],
        "methods": ["dpscp_a", "split_cp"],
        "generator": {"dim": 6, "classes": 3, "class_sep": 1.0,
                      "flip_y": 0.01, "test_size": 300},
        "train": {"model": "softmax_linear", "epochs": 5, "batch_size": 32,
                  "learning_rate": 0.05, "clip_norm": 1.0},
        "quantile": {"steps": 20, "beta": 0.05, "buffer": 10}},
    "splitfirst": {
        "experiment": "scaling", "trials": 2,
        "methods": ["split_cp", "dpscp_a", "dp_split", "naive_full",
                    "dpscp_f"],
        "sample_sizes": [300, 601], "allocations": [0.3, 0.5],
        "generator": {"test_size": 200},
        "train": {"model": "softmax_linear", "epochs": 2}},
    "linreg": {
        "experiment": "realdata", "trials": 2, "seed": 7,
        "epsilons": [0.5, 1.0], "allocations": [0.5], "methods": ALL_METHODS,
        "csv": {"path": "realdata_csv/regression.csv", "label_column": 8,
                "task": "regression"},
        "train": {"model": "linear_regression", "epochs": 2,
                  "batch_size": 64, "learning_rate": 0.01, "clip_norm": 1.0}},
    "projected": {
        "experiment": "stability", "trials": 2, "seed": 11,
        "epsilons": [0.5, 1.0, 2.0], "sample_sizes": [1000],
        "train": {"steps": 300, "learning_rate": 0.5,
                  "projection_radius": 0.05}},
    "overflow": {
        "experiment": "stability", "trials": 2, "seed": 13,
        "epsilons": [0.5, 1.0, 8.0], "sample_sizes": [1000],
        "train": {"steps": 200, "learning_rate": 3e153,
                  "projection_radius": 1e200}},
    "infeasible_scaling": {
        "experiment": "scaling", "trials": 2, "seed": 17,
        "epsilons": [0.04, 1.0], "sample_sizes": [600],
        "methods": ALL_METHODS,
        "generator": {"dim": 6, "classes": 3, "class_sep": 1.0,
                      "test_size": 300},
        "train": {"model": "softmax_linear", "epochs": 2,
                  "learning_rate": 0.05}},
    "infeasible_stability": {
        "experiment": "stability", "trials": 2, "seed": 19,
        "epsilons": [0.04, 0.5], "sample_sizes": [500]},
    "mlp_blocks": {
        "experiment": "scaling", "trials": 2, "seed": 23,
        "epsilons": [0.5, 1.0], "sample_sizes": [6000],
        "allocations": [0.3, 0.5], "methods": ALL_METHODS,
        "generator": {"test_size": 500},
        "train": {"model": "mlp", "hidden": [16, 8], "epochs": 5,
                  "batch_size": 2000, "learning_rate": 0.05}},
    "stability_blocks": {
        "experiment": "stability", "trials": 2, "seed": 29,
        "epsilons": [0.5, 1.0, 2.0, 4.0], "sample_sizes": [10000],
        "train": {"rate": 0.5, "steps": 60, "learning_rate": 0.05}},
    "realdata_odd": {
        "experiment": "realdata", "trials": 2, "seed": 37,
        "epsilons": [0.5, 1.0], "allocations": [0.5],
        "methods": ["dp_split", "split_cp", "dpscp_f", "dpscp_a",
                    "naive_full"],
        "csv": {"path": "realdata_csv/regression.csv", "label_column": 8,
                "task": "regression", "test_fraction": 0.25},
        "train": {"model": "mlp", "hidden": [16, 8], "epochs": 2,
                  "batch_size": 64, "learning_rate": 0.01}},
}

# Bench workloads, each written by bench/workloads.py's prepare at seed 1
# into <inputs>/<name>/: name -> (workload, size).
WORKLOADS = {
    **{name: (name, "tiny") for name in (
        "scaling_mlp", "calib_sweep", "stability_coupled", "realdata_csv")},
    "calib_sweep_full": ("calib_sweep", "full"),
    "stability_coupled_full": ("stability_coupled", "full"),
}


class Run(NamedTuple):
    """One CLI run: ``dpconformal <command> [--config <config>] <flags>
    --jobs N --out <out>/<name>.csv``, which exits with ``status``. At an N
    above 1 it asks for ``pooled_jobs`` workers when that is set."""

    name: str
    command: str
    config: str | None  # a key of CONFIGS or WORKLOADS
    purpose: str
    flags: tuple[str, ...] = ()
    status: int = 0
    pooled_jobs: int | None = None


RUNS = (
    Run("stability", "stability", None, "the desk stability study",
        ("--trials", "2")),
    Run("scaling", "scaling", None, "the desk scaling study",
        ("--trials", "1")),
    Run("demo", "quantile-demo", None, "the quantile demo at its defaults; "
        "--jobs 8, more than its 4 tasks, caps the pool at one worker a task",
        pooled_jobs=8),
    Run("demo_config", "quantile-demo", "demo_config", "moves the demo's "
        "seed, search steps and sigma_q, the keys it reads besides beta",
        pooled_jobs=8),
    Run("demo_central", "quantile-demo", "demo_central", "beta / steps = "
        "0.15: the central branch of AS241's inverse normal CDF in tau",
        pooled_jobs=8),
    Run("demo_far_tail", "quantile-demo", "demo_far_tail", "beta / steps "
        "about 8e-14: AS241's far tail past r = 5; every other search here "
        "is in its middle branch", pooled_jobs=8),
    Run("criterion10", "scaling", "criterion10",
        "the config of test_criterion_10_byte_identical_results"),
    Run("splitfirst", "scaling", "splitfirst", "a split method listed "
        "first: the order of a task's training subsets, and the train half "
        "of an odd pool, follow each row's split rule"),
    Run("linreg", "realdata", "linreg", "the one linear regression head, "
        "on the tiny realdata_csv table"),
    Run("projected", "stability", "projected", "a binding projection, off "
        "the DP-SGD step's all-finite path"),
    Run("overflow", "stability", "overflow", "learning rate 3e153 with a "
        "1e200 projection: the eps=0.5 cell fails on a projection norm that "
        "overflows", status=1),
    Run("infeasible_scaling", "scaling", "infeasible_scaling", "epsilon "
        "0.04 cells of all five methods fail calibration; the cells that "
        "calibrate train in lockstep", status=1),
    Run("infeasible_stability", "stability", "infeasible_stability",
        "epsilon 0.04 cells fail calibration; the others train in lockstep",
        status=1),
    Run("mlp_blocks", "scaling", "mlp_blocks", "an MLP grid at batch 2000: "
        "a DP-SGD step spans one block per run, through the hidden layers "
        "and biases"),
    Run("stability_blocks", "stability", "stability_blocks", "four "
        "epsilons at batch 5000: the coupled stack of 8 rows steps in three "
        "blocks, its halves in two"),
    Run("realdata_odd", "realdata", "realdata_odd", "dp_split listed first "
        "trains an MLP regression head through the row index of an odd "
        "1,125-row pool"),
    Run("scaling_mlp", "scaling", "scaling_mlp", "the bench workload, tiny"),
    Run("calib_sweep", "scaling", "calib_sweep", "the bench workload, tiny"),
    Run("calib_sweep_full", "scaling", "calib_sweep_full", "the bench "
        "workload: one lockstep call trains each training subset's 6 or 18 "
        "targets at batch 2000"),
    Run("stability_coupled", "stability", "stability_coupled",
        "the bench workload, tiny"),
    Run("stability_coupled_full", "stability", "stability_coupled_full",
        "the bench workload: its two trials write 2,001-step series rows in "
        "8 chunks of experiments._CHUNK_STEPS each, from pool workers"),
    Run("realdata_csv", "realdata", "realdata_csv", "the bench workload, "
        "tiny"),
    Run("realdata_csv_trials2", "realdata", "realdata_csv", "two tasks of "
        "the one-task workload, so the pooled run uses workers",
        ("--trials", "2")),
    Run("calib_sweep_trials2", "scaling", "calib_sweep", "the workload that "
        "makes the most noise calibrations, from pool workers",
        ("--trials", "2")),
    Run("calib_sweep_full_trials2", "scaling", "calib_sweep_full", "the "
        "batch-2000 lockstep calls, from pool workers", ("--trials", "2")),
)


def config_path(inputs: Path, config: str) -> Path:
    if config in WORKLOADS:
        return inputs / config / "config.json"
    return inputs / f"{config}.json"


def write_configs(inputs: Path) -> None:
    """Write each config of ``CONFIGS`` into ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    for name, config in CONFIGS.items():
        if "csv" in config:
            config = {**config, "csv": {
                **config["csv"], "path": str(inputs / config["csv"]["path"])}}
        config_path(inputs, name).write_text(json.dumps(config))


def write_inputs(inputs: Path) -> None:
    """Write every input that ``RUNS`` reads into ``inputs``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    for name, (workload, size) in WORKLOADS.items():
        workloads.prepare(workload, 1, size, inputs / name)
    write_configs(inputs)


def run_all(src: Path, out: Path, jobs: int, inputs: Path) -> int:
    """Run ``RUNS`` in order; the number of runs whose exit code is not the
    one they expect."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    wrong = 0
    for run in RUNS:
        config = (() if run.config is None
                  else ("--config", str(config_path(inputs, run.config))))
        n = run.pooled_jobs if jobs > 1 and run.pooled_jobs else jobs
        print(f"{run.name}: {run.purpose}", flush=True)
        status = subprocess.run(
            [sys.executable, "-m", "dpconformal.cli", run.command, *config,
             *run.flags, "--jobs", str(n), "--out", out / f"{run.name}.csv"],
            env=env).returncode
        if status != run.status:
            print(f"{run.name}: exit {status}, expected {run.status}",
                  file=sys.stderr, flush=True)
            wrong += 1
    return wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="directory that holds the dpconformal package")
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for the files the runs write")
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True,
                        help="inputs directory, written if it holds no config")
    args = parser.parse_args()
    inputs = args.inputs.resolve()
    if not any(inputs.glob("*.json")):
        write_inputs(inputs)
    return 1 if run_all(args.src.resolve(), args.out.resolve(), args.jobs,
                        inputs) else 0


if __name__ == "__main__":
    sys.exit(main())
