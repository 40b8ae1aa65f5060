"""Correctness checks on the CSVs a sweep writes.

They use only the written files and the workload config: the results CSV
header, one ok row per (cell, trial) plus mean/sd rows per cell, training
privacy spend within its target, the coverage sanity band, and the series
layout of the stability study.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import PRIVATE_METHODS, VALID_METHODS

RESULT_COLUMNS = ["experiment", "method", "epsilon", "n", "p", "trial",
                  "coverage", "efficiency", "informativeness", "q_hat",
                  "sigma_q", "eps_train", "seed", "status"]
# Lowest per-cell mean coverage accepted from a method with a coverage
# guarantee at alpha = 0.1 (a sanity band, not the guarantee itself).
COVERAGE_FLOOR = 0.85
_EPS_SLACK = 1e-9


def _read(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _cells(config: dict) -> int:
    eps, allocs = len(config["epsilons"]), len(config.get("allocations", [1]))
    if config["experiment"] == "stability":
        return eps
    methods = len(config["methods"])
    if config["experiment"] == "realdata":
        return eps * allocs * methods
    return eps * len(config["sample_sizes"]) * allocs * methods


def check_sweep(config: dict, out_dir: Path, csv_rows: int | None):
    """Returns (trial rows attempted, trial rows failed, problems, quality).

    ``quality`` holds failed_frac and, for the conformal studies,
    min_coverage and mean_set_size.
    """
    problems = []
    header, rows = _read(out_dir / "results.csv")
    if header != RESULT_COLUMNS:
        problems.append(f"results header {header}")
    trials = [r for r in rows if r["status"] != "aggregate"]
    means = [r for r in rows if r["status"] == "aggregate"
             and r["trial"] == "mean"]
    failed = sum(r["status"] != "ok" for r in trials)
    cells = _cells(config)
    if len(trials) != cells * config["trials"] or len(means) != cells:
        problems.append(f"{len(trials)} trial rows and {len(means)} mean rows "
                        f"for {cells} cells x {config['trials']} trials")
    quality = {"failed_frac": failed / max(1, len(trials))}
    ok = [r for r in trials if r["status"] == "ok"]

    if config["experiment"] == "stability":
        _, series = _read(out_dir / "results_series.csv")
        steps = config["train"]["steps"]
        if len(series) != len(trials) * 2 * (steps + 1):
            problems.append(f"{len(series)} series rows")
        if any(float(s["value"]) != 0.0 for s in series
               if s["step"] == "0" and s["metric"].startswith("gap/")):
            problems.append("coupled runs differ at step 0")
        for r in ok:
            if float(r["eps_train"]) != float(r["epsilon"]) or \
                    not float(r["sigma_q"]) > 0.0:
                problems.append(f"stability row {r}")
        return len(trials), failed, problems, quality

    for r in ok:
        eps, p = float(r["epsilon"]), float(r["p"])
        sigma_q, eps_train = float(r["sigma_q"]), float(r["eps_train"])
        if r["method"] in ("dpscp_f", "dpscp_a"):
            private, target = True, p * eps
        elif r["method"] == "dp_split":
            private, target = True, eps
        else:
            private, target = False, 0.0
        if eps_train > target * (1.0 + _EPS_SLACK) or \
                (private and not sigma_q > 0.0) or \
                (not private and sigma_q != 0.0):
            problems.append(f"privacy spend out of budget: {r}")
        if not 0.0 <= float(r["coverage"]) <= 1.0:
            problems.append(f"coverage out of [0, 1]: {r}")
        if csv_rows is not None and int(r["n"]) != csv_rows - math.floor(
                config["csv"]["test_fraction"] * csv_rows):
            problems.append(f"pool size {r['n']} for {csv_rows} CSV rows")
    valid = [float(r["coverage"]) for r in means
             if r["method"] in VALID_METHODS]
    private = [float(r["efficiency"]) for r in means
               if r["method"] in PRIVATE_METHODS]
    if valid:
        quality["min_coverage"] = min(valid)
        if not COVERAGE_FLOOR <= min(valid) <= 1.0:
            problems.append(f"min_coverage {min(valid)} outside "
                            f"[{COVERAGE_FLOOR}, 1]")
    if private:
        quality["mean_set_size"] = sum(private) / len(private)
    return len(trials), failed, problems, quality
