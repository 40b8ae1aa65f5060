import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dpconformal import cli, conformal, experiments
from dpconformal.accounting import InfeasibleBudgetError
from dpconformal.cli import main
from dpconformal.conformal import SPLIT_METHODS
from dpconformal.data import gen_multiclass
from dpconformal.experiments import (ExperimentConfig, RESULT_COLUMNS,
                                     SERIES_COLUMNS, load_config,
                                     run_experiment, s5_quantile_fixtures,
                                     train_plan)
from dpconformal.quantile import QuantileConfig
from dpconformal.training import TrainConfig


def tiny_scaling_config(tmp_path=None, trials=2, **kw):
    base = dict(
        experiment="scaling", trials=trials, seed=500,
        epsilons=(1.0,), sample_sizes=(600,), allocations=(0.5,),
        methods=("dpscp_a", "split_cp"),
        generator={"dim": 6, "classes": 3, "class_sep": 1.0, "flip_y": 0.01,
                   "test_size": 300},
        train={"model": "softmax_linear", "epochs": 5, "batch_size": 32,
               "learning_rate": 0.05, "clip_norm": 1.0},
        quantile={"steps": 20, "beta": 0.05, "buffer": 10},
    )
    if tmp_path is not None:
        base["output"] = str(tmp_path / "results.csv")
    base.update(kw)
    return ExperimentConfig(**base)


def write_regression_csv(path, rows=400, seed=12):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, 3))
    y = x @ np.array([2.0, -1.0, 0.5]) + 0.2 * rng.standard_normal(rows)
    with open(path, "w") as fh:
        fh.write("f0,f1,f2,target\n")
        for row, target in zip(x, y):
            fh.write(",".join(f"{v:.8f}" for v in row) + f",{target:.8f}\n")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_usage_error(tmp_path, capsys, raw, message):
    """The JSON config ``raw`` fails ``load_config`` with ``message``, and
    the CLI given it exits 2 with that message, no traceback and no CSV."""
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    # json.dumps writes nan as NaN, which json.load reads back.
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=message):
        load_config(path)
    with pytest.raises(SystemExit) as exc:
        main([raw["experiment"].replace("_", "-"), "--config", str(path),
              "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_train_plan():
    rate, steps = train_plan(2000, 50, 32)
    assert rate == pytest.approx(32 / 2000)
    assert steps == 50 * math.ceil(2000 / 32)
    assert train_plan(10, 2, 32) == (1.0, 2)


def test_result_and_series_headers(tmp_path):
    cfg = tiny_scaling_config(tmp_path)
    run_experiment(cfg)
    with open(tmp_path / "results.csv") as fh:
        header = fh.readline().strip()
    assert header == ",".join(RESULT_COLUMNS)
    with open(tmp_path / "results_series.csv") as fh:
        header = fh.readline().strip()
    assert header == ",".join(SERIES_COLUMNS)


def test_rows_per_cell_and_aggregates(tmp_path):
    cfg = tiny_scaling_config(tmp_path, trials=3)
    rows = run_experiment(cfg)
    # 2 methods x (3 trials + mean + sd)
    assert len(rows) == 2 * 5
    trial_rows = [r for r in rows if r["status"] == "ok"]
    assert len(trial_rows) == 6
    assert {r["trial"] for r in rows if r["status"] == "aggregate"} == {
        "mean", "sd"}


def test_aggregates_recomputable_from_per_trial_rows(tmp_path):
    cfg = tiny_scaling_config(tmp_path, trials=4)
    run_experiment(cfg)
    rows = read_rows(tmp_path / "results.csv")
    for method in ("dpscp_a", "split_cp"):
        cell = [r for r in rows if r["method"] == method]
        trials = [r for r in cell if r["status"] == "ok"]
        mean_row = next(r for r in cell if r["trial"] == "mean")
        sd_row = next(r for r in cell if r["trial"] == "sd")
        for col in ("coverage", "efficiency", "q_hat"):
            vals = [float(r[col]) for r in trials]
            assert abs(float(mean_row[col]) - np.mean(vals)) < 1e-12
            assert abs(float(sd_row[col]) - np.std(vals, ddof=1)) < 1e-12


def test_sd_of_identical_trial_values_is_exactly_zero():
    # np.std of ten copies of 0.3 is 5.9e-17, from the rounding of their
    # mean; the sd row of a constant column reads 0.
    trials = [{"experiment": "scaling", "method": "dpscp_f", "epsilon": 1.0,
               "n": 100, "p": 0.5, "trial": t, "coverage": 0.8 + t / 100,
               "efficiency": 2.0, "informativeness": 0.5, "q_hat": 0.3,
               "sigma_q": 4.0, "eps_train": 0.3, "seed": t, "status": "ok"}
              for t in range(10)]
    assert np.std([0.3] * 10, ddof=1) > 0.0
    mean, sd = experiments._aggregate_rows(
        [experiments._format_row(r) for r in trials])
    assert float(mean["eps_train"]) == pytest.approx(0.3)
    assert sd["eps_train"] == sd["q_hat"] == sd["efficiency"] == "0.0"
    assert float(sd["coverage"]) == pytest.approx(np.std(
        [0.8 + t / 100 for t in range(10)], ddof=1))


def test_seed_discipline_prefix(tmp_path):
    short = run_experiment(tiny_scaling_config(tmp_path, trials=2))
    longer = run_experiment(tiny_scaling_config(tmp_path, trials=3))
    short_trials = [r for r in short if r["status"] == "ok"]
    longer_trials = [r for r in longer if r["status"] == "ok"]
    by_key_long = {(r["method"], r["trial"]): r for r in longer_trials}
    for r in short_trials:
        assert r == by_key_long[(r["method"], r["trial"])]
    assert all(int(r["seed"]) == 500 + int(r["trial"]) for r in short_trials)


def test_byte_identical_reruns_and_parallel(tmp_path):
    cfg = tiny_scaling_config(tmp_path)
    run_experiment(cfg)
    first = (tmp_path / "results.csv").read_bytes()
    first_series = (tmp_path / "results_series.csv").read_bytes()
    run_experiment(cfg)
    assert (tmp_path / "results.csv").read_bytes() == first
    run_experiment(cfg, jobs=2)
    assert (tmp_path / "results.csv").read_bytes() == first
    assert (tmp_path / "results_series.csv").read_bytes() == first_series


def test_failed_trial_becomes_failed_row(tmp_path):
    realdata = ExperimentConfig(
        experiment="realdata", trials=1, seed=1, epsilons=(1.0,),
        allocations=(0.5,), methods=("split_cp",),
        csv_source={"path": str(tmp_path / "missing.csv")},
        output=str(tmp_path / "out.csv"),
    )
    # A one-output head on the three-class pool: a model kind that is not
    # one of ModelSpec's is a usage error, so a sound kind fails here.
    scaling = tiny_scaling_config(tmp_path, trials=1, methods=("dpscp_a",),
                                  train={"model": "linear_regression"})
    stability = ExperimentConfig(
        experiment="stability", trials=1, seed=3, epsilons=(2.0,),
        sample_sizes=(200,), generator={"dim": 5},
        train={"learning_rate": 1e308}, output=str(tmp_path / "stab.csv"),
    )
    # The realdata pool size is known only once the CSV has been read.
    cases = [
        (realdata, {"method": "split_cp", "epsilon": "1.0", "n": "",
                    "p": "0.5"}),
        (scaling, {"method": "dpscp_a", "epsilon": "1.0", "n": "600",
                   "p": "0.5"}),
        (stability, {"method": "dpsgd_coupled", "epsilon": "2.0", "n": "200",
                     "p": ""}),
    ]
    for cfg, cell in cases:
        rows = run_experiment(cfg)
        assert rows[0]["status"].startswith("failed:")
        assert {col: rows[0][col] for col in cell} == cell
        assert rows[0]["seed"] == str(cfg.seed)
        assert rows[0]["coverage"] == ""
        # aggregates survive with empty metrics
        assert rows[1]["trial"] == "mean" and rows[1]["coverage"] == ""


def test_realdata_experiment_runs_from_csv(tmp_path):
    path = tmp_path / "housing.csv"
    write_regression_csv(path)
    cfg = ExperimentConfig(
        experiment="realdata", trials=2, seed=9, epsilons=(2.0,),
        allocations=(0.5,), methods=("split_cp", "dpscp_a"),
        csv_source={"path": str(path), "label_column": 3, "task": "regression",
                    "test_fraction": 0.25},
        train={"model": "linear_regression", "epochs": 30, "batch_size": 32,
               "learning_rate": 0.05, "clip_norm": 1.0},
        quantile={"steps": 20, "beta": 0.05, "buffer": 10},
        output=str(tmp_path / "rd.csv"),
    )
    rows = run_experiment(cfg)
    ok = [r for r in rows if r["status"] == "ok"]
    assert len(ok) == 4
    assert all(r["informativeness"] == "" for r in ok)
    assert all(float(r["coverage"]) > 0.5 for r in ok)


def test_stability_series_layout(tmp_path):
    cfg = ExperimentConfig(
        experiment="stability", trials=2, seed=3, epsilons=(1.0, 2.0),
        sample_sizes=(200,), generator={"dim": 5},
        train={"rate": 0.05, "steps": 30, "learning_rate": 0.05,
               "clip_norm": 1.0},
        output=str(tmp_path / "stab.csv"),
    )
    rows = run_experiment(cfg)
    ok = [r for r in rows if r["status"] == "ok"]
    assert len(ok) == 4  # 2 eps x 2 trials
    series = read_rows(tmp_path / "stab_series.csv")
    metrics = {r["metric"] for r in series}
    assert metrics == {"gap/eps=1", "error/eps=1", "gap/eps=2", "error/eps=2"}
    per_metric = sum(1 for r in series if r["metric"] == "gap/eps=1")
    assert per_metric == 2 * 31  # trials x (steps + 1)
    # shared trial seeds pair the masks across epsilon cells, so the
    # divergence step pattern matches
    gap1 = [float(r["value"]) for r in series
            if r["metric"] == "gap/eps=1" and r["trial"] == "0"]
    gap2 = [float(r["value"]) for r in series
            if r["metric"] == "gap/eps=2" and r["trial"] == "0"]
    first1 = next((i for i, g in enumerate(gap1) if g > 0), None)
    first2 = next((i for i, g in enumerate(gap2) if g > 0), None)
    assert first1 == first2


def test_quantile_demo_outputs(tmp_path):
    cfg = ExperimentConfig(experiment="quantile_demo",
                           output=str(tmp_path / "demo.csv"))
    rows = run_experiment(cfg)
    # One trial whatever config.trials says (10 here, as in the CLI preset).
    assert {r["trial"] for r in rows if r["status"] == "ok"} == {"0"}
    ok = {(r["method"], r["p"]): r for r in rows if r["status"] == "ok"}
    assert float(ok[("midpoint", "tie_jump")]["q_hat"]) < 10.0
    assert float(ok[("buffered_right", "tie_jump")]["q_hat"]) >= 10.0
    assert float(ok[("midpoint", "no_ties")]["q_hat"]) < 9.0
    assert float(ok[("buffered_right", "no_ties")]["q_hat"]) >= 9.0
    fixtures = {f["name"] for f in s5_quantile_fixtures()}
    assert fixtures == {"tie_jump", "no_ties"}
    series = read_rows(tmp_path / "demo_series.csv")
    assert any(r["metric"] == "tie_jump/midpoint/noisy_count" for r in series)


def _fresh_python(script: str) -> str:
    """The stdout of ``script`` run in a fresh interpreter that imports this
    package."""
    src = str(Path(experiments.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_jobs_1_sweep_does_not_import_the_process_pool():
    # A fresh interpreter sees what a jobs=1 CLI run imports; the pool and
    # multiprocessing load only for jobs > 1.
    script = (
        "import sys\n"
        "import dpconformal, dpconformal.experiments as ex\n"
        "ex.run_experiment(ex.ExperimentConfig(experiment='quantile_demo'),"
        " jobs=1)\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'}"
        " & set(sys.modules)))\n")
    assert _fresh_python(script).strip() == "[]"


def test_jobs_1_private_sweeps_load_neither_statistics_nor_logging():
    # Phi^{-1} of the search's rank inflation is computed in the package,
    # and data.py loads logging only to warn, which a clean run never does.
    # Counted beyond what numpy loads in the same interpreter, so a numpy
    # that imports one of them itself does not fail the test.
    script = (
        "import sys\n"
        "import numpy, numpy.random\n"
        "base = set(sys.modules)\n"
        "import dpconformal, dpconformal.experiments as ex\n"
        "stability = ex.ExperimentConfig(\n"
        "    experiment='stability', trials=1, epsilons=(1.0,),\n"
        "    sample_sizes=(200,), train={'steps': 20})\n"
        "scaling = ex.ExperimentConfig(\n"
        "    experiment='scaling', trials=1, epsilons=(1.0,),\n"
        "    sample_sizes=(300,), methods=('dpscp_f', 'dpscp_a', 'dp_split'),\n"
        "    generator={'dim': 4, 'classes': 3, 'test_size': 100},\n"
        "    train={'model': 'softmax_linear', 'epochs': 1})\n"
        "rows = [*ex.run_experiment(stability, jobs=1),\n"
        "        *ex.run_experiment(scaling, jobs=1)]\n"
        "print(sorted({r['status'] for r in rows if r['seed'] != ''}))\n"
        "print(sorted({'logging', 'statistics', 'decimal', 'fractions'}\n"
        "             & (set(sys.modules) - base)))\n")
    assert _fresh_python(script).splitlines() == ["['ok']", "[]"]


def test_load_config_roundtrip(tmp_path):
    scaling = {
        "experiment": "scaling", "trials": 4, "seed": 77, "alpha": 0.2,
        "delta": 1e-6, "epsilons": [0.5], "sample_sizes": [500],
        "allocations": [0.4], "methods": ["dpscp_a"],
        "generator": {"dim": 6, "classes": 3},
        "train": {"epochs": 2, "batch_size": 16},
        "quantile": {"steps": 10},
        "output": "out.csv",
    }
    realdata = {"experiment": "realdata", "csv": {"path": "data.csv"}}
    # Together the two set every config key.
    assert set(scaling) | set(realdata) == set(experiments._CONFIG_KEYS)
    path = tmp_path / "cfg.json"
    # Every key is read, lists as tuples and "csv" as csv_source.
    for payload, want in (
            (scaling, ExperimentConfig(
                experiment="scaling", trials=4, seed=77, alpha=0.2,
                delta=1e-6, epsilons=(0.5,), sample_sizes=(500,),
                allocations=(0.4,), methods=("dpscp_a",),
                generator={"dim": 6, "classes": 3},
                train={"epochs": 2, "batch_size": 16},
                quantile={"steps": 10}, output="out.csv")),
            (realdata, ExperimentConfig(experiment="realdata",
                                        csv_source={"path": "data.csv"}))):
        path.write_text(json.dumps(payload))
        assert load_config(path) == want
    scaling["bogus"] = 1
    path.write_text(json.dumps(scaling))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(path)


@pytest.mark.parametrize("section, key", [
    ("generator", "dims"), ("csv", "label"), ("train", "learning-rate"),
    ("quantile", "sigmaa"), ("train", "split_fraction"),
])
def test_unknown_nested_config_keys_rejected(tmp_path, section, key, capsys):
    # Each section in an experiment that reads it: a misspelt key is refused
    # as a key the experiment does not read.
    experiment = {"generator": "scaling", "csv": "realdata",
                  "train": "scaling", "quantile": "quantile_demo"}[section]
    message = f"{experiment} does not read {section} keys [{key!r}]"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": experiment,
                                section: {key: 100.0}}))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)
    with pytest.raises(SystemExit) as exc:
        main([experiment.replace("_", "-"), "--config", str(path),
              "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def write_class_csv(path, rows=1250, seed=4):
    """Three features and an integer label column, without a text header:
    it parses for either task, and its first row is data when has_header
    is false."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, 3))
    label = np.digitize(x @ np.array([1.0, -0.5, 0.3]), [-0.5, 0.5])
    path.write_text("".join(",".join(f"{v:.6f}" for v in row) + f",{c}\n"
                            for row, c in zip(x, label)))


# Per experiment, a small config in which every key that it reads acts.
def _acting_base(experiment, tmp_path):
    # At epsilon 4 the private search's threshold sits well below n, so
    # the scores, and every key that moves them, reach q_hat.
    sweep = {"trials": 1, "seed": 5, "epsilons": [4.0],
             "methods": ["dpscp_f"]}
    net = {"epochs": 1, "learning_rate": 0.01}
    if experiment == "scaling":
        return {**sweep, "sample_sizes": [1000],
                "generator": {"test_size": 200}, "train": net}
    if experiment == "realdata":
        write_class_csv(tmp_path / "table.csv")
        return {**sweep, "train": net,
                "csv": {"path": str(tmp_path / "table.csv"),
                        "label_column": 3}}
    if experiment == "stability":
        return {"trials": 1, "seed": 5, "epsilons": [1.0],
                "sample_sizes": [200], "train": {"steps": 30}}
    # A small sigma_q lets the noise correction, and so beta, act.
    return {"seed": 5, "quantile": {"sigma": 0.8}}


# A value for every config key, away from its default and from the values
# of the configs above.
_MOVED = {
    "trials": 2, "seed": 9, "alpha": 0.2, "delta": 1e-6, "epsilons": [2.0],
    "sample_sizes": [250], "allocations": [0.3], "methods": ["split_cp"],
    "output": None,
    "generator.dim": 4, "generator.classes": 3, "generator.class_sep": 1.5,
    "generator.flip_y": 0.2, "generator.test_size": 150,
    "csv.path": "other.csv", "csv.label_column": 0,
    "csv.task": "classification", "csv.has_header": False,
    "csv.test_fraction": 0.35,
    "train.model": "softmax_linear", "train.hidden": [8], "train.epochs": 2,
    "train.batch_size": 16, "train.learning_rate": 0.05,
    "train.clip_norm": 0.1, "train.rate": 0.1, "train.steps": 40,
    "train.projection_radius": 0.01,
    "quantile.steps": 12, "quantile.beta": 0.3, "quantile.buffer": 3,
    "quantile.range_hi": 4.0, "quantile.sigma": 1.0,
}
# A regression head, so that the moved realdata model trains.
_MOVED_REALDATA = {"train.model": "linear_regression"}


def _with(raw, key, value):
    """A copy of the JSON config ``raw`` with the dotted ``key`` set."""
    raw = {**raw, **{name: dict(section) for name, section in raw.items()
                     if isinstance(section, dict)}}
    section, _, name = key.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[name] = value
    return raw


def _accepted_keys():
    return [(experiment, key)
            for experiment, spec in experiments.EXPERIMENTS.items()
            for key in (*spec.fields, *(f"{name}.{k}" for name, keys in
                                        spec.sections.items() for k in keys))]


def test_each_experiment_accepts_63_values_in_all():
    # 136 before each experiment's table: every one of 34 keys for each.
    counts = {}
    for experiment, _ in _accepted_keys():
        counts[experiment] = counts.get(experiment, 0) + 1
    assert counts == {"stability": 12, "scaling": 23, "quantile_demo": 5,
                      "realdata": 23}


@pytest.mark.parametrize("experiment, key", _accepted_keys(),
                         ids=lambda v: v)
def test_every_accepted_key_changes_the_results(tmp_path, experiment, key):
    def outcome(raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": experiment, **raw}))
        config = load_config(path)
        rows = run_experiment(config)
        if config.output is None:
            return rows, None
        return rows, (tmp_path / "out_series.csv").read_bytes()

    base = {**_acting_base(experiment, tmp_path),
            "output": str(tmp_path / "out.csv")}
    value = {**_MOVED, **(_MOVED_REALDATA if experiment == "realdata"
                          else {})}[key]
    if key == "csv.path":
        write_class_csv(tmp_path / value, seed=8)
        value = str(tmp_path / value)
    assert outcome(base) != outcome(_with(base, key, value))


def _unread_keys():
    every = {key for _, key in _accepted_keys()}
    return [(experiment, key) for experiment in experiments.EXPERIMENTS
            for key in sorted(every - {k for e, k in _accepted_keys()
                                       if e == experiment})]


@pytest.mark.parametrize("experiment, key", _unread_keys(), ids=lambda v: v)
def test_every_unread_key_is_a_usage_error(tmp_path, experiment, key,
                                           capsys):
    # The smallest config that the experiment accepts, plus the key.
    raw = {"experiment": experiment}
    if experiment == "stability":
        raw["sample_sizes"] = [50]
    if experiment == "realdata":
        raw["csv"] = {"path": "table.csv"}
    section, _, name = key.rpartition(".")
    message = (f"{experiment} does not read {section} keys [{name!r}]"
               if section else f"{experiment} does not read {key}")
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps(_with(raw, key, _MOVED[key])))
    with pytest.raises(SystemExit) as exc:
        main([experiment.replace("_", "-"), "--config", str(path),
              "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(message + "\n") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [path]


def test_hidden_layers_with_a_linear_model_are_a_usage_error(tmp_path,
                                                            capsys):
    for model in ("softmax_linear", "linear_regression"):
        raw = {"experiment": "scaling",
               "train": {"model": model, "hidden": [8]}}
        assert_usage_error(tmp_path, capsys, raw,
                           "train hidden is read by the mlp model only")
    assert ExperimentConfig(experiment="scaling",
                            train={"model": "mlp", "hidden": [8]})


@pytest.mark.parametrize("experiment, key, bad, floor, message", [
    # Each ran before on a truncated count (1 epoch, batch 1, 20 steps,
    # m = 3, d = 6, 100 test rows) or, for the widths, wrote failed rows.
    ("scaling", "train.epochs", 1.9, 1, "train epochs takes integers"),
    ("scaling", "train.batch_size", True, 1,
     "train batch_size takes integers"),
    ("scaling", "quantile.steps", 20.5, 1, "quantile steps takes integers"),
    ("scaling", "quantile.buffer", 3.2, 0, "quantile buffer takes integers"),
    ("scaling", "generator.dim", 6.9, 1, "generator dim takes integers"),
    ("scaling", "generator.test_size", 100.7, 1,
     "generator test_size takes integers"),
    ("scaling", "train.hidden", [4.5], [1], "train hidden takes integers"),
    ("scaling", "train.epochs", 0, 1, "train epochs must be >= 1, got 0"),
    ("scaling", "train.batch_size", 0, 1, "train batch_size must be >= 1"),
    ("scaling", "quantile.steps", 0, 1, "quantile steps must be >= 1"),
    ("scaling", "quantile.buffer", -1, 0, "quantile buffer must be >= 0"),
    ("scaling", "generator.dim", 0, 1, "generator dim must be >= 1"),
    ("scaling", "generator.classes", 1, 2, "generator classes must be >= 2"),
    ("scaling", "generator.classes", 3.0, 2,
     "generator classes takes integers"),
    ("scaling", "generator.test_size", 0, 1,
     "generator test_size must be >= 1"),
    ("scaling", "train.hidden", [16, 0], [16, 1],
     "train hidden must be >= 1, got 0"),
    ("scaling", "train.hidden", [], [1],
     "train hidden takes a nonempty list of widths"),
    ("scaling", "train.hidden", 16, [16],
     "train hidden takes a nonempty list of widths"),
    ("stability", "train.steps", 2.0, 1, "train steps takes integers"),
    ("stability", "train.steps", 0, 1, "train steps must be >= 1"),
    ("stability", "generator.dim", False, 1, "generator dim takes integers"),
    ("realdata", "csv.label_column", -1, 0, "csv label_column must be >= 0"),
    ("realdata", "csv.label_column", 1.0, 0,
     "csv label_column takes integers"),
    ("realdata", "train.epochs", 2.5, 1, "train epochs takes integers"),
    ("quantile_demo", "quantile.steps", 0, 1, "quantile steps must be >= 1"),
])
def test_section_counts_are_integers_at_or_above_their_floor(
        tmp_path, capsys, experiment, key, bad, floor, message):
    raw = {"experiment": experiment}
    if experiment == "stability":
        raw["sample_sizes"] = [50]
    if experiment == "realdata":
        raw["csv"] = {"path": "table.csv"}
    if (experiment, key) == ("scaling", "generator.dim"):
        raw["generator"] = {"classes": 2}  # 2 corners at the floor dim 1
    assert_usage_error(tmp_path, capsys, _with(raw, key, bad), message)
    path = tmp_path / "floor.json"
    path.write_text(json.dumps(_with(raw, key, floor)))
    assert load_config(path).experiment == experiment


@pytest.mark.parametrize("dim, classes", [(1, 3), (2, 5), (3, 9)])
def test_more_generator_classes_than_corners_are_a_usage_error(
        tmp_path, capsys, dim, classes):
    # gen_multiclass puts each class at its own corner of {-1, 1}^dim, so
    # such a config loaded before and then wrote failed:ValueError for
    # every row. At 2^dim classes every corner holds one class.
    raw = {"experiment": "scaling",
           "generator": {"dim": dim, "classes": classes}}
    assert_usage_error(tmp_path, capsys, raw, "generator classes must be <= 2")
    with pytest.raises(ValueError) as exc:
        ExperimentConfig("scaling", generator=raw["generator"])
    assert str(exc.value) == "generator classes must be <= 2 ** dim"
    with pytest.raises(ValueError, match="cannot place"):
        gen_multiclass(5, dim, classes, 1.0, 0.0, 1)
    assert ExperimentConfig("scaling",
                            generator={"dim": dim, "classes": 2 ** dim})


def _reader_accepts(key, value):
    """Whether the code that reads the section key accepts ``value``:
    ``TrainConfig``, ``QuantileConfig`` or ``gen_multiclass``."""
    section, _, name = key.partition(".")
    try:
        if section == "train":
            name = {"rate": "sampling_rate"}.get(name, name)
            TrainConfig(**{"learning_rate": 0.1, "steps": 1,
                           "sampling_rate": 0.5, "clip_norm": 1.0,
                           name: value})
        elif section == "quantile":
            QuantileConfig(0.0, 1.0, 0.1, 5, beta=value)
        else:
            args = {"class_sep": 1.0, "flip_y": 0.0, name: value}
            gen_multiclass(5, 3, 2, args["class_sep"], args["flip_y"], 1)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("experiment, key, bad, message", [
    ("scaling", "train.learning_rate", -1.0,
     "train learning_rate must be positive and finite, got -1.0"),
    ("scaling", "train.learning_rate", math.inf,
     "train learning_rate must be positive"),
    ("scaling", "train.clip_norm", 0.0, "train clip_norm must be positive"),
    ("scaling", "quantile.beta", 2.0, "quantile beta must lie in"),
    ("scaling", "generator.flip_y", 1.5, "generator flip_y must lie in"),
    ("scaling", "generator.class_sep", -1.0,
     "generator class_sep must be nonnegative and finite"),
    ("scaling", "generator.class_sep", math.nan,
     "generator class_sep must be nonnegative"),
    ("stability", "train.rate", 0.0, "train rate must lie in"),
    ("stability", "train.rate", 1.5, "train rate must lie in"),
    ("stability", "train.projection_radius", -1.0,
     "train projection_radius must be positive"),
    ("stability", "train.clip_norm", math.nan,
     "train clip_norm must be positive"),
    ("realdata", "train.learning_rate", 0.0,
     "train learning_rate must be positive"),
    ("realdata", "quantile.beta", 0.0, "quantile beta must lie in"),
    ("quantile_demo", "quantile.beta", 1.0, "quantile beta must lie in"),
])
def test_section_reals_outside_their_readers_rule_are_usage_errors(
        tmp_path, capsys, experiment, key, bad, message):
    # Each loaded before and then wrote failed:ValueError for every row.
    # The rule is the reader's own: it refuses the value too.
    raw = {"experiment": experiment}
    if experiment == "stability":
        raw["sample_sizes"] = [50]
    if experiment == "realdata":
        raw["csv"] = {"path": "table.csv"}
    assert_usage_error(tmp_path, capsys, _with(raw, key, bad), message)
    assert not _reader_accepts(key, bad)


def test_a_numeric_string_is_not_a_number(tmp_path, capsys):
    # Each real reads a JSON number: "0.05" was read as 0.05 by the train
    # section, and alpha "0.5" failed a comparison with a TypeError.
    for raw, message in (
            ({"train": {"learning_rate": "0.05"}},
             "train learning_rate takes a number, got '0.05'"),
            ({"alpha": "0.5"}, "alpha takes a number, got '0.5'"),
            # true was read as 1.0; a count or a choice already refused it.
            ({"train": {"learning_rate": True}},
             "train learning_rate takes a number, got True"),
            ({"generator": {"class_sep": True}},
             "generator class_sep takes a number, got True"),
            ({"alpha": True}, "alpha takes a number, got True")):
        assert_usage_error(tmp_path, capsys, {"experiment": "scaling", **raw},
                           message)


def test_a_real_too_large_for_a_float_is_a_usage_error(tmp_path, capsys):
    # Its reader takes float(value): a 401-digit JSON integer passed
    # "finite" by exact comparison, and every demo row then failed with an
    # OverflowError.
    huge = 10 ** 400
    assert_usage_error(
        tmp_path, capsys,
        {"experiment": "quantile_demo", "quantile": {"sigma": huge}},
        f"quantile sigma must be nonnegative and finite, got {huge}")
    assert_usage_error(tmp_path, capsys,
                       {"experiment": "scaling", "alpha": -huge},
                       "alpha must lie in")
    with pytest.raises(ValueError) as exc:
        ExperimentConfig("scaling", alpha=huge)
    assert str(exc.value) == f"alpha must lie in (0, 1), got {huge}"


@pytest.mark.parametrize("experiment, section, value", [
    # A list of pairs was read as a mapping: the demo ran 12 search steps.
    ("quantile_demo", "quantile", [["steps", 12]]),
    ("scaling", "train", None),
    ("realdata", "csv", "table.csv"),
])
def test_a_section_that_is_not_an_object_is_a_usage_error(
        tmp_path, capsys, experiment, section, value):
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps({"experiment": experiment, section: value}))
    command = experiment.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"dpconformal {command}: error: bad --config {path}: {section} takes "
        f"a JSON object, got {value!r}"]
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("key, bad, good, message", [
    # A misspelt model failed every row at run time, a misspelt task ran as
    # regression, and "false" was true, skipping the first data row.
    ("train.model", "softmax-linear", "softmax_linear",
     "train model takes one of [\"linear_regression\", "
     "\"softmax_linear\", \"mlp\"], got 'softmax-linear'"),
    ("csv.task", "regresion", "classification",
     "csv task takes one of [\"classification\", \"regression\"], "
     "got 'regresion'"),
    ("csv.has_header", "false", False,
     "csv has_header takes one of [true, false], got 'false'"),
    ("csv.has_header", 0, False,
     "csv has_header takes one of [true, false], got 0"),
])
def test_section_choices_outside_their_set_are_usage_errors(
        tmp_path, capsys, key, bad, good, message):
    raw = {"experiment": "realdata", "csv": {"path": "table.csv"}}
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps(_with(raw, key, bad)))
    with pytest.raises(SystemExit) as exc:
        main(["realdata", "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"dpconformal realdata: error: bad --config {path}: {message}"]
    assert "Traceback" not in err and not out.exists()
    path.write_text(json.dumps(_with(raw, key, good)))
    assert load_config(path).experiment == "realdata"


def test_every_section_key_has_a_rule_that_its_values_pass():
    # Each key's default and its moved value in _MOVED pass the rule that
    # its table gives it.
    for experiment, spec in experiments.EXPERIMENTS.items():
        moved = {**_MOVED, **(_MOVED_REALDATA if experiment == "realdata"
                              else {})}
        for section, table in spec.sections.items():
            for key, (default, rule) in table.items():
                assert callable(rule), (experiment, section, key)
                rule(f"{section} {key}", default)
                rule(f"{section} {key}", moved[f"{section}.{key}"])


def test_a_section_real_that_is_not_a_number_is_a_usage_error(tmp_path,
                                                              capsys):
    raw = {"experiment": "scaling", "train": {"learning_rate": "fast"}}
    assert_usage_error(tmp_path, capsys, raw,
                       "train learning_rate takes a number, got 'fast'")
    # A stability run may leave its projection off.
    assert ExperimentConfig(experiment="stability", sample_sizes=(50,),
                            train={"projection_radius": None})


@pytest.mark.parametrize("args, message", [
    (["stability", "--seed", "-2", "--trials", "3"], "--seed"),
    (["scaling", "--trials", "0"], "--trials"),
    (["quantile-demo", "--trials", "-1"], "--trials"),
])
def test_bad_seed_and_trials_are_usage_errors(tmp_path, args, message,
                                              capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["calibrate", "--epsilon", "1", "--allocation", "0.5"], "--allocation"),
    (["quantile-demo", "--paper-scale"], "--paper-scale"),
    (["quantile-demo", "--trials", "2"], "--trials"),
    (["realdata", "--paper-scale"], "--paper-scale"),
    (["realdata", "--paper-scale", "--config", "realdata.json"],
     "--paper-scale"),
])
def test_flags_that_no_run_reads_are_usage_errors(tmp_path, args, flag,
                                                  capsys):
    # The sigma_q calibration does not read the allocation, the quantile
    # demo runs once, and only stability and scaling have paper-scale sizes.
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(args if args[0] == "calibrate" else [*args, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="scaling", methods=("bogus",))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="scaling", trials=0)
    # a trial seed seeds numpy's SeedSequence, which takes no negative value
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(experiment="stability", sample_sizes=(50,), seed=-2)
    # the stability study runs exactly one n
    for sizes in ((), (50, 400)):
        with pytest.raises(ValueError, match="one sample size"):
            ExperimentConfig(experiment="stability", sample_sizes=sizes)
    # Counts are integers, not floats or bools, also where they are whole.
    # From a config file, 2.5 trials exited 1 with a traceback, a 1.5 seed
    # or a 300.0 sample size failed every row, and true ran one trial; each
    # is now a usage error.
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    for name, value in (("trials", 2.5), ("trials", True), ("seed", 1.5),
                        ("seed", 2.0), ("sample_sizes", [300.0]),
                        ("sample_sizes", [300, False])):
        with pytest.raises(ValueError, match=f"{name} takes integers"):
            ExperimentConfig(experiment="scaling", **{name: value})
        path.write_text(json.dumps({"experiment": "scaling", name: value}))
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--config", str(path), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{name} takes integers" in err and "Traceback" not in err
        assert not out.exists()
    assert ExperimentConfig(experiment="scaling", trials=np.int64(2),
                            sample_sizes=(np.int64(300),)).trials == 2
    # Values that failed every row at run time (or, for output, the run) are
    # usage errors too: a sample size below 1, alpha outside (0, 1), an
    # output that is not a path and a realdata csv path that is not a path.
    for experiment, name, value, message in (
            ("scaling", "sample_sizes", [0], "sample_sizes must be >= 1"),
            ("scaling", "sample_sizes", [300, -1], "sample_sizes must be"),
            ("scaling", "alpha", 1.5, "alpha must lie in"),
            ("scaling", "alpha", 0.0, "alpha must lie in"),
            ("realdata", "alpha", math.nan, "alpha must lie in"),
            ("scaling", "output", 5, "output takes a path"),
            ("realdata", "csv", {"path": None}, "needs a csv path"),
            ("realdata", "csv", {"path": 3, "label_column": 3},
             "needs a csv path")):
        raw = {"experiment": experiment, name: value}
        if experiment == "stability":
            raw["sample_sizes"] = [50]
        assert_usage_error(tmp_path, capsys, raw, message)
    assert ExperimentConfig(experiment="scaling", output=out).output == out


@pytest.mark.parametrize("fraction", [0.0, -0.5, 1.0, 1.5, math.nan])
def test_realdata_test_fraction_outside_the_open_unit_interval(
        tmp_path, fraction, capsys):
    data = tmp_path / "data.csv"
    write_regression_csv(data, rows=50)
    path = tmp_path / "cfg.json"

    def write_config(value):
        # json.dumps writes nan as NaN, which json.load reads back.
        path.write_text(json.dumps({
            "experiment": "realdata", "trials": 1,
            "csv": {"path": str(data), "label_column": 3,
                    "test_fraction": value}}))

    write_config(fraction)
    with pytest.raises(ValueError, match="test_fraction"):
        load_config(path)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["realdata", "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "test_fraction" in err and "Traceback" not in err
    assert not out.exists()
    write_config(0.5)
    assert load_config(path).csv_source["test_fraction"] == 0.5


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_quantile_demo_sigma_must_be_finite_and_nonnegative(
        tmp_path, value, capsys):
    # A NaN sigma wrote four ok rows whose sigma_q was nan.
    raw = {"experiment": "quantile_demo", "quantile": {"sigma": value}}
    assert_usage_error(tmp_path, capsys, raw, "quantile sigma must be")


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
def test_realdata_range_hi_must_be_finite_and_positive(
        tmp_path, value, capsys):
    # An infinite range_hi returned q_hat = inf for every private cell.
    data = tmp_path / "data.csv"
    write_regression_csv(data, rows=50)
    raw = {"experiment": "realdata",
           "csv": {"path": str(data), "label_column": 3},
           "quantile": {"range_hi": value}}
    assert_usage_error(tmp_path, capsys, raw, "quantile range_hi must be")


@pytest.mark.parametrize("name, values", [
    ("epsilons", [0.5, 1.0, 0.5]), ("sample_sizes", [300, 300]),
    ("allocations", [0.5, 0.5]), ("methods", ["dpscp_f", "dpscp_f"])])
def test_repeated_grid_values_are_a_usage_error(tmp_path, name, values,
                                                capsys):
    # Each repeat ran the same grid cells again.
    raw = {"experiment": "scaling", name: values}
    assert_usage_error(tmp_path, capsys, raw, f"{name} repeats a value")


ALL_METHODS =("dpscp_f", "dpscp_a", "dp_split", "split_cp", "naive_full")


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_each_distinct_model_trains_once_per_trial(tmp_path, monkeypatch):
    # p * eps is 0.15, 0.25, 0.3 and 0.5: four distinct dpscp targets.
    cfg = tiny_scaling_config(
        tmp_path, methods=ALL_METHODS, epsilons=(0.5, 1.0),
        allocations=(0.3, 0.5),
        train={"model": "softmax_linear", "epochs": 2, "batch_size": 32,
               "learning_rate": 0.05, "clip_norm": 1.0})
    runs = []
    real = conformal.dp_sgd_train

    def train(*args, noise_multipliers, **kwargs):
        runs.append(len(noise_multipliers))
        return real(*args, noise_multipliers=noise_multipliers, **kwargs)

    monkeypatch.setattr(conformal, "dp_sgd_train", train)
    rows = run_experiment(cfg)
    # Per trial: one lockstep call on the full pool (4 dpscp_f/dpscp_a
    # models and naive_full) and one on the train half (2 dp_split and
    # split_cp): 2 calls carrying 8 runs.
    assert len(runs) == 2 * 2 and sum(runs) == 2 * 8
    monkeypatch.undo()
    assert sum(r["status"] == "ok" for r in rows) == 2 * 2 * 5 * 2
    # Oracle: the same cell in a sweep of its own, where no model is shared.
    for first in rows[::4]:
        cell = [r for r in rows if all(
            r[col] == first[col] for col in ("method", "epsilon", "p"))]
        alone = dataclasses.replace(
            cfg, epsilons=(float(first["epsilon"]),),
            allocations=(float(first["p"]),), methods=(first["method"],),
            output=None)
        assert cell == run_experiment(alone)

    results = (tmp_path / "results.csv").read_bytes()
    series = (tmp_path / "results_series.csv").read_bytes()
    assert run_experiment(cfg, jobs=2) == rows
    assert (tmp_path / "results.csv").read_bytes() == results
    assert (tmp_path / "results_series.csv").read_bytes() == series


# dp_split's search on a calibration half of 300 or 500 rows at epsilon 1
# warns that it can end only at the range's upper end.
@pytest.mark.filterwarnings("ignore:effective threshold")
def test_split_methods_train_on_the_half_the_plan_is_sized_for(monkeypatch):
    # The train stage splits the pool and the experiment sizes the training
    # plan; both take the train half from conformal.split_train_size. On an
    # odd pool, a plan sized for any other half would change the rate.
    calls = []
    real = conformal.dp_sgd_train

    def train(dataset, spec, config, *, rows, **kwargs):
        calls.append((len(rows), config.sampling_rate, config.steps))
        return real(dataset, spec, config, rows=rows, **kwargs)

    monkeypatch.setattr(conformal, "dp_sgd_train", train)
    epochs, batch = 2, 32
    cfg = tiny_scaling_config(
        trials=1, sample_sizes=(601, 1001), methods=("dp_split", "split_cp"),
        train={"model": "softmax_linear", "epochs": epochs,
               "batch_size": batch, "learning_rate": 0.05, "clip_norm": 1.0})
    rows = run_experiment(cfg)
    assert sum(r["status"] == "ok" for r in rows) == 2 * 2
    want = [(n // 2, *train_plan(n // 2, epochs, batch)) for n in (601, 1001)]
    assert sorted(set(calls)) == want


def test_infeasible_target_fails_alone_in_its_lockstep_task(tmp_path):
    # At epsilon 0.04 no sigma_sgd meets the dpscp or dp_split training
    # target; the (n, trial) task still trains each subset's other targets.
    cfg = tiny_scaling_config(
        tmp_path, methods=ALL_METHODS, epsilons=(0.04, 1.0),
        train={"model": "softmax_linear", "epochs": 2, "batch_size": 32,
               "learning_rate": 0.05, "clip_norm": 1.0})
    cells = experiments._grid(cfg)
    tasks = experiments._tasks(cfg, cells, cfg.trials)
    assert tasks == [(list(range(len(cells))), t) for t in range(2)]
    rows = run_experiment(cfg)
    status = {}
    for r in rows:
        if r["seed"]:
            status.setdefault((r["method"], r["epsilon"]), set()).add(
                r["status"])
    infeasible = {("dpscp_f", "0.04"), ("dpscp_a", "0.04"),
                  ("dp_split", "0.04")}
    assert {key for key, got in status.items()
            if got == {"failed:InfeasibleBudgetError"}} == infeasible
    assert all(got == {"ok"} for key, got in status.items()
               if key not in infeasible)
    # The ok cells are those of a sweep without the infeasible targets.
    feasible = [r for r in rows if (r["method"], r["epsilon"]) not in
                infeasible]
    alone = [
        *run_experiment(dataclasses.replace(
            cfg, epsilons=(0.04,), methods=("split_cp", "naive_full"),
            output=None)),
        *run_experiment(dataclasses.replace(cfg, epsilons=(1.0,),
                                            output=None))]
    assert feasible == alone


def test_a_subset_that_raises_fails_only_its_own_cells():
    # At n = 1 the split leaves an empty half, so split_cp's run_pipelines
    # call raises; naive_full, which trains on the same data cell's full
    # pool, still runs (its q_hat is inf), and dpscp_a fails alone on its
    # rank.
    cfg = tiny_scaling_config(
        sample_sizes=(1, 3), methods=("naive_full", "split_cp", "dpscp_a"),
        generator={"dim": 6, "classes": 3, "class_sep": 1.0, "flip_y": 0.01,
                   "test_size": 50},
        train={"model": "softmax_linear", "epochs": 1, "batch_size": 32,
               "learning_rate": 0.05, "clip_norm": 1.0})
    want = {"naive_full": ("ok", "inf"), "split_cp": ("failed:ValueError", ""),
            "dpscp_a": ("failed:RankOverflowError", "")}
    rows = [r for r in run_experiment(cfg) if r["seed"] and r["n"] == "1"]
    assert len(rows) == 3 * cfg.trials
    for r in rows:
        assert (r["status"], r["q_hat"]) == want[r["method"]]


@pytest.mark.parametrize("methods", [
    ("split_cp", "dpscp_a", "dp_split", "naive_full", "dpscp_f"),
    ALL_METHODS[::-1],
    ("split_cp", "dp_split"),
], ids=["split_first", "reversed", "one_subset"])
def test_tasks_follow_the_methods_subset_in_any_order(methods):
    # Each (cell, trial) runs in exactly one task, a task holds every cell of
    # one n (both training subsets' cells, in any method order), there is
    # one task per (n, trial), and tasks come in the order of their first
    # output row.
    cfg = tiny_scaling_config(methods=methods, sample_sizes=(300, 601),
                              allocations=(0.3, 0.5))
    cells = experiments._grid(cfg)
    tasks = experiments._tasks(cfg, cells, cfg.trials)
    assert sorted((i, t) for members, t in tasks for i in members) == [
        (i, t) for i in range(len(cells)) for t in range(cfg.trials)]
    for members, _ in tasks:
        assert members == [i for i, cell in enumerate(cells)
                           if cell["n"] == cells[members[0]]["n"]]
        assert ({cells[i]["method"] in SPLIT_METHODS for i in members}
                == {m in SPLIT_METHODS for m in methods})
    assert len(tasks) == 2 * cfg.trials
    first_rows = [members[0] * cfg.trials + t for members, t in tasks]
    assert first_rows == sorted(first_rows)


def test_a_subset_trains_in_one_lockstep_task_at_any_batch_size(
        tmp_path, monkeypatch):
    # Batch 2048 (full-batch steps on 600 rows): per trial, one task trains
    # the full pool's 4 dpscp targets and naive_full in one lockstep call,
    # and the train half's 3 targets in another.
    cfg = tiny_scaling_config(
        tmp_path, methods=ALL_METHODS, epsilons=(0.5, 1.0),
        allocations=(0.3, 0.5),
        train={"model": "softmax_linear", "epochs": 8, "batch_size": 2048,
               "learning_rate": 0.05, "clip_norm": 1.0})
    cells = experiments._grid(cfg)
    tasks = experiments._tasks(cfg, cells, cfg.trials)
    assert tasks == [(list(range(len(cells))), t) for t in range(2)]
    runs = []
    real = conformal.dp_sgd_train

    def train(*args, noise_multipliers, **kwargs):
        runs.append(len(noise_multipliers))
        return real(*args, noise_multipliers=noise_multipliers, **kwargs)

    monkeypatch.setattr(conformal, "dp_sgd_train", train)
    rows = run_experiment(cfg)
    monkeypatch.undo()
    assert sorted(runs) == [3, 3, 5, 5]
    assert sum(r["status"] == "ok" for r in rows) == 2 * 2 * 5 * 2
    results = (tmp_path / "results.csv").read_bytes()
    series = (tmp_path / "results_series.csv").read_bytes()
    assert run_experiment(cfg, jobs=2) == rows
    assert (tmp_path / "results.csv").read_bytes() == results
    assert (tmp_path / "results_series.csv").read_bytes() == series
    # Oracle: each cell in a sweep of its own.
    for first in rows[::4]:
        alone = dataclasses.replace(
            cfg, epsilons=(float(first["epsilon"]),),
            allocations=(float(first["p"]),), methods=(first["method"],),
            output=None)
        assert [r for r in rows if all(
            r[col] == first[col] for col in ("method", "epsilon", "p"))
        ] == run_experiment(alone)


def test_failed_finish_leaves_the_cell_sharing_its_model_ok(tmp_path):
    # A buffer of 10**6 overflows the rank of dpscp_f only; dpscp_a, which
    # shares its model, ignores the buffer.
    cfg = tiny_scaling_config(methods=("dpscp_f", "dpscp_a"),
                              quantile={"buffer": 10**6})
    rows = run_experiment(cfg)
    assert [r["status"] for r in rows if r["method"] == "dpscp_f"] == [
        "failed:RankOverflowError"] * 2 + ["aggregate"] * 2
    alone = run_experiment(dataclasses.replace(cfg, methods=("dpscp_a",)))
    assert [r for r in rows if r["method"] == "dpscp_a"] == alone
    assert alone[0]["status"] == "ok"


def test_realdata_csv_parsed_once_per_file_version(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    write_regression_csv(path, rows=300, seed=1)
    cfg = ExperimentConfig(
        experiment="realdata", trials=2, seed=4, epsilons=(1.0, 2.0),
        allocations=(0.5,), methods=("dpscp_a", "split_cp"),
        csv_source={"path": str(path), "label_column": 3, "task": "regression"},
        train={"model": "linear_regression", "epochs": 2, "batch_size": 32,
               "learning_rate": 0.05, "clip_norm": 1.0},
    )
    loads = counting(monkeypatch, experiments, "load_csv")
    first = run_experiment(cfg)
    assert len(loads) == 1
    assert run_experiment(cfg) == first
    assert len(loads) == 1

    # Rewritten in place: the next run must read the new rows.
    write_regression_csv(path, rows=360, seed=2)
    second = run_experiment(cfg)
    assert len(loads) == 2
    fresh = tmp_path / "fresh.csv"
    write_regression_csv(fresh, rows=360, seed=2)
    expected = run_experiment(dataclasses.replace(
        cfg, csv_source={**cfg.csv_source, "path": str(fresh)}))
    assert second == expected
    assert second != first

    # A file that fails to parse fails every trial the same way.
    path.write_text("f0,f1,f2,target\n1,2,x,4\n")
    rows = run_experiment(cfg)
    assert {r["status"] for r in rows if r["seed"]} == {
        "failed:CsvParseError"}


@pytest.mark.filterwarnings("ignore:effective threshold")
@pytest.mark.parametrize("model, task", [
    ("linear_regression", "classification"),
    ("softmax_linear", "regression"),
])
def test_a_head_that_cannot_serve_the_task_fails_before_training(
        tmp_path, monkeypatch, model, task):
    # The head is checked before any training: every trial row fails with a
    # ValueError, and no training subset is trained.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((300, 3))
    labels = (x[:, 0] > 0).astype(int) + (x[:, 1] > 1).astype(int)
    path = tmp_path / "classes.csv"
    np.savetxt(path, np.column_stack([x, labels]), delimiter=",",
               fmt="%.6f", header="f0,f1,f2,label", comments="")
    cfg = ExperimentConfig(
        experiment="realdata", trials=2, seed=5, epsilons=(1.0,),
        allocations=(0.5,), methods=("dpscp_f", "dp_split", "split_cp"),
        csv_source={"path": str(path), "label_column": 3, "task": task},
        train={"model": model, "epochs": 2, "batch_size": 32,
               "learning_rate": 0.05, "clip_norm": 1.0},
    )
    trains = counting(monkeypatch, conformal, "dp_sgd_train")
    rows = run_experiment(cfg)
    assert not trains
    assert [(r["method"], r["trial"], r["status"]) for r in rows] == [
        (method, trial, status) for method in cfg.methods
        for trial, status in (("0", "failed:ValueError"),
                              ("1", "failed:ValueError"),
                              ("mean", "aggregate"), ("sd", "aggregate"))]
    # The data are sound: an mlp, whose head follows the task, trains both
    # subsets of both trials and scores them.
    served = dataclasses.replace(cfg, train={**cfg.train, "model": "mlp"})
    assert {r["status"] for r in run_experiment(served) if r["seed"]} == {
        "ok"}
    assert len(trains) == 2 * 2


def test_jobs_below_one_rejected(tmp_path, capsys):
    cfg = tiny_scaling_config(trials=1)
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(cfg, jobs=jobs)
        with pytest.raises(SystemExit) as exc:
            main(["quantile-demo", "--jobs", str(jobs),
                  "--out", str(tmp_path / "demo.csv")])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "demo.csv").exists()


def test_calibrate_queries_below_one_rejected(capsys):
    for queries in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--epsilon", "1.0", "--queries", queries])
        assert exc.value.code == 2
        assert "--queries" in capsys.readouterr().err


def test_each_scaling_data_cell_built_once_per_process(monkeypatch):
    cfg = tiny_scaling_config(
        methods=("dpscp_f", "dpscp_a", "dp_split"), epsilons=(0.5, 1.0),
        sample_sizes=(300, 600), allocations=(0.3, 0.5),
        train={"model": "softmax_linear", "epochs": 2, "batch_size": 32,
               "learning_rate": 0.05, "clip_norm": 1.0})
    calls = counting(monkeypatch, experiments, "gen_multiclass")
    rows = run_experiment(cfg)
    # One generation per (n, trial): 2 sizes x 2 trials.
    assert len(calls) == 4
    assert sum(r["status"] == "ok" for r in rows) == 3 * 2 * 2 * 2 * 2
    # Oracle: each cell in a sweep of its own, from freshly generated data.
    for first in rows[::4]:
        alone = dataclasses.replace(
            cfg, epsilons=(float(first["epsilon"]),),
            sample_sizes=(int(first["n"]),), allocations=(float(first["p"]),),
            methods=(first["method"],))
        assert [r for r in rows if all(
            r[col] == first[col] for col in ("method", "epsilon", "n", "p"))
        ] == run_experiment(alone)
    # 24 one-cell sweeps of 2 trials each generated their own data.
    assert len(calls) == 4 + 24 * 2


@pytest.mark.parametrize("args, message", [
    (["--sgd-steps", "-5"], "--sgd-steps"),
    (["--sgd-rate", "2", "--sgd-steps", "5"], "--sgd-rate"),
    (["--delta", "0"], "--delta"),
    (["--allocation", "1.5"], "--allocation"),
    (["--epsilon", "-1"], "--epsilon"),
    # Each reads as inf, which calibrated sigma_q against an infinite target.
    (["--epsilon", "inf"], "--epsilon"),
    (["--epsilon", "1e400"], "--epsilon"),
    (["--sgd-sigma", "-1", "--sgd-steps", "3"], "--sgd-sigma"),
    (["--sgd-sigma", "0", "--sgd-steps", "3"], "no feasible sigma_q"),
    # 2 sigma^2 underflows: training spends eps = inf, as at sigma = 0.
    (["--sgd-sigma", "1e-160", "--sgd-steps", "3"], "eps=inf"),
    (["--sgd-sigma", "1e-200", "--sgd-steps", "3"], "eps=inf"),
])
def test_calibrate_bad_arguments_are_usage_errors(args, message, capsys):
    epsilon = [] if "--epsilon" in args else ["--epsilon", "1.0"]
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", *epsilon, *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_invalid_budget_is_a_usage_error(tmp_path, capsys):
    # Every cell's budget passes BudgetSpec's checks when the config is read:
    # a NaN or non-positive epsilon, or a delta or p outside (0, 1), which
    # failed its cells at run time (exit 1), is a usage error (exit 2) that
    # writes no CSV. An infeasible epsilon still fails its cell alone
    # (test_infeasible_target_fails_alone_in_its_lockstep_task).
    data = tmp_path / "data.csv"
    write_regression_csv(data, rows=50)
    for experiment, name, value, message in (
            ("scaling", "epsilons", [math.nan, 1.0], "epsilon_target"),
            ("scaling", "epsilons", [1.0, 0.0], "epsilon_target"),
            ("realdata", "epsilons", [-1.0], "epsilon_target"),
            ("stability", "epsilons", [0.5, math.nan], "epsilon_target"),
            ("scaling", "delta", 1.0, "delta_target"),
            ("stability", "delta", 0.0, "delta_target"),
            ("scaling", "allocations", [0.5, 1.0], "allocation_p"),
            ("realdata", "allocations", [math.nan], "allocation_p"),
            # JSON's Infinity and 1e400 both read as inf, true ran as 1, and
            # a 401-digit integer failed every row with an OverflowError.
            ("scaling", "epsilons", [1.0, math.inf], "epsilon_target"),
            ("stability", "epsilons", [math.inf], "epsilon_target"),
            ("realdata", "epsilons", [True], "epsilon_target"),
            ("scaling", "epsilons", [10 ** 400], "epsilon_target")):
        raw = {"experiment": experiment, name: value}
        if experiment == "stability":
            raw["sample_sizes"] = [50]
        if experiment == "realdata":
            raw["csv"] = {"path": str(data), "label_column": 3}
        assert_usage_error(tmp_path, capsys, raw, message)


def test_calibrate_with_an_overflowing_sgd_sigma_runs(capsys):
    # sigma^2 overflows: training spends what a large finite sigma spends.
    assert main(["calibrate", "--epsilon", "1", "--sgd-sigma", "1e200",
                 "--sgd-steps", "3"]) == 0
    assert "eps_train = 0.0451487\n" in capsys.readouterr().out


def test_calibrate_without_training_spends_nothing(capsys):
    assert main(["calibrate", "--epsilon", "1"]) == 0
    assert "eps_train = 0\n" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ('{"experiment": "quantile_demo", "quantile": {"sigmaa": 100.0}}',
     "sigmaa"),
    ('{"experiment": "quantile_demo", "seed": -1}', "seed"),
    ('{"experiment": "quantile_demo", "colour": "red"}', "colour"),
    ('{"experiment": "quantile_demo", ', "Expecting"),
    ('{"experiment": "scaling"}', "'scaling', not 'quantile_demo'"),
    (None, "No such file"),
], ids=["nested_key", "seed", "top_level_key", "malformed", "experiment",
        "missing_file"])
def test_bad_config_file_is_a_usage_error(tmp_path, text, message, capsys):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["quantile-demo", "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_realdata_without_a_csv_path_is_a_usage_error(tmp_path, capsys):
    # Every trial would fail reading the missing path; the config is
    # rejected before any trial runs.
    with pytest.raises(ValueError, match="csv path"):
        ExperimentConfig(experiment="realdata",
                         csv_source={"task": "regression"})
    path = tmp_path / "config.json"
    path.write_text('{"experiment": "realdata", "trials": 1}')
    out = tmp_path / "out.csv"
    for argv in (["realdata", "--config", str(path), "--out", str(out)],
                 ["realdata", "--trials", "1", "--out", str(out)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "csv path" in err and "Traceback" not in err
        assert not out.exists()


def _preset(command, paper_scale=False):
    args = argparse.Namespace(command=command, config=None, out=None,
                              seed=None, trials=None, paper_scale=paper_scale)
    return cli._build_config(args, argparse.ArgumentParser())


def _runs_with(config):
    """The grids of the config and every value of its resolved sections."""
    flat = {name: getattr(config, name) for name in
            ("trials", "epsilons", "sample_sizes", "allocations", "methods")}
    for name in experiments.EXPERIMENTS[config.experiment].sections:
        for key, value in experiments._section(config, name).items():
            flat[f"{name}.{key}"] = (tuple(value) if isinstance(value, list)
                                     else value)
    return flat


_GENERATOR = {"generator.dim": 10, "generator.classes": 5,
              "generator.class_sep": 0.6, "generator.flip_y": 0.01,
              "generator.test_size": 2000}
_QUANTILE = {"quantile.steps": 20, "quantile.beta": 0.05,
             "quantile.buffer": 10}


def _mlp(hidden, batch_size, learning_rate):
    return {"train.model": "mlp", "train.hidden": hidden,
            "train.epochs": 50, "train.batch_size": batch_size,
            "train.learning_rate": learning_rate, "train.clip_norm": 1.0}


def _stability(trials):
    return {"trials": trials, "epsilons": (0.5, 1.0, 2.0),
            "sample_sizes": (1000,), "generator.dim": 10,
            "train.rate": 0.02, "train.steps": 100,
            "train.learning_rate": 1e-3, "train.clip_norm": 1.0,
            "train.projection_radius": None}


@pytest.mark.parametrize("build, expected", [
    (lambda: _preset("scaling"),
     {"trials": 10, "epsilons": (0.5, 1.0), "sample_sizes": (2500, 5000),
      "allocations": (0.5,), "methods": ALL_METHODS, **_GENERATOR,
      **_mlp((16, 16), 32, 1e-2), **_QUANTILE}),
    (lambda: _preset("scaling", paper_scale=True),
     {"trials": 30, "epsilons": (0.5, 1.0, 2.0),
      "sample_sizes": (10000, 15000, 20000, 25000, 30000),
      "allocations": (0.5,), "methods": ALL_METHODS, **_GENERATOR,
      **_mlp((16, 16), 32, 1e-3), **_QUANTILE}),
    (lambda: _preset("stability"), _stability(10)),
    (lambda: _preset("stability", paper_scale=True), _stability(30)),
    (lambda: _preset("quantile-demo"),
     {"quantile.steps": 20, "quantile.beta": 0.05, "quantile.sigma": 3.0}),
    # realdata has no preset (a run without a CSV path is a usage error), so
    # its defaults are checked here with a path.
    (lambda: ExperimentConfig("realdata", csv_source={"path": "table.csv"}),
     {"trials": 10, "epsilons": (0.5, 1.0), "allocations": (0.5,),
      "methods": ("dpscp_f", "dpscp_a", "dp_split"),
      **_mlp((16, 16), 32, 1e-3), **_QUANTILE, "quantile.range_hi": 10.0,
      "csv.label_column": 0, "csv.task": "regression",
      "csv.has_header": True, "csv.test_fraction": 0.2}),
], ids=["scaling", "scaling-paper", "stability", "stability-paper",
        "quantile-demo", "realdata"])
def test_cli_presets_run_with_the_protocol_values(build, expected):
    got = _runs_with(build())
    assert {key: got[key] for key in expected} == expected


def _spy_on_open(monkeypatch):
    """Every file that experiments opens, in order."""
    opened = []

    def spy_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(experiments, "open", spy_open, raising=False)
    return opened


def test_paper_scale_with_a_config_file_is_a_usage_error(tmp_path, capsys):
    # The presets would replace the file's train section and grids. The
    # config is built, not run: a paper-scale sweep takes many minutes.
    path = tmp_path / "config.json"
    path.write_text('{"experiment": "scaling", "trials": 1}')
    args = argparse.Namespace(command="scaling", config=str(path), out=None,
                              seed=None, trials=None, paper_scale=True)
    with pytest.raises(SystemExit) as exc:
        cli._build_config(args, argparse.ArgumentParser())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--paper-scale cannot be combined with --config" in err
    assert "Traceback" not in err


_CELLS_COLUMNS = ("experiment", "trial", "cell")


def _cells_text(row, cells):
    """Formatter of the test sidecar "cells": one chunk, one line, per
    payload item."""
    return (f"{row['experiment']},{row['trial']},{cell}\r\n" for cell in cells)


def _add_cells_sidecar(monkeypatch):
    """A second sidecar, "cells", to which each stability trial row sends
    its epsilon and status; no other experiment writes to it."""
    monkeypatch.setitem(experiments._SIDECARS, "cells",
                        (_CELLS_COLUMNS, _cells_text))
    spec = experiments.EXPERIMENTS["stability"]

    def runner(config, rows):
        return [(row, {**payloads,
                       "cells": [f"{row['epsilon']}/{row['status']}"]})
                for row, payloads in spec.runner(config, rows)]

    monkeypatch.setitem(experiments.EXPERIMENTS, "stability",
                        spec._replace(runner=runner))


def test_a_second_sidecar_writes_its_rows_in_cell_trial_order(tmp_path,
                                                              monkeypatch):
    cfg = tiny_stability_config(tmp_path, trials=3)
    rows = run_experiment(cfg)
    written = {name: (tmp_path / name).read_bytes()
               for name in ("results.csv", "results_series.csv")}
    _add_cells_sidecar(monkeypatch)
    want = ("experiment,trial,cell\r\n" + "".join(
        f"stability,{t},{eps}/ok\r\n"
        for eps in cfg.epsilons for t in range(cfg.trials))).encode()
    for jobs in (1, 2):
        assert run_experiment(cfg, jobs=jobs) == rows
        assert (tmp_path / "results_cells.csv").read_bytes() == want
        # The results and series files do not change with it.
        assert all((tmp_path / name).read_bytes() == text
                   for name, text in written.items())
    # A run whose trials send it nothing writes its header alone.
    run_experiment(ExperimentConfig(experiment="quantile_demo",
                                    output=str(tmp_path / "demo.csv")))
    assert (tmp_path / "demo_cells.csv").read_bytes() == (
        b"experiment,trial,cell\r\n")
    assert len(read_rows(tmp_path / "demo_series.csv")) > 0


def test_result_files_closed_when_the_sweep_raises(tmp_path, monkeypatch):
    def broken_trial(*args):
        raise RuntimeError("worker lost")

    opened = _spy_on_open(monkeypatch)
    monkeypatch.setattr(experiments, "_safe_trial", broken_trial)
    _add_cells_sidecar(monkeypatch)
    config = ExperimentConfig(experiment="quantile_demo",
                              output=str(tmp_path / "demo.csv"))
    with pytest.raises(RuntimeError, match="worker lost"):
        run_experiment(config)
    assert [Path(fh.name).name for fh in opened] == [
        "demo.csv", "demo_series.csv", "demo_cells.csv"]
    assert all(fh.closed for fh in opened)


def test_a_failed_open_closes_the_files_opened_before_it(tmp_path,
                                                         monkeypatch):
    _add_cells_sidecar(monkeypatch)
    config = ExperimentConfig(experiment="quantile_demo",
                              output=str(tmp_path / "demo.csv"))
    for blocked, before in (("demo_series.csv", ["demo.csv"]),
                            ("demo_cells.csv",
                             ["demo.csv", "demo_series.csv"])):
        opened = _spy_on_open(monkeypatch)
        (tmp_path / blocked).mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            run_experiment(config)
        # exc holds the traceback, and every frame on it, here.
        assert exc.value.filename == str(tmp_path / blocked)
        assert [Path(fh.name).name for fh in opened] == before
        assert all(fh.closed for fh in opened)
        (tmp_path / blocked).rmdir()


class _InProcessPool:
    """A stand-in for ProcessPoolExecutor that records its size and runs
    the tasks in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("make, jobs, workers", [
    # Four tasks: one per fixture and search variant.
    (lambda: ExperimentConfig(experiment="quantile_demo"), 6, [4]),
    (lambda: ExperimentConfig(experiment="quantile_demo"), 2, [2]),
    # One stability task per trial: one task runs in this process.
    (lambda: tiny_stability_config(trials=1), 3, []),
    (lambda: tiny_stability_config(trials=2), 3, [2]),
], ids=["demo-6", "demo-2", "stability-1-trial", "stability-2-trials"])
def test_jobs_start_at_most_one_worker_per_task(make, jobs, workers,
                                                monkeypatch):
    import concurrent.futures
    config = make()
    rows = run_experiment(config)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool)
    assert run_experiment(config, jobs=jobs) == rows
    assert _InProcessPool.sizes == workers


def _series_oracle(trials):
    """What a csv.writer writes for the series of (experiment, trial,
    blocks) trials, each cell formatted by _fmt."""
    want = io.StringIO()
    writer = csv.writer(want)
    for experiment, trial, trial_blocks in trials:
        for metrics, steps, values in trial_blocks:
            for step, row in zip(steps, values):
                for metric, value in zip(metrics, row):
                    writer.writerow([experiments._fmt(cell) for cell in
                                     (experiment, trial, step, metric,
                                      value)])
    return want.getvalue()


def test_series_writer_writes_what_csv_writer_writes(tmp_path, monkeypatch):
    # The oracle is a csv.writer over the same rows, formatted by _fmt.
    blocks = [
        experiments._SeriesBlock(
            ('gap/eps=0.5', 'quote "me", twice\nplease'), range(4),
            np.array([[math.nan, math.inf], [-math.inf, -0.0],
                      [1e-300, 0.1 + 0.2], [3.0, -2.5e17]])),
        experiments._SeriesBlock(
            ("mixed",), [0, np.int64(7)],
            [(np.float64(0.25),), (np.int64(3),)]),
        experiments._SeriesBlock(("count", "moved"), (5,), [(2, 1.0)]),
    ]
    trials = (("stab,ility", 3, blocks), ("stability", 4, blocks[1:]))
    got = "".join("".join(experiments._series_chunks(
        {"experiment": experiment, "trial": trial}, trial_blocks))
        for experiment, trial, trial_blocks in trials)
    assert got == _series_oracle(trials)
    assert '"quote ""me"", twice\nplease"' in got and "-0.0" in got
    assert "mixed,3\r\n" in got

    # Result rows go through the same quoting: a comma, a quote or a newline
    # in status or p, the aggregate rows' p among them.
    spec = experiments.EXPERIMENTS["quantile_demo"]

    def runner(config, rows):
        return [({**row, "p": f'{row["p"]}, "{i}"', "status": f"ok\n{i},"},
                 payloads)
                for i, (row, payloads) in enumerate(spec.runner(config, rows))]

    monkeypatch.setitem(experiments.EXPERIMENTS, "quantile_demo",
                        spec._replace(runner=runner))
    rows = run_experiment(ExperimentConfig(
        experiment="quantile_demo", output=str(tmp_path / "demo.csv")))
    want = io.StringIO()
    csv.writer(want).writerows([RESULT_COLUMNS, *(
        [row[col] for col in RESULT_COLUMNS] for row in rows)])
    got = (tmp_path / "demo.csv").read_bytes().decode()
    assert got == want.getvalue()
    assert '"tie_jump, ""0""",0,' in got and '"ok\n0,"\r\n' in got


def tiny_stability_config(tmp_path=None, **kw):
    base = dict(
        experiment="stability", trials=2, seed=3, epsilons=(0.5, 1.0, 2.0),
        sample_sizes=(200,), generator={"dim": 5},
        train={"rate": 0.05, "steps": 40, "learning_rate": 0.05,
               "clip_norm": 1.0},
    )
    if tmp_path is not None:
        base["output"] = str(tmp_path / "results.csv")
    base.update(kw)
    return ExperimentConfig(**base)


def cell_series(series_rows, epsilon):
    return [r for r in series_rows if r["metric"].endswith(f"={epsilon:g}")]


def test_stability_trial_trains_its_cells_in_one_lockstep_call(
        tmp_path, monkeypatch):
    cfg = tiny_stability_config(tmp_path)
    coupled = counting(monkeypatch, experiments, "coupled_train")
    gens = counting(monkeypatch, experiments, "gen_logistic")
    rows = run_experiment(cfg)
    # One data draw and one lockstep run per trial, for all three cells.
    assert len(coupled) == 2 and len(gens) == 2
    monkeypatch.undo()
    assert sum(r["status"] == "ok" for r in rows) == 3 * 2
    series = read_rows(tmp_path / "results_series.csv")
    assert any(float(r["value"]) > 0 for r in series
               if r["metric"].startswith("gap/"))
    # Oracle: each cell in a sweep of its own.
    for epsilon in cfg.epsilons:
        alone = run_experiment(dataclasses.replace(
            cfg, epsilons=(epsilon,), output=str(tmp_path / "alone.csv")))
        assert [r for r in rows if r["epsilon"] == repr(epsilon)] == alone
        assert cell_series(series, epsilon) == read_rows(
            tmp_path / "alone_series.csv")

    results = (tmp_path / "results.csv").read_bytes()
    series_bytes = (tmp_path / "results_series.csv").read_bytes()
    assert run_experiment(cfg, jobs=2) == rows
    assert (tmp_path / "results.csv").read_bytes() == results
    assert (tmp_path / "results_series.csv").read_bytes() == series_bytes


def test_stability_cell_failures_stay_in_their_cell(tmp_path, monkeypatch):
    # The calibrations of epsilon 0.25 and 4 fail, as an infeasible target
    # fails; the 1e308 noise multiplier, handed to the epsilon = 2 cell,
    # overflows its run. The other cells run as if alone.
    cfg = tiny_stability_config(tmp_path,
                                epsilons=(0.5, 0.25, 4.0, 1.0, 2.0))
    real = experiments.calibrate_sigma_sgd

    def calibrate(rate, steps, epsilon, delta):
        if epsilon in (0.25, 4.0):
            raise InfeasibleBudgetError(f"no sigma meets epsilon {epsilon}")
        return 1e308 if epsilon == 2.0 else real(rate, steps, epsilon, delta)

    monkeypatch.setattr(experiments, "calibrate_sigma_sgd", calibrate)
    rows = run_experiment(cfg)
    series = read_rows(tmp_path / "results_series.csv")
    monkeypatch.undo()
    status = {}
    for r in rows:
        if r["seed"]:
            status.setdefault(r["epsilon"], []).append(r["status"])
    assert (status["0.25"] == status["4.0"]
            == ["failed:InfeasibleBudgetError"] * 2)
    assert status["2.0"] == ["failed:NumericFailureError"] * 2
    assert cell_series(series, 2.0) == []
    ok = run_experiment(dataclasses.replace(
        cfg, epsilons=(0.5, 1.0), output=str(tmp_path / "ok.csv")))
    assert [r for r in rows if r["epsilon"] in ("0.5", "1.0")] == ok
    assert cell_series(series, 0.5) + cell_series(series, 1.0) == read_rows(
        tmp_path / "ok_series.csv")


@pytest.mark.parametrize("radius", [None, 1e200],
                         ids=["no_projection", "projection"])
def test_stability_norm_overflow_fails_the_cell(tmp_path, radius):
    # At learning rate 1e306 every iterate stays finite while its norm
    # overflows; unprojected, the error norm is inf, and projected, the
    # overflowing norm would scale the iterate onto 0 at every step.
    train = {"rate": 0.05, "steps": 40, "learning_rate": 1e306,
             "clip_norm": 1.0}
    if radius is not None:
        train["projection_radius"] = radius
    rows = run_experiment(tiny_stability_config(tmp_path, train=train))
    trial_rows = [r for r in rows if r["seed"]]
    assert len(trial_rows) == 3 * 2
    assert all(r["status"] == "failed:NumericFailureError"
               for r in trial_rows)
    assert read_rows(tmp_path / "results_series.csv") == []


def test_calibrate_sigma_q_computes_each_distinct_input_once(monkeypatch):
    from dpconformal import accounting
    cfg = tiny_scaling_config(methods=("dpscp_f", "dpscp_a", "dp_split"),
                              allocations=(0.3, 0.5))
    searches = []
    real = accounting._min_sigma_satisfying

    def spy(eps_of_sigma, eps_target, rel_tol, what):
        if what == "calibration noise sigma_q":
            searches.append(eps_target)
        return real(eps_of_sigma, eps_target, rel_tol, what)

    monkeypatch.setattr(accounting, "_min_sigma_satisfying", spy)
    accounting._calibrate_sigma_q.cache_clear()
    calls = counting(monkeypatch, conformal, "calibrate_sigma_q")
    rows = run_experiment(cfg)
    # 3 methods x 2 p x 2 trials ask; the trials share their training
    # profiles, dpscp_f and dpscp_a share one per p, and dp_split's empty
    # profile does not depend on p: 3 distinct inputs.
    assert len(calls) == 12 and len(searches) == 3
    assert sum(r["status"] == "ok" for r in rows) == 12

    def uncached(profile, queries, budget, rel_tol=1e-3):
        return accounting._calibrate_sigma_q.__wrapped__(
            profile, queries, budget.epsilon_target, budget.delta_target,
            rel_tol)

    monkeypatch.setattr(conformal, "calibrate_sigma_q", uncached)
    del searches[:]
    assert run_experiment(cfg) == rows
    assert len(searches) == 12


def counting_to_file(monkeypatch, module, name, path):
    """Replace module.name by a wrapper that appends a line to ``path`` per
    call, which forked pool workers share; returns the call counter."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write("call\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return lambda: len(path.read_text().splitlines()) if path.exists() else 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_data_cell_built_once_per_trial_at_any_jobs(tmp_path, monkeypatch,
                                                         jobs):
    # 33 trials: one past the 32 data cells that a memo once kept, and a
    # data cell's two training subsets in one task, so no worker count
    # builds a cell twice.
    trials = 33
    train = {"model": "softmax_linear", "epochs": 1, "batch_size": 32,
             "learning_rate": 0.05, "clip_norm": 1.0}
    cfg = tiny_scaling_config(
        trials=trials, sample_sizes=(60, 90), methods=("naive_full",
                                                       "split_cp"),
        generator={"dim": 6, "classes": 3, "class_sep": 1.0, "flip_y": 0.01,
                   "test_size": 30}, train=train)
    generated = counting_to_file(monkeypatch, experiments, "gen_multiclass",
                                 tmp_path / "gen.txt")
    rows = run_experiment(cfg, jobs=jobs)
    assert sum(r["status"] == "ok" for r in rows) == 2 * 2 * trials
    assert generated() == len(cfg.sample_sizes) * trials

    path = tmp_path / "data.csv"
    write_regression_csv(path, rows=100, seed=5)
    cfg = ExperimentConfig(
        experiment="realdata", trials=trials, epsilons=(1.0,),
        methods=("naive_full", "split_cp"),
        csv_source={"path": str(path), "label_column": 3}, train={
            **train, "model": "linear_regression"})
    fits = counting_to_file(monkeypatch, experiments, "fit_standardizer",
                            tmp_path / "fits.txt")
    rows = run_experiment(cfg, jobs=jobs)
    assert sum(r["status"] == "ok" for r in rows) == 2 * trials
    assert fits() == trials


def test_realdata_split_standardized_once_per_trial(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    write_regression_csv(path, rows=300, seed=5)
    cfg = ExperimentConfig(
        experiment="realdata", trials=2, seed=9, epsilons=(1.0, 2.0),
        allocations=(0.5,), methods=ALL_METHODS,
        csv_source={"path": str(path), "label_column": 3, "task": "regression"},
        train={"model": "linear_regression", "epochs": 2, "batch_size": 32,
               "learning_rate": 0.05, "clip_norm": 1.0},
    )
    fits = counting(monkeypatch, experiments, "fit_standardizer")
    rows = run_experiment(cfg)
    # Two training subsets per trial, one split and fit per trial.
    assert len(fits) == 2
    assert sum(r["status"] == "ok" for r in rows) == 2 * 5 * 2
    assert run_experiment(cfg) == rows
    assert len(fits) == 2 * 2

    # Every trial of the process reads the memoized CSV: none may write.
    full = experiments._parsed_csv(
        *experiments._csv_key(experiments._section(cfg, "csv")))
    for array in (full.features, full.labels):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("steps", [256, 257, 513])
def test_series_chunks_hold_at_most_chunk_steps(steps):
    # A float array (a stability trace) and a nested sequence of ints and
    # floats (a quantile-demo trace) that cross one or two chunk ends.
    rng = np.random.default_rng(steps)
    floats = rng.standard_normal((steps, 2)) * 10.0 ** rng.integers(
        -300, 300, (steps, 2))
    mixed = [(int(k), float(v)) for k, v in zip(
        rng.integers(-10**9, 10**9, steps), rng.standard_normal(steps))]
    trials = [("stability", 2, [
        experiments._SeriesBlock(("gap/eps=0.5", 'q,"x"'), range(steps),
                                 floats),
        experiments._SeriesBlock(("count", "mid"), list(range(5, 5 + steps)),
                                 mixed)])]
    chunks = list(experiments._series_chunks(
        {"experiment": "stability", "trial": 2}, trials[0][2]))
    assert "".join(chunks) == _series_oracle(trials)
    assert experiments._CHUNK_STEPS == 256
    # Each block's chunks cut it every 256 steps of 2 lines each.
    full, rest = divmod(steps, 256)
    want = ([512] * full + [2 * rest] * (rest > 0)) * 2
    assert [chunk.count("\r\n") for chunk in chunks] == want


def test_series_chunks_format_a_long_block_in_bounded_memory():
    # The text of 100,001 steps is about 9.7 MB; a chunk is 256 of them.
    steps = 100_001
    block = experiments._SeriesBlock(
        ("gap/eps=0.5", "error/eps=0.5"), range(steps),
        np.random.default_rng(5).standard_normal((steps, 2)))
    row = {"experiment": "stability", "trial": 0}
    want = [len(chunk) for chunk in experiments._series_chunks(row, [block])]
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        got = [len(chunk)
               for chunk in experiments._series_chunks(row, [block])]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want and len(got) == math.ceil(steps / 256)
    assert sum(got) > 9_000_000
    assert peak - entry < 1_000_000
