"""tools/gate_runs.py's list of runs, checked without running any: each
hand-written config must load, every config must be run, and no two runs
may write the same file."""

import importlib.util
from collections import Counter
from pathlib import Path

from dpconformal.experiments import _SIDECARS, load_config

_spec = importlib.util.spec_from_file_location(
    "gate_runs", Path(__file__).resolve().parents[1] / "tools" / "gate_runs.py")
gate_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate_runs)


def test_each_config_loads_for_the_subcommand_that_runs_it(tmp_path):
    gate_runs.write_configs(tmp_path)
    for run in gate_runs.RUNS:
        if run.config in gate_runs.CONFIGS:
            config = load_config(gate_runs.config_path(tmp_path, run.config))
            assert config.experiment == run.command.replace("-", "_"), run


def test_every_config_is_run():
    run = {r.config for r in gate_runs.RUNS}
    assert set(gate_runs.CONFIGS) | set(gate_runs.WORKLOADS) <= run
    assert not set(gate_runs.CONFIGS) & set(gate_runs.WORKLOADS)


def test_no_two_runs_write_the_same_file():
    files = Counter(f"{r.name}{suffix}.csv" for r in gate_runs.RUNS
                    for suffix in ("", *(f"_{name}" for name in _SIDECARS)))
    assert [f for f, count in files.items() if count > 1] == []
