"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

It checks that every metric BENCHMARK.json names prints with its unit, that
the traced sweep removes its wrappers again, that traced and untraced sweeps
write byte-identical CSVs, and that the benchmark refuses to run without
the library source.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "smoke"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} = ")
                   and f" {unit} (median of " in line for line in lines), name


def test_traced_sweep_restores_wrappers_and_keeps_csv_bytes():
    from dpconformal import experiments

    shutil.rmtree(SCRATCH, ignore_errors=True)
    config = experiments.load_config(
        workloads.prepare("scaling_mlp", 5, "tiny", SCRATCH))
    modules = [m for name, m in sys.modules.items()
               if name.startswith("dpconformal")]
    before = {m: dict(vars(m)) for m in modules}

    out = {}
    for label in ("plain", "traced"):
        out[label] = SCRATCH / label
        run_config = dataclasses.replace(
            config, output=str(out[label] / "results.csv"))
        if label == "plain":
            experiments.run_experiment(run_config)
            continue
        with tracer.SpanRecorder() as recorder:
            layers.install(recorder)
            assert experiments.run_experiment is not before[experiments][
                "run_experiment"]
            experiments.run_experiment(run_config)

    for m, attrs in before.items():
        for key, value in attrs.items():
            assert vars(m)[key] is value, f"{m.__name__}.{key} still wrapped"
    for name in ("results.csv", "results_series.csv"):
        assert (out["plain"] / name).read_bytes() \
            == (out["traced"] / name).read_bytes()
    metrics = layers.span_metrics(recorder.spans)
    assert metrics["training.steps"] == metrics[
        "models.batch_loss_and_grads.calls"] > 0
    assert metrics["quantile.search.calls"] > 0


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, -1, None],
             ["b", 1.0, 4.0, 0, -1, None],
             ["c", 2.0, 3.0, 1, -1, None],
             ["d", 5.0, 9.0, 0, -1, None]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_refuses_to_run_without_library_source():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "scaling_mlp", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
