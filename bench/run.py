"""dpconformal benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload scaling_mlp --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from --seed into .bench_work/ of the
checkout. Each repetition runs the sweep in fresh interpreters (child.py),
once at jobs=1 and once at jobs=2, with BLAS pinned to one thread; with
--trace 1 a third, traced jobs=1 sweep follows. Repetitions continue while
the next one fits in --seconds (at least three untraced, two traced).

Every sweep's CSVs are checked (checks.py) and must be byte-identical across
repetitions, jobs values and traced/untraced runs; a failed check prints a
"problem" line and sets ``correct`` false. The last line of stdout is one
JSON object: ``correct``, ``attempted`` and ``failed`` trial rows,
and the medians of the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1). The lines above it give the environment, the digests,
the quality figures and the spread of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

E2E_UNITS = {"setup_s": "s", "sweep_s": "s", "sweep_s.jobs2": "s",
             "peak_rss_mb": "MB"}
# Printed with the digests but kept out of the JSON metrics: failed_frac is
# carried by the attempted/failed counts, and the stability study builds no
# prediction sets.
QUALITY_UNITS = {"failed_frac": "ratio", "min_coverage": "ratio",
                 "mean_set_size": "labels or width"}
MIN_REPEATS = {0: 3, 1: 2}
# Every child must be done this long after start, inside the 180 s limit.
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run: no library source or a child failed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(config_path: Path, out_dir: Path, jobs: int, trace: bool,
              deadline: float) -> dict:
    """Run one sweep in a fresh process group; returns its record."""
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(config_path),
           str(out_dir), str(jobs), "1" if trace else "0"]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        err = "timed out"
    finally:
        # Also ends pool workers the child left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed:\n{err[-3000:]}")
    return json.loads((out_dir / "record.json").read_text())


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt_metric(name: str, values: list[float], unit: str) -> str:
    q1, _, q3 = _quartiles(values)
    return (f"metric {name} = {statistics.median(values):.6g} {unit} "
            f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str) -> tuple[dict, list[str]]:
    """Run repetitions of one workload; returns (result, report lines)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    if not (ROOT / "src" / "dpconformal" / "__init__.py").is_file():
        raise BenchError(f"no dpconformal source under {ROOT / 'src'}")
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    config_path = workloads.prepare(workload, seed, size, workdir)
    config = json.loads(config_path.read_text())
    csv_rows = workloads.CSV_ROWS[size] if workload == "realdata_csv" else None

    plan = [(1, False), (2, False)] + ([(1, True)] if trace else [])
    reps: list[list[dict]] = []
    rep_seconds: list[float] = []
    while True:
        t = time.monotonic()
        rep = []
        for jobs, traced in plan:
            out_dir = workdir / f"rep{len(reps)}-jobs{jobs}{'-trace' * traced}"
            record = run_child(config_path, out_dir, jobs, traced, deadline)
            record["dir"] = out_dir
            rep.append(record)
        reps.append(rep)
        rep_seconds.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPEATS[int(trace)] and \
                elapsed + max(rep_seconds) > seconds:
            break

    records = [r for rep in reps for r in rep]
    untraced = [r for r in records if not r["trace"]]
    jobs1 = [r for r in untraced if r["jobs"] == 1]
    jobs2 = [r for r in untraced if r["jobs"] == 2]
    traced = [r for r in records if r["trace"]]

    attempted = failed = 0
    problems: list[str] = []
    for r in records:
        a, f, p, quality = checks.check_sweep(config, r["dir"], csv_rows)
        attempted, failed = attempted + a, failed + f
        problems += p
    digests = {(r["results_sha256"], r["series_sha256"]) for r in records}
    if len(digests) != 1:
        problems.append(f"CSV digests differ across {len(records)} sweeps: "
                        f"{sorted(digests)}")
    if any(not r["wrappers_restored"] for r in traced):
        problems.append("traced run left wrapped functions behind")

    env = records[0]["env"]
    lines = [
        f"env python {env['python']}, numpy {env['numpy']}, blas {env['blas']}"
        f", nproc {env['nproc']}, threads {env['threads']}",
        f"workload {workload} seed {seed} size {size} trace {int(trace)}: "
        f"{len(reps)} repeats in {time.monotonic() - start:.1f} s",
        f"digest results.csv sha256 {records[0]['results_sha256']}",
        f"digest results_series.csv sha256 {records[0]['series_sha256']}",
    ]
    lines += [f"quality {name} = {quality[name]:.6g} {unit}"
              if name in quality else f"quality {name} = n/a (no prediction"
              " sets in this study)" for name, unit in QUALITY_UNITS.items()]

    samples = {
        "setup_s": [r["setup_s"] for r in untraced],
        "sweep_s": [r["sweep_s"] for r in jobs1],
        "sweep_s.jobs2": [r["sweep_s"] for r in jobs2],
        "peak_rss_mb": [r["peak_rss_mb"] for r in jobs1],
    }
    units = E2E_UNITS
    if trace:
        sweep = statistics.median(samples["sweep_s"])
        sweep2 = statistics.median(samples["sweep_s.jobs2"])
        per_rep = [layers.span_metrics(tracer.load(r["dir"] / "spans.json"))
                   for r in traced]
        samples = {name: [m[name] for m in per_rep] for name in per_rep[0]}
        samples["experiments.csv_bytes"] = [records[0]["csv_bytes"]]
        samples["experiments.parallel_efficiency"] = [sweep / (2.0 * sweep2)]
        samples["trace_overhead"] = [
            statistics.median([r["sweep_s"] for r in traced]) / sweep - 1.0]
        units = layers.UNITS
    lines += [_fmt_metric(name, samples[name], unit)
              for name, unit in units.items()]
    lines += [f"problem {p}" for p in problems]

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(samples[name]),
                           "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    try:
        result, lines = run(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.size)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
