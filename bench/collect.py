"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads scaling_mlp calib_sweep \
        --seeds 1-10 --trace 0 [--out bench/baseline.json]

For every workload and metric it prints the median and quartiles of the
per-run values and the spread (q3 - q1) / median, the figure the
steadiness rule bounds. ``--out`` merges the summary into a JSON file, keyed
by trace level, workload and metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="inclusive range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((BENCH.parent / "BENCHMARK.json")
                                           .read_text())["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary: dict = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {
                "unit": units[name], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "runs": len(vals)}
            print(f"{workload:18s} {name:48s} median {median:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}",
                  flush=True)

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data.setdefault(f"trace{args.trace}", {}).update(summary)
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
