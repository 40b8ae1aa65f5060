"""One repetition in a fresh interpreter, so the calibrate_sigma_sgd cache
starts cold as it does for every CLI user.

Times set-up (import dpconformal, load_config the workload JSON), runs the
sweep once with ``run_experiment(config, jobs)``, and writes a JSON record
of the timings, the peak RSS, the CSV digests and the environment. With
trace 1 the layer functions are wrapped for the sweep and the spans are
written next to the record.

Usage: python3 bench/child.py CONFIG_JSON OUT_DIR JOBS TRACE
"""

import time

_T0 = time.perf_counter()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import dpconformal  # noqa: E402
import numpy as np  # noqa: E402
from dpconformal import experiments  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main(config_path: str, out_dir: str, jobs: int, trace: bool) -> None:
    config = experiments.load_config(config_path)
    setup_s = time.perf_counter() - _T0

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(dpconformal.__file__).resolve().parent.parent != src:
        sys.exit(f"dpconformal imported from {dpconformal.__file__}, "
                 f"not from {src}")

    out = Path(out_dir)
    config = dataclasses.replace(config, output=str(out / "results.csv"))
    recorder = None
    if trace:
        import layers
        from tracer import SpanRecorder
        modules = [m for m in sys.modules.values()
                   if getattr(m, "__name__", "").startswith("dpconformal")]
        before = {m.__name__: dict(vars(m)) for m in modules}
        recorder = SpanRecorder()
        layers.install(recorder)
    try:
        start = time.perf_counter()
        experiments.run_experiment(config, jobs=jobs)
        sweep_s = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.restore()
    record = {
        "jobs": jobs,
        "trace": trace,
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "results_sha256": _sha256(out / "results.csv"),
        "series_sha256": _sha256(out / "results_series.csv"),
        "csv_bytes": (out / "results.csv").stat().st_size
        + (out / "results_series.csv").stat().st_size,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k, "") for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
        },
    }
    if recorder is not None:
        record["wrappers_restored"] = all(
            vars(sys.modules[name]).get(key) is value
            for name, attrs in before.items() for key, value in attrs.items())
        recorder.dump(out / "spans.json")
    (out / "record.json").write_text(json.dumps(record, indent=1))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
