"""Which dpconformal functions the traced run wraps, and the per-layer
metrics computed from the spans they record.

Each function is wrapped under the name its calling module imported it as
(``dpconformal.training.batch_loss_and_grads`` is the gradient call inside
DP-SGD, ``dpconformal.conformal.dp_sgd_train`` the training call inside the
pipeline), so a span covers exactly the calls made across one layer
boundary. ``experiments._safe_trial`` marks the trial boundary.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

from tracer import ATTRS, END, START, SpanRecorder, self_times

METHODS = ("dpscp_f", "dpscp_a", "dp_split", "split_cp", "naive_full")

# Per-layer metric -> unit. The first three and trace_overhead come from the
# run as a whole; the rest come from the spans of the traced sweep.
UNITS = {
    "experiments.self_s": "s",
    "experiments.csv_bytes": "bytes",
    "experiments.parallel_efficiency": "ratio",
    "data.gen_s": "s",
    "data.gen.calls": "count",
    "data.load_csv_s": "s",
    "data.load_csv.calls": "count",
    "data.standardize_s": "s",
    **{f"conformal.run_pipeline_s.{m}": "s" for m in METHODS},
    "conformal.self_s": "s",
    "accounting.calibrate_sigma_sgd_s": "s",
    "accounting.calibrate_sigma_sgd.calls": "count",
    "accounting.calibrate_sigma_sgd.cache_hit_ratio": "ratio",
    "accounting.calibrate_sigma_q_s": "s",
    "accounting.calibrate_sigma_q.calls": "count",
    "accounting.sgd_profile_s": "s",
    "accounting.sgd_profile.calls": "count",
    "training.dp_sgd_train_s": "s",
    "training.dp_sgd_train.calls": "count",
    "training.steps": "count",
    "training.us_per_step": "us",
    "training.self_us_per_step": "us",
    "training.poisson_sample_us": "us",
    "training.empty_batch_frac": "ratio",
    "training.mean_batch": "rows",
    "training.distinct_train_ratio": "ratio",
    "training.coupled_us_per_step": "us",
    "models.batch_loss_and_grads_us": "us",
    "models.batch_loss_and_grads.calls": "count",
    # Sum of b * P * 8 over gradient calls: the size of the per-sample
    # gradient matrices computed, not a measured allocation.
    "models.grad_bytes": "computed-bytes",
    "models.predict_s": "s",
    "quantile.search_s": "s",
    "quantile.search.calls": "count",
    "quantile.count_queries": "count",
    "quantile.exact_s": "s",
    "trace_overhead": "ratio",
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _train_key(args, kwargs) -> dict:
    data = _arg(args, kwargs, 0, "dataset")
    spec = _arg(args, kwargs, 1, "spec")
    config = _arg(args, kwargs, 2, "config")
    digest = hashlib.sha256(data.features.tobytes())
    digest.update(data.labels.tobytes())
    return {"steps": config.steps,
            "key": f"{digest.hexdigest()}|{spec!r}|{config!r}"}


def install(recorder: SpanRecorder) -> None:
    """Wrap the public layer functions of dpconformal on ``recorder``."""
    from dpconformal import accounting, conformal, experiments, training

    cached = accounting.calibrate_sigma_sgd

    def hits_before(args, kwargs):
        return cached.cache_info().hits

    def hit_after(hits, args, kwargs, result):
        return {"hit": cached.cache_info().hits > hits}

    wrap = recorder.wrap
    wrap(experiments, "run_experiment", "experiments.run_experiment")
    wrap(experiments, "_safe_trial", "experiments.trial", trial=True)
    for attr in ("gen_multiclass", "gen_logistic"):
        wrap(experiments, attr, "data.gen")
    wrap(experiments, "load_csv", "data.load_csv")
    for attr in ("fit_standardizer", "apply_standardizer"):
        wrap(experiments, attr, "data.standardize")
    wrap(experiments, "run_pipeline", "conformal.run_pipeline",
         before=lambda a, k: {"method": _arg(a, k, 2, "config").method})
    for owner in (experiments, conformal):
        wrap(owner, "calibrate_sigma_sgd", "accounting.calibrate_sigma_sgd",
             before=hits_before, after=hit_after)
    wrap(conformal, "calibrate_sigma_q", "accounting.calibrate_sigma_q")
    wrap(conformal, "sgd_profile", "accounting.sgd_profile")
    wrap(conformal, "dp_sgd_train", "training.dp_sgd_train",
         before=_train_key)
    wrap(training, "poisson_sample", "training.poisson_sample",
         after=lambda s, a, k, r: {"size": int(r.size)})
    wrap(experiments, "coupled_train", "training.coupled_train",
         before=lambda a, k: {"steps": _arg(a, k, 3, "config").steps})
    wrap(training, "batch_loss_and_grads", "models.batch_loss_and_grads",
         before=lambda a, k: {"bytes": 8 * len(_arg(a, k, 2, "x"))
                              * _arg(a, k, 1, "params").size})
    for attr in ("predict_proba", "predict_value"):
        wrap(conformal, attr, "models.predict")
    wrap(conformal, "buffered_right_search", "quantile.search",
         before=lambda a, k: {"queries": _arg(a, k, 1, "config").steps_n})
    wrap(conformal, "exact_conformal_quantile", "quantile.exact")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (all but the run-level four)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def total(name: str) -> float:
        return sum(spans[i][END] - spans[i][START] for i in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(spans[i][ATTRS][key] for i in by_name[name])

    train = by_name["training.dp_sgd_train"]
    steps = attr_sum("training.dp_sgd_train", "steps")
    # Batch sizes from every sampler call, under dp_sgd_train and under
    # coupled_train alike.
    sizes = [spans[i][ATTRS]["size"] for i in by_name["training.poisson_sample"]]
    out = {
        "experiments.self_s": sum(selfs[i] for i in
                                  by_name["experiments.run_experiment"]),
        "data.gen_s": total("data.gen"),
        "data.gen.calls": calls("data.gen"),
        "data.load_csv_s": total("data.load_csv"),
        "data.load_csv.calls": calls("data.load_csv"),
        "data.standardize_s": total("data.standardize"),
        "conformal.self_s": sum(selfs[i] for i in
                                by_name["conformal.run_pipeline"]),
        "accounting.calibrate_sigma_sgd_s":
            total("accounting.calibrate_sigma_sgd"),
        "accounting.calibrate_sigma_sgd.calls":
            calls("accounting.calibrate_sigma_sgd"),
        "accounting.calibrate_sigma_sgd.cache_hit_ratio": _ratio(
            attr_sum("accounting.calibrate_sigma_sgd", "hit"),
            calls("accounting.calibrate_sigma_sgd")),
        "accounting.calibrate_sigma_q_s": total("accounting.calibrate_sigma_q"),
        "accounting.calibrate_sigma_q.calls":
            calls("accounting.calibrate_sigma_q"),
        "accounting.sgd_profile_s": total("accounting.sgd_profile"),
        "accounting.sgd_profile.calls": calls("accounting.sgd_profile"),
        "training.dp_sgd_train_s": total("training.dp_sgd_train"),
        "training.dp_sgd_train.calls": len(train),
        "training.steps": steps,
        "training.us_per_step": 1e6 * _ratio(total("training.dp_sgd_train"),
                                             steps),
        "training.self_us_per_step": 1e6 * _ratio(
            sum(selfs[i] for i in train), steps),
        "training.poisson_sample_us": 1e6 * _ratio(
            total("training.poisson_sample"), len(sizes)),
        "training.empty_batch_frac": _ratio(sum(s == 0 for s in sizes),
                                            len(sizes)),
        "training.mean_batch": _ratio(sum(sizes), len(sizes)),
        "training.distinct_train_ratio": _ratio(
            len({spans[i][ATTRS]["key"] for i in train}), len(train)),
        "training.coupled_us_per_step": 1e6 * _ratio(
            total("training.coupled_train"),
            attr_sum("training.coupled_train", "steps")),
        "models.batch_loss_and_grads_us": 1e6 * _ratio(
            total("models.batch_loss_and_grads"),
            calls("models.batch_loss_and_grads")),
        "models.batch_loss_and_grads.calls":
            calls("models.batch_loss_and_grads"),
        "models.grad_bytes": attr_sum("models.batch_loss_and_grads", "bytes"),
        "models.predict_s": total("models.predict"),
        "quantile.search_s": total("quantile.search"),
        "quantile.search.calls": calls("quantile.search"),
        "quantile.count_queries": attr_sum("quantile.search", "queries"),
        "quantile.exact_s": total("quantile.exact"),
    }
    per_method = defaultdict(float)
    for i in by_name["conformal.run_pipeline"]:
        per_method[spans[i][ATTRS]["method"]] += spans[i][END] - spans[i][START]
    for m in METHODS:
        out[f"conformal.run_pipeline_s.{m}"] = per_method[m]
    return out

