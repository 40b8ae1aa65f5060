"""Nonconformity scores, set evaluation and the end-to-end pipelines.

Methods:

* ``dpscp_f``   -- private training on the full pool at a p-fraction of the
  budget, in-sample scores, buffered right-endpoint search with the full
  rank inflation (stability buffer + noise correction).
* ``dpscp_a``   -- same pipeline with both corrections pinned to zero.
* ``dp_split``  -- disjoint train/calibration halves; each stage spends the
  full budget on its own half (parallel composition).
* ``split_cp``  -- non-private split conformal with the exact quantile.
* ``naive_full`` -- non-private full-data reuse with the exact in-sample
  quantile (deliberately invalid; quantifies the cost of ignoring the
  in-sample shift).

Every trial is a pure function of (pool, test, config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .accounting import (BudgetSpec, calibrate_sigma_q, calibrate_sigma_sgd,
                         default_orders, rdp_to_eps, sgd_profile)
from .models import (CLASSIFICATION, Dataset, ModelSpec, predict_proba,
                     predict_value)
from .quantile import (QuantileConfig, buffered_right_search,
                       exact_conformal_quantile, target_rank)
from .training import TrainConfig, TrainedModel, dp_sgd_train

__all__ = ["EvalReport", "PipelineConfig", "METHODS", "run_pipeline"]

METHODS = ("dpscp_f", "dpscp_a", "dp_split", "split_cp", "naive_full")


@dataclass(frozen=True)
class PipelineConfig:
    method: str
    budget: BudgetSpec
    model: ModelSpec
    train_template: TrainConfig
    quantile_template: QuantileConfig
    alpha: float = 0.1
    split_fraction: float = 0.5
    target_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in (0, 1)")
        if self.target_scale <= 0.0:
            raise ValueError("target_scale must be positive")


@dataclass(frozen=True)
class EvalReport:
    coverage: float
    efficiency: float
    informativeness: float | None
    q_hat: float
    sigma_q: float
    eps_train_spent: float
    trial_seed: int


def _classification_scores(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """(n, K) matrix of 1 - p_k."""
    return 1.0 - predict_proba(model.spec, model.params, x)


def _in_sample_scores(model: TrainedModel, data: Dataset) -> np.ndarray:
    """Nonconformity of each row: 1 - true-class probability for
    classification, the absolute residual for regression."""
    if data.task == CLASSIFICATION:
        all_scores = _classification_scores(model, data.features)
        return all_scores[np.arange(data.n), data.labels.astype(int)]
    pred = predict_value(model.spec, model.params, data.features)
    return np.abs(data.labels - pred)


def _evaluate_fast(model: TrainedModel, test: Dataset, q_hat: float,
                   target_scale: float) -> dict:
    """Coverage, mean set size (or interval width) and, for classification,
    the singleton fraction of the sets {y : score(x, y) <= q_hat} over a
    test split."""
    if test.task == CLASSIFICATION:
        scores = _classification_scores(model, test.features)
        member = scores <= q_hat
        truth = member[np.arange(test.n), test.labels.astype(int)]
        sizes = member.sum(axis=1)
        return {
            "coverage": float(truth.mean()),
            "efficiency": float(sizes.mean()),
            "informativeness": float(np.mean(sizes == 1)),
        }
    pred = predict_value(model.spec, model.params, test.features)
    covered = np.abs(test.labels - pred) <= q_hat
    return {
        "coverage": float(covered.mean()),
        # Interval width reported on the original target scale.
        "efficiency": float(2.0 * q_hat * target_scale),
        "informativeness": None,
    }


def _split_indices(n: int, fraction: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    cut = int(math.floor(fraction * n))
    if cut < 1 or cut >= n:
        raise ValueError("split leaves an empty train or calibration half")
    return perm[:cut], perm[cut:]


def run_pipeline(pool: Dataset, test: Dataset, config: PipelineConfig,
                 seed: int) -> EvalReport:
    """Run one trial of the configured method and evaluate on the test split."""
    if pool.task != test.task or pool.dim != test.dim:
        raise ValueError("pool and test must share schema")
    method = config.method
    budget = config.budget
    ss = np.random.SeedSequence(seed).spawn(3)
    split_rng = np.random.Generator(np.random.PCG64(ss[0]))
    train_seed = int(ss[1].generate_state(1)[0])
    quant_seed = int(ss[2].generate_state(1)[0])

    if method in ("dp_split", "split_cp"):
        train_idx, cal_idx = _split_indices(pool.n, config.split_fraction,
                                            split_rng)
        train_data = pool.subset(train_idx)
        cal_data = pool.subset(cal_idx)
    else:
        train_data = pool
        cal_data = pool

    if method in ("dpscp_f", "dpscp_a"):
        eps_train_target = budget.allocation_p * budget.epsilon_target
    elif method == "dp_split":
        eps_train_target = budget.epsilon_target
    else:
        eps_train_target = None

    tmpl = config.train_template
    if eps_train_target is None:
        sigma_sgd = 0.0
    else:
        sigma_sgd = calibrate_sigma_sgd(tmpl.sampling_rate, tmpl.steps,
                                        eps_train_target, budget.delta_target)
    train_config = replace(tmpl, noise_multiplier=sigma_sgd, seed=train_seed)
    model = dp_sgd_train(train_data, config.model, train_config)

    if eps_train_target is None:
        eps_train_spent = 0.0
    else:
        eps_train_spent = rdp_to_eps(
            sgd_profile(model.accounting, default_orders()), budget.delta_target
        )

    cal_scores = _in_sample_scores(model, cal_data)
    qt = config.quantile_template

    if method in ("split_cp", "naive_full"):
        rank = target_rank(cal_data.n, config.alpha)
        q_hat = exact_conformal_quantile(cal_scores, rank)
        sigma_q = 0.0
    else:
        if method in ("dpscp_f", "dpscp_a"):
            train_profile = sgd_profile(model.accounting, default_orders())
        else:
            # Disjoint calibration half: account the search in isolation.
            train_profile = sgd_profile((), default_orders())
        sigma_q = calibrate_sigma_q(train_profile, qt.steps_n, budget)
        if method == "dpscp_f":
            buffer_m, tau_override = qt.buffer_m, None
        elif method == "dpscp_a":
            buffer_m, tau_override = 0, 0.0
        else:
            # dp_split keeps the noise correction; its disjoint calibration
            # half needs no stability buffer.
            buffer_m, tau_override = 0, None
        search_config = replace(qt, sigma_q=sigma_q, buffer_m=buffer_m,
                                tau_override=tau_override, alpha=config.alpha,
                                variant="buffered_right", seed=quant_seed)
        q_hat = buffered_right_search(cal_scores, search_config).q_hat

    metrics = _evaluate_fast(model, test, q_hat, config.target_scale)
    return EvalReport(
        coverage=metrics["coverage"],
        efficiency=metrics["efficiency"],
        informativeness=metrics["informativeness"],
        q_hat=float(q_hat),
        sigma_q=float(sigma_q),
        eps_train_spent=float(eps_train_spent),
        trial_seed=seed,
    )
