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

Every trial is a pure function of (pool, test, config, seed) and runs in
two stages: ``train_stages`` (split, sigma_sgd, DP-SGD, scores) and
``finish_stage`` (sigma_q, search or exact quantile, evaluation).
``run_pipeline`` takes one config through both. ``train_target`` names the
model a method trains, so methods with equal targets finish from one stage.
``train_stages`` trains the targets of configs that share a training subset
in one lockstep DP-SGD call: each model is bit-equal to the one its config
trains alone, and a config whose calibration, run or scoring fails fails
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .accounting import (BudgetSpec, RdpProfile, calibrate_sigma_q,
                         calibrate_sigma_sgd, default_orders, rdp_to_eps,
                         sgd_profile)
from .models import (CLASSIFICATION, Dataset, ModelSpec, predict_proba,
                     predict_value)
from .quantile import (QuantileConfig, buffered_right_search,
                       exact_conformal_quantile, target_rank)
from .training import TrainConfig, TrainedModel, dp_sgd_train

__all__ = ["EvalReport", "PipelineConfig", "METHODS", "TrainedStage",
           "finish_stage", "run_pipeline", "split_train_size", "train_stages",
           "train_target"]

METHODS = ("dpscp_f", "dpscp_a", "dp_split", "split_cp", "naive_full")


@dataclass(frozen=True)
class PipelineConfig:
    method: str
    budget: BudgetSpec
    model: ModelSpec
    train_template: TrainConfig
    quantile_template: QuantileConfig
    alpha: float = 0.1
    target_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
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


def train_target(method: str,
                 budget: BudgetSpec) -> tuple[bool, float | None]:
    """What ``method`` trains on: whether it trains on the train half of a
    split, and its epsilon_train target (None for non-private training).

    Methods with equal targets train the same model from the same pool and
    trial seed, so one train stage serves them all.
    """
    if method in ("dpscp_f", "dpscp_a"):
        return False, budget.allocation_p * budget.epsilon_target
    if method == "dp_split":
        return True, budget.epsilon_target
    if method == "split_cp":
        return True, None
    if method == "naive_full":
        return False, None
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class TrainedStage:
    """What the train stage hands the finish stage: the calibration scores,
    the test split and its scores, and the training spend."""

    target: tuple[bool, float | None]
    cal_scores: np.ndarray
    test: Dataset
    test_scores: np.ndarray
    train_profile: RdpProfile | None
    eps_train_spent: float
    quant_seed: int


def _score_matrix(model: TrainedModel, data: Dataset) -> np.ndarray:
    """Nonconformity of every candidate label: the (n, K) matrix 1 - p_k for
    classification, the absolute residual of each row for regression. Each
    is written into the probability or residual array it is taken from."""
    if data.task == CLASSIFICATION:
        probs = predict_proba(model.spec, model.params, data.features)
        return np.subtract(1.0, probs, out=probs)
    resid = data.labels - predict_value(model.spec, model.params,
                                        data.features)
    return np.abs(resid, out=resid)


def _in_sample_scores(model: TrainedModel, data: Dataset) -> np.ndarray:
    """Nonconformity of each row: 1 - true-class probability for
    classification, the absolute residual for regression."""
    if data.task == CLASSIFICATION:
        probs = predict_proba(model.spec, model.params, data.features)
        return 1.0 - probs[np.arange(data.n), data.labels.astype(int)]
    return _score_matrix(model, data)


def _evaluate_fast(test_scores: np.ndarray, test: Dataset, q_hat: float,
                   target_scale: float) -> dict:
    """Coverage, mean set size (or interval width) and, for classification,
    the singleton fraction of the sets {y : score(x, y) <= q_hat} over a
    test split whose ``_score_matrix`` is ``test_scores``."""
    if test.task == CLASSIFICATION:
        member = test_scores <= q_hat
        truth = member[np.arange(test.n), test.labels.astype(int)]
        sizes = member.sum(axis=1)
        return {
            "coverage": float(truth.mean()),
            "efficiency": float(sizes.mean()),
            "informativeness": float(np.mean(sizes == 1)),
        }
    covered = test_scores <= q_hat
    return {
        "coverage": float(covered.mean()),
        # Interval width reported on the original target scale.
        "efficiency": float(2.0 * q_hat * target_scale),
        "informativeness": None,
    }


def split_train_size(n: int) -> int:
    """The size of the train half of a pool of ``n`` rows, which a split
    method trains on; the rest is its calibration half."""
    return n // 2


def _split_indices(n: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    cut = split_train_size(n)
    if cut < 1 or cut >= n:
        raise ValueError("split leaves an empty train or calibration half")
    return perm[:cut], perm[cut:]


def train_stages(pool: Dataset, test: Dataset,
                 configs: Sequence[PipelineConfig], seed: int
                 ) -> Iterator[TrainedStage | Exception]:
    """The split, sigma_sgd calibrations, DP-SGD training and scoring of one
    trial for configs that train on one subset (``train_target(...)[0]``)
    with one model spec and training template.

    The models train in one lockstep ``dp_sgd_train`` call, each bit-equal
    to its own call. Yields, per config in order, its ``TrainedStage`` or
    the exception that its calibration, training or scoring raised; a stage
    is scored only when it is asked for, so one stage's score arrays are
    held at a time. An error that no single config owns (the schema, a
    model head that does not serve the pool's task, the split) is raised
    before any calibration or training.
    """
    if pool.task != test.task or pool.dim != test.dim:
        raise ValueError("pool and test must share schema")
    first = configs[0]
    if first.model.task != pool.task:
        raise ValueError(f"the model has no {pool.task} head")
    split = train_target(first.method, first.budget)[0]
    shared = (split, first.model, first.train_template)
    if any((train_target(c.method, c.budget)[0], c.model, c.train_template)
           != shared for c in configs):
        raise ValueError("configs must share one training subset, model "
                         "and training template")
    ss = np.random.SeedSequence(seed).spawn(3)
    train_seed = int(ss[1].generate_state(1)[0])
    quant_seed = int(ss[2].generate_state(1)[0])

    if split:
        split_rng = np.random.Generator(np.random.PCG64(ss[0]))
        train_idx, cal_idx = _split_indices(pool.n, split_rng)
        train_data = pool.subset(train_idx)
        cal_data = pool.subset(cal_idx)
    else:
        train_data = pool
        cal_data = pool

    tmpl = first.train_template
    sigmas: list = []
    for config in configs:
        eps_train_target = train_target(config.method, config.budget)[1]
        try:
            sigmas.append(0.0 if eps_train_target is None else
                          calibrate_sigma_sgd(tmpl.sampling_rate, tmpl.steps,
                                              eps_train_target,
                                              config.budget.delta_target))
        except Exception as exc:  # fails this config alone
            sigmas.append(exc)
    calibrated = [s for s in sigmas if not isinstance(s, Exception)]
    models: list = []
    if calibrated:
        try:
            models = dp_sgd_train(train_data, first.model,
                                  replace(tmpl, seed=train_seed),
                                  noise_multipliers=calibrated)
        except Exception as exc:  # a failure shared by every calibrated run
            models = [exc] * len(calibrated)
    runs = iter(models)

    for config, sigma in zip(configs, sigmas):
        stage = sigma if isinstance(sigma, Exception) else next(runs)
        if isinstance(stage, TrainedModel):
            try:
                stage = _scored_stage(stage, config, cal_data, test,
                                      quant_seed)
            except Exception as exc:  # a scoring failure fails this config
                stage = exc
        yield stage


def _scored_stage(model: TrainedModel, config: PipelineConfig,
                  cal_data: Dataset, test: Dataset,
                  quant_seed: int) -> TrainedStage:
    """The training spend and the scores of one config's trained model."""
    target = train_target(config.method, config.budget)
    if target[1] is None:
        train_profile, eps_train_spent = None, 0.0
    else:
        train_profile = sgd_profile(model.accounting, default_orders())
        eps_train_spent = rdp_to_eps(train_profile,
                                     config.budget.delta_target)
    return TrainedStage(
        target=target,
        cal_scores=_in_sample_scores(model, cal_data),
        test=test,
        test_scores=_score_matrix(model, test),
        train_profile=train_profile,
        eps_train_spent=float(eps_train_spent),
        quant_seed=quant_seed,
    )


def finish_stage(stage: TrainedStage, config: PipelineConfig) -> EvalReport:
    """The sigma_q calibration, the private search (or the exact quantile)
    and the evaluation of one method on a model ``train_stages`` trained."""
    method = config.method
    budget = config.budget
    if train_target(method, budget) != stage.target:
        raise ValueError(f"{method!r} at this budget trains another model")
    cal_scores = stage.cal_scores
    qt = config.quantile_template

    if method in ("split_cp", "naive_full"):
        rank = target_rank(len(cal_scores), config.alpha)
        q_hat = exact_conformal_quantile(cal_scores, rank)
        sigma_q = 0.0
    else:
        if method in ("dpscp_f", "dpscp_a"):
            train_profile = stage.train_profile
        else:
            # Disjoint calibration half: account the search in isolation.
            train_profile = RdpProfile.zeros(default_orders())
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
                                seed=stage.quant_seed)
        q_hat = buffered_right_search(cal_scores, search_config).q_hat

    metrics = _evaluate_fast(stage.test_scores, stage.test, q_hat,
                             config.target_scale)
    return EvalReport(
        coverage=metrics["coverage"],
        efficiency=metrics["efficiency"],
        informativeness=metrics["informativeness"],
        q_hat=float(q_hat),
        sigma_q=float(sigma_q),
        eps_train_spent=stage.eps_train_spent,
    )


def run_pipeline(pool: Dataset, test: Dataset, config: PipelineConfig,
                 seed: int) -> EvalReport:
    """Run one trial of the configured method and evaluate on the test split."""
    (stage,) = train_stages(pool, test, [config], seed)
    if isinstance(stage, Exception):
        raise stage
    return finish_stage(stage, config)
