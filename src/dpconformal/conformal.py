"""Nonconformity scores, set evaluation and the end-to-end pipelines.

Each method is one row of ``_METHOD_TABLE``, whose rules ``train_target``,
``run_pipelines`` and ``_finish`` read. Every trial is a pure function of
(pool, test, config, seed). ``run_pipelines`` runs the configs of one
training subset: it calibrates sigma_sgd and trains (one lockstep DP-SGD
call; ``_calibrated_runs``, which the stability study shares) and scores
each distinct target once, each model bit-equal to the one its config trains
alone, and finishes every config from its target's model into a
``TrialRecord``: the report, the training record, and the search's config
and result, whose trace also holds exact counts with no noise (a diagnostic,
not part of the release). ``run_pipeline`` returns one config's report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .accounting import (BudgetSpec, RdpProfile, SgdAccountingRecord,
                         calibrate_sigma_q, calibrate_sigma_sgd,
                         default_orders, rdp_to_eps, sgd_profile)
from .models import (CLASSIFICATION, Dataset, ModelSpec, predict_proba,
                     predict_value)
from .quantile import (QuantileConfig, QuantileResult, buffered_right_search,
                       exact_conformal_quantile, target_rank)
from .training import TrainConfig, TrainedModel, dp_sgd_train

__all__ = ["EvalReport", "PipelineConfig", "METHODS", "SPLIT_METHODS",
           "TrialRecord", "run_pipeline", "run_pipelines", "split_train_size",
           "train_target"]


@dataclass(frozen=True)
class _Method:
    """A method's rules. One that ``splits`` trains on ``split_train_size(n)``
    rows of the pool and calibrates on the rest, so its search is accounted
    alone (parallel composition); any other uses the whole pool for both.
    Training spends p * epsilon at ``share`` "p", epsilon at "all", and
    nothing at None, where the exact quantile replaces the search. The search
    adds the buffer m for the in-sample shift if ``buffer``, and the noise
    correction tau if ``tau`` (else tau is 0 while sigma_q still applies)."""

    splits: bool
    share: str | None
    buffer: bool = False
    tau: bool = False


_METHOD_TABLE = {
    "dpscp_f": _Method(splits=False, share="p", buffer=True, tau=True),
    "dpscp_a": _Method(splits=False, share="p"),  # asymptotic variant
    "dp_split": _Method(splits=True, share="all", tau=True),
    "split_cp": _Method(splits=True, share=None),
    # Deliberately invalid: the cost of ignoring the in-sample shift.
    "naive_full": _Method(splits=False, share=None),
}
METHODS = tuple(_METHOD_TABLE)
SPLIT_METHODS = tuple(m for m, row in _METHOD_TABLE.items() if row.splits)


@dataclass(frozen=True)
class PipelineConfig:
    method: str
    budget: BudgetSpec
    model: ModelSpec
    train_template: TrainConfig
    quantile_template: QuantileConfig
    target_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.target_scale < math.inf:  # NaN fails as well
            raise ValueError("target_scale must be positive and finite")
        # The pipeline sets a trial's noise, seeds and search rule: a
        # template value that it would overwrite or ignore is refused.
        for name, keys in (
                ("train_template", ("noise_multiplier", "seed")),
                ("quantile_template", ("sigma_q", "seed", "tau_override",
                                       "noise_override", "variant",
                                       "precision_delta"))):
            template = getattr(self, name)
            defaults = {f.name: f.default for f in fields(template)}
            for key in keys:
                value, default = getattr(template, key), defaults[key]
                if value is not default and (default is None
                                             or value != default):
                    raise ValueError(f"{name}.{key} is set by the pipeline "
                                     f"and must be {default!r}")


@dataclass(frozen=True)
class EvalReport:
    coverage: float
    efficiency: float
    informativeness: float | None
    q_hat: float
    sigma_q: float
    eps_train_spent: float


@dataclass(frozen=True)
class TrialRecord:
    """One config's trial, holding no array of length n. A field is None
    where the trial trained without noise or ran no search."""

    report: EvalReport
    training: SgdAccountingRecord | None  # sigma_sgd, q, steps
    search_config: QuantileConfig | None  # sigma_q, K, m, tau rule, seed
    search: QuantileResult | None  # q_hat, r, r' and the K-step trace


def train_target(method: str, budget: BudgetSpec) -> float | None:
    """The epsilon_train target of ``method`` (None for non-private
    training). Methods with equal targets on one subset train the same model
    from the same pool and trial seed, so ``run_pipelines`` trains it once."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    share = _METHOD_TABLE[method].share
    if share is None:
        return None
    return (budget.allocation_p * budget.epsilon_target if share == "p"
            else budget.epsilon_target)


def _calibrated_runs(targets: Sequence, calibrate: Callable,
                     train: Callable) -> list:
    """Per target in order, (sigma, run), or the exception that failed it.
    ``calibrate(target)`` gives a target's sigma, and its failure fails that
    target alone. ``train(sigmas)`` makes one lockstep call over the sigmas
    of the calibrated targets in order, which returns each one's run or the
    exception that failed that run alone; a failed call fails every
    calibrated target, and with none calibrated it is not made."""
    sigmas: list = []
    for target in targets:
        try:
            sigmas.append(calibrate(target))
        except Exception as exc:  # fails this target alone
            sigmas.append(exc)
    calibrated = [s for s in sigmas if not isinstance(s, Exception)]
    try:
        runs = iter(train(calibrated) if calibrated else ())
    except Exception as exc:  # a failure shared by every calibrated run
        runs = iter([exc] * len(calibrated))
    pairs = [(s, s if isinstance(s, Exception) else next(runs))
             for s in sigmas]
    return [run if isinstance(run, Exception) else (s, run)
            for s, run in pairs]


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
        return 1.0 - np.take_along_axis(probs, data.labels[:, None], 1)[:, 0]
    return _score_matrix(model, data)


def _evaluate_fast(test_scores: np.ndarray, test: Dataset, q_hat: float,
                   target_scale: float) -> dict:
    """Coverage, mean set size (or interval width) and, for classification,
    the singleton fraction of the sets {y : score(x, y) <= q_hat} over a
    test split whose ``_score_matrix`` is ``test_scores``."""
    if test.task == CLASSIFICATION:
        member = test_scores <= q_hat
        truth = np.take_along_axis(member, test.labels[:, None], 1)
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


def run_pipelines(pool: Dataset, test: Dataset,
                  configs: Sequence[PipelineConfig], seed: int
                  ) -> list[TrialRecord | Exception]:
    """One trial of every config, each model trained once: the configs
    train on one subset (all or none in ``SPLIT_METHODS``) with one delta,
    model spec and training template, and each distinct ``train_target`` is
    calibrated, trained and scored once, every target in one lockstep
    ``dp_sgd_train`` call and each model bit-equal to its own call.

    Returns, per config in order, its record or the exception that failed
    it: a target's calibration or scoring fails that target's configs, the
    lockstep call every calibrated target, and a finish its own config. One
    target's score arrays are held at a time, and one half of a split pool:
    it trains through the train half's row index and gathers the calibration
    half after training. An error that no single config owns (the schema, a
    model head that does not serve the pool's task, the configs' mix, the
    split) is raised before any calibration or training.
    """
    if pool.task != test.task or pool.dim != test.dim:
        raise ValueError("pool and test must share schema")
    first = configs[0]
    if first.model.task != pool.task:
        raise ValueError(f"the model has no {pool.task} head")
    split = _METHOD_TABLE[first.method].splits
    shared = (split, first.budget.delta_target, first.model,
              first.train_template)
    if any((_METHOD_TABLE[c.method].splits, c.budget.delta_target, c.model,
            c.train_template) != shared for c in configs):
        raise ValueError("configs must share one training subset, delta, "
                         "model and training template")
    targets: dict = {}  # each distinct epsilon_train's config indices
    for i, config in enumerate(configs):
        targets.setdefault(train_target(config.method, config.budget),
                           []).append(i)
    ss = np.random.SeedSequence(seed).spawn(3)
    train_seed, quant_seed = (int(s.generate_state(1)[0]) for s in ss[1:])

    rows = cal_idx = None
    if split:
        rows, cal_idx = _split_indices(pool.n, np.random.default_rng(ss[0]))

    tmpl = first.train_template
    delta = first.budget.delta_target

    def calibrate(eps_train: float | None) -> float:
        return 0.0 if eps_train is None else calibrate_sigma_sgd(
            tmpl.sampling_rate, tmpl.steps, eps_train, delta)

    def train(sigmas: list) -> list:
        return dp_sgd_train(pool, first.model,
                            replace(tmpl, seed=train_seed), rows=rows,
                            noise_multipliers=sigmas)

    runs = _calibrated_runs(targets, calibrate, train)
    cal_data = pool if cal_idx is None else pool.subset(cal_idx)
    records: list = [None] * len(configs)
    for (eps_train, indices), run in zip(targets.items(), runs):
        cal_scores = test_scores = None  # one target's scores at a time
        if not isinstance(run, Exception):
            model = run[1]
            try:  # a failed scoring fails this target's configs
                train_profile = None if eps_train is None else sgd_profile(
                    model.accounting, default_orders())
                cal_scores = _in_sample_scores(model, cal_data)
                test_scores = _score_matrix(model, test)
            except Exception as exc:
                run = exc
        for i in indices:
            try:  # a failed finish fails this config alone
                records[i] = run if isinstance(run, Exception) else _finish(
                    configs[i], test, quant_seed, model, train_profile,
                    cal_scores, test_scores)
            except Exception as exc:
                records[i] = exc
    return records


def _finish(config: PipelineConfig, test: Dataset, quant_seed: int,
            model: TrainedModel, train_profile: RdpProfile | None,
            cal_scores: np.ndarray, test_scores: np.ndarray) -> TrialRecord:
    """One config's record from its target's model and scores: sigma_q, the
    private search (or the exact quantile) and the evaluation."""
    method = _METHOD_TABLE[config.method]
    qt = config.quantile_template
    if method.share is None:
        rank = target_rank(len(cal_scores), qt.alpha)
        q_hat = exact_conformal_quantile(cal_scores, rank)
        sigma_q = eps_train_spent = 0.0
        training = search_config = search = None
    else:
        training = model.accounting
        eps_train_spent = rdp_to_eps(train_profile,
                                     config.budget.delta_target)
        if method.splits:
            train_profile = RdpProfile.zeros(default_orders())
        sigma_q = calibrate_sigma_q(train_profile, qt.steps_n, config.budget)
        search_config = replace(
            qt, sigma_q=sigma_q, buffer_m=qt.buffer_m if method.buffer else 0,
            tau_override=None if method.tau else 0.0, seed=quant_seed)
        search = buffered_right_search(cal_scores, search_config)
        q_hat = search.q_hat
    report = EvalReport(
        **_evaluate_fast(test_scores, test, q_hat, config.target_scale),
        q_hat=float(q_hat), sigma_q=float(sigma_q),
        eps_train_spent=float(eps_train_spent))
    return TrialRecord(report, training, search_config, search)


def run_pipeline(pool: Dataset, test: Dataset, config: PipelineConfig,
                 seed: int) -> EvalReport:
    """Run one trial of the configured method and evaluate on the test
    split; raises what failed it."""
    (record,) = run_pipelines(pool, test, [config], seed)
    if isinstance(record, Exception):
        raise record
    return record.report
