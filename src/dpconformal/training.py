"""Differentially private SGD with Poisson subsampling, gradient clipping,
Gaussian noise, and optional l2-ball projection, plus the synchronized
coupling that trains two runs on adjacent datasets in lockstep.

Randomness discipline: one root seed expands into three named streams
(shared inclusion masks, Gaussian noise, extra-point inclusions). The
standalone trainer and the coupled runner read the first two streams through
one per-step source, so a coupled run sees exactly the batches and noise of
the standalone run, and its two trajectories are bitwise equal until the
extra point is sampled for the first time.

One step function advances a stack of runs that differ only in their noise
multiplier on one shared batch, so a standalone call can carry R runs and a
coupled call R pairs in lockstep; every run keeps the bits it has when
trained alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .accounting import SgdAccountingRecord
from .models import (Dataset, ModelSpec, as_batch, clip_scale, init_params,
                     param_count)
# The step's one gradient call, the ghost-norm kernel. It is bound under the
# name by which the traced benchmark (bench/layers.py) wraps this module's
# gradient call; models.batch_loss_and_grads, which forms the per-sample
# gradients, is its test oracle and is not called here.
from .models import clipped_grad_sum as batch_loss_and_grads

__all__ = ["CouplingTrace", "NumericFailureError", "TrainConfig",
           "TrainedModel", "coupled_train", "dp_sgd_train", "poisson_sample",
           "stability_bound_smooth", "stability_bound_universal"]


class NumericFailureError(RuntimeError):
    """A training step produced a non-finite loss, gradient, iterate or
    norm."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    steps: int
    sampling_rate: float
    clip_norm: float
    noise_multiplier: float = 0.0
    projection_radius: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError("sampling_rate must lie in (0, 1]")
        if self.clip_norm <= 0.0:
            raise ValueError("clip_norm must be positive")
        if self.noise_multiplier < 0.0:
            raise ValueError("noise_multiplier must be nonnegative")
        if self.projection_radius is not None and self.projection_radius <= 0.0:
            raise ValueError("projection_radius must be positive")


@dataclass(frozen=True)
class TrainedModel:
    spec: ModelSpec
    params: np.ndarray
    accounting: SgdAccountingRecord


@dataclass(frozen=True)
class CouplingTrace:
    """Per-step l2 gap between the coupled trajectories, and the distance of
    the n-point run to a reference parameter when one is supplied."""

    gap_series: np.ndarray
    error_series: np.ndarray | None
    diverged: bool
    first_divergence_step: int | None


def poisson_sample(n: int, rate_q: float, stream: np.random.Generator) -> np.ndarray:
    """Indices included by i.i.d. Bernoulli(rate_q) draws from the stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= rate_q <= 1.0:
        raise ValueError("rate_q must lie in [0, 1]")
    mask = stream.random(n) < rate_q
    return np.flatnonzero(mask)


def stability_bound_universal(
    rate_q: float, steps_t: int, radius_r: float
) -> tuple[float, float]:
    """Divergence-probability and expected-gap bounds that use only the
    projection radius and the subsampling law."""
    if not 0.0 <= rate_q <= 1.0:
        raise ValueError("rate_q must lie in [0, 1]")
    if steps_t < 0:
        raise ValueError("steps_t must be nonnegative")
    if radius_r <= 0.0:
        raise ValueError("radius_r must be positive")
    prob = 1.0 - (1.0 - rate_q) ** steps_t
    return prob, radius_r * prob


def stability_bound_smooth(
    n: int,
    rate_q: float,
    lipschitz_l: float,
    clip_c: float,
    noise_sigma: float,
    dim_d: int,
    eta: float,
    steps_t: int,
) -> float:
    """Expected-gap bound for smooth losses.

    ``noise_sigma`` is the standard deviation of the injected noise before
    the batch-size division, i.e. noise_multiplier * clip_norm for the
    trainer in this module. ``dim_d`` is the parameter dimension.
    """
    if lipschitz_l <= 0.0:
        raise ValueError("lipschitz_l must be positive")
    if not 0.0 <= rate_q <= 1.0:
        raise ValueError("rate_q must lie in [0, 1]")
    if noise_sigma < 0.0 or clip_c <= 0.0 or eta < 0.0:
        raise ValueError("invalid clip/noise/step-size arguments")
    front = (1.0 - (1.0 - rate_q) ** (n + 1)) / ((n + 1) * lipschitz_l)
    return front * (2.0 * clip_c + noise_sigma * math.sqrt(dim_d)) * (
        math.expm1(eta * lipschitz_l * steps_t)
    )


def _spawn_streams(seed: int) -> tuple[np.random.Generator, ...]:
    """Mask, noise, extra-point, and init streams from one root seed."""
    root = np.random.SeedSequence(seed)
    return tuple(np.random.Generator(np.random.PCG64(s)) for s in root.spawn(4))


def _draws(
    n: int,
    p: int,
    config: TrainConfig,
    mask_rng: np.random.Generator,
    noise_rng: np.random.Generator,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Each step's Poisson batch indices over ``n`` rows and its standard
    normal noise vector of length ``p``, one mask draw and one noise draw per
    step. An empty batch is yielded as is: the accounting assumes plain
    Poisson sampling at ``config.sampling_rate``, so it is never redrawn."""
    for t in range(config.steps):
        idx = poisson_sample(n, config.sampling_rate, mask_rng)
        yield t, idx, noise_rng.standard_normal(p)


def _norm(vec: np.ndarray) -> float:
    """l2 norm of one run's vector as ``np.linalg.norm`` computes it for 1-D
    input, sqrt of the BLAS dot, and not the per-row reduction of
    ``norm(..., axis=-1)``, whose bits differ."""
    return math.sqrt(vec.dot(vec))


def _batch_update(
    spec: ModelSpec,
    params: np.ndarray,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    noise_vec: np.ndarray,
    noise_std: np.ndarray,
    config: TrainConfig,
    step: int,
    audit_hook: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, dict[int, str]]:
    """One noisy clipped-mean gradient step of a stack of runs on one
    nonempty shared batch.

    ``params`` is (R, P) and ``noise_std`` (R, 1) holds each run's
    noise_multiplier * clip_norm. Returns the new (R, P) stack and, for each
    run that failed a finiteness check (a projected run's norm included),
    the message of the first check it failed. A failed run's row is garbage;
    every other row is bit-equal to the step that run would take alone.
    ``audit_hook(step, clipped_norms)`` observes run 0; ``dp_sgd_train``,
    which rejects a hook when it trains more than one run, is its one
    caller. The batch is trusted: ``as_batch`` checked the features and
    labels it is drawn from, once per training call.
    """
    # A failing run may overflow or make NaNs; the checks below name it.
    with np.errstate(over="ignore", invalid="ignore"):
        losses, norms, grad_sum = batch_loss_and_grads(
            spec, params, x_batch, y_batch, config.clip_norm)
        # A finite norm implies finite gradients.
        grads_ok = (np.isfinite(losses).all(axis=-1)
                    & np.isfinite(norms).all(axis=-1))
        if audit_hook is not None and grads_ok[0]:
            audit_hook(step, norms[0] * clip_scale(norms[0], config.clip_norm))
        m = x_batch.shape[0]
        update = (grad_sum + noise_std * noise_vec) / m
        new = params - config.learning_rate * update
        # A finite row whose norm overflows would be projected onto 0.
        bad_norm = ()
        if config.projection_radius is not None:
            bad_norm = []
            for r, row in enumerate(new):
                norm = _norm(row)
                if not math.isfinite(norm):
                    bad_norm.append(r)
                if norm > config.projection_radius:
                    new[r] = row * (config.projection_radius / norm)
        # A non-finite update makes a non-finite iterate, projected or not.
        new_ok = np.isfinite(new).all(axis=-1)
    failed = {}
    if bad_norm or not (grads_ok.all() and new_ok.all()):
        update_ok = np.isfinite(update).all(axis=-1)
        for r in range(len(new)):
            if not grads_ok[r]:
                failed[r] = f"non-finite loss or gradient at step {step}"
            elif not update_ok[r]:
                failed[r] = f"non-finite gradient update at step {step}"
            elif not new_ok[r]:
                failed[r] = f"non-finite iterate at step {step}"
            elif r in bad_norm:
                failed[r] = f"non-finite projection norm at step {step}"
    return new, failed


def _multipliers(config: TrainConfig,
                 noise_multipliers: Sequence[float] | None) -> list[float]:
    """The noise multiplier of each lockstep run: ``noise_multipliers``, or
    the one of ``config`` when it is None."""
    if noise_multipliers is None:
        return [config.noise_multiplier]
    sigmas = list(noise_multipliers)
    if not sigmas or not all(s >= 0.0 for s in sigmas):
        raise ValueError("noise_multipliers must be a nonempty sequence of "
                         "nonnegative values")
    return sigmas


def dp_sgd_train(
    dataset: Dataset,
    spec: ModelSpec,
    config: TrainConfig,
    audit_hook: Callable[[int, np.ndarray], None] | None = None,
    *,
    noise_multipliers: Sequence[float] | None = None,
) -> TrainedModel | list[TrainedModel | NumericFailureError]:
    """Train with DP-SGD; bit-reproducible for a fixed config.

    ``audit_hook(step, clipped_norms)``, when given, observes the post-clip
    per-sample gradient norms of every processed batch.

    With ``noise_multipliers``, one run per multiplier replaces the run at
    ``config.noise_multiplier``, all R advancing on each step's one mask and
    noise vector. The result is then a list holding, per multiplier, the
    model that a call with that multiplier alone returns, bit for bit, or
    the ``NumericFailureError`` that such a call raises; a failed run leaves
    the others unchanged. ``audit_hook`` is rejected with more than one run.
    """
    sigmas = _multipliers(config, noise_multipliers)
    if audit_hook is not None and len(sigmas) > 1:
        raise ValueError("audit_hook observes a single run")
    x, y = as_batch(spec, dataset.features, dataset.labels)
    n = dataset.n
    p = param_count(spec)
    mask_rng, noise_rng, _, init_rng = _spawn_streams(config.seed)
    runs = len(sigmas)
    params = np.tile(init_params(spec, init_rng), (runs, 1))
    std = np.array(sigmas, dtype=float)[:, None] * config.clip_norm
    outcome: list = [None] * runs
    # Row i of params is run live[i].
    live = list(range(runs))
    for t, idx, noise in _draws(n, p, config, mask_rng, noise_rng):
        if idx.size == 0:
            continue
        params, failed = _batch_update(spec, params, x[idx], y[idx], noise,
                                       std, config, t, audit_hook)
        if failed:
            for i, msg in failed.items():
                outcome[live[i]] = NumericFailureError(msg)
            keep = [i for i in range(len(live)) if i not in failed]
            params, std = params[keep], std[keep]
            live = [live[i] for i in keep]
            if not live:
                break
    for i, r in enumerate(live):
        record = SgdAccountingRecord(sigmas[r], config.sampling_rate,
                                     config.steps)
        outcome[r] = TrainedModel(spec, params[i], record)
    if noise_multipliers is None:
        if isinstance(outcome[0], NumericFailureError):
            raise outcome[0]
        return outcome[0]
    return outcome


def coupled_train(
    base: Dataset,
    extra_point: tuple[np.ndarray, float | int],
    spec: ModelSpec,
    config: TrainConfig,
    theta_star: np.ndarray | None = None,
    extra_schedule: np.ndarray | None = None,
    *,
    noise_multipliers: Sequence[float] | None = None,
) -> CouplingTrace | list[CouplingTrace | NumericFailureError]:
    """Run DP-SGD on ``base`` and on ``base + extra_point`` in lockstep.

    Both trajectories share the initialization, the inclusion masks of the n
    shared points, and the Gaussian noise vectors; the extra point gets an
    independent Bernoulli(q) inclusion stream (or the boolean
    ``extra_schedule`` override, used by the tests to force exclusion).

    With ``noise_multipliers``, one such pair runs per multiplier in place of
    ``config.noise_multiplier``, all 2R trajectories advancing on each step's
    one mask, noise vector and extra-point flag. The result is then a list
    holding, per multiplier, the trace that a call with that multiplier
    alone returns, bit for bit, or the ``NumericFailureError`` that such a
    call raises; a failed run leaves the others unchanged. A run whose gap
    or error norm is not finite fails too, naming the first such step.
    """
    sigmas = _multipliers(config, noise_multipliers)
    x, y = as_batch(spec, base.features, base.labels)
    n = base.n
    p = param_count(spec)
    x_extra, y_extra = as_batch(spec, extra_point[0], [extra_point[1]])
    mask_rng, noise_rng, extra_rng, init_rng = _spawn_streams(config.seed)
    init = init_params(spec, init_rng)
    if extra_schedule is not None:
        extra_schedule = np.asarray(extra_schedule, dtype=bool)
        if extra_schedule.shape != (config.steps,):
            raise ValueError("extra_schedule must have one flag per step")

    runs = len(sigmas)
    gaps = np.zeros((runs, config.steps + 1))
    errors = None
    if theta_star is not None:
        theta_star = np.asarray(theta_star, dtype=float)
        if theta_star.shape != (p,):
            raise ValueError("theta_star must live in the flat parameter space")
        errors = np.zeros((runs, config.steps + 1))
        errors[:, 0] = _norm(init - theta_star)
    first_divergence: int | None = None
    outcome: list = [None] * runs

    # Row i < a of theta is live run live[i] on base, row a + i the same
    # run on base + extra_point.
    live = list(range(runs))
    theta = np.tile(init, (2 * runs, 1))
    std = np.array(sigmas, dtype=float)[:, None] * config.clip_norm
    std_both = np.concatenate([std, std])
    for t, idx, noise in _draws(n, p, config, mask_rng, noise_rng):
        if extra_schedule is not None:
            extra_in = bool(extra_schedule[t])
        else:
            extra_in = bool(extra_rng.random() < config.sampling_rate)
        if extra_in and first_divergence is None:
            first_divergence = t
        a = len(live)
        if not extra_in:
            failed = {}
            if idx.size > 0:
                theta, failed = _batch_update(spec, theta, x[idx], y[idx],
                                              noise, std_both, config, t)
        else:
            new_a, failed = theta[:a], {}
            if idx.size > 0:
                new_a, failed = _batch_update(spec, new_a, x[idx], y[idx],
                                              noise, std, config, t)
            new_b, failed_b = _batch_update(
                spec, theta[a:], np.concatenate([x[idx], x_extra]),
                np.concatenate([y[idx], y_extra]), noise, std, config, t)
            theta = np.concatenate([new_a, new_b])
            failed.update((a + i, msg) for i, msg in failed_b.items())
        if failed:
            # A run fails with its base trajectory's message first, as the
            # base update runs first when it trains alone.
            dead: dict[int, str] = {}
            for row in sorted(failed):
                dead.setdefault(row % a, failed[row])
            for i, msg in dead.items():
                outcome[live[i]] = NumericFailureError(msg)
            keep = [i for i in range(a) if i not in dead]
            theta = theta[keep + [a + i for i in keep]]
            std = std[keep]
            std_both = np.concatenate([std, std])
            live = [live[i] for i in keep]
            if not live:
                break
        gap_rows = theta[:len(live)] - theta[len(live):]
        for i, r in enumerate(live):
            gaps[r, t + 1] = _norm(gap_rows[i])
        if errors is not None:
            error_rows = theta[:len(live)] - theta_star
            for i, r in enumerate(live):
                errors[r, t + 1] = _norm(error_rows[i])

    # A norm can overflow while the iterate stays finite. Such a run fails at
    # the first step whose gap or error norm is not finite, which precedes
    # any failure in the loop (a failed run's later entries stay 0). The
    # series are scanned once here, not on every step.
    named = [("gap", gaps)] + ([] if errors is None else [("error", errors)])
    for r in range(runs):
        firsts = []
        for name, series in named:
            bad = np.flatnonzero(~np.isfinite(series[r, 1:]))
            if bad.size:
                firsts.append((int(bad[0]), name))
        if firsts:
            step, name = min(firsts, key=lambda f: f[0])  # gap wins a tie
            outcome[r] = NumericFailureError(
                f"non-finite {name} norm at step {step}")

    traces = [CouplingTrace(
        gap_series=gaps[r],
        error_series=None if errors is None else errors[r],
        diverged=first_divergence is not None,
        first_divergence_step=first_divergence,
    ) if outcome[r] is None else outcome[r] for r in range(runs)]
    if noise_multipliers is None:
        if isinstance(traces[0], NumericFailureError):
            raise traces[0]
        return traces[0]
    return traces
