"""Differentially private SGD with Poisson subsampling, gradient clipping,
Gaussian noise, and optional l2-ball projection, plus the synchronized
coupling that trains two runs on adjacent datasets in lockstep.

Randomness discipline: one root seed expands into three named streams
(shared inclusion masks, Gaussian noise, extra-point inclusions). The
standalone trainer and the coupled runner read the first two streams through
one per-step source, so a coupled run sees exactly the batches and noise of
the standalone run, and its two trajectories are bitwise equal until the
extra point is sampled for the first time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .accounting import SgdAccountingRecord
from .models import (Dataset, ModelSpec, batch_loss_and_grads, init_params,
                     param_count)

__all__ = ["CouplingTrace", "NumericFailureError", "TrainConfig",
           "TrainedModel", "clip_gradient", "coupled_train", "dp_sgd_train",
           "expected_inverse_batch", "poisson_sample",
           "stability_bound_smooth", "stability_bound_universal"]


class NumericFailureError(RuntimeError):
    """A training step produced a non-finite loss, gradient, or iterate."""


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
    accounting: tuple[SgdAccountingRecord, ...]
    seed: int


@dataclass(frozen=True)
class CouplingTrace:
    """Per-step l2 gap between the coupled trajectories, and the distance of
    the n-point run to a reference parameter when one is supplied."""

    gap_series: np.ndarray
    error_series: np.ndarray | None
    diverged: bool
    first_divergence_step: int | None


def clip_gradient(grad: np.ndarray, clip_norm: float) -> np.ndarray:
    """Rescale onto the l2 ball of radius clip_norm; identity inside it."""
    if clip_norm <= 0.0:
        raise ValueError("clip_norm must be positive")
    grad = np.asarray(grad, dtype=float)
    norm = float(np.linalg.norm(grad))
    if norm <= clip_norm:
        return grad.copy()
    return grad * (clip_norm / norm)


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


def expected_inverse_batch(n: int, rate_q: float) -> float:
    """E[1/(K+1)] for K ~ Binomial(n, rate_q)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 < rate_q <= 1.0:
        raise ValueError("rate_q must lie in (0, 1]")
    return (1.0 - (1.0 - rate_q) ** (n + 1)) / ((n + 1) * rate_q)


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


def _batch_update(
    spec: ModelSpec,
    params: np.ndarray,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    noise_vec: np.ndarray,
    config: TrainConfig,
    step: int,
    audit_hook: Callable[[int, np.ndarray], None] | None,
) -> np.ndarray:
    """One noisy clipped-mean gradient step on a nonempty batch."""
    losses, grads = batch_loss_and_grads(spec, params, x_batch, y_batch)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(grads, axis=1)
    if (not np.all(np.isfinite(losses)) or not np.all(np.isfinite(grads))
            or not np.all(np.isfinite(norms))):
        raise NumericFailureError(f"non-finite loss or gradient at step {step}")
    scale = np.minimum(1.0, config.clip_norm / np.maximum(norms, 1e-300))
    clipped = grads * scale[:, None]
    if audit_hook is not None:
        audit_hook(step, norms * scale)
    m = x_batch.shape[0]
    update = (clipped.sum(axis=0)
              + config.noise_multiplier * config.clip_norm * noise_vec) / m
    if not np.all(np.isfinite(update)):
        raise NumericFailureError(f"non-finite gradient update at step {step}")
    new = params - config.learning_rate * update
    if config.projection_radius is not None:
        norm = float(np.linalg.norm(new))
        if norm > config.projection_radius:
            new = new * (config.projection_radius / norm)
    if not np.all(np.isfinite(new)):
        raise NumericFailureError(f"non-finite iterate at step {step}")
    return new


def dp_sgd_train(
    dataset: Dataset,
    spec: ModelSpec,
    config: TrainConfig,
    audit_hook: Callable[[int, np.ndarray], None] | None = None,
) -> TrainedModel:
    """Train with DP-SGD; bit-reproducible for a fixed config.

    ``audit_hook(step, clipped_norms)``, when given, observes the post-clip
    per-sample gradient norms of every processed batch.
    """
    x, y = dataset.features, dataset.labels
    n = dataset.n
    p = param_count(spec)
    mask_rng, noise_rng, _, init_rng = _spawn_streams(config.seed)
    params = init_params(spec, init_rng)
    for t, idx, noise in _draws(n, p, config, mask_rng, noise_rng):
        if idx.size == 0:
            continue
        params = _batch_update(spec, params, x[idx], y[idx], noise, config, t,
                               audit_hook)
    record = SgdAccountingRecord(config.noise_multiplier, config.sampling_rate,
                                 config.steps)
    return TrainedModel(spec, params, (record,), config.seed)


def coupled_train(
    base: Dataset,
    extra_point: tuple[np.ndarray, float | int],
    spec: ModelSpec,
    config: TrainConfig,
    theta_star: np.ndarray | None = None,
    extra_schedule: np.ndarray | None = None,
) -> CouplingTrace:
    """Run DP-SGD on ``base`` and on ``base + extra_point`` in lockstep.

    Both trajectories share the initialization, the inclusion masks of the n
    shared points, and the Gaussian noise vectors; the extra point gets an
    independent Bernoulli(q) inclusion stream (or the boolean
    ``extra_schedule`` override, used by the tests to force exclusion).
    """
    x, y = base.features, base.labels
    n = base.n
    p = param_count(spec)
    x_extra = np.asarray(extra_point[0], dtype=float)[None, :]
    y_extra = np.asarray([extra_point[1]])
    mask_rng, noise_rng, extra_rng, init_rng = _spawn_streams(config.seed)
    init = init_params(spec, init_rng)
    theta_a = init.copy()
    theta_b = init.copy()
    if extra_schedule is not None:
        extra_schedule = np.asarray(extra_schedule, dtype=bool)
        if extra_schedule.shape != (config.steps,):
            raise ValueError("extra_schedule must have one flag per step")

    gaps = np.zeros(config.steps + 1)
    errors = np.zeros(config.steps + 1) if theta_star is not None else None
    if theta_star is not None:
        theta_star = np.asarray(theta_star, dtype=float)
        if theta_star.shape != (p,):
            raise ValueError("theta_star must live in the flat parameter space")
        errors[0] = float(np.linalg.norm(theta_a - theta_star))
    first_divergence: int | None = None

    for t, idx, noise in _draws(n, p, config, mask_rng, noise_rng):
        if extra_schedule is not None:
            extra_in = bool(extra_schedule[t])
        else:
            extra_in = bool(extra_rng.random() < config.sampling_rate)
        if extra_in and first_divergence is None:
            first_divergence = t
        if idx.size > 0:
            theta_a = _batch_update(spec, theta_a, x[idx], y[idx], noise,
                                    config, t, None)
        if idx.size > 0 or extra_in:
            if extra_in:
                xb = np.concatenate([x[idx], x_extra])
                yb = np.concatenate([y[idx], y_extra])
            else:
                xb, yb = x[idx], y[idx]
            theta_b = _batch_update(spec, theta_b, xb, yb, noise, config, t,
                                    None)
        gaps[t + 1] = float(np.linalg.norm(theta_a - theta_b))
        if errors is not None:
            errors[t + 1] = float(np.linalg.norm(theta_a - theta_star))

    return CouplingTrace(
        gap_series=gaps,
        error_series=errors,
        diverged=first_divergence is not None,
        first_divergence_step=first_divergence,
    )
