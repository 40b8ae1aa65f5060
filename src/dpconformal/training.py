"""Differentially private SGD with Poisson subsampling, gradient clipping,
Gaussian noise, and optional l2-ball projection, plus the synchronized
coupling that trains two runs on adjacent datasets in lockstep.

Randomness discipline: one root seed expands into four named streams
(shared inclusion masks, Gaussian noise, extra-point inclusions, the mlp's
initial parameters). The standalone trainer and the coupled runner read the
first two streams through one per-step source, so a coupled run sees exactly
the batches and noise of the standalone run, and its two trajectories are
bitwise equal until the extra point is sampled for the first time. That
source draws a block of steps at a time: the block's Poisson inclusions by
geometric gaps, in time proportional to its batch rows rather than to n per
step, and its noise vectors as one matrix.

Both trainers run one step loop, ``_lockstep``, which advances a stack of
runs that differ only in their noise multiplier on one shared batch, so a
standalone call can carry R runs and a coupled call R pairs in lockstep;
every run keeps the bits it has when trained alone.

No array of the training set's length is derived from it, and every per-step
array is bounded by a block constant, not by the step count or the stack,
though a block always holds at least one step or one run: a block of steps
gathers about ``_BATCH_BLOCK_ROWS`` batch rows, through a trainer's ``rows``
if given, takes their norms and draws at most ``_NOISE_BLOCK_FLOATS`` noise
floats at a time; a coupled call takes its gap and error norms from at most
``_NORM_BLOCK_FLOATS`` floats of iterates; and a step advances its stack one
block of runs at a time, whose widest temporary, (runs, batch rows, widest
layer output), holds at most ``_STEP_BLOCK_FLOATS`` floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .accounting import SgdAccountingRecord
from .models import (Dataset, ModelSpec, as_batch, init_params, is_count,
                     param_count, sq_row_norms)
# The step's one gradient call, the ghost-norm kernel. It is bound under the
# name by which the traced benchmark (bench/layers.py) wraps this module's
# gradient call; models.batch_loss_and_grads, which forms the per-sample
# gradients, is its test oracle and is not called here.
from .models import clipped_grad_sum as batch_loss_and_grads

__all__ = ["CouplingTrace", "NumericFailureError", "TrainConfig",
           "TrainedModel", "coupled_train", "dp_sgd_train", "poisson_sample",
           "stability_bound_smooth"]


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
        # Written so that NaN fails every check: a NaN radius would never
        # project, and a NaN or infinite step size or clip norm would fail
        # at the first step instead of here.
        for name in ("learning_rate", "clip_norm", "projection_radius"):
            value = getattr(self, name)
            if name == "projection_radius" and value is None:
                continue
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got "
                                 f"{value}")
        if not is_count(self.steps) or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got "
                             f"{self.steps!r}")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError("sampling_rate must lie in (0, 1]")
        if not self.noise_multiplier >= 0.0:
            raise ValueError("noise_multiplier must be nonnegative, got "
                             f"{self.noise_multiplier}")


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
    """Indices, ascending, included by i.i.d. Bernoulli(rate_q) draws: one
    step of the trainers' block sampler (``_poisson_block``) on the
    stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= rate_q <= 1.0:
        raise ValueError("rate_q must lie in [0, 1]")
    return _poisson_block(n, rate_q, 1, stream)[0]


def _poisson_block(n: int, rate_q: float, steps: int,
                   stream: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """The Poisson batches of ``steps`` consecutive steps over ``n`` rows:
    their row indices, each step's ascending, concatenated step by step, and
    the steps + 1 offsets that cut them into steps.

    The block's steps * n (step, row) inclusion trials are laid out step-major
    and its successes found by geometric(rate_q) gaps between them (Devroye
    1986, "Non-Uniform Random Variate Generation"), so a block costs time in
    proportion to the rows it includes. The successes of a Bernoulli(rate_q)
    trial sequence are the running sums of i.i.d. geometric gaps, so the law
    is the per-row draw's up to floating-point rounding, as a uniform
    compared with rate_q is; by memorylessness a block may start a fresh gap
    sequence, discarding the gaps that overrun it.
    """
    trials = steps * n
    if rate_q == 0.0:  # geometric rejects p = 0
        return np.empty(0, dtype=np.intp), [0] * (steps + 1)
    mean = trials * rate_q
    chunk = int(mean + 4.0 * math.sqrt(mean)) + 8

    def ends() -> np.ndarray:
        # A gap past the block is clipped to one past it: numpy returns
        # INT64_MAX for a tiny rate, whose running sum would wrap negative.
        gaps = stream.geometric(rate_q, chunk)
        return np.minimum(gaps, trials + 1, out=gaps).cumsum(out=gaps)

    # The 1-based trial number of each success, drawn until one overruns.
    hits = ends()
    while hits[-1] <= trials:
        more = ends()
        more += hits[-1]
        hits = np.concatenate([hits, more])
    pos = hits[:np.searchsorted(hits, trials, "right")]
    pos -= 1
    bounds = np.searchsorted(pos, np.arange(0, trials + 1, n)).tolist()
    return np.remainder(pos, n, out=pos), bounds


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


# A block of steps has its Poisson batches drawn and gathered together: it
# expects about _BATCH_BLOCK_ROWS batch rows in all, and holds at most that
# many steps. Its noise vectors are drawn at most _NOISE_BLOCK_FLOATS floats
# (256 KiB) at a time, which bounds the memory of small batches on a large
# model and changes no bit of them.
_BATCH_BLOCK_ROWS = 1 << 10
_NOISE_BLOCK_FLOATS = 1 << 15


def _draws(
    x: np.ndarray,
    y: np.ndarray,
    p: int,
    config: TrainConfig,
    mask_rng: np.random.Generator,
    noise_rng: np.random.Generator,
    rows: np.ndarray | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                    np.ndarray]]:
    """Each step's Poisson batch over the rows of ``x``, or its ``rows``,
    as ``(t, idx, x_batch, sq_batch, y_batch, noise)``: its indices into
    them, ascending, the rows' features, ``sq_row_norms`` and labels, and
    the step's standard normal noise vector of length ``p``.

    The steps come a block at a time: the block's batches from one
    ``_poisson_block`` draw on ``mask_rng``, its rows gathered with one
    ``take`` per array, their norms from the gathered rows, and its noise as
    (steps, p) draws on ``noise_rng``, bit-equal to one (p,) draw per step.
    Each step gets contiguous views of them. The blocks depend on n and the
    sampling rate alone, so a run's batches are the first ones of any longer
    run. An empty batch is yielded as is: the accounting assumes plain
    Poisson sampling at ``config.sampling_rate``, so it is never redrawn."""
    n = x.shape[0] if rows is None else len(rows)
    rate = config.sampling_rate
    per_block = max(1, int(min(_BATCH_BLOCK_ROWS / (rate * n),
                               _BATCH_BLOCK_ROWS)))
    noise_rows = max(1, _NOISE_BLOCK_FLOATS // p)
    for t0 in range(0, config.steps, per_block):
        steps = min(per_block, config.steps - t0)
        idx, bounds = _poisson_block(n, rate, steps, mask_rng)
        at = idx if rows is None else rows.take(idx)
        xs, ys = x.take(at, 0), y.take(at)
        sqs = sq_row_norms(xs)
        for i in range(steps):
            if i % noise_rows == 0:
                noise = noise_rng.standard_normal(
                    (min(noise_rows, steps - i), p))
            a, b = bounds[i], bounds[i + 1]
            yield (t0 + i, idx[a:b], xs[a:b], sqs[a:b], ys[a:b],
                   noise[i % noise_rows])


def _norms(rows: np.ndarray) -> np.ndarray:
    """l2 norm of each row of a C-contiguous (N, P) array, as
    ``np.linalg.norm`` computes it for the row alone: the sqrt of its BLAS
    dot, which the stacked (1, P) @ (P, 1) matmul makes once per row. The
    per-row reduction of ``norm(..., axis=-1)`` differs in the last bit."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0, 0]


# A coupled call takes the gap and error norms of a block of steps at once;
# the block holds the 2R iterates of each step, at most this many floats.
_NORM_BLOCK_FLOATS = 1 << 13


def _record_norms(iterates: np.ndarray, t0: int, gaps: np.ndarray,
                  errors: np.ndarray | None,
                  theta_star: np.ndarray | None) -> None:
    """Write the gap and error norms of ``iterates``, the (k, 2R, P) coupled
    stacks after steps t0 to t0 + k - 1, into those steps' entries of the
    (R, T + 1) series. A norm may overflow, or be NaN on a failed run's
    garbage rows; ``coupled_train`` scans the series for it."""
    k, rows, p = iterates.shape
    runs = rows // 2
    done = slice(t0 + 1, t0 + 1 + k)
    base = iterates[:, :runs]
    with np.errstate(over="ignore", invalid="ignore"):
        gaps[:, done] = _norms((base - iterates[:, runs:]).reshape(-1, p)
                               ).reshape(k, runs).T
        if errors is not None:
            errors[:, done] = _norms((base - theta_star).reshape(-1, p)
                                     ).reshape(k, runs).T


def _batch_update(
    spec: ModelSpec,
    params: np.ndarray,
    x_batch: np.ndarray,
    x_sq: np.ndarray,
    y_batch: np.ndarray,
    noise_vec: np.ndarray,
    noise_std: np.ndarray,
    config: TrainConfig,
    step: int,
) -> dict[int, str]:
    """One noisy clipped-mean gradient step of a stack of runs on one
    nonempty shared batch, made in place in ``params``.

    ``params`` is (R, P) and ``noise_std`` (R, 1) holds each run's
    noise_multiplier * clip_norm; ``x_sq`` holds the ``sq_row_norms`` of
    the batch's features. Returns, for each run that failed a finiteness
    check (a projected run's norm included), the message of the first check
    it failed. A failed run's row is garbage; every other row is bit-equal
    to the step that run would take alone. The batch is trusted:
    ``as_batch`` checked the features and labels it is drawn from, once per
    training call. A failing run may overflow or make NaNs, so the caller
    ignores overflow and invalid values (``np.errstate``) around its step
    loop; the checks here name the failure.
    """
    losses, norms, update = batch_loss_and_grads(
        spec, params, x_batch, y_batch, config.clip_norm, x_sq=x_sq,
        with_losses=False)
    update += noise_std * noise_vec
    update /= x_batch.shape[0]
    params -= config.learning_rate * update
    # Every check passes when one sum of what they check is finite, since a
    # sum is finite only if every term is: the norms (a finite norm implies
    # finite gradients and, for a classifier head, a finite loss, which is
    # therefore not computed), a regression head's losses (which can
    # overflow where the norm does not), and the iterates, or a projected
    # run's norm, which is finite only if its iterate is. A non-finite
    # update makes a non-finite iterate. Only when the sum is not finite are
    # the runs checked one by one.
    total = np.add.reduce(norms, None)
    if losses is not None:
        total += np.add.reduce(losses, None)
    if config.projection_radius is None:
        total += np.add.reduce(params, None)
    else:
        radius = config.projection_radius
        norm = _norms(params)
        total += np.add.reduce(norm, None)
        # A finite row whose norm overflows would be projected onto 0.
        over = norm > radius
        if over.any():
            params[over] *= (radius / norm[over])[:, None]
    if math.isfinite(total):
        return {}
    # Projection keeps a row finite or not, so the iterates are checked
    # after it.
    grads_ok = np.isfinite(norms).all(axis=-1)
    if losses is not None:
        grads_ok &= np.isfinite(losses).all(axis=-1)
    update_ok = np.isfinite(update).all(axis=-1)
    new_ok = np.isfinite(params).all(axis=-1)
    ok = grads_ok & new_ok
    if config.projection_radius is not None:
        ok &= np.isfinite(norm)
    failed = {}
    for r in np.flatnonzero(~ok).tolist():
        if not grads_ok[r]:
            failed[r] = f"non-finite loss or gradient at step {step}"
        elif not update_ok[r]:
            failed[r] = f"non-finite gradient update at step {step}"
        elif not new_ok[r]:
            failed[r] = f"non-finite iterate at step {step}"
        else:
            failed[r] = f"non-finite projection norm at step {step}"
    return failed


# A step advances its stack a block of runs at a time: the block's widest
# temporary, (runs, batch rows, widest layer output), holds at most this many
# floats (256 KiB), or one run's. A run's bits do not depend on the runs
# beside it, so the blocks change none of them.
_STEP_BLOCK_FLOATS = 1 << 15


def _blocked_update(spec: ModelSpec, params: np.ndarray, x_batch: np.ndarray,
                    x_sq: np.ndarray, y_batch: np.ndarray,
                    noise_vec: np.ndarray, noise_std: np.ndarray,
                    config: TrainConfig, step: int,
                    width: int) -> dict[int, str]:
    """``_batch_update`` on the (R, P) stack ``params``, made one block of
    runs at a time; ``width`` is the spec's widest layer output. A failed
    run keeps its row index in the stack. A stack that fits in one block is
    one call."""
    per_block = max(1, _STEP_BLOCK_FLOATS // (x_batch.shape[0] * width))
    if per_block >= params.shape[0]:
        return _batch_update(spec, params, x_batch, x_sq, y_batch, noise_vec,
                             noise_std, config, step)
    failed = {}
    for r0 in range(0, params.shape[0], per_block):
        block = slice(r0, r0 + per_block)
        failed.update(
            (r0 + r, msg) for r, msg in _batch_update(
                spec, params[block], x_batch, x_sq, y_batch, noise_vec,
                noise_std[block], config, step).items())
    return failed


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


def _fail(outcome: list, failed: dict[int, str], step: int) -> bool:
    """Give each run that ``failed`` names for the first time the ``step``
    and the error of its lowest failed row; returns whether every run has
    failed. A run is live while its ``outcome`` is None. Row r of the stack
    belongs to run r % len(outcome): a coupled call stacks the base
    trajectories above the extra ones, and a run alone updates its base
    trajectory first."""
    for row in sorted(failed):
        r = row % len(outcome)
        if outcome[r] is None:
            outcome[r] = (step, NumericFailureError(failed[row]))
    return None not in outcome


def _lockstep(spec: ModelSpec, x: np.ndarray, y: np.ndarray,
              config: TrainConfig, sigmas: list[float], init: np.ndarray,
              mask_rng: np.random.Generator, noise_rng: np.random.Generator,
              extra: tuple | None = None, on_step: Callable | None = None,
              rows: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """The DP-SGD step loop of both trainers: one run per noise multiplier
    in ``sigmas``, each from ``init``, all advancing on each step's one
    Poisson batch of (``x``, ``y``), or their ``rows``, and one noise vector.

    Returns the stack of final iterates and, per run, None or the (step,
    ``NumericFailureError``) of its first failed check; a failed run's rows
    are garbage that no other row reads, and the loop stops once every run
    has failed. With ``extra`` = (x_extra, y_extra, flags) the stack is 2R
    rows: row r is run r on the batches of (``x``, ``y``), and row R + r the
    same run with the extra rows added to each step whose flag is set, on
    which the two halves step apart. ``on_step(t, stack)`` sees the stack
    after each step t the loop completes."""
    runs = len(sigmas)
    stack = np.tile(init, (runs if extra is None else 2 * runs, 1))
    width = max(fan_out for _, fan_out in spec.layer_dims())
    std = np.array(sigmas, dtype=float)[:, None] * config.clip_norm
    std_all = std if extra is None else np.concatenate([std, std])
    outcome: list = [None] * runs
    # A failing run may overflow or make NaNs; _batch_update names it.
    with np.errstate(over="ignore", invalid="ignore"):
        if extra is not None:
            x_extra, y_extra, flags = extra
            sq_extra = sq_row_norms(x_extra)
        for t, idx, xb, sqb, yb, noise in _draws(
                x, y, stack.shape[1], config, mask_rng, noise_rng, rows):
            failed = {}
            if extra is None or not flags[t]:
                if idx.size > 0:
                    failed = _blocked_update(spec, stack, xb, sqb, yb, noise,
                                             std_all, config, t, width)
            else:
                if idx.size > 0:
                    failed = _blocked_update(spec, stack[:runs], xb, sqb, yb,
                                             noise, std, config, t, width)
                failed_b = _blocked_update(
                    spec, stack[runs:], np.concatenate([xb, x_extra]),
                    np.concatenate([sqb, sq_extra]),
                    np.concatenate([yb, y_extra]), noise, std, config, t,
                    width)
                failed.update((runs + r, msg) for r, msg in failed_b.items())
            if failed and _fail(outcome, failed, t):
                break
            if on_step is not None:
                on_step(t, stack)
    return stack, outcome


def _result(outcome: list, noise_multipliers: Sequence[float] | None):
    """What a trainer returns: the per-run list for ``noise_multipliers``,
    else the one run's result, or its error raised."""
    if noise_multipliers is not None:
        return outcome
    (result,) = outcome
    if isinstance(result, NumericFailureError):
        raise result
    return result


def dp_sgd_train(
    dataset: Dataset,
    spec: ModelSpec,
    config: TrainConfig,
    *,
    rows: np.ndarray | None = None,
    noise_multipliers: Sequence[float] | None = None,
) -> TrainedModel | list[TrainedModel | NumericFailureError]:
    """Train with DP-SGD; bit-reproducible for a fixed config. With ``rows``
    (nonempty integer indices) it trains on ``dataset.subset(rows)`` bit for
    bit without building it; every label must be one the head reads.

    With ``noise_multipliers``, one run per multiplier replaces the run at
    ``config.noise_multiplier``, all R advancing on each step's one mask and
    noise vector. The result is then a list holding, per multiplier, the
    model that a call with that multiplier alone returns, bit for bit, or
    the ``NumericFailureError`` that such a call raises; a failed run leaves
    the others unchanged.
    """
    sigmas = _multipliers(config, noise_multipliers)
    if rows is not None and (len(rows) == 0 or rows.dtype == bool):
        raise ValueError("rows must be a nonempty integer index array")
    x, y = as_batch(spec, dataset.features, dataset.labels)
    mask_rng, noise_rng, _, init_rng = _spawn_streams(config.seed)
    params, failures = _lockstep(spec, x, y, config, sigmas,
                                 init_params(spec, init_rng), mask_rng,
                                 noise_rng, rows=rows)
    return _result([
        TrainedModel(spec, params[r], SgdAccountingRecord(
            sigma, config.sampling_rate, config.steps))
        if failure is None else failure[1]
        for r, (sigma, failure) in enumerate(zip(sigmas, failures))],
        noise_multipliers)


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
    ``extra_schedule`` override, used by the tests to force exclusion). Its
    flags for every step are taken once per call, and the first step that
    includes it is the first divergence step.

    With ``noise_multipliers``, one such pair runs per multiplier in place of
    ``config.noise_multiplier``, all 2R trajectories advancing on each step's
    one mask, noise vector and extra-point flag. The result is then a list
    holding, per multiplier, the trace that a call with that multiplier
    alone returns, bit for bit, or the ``NumericFailureError`` that such a
    call raises; a failed run leaves the others unchanged. A run whose gap
    or error norm is not finite fails too, naming the first such step.

    Each step's gap and error norms are the 1-D ``np.linalg.norm`` of the
    run's difference vector, bit for bit; they are taken a block of steps at
    a time, from the iterates the block holds (at most
    ``_NORM_BLOCK_FLOATS`` floats).
    """
    sigmas = _multipliers(config, noise_multipliers)
    x, y = as_batch(spec, base.features, base.labels)
    p = param_count(spec)
    x_extra, y_extra = as_batch(spec, extra_point[0], [extra_point[1]])
    mask_rng, noise_rng, extra_rng, init_rng = _spawn_streams(config.seed)
    init = init_params(spec, init_rng)
    if extra_schedule is not None:
        extra_flags = np.asarray(extra_schedule, dtype=bool)
        if extra_flags.shape != (config.steps,):
            raise ValueError("extra_schedule must have one flag per step")
    else:
        extra_flags = extra_rng.random(config.steps) < config.sampling_rate
    hits = np.flatnonzero(extra_flags)
    first_divergence = int(hits[0]) if hits.size else None

    runs = len(sigmas)
    gaps = np.zeros((runs, config.steps + 1))
    errors = None
    if theta_star is not None:
        theta_star = np.asarray(theta_star, dtype=float)
        if theta_star.shape != (p,):
            raise ValueError("theta_star must live in the flat parameter space")
        errors = np.zeros((runs, config.steps + 1))
        errors[:, 0] = _norms((init - theta_star)[None])[0]

    # The iterates of the steps from t0 on, whose norms are taken together
    # once the block is full.
    block = np.empty((max(1, min(config.steps,
                                 _NORM_BLOCK_FLOATS // (2 * runs * p))),
                      2 * runs, p))
    t0 = held = 0

    def on_step(t: int, theta: np.ndarray) -> None:
        nonlocal t0, held
        block[held] = theta
        held += 1
        if held == len(block):
            _record_norms(block, t0, gaps, errors, theta_star)
            t0, held = t + 1, 0

    _, failures = _lockstep(spec, x, y, config, sigmas, init, mask_rng,
                            noise_rng, (x_extra, y_extra, extra_flags),
                            on_step)
    _record_norms(block[:held], t0, gaps, errors, theta_star)

    # A norm can overflow while the iterate stays finite. Such a run fails at
    # the first step whose gap or error norm is not finite, which precedes
    # any failure in the loop; a failed run's series are scanned only up to
    # its failure step. The series are scanned once here, not on every step.
    named = [("gap", gaps)] + ([] if errors is None else [("error", errors)])
    outcome = []
    for r, failure in enumerate(failures):
        stop = config.steps if failure is None else failure[0]
        firsts = []
        for name, series in named:
            bad = np.flatnonzero(~np.isfinite(series[r, 1:stop + 1]))
            if bad.size:
                firsts.append((int(bad[0]), name))
        if firsts:
            step, name = min(firsts, key=lambda f: f[0])  # gap wins a tie
            failure = (step, NumericFailureError(
                f"non-finite {name} norm at step {step}"))
        outcome.append(CouplingTrace(
            gap_series=gaps[r],
            error_series=None if errors is None else errors[r],
            diverged=first_divergence is not None,
            first_divergence_step=first_divergence,
        ) if failure is None else failure[1])
    return _result(outcome, noise_multipliers)
