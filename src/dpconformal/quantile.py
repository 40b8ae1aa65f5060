"""Private quantile estimation on nonconformity scores.

Two search variants run one noisy bisection over count queries: the
buffered right-endpoint search (conservative by construction: the right
endpoint only moves when the noisy count clears an inflated rank threshold,
and the right endpoint is what gets returned) and the fragile
midpoint-return baseline it replaces. The exact order-statistic quantile is
here as well for the non-private pipelines.

The noise stream accepts a deterministic override sequence so adversarial
single-query noise realizations can be replayed as unit tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

__all__ = ["QuantileConfig", "QuantileResult", "RankOverflowError",
           "SearchStep", "buffered_right_search", "exact_conformal_quantile",
           "midpoint_search", "noise_correction_tau", "stability_buffer",
           "target_rank"]


class RankOverflowError(ValueError):
    """The requested order statistic does not exist in the sample."""


def as_score_array(scores) -> np.ndarray:
    """Validate a score set: nonempty, one-dimensional, all finite."""
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must all be finite")
    return arr


@dataclass(frozen=True)
class QuantileConfig:
    """Knobs of a private quantile search.

    ``tau_override`` pins the noise-correction term instead of deriving it
    from (sigma_q, beta, steps_n); the asymptotic pipeline variant uses 0.0
    while sigma_q keeps scaling the injected noise. ``noise_override``
    replaces the seeded Gaussian draws with fixed values, one per step.
    ``variant`` governs only one rule: ``steps_n`` may be None (derived
    from ``precision_delta``) only under ``"midpoint"``. Either search
    function accepts either variant.
    """

    range_lo: float
    range_hi: float
    alpha: float
    steps_n: int | None
    sigma_q: float = 0.0
    beta: float = 0.05
    buffer_m: int = 0
    variant: str = "buffered_right"
    precision_delta: float = 1e-3
    seed: int = 0
    tau_override: float | None = None
    noise_override: Sequence[float] | None = None

    def __post_init__(self) -> None:
        if not self.range_lo < self.range_hi:
            raise ValueError("need range_lo < range_hi")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.steps_n is not None and self.steps_n < 1:
            raise ValueError("steps_n must be >= 1 when set")
        if self.steps_n is None and self.variant != "midpoint":
            raise ValueError("steps_n may be unset only for the midpoint variant")
        if self.sigma_q < 0.0:
            raise ValueError("sigma_q must be nonnegative")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.buffer_m < 0:
            raise ValueError("buffer_m must be nonnegative")
        if self.variant not in ("buffered_right", "midpoint"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.precision_delta <= 0.0:
            raise ValueError("precision_delta must be positive")


@dataclass(frozen=True)
class SearchStep:
    step: int
    mid: float
    true_count: int
    noisy_count: float
    branch: str  # which endpoint moved: "right" or "left"


@dataclass(frozen=True)
class QuantileResult:
    q_hat: float
    rank_target_r: int
    threshold_r_prime: float
    trace: tuple[SearchStep, ...]


def _exact_ceil(value: float) -> int:
    # Snap values that are integers up to float noise (0.7 * 10 is
    # 7.000000000000001 in binary) before taking the ceiling.
    nearest = round(value)
    if abs(value - nearest) < 1e-9 * max(1.0, abs(value)):
        return int(nearest)
    return int(math.ceil(value))


def target_rank(n: int, alpha: float) -> int:
    """Conformal target rank ceil((1 - alpha) (n + 1))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return _exact_ceil((1.0 - alpha) * (n + 1))


def noise_correction_tau(sigma_q: float, beta: float, steps_n: int) -> float:
    """Rank inflation sigma * Phi^{-1}(1 - beta/N) - 1 controlling false
    positives across N noisy queries."""
    if sigma_q < 0.0:
        raise ValueError("sigma_q must be nonnegative")
    if steps_n < 1:
        raise ValueError("steps_n must be >= 1")
    if not 0.0 < beta < 1.0 or beta / steps_n >= 1.0:
        raise ValueError("need beta in (0, 1) with beta / steps_n < 1")
    if sigma_q == 0.0:
        return -1.0
    # Phi^{-1}(1 - u) = -Phi^{-1}(u); evaluate at u for tail precision.
    return sigma_q * (-NormalDist().inv_cdf(beta / steps_n)) - 1.0


def stability_buffer(n: int, fbar: float, lipschitz_l: float, u_n: float,
                     delta_n: float) -> int:
    """Rank buffer ceil(n * fbar * L * u_n / delta_n) absorbing score
    perturbations from the one-point model change."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if fbar < 0.0 or lipschitz_l < 0.0 or u_n < 0.0:
        raise ValueError("fbar, lipschitz_l, and u_n must be nonnegative")
    if delta_n <= 0.0:
        raise ValueError("delta_n must be positive")
    return _exact_ceil(n * fbar * lipschitz_l * u_n / delta_n)


def _noise_sequence(config: QuantileConfig, steps: int) -> np.ndarray:
    if config.noise_override is not None:
        z = np.asarray(config.noise_override, dtype=float)
        if z.shape != (steps,):
            raise ValueError(f"noise_override must supply {steps} values")
        return z
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    return config.sigma_q * rng.standard_normal(steps)


def _bisect(arr: np.ndarray, config: QuantileConfig, steps: int,
            threshold: float, left_step: float
            ) -> tuple[float, float, tuple[SearchStep, ...]]:
    """Noisy bisection over [range_lo, range_hi]: a noisy count at or above
    ``threshold`` moves the right endpoint to the midpoint, any other moves
    the left endpoint to the midpoint plus ``left_step``. Returns the final
    (left, right) bracket and the per-step trace."""
    noise = _noise_sequence(config, steps)
    left, right = config.range_lo, config.range_hi
    trace = []
    for k in range(steps):
        mid = 0.5 * (left + right)
        count = int(np.count_nonzero(arr <= mid))
        noisy = count + noise[k]
        if noisy >= threshold:
            right = mid
            branch = "right"
        else:
            left = mid + left_step
            branch = "left"
        trace.append(SearchStep(k, mid, count, noisy, branch))
    return left, right, tuple(trace)


def buffered_right_search(scores, config: QuantileConfig) -> QuantileResult:
    """Right-endpoint bisection against the inflated rank threshold
    r' = r + m_n + tau; returns the final right endpoint."""
    if config.steps_n is None:
        raise ValueError("the buffered search needs steps_n")
    arr = as_score_array(scores)
    n = arr.size
    r = target_rank(n, config.alpha)
    if r + config.buffer_m > n:
        raise RankOverflowError(
            f"rank r + m = {r + config.buffer_m} exceeds n = {n}; "
            "the guaranteeing order statistic does not exist"
        )
    if config.tau_override is not None:
        tau = config.tau_override
    else:
        tau = noise_correction_tau(config.sigma_q, config.beta, config.steps_n)
    r_prime = r + config.buffer_m + tau
    if r_prime > n:
        warnings.warn(
            f"effective threshold r' = {r_prime:.3f} exceeds n = {n}; the "
            "search can only terminate at the upper range endpoint unless "
            "noise pushes a count above r'",
            stacklevel=2,
        )
    if config.range_hi < float(arr.max()):
        warnings.warn(
            "range_hi is below the largest score; the conservativeness "
            "guarantee needs the range to cover the score support",
            stacklevel=2,
        )
    _, right, trace = _bisect(arr, config, config.steps_n, r_prime, 0.0)
    return QuantileResult(right, r, r_prime, trace)


def midpoint_search(scores, config: QuantileConfig) -> QuantileResult:
    """Noisy midpoint-return bisection baseline (no buffer, no correction).

    A single positive noise spike below the target quantile pins the bracket
    under it for good; kept for the failure-mode demonstrations.
    """
    arr = as_score_array(scores)
    n = arr.size
    r = target_rank(n, config.alpha)
    steps = config.steps_n
    if steps is None:
        steps = _exact_ceil(
            math.log2((config.range_hi - config.range_lo) / config.precision_delta)
        )
    left, right, trace = _bisect(arr, config, steps, r, config.precision_delta)
    return QuantileResult(0.5 * (left + right), r, float(r), trace)


def exact_conformal_quantile(scores, rank: int) -> float:
    """The rank-th smallest score; rank n + 1 returns the +inf sentinel."""
    arr = as_score_array(scores)
    n = arr.size
    if rank == n + 1:
        return math.inf
    if not 1 <= rank <= n:
        raise RankOverflowError(f"rank {rank} outside [1, {n + 1}]")
    return float(np.partition(arr, rank - 1)[rank - 1])
