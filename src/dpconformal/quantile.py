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
from functools import reduce
from typing import Sequence

import numpy as np

from .models import is_count

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
        # Written so that NaN fails every check, as TrainConfig's are.
        if not -math.inf < self.range_lo < self.range_hi < math.inf:
            raise ValueError("need finite range_lo < range_hi")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.steps_n is not None and not (is_count(self.steps_n)
                                             and self.steps_n >= 1):
            raise ValueError("steps_n must be an integer >= 1 when set")
        if self.steps_n is None and self.variant != "midpoint":
            raise ValueError("steps_n may be unset only for the midpoint variant")
        if not 0.0 <= self.sigma_q < math.inf:
            raise ValueError("sigma_q must be nonnegative and finite")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not (is_count(self.buffer_m) and self.buffer_m >= 0):
            raise ValueError("buffer_m must be a nonnegative integer")
        if self.variant not in ("buffered_right", "midpoint"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.precision_delta < math.inf:
            raise ValueError("precision_delta must be positive and finite")
        if self.tau_override is not None and not math.isfinite(
                self.tau_override):
            raise ValueError("tau_override must be finite when set")


@dataclass(frozen=True, slots=True)
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


# Wichura (1988), "Algorithm AS241: The Percentage Points of the Normal
# Distribution": for each of its three rational approximations to Phi^{-1}
# (central, tail to r = 5, far tail), the numerator's and the denominator's
# coefficients, highest power first.
_AS241 = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4,
      6.7265770927008700853e+4, 4.5921953931549871457e+4,
      1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4,
      3.9307895800092710610e+4, 2.1213794301586595867e+4,
      5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2,
      2.41780725177450611770e-1, 1.27045825245236838258e+0,
      3.64784832476320460504e+0, 5.76949722146069140550e+0,
      4.63033784615654529590e+0, 1.42343711074968357734e+0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4,
      1.51986665636164571966e-2, 1.48103976427480074590e-1,
      6.89767334985100004550e-1, 1.67638483018380384940e+0,
      2.05319162663775882187e+0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5,
      1.24266094738807843860e-3, 2.65321895265761230930e-2,
      2.96560571828504891230e-1, 1.78482653991729133580e+0,
      5.46378491116411436990e+0, 6.65790464350110377720e+0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7,
      1.84631831751005468180e-5, 7.86869131145613259100e-4,
      1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)),
)


def _normal_ppf(p: float) -> float:
    """Phi^{-1}(p) for p in (0, 1) by AS241, as statistics.NormalDist's
    inv_cdf computes it, operation for operation, so bit for bit."""
    q = p - 0.5
    if abs(q) <= 0.425:
        branch, r = 0, 0.180625 - q * q
    else:
        r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
        branch, r = (1, r - 1.6) if r <= 5.0 else (2, r - 5.0)
    # Horner's rule, from the highest power.
    num, den = (reduce(lambda acc, c: acc * r + c, coeffs)
                for coeffs in _AS241[branch])
    if branch == 0:
        return num * q / den
    return -(num / den) if q < 0.0 else num / den


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
    if not 0.0 <= sigma_q < math.inf:  # NaN fails the check as well
        raise ValueError("sigma_q must be nonnegative and finite")
    if steps_n < 1:
        raise ValueError("steps_n must be >= 1")
    if not 0.0 < beta < 1.0 or beta / steps_n >= 1.0:
        raise ValueError("need beta in (0, 1) with beta / steps_n < 1")
    if sigma_q == 0.0:
        return -1.0
    # Phi^{-1}(1 - u) = -Phi^{-1}(u); evaluate at u for tail precision.
    return sigma_q * (-_normal_ppf(beta / steps_n)) - 1.0


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
    left, right = float(config.range_lo), float(config.range_hi)
    trace = []
    for k in range(steps):
        mid = 0.5 * (left + right)
        count = int(np.count_nonzero(arr <= mid))
        noisy = float(count + noise[k])
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
    # With less than one noise sd between r' and n, the noisy counts more
    # than the scores decide where the search ends; at sigma_q = 0 this is
    # r' > n, where it can end only at range_hi.
    if n - r_prime < config.sigma_q:
        warnings.warn(
            f"effective threshold r' = {r_prime:.3f} leaves n - r' = "
            f"{n - r_prime:.3f} below sigma_q = {config.sigma_q:.3f} "
            f"(n = {n}); the search's answer follows its noise more than "
            "the scores",
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
