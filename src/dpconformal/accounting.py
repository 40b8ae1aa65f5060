"""Privacy accounting: GDP composition and an RDP accountant for
(subsampled) Gaussian mechanisms.

Everything here is a pure function of its inputs. The RDP side follows the
noise-multiplier convention: a query with l2-sensitivity 1 released with
N(0, sigma^2) noise. Subsampled-Gaussian values are the analytic
integer-order moment bound (binomial expansion; Mironov, Talwar & Zhang
2019), which is exact for the mixture-vs-base Renyi divergence at integer
orders, so the accountant is reproducible without any external library.

The bound is evaluated in one place, ``_subsampled_values``: one numpy
log-sum-exp pass over the whole order grid. ``sgd_profile`` evaluates it
on an order grid times the step count (a one-step profile at one order is
the bound of one subsampled Gaussian release), and each
``calibrate_sigma_sgd`` probe on the same grid. RDP converts to
(epsilon, delta) in one place too, ``_eps``, which ``rdp_to_eps`` and both
calibration probes call. So a recorded spend and the probe that calibrated
its sigma read the same floats; their last bits follow numpy's ``exp``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .models import is_count

__all__ = [
    "BudgetSpec",
    "GridMismatchError",
    "InfeasibleBudgetError",
    "RdpProfile",
    "SgdAccountingRecord",
    "UnsupportedOrderError",
    "calibrate_sigma_q",
    "calibrate_sigma_sgd",
    "default_orders",
    "gaussian_profile",
    "gdp_compose",
    "rdp_compose",
    "rdp_gaussian",
    "rdp_to_eps",
    "sgd_profile",
]

# Bracketing/bisection knobs for the noise calibrations.
_SIGMA_CAP = 2.0 ** 40
_MAX_BISECT = 60


class InfeasibleBudgetError(ValueError):
    """The privacy budget cannot be met by any noise scale."""


class GridMismatchError(ValueError):
    """RDP profiles defined on different order grids cannot be combined."""


class UnsupportedOrderError(ValueError):
    """The subsampled-Gaussian bound is restricted to integer orders >= 2."""


def default_orders() -> tuple[int, ...]:
    """Default RDP order grid: integers 2..64 plus 128 and 256."""
    return tuple(range(2, 65)) + (128, 256)


# ---------------------------------------------------------------------------
# GDP


def gdp_compose(mus: Sequence[float]) -> float:
    """GDP parameters compose by root-sum-of-squares."""
    if len(mus) == 0:
        raise ValueError("need at least one GDP parameter to compose")
    if not all(m > 0.0 for m in mus):
        raise ValueError("all GDP parameters must be positive")
    return math.sqrt(math.fsum(m * m for m in mus))


# ---------------------------------------------------------------------------
# RDP accountant


@dataclass(frozen=True)
class RdpProfile:
    """Order-wise RDP values on a strictly increasing order grid."""

    orders: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.orders) == 0:
            raise ValueError("RdpProfile needs at least one order")
        if len(self.orders) != len(self.values):
            raise ValueError("orders and values must have equal length")
        if not all(a > 1.0 for a in self.orders):
            raise ValueError("all RDP orders must be > 1")
        if not all(b > a for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("order grid must be strictly increasing")
        if not all(v >= 0.0 for v in self.values):
            raise ValueError("RDP values must be nonnegative")

    @classmethod
    def zeros(cls, orders: Sequence[float]) -> "RdpProfile":
        return cls(tuple(float(a) for a in orders), (0.0,) * len(orders))


def _two_sigma_sq(sigma: float) -> float:
    """2 sigma^2; +inf where sigma^2 overflows, which Python raises on."""
    try:
        return 2.0 * sigma**2
    except OverflowError:
        return math.inf


def _unbounded(two_s2: float) -> bool:
    """Whether 1 / (2 sigma^2) is not finite: 2 sigma^2 underflowed to 0 or
    to a subnormal whose reciprocal overflows. The RDP is then +inf, as at
    sigma = 0."""
    return two_s2 == 0.0 or math.isinf(1.0 / two_s2)


def _integer_order(order: float) -> int:
    if not float(order).is_integer() or order < 2:
        raise UnsupportedOrderError(
            f"subsampled bound needs integer orders >= 2, got {order}")
    return int(order)


@lru_cache(maxsize=None)
def _sigma_free_grid(orders: tuple[int, ...], rate_q: float
                     ) -> tuple[np.ndarray, ...]:
    """The terms of the bound at ``orders`` laid out flat, order after order,
    without their sigma part: the prefix log C(a, k) + k log q
    + (a - k) log(1 - q) for k = 0..a, and k^2 - k, which the sigma part
    scales; then where each order's terms start, how many there are, and
    a - 1. A calibration probes many sigmas at one rate; this is computed
    once per (orders, rate) and is read-only.
    """
    log_q = math.log(rate_q)
    log_1mq = math.log1p(-rate_q)
    # log m! for m = 0..max order; log C(a, k) is (log a! - log k!)
    # - log (a - k)!, in that order.
    log_fact = np.array([math.lgamma(m + 1) for m in range(max(orders) + 1)])
    sizes = np.array(orders) + 1
    starts = np.cumsum(sizes) - sizes
    a = np.repeat(np.array(orders), sizes)
    k = np.arange(a.size) - np.repeat(starts, sizes)
    base = (((log_fact[a] - log_fact[k]) - log_fact[a - k]) + k * log_q
            + (a - k) * log_1mq)
    grid = (base, (k * k - k).astype(float), starts, sizes,
            np.array(orders, dtype=float) - 1.0)
    for array in grid:
        array.flags.writeable = False
    return grid


def _subsampled_values(orders: tuple[int, ...], sigma: float,
                       rate_q: float) -> np.ndarray:
    """The subsampled-Gaussian bound at each integer order >= 2 in
    ``orders``, for sigma >= 0 and rate_q in [0, 1], in one numpy pass.

    Per order it is log sum_k exp(term_k) / (a - 1), shifted by the largest
    term; an order whose largest term overflowed to +inf is +inf.
    """
    if rate_q == 0.0:
        return np.zeros(len(orders))
    two_s2 = _two_sigma_sq(sigma)
    if _unbounded(two_s2):
        return np.full(len(orders), math.inf)
    # Overflow gives +inf, as Python's float arithmetic does. An overflowed
    # term makes inf - inf = nan below; its order is set to +inf at the end.
    with np.errstate(over="ignore", invalid="ignore"):
        if rate_q == 1.0:
            return np.array(orders, dtype=float) / two_s2
        base, kk, starts, sizes, a_minus_1 = _sigma_free_grid(orders, rate_q)
        terms = base + kk * (1.0 / two_s2)
        top = np.maximum.reduceat(terms, starts)
        shifted = np.exp(terms - np.repeat(top, sizes))
        lse = top + np.log(np.add.reduceat(shifted, starts))
    values = np.maximum(lse, 0.0) / a_minus_1
    values[np.isinf(top)] = math.inf
    return values


def _eps(values: np.ndarray, orders: np.ndarray, delta: float) -> float:
    """Classical RDP -> (epsilon, delta) conversion, minimized over orders;
    0 for a profile that is 0 at every order. An order at +inf never wins
    the min unless every order is +inf."""
    if not values.any():
        return 0.0
    return float(np.min(values + math.log(1.0 / delta) / (orders - 1.0)))


def rdp_gaussian(order: float, sigma: float) -> float:
    """RDP of the Gaussian mechanism: order / (2 sigma^2)."""
    if not order > 1.0:
        raise ValueError(f"order must be > 1, got {order}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    two_s2 = _two_sigma_sq(sigma)
    if _unbounded(two_s2):
        return math.inf
    return order / two_s2


def gaussian_profile(
    sigma: float,
    orders: Sequence[float] | None = None,
    queries: int = 1,
) -> RdpProfile:
    """Profile of ``queries`` composed Gaussian mechanisms at noise ``sigma``."""
    if not is_count(queries) or queries < 0:
        raise ValueError(f"queries must be a nonnegative integer, got "
                         f"{queries!r}")
    orders = default_orders() if orders is None else tuple(orders)
    values = tuple(queries * rdp_gaussian(a, sigma) for a in orders)
    return RdpProfile(tuple(float(a) for a in orders), values)


@dataclass(frozen=True)
class SgdAccountingRecord:
    """One homogeneous stretch of DP-SGD: (noise multiplier, sampling rate,
    step count)."""

    noise_multiplier: float
    sampling_rate: float
    steps: int

    def __post_init__(self) -> None:
        if not self.noise_multiplier >= 0.0:
            raise ValueError("noise_multiplier must be nonnegative, got "
                             f"{self.noise_multiplier}")
        if not 0.0 <= self.sampling_rate <= 1.0:
            raise ValueError("sampling_rate must lie in [0, 1]")
        if not float(self.steps).is_integer() or self.steps < 0:
            raise ValueError("steps must be a nonnegative integer, got "
                             f"{self.steps}")


def sgd_profile(
    record: SgdAccountingRecord,
    orders: Sequence[float] | None = None,
) -> RdpProfile:
    """Training RDP of one DP-SGD run; ``rdp_compose`` adds runs together.

    A zero noise multiplier gives +inf at every order (no privacy), except
    when the run took no steps or sampled nothing. Otherwise every order
    must be an integer >= 2. Each step adds the integer-order moment bound
    log E_{k~Bin(order, q)}[exp((k^2 - k) / (2 sigma^2))] / (order - 1).
    """
    orders = default_orders() if orders is None else tuple(orders)
    if record.steps == 0 or record.sampling_rate == 0.0:
        return RdpProfile.zeros(orders)
    values = _subsampled_values(tuple(_integer_order(a) for a in orders),
                                record.noise_multiplier, record.sampling_rate)
    with np.errstate(over="ignore"):  # steps times a finite value may be inf
        values = record.steps * values
    return RdpProfile(tuple(float(a) for a in orders), tuple(values.tolist()))


def rdp_compose(profiles: Sequence[RdpProfile]) -> RdpProfile:
    """Entrywise sum of profiles sharing one order grid."""
    if len(profiles) == 0:
        raise ValueError("need at least one profile to compose")
    grid = profiles[0].orders
    for p in profiles[1:]:
        if p.orders != grid:
            raise GridMismatchError("profiles must share an identical order grid")
    totals = tuple(math.fsum(p.values[i] for p in profiles) for i in range(len(grid)))
    return RdpProfile(grid, totals)


def rdp_to_eps(profile: RdpProfile, delta: float) -> float:
    """Classical RDP -> (epsilon, delta) conversion, minimized over orders.

    A profile that is 0 at every order is (0, 0)-DP and converts to 0, not
    to the conversion floor log(1/delta) / (max order - 1).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return _eps(np.array(profile.values), np.array(profile.orders), delta)


# ---------------------------------------------------------------------------
# Noise calibration against a global budget


@dataclass(frozen=True)
class BudgetSpec:
    """Global (epsilon, delta) target plus the training allocation fraction."""

    epsilon_target: float
    delta_target: float
    allocation_p: float = 0.5

    def __post_init__(self) -> None:
        # An integer is compared exactly, so one too large for a float fails.
        if isinstance(self.epsilon_target, bool) or not (
                0.0 < self.epsilon_target <= sys.float_info.max):
            raise ValueError("epsilon_target must be positive and finite, "
                             f"got {self.epsilon_target}")
        if not 0.0 < self.delta_target < 1.0:
            raise ValueError("delta_target must lie in (0, 1)")
        if not 0.0 < self.allocation_p < 1.0:
            raise ValueError("allocation_p must lie in (0, 1)")


def _min_sigma_satisfying(
    eps_of_sigma: Callable[[float], float],
    eps_target: float,
    rel_tol: float,
    what: str,
) -> float:
    """Approximately minimal sigma with eps_of_sigma(sigma) <= eps_target.

    eps_of_sigma must be non-increasing. Brackets by doubling/halving from
    1.0 (capped at 2^40 / 2^-40), then bisects.
    """
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    hi = 1.0
    if eps_of_sigma(hi) <= eps_target:
        while True:
            lo = hi / 2.0
            if lo < 1.0 / _SIGMA_CAP:
                # Even vanishing noise meets the budget.
                return hi
            if eps_of_sigma(lo) > eps_target:
                break
            hi = lo
    else:
        while True:
            lo = hi
            hi *= 2.0
            if hi > _SIGMA_CAP:
                raise InfeasibleBudgetError(
                    f"no feasible {what} up to {_SIGMA_CAP:g} meets the budget"
                )
            if eps_of_sigma(hi) <= eps_target:
                break
    for _ in range(_MAX_BISECT):
        if (hi - lo) <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if eps_of_sigma(mid) <= eps_target:
            hi = mid
        else:
            lo = mid
    return hi


def calibrate_sigma_q(
    train_profile: RdpProfile,
    queries_k: int,
    budget: BudgetSpec,
    rel_tol: float = 1e-3,
) -> float:
    """Smallest per-query noise scale for K count queries such that training
    plus calibration stays within the global budget.

    Raises InfeasibleBudgetError when the training profile alone already
    exceeds the target. Results are memoized per process on what the
    calibration reads: the profile, K, the budget's epsilon and delta, and
    rel_tol. The allocation p is not read, so an empty training profile
    (``dp_split``) calibrates once per (epsilon, delta) whatever p is. A
    calibration that raises is not memoized. K is checked before the cache,
    which would answer True from the entry of 1.
    """
    if not is_count(queries_k) or queries_k < 1:
        raise ValueError(f"queries_k must be an integer >= 1, got "
                         f"{queries_k!r}")
    return _calibrate_sigma_q(train_profile, queries_k, budget.epsilon_target,
                              budget.delta_target, rel_tol)


# Each entry holds a profile (two tuples over the order grid); 256 entries
# cover every distinct input of a desk or paper-scale sweep.
@lru_cache(maxsize=256)
def _calibrate_sigma_q(train_profile: RdpProfile, queries_k: int,
                       epsilon_target: float, delta_target: float,
                       rel_tol: float) -> float:
    eps_train = rdp_to_eps(train_profile, delta_target)
    if eps_train > epsilon_target:
        raise InfeasibleBudgetError(
            f"training already spends eps={eps_train:.6g} > "
            f"target {epsilon_target:.6g}; no feasible sigma_q exists"
        )
    # rdp_to_eps(rdp_compose([train_profile, gaussian_profile(sigma_q,
    # orders, queries_k)]), delta_target) without building profiles: fsum
    # of two floats is their IEEE sum, so each probe equals it bit for bit.
    orders = np.array(train_profile.orders)
    train = np.array(train_profile.values)

    def eps_total(sigma_q: float) -> float:
        return _eps(train + queries_k * (orders / (2.0 * sigma_q**2)),
                    orders, delta_target)

    return _min_sigma_satisfying(
        eps_total, epsilon_target, rel_tol, "calibration noise sigma_q"
    )


# Typed, so that True misses the entry of 1.0 and is refused.
@lru_cache(maxsize=None, typed=True)
def calibrate_sigma_sgd(
    rate_q: float,
    steps: int,
    epsilon_target: float,
    delta_target: float,
    rel_tol: float = 1e-3,
) -> float:
    """Smallest DP-SGD noise multiplier whose T-step subsampled-Gaussian
    profile converts to at most epsilon_target at delta_target."""
    if not float(steps).is_integer() or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps}")
    BudgetSpec(epsilon_target, delta_target)  # checks both as a budget does
    if not 0.0 <= rate_q <= 1.0:
        raise ValueError(f"rate_q must lie in [0, 1], got {rate_q}")
    orders = default_orders()
    orders_f = np.array(orders, dtype=float)

    def eps_of(sigma: float) -> float:
        return _eps(steps * _subsampled_values(orders, sigma, rate_q),
                    orders_f, delta_target)

    return _min_sigma_satisfying(
        eps_of, epsilon_target, rel_tol, "training noise multiplier"
    )
