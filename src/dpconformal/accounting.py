"""Privacy accounting: GDP composition and an RDP accountant for
(subsampled) Gaussian mechanisms.

Everything here is a pure function of its inputs. The RDP side follows the
noise-multiplier convention: a query with l2-sensitivity 1 released with
N(0, sigma^2) noise. Subsampled-Gaussian values are the analytic
integer-order moment bound (binomial expansion), which is exact for the
mixture-vs-base Renyi divergence at integer orders, so the accountant is
reproducible without any external library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

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
    "rdp_subsampled_gaussian",
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
    if any(m <= 0.0 for m in mus):
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
        if any(a <= 1.0 for a in self.orders):
            raise ValueError("all RDP orders must be > 1")
        if any(b <= a for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("order grid must be strictly increasing")
        if any(v < 0.0 or math.isnan(v) for v in self.values):
            raise ValueError("RDP values must be nonnegative")

    @classmethod
    def zeros(cls, orders: Sequence[float]) -> "RdpProfile":
        return cls(tuple(float(a) for a in orders), (0.0,) * len(orders))


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@lru_cache(maxsize=None)
def _sigma_free_terms(a: int, rate_q: float) -> tuple[float, ...]:
    """The sigma-free prefix log C(a, k) + k log q + (a - k) log(1 - q) of
    each term of the order-a bound, summed left to right as the full term
    is, so adding the sigma part gives the same float. A noise calibration
    probes many sigmas at one (order, rate); this computes the prefix once.
    """
    log_q = math.log(rate_q)
    log_1mq = math.log1p(-rate_q)
    return tuple(_log_binom(a, k) + k * log_q + (a - k) * log_1mq
                 for k in range(a + 1))


def _logsumexp(terms: Iterable[float]) -> float:
    terms = list(terms)
    m = max(terms)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def rdp_gaussian(order: float, sigma: float) -> float:
    """RDP of the Gaussian mechanism: order / (2 sigma^2)."""
    if order <= 1.0:
        raise ValueError(f"order must be > 1, got {order}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return order / (2.0 * sigma**2)


def rdp_subsampled_gaussian(order: int, sigma: float, rate_q: float) -> float:
    """Integer-order RDP bound for the Poisson-subsampled Gaussian mechanism.

    Evaluates log E_{k~Bin(order, q)}[exp((k^2 - k) / (2 sigma^2))] / (order - 1),
    the classical moment bound, which is exact for the Renyi divergence of the
    subsampled mixture against the base Gaussian at integer orders.
    """
    if isinstance(order, float) and not order.is_integer():
        raise UnsupportedOrderError(
            f"subsampled bound only supports integer orders, got {order}"
        )
    a = int(order)
    if a < 2:
        raise UnsupportedOrderError(f"order must be an integer >= 2, got {order}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not 0.0 <= rate_q <= 1.0:
        raise ValueError(f"rate_q must lie in [0, 1], got {rate_q}")
    if rate_q == 0.0:
        return 0.0
    if rate_q == 1.0:
        return rdp_gaussian(a, sigma)
    inv2s2 = 1.0 / (2.0 * sigma**2)
    terms = [
        base + (k * k - k) * inv2s2
        for k, base in enumerate(_sigma_free_terms(a, rate_q))
    ]
    return max(_logsumexp(terms), 0.0) / (a - 1)


def gaussian_profile(
    sigma: float,
    orders: Sequence[float] | None = None,
    queries: int = 1,
) -> RdpProfile:
    """Profile of ``queries`` composed Gaussian mechanisms at noise ``sigma``."""
    if queries < 0:
        raise ValueError(f"queries must be nonnegative, got {queries}")
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
        if self.noise_multiplier < 0.0:
            raise ValueError("noise_multiplier must be nonnegative")
        if not 0.0 <= self.sampling_rate <= 1.0:
            raise ValueError("sampling_rate must lie in [0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")


def sgd_profile(
    record: SgdAccountingRecord,
    orders: Sequence[float] | None = None,
) -> RdpProfile:
    """Training RDP of one DP-SGD run; ``rdp_compose`` adds runs together.

    A zero noise multiplier gives +inf at every order (no privacy), except
    when the run took no steps or sampled nothing.
    """
    orders = default_orders() if orders is None else tuple(orders)
    if record.steps == 0 or record.sampling_rate == 0.0:
        return RdpProfile.zeros(orders)
    if record.noise_multiplier == 0.0:
        values = (math.inf,) * len(orders)
    else:
        values = tuple(record.steps * rdp_subsampled_gaussian(
            int(a), record.noise_multiplier, record.sampling_rate)
            for a in orders)
    return RdpProfile(tuple(float(a) for a in orders), values)


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
    if not any(profile.values):
        return 0.0
    log_inv_delta = math.log(1.0 / delta)
    best = math.inf
    for a, v in zip(profile.orders, profile.values):
        if math.isinf(v):
            continue
        best = min(best, v + log_inv_delta / (a - 1.0))
    return best


# ---------------------------------------------------------------------------
# Noise calibration against a global budget


@dataclass(frozen=True)
class BudgetSpec:
    """Global (epsilon, delta) target plus the training allocation fraction."""

    epsilon_target: float
    delta_target: float
    allocation_p: float = 0.5

    def __post_init__(self) -> None:
        if self.epsilon_target <= 0.0:
            raise ValueError("epsilon_target must be positive")
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
    if rel_tol <= 0.0:
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
    calibration that raises is not memoized.
    """
    return _calibrate_sigma_q(train_profile, queries_k, budget.epsilon_target,
                              budget.delta_target, rel_tol)


# Each entry holds a profile (two tuples over the order grid); 256 entries
# cover every distinct input of a desk or paper-scale sweep.
@lru_cache(maxsize=256)
def _calibrate_sigma_q(train_profile: RdpProfile, queries_k: int,
                       epsilon_target: float, delta_target: float,
                       rel_tol: float) -> float:
    if queries_k < 1:
        raise ValueError(f"queries_k must be >= 1, got {queries_k}")
    eps_train = rdp_to_eps(train_profile, delta_target)
    if eps_train > epsilon_target:
        raise InfeasibleBudgetError(
            f"training already spends eps={eps_train:.6g} > "
            f"target {epsilon_target:.6g}; no feasible sigma_q exists"
        )
    orders = train_profile.orders

    def eps_total(sigma_q: float) -> float:
        qt = gaussian_profile(sigma_q, orders, queries=queries_k)
        return rdp_to_eps(rdp_compose([train_profile, qt]), delta_target)

    return _min_sigma_satisfying(
        eps_total, epsilon_target, rel_tol, "calibration noise sigma_q"
    )


@lru_cache(maxsize=None)
def calibrate_sigma_sgd(
    rate_q: float,
    steps: int,
    epsilon_target: float,
    delta_target: float,
    rel_tol: float = 1e-3,
) -> float:
    """Smallest DP-SGD noise multiplier whose T-step subsampled-Gaussian
    profile converts to at most epsilon_target at delta_target."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if epsilon_target <= 0.0:
        raise ValueError("epsilon_target must be positive")
    if not 0.0 < delta_target < 1.0:
        raise ValueError("delta_target must lie in (0, 1)")
    orders = default_orders()

    def eps_of(sigma: float) -> float:
        rec = SgdAccountingRecord(sigma, rate_q, steps)
        return rdp_to_eps(sgd_profile(rec, orders), delta_target)

    return _min_sigma_satisfying(
        eps_of, epsilon_target, rel_tol, "training noise multiplier"
    )
