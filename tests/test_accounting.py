import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from dpconformal import accounting
from dpconformal.accounting import (BudgetSpec, GridMismatchError,
                                    InfeasibleBudgetError, RdpProfile,
                                    SgdAccountingRecord,
                                    UnsupportedOrderError, calibrate_sigma_q,
                                    calibrate_sigma_sgd, default_orders,
                                    gaussian_profile, gdp_compose,
                                    rdp_compose, rdp_gaussian, rdp_to_eps,
                                    sgd_profile)


def rdp_subsampled_gaussian(order, sigma, rate_q):
    """The subsampled-Gaussian bound at one order: one step's profile."""
    record = SgdAccountingRecord(sigma, rate_q, 1)
    return sgd_profile(record, (order,)).values[0]


# ---------------------------------------------------------------------------
# GDP


def test_gdp_compose_values():
    assert gdp_compose([3.0, 4.0]) == 5.0
    assert gdp_compose([0.7]) == 0.7
    assert gdp_compose([1.0, 1.0, 1.0]) == pytest.approx(math.sqrt(3), abs=1e-12)
    with pytest.raises(ValueError):
        gdp_compose([])
    with pytest.raises(ValueError):
        gdp_compose([1.0, -2.0])
    with pytest.raises(ValueError):
        gdp_compose([math.nan])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 50.0), min_size=2, max_size=6))
def test_gdp_compose_permutation_and_flattening(mus):
    assert gdp_compose(mus) == pytest.approx(gdp_compose(mus[::-1]), rel=1e-12)
    # composing a composed prefix equals composing everything at once
    flat = gdp_compose(mus)
    nested = gdp_compose([gdp_compose(mus[:2]), *mus[2:]])
    assert nested == pytest.approx(flat, rel=1e-12)


# ---------------------------------------------------------------------------
# RDP


def test_rdp_gaussian_values():
    assert rdp_gaussian(2.0, 1.0) == pytest.approx(1.0)
    assert rdp_gaussian(4.0, 2.0) == pytest.approx(0.5)
    assert rdp_gaussian(8.0, 1e9) < 1e-15
    for order, sigma in [(1.0, 1.0), (2.0, math.nan), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            rdp_gaussian(order, sigma)
    with pytest.raises(ValueError, match="noise_multiplier"):
        rdp_subsampled_gaussian(2, math.nan, 0.1)


@pytest.mark.parametrize("sigma", [1e-154, 1e-160, 1e-200])
def test_rdp_is_unbounded_when_two_sigma_squared_underflows(sigma):
    # 2 sigma^2 is subnormal (1e-154, 1e-160) or 0 (1e-200). At 1e-160 and
    # 1e-200 its reciprocal overflows: +inf, as at sigma = 0. At 1e-154 it
    # is about 5e307, so order 2 stays finite while (k^2 - k) / (2 sigma^2)
    # overflows at higher orders. Either way nothing warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if sigma == 1e-154:
            assert rdp_gaussian(2.0, sigma) == pytest.approx(1e308)
            assert rdp_subsampled_gaussian(2, sigma, 0.1) == \
                pytest.approx(1e308)
        else:
            assert rdp_gaussian(2.0, sigma) == math.inf
            assert rdp_subsampled_gaussian(2, sigma, 0.1) == math.inf
        for a in (64, 256):
            assert rdp_subsampled_gaussian(a, sigma, 0.1) == math.inf
            assert rdp_subsampled_gaussian(a, sigma, 1.0) == math.inf
        for a in (2, 64):
            assert rdp_subsampled_gaussian(a, sigma, 0.0) == 0.0
        profile = sgd_profile(SgdAccountingRecord(sigma, 0.1, 3))
        assert profile.values == (math.inf,) * len(profile.values)
        assert rdp_to_eps(profile, 1e-5) == math.inf


def test_rdp_vanishes_when_sigma_squared_overflows():
    # sigma^2 overflows (Python raises): 2 sigma^2 is +inf, and the RDP is
    # what a large sigma with a finite square gives.
    assert rdp_gaussian(2.0, 1e200) == 0.0
    assert rdp_subsampled_gaussian(2, 1e200, 1.0) == 0.0
    for a in (2, 64):
        assert rdp_subsampled_gaussian(a, 1e200, 0.1) == \
            rdp_subsampled_gaussian(a, 1e100, 0.1)
    assert sgd_profile(SgdAccountingRecord(1e200, 0.1, 3)) == \
        sgd_profile(SgdAccountingRecord(1e100, 0.1, 3))


def test_rdp_subsampled_reductions():
    for a in (2, 3, 7, 32):
        assert rdp_subsampled_gaussian(a, 1.3, 1.0) == pytest.approx(
            rdp_gaussian(a, 1.3), rel=1e-12)
        assert rdp_subsampled_gaussian(a, 1.3, 0.0) == 0.0


def test_rdp_subsampled_against_numerical_renyi_integral():
    """Oracle: direct numerical integration of the order-2 Renyi divergence
    between the subsampled mixture (1-q) N(0, s^2) + q N(1, s^2) and the base
    N(0, s^2)."""
    sigma, q, alpha = 2.0, 0.01, 2

    def mix(x):
        return (1 - q) * norm.pdf(x, 0, sigma) + q * norm.pdf(x, 1, sigma)

    val, _ = integrate.quad(
        lambda x: mix(x) ** alpha / norm.pdf(x, 0, sigma) ** (alpha - 1),
        -60, 60, limit=400)
    oracle = math.log(val) / (alpha - 1)
    ours = rdp_subsampled_gaussian(alpha, sigma, q)
    assert ours == pytest.approx(oracle, rel=1e-6)


def test_rdp_subsampled_monotone_in_q_and_sigma():
    for a in (2, 5, 17):
        qs = np.linspace(0.0, 1.0, 21)
        vals = [rdp_subsampled_gaussian(a, 1.1, q) for q in qs]
        assert np.all(np.diff(vals) >= -1e-15)
        sigmas = np.linspace(0.5, 5.0, 20)
        vals_s = [rdp_subsampled_gaussian(a, s, 0.05) for s in sigmas]
        assert np.all(np.diff(vals_s) <= 1e-15)


def test_rdp_subsampled_rejects_non_integer_order():
    with pytest.raises(UnsupportedOrderError):
        rdp_subsampled_gaussian(2.5, 1.0, 0.1)
    with pytest.raises(UnsupportedOrderError):
        rdp_subsampled_gaussian(1, 1.0, 0.1)
    # sgd_profile does not truncate 2.5 and 3.7 to orders 2 and 3, which
    # would understate the spend.
    for q in (0.1, 1.0):
        with pytest.raises(UnsupportedOrderError):
            sgd_profile(SgdAccountingRecord(1.0, q, 100), (2.5, 3.7))


def test_rdp_profile_validation_and_table():
    with pytest.raises(ValueError):
        RdpProfile((2.0, 2.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        RdpProfile((1.0, 2.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        RdpProfile((2.0,), (-1.0,))
    with pytest.raises(ValueError):
        RdpProfile((2.0, math.nan), (0.0, 0.0))
    with pytest.raises(ValueError):
        RdpProfile((2.0,), (math.nan,))
    profile = RdpProfile((2.0, 3.0), (0.5, 0.25))
    assert list(zip(profile.orders, profile.values)) == [(2.0, 0.5),
                                                         (3.0, 0.25)]


def test_rdp_compose():
    orders = (2.0, 4.0, 8.0)
    single = gaussian_profile(2.0, orders)
    k = 7
    composed = rdp_compose([single] * k)
    for a, v in zip(composed.orders, composed.values):
        assert v == pytest.approx(k * a / (2 * 4.0), rel=1e-12)
    zero = RdpProfile.zeros(orders)
    assert rdp_compose([single, zero]).values == single.values
    assert rdp_compose([RdpProfile((2.0,), (0.3,)),
                        RdpProfile((2.0,), (0.7,))]).values == (1.0,)
    with pytest.raises(GridMismatchError):
        rdp_compose([single, RdpProfile((2.0,), (0.0,))])


def test_rdp_to_eps_values():
    assert rdp_to_eps(RdpProfile((2.0,), (1.0,)), 1e-5) == pytest.approx(
        1.0 + math.log(1e5), abs=1e-12)
    zero = RdpProfile.zeros(default_orders())
    # all-zero profile: nothing is spent, for every delta
    assert rdp_to_eps(zero, 0.5) == 0.0
    assert rdp_to_eps(zero, 1e-5) == 0.0
    # a flat positive profile: best order is the largest on the grid
    tiny = RdpProfile(zero.orders, (1e-15,) * len(zero.orders))
    assert rdp_to_eps(tiny, 0.5) == pytest.approx(math.log(2) / 255, abs=1e-12)
    with pytest.raises(ValueError):
        rdp_to_eps(zero, 0.0)


def test_rdp_to_eps_monotone_in_profile():
    orders = default_orders()
    small = gaussian_profile(3.0, orders, queries=5)
    large = gaussian_profile(3.0, orders, queries=9)
    assert rdp_to_eps(small, 1e-5) <= rdp_to_eps(large, 1e-5)
    assert rdp_to_eps(RdpProfile.zeros(orders), 1e-5) < rdp_to_eps(small, 1e-5)


def test_sgd_profile_history_sum():
    orders = (2.0, 3.0)
    rec = SgdAccountingRecord(1.5, 0.02, 10)
    one = sgd_profile(rec, orders)
    # A history of runs composes with rdp_compose; two equal runs are one
    # run of twice the steps.
    two = rdp_compose([one, one])
    double = sgd_profile(SgdAccountingRecord(1.5, 0.02, 20), orders)
    for a, b, c in zip(two.values, one.values, double.values):
        assert a == pytest.approx(2 * b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-12)
    # No steps, or no sampling, spends nothing, whatever the noise: the
    # profile equals (and hashes as) the zero profile.
    for empty in (SgdAccountingRecord(1.5, 0.02, 0),
                  SgdAccountingRecord(0.0, 0.5, 0),
                  SgdAccountingRecord(0.0, 0.0, 3)):
        zero = sgd_profile(empty, orders)
        assert zero == RdpProfile.zeros(orders)
        assert hash(zero) == hash(RdpProfile.zeros(orders))
    # zero noise with steps taken gives an unbounded profile
    assert math.isinf(sgd_profile(SgdAccountingRecord(0.0, 0.5, 3), orders).values[0])


# ---------------------------------------------------------------------------
# Calibration


def test_calibrate_sigma_q_inverts_single_gaussian_query():
    target = 1.0 + math.log(1e5)  # alpha=2 conversion crosses at sigma=1
    budget = BudgetSpec(target, 1e-5)
    sigma = calibrate_sigma_q(RdpProfile.zeros((2.0,)), 1, budget, rel_tol=1e-4)
    assert sigma == pytest.approx(1.0, abs=1e-2)


def test_calibrate_sigma_q_infeasible():
    train = RdpProfile((2.0,), (100.0,))
    with pytest.raises(InfeasibleBudgetError):
        calibrate_sigma_q(train, 5, BudgetSpec(1.0, 1e-5))


def test_calibrate_sigma_q_monotone_in_budget():
    orders = default_orders()
    train = sgd_profile(SgdAccountingRecord(2.0, 0.02, 200), orders)
    sigmas = [calibrate_sigma_q(train, 20, BudgetSpec(e, 1e-5))
              for e in (1.0, 2.0, 4.0)]
    assert sigmas[0] >= sigmas[1] >= sigmas[2]


@pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
def test_calibrate_sigma_q_budget_and_minimality(epsilon):
    orders = default_orders()
    sigma_sgd = calibrate_sigma_sgd(0.02, 100, 0.5 * epsilon, 1e-5)
    train = sgd_profile(SgdAccountingRecord(sigma_sgd, 0.02, 100), orders)
    budget = BudgetSpec(epsilon, 1e-5)
    k = 20
    sigma_q = calibrate_sigma_q(train, k, budget, rel_tol=0.01)

    def eps_total(s):
        return rdp_to_eps(rdp_compose([train, gaussian_profile(s, orders,
                                                               queries=k)]),
                          1e-5)

    assert eps_total(sigma_q) <= epsilon
    assert eps_total(0.9 * sigma_q) > epsilon


def test_calibrate_sigma_sgd_meets_target():
    sigma = calibrate_sigma_sgd(0.05, 500, 1.0, 1e-5)
    rec = SgdAccountingRecord(sigma, 0.05, 500)
    assert rdp_to_eps(sgd_profile(rec), 1e-5) <= 1.0
    rec_small = SgdAccountingRecord(0.9 * sigma, 0.05, 500)
    assert rdp_to_eps(sgd_profile(rec_small), 1e-5) > 1.0


def _oracle_rdp_subsampled(a: int, sigma: float, q: float) -> float:
    """The direct term formula, each term summed in one expression."""
    inv2s2 = 1.0 / (2.0 * sigma**2)
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    terms = [
        (math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1))
        + k * log_q + (a - k) * log_1mq + (k * k - k) * inv2s2
        for k in range(a + 1)
    ]
    m = max(terms)
    return max(m + math.log(math.fsum(math.exp(t - m) for t in terms)),
               0.0) / (a - 1)


@pytest.mark.parametrize("q", [1e-4, 0.01, 0.1, 0.5, 0.99])
def test_rdp_subsampled_bit_equal_to_direct_formula(q):
    # Both add the same float terms. They differ only in exp (numpy's is
    # within a few ulp, math's within one) and in the sum of the at most 257
    # positive shifted terms (numpy's sum, sequential at worst, is within
    # 256 ulp; fsum rounds once). That sum lies in [1, 257], so its log
    # differs by at most about 260 * 2^-53 ~ 3e-14, plus a few ulp of the
    # value; dividing by a - 1 >= 1 only shrinks the gap.
    for a in (2, 3, 17, 64, 128, 256):
        for sigma in (0.3, 1.0, 7.5):
            ours = rdp_subsampled_gaussian(a, sigma, q)
            oracle = _oracle_rdp_subsampled(a, sigma, q)
            assert abs(ours - oracle) <= 3e-14 * max(1.0, oracle)


def _oracle_sigma_sgd(rate, steps, target, delta=1e-5):
    """The bisection over the direct term formula, converted exactly."""
    orders = default_orders()

    def eps_of(sigma):
        values = tuple(steps * _oracle_rdp_subsampled(a, sigma, rate)
                       for a in orders)
        return rdp_to_eps(RdpProfile(tuple(map(float, orders)), values),
                          delta)

    return accounting._min_sigma_satisfying(eps_of, target, 1e-3, "oracle")


# (rate, steps, target) of every calibrate_sigma_sgd call the benchmark
# workloads make besides calib_sweep's dpscp_f grid (seed 1, full size).
_BENCH_SGD_KEYS = [
    # scaling_mlp
    (0.0064, 314, 0.25), (0.0064, 314, 0.5), (0.0128, 158, 0.25),
    (0.0128, 158, 0.5), (0.0128, 158, 1.0), (0.0256, 80, 0.5),
    (0.0256, 80, 1.0),
    # realdata_csv
    (0.008, 250, 0.25), (0.008, 250, 0.5), (0.016, 126, 0.5),
    (0.016, 126, 1.0),
    # stability_coupled
    (0.02, 2000, 0.5), (0.02, 2000, 1.0), (0.02, 2000, 2.0),
    # calib_sweep, dp_split (half the pool, the whole epsilon)
    (0.2, 5, 0.3), (0.2, 5, 0.7), (0.2, 5, 1.1), (0.2, 5, 1.7), (0.2, 5, 2.3),
    (0.2, 5, 3.1),
]


def test_calibrate_sigma_sgd_bit_equal_on_the_calib_sweep_grid():
    # The calib_sweep benchmark grid: dpscp_f trains 10 steps at q = 0.1
    # for each of its 18 distinct p * eps targets.
    keys = [(0.1, 10, p * eps) for eps in (0.3, 0.7, 1.1, 1.7, 2.3, 3.1)
            for p in (0.25, 0.5, 0.75)]
    for rate, steps, target in keys + _BENCH_SGD_KEYS:
        assert calibrate_sigma_sgd(rate, steps, target, 1e-5) == \
            _oracle_sigma_sgd(rate, steps, target)


def test_calibrate_sigma_q_equals_the_scalar_search(monkeypatch):
    orders = default_orders()
    trained = sgd_profile(SgdAccountingRecord(4.0, 0.05, 100), orders)
    # An overflowed training value is skipped by the conversion.
    partly_inf = RdpProfile(trained.orders,
                            trained.values[:-3] + (math.inf,) * 3)
    probes = []
    real = accounting._min_sigma_satisfying

    def spy(eps_of_sigma, eps_target, rel_tol, what):
        probes.append(eps_of_sigma)
        return real(eps_of_sigma, eps_target, rel_tol, what)

    for train in (RdpProfile.zeros(orders), trained, partly_inf):
        for epsilon in (0.5, 1.0, 2.0, 4.0):
            for k in (1, 20, 60):
                budget = BudgetSpec(epsilon, 1e-5)
                if rdp_to_eps(train, 1e-5) > epsilon:
                    with pytest.raises(InfeasibleBudgetError):
                        calibrate_sigma_q(train, k, budget)
                    continue

                def eps_total(s):
                    search = gaussian_profile(s, orders, queries=k)
                    return rdp_to_eps(rdp_compose([train, search]), 1e-5)

                monkeypatch.setattr(accounting, "_min_sigma_satisfying", spy)
                sigma = accounting._calibrate_sigma_q.__wrapped__(
                    train, k, epsilon, 1e-5, 1e-3)
                monkeypatch.undo()
                assert sigma == real(eps_total, epsilon, 1e-3, "oracle")
                # Each probe is the scalar conversion, bit for bit.
                probe = probes.pop()
                for s in [2.0 ** -40, 2.0 ** 40,
                          *map(float, np.geomspace(0.01, 100, 37))]:
                    assert probe(s) == eps_total(s)


def log_binom(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@pytest.mark.parametrize("rate", [1e-6, 0.0064, 0.1, 0.5, 0.9, 1 - 1e-6])
def test_sigma_free_grid_bit_equal_to_the_scalar_binomial_loop(rate):
    # Oracle: every term from the scalar formula, one term at a time.
    orders = default_orders()
    log_q, log_1mq = math.log(rate), math.log1p(-rate)
    base = [log_binom(a, k) + k * log_q + (a - k) * log_1mq
            for a in orders for k in range(a + 1)]
    k = np.concatenate([np.arange(a + 1, dtype=float) for a in orders])
    sizes = np.array(orders) + 1
    want = (np.array(base), k * k - k, np.cumsum(sizes) - sizes, sizes,
            np.array(orders, dtype=float) - 1.0)
    got = accounting._sigma_free_grid.__wrapped__(orders, rate)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_calibration_computes_each_binomial_term_once_per_rate(monkeypatch):
    # Every log C(a, k) of a rate's grid comes from one table of log m!.
    calls = {}
    real = math.lgamma

    def counting(x):
        calls[x] = calls.get(x, 0) + 1
        return real(x)

    calibrate_sigma_sgd.cache_clear()
    accounting._sigma_free_grid.cache_clear()
    monkeypatch.setattr(math, "lgamma", counting)
    try:
        every_factorial = set(range(1, max(default_orders()) + 2))
        calibrate_sigma_sgd(0.1, 10, 0.5, 1e-5)
        assert set(calls) == every_factorial
        assert max(calls.values()) == 1
        # Another target at the same rate reuses every term.
        calibrate_sigma_sgd(0.1, 10, 1.5, 1e-5)
        assert max(calls.values()) == 1
        # So does the spend recorded at that rate.
        sgd_profile(SgdAccountingRecord(2.0, 0.1, 10))
        assert max(calls.values()) == 1
        calibrate_sigma_sgd(0.05, 10, 0.5, 1e-5)
        assert set(calls.values()) == {2}
    finally:
        calibrate_sigma_sgd.cache_clear()
        accounting._sigma_free_grid.cache_clear()


def test_budget_spec_validation():
    with pytest.raises(ValueError):
        BudgetSpec(0.0, 1e-5)
    with pytest.raises(ValueError, match="epsilon_target"):
        BudgetSpec(math.nan, 1e-5)
    with pytest.raises(ValueError):
        BudgetSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        BudgetSpec(1.0, 1e-5, 1.0)


@pytest.mark.parametrize("steps", [2.5, math.nan, math.inf, -1])
def test_sgd_record_rejects_a_step_count_that_is_not_an_integer(steps):
    with pytest.raises(ValueError, match="steps"):
        SgdAccountingRecord(1.0, 0.1, steps)


def test_sgd_record_takes_integer_step_counts():
    for steps in (0, 7, np.int64(7), 7.0):
        assert SgdAccountingRecord(1.0, 0.1, steps).steps == steps


@pytest.mark.parametrize("steps", [2.5, math.nan, math.inf, 0])
def test_calibrate_sigma_sgd_rejects_a_step_count_that_is_not_an_integer(
        steps):
    with pytest.raises(ValueError, match="steps"):
        calibrate_sigma_sgd(0.1, steps, 1.0, 1e-5)


def test_calibrate_sigma_sgd_takes_numpy_integer_step_counts():
    assert (calibrate_sigma_sgd(0.1, np.int64(3), 1.0, 1e-5)
            == calibrate_sigma_sgd(0.1, 3, 1.0, 1e-5))


def test_nan_is_rejected_by_the_calibration_checks():
    # So are an infinite epsilon, one too large for a float, and True right
    # after a call at 1.0, which an untyped cache would answer from 1.0's
    # entry.
    calibrate_sigma_sgd(0.1, 10, 1.0, 1e-5)
    for epsilon in (math.nan, math.inf, 10**400, True):
        with pytest.raises(ValueError, match="epsilon_target"):
            calibrate_sigma_sgd(0.1, 10, epsilon, 1e-5)
    with pytest.raises(ValueError, match="noise_multiplier"):
        SgdAccountingRecord(math.nan, 0.1, 10)
    with pytest.raises(ValueError, match="rel_tol"):
        accounting._min_sigma_satisfying(lambda s: 0.0, 1.0, math.nan, "x")
