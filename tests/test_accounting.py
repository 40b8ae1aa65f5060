import math

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
                                    rdp_compose, rdp_gaussian,
                                    rdp_subsampled_gaussian, rdp_to_eps,
                                    sgd_profile)

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
    with pytest.raises(ValueError):
        rdp_gaussian(1.0, 1.0)


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


def test_rdp_profile_validation_and_table():
    with pytest.raises(ValueError):
        RdpProfile((2.0, 2.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        RdpProfile((1.0, 2.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        RdpProfile((2.0,), (-1.0,))
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
    for a in (2, 3, 17, 64, 128, 256):
        for sigma in (0.3, 1.0, 7.5):
            assert rdp_subsampled_gaussian(a, sigma, q) == \
                _oracle_rdp_subsampled(a, sigma, q)


def test_calibrate_sigma_sgd_bit_equal_on_the_calib_sweep_grid():
    # The calib_sweep benchmark grid: dpscp_f trains 10 steps at q = 0.1
    # for each of its 18 distinct p * eps targets.
    orders = default_orders()
    for eps in (0.3, 0.7, 1.1, 1.7, 2.3, 3.1):
        for p in (0.25, 0.5, 0.75):
            target = p * eps

            def eps_of(sigma):
                values = tuple(10 * _oracle_rdp_subsampled(a, sigma, 0.1)
                               for a in orders)
                return rdp_to_eps(RdpProfile(tuple(map(float, orders)),
                                             values), 1e-5)

            oracle = accounting._min_sigma_satisfying(
                eps_of, target, 1e-3, "oracle")
            assert calibrate_sigma_sgd(0.1, 10, target, 1e-5) == oracle


def test_calibration_computes_each_binomial_term_once_per_rate(monkeypatch):
    calls = {}

    def counting(n, k):
        calls[n, k] = calls.get((n, k), 0) + 1
        return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)

    calibrate_sigma_sgd.cache_clear()
    accounting._sigma_free_terms.cache_clear()
    monkeypatch.setattr(accounting, "_log_binom", counting)
    try:
        every_term = {(a, k) for a in default_orders() for k in range(a + 1)}
        calibrate_sigma_sgd(0.1, 10, 0.5, 1e-5)
        assert set(calls) == every_term
        assert max(calls.values()) == 1
        # Another target at the same rate reuses every term.
        calibrate_sigma_sgd(0.1, 10, 1.5, 1e-5)
        assert max(calls.values()) == 1
        calibrate_sigma_sgd(0.05, 10, 0.5, 1e-5)
        assert set(calls.values()) == {2}
    finally:
        calibrate_sigma_sgd.cache_clear()
        accounting._sigma_free_terms.cache_clear()


def test_budget_spec_validation():
    with pytest.raises(ValueError):
        BudgetSpec(0.0, 1e-5)
    with pytest.raises(ValueError):
        BudgetSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        BudgetSpec(1.0, 1e-5, 1.0)
