import math
import statistics
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from dpconformal.quantile import (QuantileConfig, RankOverflowError,
                                  _normal_ppf, buffered_right_search,
                                  exact_conformal_quantile, midpoint_search,
                                  noise_correction_tau, stability_buffer,
                                  target_rank)

TIE_JUMP_SCORES = [0.0] * 5 + [10.0] * 8 + [11.0]  # n=14, jump 5 -> 13 at 10
STAIRCASE_SCORES = [float(v) for v in range(1, 11)]  # n=10, no ties


def test_target_rank_values():
    assert target_rank(14, 0.2) == 12
    assert target_rank(10, 0.2) == 9
    assert target_rank(100, 1e-12) == 101
    # 0.7 * 10 is 7.000000000000001 in floats; the ceiling must still be 7
    assert target_rank(9, 0.3) == 7


def test_noise_correction_tau_values():
    assert noise_correction_tau(1.0, 0.5, 1) == pytest.approx(-1.0)
    assert noise_correction_tau(0.0, 0.1, 10) == -1.0
    beta_over_n = 1.0 - norm.cdf(2.0)
    assert noise_correction_tau(2.0, beta_over_n, 1) == pytest.approx(3.0, abs=1e-9)
    # beta/N = 0.05/20, the value every default config uses.
    assert noise_correction_tau(1.0, 0.05, 20) == 2.8070337683438042 - 1.0
    for beta, steps_n in ((0.05, 20), (1e-5, 10), (1e-11, 10), (0.3, 1)):
        z = norm.ppf(1.0 - beta / steps_n)
        for sigma in (0.5, 3.0):
            # 1 - beta/N rounds to a double, which moves the reference
            # quantile by up to eps / phi(z).
            tol = 1e-12 + sigma * np.finfo(float).eps / norm.pdf(z)
            assert noise_correction_tau(sigma, beta, steps_n) == pytest.approx(
                sigma * z - 1.0, abs=tol)
    with pytest.raises(ValueError):
        noise_correction_tau(1.0, 0.99, 1) and noise_correction_tau(1.0, 2.0, 1)


# Every beta/K that a preset, an acceptance test or CI's base-commit configs
# search at, and the ones test_noise_correction_tau_values checks.
_BETA_OVER_K = (0.05 / 20, 0.05 / 12, 0.3 / 2, 1e-12 / 12, 1e-5 / 10,
                1e-11 / 10, 0.3 / 1)


def test_normal_ppf_is_normal_dist_inv_cdf_bit_for_bit():
    rng = np.random.default_rng(2026)
    edges = [0.075, 0.925, math.exp(-25), 1e-300, 1.0 - 1e-16, 0.5]
    # The branch edges (|p - 0.5| = 0.425, r = sqrt(-log p) = 5) and their
    # neighbouring doubles.
    edges += [float(np.nextafter(p, t)) for p in edges[:3] for t in (0, 1)]
    grid = [*rng.random(2000), *10.0 ** rng.uniform(-300, 0, 2000),
            *(1.0 - 10.0 ** rng.uniform(-16, 0, 1000))]
    inv_cdf = statistics.NormalDist().inv_cdf
    for p in [*map(float, grid), *edges, *_BETA_OVER_K]:
        assert _normal_ppf(p).hex() == inv_cdf(p).hex(), p
    branches = {0 if abs(p - 0.5) <= 0.425 else
                1 if math.sqrt(-math.log(min(p, 1.0 - p))) <= 5.0 else 2
                for p in _BETA_OVER_K}
    assert branches == {0, 1, 2}


def test_stability_buffer_values():
    assert stability_buffer(1000, 1.0, 1.0, 0.01, 0.1) == 100
    assert stability_buffer(1000, 1.0, 1.0, 0.0, 0.1) == 0
    with pytest.raises(ValueError):
        stability_buffer(10, 1.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Buffered right-endpoint search


def asymptotic_config(**kw):
    base = dict(range_lo=0.0, range_hi=16.0, alpha=0.2, steps_n=20,
                sigma_q=0.0, buffer_m=0, tau_override=0.0,
                variant="buffered_right")
    base.update(kw)
    return QuantileConfig(**base)


def test_buffered_noiseless_brackets_target_from_the_right():
    result = buffered_right_search(STAIRCASE_SCORES, asymptotic_config())
    assert result.rank_target_r == 9
    width = 16.0 / 2**20
    assert 9.0 <= result.q_hat < 9.0 + width
    assert len(result.trace) == 20


def test_buffered_trace_brackets_monotone_and_halving():
    cfg = asymptotic_config(sigma_q=2.0, tau_override=None, seed=5)
    result = buffered_right_search(STAIRCASE_SCORES, cfg)
    left, right = 0.0, 16.0
    width = right - left
    for step in result.trace:
        assert step.mid == pytest.approx(0.5 * (left + right))
        if step.branch == "right":
            right = step.mid
        else:
            left = step.mid
        assert left <= right
        width /= 2
        assert (right - left) == pytest.approx(width)
    assert result.q_hat == right


def test_buffered_deterministic_given_seed():
    cfg = asymptotic_config(sigma_q=3.0, tau_override=None, seed=11)
    a = buffered_right_search(STAIRCASE_SCORES, cfg)
    b = buffered_right_search(STAIRCASE_SCORES, cfg)
    assert a.q_hat == b.q_hat
    assert a.trace == b.trace


@pytest.mark.filterwarnings("ignore:effective threshold")
@pytest.mark.parametrize("search", [buffered_right_search, midpoint_search])
def test_trace_holds_plain_values(search):
    # A trace is read back and written out (the demo series, a ledger): no
    # numpy scalar in it, not even from a numpy range bound, and its repr
    # prints plain numbers.
    cfg = asymptotic_config(sigma_q=2.0, tau_override=None, seed=5,
                            range_hi=np.float64(16.0))
    for step in search(STAIRCASE_SCORES, cfg).trace:
        assert [type(v) for v in (step.step, step.mid, step.true_count,
                                  step.noisy_count, step.branch)] == [
            int, float, int, float, str]
        assert "np." not in repr(step)
        assert not hasattr(step, "__dict__")


def test_buffered_rank_overflow():
    with pytest.raises(RankOverflowError):
        buffered_right_search(STAIRCASE_SCORES, asymptotic_config(buffer_m=5))


def test_buffered_warns_when_range_misses_support():
    cfg = asymptotic_config(range_hi=8.0)
    with pytest.warns(UserWarning, match="range_hi"):
        buffered_right_search(STAIRCASE_SCORES, cfg)


def test_buffered_warns_when_r_prime_is_within_sigma_q_of_n():
    # A realdata dpscp_f cell on 1,000 rows at epsilon 1 (sigma_q 24.4)
    # returned the same q_hat for every model: r' = 978.5 leaves less than
    # one noise sd below n. At 2,500 rows and sigma_q 49.6 the headroom is
    # about 2 sigma_q, and the search does not warn.
    scores = np.linspace(0.0, 1.0, 1000)
    cfg = QuantileConfig(0.0, 1.0, 0.1, 20, sigma_q=24.4, buffer_m=10)
    with pytest.warns(UserWarning, match=r"effective threshold r' = 978\.492 "
                      r"leaves n - r' = 21\.508 below sigma_q = 24\.400"):
        assert buffered_right_search(scores, cfg).threshold_r_prime == (
            pytest.approx(978.49, abs=0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = buffered_right_search(np.linspace(0.0, 1.0, 2500),
                                       replace(cfg, sigma_q=49.6))
    assert 2500 - result.threshold_r_prime == pytest.approx(100.77, abs=0.01)


@pytest.mark.parametrize("field, value", [
    ("sigma_q", math.nan), ("sigma_q", math.inf),
    ("precision_delta", math.nan), ("precision_delta", math.inf),
    ("range_lo", -math.inf), ("range_hi", math.inf), ("buffer_m", math.nan),
    ("steps_n", math.nan), ("tau_override", math.nan),
    ("tau_override", -math.inf), ("buffer_m", 2.5), ("buffer_m", True),
    ("steps_n", 2.5), ("steps_n", 20.0), ("steps_n", True)])
def test_config_refuses_nan_and_infinite_values(field, value):
    # A NaN sigma_q ran the search on NaN noise, range_hi = inf returned
    # q_hat = inf and a NaN threshold never moved the right endpoint; each
    # is refused when the config is built. So is a count that is not an
    # integer: buffer_m = 2.5 moved r' by half a rank, and steps_n = 2.5
    # failed inside numpy.
    with pytest.raises(ValueError, match=field.split("_")[0]):
        asymptotic_config(**{field: value})


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_noise_correction_refuses_a_nan_or_infinite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma_q must be nonnegative"):
        noise_correction_tau(sigma, 0.05, 20)


def test_buffered_conservative_monte_carlo_quick():
    rng = np.random.default_rng(42)
    scores = rng.random(200)
    m_n, beta, steps, sigma = 5, 0.05, 20, 3.0
    r = target_rank(200, 0.1)
    order_stat = np.sort(scores)[r + m_n - 1]
    runs = 400
    hits = 0
    for seed in range(runs):
        cfg = QuantileConfig(0.0, 1.0, 0.1, steps, sigma_q=sigma, beta=beta,
                             buffer_m=m_n, seed=seed)
        hits += buffered_right_search(scores, cfg).q_hat >= order_stat
    # one-sided guarantee at level 1 - beta, with a 3-sigma Monte Carlo margin
    assert hits / runs >= 1 - beta - 3 * math.sqrt(beta * (1 - beta) / runs)


def test_shared_noise_larger_threshold_never_smaller_qhat():
    """With one noise stream, inflating r' can only push q_hat up."""
    rng = np.random.default_rng(7)
    scores = rng.random(150)
    for seed in range(25):
        cfg_a = QuantileConfig(0.0, 1.0, 0.1, 20, sigma_q=2.0, buffer_m=0,
                               tau_override=0.0, seed=seed)
        cfg_f = QuantileConfig(0.0, 1.0, 0.1, 20, sigma_q=2.0, buffer_m=5,
                               beta=0.05, seed=seed)
        q_a = buffered_right_search(scores, cfg_a).q_hat
        q_f = buffered_right_search(scores, cfg_f).q_hat
        assert q_f >= q_a


# ---------------------------------------------------------------------------
# Midpoint baseline and the two adversarial injections


def test_midpoint_noiseless_converges_to_target():
    cfg = QuantileConfig(0.0, 16.0, 0.2, None, sigma_q=0.0,
                         variant="midpoint", precision_delta=1e-4)
    result = midpoint_search(STAIRCASE_SCORES, cfg)
    # S_(9) = 9; the returned midpoint lands within the precision slack
    assert abs(result.q_hat - 9.0) <= 2e-4 + 16.0 / 2**len(result.trace)


def test_midpoint_tie_jump_injection_undershoots():
    steps = 20
    noise = [0.0] * steps
    noise[0] = 8.0  # first query sits at mid 9.5 where the count is 5
    cfg = QuantileConfig(8.0, 11.0, 0.2, steps, sigma_q=3.0,
                         variant="midpoint", precision_delta=1e-3,
                         noise_override=tuple(noise))
    result = midpoint_search(TIE_JUMP_SCORES, cfg)
    assert result.trace[0].mid == 9.5
    assert result.trace[0].true_count == 5
    # a left move puts the left endpoint at mid + precision_delta
    assert result.trace[1].branch == "left"
    assert result.trace[2].mid == pytest.approx((8.75 + 1e-3 + 9.5) / 2)
    assert result.q_hat < 10.0


def test_midpoint_staircase_injection_undershoots():
    steps = 20
    noise = [0.0] * steps
    noise[0] = 1.0  # first query sits at mid 8.5 where the count is 8
    cfg = QuantileConfig(7.0, 10.0, 0.2, steps, sigma_q=3.0,
                         variant="midpoint", precision_delta=1e-3,
                         noise_override=tuple(noise))
    result = midpoint_search(STAIRCASE_SCORES, cfg)
    assert result.trace[0].mid == 8.5
    # The bracket is pinned at 8.5; the left-branch +delta offset can push the
    # returned midpoint a hair above it, but never up to the target of 9.
    assert result.q_hat <= 8.5 + 2 * cfg.precision_delta
    assert result.q_hat < 9.0


@pytest.mark.filterwarnings("ignore:effective threshold")
def test_buffered_survives_the_same_injections():
    for scores, rng_pair, inject, target in (
            (TIE_JUMP_SCORES, (8.0, 11.0), 8.0, 10.0),
            (STAIRCASE_SCORES, (7.0, 10.0), 1.0, 9.0)):
        steps = 20
        noise = [0.0] * steps
        noise[0] = inject
        cfg = QuantileConfig(rng_pair[0], rng_pair[1], 0.2, steps, sigma_q=3.0,
                             beta=0.05, buffer_m=0,
                             noise_override=tuple(noise))
        result = buffered_right_search(scores, cfg)
        assert result.threshold_r_prime > result.rank_target_r + 1
        assert result.q_hat >= target


def test_buffered_tie_jump_trace_stays_above_jump():
    """Whenever no noisy count below the jump clears r', the output stays at
    or above the jump point."""
    for seed in range(40):
        cfg = QuantileConfig(8.0, 11.0, 0.2, 20, sigma_q=3.0, beta=0.05,
                             buffer_m=0, seed=seed)
        with pytest.warns(UserWarning, match="effective threshold"):
            result = buffered_right_search(TIE_JUMP_SCORES, cfg)
        crossed_below = any(s.noisy_count >= result.threshold_r_prime
                            for s in result.trace if s.mid < 10.0)
        if not crossed_below:
            assert result.q_hat >= 10.0


# ---------------------------------------------------------------------------
# Exact quantile


def test_exact_conformal_quantile():
    assert exact_conformal_quantile(STAIRCASE_SCORES, 9) == 9.0
    assert exact_conformal_quantile(TIE_JUMP_SCORES, 12) == 10.0
    assert exact_conformal_quantile([3.0, -1.0, 2.0], 1) == -1.0
    assert exact_conformal_quantile(STAIRCASE_SCORES, 11) == math.inf
    with pytest.raises(RankOverflowError):
        exact_conformal_quantile(STAIRCASE_SCORES, 12)
    with pytest.raises(RankOverflowError):
        exact_conformal_quantile(STAIRCASE_SCORES, 0)


def test_score_validation():
    # Every entry point that takes scores rejects an empty or non-finite set.
    buffered = QuantileConfig(0.0, 1.0, 0.2, 5)
    midpoint = QuantileConfig(0.0, 1.0, 0.2, None, variant="midpoint")
    for bad in ([], [1.0, math.nan], [1.0, math.inf], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="scores must"):
            buffered_right_search(bad, buffered)
        with pytest.raises(ValueError, match="scores must"):
            midpoint_search(bad, midpoint)
        with pytest.raises(ValueError, match="scores must"):
            exact_conformal_quantile(bad, 1)


@pytest.mark.filterwarnings("ignore:effective threshold")
def test_variant_only_governs_unset_steps():
    # Either search runs under either variant, with the same result.
    for steps_n in (5, 20):
        for search in (buffered_right_search, midpoint_search):
            runs = [search(STAIRCASE_SCORES, QuantileConfig(
                0.0, 16.0, 0.2, steps_n, sigma_q=1.0, seed=3, variant=v))
                for v in ("buffered_right", "midpoint")]
            assert runs[0] == runs[1]
    # steps_n may be unset only under "midpoint", and the buffered search
    # never runs without it.
    with pytest.raises(ValueError, match="midpoint"):
        QuantileConfig(0.0, 16.0, 0.2, None)
    unset = QuantileConfig(0.0, 16.0, 0.2, None, variant="midpoint")
    assert len(midpoint_search(STAIRCASE_SCORES, unset).trace) == 14
    with pytest.raises(ValueError, match="steps_n"):
        buffered_right_search(STAIRCASE_SCORES, unset)
    with pytest.raises(ValueError, match="unknown variant"):
        QuantileConfig(0.0, 16.0, 0.2, 5, variant="exact")
