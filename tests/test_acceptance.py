"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities (run with ``pytest -s`` to see them inline).

The tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from dpconformal.accounting import (BudgetSpec, SgdAccountingRecord,
                                    calibrate_sigma_q, calibrate_sigma_sgd,
                                    default_orders, gaussian_profile,
                                    gdp_compose, rdp_compose, rdp_gaussian,
                                    rdp_to_eps, sgd_profile)
from dpconformal.data import gen_logistic, gen_multiclass
from dpconformal.experiments import ExperimentConfig, run_experiment
from dpconformal.models import (ModelSpec, batch_loss_and_grads,
                                loss_and_grad, param_count)
from dpconformal.quantile import (QuantileConfig, buffered_right_search,
                                  midpoint_search, target_rank)
from dpconformal.conformal import PipelineConfig, run_pipeline
from dpconformal.training import (TrainConfig, coupled_train, dp_sgd_train,
                                  stability_bound_smooth)


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


# ---------------------------------------------------------------------------
# 1. One-sided conservativeness of the buffered search (Monte Carlo)


def test_criterion_01_buffered_search_conservativeness():
    start = time.time()
    n, alpha, m_n, beta, steps, sigma = 200, 0.1, 5, 0.05, 20, 3.0
    runs = 2000
    scores = np.random.default_rng(611).random(n)
    r = target_rank(n, alpha)
    order_stat = np.sort(scores)[r + m_n - 1]
    hits = 0
    for seed in range(runs):
        cfg = QuantileConfig(0.0, 1.0, alpha, steps, sigma_q=sigma, beta=beta,
                             buffer_m=m_n, seed=seed)
        hits += buffered_right_search(scores, cfg).q_hat >= order_stat
    frequency = hits / runs
    floor = 1 - beta - 3 * math.sqrt(beta * (1 - beta) / runs)
    elapsed = time.time() - start
    assert frequency >= floor
    assert elapsed < 60.0
    report(1, f"freq(q_hat >= S_(r+{m_n})) = {frequency:.4f} >= {floor:.4f} "
              f"over {runs} runs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Midpoint-search failure vs buffered-search survival (exact)


@pytest.mark.filterwarnings("ignore:effective threshold")
def test_criterion_02_midpoint_failure_reproduction():
    tie_jump = [0.0] * 5 + [10.0] * 8 + [11.0]
    staircase = [float(v) for v in range(1, 11)]
    cases = [
        (tie_jump, (8.0, 11.0), 8.0, 10.0),
        (staircase, (7.0, 10.0), 1.0, 9.0),
    ]
    outcomes = []
    for scores, (lo, hi), injection, s_r in cases:
        steps = 20
        noise = [0.0] * steps
        noise[0] = injection
        mid_cfg = QuantileConfig(lo, hi, 0.2, steps, sigma_q=3.0,
                                 variant="midpoint", precision_delta=1e-3,
                                 noise_override=tuple(noise))
        mid_q = midpoint_search(scores, mid_cfg).q_hat
        buf_cfg = QuantileConfig(lo, hi, 0.2, steps, sigma_q=3.0, beta=0.05,
                                 buffer_m=0, noise_override=tuple(noise))
        buf_q = buffered_right_search(scores, buf_cfg).q_hat
        assert mid_q < s_r
        assert buf_q >= s_r
        outcomes.append(f"midpoint {mid_q:.4f} < {s_r:g} <= buffered {buf_q:g}")
    report(2, "; ".join(outcomes))


# ---------------------------------------------------------------------------
# 3. Composition exactness and noise-calibration minimality


def test_criterion_03_composition_and_calibration():
    assert gdp_compose([3.0, 4.0]) == 5.0
    orders = default_orders()
    single = gaussian_profile(1.7, orders)
    composed = rdp_compose([single] * 13)
    for a, v in zip(composed.orders, composed.values):
        assert abs(v - 13 * rdp_gaussian(a, 1.7)) <= 1e-12

    delta, k, p = 1e-5, 20, 0.5
    witnessed = []
    for epsilon in (0.5, 1.0, 2.0):
        sigma_sgd = calibrate_sigma_sgd(0.02, 100, p * epsilon, delta)
        train = sgd_profile(SgdAccountingRecord(sigma_sgd, 0.02, 100), orders)
        sigma_q = calibrate_sigma_q(train, k, BudgetSpec(epsilon, delta, p),
                                    rel_tol=0.01)

        def eps_total(s):
            qt = gaussian_profile(s, orders, queries=k)
            return rdp_to_eps(rdp_compose([train, qt]), delta)

        assert eps_total(sigma_q) <= epsilon
        assert eps_total(0.9 * sigma_q) > epsilon
        witnessed.append(f"eps={epsilon:g}: sigma_q={sigma_q:.2f}")
    report(3, "gdp_compose([3,4])=5; 13-fold additivity <=1e-12; " +
              "; ".join(witnessed))


# ---------------------------------------------------------------------------
# 4-6. Synchronized coupling: divergence law, exact zero gap, smooth bound

N_COUPLING, D_COUPLING, Q_COUPLING, T_COUPLING = 1000, 10, 0.02, 100
SPEC_COUPLING = ModelSpec("softmax_linear", D_COUPLING, 2)


def coupling_run(seed, sigma_sgd, radius=None, schedule=None):
    data, theta = gen_logistic(N_COUPLING + 1, D_COUPLING, seed=70000 + seed)
    base = data.subset(np.arange(N_COUPLING))
    extra = (data.features[N_COUPLING], int(data.labels[N_COUPLING]))
    target = np.concatenate([-theta / 2, theta / 2])
    cfg = TrainConfig(1e-3, T_COUPLING, Q_COUPLING, 1.0,
                      noise_multiplier=sigma_sgd, projection_radius=radius,
                      seed=seed)
    trace = coupled_train(base, extra, SPEC_COUPLING, cfg, theta_star=target,
                          extra_schedule=schedule)
    max_x_sq = (np.linalg.norm(data.features, axis=1) ** 2).max()
    return trace, max_x_sq


def test_criterion_04_coupling_divergence_law():
    start = time.time()
    seeds = 300
    hits = 0
    for s in range(seeds):
        trace, _ = coupling_run(s, sigma_sgd=1.0)
        hits += trace.gap_series[-1] > 0
    frequency = hits / seeds
    bound = 1 - (1 - Q_COUPLING) ** T_COUPLING
    margin = 3 * math.sqrt(bound * (1 - bound) / seeds)
    elapsed = time.time() - start
    assert abs(frequency - bound) < margin
    assert elapsed < 300.0
    report(4, f"P(gap>0) = {frequency:.4f} vs 1-(1-q)^T = {bound:.4f} "
              f"(margin {margin:.4f}) over {seeds} seeds in {elapsed:.1f}s")


def test_criterion_05_zero_gap_bitwise():
    schedule = np.zeros(T_COUPLING, dtype=bool)
    for s in range(20):
        trace, _ = coupling_run(s, sigma_sgd=1.0, schedule=schedule)
        assert np.all(trace.gap_series == 0.0)
        assert not trace.diverged
    report(5, "gap_series identically 0.0 (bitwise) for 20 seeds with the "
              "extra-point stream forced off")


def test_criterion_06_smooth_stability_bound_and_gap_vs_error():
    seeds = 300
    lines = []
    for epsilon in (0.5, 1.0, 2.0):
        sigma_sgd = calibrate_sigma_sgd(Q_COUPLING, T_COUPLING, epsilon, 1e-5)
        gaps = np.empty(seeds)
        errors = np.empty(seeds)
        max_x_sq = 0.0
        for s in range(seeds):
            trace, x_sq = coupling_run(s, sigma_sgd, radius=1.0)
            gaps[s] = trace.gap_series[-1]
            errors[s] = trace.error_series[-1]
            max_x_sq = max(max_x_sq, x_sq)
        # documented smoothness constant: the two-class softmax cross-entropy
        # gradient is L-Lipschitz with L = max_i ||x_i||^2 / 2 (logit Hessian
        # operator norm is at most 1/2), taken over the pooled n+1 points
        lipschitz = max_x_sq / 2
        bound = stability_bound_smooth(
            N_COUPLING, Q_COUPLING, lipschitz, 1.0,
            sigma_sgd * 1.0, param_count(SPEC_COUPLING), 1e-3, T_COUPLING)
        mean_gap, mean_error = gaps.mean(), errors.mean()
        assert mean_gap <= bound
        assert mean_gap * 10 <= mean_error
        lines.append(f"eps={epsilon:g}: gap {mean_gap:.2e} <= bound "
                     f"{bound:.2e}, error/gap = {mean_error / mean_gap:.0f}x")
    report(6, "; ".join(lines))


# ---------------------------------------------------------------------------
# 7. Desk-scale sample-size scaling experiment


def test_criterion_07_desk_scale_scaling(tmp_path):
    start = time.time()
    config = ExperimentConfig(
        experiment="scaling", trials=10, seed=20260810,
        epsilons=(0.5, 1.0), sample_sizes=(2500, 5000), allocations=(0.5,),
        methods=("dpscp_f", "dpscp_a", "dp_split"),
        generator={"dim": 10, "classes": 5, "class_sep": 0.6, "flip_y": 0.01,
                   "test_size": 2000},
        train={"model": "mlp", "hidden": [16, 16], "epochs": 50,
               "batch_size": 32, "learning_rate": 1e-2, "clip_norm": 1.0},
        quantile={"steps": 20, "beta": 0.05, "buffer": 10},
        output=str(tmp_path / "scaling.csv"),
    )
    rows = run_experiment(config, jobs=2)
    assert not any(r["status"].startswith("failed") for r in rows)
    means = {}
    for r in rows:
        if r["trial"] == "mean":
            means[(r["method"], float(r["epsilon"]), int(r["n"]))] = {
                "coverage": float(r["coverage"]),
                "efficiency": float(r["efficiency"]),
            }
    grid = [(e, n) for e in config.epsilons for n in config.sample_sizes]
    # (a) asymptotic variant holds the nominal level
    for e, n in grid:
        assert 0.88 <= means[("dpscp_a", e, n)]["coverage"] <= 0.92
    # (b) the finite-sample variant is at least as conservative
    for e, n in grid:
        assert (means[("dpscp_f", e, n)]["coverage"]
                >= means[("dpscp_a", e, n)]["coverage"])
    # (c) full-data reuse beats the split baseline on set size
    for e, n in grid:
        assert (means[("dpscp_a", e, n)]["efficiency"]
                < means[("dp_split", e, n)]["efficiency"])
    # (d) set sizes shrink (weakly) in both n and epsilon
    for method in config.methods:
        for e in config.epsilons:
            assert (means[(method, e, 5000)]["efficiency"]
                    <= means[(method, e, 2500)]["efficiency"])
        for n in config.sample_sizes:
            assert (means[(method, 1.0, n)]["efficiency"]
                    <= means[(method, 0.5, n)]["efficiency"])
    elapsed = time.time() - start
    assert elapsed < 1200.0
    cov = means[("dpscp_a", 0.5, 5000)]["coverage"]
    report(7, f"all orderings hold; e.g. dpscp_a coverage(0.5, 5000) = "
              f"{cov:.4f}; ran in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Split-CP validity oracle


def test_criterion_08_split_cp_validity():
    start = time.time()
    trials = 100
    coverages = np.empty(trials)
    for t in range(trials):
        data_seed = int(np.random.SeedSequence(900 + t).generate_state(1)[0])
        both = gen_multiclass(1000 + 2000, 10, 5, 0.8, 0.01, seed=data_seed)
        test = both.subset(np.arange(1000))
        pool = both.subset(np.arange(1000, 3000))
        cfg = PipelineConfig(
            method="split_cp",
            budget=BudgetSpec(1.0, 1e-5),
            model=ModelSpec("softmax_linear", 10, 5),
            train_template=TrainConfig(0.05, 300, 32 / 1000, 1.0),
            quantile_template=QuantileConfig(0.0, 1.0, 0.1, 20),
        )
        coverages[t] = run_pipeline(pool, test, cfg, seed=900 + t).coverage
    mean_cov = coverages.mean()
    elapsed = time.time() - start
    assert abs(mean_cov - 0.90) <= 0.015
    # the guarantee interval is [1-alpha, 1-alpha + 1/(n_cal + 1)]; the mean
    # must sit inside it up to 3 Monte Carlo standard errors
    mc_se = coverages.std(ddof=1) / math.sqrt(trials)
    assert 0.90 - 3 * mc_se <= mean_cov <= 0.90 + 1 / 1001 + 3 * mc_se
    report(8, f"split_cp mean coverage = {mean_cov:.4f} in [0.885, 0.915] "
              f"over {trials} trials in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. DP-SGD reduction to gradient descent and gradient checks


def test_criterion_09_gd_reduction_and_gradient_checks():
    data, _ = gen_logistic(150, 8, seed=31)
    spec = ModelSpec("softmax_linear", 8, 2)
    steps = 50
    lr = 0.2
    trained = dp_sgd_train(
        data, spec, TrainConfig(lr, steps, 1.0, 1e9, noise_multiplier=0.0,
                                seed=0))
    theta = np.zeros(param_count(spec))
    for _ in range(steps):
        _, grads = batch_loss_and_grads(spec, theta, data.features,
                                        data.labels)
        theta = theta - lr * grads.mean(axis=0)
    worst = np.abs(trained.params - theta).max()
    assert worst < 1e-10

    rng = np.random.default_rng(2718)
    specs = [
        (ModelSpec("linear_regression", 6), "real"),
        (ModelSpec("softmax_linear", 6, 4), "class"),
        (ModelSpec("mlp", 6, 3, (16, 16)), "class"),
    ]
    worst_rel = 0.0
    h = 1e-5
    for spec, kind in specs:
        for _ in range(20):
            params = rng.standard_normal(param_count(spec)) * 0.5
            x = rng.standard_normal(spec.input_dim)
            y = rng.standard_normal() if kind == "real" else int(
                rng.integers(spec.output_dim))
            _, grad = loss_and_grad(spec, params, (x, y))
            fd = np.zeros_like(params)
            for i in range(params.size):
                up, down = params.copy(), params.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (loss_and_grad(spec, up, (x, y))[0]
                         - loss_and_grad(spec, down, (x, y))[0]) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8)
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-5
    report(9, f"GD reduction max coord diff = {worst:.2e} < 1e-10; worst "
              f"finite-difference rel err = {worst_rel:.2e} < 1e-5")


# ---------------------------------------------------------------------------
# 10. Byte-identical experiment reruns


def test_criterion_10_byte_identical_results(tmp_path):
    config = ExperimentConfig(
        experiment="scaling", trials=3, seed=1234,
        epsilons=(1.0,), sample_sizes=(600,), allocations=(0.5,),
        methods=("dpscp_a", "split_cp"),
        generator={"dim": 6, "classes": 3, "class_sep": 1.0, "flip_y": 0.01,
                   "test_size": 300},
        train={"model": "softmax_linear", "epochs": 5, "batch_size": 32,
               "learning_rate": 0.05, "clip_norm": 1.0},
        quantile={"steps": 20, "beta": 0.05, "buffer": 10},
        output=str(tmp_path / "det.csv"),
    )
    run_experiment(config)
    first = (tmp_path / "det.csv").read_bytes()
    run_experiment(config)
    second = (tmp_path / "det.csv").read_bytes()
    run_experiment(config, jobs=2)
    third = (tmp_path / "det.csv").read_bytes()
    assert first == second == third

    demo = ExperimentConfig(experiment="quantile_demo",
                            output=str(tmp_path / "demo.csv"))
    run_experiment(demo)
    demo_first = (tmp_path / "demo.csv").read_bytes()
    run_experiment(demo)
    assert (tmp_path / "demo.csv").read_bytes() == demo_first
    report(10, f"results CSV byte-identical across reruns and worker counts "
               f"({len(first)} bytes)")
