import math

import numpy as np
import pytest

from dpconformal.accounting import (BudgetSpec, InfeasibleBudgetError,
                                    SgdAccountingRecord,
                                    calibrate_sigma_sgd, default_orders,
                                    gaussian_profile, rdp_compose, rdp_to_eps,
                                    sgd_profile)
from dpconformal.conformal import (PipelineConfig, _evaluate_fast,
                                   _in_sample_scores, _score_matrix,
                                   finish_stage, run_pipeline, train_stage,
                                   train_stages, train_target)
from dpconformal.data import gen_multiclass
from dpconformal.models import (Dataset, ModelSpec, param_count,
                                predict_proba, predict_value)
from dpconformal.quantile import QuantileConfig
from dpconformal.training import TrainConfig, TrainedModel

RNG = np.random.default_rng(55)


def make_model(spec, params):
    return TrainedModel(spec, np.asarray(params, dtype=float),
                        SgdAccountingRecord(0.0, 0.0, 0))


def softmax_model(k=8, d=3, params=None):
    spec = ModelSpec("softmax_linear", d, k)
    if params is None:
        params = np.zeros(param_count(spec))
    return make_model(spec, params)


def linear_model(theta):
    return make_model(ModelSpec("linear_regression", len(theta)), theta)


def one_row(x, y, task="classification", n_classes=0):
    return Dataset(np.asarray([x], dtype=float), np.asarray([y]), task,
                   n_classes)


def evaluate(model, test, q_hat, target_scale):
    """_evaluate_fast on the test scores the train stage would compute."""
    return _evaluate_fast(_score_matrix(model, test), test, q_hat,
                          target_scale)


def per_row_metrics(model, test, q_hat, target_scale):
    """Oracle for _evaluate_fast: build each test row's set on its own and
    average coverage, size (width on the target scale) and singletons."""
    covered, sizes = [], []
    for x, y in zip(test.features, test.labels):
        if test.task == "classification":
            probs = predict_proba(model.spec, model.params, x[None, :])[0]
            labels = {k for k, p in enumerate(probs) if 1.0 - p <= q_hat}
            covered.append(int(y) in labels)
            sizes.append(len(labels))
        else:
            f = predict_value(model.spec, model.params, x[None, :])[0]
            lo, hi = f - q_hat, f + q_hat
            covered.append(lo <= y <= hi)
            sizes.append((hi - lo) * target_scale)
    return {"coverage": float(np.mean(covered)),
            "efficiency": float(np.mean(sizes)),
            "informativeness": (float(np.mean(np.equal(sizes, 1)))
                                if test.task == "classification" else None)}


# ---------------------------------------------------------------------------
# Scores and sets


def test_nonconformity_probability_one_class():
    # one huge weight row drives the softmax to probability ~1 on class 0
    spec = ModelSpec("softmax_linear", 2, 3)
    w = np.zeros((3, 2))
    w[0] = [50.0, 50.0]
    model = make_model(spec, w.ravel())
    score = _in_sample_scores(model, one_row([1.0, 1.0], 0, n_classes=3))
    assert score[0] == pytest.approx(0.0, abs=1e-12)


def test_nonconformity_uniform_eight_classes():
    model = softmax_model(k=8)
    score = _in_sample_scores(model,
                              one_row(RNG.standard_normal(3), 5, n_classes=8))
    assert score[0] == pytest.approx(1 - 1 / 8)


def test_nonconformity_regression_residual():
    model = linear_model([2.0])
    score = _in_sample_scores(model, one_row([1.0], 3.5, "regression"))
    assert score[0] == pytest.approx(1.5)


def test_build_prediction_set_classification():
    # uniform probabilities: every score is 0.75
    model = softmax_model(k=4)
    test = Dataset(RNG.standard_normal((3, 3)), np.array([0, 1, 3]),
                   "classification", 4)
    assert evaluate(model, test, 1.0, 1.0) == {
        "coverage": 1.0, "efficiency": 4.0, "informativeness": 0.0}
    assert evaluate(model, test, 0.5, 1.0) == {
        "coverage": 0.0, "efficiency": 0.0, "informativeness": 0.0}


def test_build_prediction_set_regression():
    # f(x) = 1 at x = 1, so q_hat = 0.25 gives the closed set [0.75, 1.25]
    model = linear_model([1.0])
    test = Dataset(np.ones((4, 1)), np.array([0.75, 1.25, 1.3, 0.7]),
                   "regression")
    out = evaluate(model, test, 0.25, 1.0)
    assert out["coverage"] == 0.5
    assert out["efficiency"] == pytest.approx(0.5)


def test_evaluate_metric_definitions():
    # one dominant class per row: at q_hat = 0.5 each set is that singleton
    spec = ModelSpec("softmax_linear", 2, 3)
    w = np.zeros((3, 2))
    w[0] = [50.0, 0.0]
    w[1] = [0.0, 50.0]
    model = make_model(spec, w.ravel())
    test = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([0, 1, 2, 2]), "classification", 3)
    assert evaluate(model, test, 0.5, 1.0) == {
        "coverage": 0.5, "efficiency": 1.0, "informativeness": 1.0}
    regression = Dataset(np.array([[0.0], [2.0]]), np.array([1.0, 5.0]),
                         "regression")
    out = evaluate(linear_model([1.0]), regression, 1.0, 1.0)
    assert out["coverage"] == 0.5
    assert out["efficiency"] == pytest.approx(2.0)
    assert out["informativeness"] is None


def test_monotone_nesting_in_qhat():
    model = softmax_model(k=5, d=4, params=RNG.standard_normal(20))
    test = gen_multiclass(200, 4, 5, 1.0, 0.0, seed=4)
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0, math.inf]
    sizes = [evaluate(model, test, q, 1.0)["efficiency"] for q in grid]
    assert sizes == sorted(sizes)
    assert sizes[-1] == 5.0


def test_evaluate_fast_matches_set_construction():
    classifier = make_model(ModelSpec("softmax_linear", 4, 5),
                            RNG.standard_normal(20))
    class_test = gen_multiclass(300, 4, 5, 1.0, 0.0, seed=8)
    regressor = linear_model([0.5, -0.2])
    reg_test = Dataset(RNG.standard_normal((200, 2)), RNG.standard_normal(200),
                       "regression")
    for q_hat in (0.0, 0.3, 0.7, 0.95, math.inf):
        fast = evaluate(classifier, class_test, q_hat, 1.0)
        assert fast == pytest.approx(
            per_row_metrics(classifier, class_test, q_hat, 1.0))
        fast = evaluate(regressor, reg_test, q_hat, 3.0)
        assert fast == pytest.approx(
            per_row_metrics(regressor, reg_test, q_hat, 3.0))


def test_evaluate_fast_regression_width_rescaled():
    model = linear_model([0.5, -0.2])
    test = Dataset(RNG.standard_normal((50, 2)), RNG.standard_normal(50),
                   "regression")
    out = evaluate(model, test, 0.3, target_scale=4.0)
    assert out["efficiency"] == pytest.approx(2 * 0.3 * 4.0)


# ---------------------------------------------------------------------------
# Pipelines


def tiny_pipeline_config(method, n_pool, epsilon=1.0, allocation=0.5,
                         steps=300, batch=32):
    n_train = n_pool if method in ("dpscp_f", "dpscp_a", "naive_full") \
        else n_pool // 2
    return PipelineConfig(
        method=method,
        budget=BudgetSpec(epsilon, 1e-5, allocation),
        model=ModelSpec("softmax_linear", 10, 5),
        train_template=TrainConfig(0.05, steps, min(1.0, batch / n_train), 1.0),
        quantile_template=QuantileConfig(0.0, 1.0, 0.1, 20, beta=0.05,
                                         buffer_m=10),
        alpha=0.1,
    )


@pytest.fixture(scope="module")
def class_pool_test():
    both = gen_multiclass(1500 + 600, 10, 5, 0.8, 0.01, seed=99)
    test = both.subset(np.arange(600))
    pool = both.subset(np.arange(600, 2100))
    return pool, test


@pytest.mark.parametrize("method", ["dpscp_f", "dpscp_a", "dp_split",
                                    "split_cp", "naive_full"])
def test_run_pipeline_report_shape(method, class_pool_test):
    pool, test = class_pool_test
    report = run_pipeline(pool, test, tiny_pipeline_config(method, pool.n),
                          seed=7)
    assert 0.0 <= report.coverage <= 1.0
    assert report.efficiency >= 0.0
    assert 0.0 <= report.informativeness <= 1.0
    if method in ("split_cp", "naive_full"):
        assert report.sigma_q == 0.0 and report.eps_train_spent == 0.0
    else:
        assert report.sigma_q > 0.0


def test_pipeline_privacy_ledger(class_pool_test):
    """Recompute the total privacy spend from the report and the pipeline's
    deterministic calibration inputs; it must respect the global budget."""
    pool, test = class_pool_test
    epsilon, delta, p = 1.0, 1e-5, 0.5
    for method in ("dpscp_f", "dpscp_a"):
        cfg = tiny_pipeline_config(method, pool.n, epsilon, p)
        report = run_pipeline(pool, test, cfg, seed=3)
        tmpl = cfg.train_template
        sigma_sgd = calibrate_sigma_sgd(tmpl.sampling_rate, tmpl.steps,
                                        p * epsilon, delta)
        orders = default_orders()
        train = sgd_profile(SgdAccountingRecord(sigma_sgd, tmpl.sampling_rate,
                                                tmpl.steps), orders)
        assert rdp_to_eps(train, delta) == pytest.approx(
            report.eps_train_spent, rel=1e-9)
        total = rdp_to_eps(
            rdp_compose([train, gaussian_profile(report.sigma_q, orders,
                                                 queries=20)]), delta)
        assert report.eps_train_spent <= p * epsilon + 1e-12
        assert total <= epsilon + 1e-12

    # dp_split: both stages individually meet the full budget
    cfg = tiny_pipeline_config("dp_split", pool.n, epsilon, p)
    report = run_pipeline(pool, test, cfg, seed=3)
    assert report.eps_train_spent <= epsilon + 1e-12
    quantile_only = rdp_to_eps(
        gaussian_profile(report.sigma_q, default_orders(), queries=20), delta)
    assert quantile_only <= epsilon + 1e-12


def test_finite_variant_at_least_as_conservative(class_pool_test):
    pool, test = class_pool_test
    for seed in (1, 2, 3):
        rep_f = run_pipeline(pool, test, tiny_pipeline_config("dpscp_f", pool.n),
                             seed=seed)
        rep_a = run_pipeline(pool, test, tiny_pipeline_config("dpscp_a", pool.n),
                             seed=seed)
        assert rep_f.q_hat >= rep_a.q_hat
        assert rep_f.coverage >= rep_a.coverage
        assert rep_f.sigma_q == rep_a.sigma_q


def test_run_pipeline_schema_mismatch():
    pool = gen_multiclass(100, 4, 3, 1.0, 0.0, seed=1)
    test = gen_multiclass(50, 5, 3, 1.0, 0.0, seed=2)
    with pytest.raises(ValueError):
        run_pipeline(pool, test, tiny_pipeline_config("split_cp", 100), seed=0)


def test_regression_pipeline_widths_on_original_scale():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((800, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(800)
    # standardized-target pipeline with a known rescale factor
    scale = 7.5
    pool = Dataset(x[:600], y[:600], "regression")
    test = Dataset(x[600:], y[600:], "regression")
    cfg = PipelineConfig(
        method="split_cp",
        budget=BudgetSpec(1.0, 1e-5),
        model=ModelSpec("linear_regression", 3),
        train_template=TrainConfig(0.1, 400, 0.1, 5.0),
        quantile_template=QuantileConfig(0.0, 10.0, 0.1, 20),
        alpha=0.1,
        target_scale=scale,
    )
    report = run_pipeline(pool, test, cfg, seed=5)
    assert report.efficiency == pytest.approx(2 * report.q_hat * scale)
    assert report.coverage >= 0.8
    assert report.informativeness is None


def test_train_target_names_the_shared_model():
    budget = BudgetSpec(2.0, 1e-5, 0.25)
    assert train_target("dpscp_f", budget) == (False, 0.5)
    assert train_target("dpscp_a", budget) == (False, 0.5)
    assert train_target("dp_split", budget) == (True, 2.0)
    assert train_target("split_cp", budget) == (True, None)
    assert train_target("naive_full", budget) == (False, None)
    with pytest.raises(ValueError):
        train_target("nope", budget)


def test_one_train_stage_finishes_every_method_that_shares_it(
        class_pool_test):
    pool, test = class_pool_test
    for methods in (("dpscp_f", "dpscp_a"), ("split_cp",), ("naive_full",),
                    ("dp_split",)):
        configs = [tiny_pipeline_config(m, pool.n) for m in methods]
        stage = train_stage(pool, test, configs[0], seed=11)
        for cfg in configs:
            assert finish_stage(stage, cfg) == run_pipeline(pool, test, cfg,
                                                            seed=11)
    stage = train_stage(pool, test, tiny_pipeline_config("dpscp_f", pool.n),
                        seed=11)
    for other in (tiny_pipeline_config("dp_split", pool.n),
                  tiny_pipeline_config("dpscp_a", pool.n, epsilon=2.0)):
        with pytest.raises(ValueError, match="trains another model"):
            finish_stage(stage, other)


def test_train_stages_equal_one_train_stage_each(class_pool_test):
    # Three dpscp targets and naive_full train on the full pool in one
    # lockstep call; no sigma_sgd meets the epsilon 0.04 target.
    pool, test = class_pool_test
    configs = [tiny_pipeline_config("dpscp_f", pool.n, epsilon=eps)
               for eps in (0.5, 0.04, 2.0)]
    configs.append(tiny_pipeline_config("naive_full", pool.n))
    stages = list(train_stages(pool, test, configs, seed=11))
    assert isinstance(stages[1], InfeasibleBudgetError)
    with pytest.raises(InfeasibleBudgetError):
        train_stage(pool, test, configs[1], seed=11)
    for i in (0, 2, 3):
        alone = train_stage(pool, test, configs[i], seed=11)
        assert stages[i].target == alone.target
        assert np.array_equal(stages[i].cal_scores, alone.cal_scores)
        assert np.array_equal(stages[i].test_scores, alone.test_scores)
        assert stages[i].eps_train_spent == alone.eps_train_spent
        assert finish_stage(stages[i], configs[i]) == finish_stage(
            alone, configs[i])
    assert not np.array_equal(stages[0].cal_scores, stages[2].cal_scores)
    split = tiny_pipeline_config("dp_split", pool.n)
    with pytest.raises(ValueError, match="one training subset"):
        list(train_stages(pool, test, [configs[0], split], seed=11))
