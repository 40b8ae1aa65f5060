import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dpconformal.accounting import (BudgetSpec, InfeasibleBudgetError,
                                    SgdAccountingRecord,
                                    calibrate_sigma_sgd, default_orders,
                                    gaussian_profile, rdp_compose, rdp_to_eps,
                                    sgd_profile)
from dpconformal import conformal
from dpconformal.conformal import (METHODS, SPLIT_METHODS, EvalReport,
                                   PipelineConfig, _evaluate_fast,
                                   _in_sample_scores, _score_matrix,
                                   run_pipeline, run_pipelines,
                                   split_train_size, train_target)
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


@pytest.mark.parametrize("spec", [
    ModelSpec("softmax_linear", 3, 4), ModelSpec("mlp", 3, 5, (6,)),
    ModelSpec("linear_regression", 3), ModelSpec("mlp", 3, 1, (6, 4)),
], ids=["softmax_linear", "mlp_classifier", "linear_regression",
        "mlp_regression"])
def test_scores_equal_the_out_of_place_formulas(spec):
    # The scores are written into the probability or residual array they
    # come from; the formulas that allocate a fresh array are the oracle.
    rng = np.random.default_rng(19)
    params = rng.standard_normal(param_count(spec)) * 3.0
    x = rng.standard_normal((50, 3)) * 2.0
    if spec.output_dim == 1:
        data = Dataset(x, rng.standard_normal(50), "regression")
        want = np.abs(data.labels - predict_value(spec, params, x))
        want_in_sample = want
    else:
        data = Dataset(x, rng.integers(0, spec.output_dim, 50),
                       "classification", n_classes=spec.output_dim)
        want = 1.0 - predict_proba(spec, params, x)
        want_in_sample = want[np.arange(50), data.labels]
    model = make_model(spec, params)
    assert _score_matrix(model, data).tobytes() == want.tobytes()
    got = _in_sample_scores(model, data)
    assert got.shape == want_in_sample.shape
    assert got.tobytes() == want_in_sample.tobytes()


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
    n_train = split_train_size(n_pool) if method in SPLIT_METHODS else n_pool
    return PipelineConfig(
        method=method,
        budget=BudgetSpec(epsilon, 1e-5, allocation),
        model=ModelSpec("softmax_linear", 10, 5),
        train_template=TrainConfig(0.05, steps, min(1.0, batch / n_train), 1.0),
        quantile_template=QuantileConfig(0.0, 1.0, 0.1, 20, beta=0.05,
                                         buffer_m=10),
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
        target_scale=scale,
    )
    report = run_pipeline(pool, test, cfg, seed=5)
    assert report.efficiency == pytest.approx(2 * report.q_hat * scale)
    assert report.coverage >= 0.8
    assert report.informativeness is None


def test_train_target_names_the_shared_model():
    # The epsilon_train target alone: SPLIT_METHODS says which methods train
    # on the train half of a split.
    budget = BudgetSpec(2.0, 1e-5, 0.25)
    assert {method: train_target(method, budget) for method in METHODS} == {
        "dpscp_f": 0.5, "dpscp_a": 0.5, "dp_split": 2.0, "split_cp": None,
        "naive_full": None}
    assert SPLIT_METHODS == ("dp_split", "split_cp")
    with pytest.raises(ValueError):
        train_target("nope", budget)


@pytest.mark.parametrize("method", METHODS)
def test_split_methods_are_the_methods_that_split(method, class_pool_test,
                                                  monkeypatch):
    # On an odd pool, a method trains on split_train_size(n) rows and
    # calibrates on the other rows exactly when it is in SPLIT_METHODS, and
    # otherwise trains and calibrates on the whole pool. It trains on the
    # pool itself, its train half selected by a row index.
    pool, test = class_pool_test
    pool = pool.subset(np.arange(601))
    trained, calibrated = [], []
    real_train, real_scores = conformal.dp_sgd_train, _in_sample_scores

    def train(data, *args, rows=None, **kwargs):
        trained.append((data, rows))
        return real_train(data, *args, rows=rows, **kwargs)

    def scores(model, data):
        calibrated.append(data)
        return real_scores(model, data)

    monkeypatch.setattr(conformal, "dp_sgd_train", train)
    monkeypatch.setattr(conformal, "_in_sample_scores", scores)
    run_pipeline(pool, test, tiny_pipeline_config(method, pool.n, steps=20),
                 seed=3)
    ((train_pool, idx),), (cal_data,) = trained, calibrated
    assert train_pool is pool
    if method not in SPLIT_METHODS:
        assert idx is None and cal_data is pool
        return
    train_data = pool.subset(idx)
    assert train_data.n == split_train_size(pool.n) == 300
    assert cal_data.n == pool.n - 300

    def rows(*datasets):
        return sorted((*x, y) for data in datasets
                      for x, y in zip(data.features.tolist(),
                                      data.labels.tolist()))

    assert rows(train_data, cal_data) == rows(pool)


def test_a_split_trial_holds_one_half_at_a_time():
    # The split methods train through the train half's row index and gather
    # the calibration half after training. Above its entry level, the
    # call's traced peak holds that half, the split's (n,) permutation
    # (0.18 half) and the in-sample scoring of the half, its (n/2, 2)
    # probabilities and (n/2,) reductions (0.45 half): 1.63 halves, below
    # the 2 that both halves alone would take.
    both = gen_multiclass(20_000 + 500, 10, 2, 0.8, 0.01, seed=99)
    pool, test = both.subset(np.arange(500, 20_500)), both.subset(
        np.arange(500))
    del both
    configs = [replace(tiny_pipeline_config(m, pool.n, steps=5, batch=2000),
                       model=ModelSpec("softmax_linear", 10, 2))
               for m in SPLIT_METHODS]
    want = run_pipelines(pool, test, configs, seed=3)  # imports stay out
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        got = run_pipelines(pool, test, configs, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want and all(isinstance(r, EvalReport) for r in got)
    half = 10_000 * 10 * 8 + 10_000 * 8
    assert peak - entry <= 1.7 * half


def test_a_label_the_head_cannot_read_fails_every_split_config(
        class_pool_test):
    # Class 4 is one that a 4-class head cannot read. In either half of the
    # split, every config fails, at training or at scoring.
    pool, test = class_pool_test
    configs = [replace(tiny_pipeline_config(m, pool.n, steps=20),
                       model=ModelSpec("softmax_linear", 10, 4))
               for m in SPLIT_METHODS]
    test = test.subset(test.labels < 4)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(3).spawn(3)[0]))
    train_idx, cal_idx = conformal._split_indices(pool.n, rng)
    for half in (train_idx, cal_idx):
        labels = np.minimum(pool.labels, 3)
        labels[half[0]] = 4
        reports = run_pipelines(Dataset(pool.features, labels,
                                        "classification"), test, configs,
                                seed=3)
        assert all(isinstance(r, (ValueError, IndexError)) for r in reports)


def test_run_pipelines_finishes_every_method_from_its_target(
        class_pool_test):
    # Each subset's methods in one call, dpscp_f and dpscp_a sharing one
    # model: every report equals its config's own run.
    pool, test = class_pool_test
    for methods in (("dpscp_f", "dpscp_a", "naive_full"),
                    ("dp_split", "split_cp")):
        configs = [tiny_pipeline_config(m, pool.n) for m in methods]
        assert run_pipelines(pool, test, configs, seed=11) == [
            run_pipeline(pool, test, cfg, seed=11) for cfg in configs]


def test_run_pipelines_equal_one_run_each(class_pool_test):
    # Three dpscp_f targets and naive_full train on the full pool in one
    # lockstep call; no sigma_sgd meets the epsilon 0.04 target, which fails
    # its dpscp_f and dpscp_a configs alone.
    pool, test = class_pool_test
    configs = [tiny_pipeline_config("dpscp_f", pool.n, epsilon=eps)
               for eps in (0.5, 0.04, 2.0)]
    configs.append(tiny_pipeline_config("naive_full", pool.n))
    configs.append(tiny_pipeline_config("dpscp_a", pool.n, epsilon=0.04))
    reports = run_pipelines(pool, test, configs, seed=11)
    for i in (1, 4):
        assert isinstance(reports[i], InfeasibleBudgetError)
        with pytest.raises(InfeasibleBudgetError):
            run_pipeline(pool, test, configs[i], seed=11)
    for i in (0, 2, 3):
        assert reports[i] == run_pipeline(pool, test, configs[i], seed=11)
    assert reports[0] != reports[2]


def test_run_pipelines_refuses_configs_it_cannot_train_together(
        class_pool_test):
    # Configs on two subsets, or with two deltas (which train_target does
    # not name), are refused before any calibration.
    pool, test = class_pool_test
    first = tiny_pipeline_config("dpscp_f", pool.n)
    split = tiny_pipeline_config("dp_split", pool.n)
    other_delta = replace(first, budget=BudgetSpec(1.0, 1e-6, 0.5))
    assert (train_target(other_delta.method, other_delta.budget)
            == train_target(first.method, first.budget))
    for pair in ([first, split], [first, other_delta]):
        with pytest.raises(ValueError, match="one training subset, delta"):
            run_pipelines(pool, test, pair, seed=11)


def count_calls(monkeypatch, name, fail_when=lambda *args: False):
    """Wrap ``conformal.<name>`` to record its calls, raising a
    RuntimeError on those that ``fail_when`` selects."""
    calls = []
    inner = getattr(conformal, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        if fail_when(*args):
            raise RuntimeError(f"{name} failed")
        return inner(*args, **kwargs)

    monkeypatch.setattr(conformal, name, wrapped)
    return calls


def four_configs_over_three_targets(n):
    return [tiny_pipeline_config("dpscp_f", n),
            tiny_pipeline_config("dpscp_a", n),
            tiny_pipeline_config("dpscp_f", n, epsilon=2.0),
            tiny_pipeline_config("naive_full", n)]


def test_run_pipelines_trains_and_scores_each_target_once(
        class_pool_test, monkeypatch):
    pool, test = class_pool_test
    configs = four_configs_over_three_targets(pool.n)
    alone = [run_pipeline(pool, test, cfg, seed=11) for cfg in configs]
    trained = count_calls(monkeypatch, "dp_sgd_train")
    scored = count_calls(monkeypatch, "_in_sample_scores")
    assert run_pipelines(pool, test, configs, seed=11) == alone
    assert len(trained) == 1
    assert len(scored) == 3


def test_run_pipelines_fails_a_scoring_or_finish_failure_alone(
        class_pool_test, monkeypatch):
    # naive_full's model has noise multiplier 0: failing its scoring fails
    # that target alone. dpscp_f alone searches with a stability buffer:
    # failing that search fails dpscp_f but not dpscp_a, which shares its
    # model.
    pool, test = class_pool_test
    configs = four_configs_over_three_targets(pool.n)
    alone = [run_pipeline(pool, test, cfg, seed=11) for cfg in configs]
    count_calls(monkeypatch, "_in_sample_scores",
                lambda model, data: model.accounting.noise_multiplier == 0.0)
    reports = run_pipelines(pool, test, configs, seed=11)
    assert str(reports[3]) == "_in_sample_scores failed"
    assert reports[:3] == alone[:3]
    count_calls(monkeypatch, "buffered_right_search",
                lambda scores, config: config.buffer_m > 0)
    reports = run_pipelines(pool, test, configs, seed=11)
    assert [str(r) for r in (reports[0], reports[2], reports[3])] == [
        "buffered_right_search failed", "buffered_right_search failed",
        "_in_sample_scores failed"]
    assert reports[1] == alone[1]


# Each method's rules, stated apart from conformal's method table: whether
# it trains privately, splits the pool, and adds the buffer m and tau.
METHOD_RULES = {
    "dpscp_f": (True, False, True, True),
    "dpscp_a": (True, False, False, False),
    "dp_split": (True, True, False, True),
    "split_cp": (False, True, False, False),
    "naive_full": (False, False, False, False),
}


@pytest.mark.parametrize("method", METHODS)
def test_each_method_follows_its_rules(method, class_pool_test, monkeypatch):
    # The exact quantile runs exactly when training is non-private; sigma_q
    # is calibrated against a zero training profile exactly when the method
    # splits; the search adds m and tau exactly when its rules say so.
    private, splits, buffer, tau = METHOD_RULES[method]
    pool, test = class_pool_test
    exact = count_calls(monkeypatch, "exact_conformal_quantile")
    calibrated = count_calls(monkeypatch, "calibrate_sigma_q")
    searched = count_calls(monkeypatch, "buffered_right_search")
    config = tiny_pipeline_config(method, pool.n, steps=20)
    (report,) = run_pipelines(pool, test, [config], seed=3)
    assert not isinstance(report, Exception)
    assert (len(exact), len(calibrated), len(searched)) == (
        (0, 1, 1) if private else (1, 0, 0))
    ((cal_scores, _),) = exact or searched
    assert len(cal_scores) == (pool.n - split_train_size(pool.n) if splits
                               else pool.n)
    if private:
        ((profile, _, _),), ((_, search),) = calibrated, searched
        assert (max(profile.values) == 0.0) == splits
        assert search.sigma_q == report.sigma_q > 0.0
        assert search.buffer_m == (config.quantile_template.buffer_m
                                   if buffer else 0)
        assert search.tau_override == (None if tau else 0.0)


# ---------------------------------------------------------------------------
# What a PipelineConfig accepts


def settable_values(config):
    """The dotted names of every value a PipelineConfig sets, its templates'
    and specs' fields included."""
    names = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            names += [f"{f.name}.{g.name}" for g in dataclasses.fields(value)]
        else:
            names.append(f.name)
    return names


# The template values that the pipeline sets itself, each set away from the
# value it must keep.
REFUSED = {
    "train_template.noise_multiplier": 7.0,
    "train_template.seed": 5,
    "quantile_template.sigma_q": 9.0,
    "quantile_template.seed": 4,
    "quantile_template.tau_override": 0.0,
    "quantile_template.noise_override": (0.0,) * 20,
    "quantile_template.variant": "midpoint",
    "quantile_template.precision_delta": 1e-4,
}


def with_value(config, name, value):
    """``config`` with the value at the dotted ``name`` replaced, built
    through each dataclass's own checks."""
    outer, _, inner = name.partition(".")
    if inner:
        value = replace(getattr(config, outer), **{inner: value})
    return replace(config, **{outer: value})


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_templates_refuse_what_the_pipeline_sets(name):
    # A template value that the pipeline would overwrite or ignore is a
    # usage error, among them a fixed noise sequence that would replace the
    # calibrated search noise.
    config = tiny_pipeline_config("dpscp_f", 1000)
    with pytest.raises(ValueError, match=name.replace(".", r"\.")):
        with_value(config, name, REFUSED[name])


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_target_scale_must_be_positive_and_finite(scale):
    # A NaN or infinite scale reported NaN or infinite interval widths.
    with pytest.raises(ValueError, match="target_scale must be positive"):
        replace(tiny_pipeline_config("split_cp", 1000), target_scale=scale)


def test_the_pipeline_configs_of_the_studies_construct():
    # Criterion 8's config, and a config as the experiments build it (every
    # value that the pipeline sets left at its default).
    PipelineConfig(method="split_cp", budget=BudgetSpec(1.0, 1e-5),
                   model=ModelSpec("softmax_linear", 10, 5),
                   train_template=TrainConfig(0.05, 300, 32 / 1000, 1.0),
                   quantile_template=QuantileConfig(0.0, 1.0, 0.1, 20))
    PipelineConfig(method="dpscp_f", budget=BudgetSpec(0.5, 1e-5, 0.3),
                   model=ModelSpec("mlp", 10, 5, (16, 16)),
                   train_template=TrainConfig(1e-3, 100, 0.05, 1.0),
                   quantile_template=QuantileConfig(
                       range_lo=0.0, range_hi=1.0, alpha=0.2, steps_n=20,
                       beta=0.05, buffer_m=10),
                   target_scale=3.0)


# Each value that a PipelineConfig accepts, set away from the base config's:
# either some method's report moves, or the data refuses the config.
ACCEPTED = {
    "method": "split_cp",
    "budget.epsilon_target": 4.0,
    "budget.delta_target": 1e-3,
    "budget.allocation_p": 0.3,
    "model.kind": "linear_regression",
    "model.input_dim": 4,
    "model.output_dim": 2,
    "model.hidden": (5,),
    "train_template.learning_rate": 0.2,
    "train_template.steps": 45,
    "train_template.sampling_rate": 0.3,
    "train_template.clip_norm": 0.3,
    "train_template.projection_radius": 0.05,
    "quantile_template.range_lo": -1.0,
    "quantile_template.range_hi": 4.0,
    "quantile_template.steps_n": 12,
    "quantile_template.beta": 0.2,
    "quantile_template.buffer_m": 6,
    "quantile_template.alpha": 0.2,
    "target_scale": 3.0,
}


@pytest.fixture(scope="module")
def regression_pool_test():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1300, 3))
    y = x @ np.array([1.0, -0.5, 0.25]) + 0.3 * rng.standard_normal(1300)
    return (Dataset(x[:1000], y[:1000], "regression"),
            Dataset(x[1000:], y[1000:], "regression"))


def test_every_accepted_value_acts(regression_pool_test):
    pool, test = regression_pool_test
    base = PipelineConfig(
        method="dpscp_f",
        budget=BudgetSpec(8.0, 1e-5, 0.5),
        model=ModelSpec("mlp", 3, 1, (4,)),
        train_template=TrainConfig(0.05, 30, 0.05, 1.0),
        quantile_template=QuantileConfig(0.0, 6.0, 0.1, 20, buffer_m=2),
        target_scale=2.0,
    )
    assert sorted(settable_values(base)) == sorted([*REFUSED, *ACCEPTED])
    assert len(ACCEPTED) == 20

    def reports(config):
        # Every method's report, or the moved method's alone, which is
        # compared with the base method's (METHODS[0]).
        methods = [config.method] if config.method != base.method else METHODS
        try:
            return [run_pipeline(pool, test, replace(config, method=method),
                                 seed=4) for method in methods]
        except ValueError as exc:  # the data refuses the config
            return exc

    before = reports(base)
    for name, value in ACCEPTED.items():
        if name == "model.kind":
            config = replace(base, model=ModelSpec(value, 3))
        else:
            config = with_value(base, name, value)
        after = reports(config)
        if isinstance(after, ValueError):
            assert name in ("model.input_dim", "model.output_dim"), name
        else:
            assert after != before[:len(after)], name


def test_calibrated_runs_fail_what_each_failure_owns():
    def calibrate(target):
        if target == "infeasible":
            raise ValueError(target)
        return float(len(target))

    def train(sigmas):
        calls.append(sigmas)
        return [RuntimeError("run") if s == 3.0 else f"run@{s}"
                for s in sigmas]

    calls = []
    runs = conformal._calibrated_runs(["ab", "infeasible", "abc", "a"],
                                      calibrate, train)
    assert calls == [[2.0, 3.0, 1.0]]
    assert runs[0] == (2.0, "run@2.0") and runs[3] == (1.0, "run@1.0")
    assert [str(runs[1]), str(runs[2])] == ["infeasible", "run"]

    def failing(sigmas):
        raise RuntimeError("lockstep")

    runs = conformal._calibrated_runs(["ab", "infeasible"], calibrate, failing)
    assert [str(r) for r in runs] == ["lockstep", "infeasible"]
    del calls[:]
    runs = conformal._calibrated_runs(["infeasible"], calibrate, train)
    assert calls == [] and str(runs[0]) == "infeasible"
