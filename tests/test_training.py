import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from dpconformal.data import gen_logistic
from dpconformal.models import (Dataset, ModelSpec, as_batch,
                               batch_loss_and_grads, clipped_grad_sum,
                               init_params, param_count, sq_row_norms)
from dpconformal import training
from dpconformal.training import (NumericFailureError, TrainConfig,
                                  _norms, _spawn_streams, coupled_train,
                                  dp_sgd_train,
                                  poisson_sample, stability_bound_smooth)

RNG = np.random.default_rng(77)


def small_logistic(n=400, d=6, seed=12):
    return gen_logistic(n, d, seed=seed)


# ---------------------------------------------------------------------------
# Primitives


def test_poisson_sample_extremes():
    # A rate of 0 draws nothing (numpy's geometric rejects p = 0), and a
    # rate of 1 includes every row, also in every step of a block.
    rng = np.random.default_rng(0)
    assert poisson_sample(50, 0.0, rng).size == 0
    np.testing.assert_array_equal(poisson_sample(50, 1.0, rng), np.arange(50))
    rows, bounds = training._poisson_block(9, 0.0, 4, rng)
    assert rows.size == 0 and bounds == [0] * 5
    cfg = TrainConfig(0.1, 300, 1.0, 1.0, seed=2)
    for _, idx, *_ in replay_draws(7, cfg):
        np.testing.assert_array_equal(idx, np.arange(7))


def test_poisson_sample_mean_batch():
    rng = np.random.default_rng(5)
    n, q, draws = 10000, 0.1, 1000
    sizes = [poisson_sample(n, q, rng).size for _ in range(draws)]
    se = math.sqrt(n * q * (1 - q) / draws)
    assert abs(np.mean(sizes) - n * q) < 3 * se


@pytest.mark.parametrize("rate", [5e-324, 1e-300, 1e-12])
def test_tiny_rates_draw_empty_batches_without_overflow(rate):
    # numpy's geometric returns INT64_MAX at a rate of 1e-300, whose running
    # sum would wrap negative; the sampler clips each gap to one past its
    # block first. At 5e-324 a block's expected step count, 1024 / (q n),
    # is inf and is capped before it becomes an int. Every batch is empty
    # and nothing warns.
    cfg = TrainConfig(0.1, 3000, rate, 1.0, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert poisson_sample(50, rate, np.random.default_rng(3)).size == 0
        rows, bounds = training._poisson_block(10 ** 6, rate, 1024,
                                               np.random.default_rng(3))
        assert rows.size == 0 and bounds == [0] * 1025
        assert all(idx.size == 0 for _, idx, *_ in replay_draws(50, cfg))


def law_draws(n, q, steps, seed):
    """Each step's batch indices of a replayed trainer over ``n`` rows."""
    cfg = TrainConfig(0.1, steps, q, 1.0, seed=seed)
    return [idx for _, idx, *_ in replay_draws(n, cfg)]


def test_batch_sizes_and_inclusions_follow_the_bernoulli_law():
    # Chi-square tests of the batch sizes against Binomial(n, q), with the
    # tails pooled where fewer than 5 are expected, and of each row's
    # inclusion count against Binomial(steps, q). Each batch is ascending
    # without repeats.
    n, q, steps = 40, 0.1, 20000
    batches = law_draws(n, q, steps, seed=8)
    assert all(np.all(np.diff(idx) > 0) for idx in batches)
    sizes = np.array([idx.size for idx in batches])
    expected = steps * stats.binom.pmf(np.arange(n + 1), n, q)
    lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]
    observed = np.bincount(np.clip(sizes, lo, hi), minlength=n + 1)[lo:hi + 1]
    pooled = expected[lo:hi + 1].copy()
    pooled[0] += expected[:lo].sum()
    pooled[-1] += expected[hi + 1:].sum()
    assert stats.chisquare(observed, pooled).pvalue > 1e-3
    counts = np.bincount(np.concatenate(batches), minlength=n)
    z = (counts - steps * q) / math.sqrt(steps * q * (1 - q))
    assert stats.chi2.sf(np.sum(z ** 2), n) > 1e-3


def test_inclusions_are_independent_across_a_block_boundary(monkeypatch):
    # With blocks of 2 steps, a row is in both the last batch of one block
    # and the first of the next with probability q^2, as it is in two steps
    # of one block; a block that reused its predecessor's gaps would repeat
    # its batches.
    n, q, steps = 100, 0.1, 6000
    monkeypatch.setattr(training, "_BATCH_BLOCK_ROWS", 2 * n * q)
    batches = law_draws(n, q, steps, seed=9)
    for first in (1, 0):  # across a boundary, then within a block
        pairs = range(first, steps - 1, 2)
        joint = sum(np.intersect1d(batches[t], batches[t + 1]).size
                    for t in pairs)
        trials = len(pairs) * n
        sd = math.sqrt(trials * q * q * (1 - q * q))
        assert abs(joint - trials * q * q) < 4 * sd


@pytest.mark.parametrize("n,q", [(50, 0.1), (1000, 0.02), (7, 1.0)])
def test_poisson_sample_is_the_first_step_of_the_block_sampler(n, q):
    cfg = TrainConfig(0.1, 100, q, 1.0, seed=4)
    first = next(replay_draws(n, cfg))[1]
    got = poisson_sample(n, q, _spawn_streams(cfg.seed)[0])
    np.testing.assert_array_equal(got, first)


@pytest.mark.parametrize("q", [0.05, 0.5], ids=["one_block", "two_blocks"])
def test_a_shorter_run_draws_the_first_batches_of_a_longer_one(q):
    short = law_draws(60, q, 37, seed=5)
    longer = law_draws(60, q, 300, seed=5)
    assert all(np.array_equal(a, b) for a, b in zip(short, longer))


@pytest.mark.parametrize("rows", [None, "odd_rows"])
@pytest.mark.parametrize("d", [3, 9])
@pytest.mark.parametrize("noise_floats", [None, 21],
                         ids=["default", "three_rows"])
def test_draws_gather_each_batch_and_its_sequential_noise(noise_floats, d,
                                                          rows, monkeypatch):
    # Each step's rows are views of the block's one gather, equal to the
    # indexed rows, their squared norms are those of the whole matrix's
    # rows bit for bit (summed column by column below 8 columns, by numpy
    # from 8), and its noise is bit-equal to one (p,) draw per step, also
    # when the noise comes in chunks of 3 rows that do not divide a block.
    # Through a row index, the sampler runs over the indexed rows alone.
    if noise_floats is not None:
        monkeypatch.setattr(training, "_NOISE_BLOCK_FLOATS", noise_floats)
    n, p = 60, 7
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((n, d)), rng.integers(0, 4, n)
    cfg = TrainConfig(0.1, 500, 0.05, 1.0, seed=6)
    at = np.arange(n)
    if rows is not None:
        rows = at = rng.permutation(n)[:31]
        want = [idx for _, idx, *_ in training._draws(
            x[:31], y[:31], p, cfg, *_spawn_streams(cfg.seed)[:2])]
    mask_rng, noise_rng = _spawn_streams(cfg.seed)[:2]
    sequential = _spawn_streams(cfg.seed)[1]
    steps = 0
    for t, idx, xb, sqb, yb, noise in training._draws(
            x, y, p, cfg, mask_rng, noise_rng, rows):
        assert t == steps
        if rows is not None:
            assert np.array_equal(idx, want[t])
        assert xb.flags.c_contiguous and np.array_equal(xb, x[at[idx]])
        assert sqb.tobytes() == sq_row_norms(x)[at[idx]].tobytes()
        assert np.array_equal(yb, y[at[idx]])
        assert np.array_equal(noise, sequential.standard_normal(p))
        steps += 1
    assert steps == cfg.steps


def test_batched_norms_equal_the_one_row_norm():
    # The projection and the coupled series take each row's norm as the
    # sqrt of its BLAS dot, as np.linalg.norm does for the row alone: rows
    # whose squares overflow give inf, and NaN rows give NaN.
    rng = np.random.default_rng(19)
    scales = np.array([1e-3, 1.0, 10.0, 1e100, 1e154, 1e160, 1e200, 1.0,
                       1.0])[:, None]
    for p in (1, 2, 3, 7, 8, 31, 64, 65, 257, 1000):
        rows = rng.standard_normal((9, p)) * scales
        rows[7, 0] = np.inf
        rows[8, -1] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            got = _norms(rows)
            want = np.array([math.sqrt(row.dot(row)) for row in rows])
        assert np.array_equal(got, want, equal_nan=True)
        assert got[6] == got[7] == np.inf and np.isnan(got[8])
        assert got[1] == np.linalg.norm(rows[1])


# ---------------------------------------------------------------------------
# DP-SGD


def test_dp_sgd_deterministic():
    data, _ = small_logistic()
    spec = ModelSpec("softmax_linear", data.dim, 2)
    cfg = TrainConfig(0.05, 150, 0.1, 1.0, noise_multiplier=1.0, seed=99)
    a = dp_sgd_train(data, spec, cfg)
    b = dp_sgd_train(data, spec, cfg)
    np.testing.assert_array_equal(a.params, b.params)
    assert a.accounting == b.accounting
    rec = a.accounting
    assert (rec.noise_multiplier, rec.sampling_rate, rec.steps) == (1.0, 0.1, 150)


def test_dp_sgd_reduces_to_full_batch_gd():
    data, _ = small_logistic(n=120)
    spec = ModelSpec("softmax_linear", data.dim, 2)
    steps = 50
    cfg = TrainConfig(0.2, steps, 1.0, 1e9, noise_multiplier=0.0, seed=1)
    trained = dp_sgd_train(data, spec, cfg)
    # independent plain gradient-descent oracle
    theta = np.zeros(param_count(spec))
    for _ in range(steps):
        _, grads = batch_loss_and_grads(spec, theta, data.features, data.labels)
        theta = theta - 0.2 * grads.mean(axis=0)
    np.testing.assert_allclose(trained.params, theta, atol=1e-10)


def test_dp_sgd_projection_radius_enforced():
    data, _ = small_logistic(n=200)
    spec = ModelSpec("softmax_linear", data.dim, 2)
    cfg = TrainConfig(0.5, 100, 0.2, 1.0, noise_multiplier=2.0,
                      projection_radius=0.3, seed=4)
    trained = dp_sgd_train(data, spec, cfg)
    assert np.linalg.norm(trained.params) <= 0.3 + 1e-12


def test_dp_sgd_learns_on_logistic_data():
    """Average final estimation error beats the zero init over 30 seeds at a
    moderate noise level."""
    spec = None
    wins = []
    for seed in range(30):
        data, theta = gen_logistic(1000, 10, seed=1000 + seed)
        spec = ModelSpec("softmax_linear", 10, 2)
        target = np.concatenate([-theta / 2, theta / 2])
        cfg = TrainConfig(0.05, 200, 0.05, 1.0, noise_multiplier=1.0,
                          seed=seed)
        trained = dp_sgd_train(data, spec, cfg)
        wins.append(np.linalg.norm(trained.params - target))
    init_dist = np.linalg.norm(target)
    assert np.mean(wins) < init_dist


def test_dp_sgd_numeric_failure_identifies_step():
    data = Dataset(np.full((20, 2), 1e200), np.ones(20), "regression")
    spec = ModelSpec("linear_regression", 2)
    cfg = TrainConfig(1e300, 5, 1.0, 1e301, noise_multiplier=0.0, seed=0)
    with pytest.raises(NumericFailureError, match="step"):
        dp_sgd_train(data, spec, cfg)


def test_empty_batch_policies():
    data, _ = small_logistic(n=5)
    spec = ModelSpec("softmax_linear", data.dim, 2)
    # tiny rate: empty batches are skipped, so params stay at zero when
    # nothing ever gets sampled
    cfg = TrainConfig(0.1, 30, 1e-9, 1.0, noise_multiplier=1.0, seed=3)
    trained = dp_sgd_train(data, spec, cfg)
    assert np.all(trained.params == 0.0)


KIND_SPECS = [
    ModelSpec("linear_regression", 5),
    ModelSpec("softmax_linear", 5, 3),
    ModelSpec("mlp", 5, 3, (8, 6)),
    ModelSpec("mlp", 5, 1, (7,)),
]
KIND_IDS = ["linear_regression", "softmax_linear", "mlp_classifier",
            "mlp_regression"]


def kind_data(spec, n=200, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, spec.input_dim))
    if spec.output_dim == 1:
        return x, rng.standard_normal(n), "regression", 0
    return x, rng.integers(0, spec.output_dim, n), "classification", \
        spec.output_dim


def exact_norms(grads):
    """l2 norms of the rows of ``grads``, each row rescaled by an exact power
    of two before it is squared, so that no square overflows."""
    _, e = np.frexp(np.abs(grads).max(axis=-1, keepdims=True))
    return np.ldexp(np.linalg.norm(np.ldexp(grads, -e), axis=-1), e[..., 0])


def replay_draws(n, cfg):
    """The trainers' per-step draws over ``n`` rows, replayed from their
    streams through ``training._draws``; each row's one feature is its
    index. The batches do not depend on the noise length, here 1."""
    mask_rng, noise_rng = _spawn_streams(cfg.seed)[:2]
    x = np.arange(n, dtype=float)[:, None]
    return training._draws(x, np.zeros(n), 1, cfg, mask_rng, noise_rng)


def first_batch_with(row, n, cfg):
    """The first step whose Poisson batch over ``n`` rows holds ``row``,
    replayed from the trainer's mask stream."""
    return next(t for t, idx, *_ in replay_draws(n, cfg) if row in idx)


def failures(traces):
    assert all(isinstance(t, NumericFailureError) for t in traces)
    return [str(t) for t in traces]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("spec", KIND_SPECS, ids=KIND_IDS)
def test_nan_feature_row_fails_its_first_batch(spec):
    x, y, task, k = kind_data(spec)
    n = len(y)
    x_nan = x.copy()
    x_nan[17] = np.nan
    cfg = TrainConfig(0.1, 60, 0.05, 1.0, noise_multiplier=0.5, seed=5)
    step = first_batch_with(17, n, cfg)
    with pytest.raises(NumericFailureError) as err:
        dp_sgd_train(Dataset(x_nan, y, task, k), spec, cfg)
    assert str(err.value) == f"non-finite loss or gradient at step {step}"
    models = dp_sgd_train(Dataset(x_nan, y, task, k), spec, cfg,
                          noise_multipliers=(0.5, 3.0))
    assert failures(models) == [str(err.value)] * 2

    # Lockstep: every run fails at the base row's first batch, or at the
    # first step that includes a NaN extra point.
    base = Dataset(x_nan[:-1], y[:-1], task, k)
    step = first_batch_with(17, n - 1, cfg)
    traces = coupled_train(base, (x[-1], y[-1]), spec, cfg,
                           noise_multipliers=(0.5, 3.0))
    assert failures(traces) == [
        f"non-finite loss or gradient at step {step}"] * 2
    base = Dataset(x[:-1], y[:-1], task, k)
    traces = coupled_train(base, (x_nan[17], y[17]), spec, cfg,
                           extra_schedule=np.arange(60) % 20 == 7,
                           noise_multipliers=(0.5, 3.0))
    assert failures(traces) == ["non-finite loss or gradient at step 7"] * 2


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
@pytest.mark.parametrize("spec,learning_rate", [
    (KIND_SPECS[0], 1e200), (KIND_SPECS[2], 1e120), (KIND_SPECS[3], 1e100),
], ids=["linear_regression", "mlp_classifier", "mlp_regression"])
def test_overflowing_parameters_fail_the_next_step(spec, learning_rate):
    # Step 0 moves the parameters to about the learning rate; step 1's
    # forward or backward pass overflows. The classifier's three layers make
    # logits of about the cube of its rate, so 1e120 overflows them, while
    # at 1e100 every gradient norm is about 1e200 and finite.
    x, y, task, k = kind_data(spec)
    data = Dataset(x, y, task, k)
    cfg = TrainConfig(learning_rate, 30, 0.1, 1.0, noise_multiplier=0.5,
                      seed=5)
    message = "non-finite loss or gradient at step 1"
    with pytest.raises(NumericFailureError) as err:
        dp_sgd_train(data, spec, cfg)
    assert str(err.value) == message
    models = dp_sgd_train(data, spec, cfg, noise_multipliers=(0.5, 3.0))
    assert failures(models) == [message] * 2
    traces = coupled_train(data.subset(np.arange(len(y) - 1)), (x[-1], y[-1]),
                           spec, cfg, noise_multipliers=(0.5, 3.0))
    assert failures(traces) == [message] * 2


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_overflowing_gradient_norm_fails_with_a_finite_loss():
    # At the zero init the softmax loss is log 3 on every row, but the row of
    # 1.5e308 features has a gradient norm past the float range (about
    # 0.82 x 3.4e308), though every gradient entry is finite.
    spec = KIND_SPECS[1]
    x, y, task, k = kind_data(spec)
    cfg = TrainConfig(0.1, 60, 0.05, 1.0, noise_multiplier=0.5, seed=0)
    # A row of step 0's batch, so that the step sees the zero init.
    row = next(replay_draws(len(y), cfg))[1][0]
    assert first_batch_with(row, len(y), cfg) == 0
    x[row] = 1.5e308
    losses, _ = batch_loss_and_grads(spec, np.zeros(param_count(spec)),
                                     x[row:row + 1], y[row:row + 1])
    assert losses[0] == pytest.approx(math.log(3))
    with pytest.raises(NumericFailureError) as err:
        dp_sgd_train(Dataset(x, y, task, k), spec, cfg)
    assert str(err.value) == "non-finite loss or gradient at step 0"


@pytest.mark.parametrize("spec", KIND_SPECS[:2], ids=KIND_IDS[:2])
def test_a_finite_gradient_norm_past_sqrt_max_float_takes_its_step(spec):
    # At the zero init the 1e200 row's squares overflow, but its gradient
    # norm is about 1e200, so a one-step, full-batch run clips it and takes
    # the step. The oracle clips
    # the per-sample gradients by norms taken after an exact rescale.
    x, y, task, k = kind_data(spec)
    x[17] = 1e200
    cfg = TrainConfig(0.1, 1, 1.0, 1.0, seed=5)
    model = dp_sgd_train(Dataset(x, y, task, k), spec, cfg)
    theta = init_params(spec, _spawn_streams(cfg.seed)[3])
    _, grads = batch_loss_and_grads(spec, theta, x, y)
    norms = exact_norms(grads)
    assert np.isfinite(norms).all() and norms.max() > 1e199
    clipped = grads * (cfg.clip_norm / np.maximum(norms, cfg.clip_norm))[
        :, None]
    np.testing.assert_allclose(
        model.params, theta - cfg.learning_rate * clipped.mean(axis=0),
        rtol=1e-12, atol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", KIND_SPECS, ids=KIND_IDS)
def test_a_feature_row_whose_squares_overflow_warns_nowhere(spec):
    # Each trainer squares every feature row once per call, sampled or not;
    # the squares of the 1e200 row overflow inside the trainer's errstate.
    # A run that fails names a step, as its own call does.
    x, y, task, k = kind_data(spec)
    x[17] = 1e200
    cfg = TrainConfig(0.1, 60, 0.05, 1.0, noise_multiplier=0.5, seed=5)
    data = Dataset(x, y, task, k)
    base = Dataset(x[:-1], y[:-1], task, k)
    for train in (lambda **kw: dp_sgd_train(data, spec, cfg, **kw),
                  lambda **kw: coupled_train(base, (x[-1], y[-1]), spec, cfg,
                                             **kw)):
        first, second = train(noise_multipliers=(0.5, 3.0))
        for run in (first, second):
            assert not isinstance(run, NumericFailureError) or str(
                run).startswith("non-finite loss or gradient at step ")
        try:
            alone = train()
        except NumericFailureError as exc:
            assert str(exc) == str(first)
        else:
            assert not isinstance(first, NumericFailureError)
            assert type(alone) is type(first)


# ---------------------------------------------------------------------------
# Coupling


def coupled_setup(n=300, d=8, seed=21):
    data, theta = gen_logistic(n + 1, d, seed=seed)
    base = data.subset(np.arange(n))
    extra = (data.features[n], int(data.labels[n]))
    spec = ModelSpec("softmax_linear", d, 2)
    target = np.concatenate([-theta / 2, theta / 2])
    return base, extra, spec, target


def test_coupling_forced_off_gap_exactly_zero():
    base, extra, spec, target = coupled_setup()
    cfg = TrainConfig(0.05, 80, 0.05, 1.0, noise_multiplier=1.0, seed=17)
    trace = coupled_train(base, extra, spec, cfg, theta_star=target,
                          extra_schedule=np.zeros(80, dtype=bool))
    assert trace.gap_series.shape == (81,)
    assert np.all(trace.gap_series == 0.0)
    assert not trace.diverged and trace.first_divergence_step is None
    assert trace.error_series is not None and trace.error_series[0] > 0


def test_coupling_gap_zero_until_first_inclusion():
    base, extra, spec, _ = coupled_setup()
    cfg = TrainConfig(0.05, 120, 0.05, 1.0, noise_multiplier=1.0, seed=2)
    trace = coupled_train(base, extra, spec, cfg)
    assert trace.diverged
    t0 = trace.first_divergence_step
    assert np.all(trace.gap_series[:t0 + 1] == 0.0)
    assert trace.gap_series[t0 + 1] > 0.0


def test_coupled_base_run_matches_standalone():
    """The n-point side of the coupling is bitwise the standalone run, also
    for each run of a lockstep call, for an mlp (whose runs start from the
    init stream's draw) and with a forced schedule."""
    base, extra, spec, _ = coupled_setup()
    cfg = TrainConfig(0.05, 60, 0.08, 1.0, noise_multiplier=1.0, seed=31)
    standalone = dp_sgd_train(base, spec, cfg)
    trace = coupled_train(base, extra, spec, cfg,
                          theta_star=standalone.params)
    # error series tracks the n-point trajectory; at T it must hit zero
    assert trace.error_series[-1] == 0.0
    for spec in (spec, ModelSpec("mlp", spec.input_dim, 2, (5,))):
        for schedule in (None, np.arange(cfg.steps) % 9 == 4):
            for r, sigma in enumerate(LOCKSTEP_SIGMAS):
                standalone = dp_sgd_train(base, spec, dataclasses.replace(
                    cfg, noise_multiplier=sigma))
                traces = coupled_train(base, extra, spec, cfg,
                                       theta_star=standalone.params,
                                       extra_schedule=schedule,
                                       noise_multipliers=LOCKSTEP_SIGMAS)
                assert traces[r].diverged
                assert traces[r].error_series[-1] == 0.0


@pytest.mark.parametrize("label, message", [
    (-1, "got label -1$"), (0.7, "must be integers"), (2, "got label 2$"),
    (None, "got label 4$")], ids=["negative", "fraction", "past_head",
                                  "five_class_pool"])
def test_trainers_check_labels_against_the_head_before_any_step(
        label, message, monkeypatch):
    # The head has two classes. An extra point labelled -1 would train as
    # class 1 (an index from the end) and one labelled 0.7 as class 0; a
    # five-class pool (label None) would fail mid-loop on an index.
    base, extra, spec, _ = coupled_setup()
    cfg = TrainConfig(0.05, 20, 0.5, 1.0, seed=31)
    steps = count_steps(monkeypatch)
    with pytest.raises(ValueError, match=message):
        if label is None:
            labels = base.labels.copy()
            labels[-1] = 4
            dp_sgd_train(Dataset(base.features, labels, "classification"),
                         spec, cfg)
        else:
            coupled_train(base, (extra[0], label), spec, cfg)
    assert steps == []


def test_coupling_projection_caps_gap():
    base, extra, spec, _ = coupled_setup()
    radius = 0.4
    cfg = TrainConfig(0.3, 100, 0.2, 1.0, noise_multiplier=1.5,
                      projection_radius=radius, seed=9)
    trace = coupled_train(base, extra, spec, cfg)
    assert trace.gap_series.max() <= 2 * radius + 1e-12


def test_coupling_divergence_frequency_quick():
    base, extra, spec, _ = coupled_setup(n=150)
    q, steps, seeds = 0.05, 40, 120
    bound = 1 - (1 - q) ** steps
    hits = 0
    for s in range(seeds):
        cfg = TrainConfig(0.05, steps, q, 1.0, noise_multiplier=1.0, seed=s)
        trace = coupled_train(base, extra, spec, cfg)
        hits += trace.gap_series[-1] > 0
    se = math.sqrt(bound * (1 - bound) / seeds)
    assert abs(hits / seeds - bound) < 3 * se


# ---------------------------------------------------------------------------
# Lockstep runs: one shared batch stream, R noise multipliers


LOCKSTEP_SIGMAS = (0.0, 0.7, 3.1)


def assert_traces_equal(got, want):
    assert np.array_equal(got.gap_series, want.gap_series)
    assert np.array_equal(got.error_series, want.error_series)
    assert got.diverged == want.diverged
    assert got.first_divergence_step == want.first_divergence_step


@pytest.mark.parametrize("case", ["default", "projection", "all_off",
                                  "forced"])
def test_lockstep_coupled_runs_equal_separate_runs(case):
    base, extra, spec, target = coupled_setup()
    steps = 150
    radius = 0.3 if case == "projection" else None
    schedule = {"all_off": np.zeros(steps, dtype=bool),
                "forced": np.arange(steps) % 9 == 4}.get(case)
    cfg = TrainConfig(0.2, steps, 0.05, 1.0, projection_radius=radius,
                      seed=13)
    traces = coupled_train(base, extra, spec, cfg, theta_star=target,
                           extra_schedule=schedule,
                           noise_multipliers=LOCKSTEP_SIGMAS)
    assert len(traces) == len(LOCKSTEP_SIGMAS)
    for sigma, trace in zip(LOCKSTEP_SIGMAS, traces):
        single = dataclasses.replace(cfg, noise_multiplier=sigma)
        alone = coupled_train(base, extra, spec, single, theta_star=target,
                              extra_schedule=schedule)
        assert_traces_equal(trace, alone)
        # The error series is the 1-D np.linalg.norm of the base run's
        # distance to theta_star, bit for bit; a k-step run is the base run
        # at step k. (The per-row reduction of norm(..., axis=-1) differs in
        # the last bit for about a fifth of such vectors.)
        for k in range(5, steps + 1, 10):
            params = dp_sgd_train(base, spec, dataclasses.replace(
                single, steps=k)).params
            assert trace.error_series[k] == np.linalg.norm(params - target)
    if case == "default":
        assert traces[0].diverged
        # Different noise scales really give different trajectories.
        assert not np.array_equal(traces[1].error_series,
                                  traces[2].error_series)
    if case == "all_off":
        assert all(np.all(t.gap_series == 0.0) for t in traces)


@pytest.mark.parametrize("sigmas", [(1.0,), LOCKSTEP_SIGMAS],
                         ids=["one_run", "three_runs"])
def test_extra_flags_are_the_extra_stream_taken_once(sigmas):
    # The extra point's flags are T uniforms of the third stream, the same
    # doubles whether drawn one per step or all at once; passed back as the
    # schedule they give the trace bit for bit.
    base, extra, spec, target = coupled_setup()
    cfg = TrainConfig(0.2, 150, 0.05, 1.0, seed=13)
    flags = _spawn_streams(cfg.seed)[2].random(cfg.steps) < cfg.sampling_rate
    stream = _spawn_streams(cfg.seed)[2]
    assert np.array_equal(
        flags, [stream.random() < cfg.sampling_rate for _ in flags])
    assert flags.any() and not flags[0]

    def train(schedule):
        return coupled_train(base, extra, spec, cfg, theta_star=target,
                             extra_schedule=schedule, noise_multipliers=sigmas)

    drawn, given = train(None), train(flags)
    for got, want in zip(given, drawn):
        assert_traces_equal(got, want)
        assert want.diverged
        assert want.first_divergence_step == np.flatnonzero(flags)[0]
    for schedule, first in ((np.arange(cfg.steps) == cfg.steps - 1,
                             cfg.steps - 1),
                            (np.arange(cfg.steps) % 40 == 7, 7)):
        for trace in train(schedule):
            assert trace.diverged and trace.first_divergence_step == first


POSITIONS = dict(argvalues=[0, 1, 2], ids=["first", "middle", "last"])


def with_failing_run(position, sigmas):
    """The noise multipliers ``sigmas`` with a 1e308 run, which overflows its
    noisy update at its first nonempty step, inserted at ``position``."""
    return (*sigmas[:position], 1e308, *sigmas[position:])


def count_steps(monkeypatch):
    """A list that grows by one for each step a trainer takes from its
    per-step source."""
    steps = []
    real = training._draws

    def spy(*args):
        for draw in real(*args):
            steps.append(1)
            yield draw

    monkeypatch.setattr(training, "_draws", spy)
    return steps


@pytest.mark.parametrize("position", **POSITIONS)
@pytest.mark.parametrize("extra_first", [False, True])
def test_lockstep_failed_run_fails_alone(extra_first, position):
    # The 1e308 run overflows its noisy update at step 0, on the shared
    # batch or, when the extra point is in at step 0, on both batches.
    base, extra, spec, target = coupled_setup()
    sigmas = with_failing_run(position, (0.7, 3.1))
    steps = 60
    schedule = np.arange(steps) % 7 == 0 if extra_first else None
    cfg = TrainConfig(0.2, steps, 0.05, 1.0, seed=13)

    def alone(sigma):
        return coupled_train(base, extra, spec,
                             dataclasses.replace(cfg, noise_multiplier=sigma),
                             theta_star=target, extra_schedule=schedule)

    traces = coupled_train(base, extra, spec, cfg, theta_star=target,
                           extra_schedule=schedule, noise_multipliers=sigmas)
    failure = traces[position]
    assert isinstance(failure, NumericFailureError)
    assert str(failure) == "non-finite gradient update at step 0"
    with pytest.raises(NumericFailureError) as single:
        alone(1e308)
    assert str(single.value) == str(failure)
    for i, sigma in enumerate(sigmas):
        if i != position:
            assert traces[i].diverged
            assert_traces_equal(traces[i], alone(sigma))


def test_lockstep_coupled_run_fails_with_its_base_message_first():
    # With the 1e308 extra point in at step 0, every run's extra trajectory
    # has a non-finite gradient norm; the 1e308 run's base trajectory also
    # overflows its noisy update, and that message, the one its own call
    # raises first, is the run's.
    base, extra, spec, target = coupled_setup()
    huge = (np.full_like(extra[0], 1e308), extra[1])
    cfg = TrainConfig(0.2, 10, 0.05, 1.0, seed=13)
    schedule = np.ones(cfg.steps, dtype=bool)
    traces = coupled_train(base, huge, spec, cfg, theta_star=target,
                           extra_schedule=schedule,
                           noise_multipliers=(0.7, 1e308))
    assert [str(r) for r in traces] == [
        "non-finite loss or gradient at step 0",
        "non-finite gradient update at step 0"]
    for sigma, trace in zip((0.7, 1e308), traces):
        with pytest.raises(NumericFailureError) as single:
            coupled_train(base, huge, spec,
                          dataclasses.replace(cfg, noise_multiplier=sigma),
                          theta_star=target, extra_schedule=schedule)
        assert str(single.value) == str(trace)


@pytest.mark.parametrize("trainer", ["coupled_train", "dp_sgd_train"])
def test_lockstep_every_run_failed_ends_the_loop(trainer, monkeypatch):
    # At learning rate 1e150 the 7000 run's projection norm overflows after
    # some steps, while the 1e308 run fails at its first nonempty step. Each
    # run fails with the message of its own call, and no step is drawn after
    # the last run has failed.
    base, extra, spec, target = coupled_setup()
    sigmas = (7000.0, 1e308)
    cfg = TrainConfig(1e150, 60, 0.05, 1.0, projection_radius=1e200, seed=13)

    def train(config, **kwargs):
        if trainer == "coupled_train":
            return coupled_train(base, extra, spec, config, theta_star=target,
                                 **kwargs)
        return dp_sgd_train(base, spec, config, **kwargs)

    messages = []
    for sigma in sigmas:
        with pytest.raises(NumericFailureError) as single:
            train(dataclasses.replace(cfg, noise_multiplier=sigma))
        messages.append(str(single.value))
    assert messages[0].startswith("non-finite projection norm at step ")
    assert messages[1].startswith("non-finite gradient update at step ")
    last = int(messages[0].rsplit(" ", 1)[1])
    assert last > int(messages[1].rsplit(" ", 1)[1])
    steps = count_steps(monkeypatch)
    outcome = train(cfg, noise_multipliers=sigmas)
    assert all(isinstance(r, NumericFailureError) for r in outcome)
    assert [str(r) for r in outcome] == messages
    assert len(steps) == last + 1 < cfg.steps


@pytest.mark.parametrize("radius", [None, 1e200],
                         ids=["no_projection", "projection"])
def test_lockstep_norm_overflow_fails_its_run_alone(radius):
    # At learning rate 1e150 the 7000 run's iterate stays finite while its
    # norm grows past sqrt(max float), about 1.3e154, after some steps; the
    # others stay near 1e150.
    base, extra, spec, target = coupled_setup()
    sigmas = (0.7, 7000.0, 3.1)
    cfg = TrainConfig(1e150, 60, 0.05, 1.0, projection_radius=radius, seed=13)

    def alone(sigma, steps=60):
        return coupled_train(base, extra, spec, dataclasses.replace(
            cfg, noise_multiplier=sigma, steps=steps), theta_star=target)

    traces = coupled_train(base, extra, spec, cfg, theta_star=target,
                           noise_multipliers=sigmas)
    failure = traces[1]
    assert isinstance(failure, NumericFailureError)
    what = "error" if radius is None else "projection"
    prefix = f"non-finite {what} norm at step "
    assert str(failure).startswith(prefix)
    step = int(str(failure)[len(prefix):])
    assert step > 0
    with pytest.raises(NumericFailureError) as single:
        alone(7000.0)
    assert str(single.value) == str(failure)
    # The named step is the first bad one: the run stopped before it is ok.
    assert np.isfinite(alone(7000.0, steps=step).error_series).all()
    for i in (0, 2):
        assert np.isfinite(traces[i].error_series).all()
        assert_traces_equal(traces[i], alone(sigmas[i]))


@pytest.mark.parametrize("where", ["mid_block", "block_end", "final_step"])
def test_coupled_failure_keeps_its_message_across_norm_blocks(
        where, monkeypatch):
    # The gap and error norms are taken a block of steps at a time. The run
    # of infinite noise fails its noisy update at its first nonempty step,
    # replayed from the mask stream (a 1e308 run would overflow only where
    # some noise entry exceeds 1.8 in size): inside a block, at the end of a
    # block, or at the final step. Its rows are not finite after that step,
    # so a series entry scanned past that step would rename its failure a
    # norm failure. The other runs equal their own calls at the default
    # block size, also where the block does not divide the steps.
    base, extra, spec, target = coupled_setup()
    cfg = TrainConfig(0.2, 10, 0.002, 1.0, seed=5)
    first = next(t for t, idx, *_ in replay_draws(base.n, cfg) if idx.size)
    block, steps = {"mid_block": (first + 2, first + 5),
                    "block_end": (first + 1, first + 5),
                    "final_step": (first + 2, first + 1)}[where]
    cfg = dataclasses.replace(cfg, steps=steps)
    t = np.arange(steps)
    schedule = (t > first) & (t % 2 == 0)
    sigmas = (0.7, math.inf, 3.1)

    def train(**kwargs):
        return coupled_train(base, extra, spec, cfg, theta_star=target,
                             extra_schedule=schedule, **kwargs)

    alone = [train(noise_multipliers=[sigma])[0] for sigma in sigmas]
    assert str(alone[1]) == f"non-finite gradient update at step {first}"
    monkeypatch.setattr(training, "_NORM_BLOCK_FLOATS",
                        block * 2 * len(sigmas) * param_count(spec))
    traces = train(noise_multipliers=sigmas)
    assert isinstance(traces[1], NumericFailureError)
    assert str(traces[1]) == str(alone[1])
    for i in (0, 2):
        assert_traces_equal(traces[i], alone[i])
    if where != "final_step":
        assert traces[0].gap_series[-1] > 0.0


def test_a_norm_failure_one_step_before_the_loop_failure_names_the_run():
    # At learning rate 1e150 the 1e60 run's step 0 leaves a finite iterate
    # near 1e208 whose gap norm overflows; at step 1 its regression loss
    # overflows in the loop, as dp_sgd_train reports. A run's series are
    # scanned up to its loop failure, so the step 0 norm names it.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((21, 2))
    y = x @ np.array([1.0, -0.5])
    base = Dataset(x[:20], y[:20], "regression")
    extra = (x[20], y[20])
    spec = ModelSpec("linear_regression", 2)
    cfg = TrainConfig(1e150, 5, 1.0, 1.0, noise_multiplier=1e60, seed=3)
    with pytest.raises(NumericFailureError,
                       match="^non-finite loss or gradient at step 1$"):
        dp_sgd_train(base, spec, cfg)

    def train(**kwargs):
        return coupled_train(base, extra, spec, cfg, theta_star=np.zeros(2),
                             **kwargs)

    with pytest.raises(NumericFailureError,
                       match="^non-finite gap norm at step 0$"):
        train()
    sigmas = (0.5, 1e60, 2.0)
    traces = train(noise_multipliers=sigmas)
    assert str(traces[1]) == "non-finite gap norm at step 0"
    for i in (0, 2):
        assert_traces_equal(traces[i], train(noise_multipliers=[sigmas[i]])[0])


def test_train_config_rejects_a_nan_noise_multiplier():
    with pytest.raises(ValueError, match="noise_multiplier"):
        TrainConfig(0.1, 5, 0.5, 1.0, noise_multiplier=math.nan)


@pytest.mark.parametrize("field,value", [
    *[(field, value)
      for field in ("learning_rate", "clip_norm", "projection_radius")
      for value in (math.nan, math.inf, -math.inf, 0.0)],
    ("steps", 2.5), ("steps", 2.0), ("steps", "3"), ("steps", 0)])
def test_train_config_rejects_values_no_run_can_use(field, value):
    # A NaN radius would never project (norm > nan is never true), a NaN or
    # infinite step size or clip norm would fail at step 0, and a fractional
    # step count would fail inside range(); each is refused when the config
    # is built.
    kwargs = dict(learning_rate=0.1, steps=5, sampling_rate=0.5,
                  clip_norm=1.0, projection_radius=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        TrainConfig(**kwargs)
    assert TrainConfig(0.1, np.int64(5), 0.5, 1.0).steps == 5


def per_run_batch_update(spec, params, x_batch, x_sq, y_batch, noise_vec,
                         noise_std, config, step):
    """The DP-SGD step with every run checked one by one, each iterate made
    out of place and then written into ``params``: the oracle of
    ``training._batch_update``, which checks one sum of the checked values
    and checks the runs one by one only when that sum is not finite."""
    losses, norms, grad_sum = clipped_grad_sum(
        spec, params, x_batch, y_batch, config.clip_norm, x_sq=x_sq,
        with_losses=False)
    grads_ok = np.isfinite(norms).all(axis=-1)
    if losses is not None:
        grads_ok &= np.isfinite(losses).all(axis=-1)
    update = (grad_sum + noise_std * noise_vec) / x_batch.shape[0]
    new = params - config.learning_rate * update
    ok = grads_ok & np.isfinite(new).all(axis=-1)
    if config.projection_radius is not None:
        norm = _norms(new)
        ok &= np.isfinite(norm)
        over = norm > config.projection_radius
        new[over] *= (config.projection_radius / norm[over])[:, None]
    params[...] = new
    failed = {}
    for r in np.flatnonzero(~ok).tolist():
        if not grads_ok[r]:
            failed[r] = f"non-finite loss or gradient at step {step}"
        elif not np.isfinite(update[r]).all():
            failed[r] = f"non-finite gradient update at step {step}"
        elif not np.isfinite(new[r]).all():
            failed[r] = f"non-finite iterate at step {step}"
        else:
            failed[r] = f"non-finite projection norm at step {step}"
    return failed


def _huge_residual_setup():
    # Features near 1e-3 and labels of +-1e154: each half squared residual
    # is about 5e307, so the losses of a batch sum past max float while
    # every loss and gradient norm (about 1e151) is finite.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((301, 4)) * 1e-3
    y = rng.choice([-1.0, 1.0], 301) * 1e154
    return (Dataset(x[:300], y[:300], "regression"), (x[300], y[300]),
            ModelSpec("linear_regression", 4), np.zeros(4))


def _regression_setup():
    # No reference parameter: the error norm of a run near 1e199 would
    # overflow, and fail it, before its loss does.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((301, 4))
    y = x @ np.array([1.0, -0.5, 0.3, 2.0])
    return (Dataset(x[:300], y[:300], "regression"), (x[300], y[300]),
            ModelSpec("linear_regression", 4), None)


# case -> (setup, config keywords, noise multipliers, the failing run's
# message without its step, or None where no run fails).
ONE_SUM_CASES = {
    "sum_overflows": (_huge_residual_setup, dict(learning_rate=0.2),
                      (0.0, 0.7, 3.1), None),
    "sum_overflows_projected": (_huge_residual_setup,
                                dict(learning_rate=0.2,
                                     projection_radius=0.3),
                                (0.0, 0.7, 3.1), None),
    # The 1e200 run's iterate reaches about 1e199, so its next half squared
    # residual overflows where its gradient norm does not.
    "loss": (_regression_setup, dict(learning_rate=0.2), (0.7, 1e200, 3.1),
             "non-finite loss or gradient"),
    "update": (coupled_setup, dict(learning_rate=0.2), (0.7, 1e308, 3.1),
               "non-finite gradient update"),
    # A finite update of about 1e299 times the 1e10 learning rate.
    "iterate": (coupled_setup, dict(learning_rate=1e10), (0.7, 1e300, 3.1),
                "non-finite iterate"),
    # At learning rate 1e150 the 7000 run's norm passes sqrt(max float).
    "projection_norm": (coupled_setup,
                        dict(learning_rate=1e150, projection_radius=1e200),
                        (0.7, 7000.0, 3.1), "non-finite projection norm"),
}


@pytest.mark.parametrize("case", list(ONE_SUM_CASES))
@pytest.mark.parametrize("trainer", ["coupled_train", "dp_sgd_train"])
def test_one_sum_check_fails_the_runs_the_per_run_checks_fail(
        trainer, case, monkeypatch):
    # Both directions of the one-sum check: a sum that overflows while every
    # checked value is finite fails no run and changes no bit, and one run's
    # non-finite norm, loss, update, iterate or projection norm fails that
    # run alone with the message of the per-run checks.
    setup, keywords, sigmas, message = ONE_SUM_CASES[case]
    base, extra, spec, target = setup()
    cfg = TrainConfig(steps=40, sampling_rate=0.05, clip_norm=1.0, seed=13,
                      **keywords)
    if case.startswith("sum_overflows"):
        x, y = as_batch(spec, base.features[:20], base.labels[:20])
        losses, norms, _ = clipped_grad_sum(spec, np.zeros((3, 4)), x, y, 1.0)
        assert np.isfinite(losses).all() and np.isfinite(norms).all()
        with np.errstate(over="ignore"):
            assert np.add.reduce(losses, None) == np.inf

    def train():
        if trainer == "coupled_train":
            return coupled_train(base, extra, spec, cfg, theta_star=target,
                                 noise_multipliers=sigmas)
        return dp_sgd_train(base, spec, cfg, noise_multipliers=sigmas)

    got = train()
    monkeypatch.setattr(training, "_batch_update", per_run_batch_update)
    want = train()
    for i, (g, w) in enumerate(zip(got, want)):
        assert type(g) is type(w)
        if isinstance(w, NumericFailureError):
            assert str(g) == str(w)
            assert i == 1 and str(w).startswith(f"{message} at step ")
        elif trainer == "coupled_train":
            assert_traces_equal(g, w)
        else:
            assert np.array_equal(g.params, w.params)
    assert (message is None) == all(
        not isinstance(w, NumericFailureError) for w in want)


def test_a_stack_whose_sum_overflows_fails_no_run():
    # Iterates of 1e308 and -1e308 are finite, but their sum is not, so the
    # runs are checked one by one, and none fails; the step is the per-run
    # step bit for bit.
    spec = ModelSpec("linear_regression", 4)
    params = np.full((3, 4), 1e308)
    params[:2, 0] = -1e308
    x, y = as_batch(spec, np.full((5, 4), 1e-300), np.zeros(5))
    cfg = TrainConfig(1e-3, 10, 0.5, 1.0)
    want = params.copy()
    args = (x, sq_row_norms(x), y, np.ones(4), np.ones((3, 1)), cfg, 7)
    with np.errstate(over="ignore"):
        assert np.add.reduce(params, None) == np.inf
        assert training._batch_update(spec, params, *args) == {}
    assert per_run_batch_update(spec, want, *args) == {}
    assert np.array_equal(params, want) and np.isfinite(params).all()


def concatenated_coupled_series(base, extra, spec, config, theta_star,
                                schedule, sigmas):
    """The gap and error series of a lockstep ``coupled_train`` call, with
    each step's halves advanced out of place and concatenated into a new
    stack: the oracle of its in-place update of the stack's rows."""
    x, y = as_batch(spec, base.features, base.labels)
    x_extra, y_extra = as_batch(spec, extra[0], [extra[1]])
    mask_rng, noise_rng, _, init_rng = _spawn_streams(config.seed)
    runs = len(sigmas)
    theta = np.tile(init_params(spec, init_rng), (2 * runs, 1))
    std = np.array(sigmas)[:, None] * config.clip_norm

    def stepped(params, xb, yb, noise_std):
        new = params.copy()
        assert not per_run_batch_update(spec, new, xb, sq_row_norms(xb), yb,
                                        noise, noise_std, config, t)
        return new

    stacks = [theta]
    for t, idx, *_, noise in training._draws(x, y, theta.shape[1], config,
                                             mask_rng, noise_rng):
        if not schedule[t]:
            if idx.size:
                theta = stepped(theta, x[idx], y[idx],
                                np.concatenate([std, std]))
        else:
            new_a = theta[:runs]
            if idx.size:
                new_a = stepped(new_a, x[idx], y[idx], std)
            new_b = stepped(theta[runs:], np.concatenate([x[idx], x_extra]),
                            np.concatenate([y[idx], y_extra]), std)
            theta = np.concatenate([new_a, new_b])
        stacks.append(theta)
    gaps = [[np.linalg.norm(s[r] - s[runs + r]) for s in stacks]
            for r in range(runs)]
    errors = [[np.linalg.norm(s[r] - theta_star) for s in stacks]
              for r in range(runs)]
    return np.array(gaps), np.array(errors), np.array(stacks)


@pytest.mark.parametrize("radius", [None, 0.3],
                         ids=["no_projection", "projection"])
@pytest.mark.parametrize("every", [1, 2], ids=["every_step", "every_other"])
def test_in_place_coupled_update_equals_the_concatenated_stack(every,
                                                               radius):
    # With the extra point in at every step, or every other one, each step
    # updates the two halves of the stack as views in place; the series are
    # those of halves made out of place and concatenated back.
    base, extra, spec, target = coupled_setup()
    sigmas = LOCKSTEP_SIGMAS
    cfg = TrainConfig(0.2, 60, 0.05, 1.0, projection_radius=radius, seed=13)
    schedule = np.arange(cfg.steps) % every == 0
    traces = coupled_train(base, extra, spec, cfg, theta_star=target,
                           extra_schedule=schedule, noise_multipliers=sigmas)
    gaps, errors, stacks = concatenated_coupled_series(
        base, extra, spec, cfg, target, schedule, sigmas)
    for r, trace in enumerate(traces):
        assert np.array_equal(trace.gap_series, gaps[r])
        assert np.array_equal(trace.error_series, errors[r])
        assert trace.gap_series[-1] > 0.0
    if radius is not None:
        norms = np.linalg.norm(stacks, axis=-1)
        assert np.isclose(norms, radius, rtol=1e-12).any()


@pytest.mark.parametrize("trainer", ["coupled_train", "dp_sgd_train"])
def test_lockstep_rejects_bad_multipliers(trainer):
    base, extra, spec, _ = coupled_setup()
    cfg = TrainConfig(0.2, 5, 0.05, 1.0, seed=1)

    def train(**kwargs):
        if trainer == "coupled_train":
            return coupled_train(base, extra, spec, cfg, **kwargs)
        return dp_sgd_train(base, spec, cfg, **kwargs)

    for bad in ((), (0.5, -1.0), (math.nan,)):
        with pytest.raises(ValueError, match="noise_multipliers"):
            train(noise_multipliers=bad)


@pytest.mark.parametrize("radius", [None, 0.1],
                         ids=["no_projection", "projection"])
@pytest.mark.parametrize("spec", KIND_SPECS, ids=KIND_IDS)
def test_lockstep_dp_sgd_runs_equal_separate_calls(spec, radius):
    # Exact equality, as for the coupled runs: each lockstep run, the
    # sigma = 0 run included, is its own call bit for bit.
    x, y, task, k = kind_data(spec)
    data = Dataset(x, y, task, k)
    cfg = TrainConfig(0.2, 120, 0.1, 1.0, projection_radius=radius, seed=13)
    models = dp_sgd_train(data, spec, cfg, noise_multipliers=LOCKSTEP_SIGMAS)
    assert len(models) == len(LOCKSTEP_SIGMAS)
    for sigma, model in zip(LOCKSTEP_SIGMAS, models):
        alone = dp_sgd_train(data, spec,
                             dataclasses.replace(cfg, noise_multiplier=sigma))
        assert np.array_equal(model.params, alone.params)
        assert model.accounting == alone.accounting
        assert model.spec == spec
    assert not np.array_equal(models[1].params, models[2].params)
    if radius is not None:
        # The projection binds for some run.
        assert max(np.linalg.norm(m.params) for m in models) == \
            pytest.approx(radius)


@pytest.mark.parametrize("position", **POSITIONS)
def test_lockstep_dp_sgd_failed_run_fails_alone(position):
    # The 1e308 run overflows its noisy update at the first nonempty step.
    data, _ = small_logistic()
    spec = ModelSpec("softmax_linear", data.dim, 2)
    sigmas = with_failing_run(position, (0.7, 0.0))
    cfg = TrainConfig(0.2, 60, 0.05, 1.0, seed=13)
    models = dp_sgd_train(data, spec, cfg, noise_multipliers=sigmas)
    with pytest.raises(NumericFailureError) as single:
        dp_sgd_train(data, spec, dataclasses.replace(cfg,
                                                     noise_multiplier=1e308))
    assert str(single.value).startswith("non-finite gradient update at step")
    assert isinstance(models[position], NumericFailureError)
    assert str(models[position]) == str(single.value)
    for i, sigma in enumerate(sigmas):
        if i != position:
            alone = dp_sgd_train(data, spec, dataclasses.replace(
                cfg, noise_multiplier=sigma))
            assert np.array_equal(models[i].params, alone.params)


@pytest.mark.parametrize("spec", [
    ModelSpec("linear_regression", 5),
    ModelSpec("softmax_linear", 5, 3),
    ModelSpec("mlp", 5, 4, (8, 6)),
    ModelSpec("mlp", 5, 1, (7,)),
], ids=["linear_regression", "softmax_linear", "mlp_classifier",
        "mlp_regression"])
def test_stacked_batch_grads_equal_per_run_calls(spec):
    # Exact equality: a BLAS whose stacked matmul changes the bits of one
    # run must fail here, not drift silently. The same holds for the
    # clipped-sum kernel that DP-SGD steps through, against (P,) and (1, P)
    # calls.
    rng = np.random.default_rng(8)
    runs = 4
    params = rng.standard_normal((runs, param_count(spec)))
    for b in (1, 3, 21, 128):
        x = rng.standard_normal((b, spec.input_dim))
        y = (rng.standard_normal(b) if spec.output_dim == 1
             else rng.integers(0, spec.output_dim, b))
        losses, grads = batch_loss_and_grads(spec, params, x, y)
        assert losses.shape == (runs, b)
        assert grads.shape == (runs, b, param_count(spec))
        xb, yb = as_batch(spec, x, y)
        stacked = clipped_grad_sum(spec, params, xb, yb, 0.5)
        for r in range(runs):
            loss_r, grad_r = batch_loss_and_grads(spec, params[r], x, y)
            assert np.array_equal(losses[r], loss_r)
            assert np.array_equal(grads[r], grad_r)
            for alone in (clipped_grad_sum(spec, params[r], xb, yb, 0.5),
                          [out[0] for out in clipped_grad_sum(
                              spec, params[r:r + 1], xb, yb, 0.5)]):
                for got, want in zip(stacked, alone):
                    assert np.array_equal(got[r], want)
    with pytest.raises(ValueError):
        batch_loss_and_grads(spec, np.zeros((2, 2, param_count(spec))), x, y)


# ---------------------------------------------------------------------------
# Step blocks: a stack advances one block of runs at a time


BLOCK_SIGMAS = (0.0, 0.7, 3.1, 1.3, 5.0)
BLOCKINGS = ["one_run", "uneven"]


def block_sizes(monkeypatch, blocking, n, spec):
    """Set ``_STEP_BLOCK_FLOATS`` to 1 (one run per block) or, for
    ``"uneven"``, to the floats of three runs on an ``n``-row batch, which
    cut five runs into 3 + 2 and ten into 3 + 3 + 3 + 1 (on an (n + 1)-row
    batch, five into 2 + 2 + 1). Returns the list of the run counts of the
    blocks that the steps then make, in call order."""
    width = max(fan_out for _, fan_out in spec.layer_dims())
    floats = 1 if blocking == "one_run" else 3 * n * width
    sizes = []
    real = training._batch_update

    def spy(spec, params, *args):
        sizes.append(params.shape[0])
        return real(spec, params, *args)

    monkeypatch.setattr(training, "_STEP_BLOCK_FLOATS", floats)
    monkeypatch.setattr(training, "_batch_update", spy)
    return sizes


@pytest.mark.parametrize("blocking", BLOCKINGS)
@pytest.mark.parametrize("spec", KIND_SPECS[1:], ids=KIND_IDS[1:])
def test_blocked_dp_sgd_step_equals_the_unblocked_stack(spec, blocking,
                                                        monkeypatch):
    # At sampling rate 1 every batch holds all n rows, so the blocks have
    # known sizes; each run is bit-equal to its run in the one-block stack.
    x, y, task, k = kind_data(spec, n=60)
    data = Dataset(x, y, task, k)
    cfg = TrainConfig(0.2, 30, 1.0, 1.0, projection_radius=2.0, seed=13)
    want = dp_sgd_train(data, spec, cfg, noise_multipliers=BLOCK_SIGMAS)
    sizes = block_sizes(monkeypatch, blocking, data.n, spec)
    got = dp_sgd_train(data, spec, cfg, noise_multipliers=BLOCK_SIGMAS)
    assert sizes == {"one_run": [1] * 5, "uneven": [3, 2]}[blocking] * 30
    for g, w in zip(got, want):
        assert np.array_equal(g.params, w.params)
    assert not np.array_equal(got[1].params, got[4].params)


@pytest.mark.parametrize("blocking", BLOCKINGS)
def test_blocked_coupled_step_equals_the_unblocked_stack(blocking,
                                                         monkeypatch):
    # The extra point is in at every third step: the whole stack of ten
    # rows steps on the others, its two halves of five apart on those.
    base, extra, spec, target = coupled_setup(n=60)
    cfg = TrainConfig(0.2, 30, 1.0, 1.0, seed=13)
    schedule = np.arange(cfg.steps) % 3 == 1

    def train():
        return coupled_train(base, extra, spec, cfg, theta_star=target,
                             extra_schedule=schedule,
                             noise_multipliers=BLOCK_SIGMAS)

    want = train()
    sizes = block_sizes(monkeypatch, blocking, base.n, spec)
    got = train()
    whole, halves = {"one_run": ([1] * 10, [1] * 10),
                     "uneven": ([3, 3, 3, 1], [3, 2, 2, 2, 1])}[blocking]
    assert sizes == [size for t in range(cfg.steps)
                     for size in (halves if schedule[t] else whole)]
    for g, w in zip(got, want):
        assert_traces_equal(g, w)
        assert g.gap_series[-1] > 0.0


@pytest.mark.parametrize("trainer", ["coupled_train", "dp_sgd_train"])
def test_a_run_failing_in_a_later_block_keeps_its_step_and_message(
        trainer, monkeypatch):
    # Run 4 of five, in the second block of the 3 + 2 cut (on a coupled
    # call, of the whole stack and of either half), overflows its noisy
    # update at step 0; at learning rate 1e150 the 1e5 run, in the first
    # block, fails on its projection norm some steps later. Each fails with
    # the step and message of its own call; the others are unchanged.
    base, extra, spec, target = coupled_setup(n=60)
    sigmas = (0.7, 1e5, 3.1, 0.0, 1e308)
    cfg = TrainConfig(1e150, 30, 1.0, 1.0, projection_radius=1e200, seed=13)

    def train(runs):
        if trainer == "coupled_train":
            return coupled_train(base, extra, spec, cfg, theta_star=target,
                                 extra_schedule=np.arange(cfg.steps) % 2 == 0,
                                 noise_multipliers=runs)
        return dp_sgd_train(base, spec, cfg, noise_multipliers=runs)

    want = train(sigmas)
    block_sizes(monkeypatch, "uneven", base.n, spec)
    got = train(sigmas)
    assert str(got[4]) == "non-finite gradient update at step 0"
    assert str(got[1]).startswith("non-finite projection norm at step ")
    assert int(str(got[1]).rsplit(" ", 1)[1]) > 0
    for i, sigma in enumerate(sigmas):
        if i in (1, 4):
            assert isinstance(got[i], NumericFailureError)
            assert str(got[i]) == str(want[i]) == str(train([sigma])[0])
        elif trainer == "coupled_train":
            assert_traces_equal(got[i], want[i])
        else:
            assert np.array_equal(got[i].params, want[i].params)


# ---------------------------------------------------------------------------
# Row index: a trainer trains on indexed rows without gathering them first


@pytest.mark.parametrize("spec", KIND_SPECS[1:], ids=KIND_IDS[1:])
def test_training_through_a_row_index_equals_the_subset(spec, monkeypatch):
    # An odd pool's 101-row half at rate 0.1 makes _draws blocks of 101
    # steps, so 350 steps span four of them. Each run, the 1e308 one that
    # fails included, is its run on the gathered subset bit for bit.
    x, y, task, k = kind_data(spec, n=203)
    pool = Dataset(x, y, task, k)
    idx = np.random.default_rng(4).permutation(pool.n)[:101]
    cfg = TrainConfig(0.2, 350, 0.1, 1.0, projection_radius=2.0, seed=13)
    sigmas = with_failing_run(1, (0.0, 0.7, 3.1))
    want = dp_sgd_train(pool.subset(idx), spec, cfg, noise_multipliers=sigmas)
    blocks = []
    real = training._poisson_block

    def spy(n, *args):
        blocks.append(n)
        return real(n, *args)

    monkeypatch.setattr(training, "_poisson_block", spy)
    got = dp_sgd_train(pool, spec, cfg, rows=idx, noise_multipliers=sigmas)
    assert blocks == [101] * 4
    assert isinstance(got[1], NumericFailureError)
    assert str(got[1]) == str(want[1])
    for i in (0, 2, 3):
        assert np.array_equal(got[i].params, want[i].params)
        assert got[i].accounting == want[i].accounting
    assert not np.array_equal(got[2].params, got[3].params)


def test_a_row_index_is_nonempty_integer_and_needs_readable_labels():
    # The labels are checked once, over the whole dataset: class 3, which a
    # 3-class head cannot read, fails a call whose rows do not hold it. An
    # empty index is refused, as an empty subset is, and so is a boolean
    # mask, which take would read as the indices 0 and 1.
    spec = ModelSpec("softmax_linear", 5, 3)
    x, y, task, _ = kind_data(spec, n=60)
    y[7] = 3
    pool = Dataset(x, y, task)
    cfg = TrainConfig(0.2, 40, 0.2, 1.0, noise_multiplier=0.7, seed=5)
    rows = np.arange(20, 50)
    assert dp_sgd_train(pool.subset(rows), spec, cfg)
    with pytest.raises(ValueError, match="got label 3"):
        dp_sgd_train(pool, spec, cfg, rows=rows)
    for bad in (np.arange(0), np.arange(60) < 30):
        with pytest.raises(ValueError, match="nonempty integer index"):
            dp_sgd_train(pool, spec, cfg, rows=bad)


# ---------------------------------------------------------------------------
# Closed-form bounds


def test_stability_bound_smooth_values():
    assert stability_bound_smooth(10, 0.1, 1.0, 1.0, 1.0, 3, 0.0, 100) == 0.0
    assert stability_bound_smooth(10, 0.0, 1.0, 1.0, 1.0, 3, 0.1, 100) == 0.0
    got = stability_bound_smooth(999, 0.05, 1.0, 1.0, 1.0, 10, 0.001, 1000)
    expected = ((1 - 0.95 ** 1000) / 1000) * (2 + math.sqrt(10)) * (math.e - 1)
    assert got == pytest.approx(expected, rel=1e-12)

