import logging
import math

import numpy as np
import pytest

from dpconformal.data import (CsvParseError, apply_standardizer,
                              default_logistic_signal, fit_standardizer,
                              gen_logistic, gen_multiclass, load_csv)
from dpconformal.models import Dataset


# ---------------------------------------------------------------------------
# Generators


def test_logistic_signal_values():
    theta = default_logistic_signal(5)
    assert theta[0] == 1.0
    assert theta[1] == -0.5
    assert theta[2] == pytest.approx(1 / 3)


def test_gen_logistic_feature_moments():
    data, theta = gen_logistic(10000, 6, seed=17)
    assert data.n_classes == 2 and data.task == "classification"
    se = 1 / math.sqrt(10000)
    assert np.all(np.abs(data.features.mean(axis=0)) < 3 * se)
    assert theta.shape == (6,)


def test_gen_logistic_zero_signal_balanced_labels():
    data, _ = gen_logistic(20000, 4, seed=3, theta_star=np.zeros(4))
    se = 0.5 / math.sqrt(20000)
    assert abs(data.labels.mean() - 0.5) < 3 * se


def test_gen_logistic_prefix_stable():
    small, _ = gen_logistic(40, 5, seed=2)
    big, _ = gen_logistic(90, 5, seed=2)
    np.testing.assert_array_equal(small.features, big.features[:40])
    np.testing.assert_array_equal(small.labels, big.labels[:40])


def test_gen_multiclass_priors_uniform():
    k = 5
    data = gen_multiclass(10000, 10, k, 0.6, 0.01, seed=4)
    counts = np.bincount(data.labels, minlength=k)
    sd = math.sqrt(10000 * (1 / k) * (1 - 1 / k))
    assert np.all(np.abs(counts - 10000 / k) < 3 * sd)


def test_gen_multiclass_full_flip_decouples_labels():
    data = gen_multiclass(20000, 8, 4, 5.0, 1.0, seed=6)
    overall = data.features.mean(axis=0)
    # with every label resampled uniformly, class-conditional feature means
    # coincide with the global mean up to Monte Carlo noise
    feature_sd = data.features.std(axis=0).max()
    for c in range(4):
        rows = data.features[data.labels == c]
        se = feature_sd / math.sqrt(len(rows))
        assert np.abs(rows.mean(axis=0) - overall).max() < 4 * se


def test_gen_multiclass_separable_when_spread_out():
    data = gen_multiclass(5000, 10, 5, 10.0, 0.0, seed=7)
    half = 2500
    centroids = np.stack([data.features[:half][data.labels[:half] == c]
                          .mean(axis=0) for c in range(5)])
    d2 = ((data.features[half:, None, :] - centroids[None]) ** 2).sum(axis=2)
    acc = (np.argmin(d2, axis=1) == data.labels[half:]).mean()
    assert acc > 0.99


def test_gen_multiclass_prefix_stable():
    small = gen_multiclass(64, 10, 5, 0.6, 0.01, seed=11)
    big = gen_multiclass(200, 10, 5, 0.6, 0.01, seed=11)
    np.testing.assert_array_equal(small.features, big.features[:64])
    np.testing.assert_array_equal(small.labels, big.labels[:64])


def test_gen_multiclass_validation():
    with pytest.raises(ValueError):
        gen_multiclass(10, 2, 100, 1.0, 0.0, seed=0)  # 100 corners in {-1,1}^2
    with pytest.raises(ValueError):
        gen_multiclass(10, 3, 1, 1.0, 0.0, seed=0)


# ---------------------------------------------------------------------------
# CSV ingestion


def test_load_csv_regression(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("a,b,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
    data = load_csv(path, label_column=2, task="regression")
    assert data.n == 3 and data.dim == 2
    np.testing.assert_allclose(data.labels, [3.0, 6.0, 9.0])


def test_load_csv_non_numeric_cell_names_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(CsvParseError, match=r"row 3, column 2"):
        load_csv(path, label_column=0, task="regression")


def test_load_csv_drops_incomplete_rows(tmp_path, caplog):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n1.0,2.0\n,3.0\n4.0,inf\n5.0,6.0\n")
    with caplog.at_level(logging.WARNING, logger="dpconformal.data"):
        data = load_csv(path, label_column=1, task="regression")
    assert data.n == 2
    assert "dropped 2 rows" in caplog.text


def test_load_csv_classification_infers_classes(tmp_path):
    path = tmp_path / "cls.csv"
    rows = "\n".join(f"{i % 3}.0,{i}.0,{i % 8}" for i in range(16))
    path.write_text("x1,x2,label\n" + rows + "\n")
    data = load_csv(path, label_column=2, task="classification")
    assert data.n_classes == 8
    assert data.labels.dtype.kind == "i"


def test_load_csv_rounds_near_integer_class_labels(tmp_path):
    # Within the integer tolerance, but below 3: the label is class 3, not
    # its truncation to 2.
    path = tmp_path / "near.csv"
    path.write_text("x,label\n0.5,2.9999999\n1.5,1.0000001\n2.5,0\n")
    data = load_csv(path, label_column=1, task="classification")
    assert data.labels.tolist() == [3, 1, 0]
    assert data.n_classes == 4


def test_load_csv_empty_after_filtering(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n,\n")
    with pytest.raises(ValueError, match="no usable data rows"):
        load_csv(path, label_column=0, task="regression")


# ---------------------------------------------------------------------------
# Standardization


def regression_dataset(n=200, d=4, seed=9):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * np.array([1.0, 10.0, 0.1, 5.0]) + 3.0
    y = 50.0 + 4.0 * rng.standard_normal(n)
    return Dataset(x, y, "regression")


def test_standardizer_zero_mean_unit_sd():
    train = regression_dataset()
    stats = fit_standardizer(train)
    out = apply_standardizer(stats, train)
    assert np.abs(out.features.mean(axis=0)).max() < 1e-9
    assert np.abs(out.features.std(axis=0) - 1.0).max() < 1e-9
    assert abs(out.labels.mean()) < 1e-9
    assert abs(out.labels.std() - 1.0) < 1e-9


def test_standardizer_applies_train_stats_to_new_data():
    train = regression_dataset(seed=1)
    other = regression_dataset(seed=2)
    stats = fit_standardizer(train)
    out = apply_standardizer(stats, other)
    manual = (other.features - stats.feature_mean) / stats.feature_sd
    np.testing.assert_allclose(out.features, manual)


def test_standardizer_degenerate_column_flagged():
    x = np.ones((50, 2))
    x[:, 1] = np.arange(50)
    train = Dataset(x, np.arange(50, dtype=float), "regression")
    stats = fit_standardizer(train)
    assert stats.degenerate_features == (0,)
    assert stats.feature_sd[0] == 1.0
    out = apply_standardizer(stats, train)
    assert np.all(out.features[:, 0] == 0.0)


def test_standardizer_target_round_trip():
    train = regression_dataset()
    stats = fit_standardizer(train)
    out = apply_standardizer(stats, train)
    assert stats.target_scale == stats.target_sd
    # The stats map the standardized target back to the original scale.
    back = out.labels * stats.target_sd + stats.target_mean
    np.testing.assert_allclose(back, train.labels, atol=1e-12)


def test_standardizer_classification_leaves_labels():
    data = gen_multiclass(100, 4, 3, 1.0, 0.0, seed=5)
    stats = fit_standardizer(data)
    out = apply_standardizer(stats, data)
    np.testing.assert_array_equal(out.labels, data.labels)
    assert stats.target_sd == 1.0
