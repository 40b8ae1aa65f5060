import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconformal.data import (_GEN_BLOCK_ROWS, CsvParseError, _read_table,
                              _record_streams, _row_loop_table,
                              apply_standardizer, default_logistic_signal,
                              fit_standardizer, gen_logistic, gen_multiclass,
                              load_csv)
from dpconformal.experiments import (_csv_key, _parsed_csv, _realdata_split,
                                     _scaling_data)
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
    # Prefixes that end on either side of a block of the centroid addition.
    big = gen_multiclass(2 * _GEN_BLOCK_ROWS + 3, 6, 4, 1.0, 0.05, seed=8)
    for m in (_GEN_BLOCK_ROWS - 1, _GEN_BLOCK_ROWS + 1,
              2 * _GEN_BLOCK_ROWS + 1):
        small = gen_multiclass(m, 6, 4, 1.0, 0.05, seed=8)
        assert small.features.tobytes() == big.features[:m].tobytes()
        np.testing.assert_array_equal(small.labels, big.labels[:m])


def _one_shot_multiclass(n, d, k, class_sep, flip_y, seed):
    """gen_multiclass with the centroids added in one (n, d) sum, the
    formula that the blocked in-place addition must reproduce."""
    meta_rng, noise_rng = _record_streams(seed)
    corners, seen = [], set()
    while len(corners) < k:
        c = tuple(meta_rng.choice([-1.0, 1.0], size=d).tolist())
        if c not in seen:
            seen.add(c)
            corners.append(c)
    centroids = np.asarray(corners) * class_sep
    u = meta_rng.random((n, 3))
    clusters = (u[:, 0] * k).astype(int)
    x = centroids[clusters] + noise_rng.standard_normal((n, d))
    labels = np.where(u[:, 1] < flip_y, (u[:, 2] * k).astype(int), clusters)
    return x, labels


@pytest.mark.parametrize("n", [1, _GEN_BLOCK_ROWS - 1, _GEN_BLOCK_ROWS,
                               _GEN_BLOCK_ROWS + 1, 3 * _GEN_BLOCK_ROWS + 7])
def test_gen_multiclass_equals_the_one_shot_formula(n):
    for d, k, sep, flip, seed in [(10, 5, 0.6, 0.01, 11), (3, 8, 2.5, 0.3, 4)]:
        data = gen_multiclass(n, d, k, sep, flip, seed)
        x, labels = _one_shot_multiclass(n, d, k, sep, flip, seed)
        assert data.features.shape == (n, d)
        assert data.features.tobytes() == x.tobytes()
        np.testing.assert_array_equal(data.labels, labels)


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


def test_load_csv_refuses_an_unknown_task(tmp_path):
    # A misspelt task read the table as regression.
    path = tmp_path / "reg.csv"
    path.write_text("a,b,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(ValueError, match="unknown task 'regresion'"):
        load_csv(path, label_column=2, task="regresion")


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


@pytest.mark.parametrize("label", ["10.00001", "50000.4"])
def test_load_csv_rejects_labels_off_an_integer(tmp_path, label):
    # The integer tolerance is absolute; a relative one grows with the label.
    path = tmp_path / "off.csv"
    path.write_text(f"x,label\n0.5,{label}\n1.5,1\n")
    with pytest.raises(ValueError, match="must be integers"):
        load_csv(path, label_column=1, task="classification")


def test_load_csv_empty_after_filtering(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n,\n")
    with pytest.raises(ValueError, match="no usable data rows"):
        load_csv(path, label_column=0, task="regression")


def test_load_csv_header_only(tmp_path):
    # numpy's reader warns "input contained no data" here; that warning must
    # not escape, and the error is the row loop's.
    path = tmp_path / "header.csv"
    path.write_text("a,b\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no usable data rows"):
            load_csv(path, label_column=0, task="regression")


def test_load_csv_header_record_spans_lines(tmp_path):
    # The header is one CSV record: the numeric-looking lines inside its
    # quoted name are not data rows.
    path = tmp_path / "quoted.csv"
    path.write_text('"name\n7\n"\n5\n')
    data = load_csv(path, label_column=0, task="regression")
    assert data.labels.tolist() == [5.0]


_NUMBER_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.builds("{}{}.{}e{}".format, st.sampled_from(["", "+", "-"]),
              st.integers(0, 999), st.integers(0, 99),
              st.integers(-330, 330)),
    st.sampled_from(["nan", "inf", "-Infinity", "+inf", "NaN", "1e400",
                     "-1e400", "1e-400", "-0", ".5", "5."]),
)
_BAD_CELLS = st.sampled_from(["", "oops", "1_0", "0x10", "1 2", '1"2'])
_PADS = st.sampled_from(["", " ", "\t", " \t "])
_HEADER_NAMES = st.sampled_from(["a", "x1", '"y"', '"h,1"', '"h\n1"',
                                 '"h\n7\n"', '"h\r\n2,3\r\n"', '""'])


@st.composite
def _csv_files(draw):
    """A CSV text and whether its first record is a header. Half the files
    hold only numeric cells in rectangular rows and blank lines, which
    numpy's reader parses; the rest may also hold empty or non-numeric
    cells, ragged rows, lines of one blank cell and quoted cells led by
    blanks."""
    clean = draw(st.booleans())
    cells = _NUMBER_CELLS if clean else st.one_of(_NUMBER_CELLS, _BAD_CELLS)
    fillers = st.just("") if clean else st.sampled_from(["", " ", '""'])

    def cell():
        text = draw(_PADS) + draw(cells) + draw(_PADS)
        if draw(st.booleans()):
            # A space before the opening quote makes the quote a character
            # of the cell, which neither parser reads as a number.
            lead = "" if clean else draw(_PADS)
            text = lead + '"' + text + '"' + draw(_PADS)
        return text

    width = draw(st.integers(1, 4))
    lines = []
    has_header = draw(st.booleans())
    if has_header:
        lines.append(",".join(draw(_HEADER_NAMES) for _ in range(width)))
    for _ in range(draw(st.integers(int(clean), 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(fillers))
            continue
        n_cells = width if clean else draw(st.integers(max(1, width - 1),
                                                       width + 1))
        lines.append(",".join(cell() for _ in range(n_cells)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, has_header


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(read):
    """What ``read()`` returns or raises, with the log lines it writes."""
    logger = logging.getLogger("dpconformal.data")
    handler = _Records()
    logger.addHandler(handler)
    try:
        result = read()
    except Exception as exc:
        result = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.csv"


@settings(max_examples=300, deadline=None)
@given(_csv_files())
def test_load_csv_matches_the_row_loop(csv_path, file):
    text, has_header = file
    with open(csv_path, "w", newline="") as fh:
        fh.write(text)
    expected, expected_log = _outcome(
        lambda: _row_loop_table(csv_path, has_header))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, got_log = _outcome(
            lambda: load_csv(csv_path, 0, "regression", has_header))
    assert not caught, [str(w.message) for w in caught]
    assert got_log == expected_log
    if isinstance(expected, tuple):
        assert got == expected
    else:
        table = np.column_stack([got.labels, got.features])
        assert table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()


def _capture_loadtxt(monkeypatch):
    parsed = []
    real_loadtxt = np.loadtxt

    def loadtxt(*args, **kwargs):
        parsed.append(real_loadtxt(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    return parsed


def test_read_table_keeps_the_parsed_table_of_a_clean_file(tmp_path,
                                                          monkeypatch):
    # Only a file that drops a row pays for a copy of the table.
    parsed = _capture_loadtxt(monkeypatch)
    path = tmp_path / "table.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    assert _read_table(path, True) is parsed[-1]
    path.write_text("a,b\n1,2\n3,nan\n")
    kept = _read_table(path, True)
    assert kept is not parsed[-1] and kept.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_load_csv_labels_do_not_keep_the_parsed_table(tmp_path, monkeypatch,
                                                      task):
    # A view of the label column would hold the whole (n, width) table
    # alive for as long as the Dataset is kept.
    parsed = _capture_loadtxt(monkeypatch)
    path = tmp_path / "table.csv"
    path.write_text("a,y,b\n1,0,2\n3,1,4\n5,2,6\n")
    data = load_csv(path, label_column=1, task=task)
    assert len(parsed) == 1
    assert data.labels.base is None
    assert not np.shares_memory(data.labels, parsed[0])
    assert not np.shares_memory(data.features, parsed[0])
    assert data.labels.tolist() == [0, 1, 2]


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
    # The stats map the standardized target back to the original scale.
    back = out.labels * stats.target_sd + stats.target_mean
    np.testing.assert_allclose(back, train.labels, atol=1e-12)


def test_standardizer_classification_leaves_labels():
    data = gen_multiclass(100, 4, 3, 1.0, 0.0, seed=5)
    stats = fit_standardizer(data)
    out = apply_standardizer(stats, data)
    np.testing.assert_array_equal(out.labels, data.labels)
    assert stats.target_sd == 1.0


@pytest.mark.parametrize("n", [1, 5, _GEN_BLOCK_ROWS, _GEN_BLOCK_ROWS + 1,
                               3 * _GEN_BLOCK_ROWS + 7, 20_000])
@pytest.mark.parametrize("layout", ["c_order", "one_column", "f_order",
                                    "column_view"])
def test_standardizer_sd_is_numpy_std_bit_for_bit(n, layout):
    # The sd is summed a block of rows at a time, the running sum carried
    # into the next block as its first row: numpy's own row-by-row order for
    # a C-ordered matrix. A layout that numpy reduces pairwise (one column,
    # a Fortran-ordered matrix) takes numpy's std itself.
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 10)) * 1e3 + rng.standard_normal(10) * 50.0
    x = {"c_order": x, "one_column": x[:, :1].copy(),
         "f_order": np.asfortranarray(x), "column_view": x[:, ::3]}[layout]
    stats = fit_standardizer(Dataset(x, np.zeros(n), "regression"))
    want = x.std(axis=0)
    want[want < 1e-12] = 1.0
    assert stats.feature_sd.tobytes() == want.tobytes()


def _read_only_copy(data):
    x, y = data.features.copy(), data.labels.copy()
    x.flags.writeable = False
    y.flags.writeable = False
    return Dataset(x, y, data.task, data.n_classes)


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_apply_standardizer_equals_the_formula_and_keeps_its_input(task):
    if task == "regression":
        data = regression_dataset(seed=4)
        other = regression_dataset(seed=5)
    else:
        data = gen_multiclass(300, 6, 3, 1.5, 0.1, seed=2)
        other = gen_multiclass(300, 6, 3, 1.5, 0.1, seed=3)
    # A constant column takes the degenerate unit scale.
    x = data.features.copy()
    x[:, 0] = 7.0
    data = Dataset(x, data.labels, data.task, data.n_classes)
    stats = fit_standardizer(data)
    for source in (data, other):
        frozen = _read_only_copy(source)
        out = apply_standardizer(stats, frozen)
        expected_x = (source.features - stats.feature_mean) / stats.feature_sd
        assert out.features.tobytes() == expected_x.tobytes()
        if task == "regression":
            expected_y = (source.labels - stats.target_mean) / stats.target_sd
            assert out.labels.tobytes() == expected_y.tobytes()
        else:
            np.testing.assert_array_equal(out.labels, source.labels)
        assert frozen.features.tobytes() == source.features.tobytes()
        assert frozen.labels.tobytes() == source.labels.tobytes()
        assert not np.shares_memory(out.features, frozen.features)
        if task == "regression":
            assert not np.shares_memory(out.labels, frozen.labels)
        # With out=, the same bits land in the arrays of out, which may be
        # the input's own.
        into = Dataset(np.zeros_like(source.features),
                       np.zeros_like(source.labels), source.task,
                       source.n_classes)
        own = Dataset(source.features.copy(), source.labels.copy(),
                      source.task, source.n_classes)
        for target, given in ((into, frozen), (own, own)):
            got = apply_standardizer(stats, given, out=target)
            assert got is target
            assert got.features.tobytes() == out.features.tobytes()
            assert got.labels.tobytes() == out.labels.tobytes()
        assert frozen.features.tobytes() == source.features.tobytes()


def _distinct_nbytes(*arrays):
    """Bytes of the buffers that the arrays keep alive, each counted once."""
    owners = {}
    for a in arrays:
        owner = a if a.base is None else a.base
        owners[id(owner)] = owner.nbytes
    return sum(owners.values())


def _traced_build(build, *args):
    """build(*args) and the peak of the memory traced while it runs."""
    build(*args[:-1], args[-1] + 1)  # first-use imports stay out of the trace
    tracemalloc.start()
    try:
        pool, test, _ = build(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (pool, test), peak


# A data cell is standardized in the arrays it keeps, and fit_standardizer
# takes the sd a block of rows at a time, without an (n, d) deviations
# array. What a build holds beyond the cell is gen_multiclass's per-row
# draws (scaling cells, whose pool and test are row slices of the generated
# matrix; 1.47x the cell in all) or the permutation and the regression
# target's deviations (realdata splits; 1.25x).
def test_scaling_data_cell_builds_in_little_more_than_it_keeps():
    (pool, test), peak = _traced_build(_scaling_data,
                                       (10, 5, 0.6, 0.01, 2000), 20_000, 1)
    kept = _distinct_nbytes(pool.features, pool.labels, test.features,
                            test.labels)
    assert kept == 22_000 * 8 + 22_000 * 10 * 8
    assert peak <= 1.5 * kept


def test_realdata_split_builds_in_little_more_than_it_keeps(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "table.csv"
    np.savetxt(path, rng.standard_normal((20_000, 9)), delimiter=",",
               header=",".join(f"c{j}" for j in range(9)), comments="")
    key = _csv_key({"path": str(path), "label_column": 8,
                    "task": "regression", "has_header": True})
    _parsed_csv(*key)  # parsed once per process, before the split
    (pool, test), peak = _traced_build(_realdata_split, key, 0.2, 1)
    kept = _distinct_nbytes(pool.features, pool.labels, test.features,
                            test.labels)
    assert (pool.n, test.n) == (16_000, 4_000)
    assert kept == 20_000 * 9 * 8
    assert peak <= 1.3 * kept
