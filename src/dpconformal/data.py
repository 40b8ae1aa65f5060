"""Synthetic data generators, CSV ingestion, and feature standardization.

Both generators draw from a single seeded stream in a fixed per-record
order, so the first m rows of an n-row draw equal an m-row draw with the
same seed. The experiment harness leans on this to pair sample-size grid
cells through common random numbers.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .models import CLASSIFICATION, REGRESSION, Dataset

__all__ = ["CsvParseError", "StandardizationStats", "apply_standardizer",
           "fit_standardizer", "gen_logistic", "gen_multiclass", "load_csv"]


def _warn(msg: str, *args) -> None:
    """Log a warning to the ``dpconformal.data`` logger. Only a dropped row
    or a degenerate column warns, so a clean run never loads ``logging``."""
    import logging
    logging.getLogger(__name__).warning(msg, *args)


class CsvParseError(ValueError):
    """A CSV cell could not be parsed; carries the 1-based row/column."""


def default_logistic_signal(d: int) -> np.ndarray:
    """Alternating-sign, decaying coefficients (-1)^j / (j + 1)."""
    j = np.arange(d)
    return (-1.0) ** j / (j + 1.0)


def _record_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    # Two independent single-block streams keep draws prefix-stable in n.
    meta_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    return (np.random.Generator(np.random.PCG64(meta_ss)),
            np.random.Generator(np.random.PCG64(noise_ss)))


def gen_logistic(
    n: int, d: int, seed: int, theta_star: np.ndarray | None = None
) -> tuple[Dataset, np.ndarray]:
    """Standard-normal features with Bernoulli labels through a logistic link.

    Returns the dataset and the signal vector used, for error tracking.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    theta = default_logistic_signal(d) if theta_star is None else np.asarray(
        theta_star, dtype=float)
    if theta.shape != (d,):
        raise ValueError("theta_star must have length d")
    meta_rng, noise_rng = _record_streams(seed)
    x = noise_rng.standard_normal((n, d))
    probs = 1.0 / (1.0 + np.exp(-(x @ theta)))
    labels = (meta_rng.random(n) < probs).astype(int)
    return Dataset(x, labels, CLASSIFICATION, n_classes=2), theta


# Rows of centroids gathered at once by gen_multiclass, and rows whose
# squared deviations fit_standardizer sums at once.
_GEN_BLOCK_ROWS = 2048


def gen_multiclass(
    n: int, d: int, k: int, class_sep: float, flip_y: float, seed: int
) -> Dataset:
    """Gaussian clusters around K distinct hypercube corners scaled by
    class_sep; labels are uniform and flipped to a uniform class with
    probability flip_y."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    if not (0.0 <= class_sep < math.inf and 0.0 <= flip_y <= 1.0):
        raise ValueError("invalid class_sep or flip_y")
    if k > 2**d:
        raise ValueError(f"cannot place {k} distinct corners in {{-1,1}}^{d}")
    meta_rng, noise_rng = _record_streams(seed)
    corners: list[tuple[float, ...]] = []
    seen: set[tuple[float, ...]] = set()
    while len(corners) < k:
        c = tuple(meta_rng.choice([-1.0, 1.0], size=d).tolist())
        if c not in seen:
            seen.add(c)
            corners.append(c)
    centroids = np.asarray(corners) * class_sep
    # One (n, 3) block: cluster assignment, flip coin, flip target.
    u = meta_rng.random((n, 3))
    clusters = (u[:, 0] * k).astype(int)
    flip_mask = u[:, 1] < flip_y
    flip_targets = (u[:, 2] * k).astype(int)
    # The centroids are added into the noise matrix a row block at a time;
    # the sum commutes, so x holds centroids[clusters] + noise bit for bit
    # without a second (n, d) array.
    x = noise_rng.standard_normal((n, d))
    for start in range(0, n, _GEN_BLOCK_ROWS):
        block = slice(start, start + _GEN_BLOCK_ROWS)
        x[block] += centroids[clusters[block]]
    labels = np.where(flip_mask, flip_targets, clusters)
    return Dataset(x, labels, CLASSIFICATION, n_classes=k)


def load_csv(path, label_column: int, task: str,
             has_header: bool = True) -> Dataset:
    """Read a numeric CSV into a Dataset.

    Rows containing missing or non-finite values are dropped (the count is
    logged); a cell that fails to parse at all raises CsvParseError with its
    location.
    """
    table = _read_table(path, has_header)
    width = table.shape[1]
    if not 0 <= label_column < width:
        raise ValueError(f"label_column {label_column} outside 0..{width - 1}")
    # A copy, so the labels do not keep the whole parsed table alive.
    labels = table[:, label_column].copy()
    features = np.delete(table, label_column, axis=1)
    if task == CLASSIFICATION:
        rounded = np.round(labels)
        # An absolute tolerance: a relative one grows with the label and
        # would take 50000.4 for class 50000.
        if np.any(np.abs(labels - rounded) > 1e-6):
            raise ValueError(f"{path}: classification labels must be integers")
        labels = rounded.astype(int)
        if labels.min() < 0:
            raise ValueError(f"{path}: class labels must be nonnegative")
        return Dataset(features, labels, CLASSIFICATION,
                       n_classes=int(labels.max()) + 1)
    # Dataset refuses a task that is neither.
    return Dataset(features, labels, task)


def _read_table(path, has_header: bool) -> np.ndarray:
    """The CSV's rows whose cells are all finite, as one float array.

    numpy's C reader parses the file. It rejects an empty or non-numeric
    cell and a ragged row, and it warns on a file without data rows; those
    files go to the row loop ``_row_loop_table``, which drops the incomplete
    rows and locates a malformed cell. Both round every cell correctly, so
    either gives the same table.
    """
    try:
        with open(path, newline="") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            if has_header:
                # The header is one CSV record, which spans lines when a
                # quoted name holds a newline; skiprows would count lines.
                next(csv.reader(fh), None)
            table = np.loadtxt(fh, dtype=float, delimiter=",", comments=None,
                               quotechar='"', ndmin=2)
    except (ValueError, Warning):
        return _row_loop_table(path, has_header)
    finite = np.isfinite(table).all(axis=1)
    # Only a file that drops a row pays for the copy.
    kept = table if finite.all() else table[finite]
    _check_kept(path, len(kept), len(table) - len(kept))
    return kept


def _row_loop_table(path, has_header: bool) -> np.ndarray:
    """``_read_table`` one cell at a time with ``csv`` and ``float``."""
    rows: list[list[float]] = []
    dropped = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, raw in enumerate(reader):
            if has_header and i == 0:
                continue
            if not raw:
                continue
            parsed = []
            finite = True
            for j, cell in enumerate(raw):
                cell = cell.strip()
                if cell == "":
                    finite = False
                    parsed.append(math.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: non-numeric value {cell!r} at row {i + 1}, "
                        f"column {j + 1}"
                    ) from None
                if not math.isfinite(value):
                    finite = False
                parsed.append(value)
            if not finite:
                dropped += 1
                continue
            rows.append(parsed)
    _check_kept(path, len(rows), dropped)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise CsvParseError(f"{path}: inconsistent column counts")
    return np.asarray(rows, dtype=float)


def _check_kept(path, kept: int, dropped: int) -> None:
    if dropped:
        _warn("%s: dropped %d rows with missing/non-finite values", path,
              dropped)
    if not kept:
        raise ValueError(f"{path}: no usable data rows")


@dataclass(frozen=True)
class StandardizationStats:
    """Column means/sds from a training split; degenerate columns keep unit
    scale and are flagged by index."""

    feature_mean: np.ndarray
    feature_sd: np.ndarray
    target_mean: float = 0.0
    target_sd: float = 1.0
    degenerate_features: tuple[int, ...] = ()


_DEGENERATE_SD = 1e-12


def _column_sd(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``x.std(axis=0)``, bit for bit, given ``mean = x.mean(axis=0)``,
    without its (n, d) deviations array when ``x`` is C-ordered with d > 1.

    numpy sums axis 0 of such a matrix row by row, so the squared deviations
    are summed a block of ``_GEN_BLOCK_ROWS`` rows at a time, the running sum
    entering each block as its first row. One column, or another layout,
    makes numpy reduce pairwise, so ``x.std`` itself takes those."""
    n, d = x.shape
    if d == 1 or not x.flags.c_contiguous:
        return x.std(axis=0)
    buf = np.empty((min(n, _GEN_BLOCK_ROWS) + 1, d))
    total = None
    for start in range(0, n, _GEN_BLOCK_ROWS):
        rows = x[start:start + _GEN_BLOCK_ROWS]
        dev = np.subtract(rows, mean, out=buf[1:len(rows) + 1])
        np.multiply(dev, dev, out=dev)
        if total is None:
            total = np.add.reduce(dev, axis=0)
        else:
            buf[0] = total
            total = np.add.reduce(buf[:len(rows) + 1], axis=0)
    total /= n
    return np.sqrt(total, out=total)


def fit_standardizer(train: Dataset) -> StandardizationStats:
    x = train.features
    mean = x.mean(axis=0)
    sd = _column_sd(x, mean)
    degenerate = tuple(int(i) for i in np.flatnonzero(sd < _DEGENERATE_SD))
    if degenerate:
        _warn("degenerate feature columns left at unit scale: %s", degenerate)
        sd = sd.copy()
        sd[list(degenerate)] = 1.0
    if train.task == REGRESSION:
        t_mean = float(train.labels.mean())
        t_sd = float(train.labels.std())
        if t_sd < _DEGENERATE_SD:
            _warn("degenerate target left at unit scale")
            t_sd = 1.0
    else:
        t_mean, t_sd = 0.0, 1.0
    return StandardizationStats(mean, sd, t_mean, t_sd, degenerate)


def apply_standardizer(stats: StandardizationStats, data: Dataset, *,
                       out: Dataset | None = None) -> Dataset:
    """Transform features (and the target, for regression) with train stats.

    Returns new arrays and never writes into ``data``, unless ``out`` is
    given: a dataset of the same shape and task, ``data`` itself included,
    whose arrays then receive the result, and which is returned. Each
    result is divided in the array its subtraction writes, so the bits do
    not depend on ``out``.
    """
    x = np.subtract(data.features, stats.feature_mean,
                    out=None if out is None else out.features)
    x /= stats.feature_sd
    if data.task == REGRESSION:
        y = np.subtract(data.labels, stats.target_mean,
                        out=None if out is None else out.labels)
        y /= stats.target_sd
    elif out is None:
        y = data.labels
    else:
        np.copyto(out.labels, data.labels)
    return Dataset(x, y, data.task, data.n_classes) if out is None else out
