"""Synthetic data generators, CSV ingestion, and feature standardization.

Both generators draw from a single seeded stream in a fixed per-record
order, so the first m rows of an n-row draw equal an m-row draw with the
same seed. The experiment harness leans on this to pair sample-size grid
cells through common random numbers.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .models import CLASSIFICATION, REGRESSION, Dataset

__all__ = ["CsvParseError", "StandardizationStats", "apply_standardizer",
           "fit_standardizer", "gen_logistic", "gen_multiclass", "load_csv"]

logger = logging.getLogger(__name__)


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
    if class_sep < 0.0 or not 0.0 <= flip_y <= 1.0:
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
    x = centroids[clusters] + noise_rng.standard_normal((n, d))
    labels = np.where(flip_mask, flip_targets, clusters)
    return Dataset(x, labels, CLASSIFICATION, n_classes=k)


def load_csv(path, label_column: int, task: str,
             has_header: bool = True) -> Dataset:
    """Read a numeric CSV into a Dataset.

    Rows containing missing or non-finite values are dropped (the count is
    logged); a cell that fails to parse at all raises CsvParseError with its
    location.
    """
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
    if dropped:
        logger.warning("%s: dropped %d rows with missing/non-finite values",
                       path, dropped)
    if not rows:
        raise ValueError(f"{path}: no usable data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise CsvParseError(f"{path}: inconsistent column counts")
    if not 0 <= label_column < width:
        raise ValueError(f"label_column {label_column} outside 0..{width - 1}")
    table = np.asarray(rows, dtype=float)
    labels = table[:, label_column]
    features = np.delete(table, label_column, axis=1)
    if task == CLASSIFICATION:
        rounded = np.round(labels)
        if not np.allclose(labels, rounded):
            raise ValueError(f"{path}: classification labels must be integers")
        labels = rounded.astype(int)
        if labels.min() < 0:
            raise ValueError(f"{path}: class labels must be nonnegative")
        return Dataset(features, labels, CLASSIFICATION,
                       n_classes=int(labels.max()) + 1)
    return Dataset(features, labels, REGRESSION)


@dataclass(frozen=True)
class StandardizationStats:
    """Column means/sds from a training split; degenerate columns keep unit
    scale and are flagged by index."""

    feature_mean: np.ndarray
    feature_sd: np.ndarray
    target_mean: float = 0.0
    target_sd: float = 1.0
    degenerate_features: tuple[int, ...] = ()

    @property
    def target_scale(self) -> float:
        return self.target_sd


_DEGENERATE_SD = 1e-12


def fit_standardizer(train: Dataset) -> StandardizationStats:
    x = train.features
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    degenerate = tuple(int(i) for i in np.flatnonzero(sd < _DEGENERATE_SD))
    if degenerate:
        logger.warning("degenerate feature columns left at unit scale: %s",
                       degenerate)
        sd = sd.copy()
        sd[list(degenerate)] = 1.0
    if train.task == REGRESSION:
        t_mean = float(train.labels.mean())
        t_sd = float(train.labels.std())
        if t_sd < _DEGENERATE_SD:
            logger.warning("degenerate target left at unit scale")
            t_sd = 1.0
    else:
        t_mean, t_sd = 0.0, 1.0
    return StandardizationStats(mean, sd, t_mean, t_sd, degenerate)


def apply_standardizer(stats: StandardizationStats, data: Dataset) -> Dataset:
    """Transform features (and the target, for regression) with train stats."""
    x = (data.features - stats.feature_mean) / stats.feature_sd
    if data.task == REGRESSION:
        y = (data.labels - stats.target_mean) / stats.target_sd
    else:
        y = data.labels
    return Dataset(x, y, data.task, data.n_classes)
