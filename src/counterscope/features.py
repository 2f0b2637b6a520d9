"""Fingerprint construction: normalization, stat vectors, padded sequences.

Normalization stats are fit on training data only and then applied to
whatever gets classified, so test traces never leak into the baseline
estimate. Stat layouts summarize each normalized metric with (mean, std,
max, min) or (mean, std); the sequence layout keeps the whole normalized
series, tail-padded to the longest item (pad value 0, i.e. the training
mean in normalized space) and flattened time-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schema
from .errors import DataError, UnknownMetricError
from .traces import LabeledCorpus, TraceSet

LAYOUT_STAT4 = "stat4"
LAYOUT_STAT2 = "stat2"
LAYOUT_SEQUENCE = "sequence"
LAYOUTS = (LAYOUT_STAT4, LAYOUT_STAT2, LAYOUT_SEQUENCE)

_STAT_SUFFIXES = {
    LAYOUT_STAT4: ("mean", "std", "max", "min"),
    LAYOUT_STAT2: ("mean", "std"),
}


@dataclass(frozen=True)
class NormalizationStats:
    """Per-metric (mu, sigma) fitted on a training corpus."""

    stats: dict[str, tuple[float, float]]

    def __post_init__(self):
        for mid, (_, sigma) in self.stats.items():
            if sigma < 0:
                raise DataError(f"{mid}: sigma must be >= 0")

    def metrics(self) -> list[str]:
        return list(self.stats.keys())

    def apply(self, metric: str, values: np.ndarray) -> np.ndarray:
        """Z-score values with the stored stats; constant metrics map to 0."""
        try:
            mu, sigma = self.stats[metric]
        except KeyError:
            raise UnknownMetricError(metric) from None
        values = np.asarray(values, dtype=float)
        if sigma == 0.0:
            return np.zeros_like(values)
        return (values - mu) / sigma

    def to_dict(self) -> dict:
        return {m: [mu, sigma] for m, (mu, sigma) in self.stats.items()}

    @classmethod
    def from_dict(cls, obj: dict, metrics=()) -> "NormalizationStats":
        """Stats from their `to_dict()` form, a model file's 'normalizer'.
        SchemaError names a malformed entry, or one of `metrics` it lacks."""
        stats = {}
        for m in [*schema.read(obj, dict, "field 'normalizer'"), *metrics]:
            mu, sigma = schema.get(obj, m, float, at="normalizer.", shape=(2,)).tolist()
            stats[m] = (mu, schema.read(sigma, float, f"field 'normalizer.{m}'", minimum=0))
        return cls(stats)


@dataclass
class FeatureMatrix:
    """Model-ready matrix: one row per corpus item, deterministic col names."""

    values: np.ndarray
    col_names: list[str]
    layout: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("feature values must be 2-D")
        if self.values.shape[1] != len(self.col_names):
            raise DataError("column names do not match feature width")


def _check_metrics(corpus_metrics: list[str], requested: list[str]) -> None:
    missing = [m for m in requested if m not in corpus_metrics]
    if missing:
        raise UnknownMetricError(f"metrics not in corpus: {missing}")
    if len(set(requested)) != len(requested):
        raise DataError("requested metric list contains duplicates")


def fit_normalizer(train: LabeledCorpus, metrics: list[str]) -> NormalizationStats:
    """Population (mu, sigma) per metric over all training samples concatenated."""
    if len(train) == 0:
        raise DataError("empty training corpus")
    _check_metrics(train.metrics, metrics)
    stats = {}
    for m in metrics:
        series = train.concat_metric(m)
        stats[m] = (float(series.mean()), float(series.std()))
    return NormalizationStats(stats)


def build_stat_features(corpus: LabeledCorpus, metrics: list[str],
                        norm: NormalizationStats,
                        layout: str = LAYOUT_STAT4) -> FeatureMatrix:
    """Per-item statistical fingerprints, rows in corpus order."""
    if layout not in _STAT_SUFFIXES:
        raise DataError(f"layout must be stat4|stat2, got {layout!r}")
    _check_metrics(corpus.metrics, metrics)
    suffixes = _STAT_SUFFIXES[layout]
    col_names = [f"{m}_{s}" for m in metrics for s in suffixes]
    rows = np.empty((len(corpus), len(metrics), len(suffixes)))
    for i, item in enumerate(corpus):
        # one contiguous row per metric: reducing along it sums each series
        # pairwise, as the 1-D series would, so the moments are bit-equal
        block = np.empty((len(metrics), item.trace.n_seconds))
        for j, m in enumerate(metrics):
            block[j] = norm.apply(m, item.trace.values(m))
        moments = (block.mean(axis=1), block.std(axis=1), block.max(axis=1), block.min(axis=1))
        rows[i] = np.stack(moments[:len(suffixes)], axis=1)
    return FeatureMatrix(rows.reshape(len(corpus), len(col_names)), col_names, layout)


def build_sequences(corpus: LabeledCorpus, metrics: list[str],
                    norm: NormalizationStats,
                    pad_value: float = 0.0) -> FeatureMatrix:
    """Whole normalized series per item, tail-padded to the longest and
    flattened time-major (row t holds all metrics at second t)."""
    _check_metrics(corpus.metrics, metrics)
    if len(corpus) == 0:
        return FeatureMatrix(np.empty((0, 0)), [], LAYOUT_SEQUENCE)
    n_max = max(item.trace.n_seconds for item in corpus)
    k = len(metrics)
    col_names = [f"t{t:04d}_{m}" for t in range(n_max) for m in metrics]
    rows = np.full((len(corpus), n_max * k), float(pad_value))
    for i, item in enumerate(corpus):
        block = np.column_stack([norm.apply(m, item.trace.values(m)) for m in metrics])
        rows[i, : block.size] = block.reshape(-1)
    return FeatureMatrix(rows, col_names, LAYOUT_SEQUENCE)


def extract_window(trace: TraceSet, t_start: int, length: int = 10) -> TraceSet:
    """Contiguous sub-trace of `length` seconds starting at sample t_start.

    t_start is an offset into the trace (0 = first sample); the window keeps
    absolute time by shifting t0. Meta is inherited plus a window annotation.
    """
    if length < 1:
        raise DataError(f"window length must be >= 1, got {length}")
    if t_start < 0 or t_start + length > trace.n_seconds:
        raise DataError(
            f"window [{t_start}, {t_start + length}) out of range for "
            f"{trace.n_seconds}-second trace")
    meta = dict(trace.meta)
    meta["window"] = f"{t_start}+{length}"
    return TraceSet(list(trace.metrics),
                    trace.matrix[t_start:t_start + length].copy(),
                    trace.t0 + t_start, meta)
