"""Fingerprint construction: normalization, stat vectors, padded sequences,
and the Fingerprinter that fits them with a classifier as one pipeline.

Normalization stats are fit on training data only and then applied to
whatever gets classified, so test traces never leak into the baseline
estimate; a Fingerprinter fitted per fold keeps that true under
cross-validation. Stat layouts summarize each normalized metric with (mean,
std, max, min) or (mean, std); the sequence layout keeps the whole
normalized series, tail-padded to the longest training item (pad value 0,
i.e. the training mean in normalized space) and flattened time-major.
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

    def zscore(self, corpus: LabeledCorpus, metrics: list[str]):
        """Each item's series of `metrics` z-scored with the stored stats, as
        one contiguous (metrics, seconds) block per item in corpus order; a
        constant metric (sigma 0) maps to +0.0."""
        try:
            mu, sigma = np.array([self.stats[m] for m in metrics]).reshape(-1, 2).T
        except KeyError as exc:
            raise UnknownMetricError(exc.args[0]) from None
        constant = sigma == 0.0
        scale = np.where(constant, 1.0, sigma)[:, None]
        cols = [corpus.metrics.index(m) for m in metrics]
        for item in corpus:
            block = np.subtract(item.trace.matrix[:, cols].T, mu[:, None], order="C")
            block /= scale
            block[constant] = 0.0
            yield block

    def to_dict(self) -> dict:
        return {m: [mu, sigma] for m, (mu, sigma) in self.stats.items()}

    @classmethod
    def from_dict(cls, obj: dict, metrics=()) -> "NormalizationStats":
        """Stats from their `to_dict()` form, a model file's 'normalizer'.
        SchemaError names a malformed entry, or one of `metrics` it lacks."""
        stats = {}
        for m in [*schema.read(obj, dict, "field 'normalizer'"), *metrics]:
            mu, sigma = schema.Param(m, float).get(obj, at="normalizer.", shape=(2,)).tolist()
            stats[m] = (mu, schema.read(sigma, float, f"field 'normalizer.{m}'", minimum=0))
        return cls(stats)


@dataclass
class FeatureMatrix:
    """Model-ready matrix: one row per corpus item, deterministic col names."""

    values: np.ndarray
    col_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("feature values must be 2-D")
        if self.values.shape[1] != len(self.col_names):
            raise DataError("column names do not match feature width")


def check_metrics(corpus_metrics: list[str], requested: list[str]) -> None:
    missing = [m for m in requested if m not in corpus_metrics]
    if missing:
        raise UnknownMetricError(f"metrics not in corpus: {missing}")
    if len(set(requested)) != len(requested):
        raise DataError("requested metric list contains duplicates")


def fit_normalizer(train: LabeledCorpus, metrics: list[str]) -> NormalizationStats:
    """Population (mu, sigma) per metric over all training samples concatenated."""
    if len(train) == 0:
        raise DataError("empty training corpus")
    check_metrics(train.metrics, metrics)
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
    check_metrics(corpus.metrics, metrics)
    suffixes = _STAT_SUFFIXES[layout]
    col_names = [f"{m}_{s}" for m in metrics for s in suffixes]
    rows = np.empty((len(corpus), len(metrics), len(suffixes)))
    for i, block in enumerate(norm.zscore(corpus, metrics)):
        # reducing along each contiguous row sums the series pairwise, as the
        # 1-D series would, so the moments are bit-equal
        moments = (block.mean(axis=1), block.std(axis=1), block.max(axis=1), block.min(axis=1))
        rows[i] = np.stack(moments[:len(suffixes)], axis=1)
    return FeatureMatrix(rows.reshape(len(corpus), len(col_names)), col_names)


def build_sequences(corpus: LabeledCorpus, metrics: list[str],
                    norm: NormalizationStats, length: int) -> FeatureMatrix:
    """Whole normalized series per item, tail-padded with 0 to `length`
    seconds and flattened time-major (row t holds all metrics at second t).
    An item longer than `length` raises DataError naming its source."""
    check_metrics(corpus.metrics, metrics)
    col_names = [f"t{t:04d}_{m}" for t in range(length) for m in metrics]
    rows = np.zeros((len(corpus), length * len(metrics)))
    for i, (item, block) in enumerate(zip(corpus, norm.zscore(corpus, metrics))):
        if item.trace.n_seconds > length:
            raise DataError(f"{item.trace.meta.get('source', f'item {i}')}: "
                            f"{item.trace.n_seconds} seconds, longer than the "
                            f"{length} the sequences were fitted to")
        rows[i, : block.size] = block.T.reshape(-1)
    return FeatureMatrix(rows, col_names)


@dataclass
class Fingerprinter:
    """The fitted attack pipeline: `metrics` z-scored with `normalizer`, laid
    out as `layout` features and classified by `model`. fit() sees only its
    training corpus; predict(corpus) and classes let models.evaluate score
    it on a corpus."""

    metrics: list[str]
    layout: str
    normalizer: NormalizationStats
    model: object

    @classmethod
    def fit(cls, corpus: LabeledCorpus, trainer, metrics: list[str],
            layout: str) -> "Fingerprinter":
        """trainer(features, labels) -> a model with classes, n_features and
        predict(features). Sequences are padded to the longest item."""
        fp = cls(metrics, layout, fit_normalizer(corpus, metrics), None)
        longest = max(item.trace.n_seconds for item in corpus)
        fp.model = trainer(fp._features(corpus, longest), corpus.labels())
        return fp

    def features(self, corpus: LabeledCorpus) -> FeatureMatrix:
        """The model's features of `corpus`; sequences are padded to the
        length the model was fitted on (a model file may list no metrics)."""
        return self._features(corpus, self.model.n_features // max(1, len(self.metrics)))

    def _features(self, corpus: LabeledCorpus, length: int) -> FeatureMatrix:
        if self.layout == LAYOUT_SEQUENCE:
            return build_sequences(corpus, self.metrics, self.normalizer, length)
        return build_stat_features(corpus, self.metrics, self.normalizer, self.layout)

    @property
    def classes(self) -> list[str]:
        return self.model.classes

    def predict(self, corpus: LabeledCorpus) -> list[str]:
        return self.model.predict(self.features(corpus))


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
