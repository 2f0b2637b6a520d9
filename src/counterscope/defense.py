"""Countermeasures: trace-level noise injection and profiler-access detection.

Noise injection models the defender's dummy work at the level the attacker
sees (the counter traces): a Gaussian strategy widens every metric's noise
floor by a multiple of its simulator sigma, while a dummy-render strategy
superimposes the load response of Poisson-arriving throwaway objects.
STRATEGIES declares both by name, with the parameters that the CLI reads
and that each constructor checks its fields through.

Access detection gates on regularity: a log is flagged when it has enough
events, the inter-arrival coefficient of variation is small, and the median
period sits near the profiler's 1-second tick. Shifting all timestamps by a
constant changes nothing. DETECTION declares the detector's options.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schema
from .catalog import MetricCatalog
from .errors import DataError, SchemaError
from .features import (  # build_stat_features, fit_normalizer: unused, for perfbench/spans.py
    Fingerprinter,
    build_stat_features,
    fit_normalizer,
)
from .models.evaluation import evaluate, stratified_split
from .schema import Param
from .seeding import derive_seed
from .simulator import COVERAGE_KAPPA, MetricResponse, ResponseModel
from .traces import LabeledCorpus, TraceSet

CURVE_TRAIN_FRACTION = 0.8  # share of each label's items the curve's model trains on


@dataclass(frozen=True)
class AccessLog:
    """Non-decreasing timestamps (seconds) of observed profiler reads."""

    timestamps: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.timestamps)
        if not all(0 <= t < np.inf for t in ts):
            raise DataError("timestamps must be finite and nonnegative")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise DataError("timestamps must be non-decreasing")
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return len(self.timestamps)


def read_access_log(path) -> AccessLog:
    """One decimal-seconds timestamp per line."""
    stamps = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh, schema.located(path):
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    stamps.append(float(line))
                except ValueError:
                    raise DataError(f"line {lineno}: {line.strip()!r} is not a number") from None
        return AccessLog(tuple(stamps))


@dataclass(frozen=True)
class DetectionVerdict:
    flagged: bool
    estimated_period_s: float | None
    cv: float
    n_events: int

    def to_dict(self) -> dict:
        return {
            "flagged": self.flagged,
            "estimated_period_s": self.estimated_period_s,
            "cv": self.cv,
            "n_events": self.n_events,
        }


# detect_profiler_access's options, as its keywords and the CLI's flags take them
DETECTION = (_EVENTS, _CV, _PERIOD, _TOLERANCE) = (
    Param("min_events", int, 20, 1, help="fewest reads flagged"),
    Param("cv_threshold", float, 0.1, 0, help="gap variation flagged below"),
    Param("expected_period", float, 1.0, 0, arg="expected_period_s",
          help="profiler tick seconds"),
    Param("period_tolerance", float, 0.25, 0, help="tick tolerance"))


def detect_profiler_access(log: AccessLog, min_events: int = _EVENTS.default,
                           cv_threshold: float = _CV.default,
                           expected_period_s: float = _PERIOD.default,
                           period_tolerance: float = _TOLERANCE.default) -> DetectionVerdict:
    """Flag a log iff it is long, regular, and near the expected period."""
    for p, value in zip(DETECTION, (min_events, cv_threshold, expected_period_s,
                                    period_tolerance)):
        p.read(value)
    n = len(log)
    if n < 2:
        return DetectionVerdict(False, None, float("inf"), n)
    gaps = np.diff(np.asarray(log.timestamps))
    mean = float(gaps.mean())
    cv = float(gaps.std() / mean) if mean > 0 else float("inf")
    median = float(np.median(gaps))
    flagged = (n >= min_events
               and cv < cv_threshold
               and abs(median - expected_period_s) <= period_tolerance)
    return DetectionVerdict(flagged, median if flagged else None, cv, n)


@dataclass(frozen=True)
class GaussianNoise:
    """Adds N(0, sigma * sigma_i) per metric i; sigma 0 is the identity."""

    sigma: float
    seed: int = 0

    @property
    def level(self) -> float:
        return self.sigma

    def __post_init__(self):
        for p in STRATEGIES["gaussian"][1]:
            p.read(getattr(self, p.keyword))


@dataclass(frozen=True)
class DummyRender:
    """Superimposes the load response of Poisson-arriving static objects."""

    rate_per_s: float
    size_s: float = 2.0
    depth_z: float = 2.0
    seed: int = 0

    @property
    def level(self) -> float:
        return self.rate_per_s

    def __post_init__(self):
        for p in STRATEGIES["dummy"][1]:
            p.read(getattr(self, p.keyword))


NoiseStrategy = GaussianNoise | DummyRender


# name: (class, the Params of its constructor, keyed by the CLI's flags)
STRATEGIES = {
    "gaussian": (GaussianNoise, (
        Param("sigma", float, 1.0, 0, help="gaussian: multiple of each metric's noise sigma"),)),
    "dummy": (DummyRender, (
        Param("rate", float, 1.0, 0, arg="rate_per_s", help="dummy: objects per second"),
        Param("size", float, DummyRender.size_s, arg="size_s", above=0,
              help="dummy: object size"),
        Param("depth", float, DummyRender.depth_z, arg="depth_z", above=0,
              help="dummy: object depth"))),
}


def inject_noise(trace: TraceSet, strategy: NoiseStrategy, catalog: MetricCatalog,
                 profile: dict[str, MetricResponse] | None = None,
                 seed: int | None = None) -> TraceSet:
    """Perturbed copy of a trace; shape (metrics, length) is preserved.

    Deterministic in the strategy seed (overridable via `seed`). Zero-level
    strategies return a bit-identical copy.
    """
    if not isinstance(strategy, (GaussianNoise, DummyRender)):
        raise SchemaError(f"unknown strategy {type(strategy).__name__}")
    model = ResponseModel(trace.metrics, catalog, profile)
    rng_seed = strategy.seed if seed is None else seed
    matrix = trace.matrix.copy()
    if isinstance(strategy, GaussianNoise):
        if strategy.sigma > 0:
            rng = np.random.default_rng(rng_seed)
            noise = rng.standard_normal(matrix.shape)
            matrix += strategy.sigma * model.sigma * noise
    elif strategy.rate_per_s > 0:
        rng = np.random.default_rng(rng_seed)
        arrivals = rng.poisson(strategy.rate_per_s, matrix.shape[0])
        extra_load = np.clip(
            arrivals * COVERAGE_KAPPA * (strategy.size_s / strategy.depth_z) ** 2,
            0.0, 1.0)
        known = model.sign != 0  # metrics outside the catalog stay untouched
        matrix[:, known] += (model.sign * model.g)[known] * extra_load[:, None]
    return TraceSet(list(trace.metrics), matrix, trace.t0, dict(trace.meta))


@dataclass(frozen=True)
class CurvePoint:
    level: float
    accuracy: float
    macro_f1: float


@dataclass(frozen=True)
class DegradationCurve:
    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        levels = [p.level for p in self.points]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DataError("noise levels must be strictly increasing")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("level,accuracy,macro_f1\n")
            for p in self.points:
                fh.write(f"{p.level!r},{p.accuracy!r},{p.macro_f1!r}\n")


def evaluate_countermeasure(corpus: LabeledCorpus, trainer,
                            levels: list[NoiseStrategy], seed: int = 0,
                            catalog: MetricCatalog | None = None,
                            profile: dict[str, MetricResponse] | None = None):
    """Accuracy/macro-F1 of a fixed clean-trained model against perturbed tests.

    The train split stays clean; only test traces are perturbed, one curve
    point per strategy. Returns (DegradationCurve, clean EvaluationReport).
    """
    if not levels:
        raise DataError("need at least one noise level")
    from .catalog import builtin_catalog

    catalog = catalog if catalog is not None else builtin_catalog()
    train_idx, test_idx = stratified_split(corpus.labels(), CURVE_TRAIN_FRACTION, seed)
    train = corpus.subset(train_idx)
    test = corpus.subset(test_idx)
    fp = Fingerprinter.fit(train, trainer, corpus.metrics, "stat4")
    clean_report = evaluate(fp, test, test.labels())

    points = []
    for strategy in levels:
        perturbed_items = []
        for i, item in enumerate(test):
            noisy = inject_noise(item.trace, strategy, catalog, profile,
                                 seed=derive_seed(strategy.seed, i))
            perturbed_items.append(type(item)(noisy, item.label, item.group))
        report = evaluate(fp, LabeledCorpus(perturbed_items), test.labels())
        points.append(CurvePoint(float(strategy.level), report.accuracy, report.macro_f1))
    return DegradationCurve(tuple(points)), clean_report
