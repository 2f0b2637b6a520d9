"""Metric selection: accuracy screening and pairwise correlation pruning.

Pruning walks metric pairs (i, j), i < j in catalog order, over the
concatenated raw reference series and drops the second metric of every pair
whose |r| exceeds the threshold while both are still retained. Greedy
drop-second needs no transitive re-check: a drop only removes candidates.
Screening rates each metric alone by training a classifier on its stat
features and keeping the ones that beat an accuracy floor.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from .errors import DataError, DegenerateInputError, UnknownMetricError
from .features import LAYOUT_STAT4, Fingerprinter
from .schema import Param
from .stats import pearson
from .traces import LabeledCorpus

# the thresholds of correlation_prune and accuracy_screen, as prune's and screen's flags
PRUNE_THRESHOLD = Param("threshold", float, 0.90, above=0, maximum=1,
                        help="|r| redundancy threshold")
SCREEN_THRESHOLD = Param("threshold_acc", float, 0.60, above=0, maximum=1,
                         help="accuracy floor")
SCREEN_TRAIN_FRACTION = 0.8  # share of each label's items the screen trains on
PROFILER_METRIC_CAP = 30  # concurrent real-time counters the profiler tolerates


@dataclass(frozen=True)
class DroppedPair:
    kept: str
    dropped: str
    r: float


@dataclass(frozen=True)
class PruneReport:
    retained: tuple[str, ...]
    dropped: tuple[DroppedPair, ...]

    def to_dict(self) -> dict:
        return {
            "retained": list(self.retained),
            "dropped": [{"kept": d.kept, "dropped": d.dropped, "r": d.r}
                        for d in self.dropped],
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def correlation_prune(reference: LabeledCorpus, catalog_order: list[str],
                      threshold: float = PRUNE_THRESHOLD.default) -> PruneReport:
    """Drop the second metric of every |r| > threshold pair, catalog order.

    Correlations are computed on each metric's columns concatenated across
    all reference items, un-normalized.
    """
    PRUNE_THRESHOLD.read(threshold)
    if len(reference) == 0:
        raise DataError("empty reference corpus")
    corpus_metrics = set(reference.metrics)
    unknown = corpus_metrics.difference(catalog_order)
    if unknown:
        raise UnknownMetricError(f"corpus metrics not in catalog order: {sorted(unknown)}")
    ordered = [m for m in catalog_order if m in corpus_metrics]

    series = {m: reference.concat_metric(m) for m in ordered}
    retained = list(ordered)
    alive = {m: True for m in ordered}
    dropped: list[DroppedPair] = []
    for a in range(len(ordered)):
        mi = ordered[a]
        if not alive[mi]:
            continue
        for b in range(a + 1, len(ordered)):
            mj = ordered[b]
            if not alive[mj]:
                continue
            r = pearson(series[mi], series[mj])
            if abs(r) > threshold:
                alive[mj] = False
                dropped.append(DroppedPair(mi, mj, r))
    retained = [m for m in ordered if alive[m]]
    return PruneReport(tuple(retained), tuple(dropped))


def accuracy_screen(corpus: LabeledCorpus, trainer,
                    threshold_acc: float = SCREEN_THRESHOLD.default,
                    split_seed: int = 0) -> list[tuple[str, float]]:
    """Score each metric alone and keep those with accuracy > threshold_acc.

    trainer is a classifier factory: trainer(features, labels) -> model with
    a predict(features) method. Results are sorted by accuracy descending,
    ties broken by the corpus metric order (catalog order).
    """
    from .models.evaluation import evaluate, split_corpus

    SCREEN_THRESHOLD.read(threshold_acc)
    if len(set(corpus.labels())) < 2:
        raise DegenerateInputError("screening needs >= 2 labels")
    order = {m: i for i, m in enumerate(corpus.metrics)}

    train, test = split_corpus(corpus, SCREEN_TRAIN_FRACTION, split_seed)

    passing: list[tuple[str, float]] = []
    for m in corpus.metrics:
        fp = Fingerprinter.fit(train, trainer, [m], LAYOUT_STAT4)
        report = evaluate(fp, test, test.labels())
        if report.accuracy > threshold_acc:
            passing.append((m, report.accuracy))
    passing.sort(key=lambda pair: (-pair[1], order[pair[0]]))
    return passing


def enforce_cap(ids: list[str], cap: int = PROFILER_METRIC_CAP) -> list[str]:
    """First `cap` ids in the given order; warns when the list is truncated."""
    ids = list(ids)
    if len(ids) > cap:
        warnings.warn(
            f"metric list truncated from {len(ids)} to the profiler cap of {cap}",
            UserWarning, stacklevel=2)
        return ids[:cap]
    return ids
