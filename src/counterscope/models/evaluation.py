"""Splits, cross-validation, grid search and score reporting.

The protocols take a corpus and fit(train corpus) -> a predictor with
predict(corpus), such as features.Fingerprinter.fit, and call it once per
fold on that fold's training items alone.

Every scalar in an EvaluationReport is derived from its confusion matrix
(rows = true, cols = predicted), so reports can always be recomputed and
checked. Macro averages weight classes equally; empty ratios (0/0) are 0.
Cross-validation reports pool the per-fold confusions and additionally
carry the mean +/- population std of the per-fold accuracies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateInputError, UnknownLabelError
from ..schema import Param

FOLDS = Param("k", int, 5, 2, help="folds")  # kfold_cv's k, as the cv and grid flag --k


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


@dataclass(frozen=True)
class ClassMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvaluationReport:
    labels: list[str]
    confusion: np.ndarray
    accuracy: float
    per_class: list[ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    folds: list["EvaluationReport"] | None = None
    fold_accuracy_mean: float | None = None
    fold_accuracy_std: float | None = None

    @classmethod
    def from_confusion(cls, labels: list[str], confusion: np.ndarray,
                       folds: list["EvaluationReport"] | None = None) -> "EvaluationReport":
        confusion = np.asarray(confusion, dtype=int)
        per_class = []
        for i, label in enumerate(labels):
            tp = float(confusion[i, i])
            precision = _ratio(tp, confusion[:, i].sum())
            recall = _ratio(tp, confusion[i, :].sum())
            f1 = _ratio(2.0 * precision * recall, precision + recall)
            per_class.append(ClassMetrics(label, precision, recall, f1,
                                          int(confusion[i, :].sum())))
        accuracy = _ratio(float(np.trace(confusion)), float(confusion.sum()))
        macro_p = float(np.mean([c.precision for c in per_class]))
        macro_r = float(np.mean([c.recall for c in per_class]))
        macro_f = float(np.mean([c.f1 for c in per_class]))
        fold_mean = fold_std = None
        if folds is not None:
            accs = np.array([f.accuracy for f in folds])
            fold_mean = float(accs.mean())
            fold_std = float(accs.std())
        return cls(list(labels), confusion, accuracy, per_class,
                   macro_p, macro_r, macro_f, folds, fold_mean, fold_std)

    def to_dict(self, include_folds: bool = True) -> dict:
        out = {
            "labels": list(self.labels),
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "accuracy": self.accuracy,
            "per_class": [
                {"label": c.label, "precision": c.precision, "recall": c.recall,
                 "f1": c.f1, "support": c.support}
                for c in self.per_class
            ],
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
        }
        if self.fold_accuracy_mean is not None:
            out["fold_accuracy_mean"] = self.fold_accuracy_mean
            out["fold_accuracy_std"] = self.fold_accuracy_std
        if include_folds and self.folds is not None:
            out["folds"] = [f.to_dict(include_folds=False) for f in self.folds]
        return out

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def to_csv(self, path) -> None:
        """Per-class rows plus trailing __macro__ and __accuracy__ rows."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("label,precision,recall,f1,support\n")
            for c in self.per_class:
                fh.write(f"{c.label},{c.precision!r},{c.recall!r},{c.f1!r},{c.support}\n")
            total = int(self.confusion.sum())
            fh.write(f"__macro__,{self.macro_precision!r},{self.macro_recall!r},"
                     f"{self.macro_f1!r},{total}\n")
            fh.write(f"__accuracy__,{self.accuracy!r},,,{total}\n")


def confusion_matrix(true_labels, predicted, axis_labels) -> np.ndarray:
    index = {label: i for i, label in enumerate(axis_labels)}
    c = len(axis_labels)
    out = np.zeros((c, c), dtype=int)
    for t, p in zip(true_labels, predicted):
        out[index[t], index[p]] += 1
    return out


def evaluate(model, features, labels) -> EvaluationReport:
    """Score a model on features, or a Fingerprinter on a corpus; the true
    labels must all be known to it."""
    labels = list(labels)
    known = set(model.classes)
    unknown = sorted(set(labels) - known)
    if unknown:
        raise UnknownLabelError(f"labels not in training label set: {unknown}")
    predicted = model.predict(features)
    confusion = confusion_matrix(labels, predicted, model.classes)
    return EvaluationReport.from_confusion(list(model.classes), confusion)


def _shuffled_by_label(labels, seed: int, need: int):
    """Item indices of each label, in sorted label order, each shuffled by
    one generator seeded with `seed`; every label needs `need` items."""
    rng = np.random.default_rng(seed)
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    for label in sorted(by_label):
        idx = np.array(by_label[label])
        if idx.size < need:
            raise DegenerateInputError(f"label {label!r} has {idx.size} item(s), need >= {need}")
        yield idx[rng.permutation(idx.size)]


def stratified_split(labels, train_fraction: float = 0.8, seed: int = 0):
    """Per-label proportional index split -> (train_indices, test_indices).

    Deterministic in seed; every label needs >= 2 items so both sides are
    nonempty for every label.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DegenerateInputError(f"train_fraction must be in (0, 1), got {train_fraction}")
    train_idx: list[int] = []
    test_idx: list[int] = []
    for shuffled in _shuffled_by_label(labels, seed, 2):
        n_train = int(np.floor(train_fraction * shuffled.size + 0.5))
        n_train = min(max(n_train, 1), shuffled.size - 1)
        train_idx.extend(shuffled[:n_train].tolist())
        test_idx.extend(shuffled[n_train:].tolist())
    return sorted(train_idx), sorted(test_idx)


def split_corpus(corpus, train_fraction: float = 0.8, seed: int = 0):
    """Stratified (train corpus, test corpus) pair; see stratified_split."""
    train_idx, test_idx = stratified_split(corpus.labels(), train_fraction, seed)
    return corpus.subset(train_idx), corpus.subset(test_idx)


def stratified_folds(labels, k: int, seed: int = 0) -> list[list[int]]:
    """k stratified folds of item indices, deterministic in seed."""
    folds: list[list[int]] = [[] for _ in range(k)]
    for shuffled in _shuffled_by_label(labels, seed, k):
        for pos, item in enumerate(shuffled.tolist()):
            folds[pos % k].append(item)
    return [sorted(f) for f in folds]


def _pooled_cv(corpus, fit, folds) -> EvaluationReport:
    """Each fold is tested by a predictor fitted on every other item; pooled
    confusion plus per-fold sub-reports."""
    axis = sorted(set(corpus.labels()))
    fold_reports = []
    pooled = np.zeros((len(axis), len(axis)), dtype=int)
    for test_idx in folds:
        test_set = set(test_idx)
        train = corpus.subset([i for i in range(len(corpus)) if i not in test_set])
        test = corpus.subset(test_idx)
        confusion = confusion_matrix(test.labels(), fit(train).predict(test), axis)
        pooled += confusion
        fold_reports.append(EvaluationReport.from_confusion(axis, confusion))
    return EvaluationReport.from_confusion(axis, pooled, folds=fold_reports)


def kfold_cv(corpus, fit, k: int = FOLDS.default, seed: int = 0) -> EvaluationReport:
    """Stratified k-fold CV; pooled confusion plus per-fold sub-reports."""
    FOLDS.read(k)
    return _pooled_cv(corpus, fit, stratified_folds(corpus.labels(), k, seed))


def lopo_cv(corpus, fit) -> EvaluationReport:
    """Leave-one-group-out CV: fold g is tested by fit(every other group)."""
    groups = corpus.groups()
    distinct = sorted(set(groups))
    if len(distinct) < 2:
        raise DegenerateInputError("need >= 2 distinct groups")
    return _pooled_cv(corpus, fit,
                      [[i for i, gg in enumerate(groups) if gg == g] for g in distinct])


def grid_search(corpus, fit_family, grid, k: int = FOLDS.default, seed: int = 0):
    """Exhaustive CV over a parameter grid -> (best params, its CV report).

    fit_family(params) returns a kfold_cv fit; best = highest mean fold
    accuracy, ties resolved to the earliest grid entry.
    """
    grid = list(grid)
    if not grid:
        raise DegenerateInputError("parameter grid is empty")
    best_params = None
    best_report = None
    best_score = -np.inf
    for params in grid:
        report = kfold_cv(corpus, fit_family(params), k=k, seed=seed)
        score = report.fold_accuracy_mean
        if score > best_score:
            best_score = score
            best_params = params
            best_report = report
    return best_params, best_report
