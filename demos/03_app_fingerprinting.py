#!/usr/bin/env python3
"""End-to-end app fingerprinting on a synthetic 20-app corpus.

Each app gets its own per-metric intensity vector, 20 runs each. Stat
features plus a 100-tree random forest on an 80/20 split identify the
foreground app essentially perfectly; 5-fold cross-validation agrees.
"""

from counterscope.datasets import demo_app_corpus
from counterscope.features import Fingerprinter
from counterscope.models import evaluate, kfold_cv, split_corpus, train_rf

corpus = demo_app_corpus(n_classes=20, repetitions=20, seed=7)
print(f"corpus: {len(corpus)} traces, {len(set(corpus.labels()))} apps, "
      f"{len(corpus.metrics)} metrics")


def fit(train):
    return Fingerprinter.fit(train, lambda X, y: train_rf(X, y, n_trees=100, seed=42),
                             corpus.metrics, "stat4")


train, test = split_corpus(corpus, 0.8, seed=42)
report = evaluate(fit(train), test, test.labels())
print(f"held-out: accuracy={report.accuracy:.3f}  macro-F1={report.macro_f1:.3f}")

cv = kfold_cv(corpus, fit, k=5, seed=42)  # each fold fits its own Fingerprinter
print(f"5-fold CV: {cv.fold_accuracy_mean:.3f} +/- {cv.fold_accuracy_std:.3f}")

worst = min(cv.per_class, key=lambda c: c.f1)
print(f"hardest app: {worst.label} (F1 {worst.f1:.3f})")
