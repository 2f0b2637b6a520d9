#!/usr/bin/env python3
"""Misaligned captures, window fingerprints, and unseen-user evaluation.

Real captures rarely start exactly when the interaction does. Here each
run renders its object after a per-run random delay; a step detector finds
the onset, a fixed 10-second window anchored there becomes the
fingerprint, and compact mean/std features feed the classifiers.
Leave-one-participant-out cross-validation then scores generalization to a
user whose data never entered training, and a small grid search tunes the
forest under 5-fold CV.
"""

import numpy as np

from counterscope.catalog import builtin_catalog
from counterscope.features import Fingerprinter, extract_window
from counterscope.models import grid_search, lopo_cv, train_rf
from counterscope.simulator import SceneScript, StaticObject, simulate
from counterscope.stepcount import find_anchor
from counterscope.traces import CorpusItem, LabeledCorpus

catalog = builtin_catalog()
rng = np.random.default_rng(17)

# Five object classes x six participants x four runs. Participants press
# "render" anywhere from 4 to 12 seconds in, so raw traces are misaligned.
objects = {"chair": 5.0, "sofa": 8.0, "table": 6.0, "desk": 6.8, "bed": 9.0}
items = []
for user in range(6):
    for label, size in objects.items():
        for run in range(4):
            onset = float(rng.integers(4, 13))
            script = SceneScript(
                duration_s=30, seed=int(rng.integers(0, 2**31)),
                events=(StaticObject(size_s=size, depth_z=2.0,
                                     t_start=onset, t_end=onset + 10.0),))
            trace = simulate(script, catalog).traces
            anchor = find_anchor(trace, "non_base_level_textures", min_jump=4.0)
            window = extract_window(trace, anchor, length=10)
            items.append(CorpusItem(window, label, group=f"user{user}"))

corpus = LabeledCorpus(items)
print(f"{len(corpus)} aligned 10-second fingerprints from 6 participants")


def fitter(**params):
    """fit(train corpus) -> stat2 Fingerprinter; a fold's held-out traces
    never reach its normalizer or its forest."""
    return lambda train: Fingerprinter.fit(
        train, lambda X, y: train_rf(X, y, seed=0, **params), corpus.metrics, "stat2")


report = lopo_cv(corpus, fitter(n_trees=50))
print(f"LOPO over 6 participants: accuracy "
      f"{report.fold_accuracy_mean:.3f} +/- {report.fold_accuracy_std:.3f}")

grid = [{"n_trees": 25}, {"n_trees": 50}, {"n_trees": 100}]
best, cv = grid_search(corpus, lambda p: fitter(**p), grid, k=5, seed=0)
print(f"grid search picked {best}: {cv.fold_accuracy_mean:.3f} "
      f"+/- {cv.fold_accuracy_std:.3f} under 5-fold CV")
