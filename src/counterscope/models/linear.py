"""One-vs-rest linear SVM trained by stochastic subgradient descent.

Hinge loss with L2 regularization; one binary machine per class, sample
order shuffled per epoch from the seed, so training is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import schema
from .forest import _as_matrix, read_classes, training_set


@dataclass
class LinearSvmModel:
    classes: list[str]
    weights: np.ndarray  # (n_classes, n_features)
    biases: np.ndarray   # (n_classes,)

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def decision_values(self, features) -> np.ndarray:
        X = _as_matrix(features, self.n_features)
        return X @ self.weights.T + self.biases

    def predict(self, features) -> list[str]:
        scores = self.decision_values(features)
        return [self.classes[i] for i in np.argmax(scores, axis=1)]

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "weights": [[float(v) for v in row] for row in self.weights],
            "biases": [float(v) for v in self.biases],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "LinearSvmModel":
        classes = read_classes(obj)
        return cls(classes, schema.Param("weights", float).get(obj, shape=(len(classes), None)),
                   schema.Param("biases", float).get(obj, shape=(len(classes),)))


def train_linear_svm(features, labels, lr: float = 0.01, epochs: int = 50,
                     reg_lambda: float = 1e-3, seed: int = 0) -> LinearSvmModel:
    X, classes, y_idx = training_set(features, labels)
    n, d = X.shape
    c = len(classes)
    W = np.zeros((c, d))
    b = np.zeros(c)
    targets = np.where(y_idx[:, None] == np.arange(c)[None, :], 1.0, -1.0)  # (n, c)

    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            x = X[i]
            margins = targets[i] * (W @ x + b)
            active = margins < 1.0
            W *= 1.0 - lr * reg_lambda
            if np.any(active):
                W[active] += lr * targets[i, active, None] * x[None, :]
                b[active] += lr * targets[i, active]
    return LinearSvmModel(classes, W, b)
