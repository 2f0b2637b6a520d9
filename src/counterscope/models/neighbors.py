"""k-nearest-neighbor classifier (Euclidean, vote ties to lowest class index)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import schema
from ..errors import DegenerateInputError
from .forest import _as_matrix, read_classes, training_set


@dataclass
class KnnModel:
    classes: list[str]
    k: int
    train_x: np.ndarray
    train_y: np.ndarray  # class indices

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]

    def predict(self, features) -> list[str]:
        X = _as_matrix(features, self.n_features)
        out = []
        for x in X:
            d2 = np.sum((self.train_x - x) ** 2, axis=1)
            # stable sort: equidistant neighbors resolve by training order
            nearest = np.argsort(d2, kind="stable")[: self.k]
            votes = np.bincount(self.train_y[nearest], minlength=len(self.classes))
            out.append(self.classes[int(np.argmax(votes))])
        return out

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "k": self.k,
            "train_x": [[float(v) for v in row] for row in self.train_x],
            "train_y": [int(v) for v in self.train_y],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "KnnModel":
        classes = read_classes(obj)
        train_x = schema.Param("train_x", float).get(obj, shape=(None, None))
        train_y = schema.Param("train_y", int).get(obj, shape=(len(train_x),))
        for i, y in enumerate(train_y.tolist()):
            schema.read(y, int, f"field 'train_y[{i}]'", choices=range(len(classes)))
        k = schema.Param("k", int, choices=range(1, len(train_x) + 1)).get(obj)
        return cls(classes, k, train_x, train_y)


def train_knn(features, labels, k: int = 5) -> KnnModel:
    X, classes, y_idx = training_set(features, labels)
    if k < 1 or k > X.shape[0]:
        raise DegenerateInputError(f"k={k} outside [1, {X.shape[0]}]")
    return KnnModel(classes, k, X.copy(), y_idx)
