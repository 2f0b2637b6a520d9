"""Single-hidden-layer MLP: ReLU hidden units, softmax output, mini-batch
gradient descent on cross-entropy. The loss/gradient function is exposed
separately so the analytic gradients can be finite-difference checked."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import schema
from .forest import _as_matrix, read_classes, training_set


@dataclass
class MlpParams:
    w1: np.ndarray  # (d, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h, c)
    b2: np.ndarray  # (c,)


def init_params(d: int, h: int, c: int, seed: int = 0) -> MlpParams:
    rng = np.random.default_rng(seed)
    return MlpParams(
        w1=rng.standard_normal((d, h)) * np.sqrt(2.0 / d),
        b1=np.zeros(h),
        w2=rng.standard_normal((h, c)) * np.sqrt(2.0 / h),
        b2=np.zeros(c),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(params: MlpParams, X: np.ndarray):
    hidden = np.maximum(X @ params.w1 + params.b1, 0.0)
    probs = _softmax(hidden @ params.w2 + params.b2)
    return hidden, probs


def loss_and_grads(params: MlpParams, X: np.ndarray, y_idx: np.ndarray):
    """Mean softmax cross-entropy and its analytic parameter gradients."""
    n = X.shape[0]
    hidden, probs = forward(params, X)
    loss = float(-np.mean(np.log(probs[np.arange(n), y_idx] + 1e-300)))
    dlogits = probs.copy()
    dlogits[np.arange(n), y_idx] -= 1.0
    dlogits /= n
    gw2 = hidden.T @ dlogits
    gb2 = dlogits.sum(axis=0)
    dhidden = (dlogits @ params.w2.T) * (hidden > 0.0)
    gw1 = X.T @ dhidden
    gb1 = dhidden.sum(axis=0)
    return loss, MlpParams(gw1, gb1, gw2, gb2)


@dataclass
class MlpModel:
    classes: list[str]
    params: MlpParams
    hidden_size: int

    @property
    def n_features(self) -> int:
        return self.params.w1.shape[0]

    def predict_proba(self, features) -> np.ndarray:
        X = _as_matrix(features, self.n_features)
        return forward(self.params, X)[1]

    def predict(self, features) -> list[str]:
        proba = self.predict_proba(features)
        return [self.classes[i] for i in np.argmax(proba, axis=1)]

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "hidden_size": self.hidden_size,
            "w1": self.params.w1.tolist(),
            "b1": self.params.b1.tolist(),
            "w2": self.params.w2.tolist(),
            "b2": self.params.b2.tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MlpModel":
        classes = read_classes(obj)
        h = schema.Param("hidden_size", int, minimum=1).get(obj)
        params = MlpParams(schema.Param("w1", float).get(obj, shape=(None, h)),
                           schema.Param("b1", float).get(obj, shape=(h,)),
                           schema.Param("w2", float).get(obj, shape=(h, len(classes))),
                           schema.Param("b2", float).get(obj, shape=(len(classes),)))
        return cls(classes, params, h)


def train_mlp(features, labels, hidden_size: int = 32, learning_rate: float = 0.05,
              epochs: int = 100, batch_size: int = 16, seed: int = 0) -> MlpModel:
    X, classes, y_idx = training_set(features, labels)
    n, d = X.shape
    params = init_params(d, hidden_size, len(classes), seed)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            _, grads = loss_and_grads(params, X[batch], y_idx[batch])
            params.w1 -= learning_rate * grads.w1
            params.b1 -= learning_rate * grads.b1
            params.w2 -= learning_rate * grads.w2
            params.b2 -= learning_rate * grads.b2
    return MlpModel(classes, params, hidden_size)
