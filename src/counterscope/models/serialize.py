"""Versioned JSON envelope for trained models.

The payload carries everything needed to classify fresh traces: the model
itself plus the metric list, layout and normalization stats it was trained
with.
"""

from __future__ import annotations

import json

from ..errors import SchemaError
from ..features import NormalizationStats
from .forest import RandomForestModel
from .linear import LinearSvmModel
from .mlp import MlpModel
from .neighbors import KnnModel

FORMAT_NAME = "counterscope-model"
FORMAT_VERSION = 1

_KINDS = {
    "rf": RandomForestModel,
    "svm": LinearSvmModel,
    "knn": KnnModel,
    "mlp": MlpModel,
}


def model_kind(model) -> str:
    for kind, cls in _KINDS.items():
        if isinstance(model, cls):
            return kind
    raise SchemaError(f"unknown model type {type(model).__name__}")


def save_model(model, path, metrics: list[str] | None = None,
               layout: str | None = None,
               normalizer: NormalizationStats | None = None) -> None:
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": model_kind(model),
        "model": model.to_dict(),
    }
    if metrics is not None:
        payload["metrics"] = list(metrics)
    if layout is not None:
        payload["layout"] = layout
    if normalizer is not None:
        payload["normalizer"] = normalizer.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Returns (model, context) where context holds metrics/layout/normalizer."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise SchemaError(f"{path}: not a {FORMAT_NAME} file")
    if payload.get("version") != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported version {payload.get('version')}")
    kind = payload.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise SchemaError(f"{path}: unknown model kind {kind!r}")
    body = payload.get("model")
    if not isinstance(body, dict):
        raise SchemaError(f"{path}: field 'model' is missing or not an object")
    try:
        model = cls.from_dict(body)
    except SchemaError as exc:
        raise SchemaError(f"{path}: in 'model': {exc}") from None
    except KeyError as exc:
        raise SchemaError(f"{path}: in 'model': field {exc} is missing") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: in 'model': malformed {kind} body: {exc}") from None
    context = {
        "kind": kind,
        "metrics": payload.get("metrics"),
        "layout": payload.get("layout"),
        "normalizer": (NormalizationStats.from_dict(payload["normalizer"])
                       if "normalizer" in payload else None),
    }
    return model, context
