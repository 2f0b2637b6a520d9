"""The classifier families and the versioned JSON envelope for trained models.

FAMILIES declares each kind's model class, trainer and trainer parameters;
the CLI's flags, config keys and trainers and the envelope's kind come from
it. The envelope carries everything needed to classify fresh traces: the
model itself plus the metric list, layout and normalization stats it was
trained with.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from ..errors import SchemaError
from ..features import LAYOUTS, NormalizationStats
from .forest import DEFAULT_N_TREES, RandomForestModel, _show, train_rf
from .linear import LinearSvmModel, train_linear_svm
from .mlp import MlpModel, train_mlp
from .neighbors import KnnModel, train_knn

FORMAT_NAME = "counterscope-model"
FORMAT_VERSION = 1


class Param(NamedTuple):
    """A trainer parameter: its keyword, its flag and config key, its type
    (int or float), its default and its least allowed value."""

    arg: str
    key: str
    kind: type
    default: object
    minimum: float | None = None


class Family(NamedTuple):
    model: type
    trainer: Callable
    params: tuple[Param, ...]


_SEED = Param("seed", "seed", int, 0, 0)  # the CLI passes its run seed here

FAMILIES = {
    "rf": Family(RandomForestModel, train_rf, (
        Param("n_trees", "trees", int, DEFAULT_N_TREES, 1),
        Param("max_depth", "max_depth", int, None, 0), _SEED)),
    "svm": Family(LinearSvmModel, train_linear_svm, (
        Param("lr", "lr", float, 0.01, 0), Param("epochs", "epochs", int, 50, 0),
        Param("reg_lambda", "reg_lambda", float, 1e-3, 0), _SEED)),
    "knn": Family(KnnModel, train_knn, (Param("k", "neighbors", int, 5, 1),)),
    "mlp": Family(MlpModel, train_mlp, (
        Param("hidden_size", "hidden", int, 32, 1),
        Param("learning_rate", "lr", float, 0.05, 0),
        Param("epochs", "epochs", int, 100, 0), Param("batch_size", "batch", int, 16, 1),
        _SEED)),
}


def save_model(model, path, metrics: list[str] | None = None,
               layout: str | None = None,
               normalizer: NormalizationStats | None = None) -> None:
    kind = next((k for k, f in FAMILIES.items() if isinstance(model, f.model)), None)
    if kind is None:
        raise SchemaError(f"unknown model type {type(model).__name__}")
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
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
    """Returns (model, context) where context holds kind/metrics/layout/normalizer,
    each None where the file lacks it; a malformed field raises SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise SchemaError(f"{path}: not a {FORMAT_NAME} file")
    if payload.get("version") != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported version {payload.get('version')}")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise SchemaError(f"{path}: unknown model kind {kind!r}")
    body = payload.get("model")
    if not isinstance(body, dict):
        raise SchemaError(f"{path}: field 'model' is missing or not an object")
    try:
        model = FAMILIES[kind].model.from_dict(body)
    except SchemaError as exc:
        raise SchemaError(f"{path}: in 'model': {exc}") from None
    except KeyError as exc:
        raise SchemaError(f"{path}: in 'model': field {exc} is missing") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: in 'model': malformed {kind} body: {exc}") from None
    metrics, layout, norm = (payload.get(k) for k in ("metrics", "layout", "normalizer"))
    if metrics is not None and not (isinstance(metrics, list)
                                    and all(isinstance(m, str) for m in metrics)):
        raise SchemaError(f"{path}: field 'metrics' must be a list of metric ids, "
                          f"got {_show(metrics)}")
    if layout is not None and layout not in LAYOUTS:
        raise SchemaError(f"{path}: field 'layout' must be one of {', '.join(LAYOUTS)}, "
                          f"got {_show(layout)}")
    try:
        norm = norm if norm is None else NormalizationStats.from_dict(norm, metrics or ())
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return model, {"kind": kind, "metrics": metrics, "layout": layout, "normalizer": norm}
