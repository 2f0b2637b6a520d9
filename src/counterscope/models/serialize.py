"""The classifier families and the versioned JSON envelope for trained models.

FAMILIES declares each kind's model class, trainer and trainer parameters;
the CLI's flags, config keys and trainers and the envelope's kind come from
it. The envelope holds a fitted Fingerprinter, everything needed to
classify fresh traces: the model itself plus the metric list, layout and
normalization stats it was trained with, each a required field.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from .. import schema
from ..errors import SchemaError
from ..features import LAYOUTS, Fingerprinter, NormalizationStats
from ..schema import Param
from .forest import TREES, RandomForestModel, train_rf
from .linear import LinearSvmModel, train_linear_svm
from .mlp import MlpModel, train_mlp
from .neighbors import KnnModel, train_knn

FORMAT_NAME = "counterscope-model"
FORMAT_VERSION = 1


class Family(NamedTuple):
    model: type
    trainer: Callable
    params: tuple[Param, ...]


_SEED = Param("seed", int, 0, 0)  # the CLI passes its run seed here

FAMILIES = {
    "rf": Family(RandomForestModel, train_rf, (
        TREES, Param("max_depth", int, None, 0, help="unlimited if unset"), _SEED)),
    "svm": Family(LinearSvmModel, train_linear_svm, (
        Param("lr", float, 0.01, 0), Param("epochs", int, 50, 0),
        Param("reg_lambda", float, 1e-3, 0), _SEED)),
    "knn": Family(KnnModel, train_knn, (Param("neighbors", int, 5, 1, arg="k"),)),
    "mlp": Family(MlpModel, train_mlp, (
        Param("hidden", int, 32, 1, arg="hidden_size"),
        Param("lr", float, 0.05, 0, arg="learning_rate"),
        Param("epochs", int, 100, 0), Param("batch", int, 16, 1, arg="batch_size"), _SEED)),
}


_ENVELOPE = (
    Param("format", str, choices=(FORMAT_NAME,)),
    Param("version", int, choices=(FORMAT_VERSION,)),
    Param("kind", str, choices=FAMILIES),
    Param("model", dict),
    Param("metrics", list),
    Param("layout", str, choices=LAYOUTS),
    Param("normalizer", dict),
)


def save_model(fp: Fingerprinter, path) -> None:
    kind = next((k for k, f in FAMILIES.items() if isinstance(fp.model, f.model)), None)
    if kind is None:
        raise SchemaError(f"unknown model type {type(fp.model).__name__}")
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "model": fp.model.to_dict(),
        "metrics": list(fp.metrics),
        "layout": fp.layout,
        "normalizer": fp.normalizer.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> Fingerprinter:
    """The Fingerprinter a save_model file holds; a malformed or missing field
    raises SchemaError naming the file and the field."""
    with schema.located(path):
        envelope = schema.fields(schema.load_json(path), _ENVELOPE, f"a {FORMAT_NAME} file")
        with schema.located("in 'model'"):
            model = FAMILIES[envelope["kind"]].model.from_dict(envelope["model"])
        metrics = envelope["metrics"]
        for i, metric in enumerate(metrics):
            schema.read(metric, str, f"field 'metrics[{i}]'")
        normalizer = NormalizationStats.from_dict(envelope["normalizer"], metrics)
    return Fingerprinter(metrics, envelope["layout"], normalizer, model)
