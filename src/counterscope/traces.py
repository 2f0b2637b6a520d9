"""Trace data model and bit-exact I/O.

A TraceSet is a rectangular block of 1 Hz samples: one column per metric,
one row per second, starting at integer offset t0. Equality compares the
structural content (metric list, t0, values bit-for-bit); the free-form
meta map is an annotation and does not participate.

Wide CSV is the canonical on-disk format: header ``t_s,<id1>,<id2>,...``,
one row per second, LF line endings, no quoting. Values are written with
Python's shortest round-trip float repr, so write -> read reproduces every
value bit-for-bit. A trace is written as one string and read as one block:
numpy converts every value cell at once, parsing each as float() does, and
one finiteness check covers the matrix. Only a block that fails is walked
cell by cell, to name the first bad row in file order and its column.

Labeled corpora are described by a JSON-lines manifest, one
``{"trace": <relative path>, "label": ..., "group": ...}`` per line.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import schema
from .errors import (
    DataError,
    InconsistentMetricsError,
    MissingTraceFileError,
    ParseError,
    RaggedRowsError,
    SchemaError,
    UnknownMetricError,
)


@dataclass
class TraceSet:
    """Aligned multi-metric 1 Hz trace block (n_seconds x n_metrics)."""

    metrics: list[str]
    matrix: np.ndarray
    t0: int = 0
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.metrics = list(self.metrics)
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise DataError("matrix must be 2-D (seconds x metrics)")
        if matrix.shape[0] < 1:
            raise DataError("trace must contain at least one second")
        if matrix.shape[1] != len(self.metrics):
            raise DataError(
                f"matrix has {matrix.shape[1]} columns for {len(self.metrics)} metrics")
        if len(set(self.metrics)) != len(self.metrics):
            raise DataError("duplicate metric ids")
        if not np.all(np.isfinite(matrix)):
            raise DataError("matrix contains NaN/Inf")
        self.matrix = matrix

    @property
    def n_seconds(self) -> int:
        return self.matrix.shape[0]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def values(self, metric: str) -> np.ndarray:
        try:
            return self.matrix[:, self.metrics.index(metric)]
        except ValueError:
            raise UnknownMetricError(f"metric {metric!r} is not in the trace") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceSet):
            return NotImplemented
        return (self.metrics == other.metrics
                and self.t0 == other.t0
                and self.matrix.shape == other.matrix.shape
                and bool(np.array_equal(self.matrix, other.matrix)))


@dataclass(frozen=True)
class CorpusItem:
    trace: TraceSet
    label: str
    group: str = ""


@dataclass
class LabeledCorpus:
    """Labeled TraceSets sharing one metric list; group carries identity for LOPO."""

    items: list[CorpusItem]

    def __post_init__(self):
        self.items = list(self.items)
        if self.items:
            first = self.items[0].trace.metrics
            for i, it in enumerate(self.items):
                if it.trace.metrics != first:
                    raise InconsistentMetricsError(
                        f"item {i} metric list differs from item 0")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def metrics(self) -> list[str]:
        if not self.items:
            return []
        return list(self.items[0].trace.metrics)

    def labels(self) -> list[str]:
        return [it.label for it in self.items]

    def groups(self) -> list[str]:
        return [it.group for it in self.items]

    def subset(self, indices) -> "LabeledCorpus":
        return LabeledCorpus([self.items[i] for i in indices])

    def concat_metric(self, metric: str) -> np.ndarray:
        """All items' samples for one metric, concatenated in corpus order."""
        return np.concatenate([it.trace.values(metric) for it in self.items])


def write_wide_csv(trace: TraceSet, path) -> None:
    """Write the wide-CSV form of a trace (values round-trip bit-exactly)."""
    lines = [f"{trace.t0 + k}," + ",".join(map(repr, row))
             for k, row in enumerate(trace.matrix.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_s," + ",".join(trace.metrics) + "\n" + "\n".join(lines) + "\n")


def read_wide_csv(path) -> TraceSet:
    """Parse a wide-CSV trace; columns keep header order, t0 is the first row.

    Raises ParseError(row, col) on non-numeric/non-finite cells or a broken
    time column, RaggedRowsError on inconsistent row widths.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().rstrip("\n")
        lines = fh.read().split("\n")
    fields = header.split(",")
    if len(fields) < 2 or fields[0] != "t_s":
        raise SchemaError(f"{path}: header must be 't_s,<id1>,...'")
    width = len(fields)
    rows = [line.split(",") for line in lines if line]
    matrix = None
    if all(len(cells) == width for cells in rows):
        try:
            times = [int(cells[0]) for cells in rows]
            # parses each str as float() does: same values, same cells rejected
            matrix = np.array([cells[1:] for cells in rows], dtype=float)
        except ValueError:
            pass
    if matrix is None or not np.isfinite(matrix).all():
        raise _first_bad_row(path, lines, width)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    t0 = times[0]
    for k, t in enumerate(times):
        if t != t0 + k:
            raise ParseError(k + 2, 1, f"time column not 1 Hz consecutive at t={t}", path)
    with schema.located(path):
        return TraceSet(fields[1:], matrix, t0)


def _first_bad_row(path, lines: list[str], width: int) -> DataError:
    """The error of the first bad row in file order, found cell by cell: a
    ragged row, a bad time value, or a non-numeric or non-finite cell."""
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            return RaggedRowsError(
                f"{path}: row {lineno} has {len(cells)} cells, expected {width}")
        try:
            int(cells[0])
        except ValueError:
            return ParseError(lineno, 1, f"bad time value {cells[0]!r}", path)
        for col, cell in enumerate(cells[1:], start=2):
            try:
                v = float(cell)
            except ValueError:
                return ParseError(lineno, col, f"non-numeric cell {cell!r}", path)
            if not math.isfinite(v):
                return ParseError(lineno, col, f"non-finite cell {cell!r}", path)
    raise AssertionError(f"{path}: numpy and float() disagree on a cell")


def write_manifest(corpus: LabeledCorpus, directory) -> str:
    """Write every trace as wide CSV under traces/ plus a JSON-lines
    manifest.jsonl; returns the manifest path.

    Trace filenames are derived from (index, label) so output is deterministic.
    """
    directory = os.fspath(directory)
    os.makedirs(os.path.join(directory, "traces"), exist_ok=True)
    manifest_path = os.path.join(directory, "manifest.jsonl")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        for i, item in enumerate(corpus):
            safe_label = "".join(c if c.isalnum() else "_" for c in item.label)
            rel = f"traces/{i:04d}_{safe_label}.csv"
            write_wide_csv(item.trace, os.path.join(directory, rel))
            fh.write(json.dumps(
                {"trace": rel, "label": item.label, "group": item.group}) + "\n")
    return manifest_path


_MANIFEST_LINE = (schema.Param("trace", str), schema.Param("label", str),
                  schema.Param("group", str, ""))


def read_manifest(path) -> LabeledCorpus:
    """Load a corpus from a JSON-lines manifest, in manifest order.

    Trace paths resolve relative to the manifest's directory."""
    path = os.fspath(path)
    base = os.path.dirname(os.path.abspath(path))
    items = []
    for lineno, obj in schema.load_json(path, lines=True).items():
        with schema.located(f"{path}:{lineno}"):
            line = schema.fields(obj, _MANIFEST_LINE, "a manifest line")
        tpath = os.path.join(base, line["trace"])
        if not os.path.exists(tpath):
            raise MissingTraceFileError(tpath)
        items.append(CorpusItem(read_wide_csv(tpath), line["label"], line["group"]))
    with schema.located(path):
        return LabeledCorpus(items)
