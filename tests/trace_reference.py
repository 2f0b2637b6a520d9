"""Cell-at-a-time reference for wide-CSV trace I/O, kept for equivalence tests.

This is the reader and writer the package used before it parsed and wrote
traces as blocks: the writer formats one value at a time and writes row by
row, and the reader parses one cell at a time with float() and a
finiteness check per cell. The tests compare the package's bytes, values
and errors (type, message, row and column) with these.
"""

from __future__ import annotations

import numpy as np

from counterscope import schema
from counterscope.errors import ParseError, SchemaError
from counterscope.traces import TraceSet


def write_reference(trace: TraceSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_s," + ",".join(trace.metrics) + "\n")
        for k in range(trace.n_seconds):
            row = [str(trace.t0 + k)]
            row.extend(repr(float(v)) for v in trace.matrix[k])
            fh.write(",".join(row) + "\n")


def read_reference(path, meta: dict[str, str] | None = None) -> TraceSet:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().rstrip("\n")
        fields = header.split(",")
        if len(fields) < 2 or fields[0] != "t_s":
            raise SchemaError(f"{path}: header must be 't_s,<id1>,...'")
        metrics = fields[1:]
        width = len(fields)
        rows = []
        times = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != width:
                raise SchemaError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {width}")
            try:
                t = int(cells[0])
            except ValueError:
                raise ParseError(lineno, 1, f"bad time value {cells[0]!r}", path) from None
            times.append(t)
            vals = []
            for col, cell in enumerate(cells[1:], start=2):
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(lineno, col, f"non-numeric cell {cell!r}", path) from None
                if not np.isfinite(v):
                    raise ParseError(lineno, col, f"non-finite cell {cell!r}", path)
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    t0 = times[0]
    for k, t in enumerate(times):
        if t != t0 + k:
            raise ParseError(k + 2, 1, f"time column not 1 Hz consecutive at t={t}", path)
    with schema.located(path):
        return TraceSet(metrics, np.array(rows, dtype=float), t0, dict(meta or {}))
