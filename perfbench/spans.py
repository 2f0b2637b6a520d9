"""Span recorder for the traced run, kept in the benchmark's own files.

``Tracer.install()`` replaces each public function at the attribute its
caller looks up (``counterscope.cli.train_rf``, ``counterscope.selection.
pearson``, ``RandomForestModel.predict_proba`` ...) with a wrapper that
appends a span ``[key, function, start, end, parent]`` to an in-memory list;
``uninstall()`` puts the originals back. A target the program no longer
has, and a counter that cannot read its call or result, is listed in
``missing``; run.py fails a run whose tracer missed anything, because a
per-layer metric that quietly reads 0 would look like a speed-up.

Size counters (bytes, rows, nodes ...) are read from arguments and results
after the wrapped call returns. That bookkeeping is itself recorded as a
``tracer`` span, so it is charged to tracing overhead, not to the caller's
self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter

# The layers, i.e. the program's modules. A span key belongs to the longest
# layer name it starts with.
LAYERS = ("simulator", "traces", "features", "selection", "stats",
          "models.forest", "models.evaluation", "models.serialize",
          "stepcount", "defense", "plots", "cli")

TRACER = "tracer"


def layer_of(key: str) -> str:
    return max((l for l in LAYERS if key == l or key.startswith(l + ".")), key=len)


def _arg(fn, name):
    """Reader of parameter `name` from a call's (args, kwargs)."""
    params = list(inspect.signature(fn).parameters)
    pos = params.index(name)

    def read(args, kwargs):
        return args[pos] if pos < len(args) else kwargs[name]
    return read


def _file_bytes(counter, param="path"):
    def hook(fn):
        path_of = _arg(fn, param)

        def count(tracer, args, kwargs, result):
            tracer.counts[counter] += os.path.getsize(path_of(args, kwargs))
        return count
    return hook


def _rows(x) -> int:
    values = getattr(x, "values", x)
    return int(values.shape[0]) if hasattr(values, "shape") else len(values)


def count_nodes(tree: dict) -> int:
    """Node count of one tree in its serialized form (``to_dict()``), which
    every version of the forest keeps."""
    if "dist" in tree:
        return 1
    return 1 + count_nodes(tree["left"]) + count_nodes(tree["right"])


def _fit_hook(fn):
    features_of = _arg(fn, "features")

    def count(tracer, args, kwargs, model):
        trees = list(model.trees)
        tracer.counts["models.forest.fit.rows"] += _rows(features_of(args, kwargs))
        tracer.counts["models.forest.fit.trees"] += len(trees)
        tracer.counts["models.forest.fit.nodes"] += sum(count_nodes(t.to_dict()) for t in trees)
    return count


def _result_hook(counter, measure):
    def hook(fn):
        def count(tracer, args, kwargs, result):
            tracer.counts[counter] += measure(result)
        return count
    return hook


def _screen_hook(fn):
    corpus_of = _arg(fn, "corpus")

    def count(tracer, args, kwargs, result):
        metrics = kwargs.get("metrics") or corpus_of(args, kwargs).metrics
        tracer.counts["selection.screen.metrics"] += len(metrics)
    return count


_cells = _result_hook("features.cells", lambda fm: int(fm.values.size))
_folds = _result_hook("models.evaluation.folds", lambda r: len(r.folds or ()))
_steps = _result_hook("stepcount.steps", len)
_sim = _result_hook("simulator.trace_seconds", lambda out: int(out.traces.n_seconds))
_pred = _result_hook("models.forest.predict.rows", lambda p: int(p.shape[0]))

# (module, attribute, span key, counter hook). Several modules import the
# same function; each import site is wrapped on its own, because that is the
# name its caller looks up at call time.
TARGETS = (
    ("counterscope.cli", "main", "cli", None),
    ("counterscope.cli", "load_corpus_spec", "simulator", None),
    ("counterscope.cli", "generate_corpus", "simulator", None),
    ("counterscope.cli", "simulate", "simulator", _sim),
    ("counterscope.simulator", "simulate", "simulator", _sim),
    ("counterscope.simulator", "script_from_dict", "simulator", None),
    ("counterscope.cli", "write_manifest", "traces.write", None),
    ("counterscope.traces", "write_manifest", "traces.write", None),
    ("counterscope.cli", "write_wide_csv", "traces.write", _file_bytes("traces.write.bytes")),
    ("counterscope.traces", "write_wide_csv", "traces.write", _file_bytes("traces.write.bytes")),
    ("counterscope.cli", "read_manifest", "traces.read", None),
    ("counterscope.cli", "read_wide_csv", "traces.read", _file_bytes("traces.read.bytes")),
    ("counterscope.traces", "read_wide_csv", "traces.read", _file_bytes("traces.read.bytes")),
    ("counterscope.cli", "fit_normalizer", "features.normalize", None),
    ("counterscope.features", "fit_normalizer", "features.normalize", None),
    ("counterscope.defense", "fit_normalizer", "features.normalize", None),
    ("counterscope.cli", "build_stat_features", "features.build", _cells),
    ("counterscope.cli", "build_sequences", "features.build", _cells),
    ("counterscope.features", "build_stat_features", "features.build", _cells),
    ("counterscope.defense", "build_stat_features", "features.build", _cells),
    ("counterscope.cli", "correlation_prune", "selection.prune", None),
    ("counterscope.cli", "accuracy_screen", "selection.screen", _screen_hook),
    ("counterscope.cli", "pearson", "stats.pearson", None),
    ("counterscope.selection", "pearson", "stats.pearson", None),
    ("counterscope.cli", "linreg", "stats", None),
    ("counterscope.cli", "train_rf", "models.forest.fit", _fit_hook),
    ("counterscope.models.forest.RandomForestModel", "predict_proba",
     "models.forest.predict", _pred),
    ("counterscope.cli", "evaluate", "models.evaluation", None),
    ("counterscope.defense", "evaluate", "models.evaluation", None),
    # accuracy_screen imports evaluate and stratified_split lazily, from here
    ("counterscope.models.evaluation", "evaluate", "models.evaluation", None),
    ("counterscope.models.evaluation", "stratified_split", "models.evaluation", None),
    ("counterscope.defense", "stratified_split", "models.evaluation", None),
    ("counterscope.cli", "kfold_cv", "models.evaluation", _folds),
    ("counterscope.cli", "lopo_cv", "models.evaluation", _folds),
    ("counterscope.cli", "grid_search", "models.evaluation", None),
    ("counterscope.cli", "save_model", "models.serialize.save",
     _file_bytes("models.serialize.bytes")),
    ("counterscope.cli", "load_model", "models.serialize.load",
     _file_bytes("models.serialize.bytes")),
    ("counterscope.cli", "detect_steps", "stepcount", _steps),
    ("counterscope.cli", "default_min_jumps", "stepcount", None),
    ("counterscope.stepcount", "detect_steps", "stepcount", _steps),
    ("counterscope.stepcount", "count_participants", "stepcount", None),
    ("counterscope.stepcount", "steps_to_csv", "stepcount", None),
    ("counterscope.cli", "inject_noise", "defense.inject", None),
    ("counterscope.defense", "inject_noise", "defense.inject", None),
    ("counterscope.cli", "evaluate_countermeasure", "defense.curve", None),
    ("counterscope.cli", "detect_profiler_access", "defense", None),
    ("counterscope.cli", "read_access_log", "defense", None),
    ("counterscope.plots", "heatmap", "plots", _file_bytes("plots.bytes")),
    ("counterscope.plots", "line_plot", "plots", _file_bytes("plots.bytes")),
)


def _resolve(path: str):
    """Module or module-level class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._seen_errors: set[BaseException] = set()  # kept alive: ids stay unique
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self._seen_errors = set()

    def _miss(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def install(self) -> None:
        for owner_path, attr, key, hook in TARGETS:
            try:
                owner = _resolve(owner_path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self._miss(f"{owner_path}.{attr}")
                continue
            try:
                count = hook(fn) if hook else None
            except ValueError:  # the parameter the counter reads was renamed
                self._miss(f"{owner_path}.{attr} (counter)")
                count = None
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(key, attr, fn, count))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    def _wrap(self, key, name, fn, count):
        layer = layer_of(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append([key, name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # charge the failure to the innermost layer it came through
                if exc not in tracer._seen_errors:
                    tracer._seen_errors.add(exc)
                    tracer.errors[layer] += 1
                raise
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()
            if count is not None:
                start = perf_counter()
                try:
                    count(tracer, args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - a result the counter no longer understands
                    tracer._miss(f"{key} counter of {name}: {type(exc).__name__}: {exc}")
                spans.append([TRACER, TRACER, start, perf_counter(),
                              stack[-1] if stack else -1])
            return result
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Self seconds per span key: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for key, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (key, _, start, end, _), c in zip(self.spans, child):
            out[key] += end - start - c
        return out

    def calls(self, key: str, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == key and s[1] == name)

    def calls_under(self, key: str, ancestor_key: str) -> int:
        """Spans of `key` that run inside some span of `ancestor_key`."""
        spans = self.spans
        n = 0
        for s in spans:
            if s[0] != key:
                continue
            p = s[4]
            while p >= 0 and spans[p][0] != ancestor_key:
                p = spans[p][4]
            n += p >= 0
        return n


def layer_metrics(tracer: Tracer, pass_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, name -> (value, unit)."""
    own = tracer.self_times()
    c = tracer.counts
    m = {
        "simulator.calls": (tracer.calls("simulator", "simulate"), "count"),
        "simulator.self_s": (own["simulator"], "s"),
        "simulator.trace_seconds": (c["simulator.trace_seconds"], "count"),
        "traces.write.calls": (tracer.calls("traces.write", "write_wide_csv"), "count"),
        "traces.write.self_s": (own["traces.write"], "s"),
        "traces.write.bytes": (c["traces.write.bytes"], "bytes"),
        "traces.read.calls": (tracer.calls("traces.read", "read_wide_csv"), "count"),
        "traces.read.self_s": (own["traces.read"], "s"),
        "traces.read.bytes": (c["traces.read.bytes"], "bytes"),
        "features.normalize_self_s": (own["features.normalize"], "s"),
        "features.build_self_s": (own["features.build"], "s"),
        "features.cells": (c["features.cells"], "count"),
        "selection.prune.self_s": (own["selection.prune"], "s"),
        "selection.prune.pairs": (tracer.calls_under("stats.pearson", "selection.prune"),
                                  "count"),
        "selection.screen.self_s": (own["selection.screen"], "s"),
        "selection.screen.metrics": (c["selection.screen.metrics"], "count"),
        "stats.pearson.calls": (tracer.calls("stats.pearson", "pearson"), "count"),
        "stats.pearson.self_s": (own["stats.pearson"], "s"),
        "models.forest.fit.calls": (tracer.calls("models.forest.fit", "train_rf"), "count"),
        "models.forest.fit.self_s": (own["models.forest.fit"], "s"),
        "models.forest.fit.share": (own["models.forest.fit"] / pass_s, "fraction"),
        "models.forest.fit.trees": (c["models.forest.fit.trees"], "count"),
        "models.forest.fit.nodes": (c["models.forest.fit.nodes"], "count"),
        "models.forest.fit.rows": (c["models.forest.fit.rows"], "count"),
        "models.forest.predict.calls": (
            tracer.calls("models.forest.predict", "predict_proba"), "count"),
        "models.forest.predict.self_s": (own["models.forest.predict"], "s"),
        "models.forest.predict.rows": (c["models.forest.predict.rows"], "count"),
        "models.evaluation.self_s": (own["models.evaluation"], "s"),
        "models.evaluation.folds": (c["models.evaluation.folds"], "count"),
        "models.serialize.save_self_s": (own["models.serialize.save"], "s"),
        "models.serialize.load_self_s": (own["models.serialize.load"], "s"),
        "models.serialize.bytes": (c["models.serialize.bytes"], "bytes"),
        "stepcount.calls": (tracer.calls("stepcount", "detect_steps"), "count"),
        "stepcount.self_s": (own["stepcount"], "s"),
        "stepcount.steps": (c["stepcount.steps"], "count"),
        "defense.inject.calls": (tracer.calls("defense.inject", "inject_noise"), "count"),
        "defense.inject.self_s": (own["defense.inject"], "s"),
        "defense.curve.self_s": (own["defense.curve"], "s"),
        "plots.self_s": (own["plots"], "s"),
        "plots.bytes": (c["plots.bytes"], "bytes"),
        "cli.self_s": (own["cli"], "s"),
        "tracer.self_s": (own[TRACER], "s"),
    }
    per_layer = defaultdict(float)
    for key, seconds in own.items():
        if key != TRACER:
            per_layer[layer_of(key)] += seconds
    for layer in LAYERS:
        m[f"{layer}.errors"] = (tracer.errors[layer], "count")
        m[f"{layer}.share"] = (per_layer[layer] / pass_s, "fraction")
    accounted = sum(per_layer.values()) + own[TRACER]
    m["unaccounted_share"] = ((pass_s - accounted) / pass_s, "fraction")
    return m
