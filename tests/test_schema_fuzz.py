"""Fuzz the CLI's input files from the declarations the readers use.

Each case starts from a valid input file (spec, script, profile, catalog,
a config file of each subcommand that has options, grid, manifest, or a
model file of each family) and breaks it once: a value of the wrong kind, a
number outside its declared bounds, a required key removed, a string outside
its choices, or an object replaced by a list. The CLI must exit 2 naming the
file and the field, and never 3. The config files' keys come from the CLI's
command table, with the parameters of the model family or noise strategy
each one selects.

The same declarations check the library's constructors and functions:
LIBRARY breaks each bounded value once through the call that takes it, which
must raise SchemaError naming the field.
"""

import copy
import inspect
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from counterscope import catalog, cli, defense, selection, simulator, stepcount, traces
from counterscope.catalog import MetricDescriptor
from counterscope.defense import DETECTION, STRATEGIES, AccessLog, DummyRender, GaussianNoise
from counterscope.errors import SchemaError
from counterscope.models import FAMILIES, evaluation, forest, serialize
from counterscope.schema import REQUIRED, Param
from counterscope.simulator import ClassSpec, MetricResponse, SceneScript
from counterscope.traces import TraceSet

SPEC = {"seed": 3, "repetitions": 2, "classes": [
    {"label": label, "script": {"scene_type": "vr", "duration_s": 12, "events": [
        {"kind": "app_session", "app_id": label, "t_start": 2, "t_end": 9,
         "intensity": {metric: 0.9}}]}}
    for label, metric in (("appA", "gpu_bus_busy"), ("appB", "texture_l2_miss"))]}
SCRIPT = {"scene_type": "ar", "duration_s": 15, "seed": 1, "fov_width_w": 8.0,
          "noise_sigma": 0.5, "events": [
              {"kind": "object_sweep", "size_s": 2.0, "speed_v": 1.0, "depth_z": 2.0,
               "x_start": -5.0, "x_end": 5.0, "t_start": 1.0},
              {"kind": "static_object", "size_s": 1.0, "depth_z": 2.0, "t_start": 2.0,
               "t_end": 6.0},
              {"kind": "avatar_join", "t_join": 4.0},
              {"kind": "app_session", "app_id": "a", "t_start": 3.0, "t_end": 8.0,
               "intensity": {"gpu_bus_busy": 0.5}}]}
PROFILE = {"gpu_bus_busy": {"b_ar": 34.0, "b_vr": 30.0, "g": 55.0, "delta": 8.0, "sigma": 1.0}}
CATALOG = [{"id": "gpu_bus_busy", "display_name": "GPU % Bus Busy",
            "category": "gpu_utilization", "unit": "percent"},
           {"id": "texture_l2_miss", "display_name": "% Texture L2 Miss",
            "category": "stalls", "unit": "percent", "direction": "increases_with_load"}]
GRID = [{"n_trees": 2, "max_depth": 3, "seed": 1}]
# config files: (subcommand, the model family or noise strategy the file
# selects, values that replace the declared defaults to keep the run small)
CONFIGS = {
    "config": ("cv", "rf", {"layout": "stat2", "trees": 2, "max_depth": 3, "k": 2}),
    "config-train": ("train", "mlp", {"epochs": 1}),
    "config-lopo": ("lopo", "svm", {"epochs": 1}),
    "config-grid": ("grid", "knn", {"k": 2, "neighbors": 1}),
    "config-screen": ("screen", "rf", {"trees": 2}),
    "config-curve": ("defend curve", "rf", {"trees": 2, "levels": "0,2"}),
    "config-prune": ("prune", None, {}),
    "config-count": ("count", None, {}),
    "config-correlate": ("correlate", None, {"metric": "gpu_bus_busy"}),
    "config-detect": ("defend detect", None, {}),
    "inject-config": ("defend inject", "gaussian", {}),
    "inject-config-dummy": ("defend inject", "dummy", {}),
}


def _config_params(command, selected):
    """The options a config file of `command` holds: the command's own, with
    only the selected strategy's, and the selected family's parameters but the
    run seed, which is any integer (reduced modulo 2**64)."""
    own = cli.COMMANDS[command].params
    if command == "defend inject":
        others = {p for _, params in STRATEGIES.values() for p in params}
        own = [p for p in own if p not in others] + list(STRATEGIES[selected][1])
    family = FAMILIES[selected].params if selected in FAMILIES else ()
    return tuple([*own, *(p for p in family if p.key != "seed")])


def _config(name):
    command, selected, values = CONFIGS[name]
    doc = {p.key: p.default for p in _config_params(command, selected) if p.default is not None}
    for key in {"model", "strategy"} & set(doc):  # the key that selects `selected`
        doc[key] = selected
    return {**doc, **values}


def _event_targets(prefix, events):
    return [((*prefix, "events", k), simulator._event_fields(simulator._EVENT_KINDS[e["kind"]]),
             f"events[{k}]") for k, e in enumerate(events)]


def _body_fields(kind):
    """A model body's keys, each required, with the kind its JSON value has;
    the rf body's keys as its reader declares them."""
    model = FAMILIES[kind].trainer(np.eye(4), ["a", "a", "b", "b"],
                                   **({"k": 1} if kind == "knn" else {}))
    declared = {key: Param(key, type(value)) for key, value in model.to_dict().items()}
    declared.update({p.key: p for p in (forest._BODY if kind == "rf" else ())})
    return tuple(declared.values())


# file kind: [(JSON path of an object, its declared fields, the name a
# message gives that object)]
TARGETS = {
    "spec": [((), simulator._SPEC, ""), (("classes", 0), simulator._CLASS, "classes[0]"),
             (("classes", 0, "script"), simulator._SCRIPT, "script"),
             *_event_targets(("classes", 0, "script"), SPEC["classes"][0]["script"]["events"])],
    "script": [((), simulator._SCRIPT, ""), *_event_targets((), SCRIPT["events"])],
    "profile": [(("gpu_bus_busy",), simulator._RESPONSE, "'gpu_bus_busy'")],
    "catalog": [((1,), catalog._ENTRY, "entry 1")],
    **{name: [((), _config_params(*CONFIGS[name][:2]), "")] for name in CONFIGS},
    "grid": [((0,), tuple(p._replace(key=p.keyword) for p in FAMILIES["rf"].params),
              "entry 0")],
    "manifest": [((0,), traces._MANIFEST_LINE, ":1:")],
    **{f"model-{kind}": [((), serialize._ENVELOPE, ""), (("model",), _body_fields(kind),
                                                         "'model'")]
       for kind in FAMILIES},
}

# values of each kind that a slot of another kind must refuse
WRONG = {int: ["x", 1.5, True, [1], {}], float: ["x", True, [1.0], {}],
         str: [1, True, ["x"], {}], list: ["x", 1, {}], dict: ["x", 1, [1]]}


def _mutations():
    for name, targets in TARGETS.items():
        for path, declared, container in targets:
            yield name, path, None, "non-object", [], container
            for f in declared:
                key = f.key
                kinds = f.kind if isinstance(f.kind, tuple) else (f.kind,)
                for value in [v for k in kinds for v in WRONG[k]]:
                    if not any(isinstance(value, k) and not isinstance(value, bool)
                               or k is float and type(value) is int for k in kinds):
                        yield name, path, key, "wrong-kind", value, f"'{key}'"
                if f.minimum is not None:
                    yield name, path, key, "below-minimum", f.minimum - 1, f"'{key}'"
                if f.above is not None:
                    yield name, path, key, "below-minimum", f.above, f"'{key}'"
                if f.maximum is not None:
                    yield name, path, key, "above-maximum", f.maximum + 1, f"'{key}'"
                if f.default is REQUIRED:
                    yield name, path, key, "missing", None, f"'{key}'"
                if f.choices is not None:
                    yield name, path, key, "bad-choice", "not_a_choice", f"'{key}'"
                if f.default is not None and not f.nullable:
                    yield name, path, key, "null", None, f"'{key}'"


MUTATIONS = list(_mutations())


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The valid documents of every file kind, and the files the commands
    need besides the one under test."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    assert cli.main(["gen-corpus", str(spec), "--out", str(root / "corp")]) == 0
    manifest = str(root / "corp" / "manifest.jsonl")
    with open(manifest) as fh:
        lines = [json.loads(line) for line in fh]
    docs = {"spec": SPEC, "script": SCRIPT, "profile": PROFILE, "catalog": CATALOG,
            "grid": GRID, "manifest": lines, **{name: _config(name) for name in CONFIGS}}
    for kind in FAMILIES:
        out = root / f"model-{kind}"
        assert cli.main(["train", "--manifest", manifest, "--model", kind, "--trees", "2",
                         "--neighbors", "1", "--epochs", "1", "--out", str(out)]) == 0
        docs[f"model-{kind}"] = json.loads((out / "model.json").read_text())
    trace = os.path.join(root, "corp", lines[0]["trace"])
    pixels = str(root / "pixels.csv")
    traces.write_wide_csv(TraceSet(["pixels"], traces.read_wide_csv(trace).matrix[:, [1]]),
                          pixels)
    (root / "access.log").write_text("".join(f"{t}.0\n" for t in range(30)))
    (root / "grid.json").write_text(json.dumps([{"k": 1}]))
    files = {"spec": str(spec), "manifest": manifest, "trace": trace, "pixels": pixels,
             "log": str(root / "access.log"), "grid": str(root / "grid.json")}
    return root, docs, files


def _argv(name, bad, files):
    if name.startswith("model-"):
        return ["eval", "--manifest", files["manifest"], "--model-file", bad]
    if name in CONFIGS:
        command = CONFIGS[name][0]
        paths = cli.COMMANDS[command].paths
        return [*command.split(), *(arg for path in paths
                                    for arg in (path, files[path.lstrip("-")])), "--config", bad]
    return {
        "spec": ["gen-corpus", bad],
        "script": ["simulate", bad],
        "profile": ["gen-corpus", files["spec"], "--profile", bad],
        "catalog": ["gen-corpus", files["spec"], "--catalog", bad],
        "grid": ["grid", "--manifest", files["manifest"], "--k", "2", "--grid", bad],
        "manifest": ["prune", "--manifest", bad],
    }[name]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(mutation=st.sampled_from(MUTATIONS))
def test_one_mutation_exits_2_naming_file_and_field(valid, capsys, mutation):
    name, path, key, how, value, named = mutation
    root, docs, files = valid
    doc = copy.deepcopy(docs[name])
    parent, last = None, None
    target = doc
    for step in path:
        parent, last, target = target, step, target[step]
    if key is None:
        if parent is None:
            doc = value
        else:
            parent[last] = value
    elif how == "missing":
        del target[key]
    else:
        target[key] = value
    # a manifest sits next to its traces, whose paths are relative to it
    bad = os.path.join(os.path.dirname(files["manifest"]) if name == "manifest" else root,
                       f"bad-{name}.json")
    with open(bad, "w") as fh:
        if name == "manifest":
            fh.write("".join(json.dumps(line) + "\n" for line in doc))
        else:
            json.dump(doc, fh)
    capsys.readouterr()
    code = cli.main(_argv(name, bad, files) + ["--out", os.path.join(root, "out")])
    err = capsys.readouterr().err
    assert code == 2, (mutation, err)
    assert bad in err and named in err, (mutation, err)


def test_every_file_kind_and_mutation_is_drawn_from():
    assert {m[0] for m in MUTATIONS} == set(TARGETS)
    assert {m[3] for m in MUTATIONS} == {"non-object", "wrong-kind", "below-minimum", "missing",
                                         "bad-choice", "null", "above-maximum"}
    assert {m[2] for m in MUTATIONS if m[0] == "catalog" and m[3] == "bad-choice"} == {
        "category", "unit", "direction"}


NAN = float("nan")
SERIES = np.zeros(12)
GAUSSIAN, = STRATEGIES["gaussian"][1]
RATE, SIZE, DEPTH = STRATEGIES["dummy"][1]

# (case, the Param that declares the broken value, a library call that breaks
# it); each function checks its arguments before it uses the others
LIBRARY = [
    ("response-sigma", simulator._RESPONSE[4], lambda: MetricResponse(1.0, 1.0, 1.0, 1.0, -1.0)),
    ("response-nan", simulator._RESPONSE[0], lambda: MetricResponse(NAN, 1.0, 1.0, 1.0, 1.0)),
    ("class-label", simulator._CLASS[0], lambda: ClassSpec(1, SceneScript(duration_s=5))),
    ("descriptor-category", catalog._ENTRY[2],
     lambda: MetricDescriptor("m", "M", "nonsense", "percent")),
    ("descriptor-unit", catalog._ENTRY[3],
     lambda: MetricDescriptor("m", "M", "stalls", "furlongs")),
    ("descriptor-direction", catalog._ENTRY[4],
     lambda: MetricDescriptor("m", "M", "stalls", "percent", "sideways")),
    ("gaussian-negative", GAUSSIAN, lambda: GaussianNoise(-1.0)),
    ("gaussian-bool", GAUSSIAN, lambda: GaussianNoise(True)),
    ("gaussian-nan", GAUSSIAN, lambda: GaussianNoise(NAN)),
    ("gaussian-str", GAUSSIAN, lambda: GaussianNoise("2")),
    ("dummy-rate", RATE, lambda: DummyRender(-1.0)),
    ("dummy-size-nan", SIZE, lambda: DummyRender(1.0, size_s=NAN)),
    ("dummy-depth", DEPTH, lambda: DummyRender(1.0, depth_z=0.0)),
    ("steps-window", stepcount.WINDOW, lambda: stepcount.detect_steps(SERIES, 1.0, window_w=2.5)),
    ("steps-min-jump", stepcount.MIN_JUMP, lambda: stepcount.detect_steps(SERIES, NAN)),
    ("steps-min-gap", stepcount.GAP, lambda: stepcount.detect_steps(SERIES, 1.0, min_gap=-1)),
    ("kfold-k", evaluation.FOLDS, lambda: evaluation.kfold_cv(None, None, k=1)),
    ("rf-trees", forest.TREES, lambda: forest.train_rf(np.eye(2), ["a", "b"], n_trees=0)),
    ("prune-threshold", selection.PRUNE_THRESHOLD,
     lambda: selection.correlation_prune(None, [], threshold=1.5)),
    ("screen-threshold", selection.SCREEN_THRESHOLD,
     lambda: selection.accuracy_screen(None, None, threshold_acc=0.0)),
    *((f"detect-{p.key}", p, lambda p=p: defense.detect_profiler_access(
        AccessLog(()), **{p.keyword: -1})) for p in DETECTION),
]


@pytest.mark.parametrize("param, call", [case[1:] for case in LIBRARY],
                         ids=[case[0] for case in LIBRARY])
def test_library_call_checks_through_the_declaration(param, call):
    with pytest.raises(SchemaError, match=f"^field '{param.keyword}' must be "):
        call()


def _bounded(p):
    return (p.minimum, p.above, p.maximum) != (None, None, None)


def test_every_library_bound_is_broken_once():
    """Each bounded option of a command, the forest's tree count, the profile's
    sigma and the catalog's choices meet a LIBRARY case."""
    hit = {id(p) for _, p, _ in LIBRARY}
    want = [p for command in cli.COMMANDS.values() for p in command.params if _bounded(p)]
    want += [forest.TREES, *filter(_bounded, simulator._RESPONSE),
             *(p for p in catalog._ENTRY if p.choices is not None)]
    assert [p.key for p in want if id(p) not in hit] == []


def _params(value):
    """The Params a module-level value holds: itself, or those in its tuples,
    lists and dicts."""
    if isinstance(value, Param):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _params(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _params(v)


def _declared(module):
    """The Params a module's globals hold."""
    return [p for key, value in vars(module).items() if not key.startswith("__")
            for p in _params(value)]


# library calls and the Params whose defaults their signatures take
SIGNATURES = [(forest.train_rf, (forest.TREES,)), (evaluation.kfold_cv, (evaluation.FOLDS,)),
              (evaluation.grid_search, (evaluation.FOLDS,)),
              (selection.correlation_prune, (selection.PRUNE_THRESHOLD,)),
              (selection.accuracy_screen, (selection.SCREEN_THRESHOLD,)),
              (stepcount.detect_steps, (stepcount.WINDOW, stepcount.GAP)),
              (stepcount.count_participants, (stepcount.MIN_JUMP, stepcount.WINDOW,
                                              stepcount.GAP)),
              (stepcount.find_anchor, (stepcount.WINDOW, stepcount.GAP)),
              (defense.detect_profiler_access, DETECTION), (DummyRender, (SIZE, DEPTH))]


def test_no_bound_is_declared_twice():
    """Each bounded option of a command or a model family is the Param object
    a library module declares, not an equal copy; no two declarations are
    equal copies; and a library call's default is its Param's."""
    library = [p for name, module in sys.modules.items()
               if name.startswith("counterscope.") and name != "counterscope.cli"
               for p in _declared(module)]
    ids = {id(p) for p in library}
    options = [p for command in cli.COMMANDS.values() for p in command.params]
    options += [p for family in FAMILIES.values() for p in family.params]
    assert [p.key for p in options if _bounded(p) and id(p) not in ids] == []
    every = list({id(p): p for p in (*library, *_declared(cli))}.values())
    bounded = [p for p in every if _bounded(p)]
    assert [p.key for i, p in enumerate(bounded) if p in bounded[:i]] == []
    for fn, params in SIGNATURES:
        signature = inspect.signature(fn).parameters
        assert [signature[p.keyword].default for p in params] == [p.default for p in params]


# every bound a scene field had before it was declared: positive sizes, speeds,
# depths and field of view, and times >= 0
SCENE_BOUNDS = {"object_sweep": ("size_s", "speed_v", "depth_z", "t_start"),
                "static_object": ("size_s", "depth_z", "t_start", "t_end"),
                "avatar_join": ("t_join",), "app_session": ("t_start", "t_end"),
                "script": ("fov_width_w",)}
POSITIVE = {"size_s", "speed_v", "depth_z", "fov_width_w"}


def test_every_scene_bound_is_declared():
    """Each scene bound sits on the Param the reader uses, so the fuzz test
    draws a mutation from it."""
    declared = {kind: simulator._event_fields(cls)
                for kind, cls in simulator._EVENT_KINDS.items()}
    declared["script"] = simulator._SCRIPT
    for kind, keys in SCENE_BOUNDS.items():
        params = {p.key: p for p in declared[kind]}
        for key in keys:
            want = (0, None) if key in POSITIVE else (None, 0)
            assert (params[key].above, params[key].minimum) == want, (kind, key)


def test_every_subcommand_with_options_has_a_config_target():
    assert {command for command, _, _ in CONFIGS.values()} == {
        name for name, command in cli.COMMANDS.items() if command.params}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_every_valid_config_runs(valid, name):
    """An unbroken config file runs, so a mutation's exit 2 is the mutation's."""
    root, docs, files = valid
    path = os.path.join(root, f"valid-{name}.json")
    with open(path, "w") as fh:
        json.dump(docs[name], fh)
    assert cli.main(_argv(name, path, files) + ["--out", os.path.join(root, "out")]) == 0
