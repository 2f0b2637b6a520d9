"""Typed configuration at the CLI boundary and the model-family table.

Every flag, config-file and grid value goes through one typed read; a
wrongly typed or out-of-range value exits 2 naming its source. The golden
file pins effective_config.json (minus `out`) of every subcommand that has
options, as given by flags, by a config file and by defaults: the
model-taking commands for every family, recorded before the family table
replaced the CLI's per-family branches, and the others, recorded before the
options moved into one declaration table. OPTIONS pins the options each
subcommand accepts.
"""

import argparse
import json
import os

import pytest

from counterscope.cli import build_parser, main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_effective_config.json")

SPEC = {
    "seed": 5,
    "repetitions": 4,
    "classes": [
        {"label": label, "script": {"scene_type": "vr", "duration_s": 20, "events": [
            {"kind": "app_session", "app_id": label, "t_start": 3, "t_end": 17,
             "intensity": {hot: 0.9, cold: 0.2}}]}}
        for label, hot, cold in (("appA", "non_base_level_textures", "gpu_bus_busy"),
                                 ("appB", "gpu_bus_busy", "non_base_level_textures"))
    ],
}

FAMILY_VALUES = {
    "rf": {"trees": 3, "max_depth": 2},
    "svm": {"lr": 0.02, "epochs": 3, "reg_lambda": 0.002},
    "knn": {"neighbors": 3},
    "mlp": {"hidden": 4, "lr": 0.1, "epochs": 3, "batch": 4},
}
COMMAND_VALUES = {
    "train": {"layout": "stat2", "seed": 5},
    "cv": {"layout": "stat2", "seed": 5, "k": 2},
    "lopo": {"layout": "stat2", "seed": 5},
    "grid": {"layout": "stat2", "seed": 5, "k": 2},
    "screen": {"threshold_acc": 0.5, "seed": 5},
    "defend curve": {"levels": "0", "seed": 5},
}
# flags a command has when it lacks some of the model flags
COMMAND_FLAGS = {"screen": {"trees", "threshold_acc", "seed"},
                 "defend curve": {"model", "trees", "levels", "seed"}}
GRIDS = {"rf": [{"n_trees": 2}, {"max_depth": 1}], "svm": [{"epochs": 2}],
         "knn": [{"k": 1}], "mlp": [{"epochs": 2}]}


def golden_cases():
    for command in COMMAND_VALUES:
        for kind in (["rf"] if command == "screen" else FAMILY_VALUES):
            for source in ("flags", "config"):
                yield f"{command}/{kind}/{source}", command, kind, source
    for kind in FAMILY_VALUES:
        yield f"train/{kind}/defaults", "train", kind, "defaults"


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    assert main(["gen-corpus", str(spec), "--out", str(root / "corp")]) == 0
    return str(root / "corp" / "manifest.jsonl")


def effective_config(manifest, root, command, kind, source):
    """Runs one golden case; returns its effective_config.json minus `out`."""
    os.makedirs(root, exist_ok=True)
    argv = command.split() + ["--manifest", manifest, "--out", os.path.join(root, "out")]
    if command == "grid":
        grid = os.path.join(root, "grid.json")
        with open(grid, "w") as fh:
            json.dump(GRIDS[kind], fh)
        argv += ["--grid", grid]
    values = {"model": kind, **COMMAND_VALUES[command], **FAMILY_VALUES[kind]}
    if command == "screen":
        del values["model"]
    if source == "defaults":
        argv += ["--model", kind]
    elif source == "config":
        config = os.path.join(root, "config.json")
        with open(config, "w") as fh:
            json.dump(values, fh)
        argv += ["--config", config]
    else:
        for key, value in values.items():
            if key in COMMAND_FLAGS.get(command, values):
                argv += ["--" + key.replace("_", "-"), str(value)]
    assert main(argv) == 0, argv
    with open(os.path.join(root, "out", "effective_config.json")) as fh:
        payload = json.load(fh)
    del payload["out"]
    return payload


@pytest.mark.parametrize("name, command, kind, source", list(golden_cases()))
def test_effective_config_golden(manifest, tmp_path, name, command, kind, source):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert effective_config(manifest, str(tmp_path), command, kind, source) == golden[name]


# The commands outside the model chain: (argv before the options, the options
# by key, the keys kept as flags when the case runs on defaults). Catalog and
# profile paths are relative to the inputs directory, so the golden file holds
# no temporary path. These entries were recorded before the CLI's options
# moved into one declaration table.
CATALOG_ENTRIES = [
    {"id": "gpu_bus_busy", "display_name": "GPU % Bus Busy",
     "category": "gpu_utilization", "unit": "percent"},
    {"id": "texture_l2_miss", "display_name": "% Texture L2 Miss",
     "category": "stalls", "unit": "percent"},
    {"id": "non_base_level_textures", "display_name": "% Non-Base Level Textures",
     "category": "texture_filtering", "unit": "percent"}]
PROFILE = {"gpu_bus_busy": {"b_ar": 34.0, "b_vr": 30.0, "g": 55.0, "delta": 8.0,
                            "sigma": 1.0}}
FILES = {"catalog": "catalog.json", "profile": "profile.json"}
SWEEP = {"scene_type": "vr", "duration_s": 20, "events": [
    {"kind": "object_sweep", "size_s": 6.0, "speed_v": 1.0, "depth_z": 2.0,
     "x_start": -10.0, "x_end": 10.0, "t_start": 2.0}]}
OPTION_CASES = {
    "simulate": (["simulate", "{scene}"], FILES, ()),
    "gen-corpus": (["gen-corpus", "{spec}"], {"seed": 9, **FILES}, ()),
    "prune": (["prune", "--manifest", "{manifest}"], {"threshold": 0.8}, ()),
    "count": (["count", "--trace", "{trace}"], {"window": 2, "gap": 1, **FILES}, ()),
    "count-min-jump": (["count", "--trace", "{trace}"],
                       {"min_jump": 5.0, "window": 2, "gap": 1, **FILES}, ("min_jump",)),
    "correlate": (["correlate", "--pixels", "{pixels}", "--trace", "{sim_trace}"],
                  {"metric": "gpu_bus_busy"}, ()),
    "defend-inject-gaussian": (["defend", "inject", "--trace", "{trace}"],
                               {"strategy": "gaussian", "sigma": 2.5, "seed": 4, **FILES}, ()),
    "defend-inject-dummy": (["defend", "inject", "--trace", "{trace}"],
                            {"strategy": "dummy", "rate": 0.5, "size": 3.0, "depth": 1.5,
                             "seed": 4, **FILES}, ("strategy",)),
    "defend-detect": (["defend", "detect", "--log", "{log}"],
                      {"min_events": 10, "cv_threshold": 0.2, "expected_period": 2.0,
                       "period_tolerance": 0.5}, ()),
}


@pytest.fixture(scope="module")
def inputs(manifest, tmp_path_factory):
    """Every input file an OPTION_CASES command reads, by its {name}."""
    root = tmp_path_factory.mktemp("inputs")
    _write(root / "catalog.json", CATALOG_ENTRIES)
    _write(root / "profile.json", PROFILE)
    scene = _write(root / "scene.json", SWEEP)
    assert main(["simulate", scene, "--out", str(root / "sim")]) == 0
    (root / "access.log").write_text("".join(f"{2 * t}.0\n" for t in range(15)))
    traces = os.path.join(os.path.dirname(manifest), "traces")
    return str(root), {
        "scene": scene, "spec": _write(root / "spec.json", SPEC), "manifest": manifest,
        "trace": os.path.join(traces, sorted(os.listdir(traces))[0]),
        "pixels": str(root / "sim" / "pixels.csv"), "sim_trace": str(root / "sim" / "trace.csv"),
        "log": str(root / "access.log")}


@pytest.mark.parametrize("name", [f"{case}/{source}" for case in OPTION_CASES
                                  for source in ("flags", "config", "defaults")])
def test_option_effective_config_golden(inputs, tmp_path, monkeypatch, name):
    case, source = name.split("/")
    root, files = inputs
    head, values, kept = OPTION_CASES[case]
    argv = [arg.format(**files) for arg in head] + ["--out", str(tmp_path / "out")]
    flags = values if source == "flags" else {k: values[k] for k in kept}
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    if source == "config":
        argv += ["--config", _write(tmp_path / "config.json", values)]
    monkeypatch.chdir(root)
    assert main(argv) == 0, argv
    with open(tmp_path / "out" / "effective_config.json") as fh:
        payload = json.load(fh)
    del payload["out"]
    with open(GOLDEN_PATH) as fh:
        assert payload == json.load(fh)[name]


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


# (argv, config file, grid file, key): each value is wrongly typed or out of
# range, and was read with a crash (exit 3), a silent truncation or a
# misleading message before the typed read.
PROBES = {
    "grid-str": (["grid", "--k", "2"], None, [{"n_trees": 2}, {"n_trees": "abc"}], "'n_trees'"),
    "grid-float-in-int": (["grid", "--k", "2"], None, [{"n_trees": 2}, {"n_trees": 2.7}],
                          "'n_trees'"),
    "grid-str-seed": (["grid", "--k", "2"], None, [{"n_trees": 2}, {"seed": "x"}], "'seed'"),
    "grid-negative-seed": (["grid", "--k", "2", "--model", "svm", "--epochs", "1"], None,
                           [{"epochs": 2}, {"seed": -1}], "'seed'"),
    "config-str": (["train"], {"trees": "abc"}, None, "'trees'"),
    "config-str-seed": (["cv", "--k", "2"], {"seed": "abc"}, None, "'seed'"),
    "config-str-threshold": (["prune"], {"threshold": "x"}, None, "'threshold'"),
    "config-float-in-int": (["train"], {"trees": 2.7}, None, "'trees'"),
    "config-float-window": (["count"], {"window": 2.5}, None, "'window'"),
    "config-bool-k": (["cv"], {"k": True}, None, "'k'"),
    "config-null-trees": (["train"], {"trees": None}, None, "'trees'"),
    "config-nan-lr": (["train", "--model", "svm"], {"lr": float("nan")}, None, "'lr'"),
    "flag-batch-0": (["train", "--model", "mlp", "--batch", "0"], None, None, "--batch"),
    "flag-negative-depth": (["train", "--max-depth", "-1"], None, None, "--max-depth"),
    "flag-negative-epochs": (["train", "--model", "svm", "--epochs", "-1"], None, None,
                             "--epochs"),
    "levels": (["defend", "curve", "--levels", "a,b"], None, None, "levels"),
    # a number below its bound or not finite, read before as a plain int or float
    "flag-negative-gap": (["count", "--gap", "-1"], None, None, "--gap"),
    "config-negative-gap": (["count"], {"gap": -1}, None, "'gap'"),
    "flag-negative-min-events": (["defend", "detect", "--min-events", "-1"], None, None,
                                 "--min-events"),
    "config-zero-min-events": (["defend", "detect"], {"min_events": 0}, None, "'min_events'"),
    "flag-nan-level": (["defend", "curve", "--levels", "0,nan"], None, None,
                       "--levels: entry 1"),
    "flag-negative-level": (["defend", "curve", "--levels=-1"], None, None, "--levels: entry 0"),
    "config-infinite-level": (["defend", "curve"], {"levels": "0,1e500"}, None,
                              "'levels': entry 1"),
    "flag-negative-min-jump": (["count", "--min-jump", "-1"], None, None, "--min-jump"),
    "flag-negative-cv-threshold": (["defend", "detect", "--cv-threshold", "-1"], None, None,
                                   "--cv-threshold"),
    "flag-negative-period-tolerance": (["defend", "detect", "--period-tolerance", "-1"],
                                       None, None, "--period-tolerance"),
    "flag-negative-expected-period": (["defend", "detect", "--expected-period", "-1"],
                                      None, None, "--expected-period"),
    # a value rejected deep in the code before, with a message naming no flag
    "flag-zero-window": (["count", "--window", "0"], None, None, "--window"),
    "flag-decreasing-levels": (["defend", "curve", "--levels", "5,2"], None, None,
                               "--levels: entry 1"),
    "config-repeated-level": (["defend", "curve"], {"levels": "0,2,2"}, None,
                              "'levels': entry 2"),
    # a string outside its choices, checked where it is read
    "config-bad-layout": (["cv", "--k", "2"], {"layout": "stat9"}, None, "'layout'"),
    "config-bad-model": (["train"], {"model": "xyz"}, None, "'model'"),
    "config-bad-strategy": (["defend", "inject"], {"strategy": "xyz"}, None, "'strategy'"),
    # a number outside the bounds only the library checked, with a message
    # naming neither the flag nor the config key
    "flag-zero-threshold": (["prune", "--threshold", "0"], None, None, "--threshold"),
    "flag-threshold-above-1": (["prune", "--threshold", "1.5"], None, None, "--threshold"),
    "config-zero-threshold": (["prune"], {"threshold": 0}, None, "'threshold'"),
    "flag-zero-threshold-acc": (["screen", "--threshold-acc", "0"], None, None,
                                "--threshold-acc"),
    "config-threshold-acc-above-1": (["screen"], {"threshold_acc": 2}, None,
                                     "'threshold_acc'"),
    "flag-one-fold-cv": (["cv", "--k", "1"], None, None, "--k"),
    "flag-one-fold-grid": (["grid", "--k", "1"], None, None, "--k"),
    "config-one-fold-cv": (["cv"], {"k": 1}, None, "'k'"),
    "flag-negative-sigma": (["defend", "inject", "--sigma", "-1"], None, None, "--sigma"),
    "flag-negative-rate": (["defend", "inject", "--strategy", "dummy", "--rate", "-1"], None,
                           None, "--rate"),
    "flag-zero-size": (["defend", "inject", "--strategy", "dummy", "--size", "0"], None, None,
                       "--size"),
    "flag-negative-depth": (["defend", "inject", "--strategy", "dummy", "--depth", "-2"], None,
                            None, "--depth"),
    "config-zero-depth": (["defend", "inject"], {"strategy": "dummy", "depth": 0}, None,
                          "'depth'"),
}


@pytest.mark.parametrize("name", list(PROBES))
def test_wrong_value_exits_2_naming_source_and_key(manifest, tmp_path, capsys, name):
    argv, config, grid, where = PROBES[name]
    argv = argv + ["--out", str(tmp_path / "out")]
    if argv[0] == "count" or argv[:2] == ["defend", "inject"]:
        traces = os.path.join(os.path.dirname(manifest), "traces")
        argv += ["--trace", os.path.join(traces, sorted(os.listdir(traces))[0])]
    elif argv[:2] == ["defend", "detect"]:
        log = tmp_path / "access.log"
        log.write_text("".join(f"{t}.0\n" for t in range(30)))
        argv += ["--log", str(log)]
    else:
        argv += ["--manifest", manifest]
    if argv[0] == "grid" and grid is None:
        argv += ["--grid", _write(tmp_path / "grid.json", [{"n_trees": 2}])]
    if config is not None:
        path = _write(tmp_path / "config.json", config)
        argv += ["--config", path]
        where = f"{path}: field {where}"
    if grid is not None:
        path = _write(tmp_path / "grid.json", grid)
        argv += ["--grid", path]
        where = f"{path}: entry 1: {where}"
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert where in err, err


def _subparser(*command):
    parser = build_parser()
    for name in command:
        parser = parser._subparsers._group_actions[0].choices[name]
    return parser


MODEL_FLAGS = {"--model": str, "--layout": str, "--trees": int, "--max-depth": int,
               "--neighbors": int, "--lr": float, "--epochs": int, "--reg-lambda": float,
               "--hidden": int, "--batch": int}


@pytest.mark.parametrize("command, flags", [
    ("train", MODEL_FLAGS), ("cv", MODEL_FLAGS), ("lopo", MODEL_FLAGS),
    ("grid", MODEL_FLAGS), ("screen", {"--trees": int}),
    ("defend curve", {"--model": str, "--trees": int}),
])
def test_model_flags_come_from_the_families(command, flags):
    from counterscope.models import FAMILIES

    actions = {a.option_strings[0]: a for a in _subparser(*command.split())._actions
               if a.option_strings}
    model_flags = {opt: a for opt, a in actions.items() if opt in MODEL_FLAGS}
    assert set(model_flags) == set(flags)
    for opt, action in model_flags.items():
        assert action.dest == opt[2:].replace("-", "_")
        assert (action.type or str) is flags[opt]
    if "--model" in flags:
        assert actions["--model"].choices == list(FAMILIES)


# Every subcommand's options as the parser takes them: the type a value is
# parsed as, "!" where the option is required, and the choices of the options
# that have them. Recorded before the options moved into one declaration table.
COMMON_OPTIONS = {"--out": "str!", "--config": "str", "--catalog": "str", "--profile": "str",
                  "--seed": "int"}
ALL_MODEL_OPTIONS = {"--model": "str", "--layout": "str", "--trees": "int", "--max-depth": "int",
                     "--lr": "float", "--epochs": "int", "--reg-lambda": "float",
                     "--neighbors": "int", "--hidden": "int", "--batch": "int"}
OPTIONS = {
    "simulate": {"scene": "str!"},
    "gen-corpus": {"corpus_spec": "str!"},
    "prune": {"--manifest": "str!", "--threshold": "float"},
    "screen": {"--manifest": "str!", "--threshold-acc": "float", "--trees": "int"},
    "train": {"--manifest": "str!", **ALL_MODEL_OPTIONS},
    "eval": {"--manifest": "str!", "--model-file": "str!"},
    "cv": {"--manifest": "str!", "--k": "int", **ALL_MODEL_OPTIONS},
    "lopo": {"--manifest": "str!", **ALL_MODEL_OPTIONS},
    "grid": {"--manifest": "str!", "--grid": "str!", "--k": "int", **ALL_MODEL_OPTIONS},
    "count": {"--trace": "str!", "--min-jump": "float", "--window": "int", "--gap": "int"},
    "correlate": {"--pixels": "str!", "--trace": "str!", "--metric": "str"},
    "defend inject": {"--trace": "str!", "--strategy": "str", "--sigma": "float",
                      "--rate": "float", "--size": "float", "--depth": "float"},
    "defend detect": {"--log": "str!", "--min-events": "int", "--cv-threshold": "float",
                      "--expected-period": "float", "--period-tolerance": "float"},
    "defend curve": {"--manifest": "str!", "--levels": "str", "--model": "str", "--trees": "int"},
}
CHOICES = {"--model": ["rf", "svm", "knn", "mlp"], "--layout": ["stat4", "stat2", "sequence"],
           "--strategy": ["gaussian", "dummy"]}


def _commands(parser, prefix=()):
    """(name, parser) of every subcommand, "defend inject" for a nested one."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(prefix), parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _commands(sub, (*prefix, name))


def test_every_subcommand_takes_the_pinned_options():
    commands = dict(_commands(build_parser()))
    assert set(commands) == set(OPTIONS)
    for name, parser in commands.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert all(len(a.option_strings) <= 1 for a in actions), name
        taken = {(a.option_strings or [a.dest])[0]:
                 (a.type or str).__name__ + "!" * a.required for a in actions}
        assert taken == {**OPTIONS[name], **COMMON_OPTIONS}, name
        for a in actions:
            opt = (a.option_strings or [a.dest])[0]
            assert (list(a.choices) if a.choices else None) == CHOICES.get(opt), (name, opt)
            if a.option_strings:
                assert a.dest == opt[2:].replace("-", "_"), (name, opt)


def test_every_family_round_trips_with_its_kind(tmp_path):
    import numpy as np

    from counterscope.features import Fingerprinter, NormalizationStats
    from counterscope.models import FAMILIES, load_model, save_model

    X = np.array([[0.0, 1.0], [0.2, 0.9], [1.0, 0.0], [0.9, 0.1]])
    labels = ["a", "a", "b", "b"]
    for kind, family in FAMILIES.items():
        model = family.trainer(X, labels, **({"k": 1} if kind == "knn" else {}))
        path = str(tmp_path / f"{kind}.json")
        norm = NormalizationStats({"m_a": (0.0, 1.0)})
        save_model(Fingerprinter(["m_a"], "stat2", norm, model), path)
        with open(path) as fh:
            assert json.load(fh)["kind"] == kind
        loaded = load_model(path).model
        assert type(loaded) is family.model
        assert loaded.to_dict() == model.to_dict()
