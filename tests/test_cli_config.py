"""Typed configuration at the CLI boundary and the model-family table.

Every flag, config-file and grid value goes through one typed read; a
wrongly typed or out-of-range value exits 2 naming its source. The golden
file pins effective_config.json (minus `out`) of every model-taking command
for every family, as given by flags, by a config file and by defaults; it was
recorded before the family table replaced the CLI's per-family branches.
"""

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
