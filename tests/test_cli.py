import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from counterscope.cli import main
from counterscope.traces import read_wide_csv

SWEEP_SCENE = {
    "scene_type": "vr",
    "duration_s": 45,
    "seed": 3,
    "events": [{"kind": "object_sweep", "size_s": 6.0, "speed_v": 1.0,
                "depth_z": 2.0, "x_start": -15.0, "x_end": 15.0, "t_start": 5.0}],
}


def small_corpus_spec(seed=5):
    def session(label, hot, cold):
        return {"kind": "app_session", "app_id": label, "t_start": 3, "t_end": 17,
                "intensity": {hot: 0.9, cold: 0.2}}

    return {
        "seed": seed,
        "repetitions": 4,
        "classes": [
            {"label": "appA", "script": {"scene_type": "vr", "duration_s": 20,
             "events": [session("appA", "non_base_level_textures", "gpu_bus_busy")]}},
            {"label": "appB", "script": {"scene_type": "vr", "duration_s": 20,
             "events": [session("appB", "gpu_bus_busy", "non_base_level_textures")]}},
        ],
    }


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(SWEEP_SCENE))
    return str(path)


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(small_corpus_spec()))
    return str(path)


def run_cli(argv):
    return main(argv)


class TestSimulate:
    def test_outputs_and_config(self, scene_file, tmp_path):
        out = str(tmp_path / "sim")
        assert run_cli(["simulate", scene_file, "--out", out]) == 0
        for name in ("trace.csv", "pixels.csv", "events.json",
                     "fingerprint.svg", "effective_config.json"):
            assert os.path.exists(os.path.join(out, name)), name
        trace = read_wide_csv(os.path.join(out, "trace.csv"))
        assert trace.n_seconds == 45
        assert len(trace.metrics) == 30

    def test_missing_scene_is_data_error(self, tmp_path):
        assert run_cli(["simulate", str(tmp_path / "none.json"),
                        "--out", str(tmp_path / "o")]) == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["simulate"])  # missing required args
        assert err.value.code == 1


class TestPipelineDeterminism:
    def run_pipeline(self, spec_file, root):
        corp = os.path.join(root, "corp")
        model = os.path.join(root, "model")
        ev = os.path.join(root, "eval")
        assert run_cli(["gen-corpus", spec_file, "--out", corp]) == 0
        assert run_cli(["train", "--manifest", os.path.join(corp, "manifest.jsonl"),
                        "--out", model, "--model", "rf", "--trees", "20",
                        "--seed", "9"]) == 0
        assert run_cli(["eval", "--manifest", os.path.join(corp, "manifest.jsonl"),
                        "--model-file", os.path.join(model, "model.json"),
                        "--out", ev]) == 0
        return corp, model, ev

    def test_byte_identical_reruns(self, spec_file, tmp_path):
        a = self.run_pipeline(spec_file, str(tmp_path / "a"))
        b = self.run_pipeline(spec_file, str(tmp_path / "b"))
        pairs = [
            (os.path.join(a[0], "manifest.jsonl"), os.path.join(b[0], "manifest.jsonl")),
            (os.path.join(a[1], "model.json"), os.path.join(b[1], "model.json")),
            (os.path.join(a[2], "report.json"), os.path.join(b[2], "report.json")),
            (os.path.join(a[2], "report.csv"), os.path.join(b[2], "report.csv")),
        ]
        for pa, pb in pairs:
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), pa
        # every generated trace CSV matches too
        ta = sorted(os.listdir(os.path.join(a[0], "traces")))
        tb = sorted(os.listdir(os.path.join(b[0], "traces")))
        assert ta == tb
        for name in ta:
            with open(os.path.join(a[0], "traces", name), "rb") as fa, \
                    open(os.path.join(b[0], "traces", name), "rb") as fb:
                assert fa.read() == fb.read()


class TestSubcommands:
    @pytest.fixture()
    def corpus_dir(self, spec_file, tmp_path):
        corp = str(tmp_path / "corp")
        run_cli(["gen-corpus", spec_file, "--out", corp])
        return corp

    def test_cv(self, corpus_dir, tmp_path):
        out = str(tmp_path / "cv")
        assert run_cli(["cv", "--manifest", os.path.join(corpus_dir, "manifest.jsonl"),
                        "--out", out, "--k", "2", "--trees", "10", "--seed", "0"]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert "fold_accuracy_mean" in report
        assert len(report["folds"]) == 2

    def test_lopo(self, corpus_dir, tmp_path):
        out = str(tmp_path / "lopo")
        assert run_cli(["lopo", "--manifest", os.path.join(corpus_dir, "manifest.jsonl"),
                        "--out", out, "--trees", "10"]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert len(report["folds"]) == 4  # one per repetition group

    def test_grid(self, corpus_dir, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n_trees": 5}, {"n_trees": 10}]))
        out = str(tmp_path / "grid_out")
        assert run_cli(["grid", "--manifest", os.path.join(corpus_dir, "manifest.jsonl"),
                        "--grid", str(grid), "--k", "2", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "best_params.json"))

    def test_prune_and_screen(self, corpus_dir, tmp_path):
        out = str(tmp_path / "prune")
        assert run_cli(["prune", "--manifest", os.path.join(corpus_dir, "manifest.jsonl"),
                        "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "prune_report.json")).read())
        assert set(report) == {"retained", "dropped"}
        out2 = str(tmp_path / "screen")
        assert run_cli(["screen", "--manifest", os.path.join(corpus_dir, "manifest.jsonl"),
                        "--out", out2, "--trees", "10", "--seed", "0"]) == 0
        assert os.path.exists(os.path.join(out2, "screened_metrics.json"))

    def test_prune_on_engineered_redundancy_corpus(self, tmp_path):
        from counterscope.datasets import redundancy_corpus
        from counterscope.traces import write_manifest

        root = str(tmp_path / "redundant")
        write_manifest(redundancy_corpus().corpus, root)
        out = str(tmp_path / "prune_eng")
        assert run_cli(["prune", "--manifest", os.path.join(root, "manifest.jsonl"),
                        "--threshold", "0.90", "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "prune_report.json")).read())
        assert "prims_clipped" not in report["retained"]
        assert "gpu_bus_busy" in report["retained"]

    def test_cv_reruns_byte_identical(self, corpus_dir, tmp_path):
        reports = []
        for run in ("p", "q"):
            out = str(tmp_path / f"cv_{run}")
            assert run_cli(["cv", "--manifest",
                            os.path.join(corpus_dir, "manifest.jsonl"),
                            "--out", out, "--k", "2", "--trees", "10",
                            "--seed", "3"]) == 0
            with open(os.path.join(out, "report.json"), "rb") as fh:
                reports.append(fh.read())
        assert reports[0] == reports[1]

    def test_count(self, corpus_dir, tmp_path, catalog):
        from counterscope.simulator import avatar_staircase
        from counterscope.traces import write_wide_csv

        out = str(tmp_path / "count")
        trace_path = str(tmp_path / "stairs.csv")
        write_wide_csv(avatar_staircase(3, 5, catalog, noise_sigma=0.0).traces,
                       trace_path)
        assert run_cli(["count", "--trace", trace_path, "--out", out]) == 0
        payload = json.loads(open(os.path.join(out, "count.json")).read())
        assert payload["count"] == 3

    def test_flags_do_not_carry_over_to_the_next_call(self, tmp_path, catalog):
        """main() reuses one parser; a flag of one call must not become the
        default of the next."""
        from counterscope.simulator import avatar_staircase
        from counterscope.traces import write_wide_csv

        trace_path = str(tmp_path / "stairs.csv")
        write_wide_csv(avatar_staircase(3, 5, catalog, noise_sigma=0.0).traces, trace_path)
        windows = []
        for name, flags in (("with", ["--window", "5"]), ("without", [])):
            out = str(tmp_path / name)
            assert run_cli(["count", "--trace", trace_path, *flags, "--out", out]) == 0
            windows.append(json.loads(open(os.path.join(out, "effective_config.json")).read())
                           ["window"])
        assert windows == [5, 3]

    def test_correlate(self, scene_file, tmp_path):
        sim = str(tmp_path / "sim")
        run_cli(["simulate", scene_file, "--out", sim])
        out = str(tmp_path / "corr")
        assert run_cli(["correlate", "--pixels", os.path.join(sim, "pixels.csv"),
                        "--trace", os.path.join(sim, "trace.csv"),
                        "--metric", "non_base_level_textures", "--out", out]) == 0
        payload = json.loads(open(os.path.join(out, "correlation.json")).read())
        assert set(payload) >= {"slope", "intercept", "r_squared", "pearson"}
        assert payload["pearson"] > 0.9

    def test_correlate_on_default_vr_size_sweep(self, tmp_path):
        from counterscope.datasets import pixel_sweep_script
        from counterscope.simulator import script_to_dict

        scene = tmp_path / "sweep.json"
        scene.write_text(json.dumps(script_to_dict(pixel_sweep_script(1000, seed=11))))
        sim = str(tmp_path / "sim")
        assert run_cli(["simulate", str(scene), "--out", sim]) == 0
        out = str(tmp_path / "corr")
        assert run_cli(["correlate", "--pixels", os.path.join(sim, "pixels.csv"),
                        "--trace", os.path.join(sim, "trace.csv"), "--out", out]) == 0
        payload = json.loads(open(os.path.join(out, "correlation.json")).read())
        assert payload["pearson"] >= 0.95
        assert payload["r_squared"] >= 0.90

    @pytest.mark.parametrize("model", ["rf", "svm", "knn", "mlp"])
    @pytest.mark.parametrize("layout", ["stat4", "stat2", "sequence"])
    def test_train_eval_matrix(self, corpus_dir, tmp_path, model, layout):
        manifest = os.path.join(corpus_dir, "manifest.jsonl")
        mdir = str(tmp_path / f"{model}_{layout}")
        args = ["train", "--manifest", manifest, "--out", mdir,
                "--model", model, "--layout", layout, "--seed", "0"]
        if model == "rf":
            args += ["--trees", "10"]
        if model == "mlp":
            args += ["--epochs", "5"]
        if model == "svm":
            args += ["--epochs", "5"]
        assert run_cli(args) == 0
        out = str(tmp_path / f"eval_{model}_{layout}")
        assert run_cli(["eval", "--manifest", manifest,
                        "--model-file", os.path.join(mdir, "model.json"),
                        "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_defend_detect_and_inject(self, scene_file, tmp_path):
        log = tmp_path / "access.log"
        log.write_text("".join(f"{k}.0\n" for k in range(30)))
        out = str(tmp_path / "det")
        assert run_cli(["defend", "detect", "--log", str(log), "--out", out]) == 0
        verdict = json.loads(open(os.path.join(out, "verdict.json")).read())
        assert verdict["flagged"] is True
        sim = str(tmp_path / "sim")
        run_cli(["simulate", scene_file, "--out", sim])
        out2 = str(tmp_path / "inj")
        assert run_cli(["defend", "inject", "--trace", os.path.join(sim, "trace.csv"),
                        "--strategy", "gaussian", "--sigma", "2.0", "--out", out2]) == 0
        assert os.path.exists(os.path.join(out2, "injected.csv"))

    def test_defend_curve(self, corpus_dir, tmp_path):
        out = str(tmp_path / "curve")
        assert run_cli(["defend", "curve", "--manifest",
                        os.path.join(corpus_dir, "manifest.jsonl"),
                        "--levels", "0,20", "--trees", "10", "--out", out]) == 0
        lines = open(os.path.join(out, "degradation.csv")).read().splitlines()
        assert lines[0] == "level,accuracy,macro_f1"
        assert len(lines) == 3
        assert os.path.exists(os.path.join(out, "degradation.svg"))


class TestInputImmutability:
    def test_subcommands_do_not_touch_inputs(self, spec_file, tmp_path):
        corp = str(tmp_path / "corp")
        run_cli(["gen-corpus", spec_file, "--out", corp])
        manifest = os.path.join(corp, "manifest.jsonl")

        def snapshot():
            out = {}
            for base, _, names in os.walk(corp):
                for name in names:
                    path = os.path.join(base, name)
                    with open(path, "rb") as fh:
                        out[path] = fh.read()
            return out

        before = snapshot()
        run_cli(["cv", "--manifest", manifest, "--out", str(tmp_path / "cv"),
                 "--k", "2", "--trees", "5", "--seed", "0"])
        run_cli(["prune", "--manifest", manifest, "--out", str(tmp_path / "pr")])
        assert snapshot() == before


class TestSeedEnvVar:
    def test_env_seed_used_as_default(self, spec_file, tmp_path, monkeypatch):
        corp = str(tmp_path / "corp")
        run_cli(["gen-corpus", spec_file, "--out", corp])
        manifest = os.path.join(corp, "manifest.jsonl")
        out_env = str(tmp_path / "m_env")
        monkeypatch.setenv("COUNTERSCOPE_SEED", "123")
        assert run_cli(["train", "--manifest", manifest, "--out", out_env,
                        "--trees", "10"]) == 0
        monkeypatch.delenv("COUNTERSCOPE_SEED")
        out_flag = str(tmp_path / "m_flag")
        assert run_cli(["train", "--manifest", manifest, "--out", out_flag,
                        "--trees", "10", "--seed", "123"]) == 0
        with open(os.path.join(out_env, "model.json"), "rb") as fa, \
                open(os.path.join(out_flag, "model.json"), "rb") as fb:
            assert fa.read() == fb.read()


class TestConfigPrecedence:
    def test_flag_beats_config(self, spec_file, tmp_path):
        corp = str(tmp_path / "corp")
        run_cli(["gen-corpus", spec_file, "--out", corp])
        manifest = os.path.join(corp, "manifest.jsonl")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trees": 5}))
        out = str(tmp_path / "model")
        assert run_cli(["train", "--manifest", manifest, "--out", out,
                        "--config", str(config), "--trees", "7", "--seed", "0"]) == 0
        model = json.loads(open(os.path.join(out, "model.json")).read())
        assert model["model"]["n_trees"] == 7
        out2 = str(tmp_path / "model2")
        assert run_cli(["train", "--manifest", manifest, "--out", out2,
                        "--config", str(config), "--seed", "0"]) == 0
        model2 = json.loads(open(os.path.join(out2, "model.json")).read())
        assert model2["model"]["n_trees"] == 5


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "counterscope.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "counterscope" in proc.stdout


# Golden outputs: sha256 over every file a command writes (effective_config.json
# excluded, since it echoes the output path). Pinned so that a refactor of the
# simulator, defence or step counter cannot drift the bytes unnoticed.
GOLDEN_SPEC = {
    "seed": 17,
    "repetitions": 2,
    "classes": [
        {"label": "vr_app", "script": {"scene_type": "vr", "duration_s": 24, "events": [
            {"kind": "app_session", "app_id": "vr_app", "t_start": 4, "t_end": 18,
             "intensity": {"gpu_bus_busy": 0.8, "texture_l2_miss": 0.3,
                           "prims_clipped": 0.6}}]}},
        {"label": "ar_joins", "script": {"scene_type": "ar", "duration_s": 40, "events": [
            {"kind": "avatar_join", "t_join": 12},
            {"kind": "avatar_join", "t_join": 24},
            {"kind": "object_sweep", "size_s": 4.0, "speed_v": 2.0, "depth_z": 3.0,
             "x_start": 20.0, "x_end": -20.0, "t_start": 2.0}]}},
        {"label": "vr_static", "script": {
            "scene_type": "vr", "duration_s": 24, "fov_width_w": 6.0,
            "noise_sigma": {"gpu_bus_busy": 0.0, "prims_clipped": 3.0},
            "events": [{"kind": "static_object", "size_s": 3.0, "depth_z": 2.0,
                        "t_start": 6, "t_end": 14}]}},
    ],
}

GOLDEN_SHA256 = {
    "gen-corpus":
        "eed8a99e3550126d9684e6e6c86318aed6ede11474b12b8446dc31e7f11654c9",
    "gen-corpus-partial-profile":
        "74326088522b19fc18bdf86c8425af69c170d311b7167efa1fa4bf1944590576",
    "count":
        "a4a85c04f438f2814f1ab4f74c6a0efc2eb071759fe009f9d181c1982a1b4ec9",
    "defend-gaussian":
        "101836d0a1b407a57b8098a0718dead9305db40a92e97d6399ddcb1c0f98903c",
    "defend-dummy":
        "4f95408d192cee5baef743176ae1acc2faa4246e2bb40bb43ad0d2f856ba85e4",
}


def _tree_sha256(root):
    digest = hashlib.sha256()
    for base, dirs, names in os.walk(root):
        dirs.sort()
        for name in sorted(names):
            if name == "effective_config.json":
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def test_golden_output_bytes(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GOLDEN_SPEC))
    profile = tmp_path / "partial_profile.json"
    profile.write_text(json.dumps({"gpu_bus_busy": {
        "b_ar": 40.0, "b_vr": 35.0, "g": 50.0, "delta": 6.0, "sigma": 0.75}}))
    out = {name: str(tmp_path / name) for name in GOLDEN_SHA256}
    assert run_cli(["gen-corpus", str(spec), "--out", out["gen-corpus"]]) == 0
    assert run_cli(["gen-corpus", str(spec), "--profile", str(profile),
                    "--out", out["gen-corpus-partial-profile"]]) == 0
    trace = os.path.join(out["gen-corpus"], "traces", "0002_ar_joins.csv")
    assert run_cli(["count", "--trace", trace, "--out", out["count"]]) == 0
    assert run_cli(["defend", "inject", "--trace", trace, "--strategy", "gaussian",
                    "--sigma", "3", "--seed", "4", "--out", out["defend-gaussian"]]) == 0
    assert run_cli(["defend", "inject", "--trace", trace, "--strategy", "dummy",
                    "--rate", "0.5", "--seed", "4", "--out", out["defend-dummy"]]) == 0
    assert {name: _tree_sha256(path) for name, path in out.items()} == GOLDEN_SHA256


# sha256 of the model-path outputs on the small test corpus, recorded before
# the forest moved to flat arrays, so that its trees, probabilities and
# reports stay byte-identical.
GOLDEN_MODEL_SHA256 = {
    "train/model.json":
        "3d1d8172fb9472f465c2d6f6882e79ed68e95cf7e8ec0126f56ca04ea305b129",
    "eval/report.json":
        "9a749b054273099a715736ba9cda0e51659fb174103748d62c7f151cb82e649e",
    "cv/report.json":
        "5fad779bedf51a1e4f5c16ac261c6398eb63f7247f57ffd8ec3308c6c256e1e8",
    "cv/report.csv":
        "02a0999ccd081ac8d20518518bdbe6fea2ad0a822a96be752e84bc053d7406bd",
    "lopo/report.json":
        "68a462020fda19adefffbb443161a4072be8bd025054023be71818ea7b8f4888",
    "lopo/report.csv":
        "3d666cd6ec03fecc41880f85f85c83f22cde6a108f08258dddce0bc5afe7ebd3",
    "screen/screened_metrics.json":
        "1b0331e7928dc88dee84089749b3d8bf0478752e57e5020a918e741b5879a695",
}


def test_golden_model_output_bytes(tmp_path):
    manifest = _gen_small_corpus(tmp_path)
    out = {name: str(tmp_path / name) for name in ("train", "eval", "cv", "lopo", "screen")}
    assert run_cli(["train", "--manifest", manifest, "--out", out["train"],
                    "--trees", "20", "--seed", "9"]) == 0
    assert run_cli(["eval", "--manifest", manifest, "--model-file",
                    os.path.join(out["train"], "model.json"), "--out", out["eval"]]) == 0
    assert run_cli(["cv", "--manifest", manifest, "--out", out["cv"], "--k", "2",
                    "--trees", "10", "--seed", "3"]) == 0
    assert run_cli(["lopo", "--manifest", manifest, "--out", out["lopo"],
                    "--trees", "10", "--seed", "3"]) == 0
    assert run_cli(["screen", "--manifest", manifest, "--out", out["screen"],
                    "--trees", "10", "--seed", "0"]) == 0
    digests = {}
    for name in GOLDEN_MODEL_SHA256:
        with open(tmp_path / name, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == GOLDEN_MODEL_SHA256


def _gen_small_corpus(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(small_corpus_spec()))
    corp = str(tmp_path / "corp")
    assert run_cli(["gen-corpus", str(spec), "--out", corp]) == 0
    return os.path.join(corp, "manifest.jsonl")


def _spec_with(edit):
    spec = small_corpus_spec()
    edit(spec)
    return spec


@pytest.mark.parametrize("name, spec, profile, field", [
    ("no-label", _spec_with(lambda s: s["classes"][1].pop("label")), None, "'label'"),
    ("bad-duration",
     _spec_with(lambda s: s["classes"][0]["script"].update(duration_s="abc")),
     None, "'duration_s'"),
    ("bad-t-join", _spec_with(lambda s: s["classes"][0]["script"]["events"].append(
        {"kind": "avatar_join", "t_join": "x"})), None, "'t_join'"),
    ("negative-sigma", small_corpus_spec(),
     {"gpu_bus_busy": {"b_ar": 1.0, "b_vr": 1.0, "g": 1.0, "delta": 1.0, "sigma": -1.0}},
     "'sigma'"),
    # bools and lists were once coerced: True to 1, ["x"] to "['x']"
    ("bool-repetitions", _spec_with(lambda s: s.update(repetitions=True)), None,
     "'repetitions'"),
    ("list-label", _spec_with(lambda s: s["classes"][0].update(label=["x"])), None, "'label'"),
    ("bool-sigma", small_corpus_spec(),
     {"gpu_bus_busy": {"b_ar": 1.0, "b_vr": 1.0, "g": 1.0, "delta": 1.0, "sigma": True}},
     "'sigma'"),
])
def test_malformed_inputs_exit_2_naming_file_and_field(tmp_path, capsys, name, spec,
                                                       profile, field):
    spec_path = tmp_path / f"{name}.json"
    spec_path.write_text(json.dumps(spec))
    argv = ["gen-corpus", str(spec_path), "--out", str(tmp_path / "out")]
    bad_file = spec_path
    if profile is not None:
        bad_file = tmp_path / "profile.json"
        bad_file.write_text(json.dumps(profile))
        argv += ["--profile", str(bad_file)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert str(bad_file) in err and field in err, err


def _scene_with(edit):
    scene = {"scene_type": "vr", "duration_s": 20, "seed": 3, "events": [
        {"kind": "app_session", "app_id": "a", "t_start": 2, "t_end": 18,
         "intensity": {"gpu_bus_busy": 0.5}},
        {"kind": "object_sweep", "size_s": 6.0, "speed_v": 1.0, "depth_z": 2.0,
         "x_start": -15.0, "x_end": 15.0, "t_start": 5.0}]}
    edit(scene)
    return scene


# name: (command, input file, its whole message after the file name)
SCENE_FAULTS = {
    "sweep-depth-0": ("simulate", _scene_with(lambda s: s["events"][1].update(depth_z=0)),
                      "events[1]: field 'depth_z' must be > 0, got 0"),
    "fov-0": ("simulate", _scene_with(lambda s: s.update(fov_width_w=0)),
              "field 'fov_width_w' must be > 0, got 0"),
    "session-past-duration": ("simulate",
                              _scene_with(lambda s: s["events"][0].update(t_end=30)),
                              "events[0]: field 't_end' must be <= duration_s 20, got 30"),
    "intensity-2": ("gen-corpus", _spec_with(
        lambda s: s["classes"][0]["script"]["events"][0]["intensity"].update(
            non_base_level_textures=2)),
        "classes[0]: script: events[0]: field 'intensity.non_base_level_textures' "
        "must be <= 1, got 2"),
    "sweep-in-place": ("simulate", _scene_with(lambda s: s["events"][1].update(x_end=-15.0)),
                       "events[1]: field 'x_end' must differ from x_start, got -15.0"),
    "repeated-label": ("gen-corpus", _spec_with(lambda s: s["classes"][1].update(label="appA")),
                       "classes[1]: field 'label' repeats 'appA'"),
}


@pytest.mark.parametrize("name", list(SCENE_FAULTS))
def test_a_scene_fault_names_the_file_the_event_and_the_field(tmp_path, capsys, name):
    command, doc, message = SCENE_FAULTS[name]
    bad = tmp_path / f"{name}.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli([command, str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_the_readme_scene_script_runs(tmp_path):
    """The documented example obeys the bounds the reader declares."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    after = readme.split("A scene script is a JSON object:", 1)[1]
    (tmp_path / "scene.json").write_text(after.split("```json\n", 1)[1].split("```", 1)[0])
    assert run_cli(["simulate", str(tmp_path / "scene.json"),
                    "--out", str(tmp_path / "out")]) == 0


CATALOG_ENTRY = {"id": "m_one", "display_name": "One", "category": "stalls", "unit": "percent"}

# name: (file content, argv, what the message names besides the file); {bad}
# is the file, {manifest} and {spec} a small valid corpus and its spec.
MALFORMED_FILES = {
    "manifest-line-not-object": ("5\n", ["prune", "--manifest", "{bad}"], ":1: "),
    "manifest-trace-not-string": ('{"trace": 5, "label": "a"}\n',
                                  ["prune", "--manifest", "{bad}"], "'trace'"),
    "manifest-not-json": ('{"trace": "t.csv",\n', ["prune", "--manifest", "{bad}"],
                          ":1: not valid JSON"),
    "catalog-id-not-string": (json.dumps([{**CATALOG_ENTRY, "id": 5}]),
                              ["gen-corpus", "{spec}", "--catalog", "{bad}"], "'id'"),
    "catalog-not-a-list": (json.dumps(CATALOG_ENTRY),
                           ["gen-corpus", "{spec}", "--catalog", "{bad}"], "a catalog"),
    "access-log-not-a-number": ("1.0\nabc\n", ["defend", "detect", "--log", "{bad}"],
                                "line 2"),
    "access-log-nan": ("1.0\nnan\n2.0\n", ["defend", "detect", "--log", "{bad}"], "finite"),
    "trace-bad-cell": ("t_s,gpu_bus_busy\n0,1.0\n1,abc\n", ["count", "--trace", "{bad}"],
                       "row 3, col 2"),
    "trace-not-utf8": (b"t_s,gpu_bus_busy\n0,\xff\n", ["count", "--trace", "{bad}"],
                       "row 2, col 2"),
    "access-log-not-utf8": (b"1.0\n\xff\n", ["defend", "detect", "--log", "{bad}"], "line 2"),
    "config-not-json": ("{x", ["cv", "--manifest", "{manifest}", "--config", "{bad}"],
                        "not valid JSON"),
    "config-not-object": ("[1]", ["cv", "--manifest", "{manifest}", "--config", "{bad}"],
                          "a config file"),
    "grid-not-json": ("[{", ["grid", "--manifest", "{manifest}", "--grid", "{bad}"],
                      "not valid JSON"),
    "grid-entry-not-object": ("[5]", ["grid", "--manifest", "{manifest}", "--grid", "{bad}"],
                              "entry 0"),
    "model-not-json": ("{x", ["eval", "--manifest", "{manifest}", "--model-file", "{bad}"],
                       "not valid JSON"),
    "profile-not-json": ("{x", ["gen-corpus", "{spec}", "--profile", "{bad}"],
                         "not valid JSON"),
    "script-not-json": ("{x", ["simulate", "{bad}"], "not valid JSON"),
    "spec-not-json": ("{x", ["gen-corpus", "{bad}"], "not valid JSON"),
}


@pytest.mark.parametrize("name", list(MALFORMED_FILES))
def test_malformed_file_exits_2_naming_file_and_field(tmp_path, capsys, name):
    """Every input file the CLI reads exits 2, never 3, on a malformed
    value or a syntax error, naming the file and the field or line."""
    content, argv, field = MALFORMED_FILES[name]
    bad = tmp_path / "bad.input"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    paths = {"bad": str(bad), "spec": str(tmp_path / "spec.json"), "manifest": ""}
    if "{manifest}" in argv:
        paths["manifest"] = _gen_small_corpus(tmp_path)
    else:
        (tmp_path / "spec.json").write_text(json.dumps(small_corpus_spec()))
    capsys.readouterr()
    assert run_cli([a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and field in err, err


def test_count_under_partial_profile_falls_back(tmp_path):
    """Metrics absent from the profile take the simulator's fallback sigma in
    both gen-corpus and count."""
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"gpu_bus_busy": {
        "b_ar": 34.0, "b_vr": 30.0, "g": 55.0, "delta": 8.0, "sigma": 1.0}}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GOLDEN_SPEC))
    corp = str(tmp_path / "corp")
    assert run_cli(["gen-corpus", str(spec), "--profile", str(profile), "--out", corp]) == 0
    out = str(tmp_path / "count")
    assert run_cli(["count", "--trace", os.path.join(corp, "traces", "0002_ar_joins.csv"),
                    "--profile", str(profile), "--out", out]) == 0
    assert json.loads(open(os.path.join(out, "count.json")).read())["count"] == 2


def test_count_is_count_participants_under_a_profile(tmp_path, catalog, profile):
    """`count --profile P` writes the counts and the step events of
    count_participants(trace, catalog, profile=P)."""
    from counterscope.simulator import avatar_staircase
    from counterscope.stepcount import count_participants, steps_to_csv
    from counterscope.traces import write_wide_csv

    trace = avatar_staircase(3, 5, catalog, seed=9).traces
    keen = {m: dataclasses.replace(r, sigma=r.sigma / 4) for m, r in profile.items()}
    trace_path, profile_path, out = tmp_path / "stairs.csv", tmp_path / "keen.json", tmp_path / "c"
    write_wide_csv(trace, trace_path)
    profile_path.write_text(json.dumps({m: dataclasses.asdict(r) for m, r in keen.items()}))
    count, per_metric, events = count_participants(trace, catalog, profile=keen)
    assert count != count_participants(trace, catalog)[0]  # the profile matters here
    assert run_cli(["count", "--trace", str(trace_path), "--profile", str(profile_path),
                    "--out", str(out)]) == 0
    assert json.loads((out / "count.json").read_text()) == {"count": count,
                                                            "per_metric": per_metric}
    steps_to_csv(events, tmp_path / "steps.csv")
    assert (out / "steps.csv").read_bytes() == (tmp_path / "steps.csv").read_bytes()
    assert json.loads((out / "effective_config.json").read_text())["profile"] == str(profile_path)


def _command_head(tmp_path, catalog, command):
    """The argv of `command` ("count --min-jump 5", "train", "prune" or
    "defend detect") on small valid inputs, without --out."""
    from counterscope.simulator import avatar_staircase
    from counterscope.traces import write_wide_csv

    if command in ("train", "prune"):
        return [command, "--manifest", _gen_small_corpus(tmp_path)]
    if command == "defend detect":
        log = tmp_path / "access.log"
        log.write_text("".join(f"{2 * t}.0\n" for t in range(15)))
        return ["defend", "detect", "--log", str(log)]
    trace = tmp_path / "stairs.csv"
    write_wide_csv(avatar_staircase(1, 5, catalog, noise_sigma=0.0).traces, trace)
    return ["count", "--trace", str(trace), "--min-jump", "5"]


@pytest.mark.parametrize("command", ["count --min-jump 5", "train", "defend detect"])
@pytest.mark.parametrize("key", ["catalog", "profile"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_missing_catalog_or_profile_exits_2_where_it_is_not_read(tmp_path, capsys, catalog,
                                                                 command, key, source):
    """A --catalog or --profile path that does not exist exited 0 from a
    command that never opens it."""
    head = _command_head(tmp_path, catalog, command)
    missing = str(tmp_path / "nonexistent.json")
    where, options = f"--{key}", [f"--{key}", missing]
    if source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: missing}))
        where, options = f"{config}: field '{key}'", ["--config", str(config)]
    capsys.readouterr()
    assert run_cli([*head, *options, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert where in err and missing in err, err


@pytest.mark.parametrize("command", ["prune", "count --min-jump 5", "defend detect"])
def test_a_config_seed_is_checked_where_it_is_not_read(tmp_path, capsys, catalog, command):
    """A config file's malformed seed exited 0 from a command that never
    reads it; a valid one is still not recorded there."""
    head = _command_head(tmp_path, catalog, command)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": "abc"}))
    capsys.readouterr()
    assert run_cli([*head, "--config", str(config), "--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {config}: field 'seed' must be an integer or null, "
                   "got 'abc'\n"), err
    config.write_text(json.dumps({"seed": 5}))
    out = tmp_path / "good"
    assert run_cli([*head, "--config", str(config), "--out", str(out)]) == 0
    assert "seed" not in json.loads((out / "effective_config.json").read_text())


def test_prune_against_a_short_catalog_names_the_manifest_and_the_catalog(tmp_path, capsys):
    """The error named neither file: 'corpus metrics not in catalog order: [...]'."""
    manifest = _gen_small_corpus(tmp_path)
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([{"id": "gpu_bus_busy", "display_name": "GPU % Bus Busy",
                                    "category": "gpu_utilization", "unit": "percent"}]))
    capsys.readouterr()
    assert run_cli(["prune", "--manifest", manifest, "--catalog", str(catalog),
                    "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert manifest in err and str(catalog) in err and "not in catalog order" in err, err


def test_negative_seed_reduces_modulo_2_64(tmp_path):
    manifest = _gen_small_corpus(tmp_path)
    reports = []
    for seed in ("-1", str(2**64 - 1)):
        out = str(tmp_path / f"cv{seed}")
        assert run_cli(["cv", "--manifest", manifest, "--out", out, "--k", "2",
                        "--trees", "5", "--seed", seed]) == 0
        reports.append([open(os.path.join(out, name), "rb").read()
                        for name in ("report.json", "report.csv")])
    assert reports[0] == reports[1]


def test_no_protocol_fits_the_normalizer_on_test_items(tmp_path, monkeypatch):
    """cv, lopo and grid fit the normalizer once per fold, on exactly the
    items outside the fold under test, through whichever binding is called."""
    import counterscope.cli
    import counterscope.features
    from counterscope.models import stratified_folds
    from counterscope.traces import read_manifest

    manifest = _gen_small_corpus(tmp_path)
    corpus = read_manifest(manifest)
    index = {item.trace.matrix.tobytes(): i for i, item in enumerate(corpus)}
    seen = []
    fit_normalizer = counterscope.features.fit_normalizer

    def spy(train, metrics):
        seen.append(sorted(index[item.trace.matrix.tobytes()] for item in train))
        return fit_normalizer(train, metrics)

    for module in (counterscope.cli, counterscope.features):
        monkeypatch.setattr(module, "fit_normalizer", spy)
    groups = corpus.groups()
    lopo_folds = [[i for i, g in enumerate(groups) if g == gg] for gg in sorted(set(groups))]
    kfolds = stratified_folds(corpus.labels(), 2, seed=3)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"n_trees": 2}, {"max_depth": 1}]))
    runs = {
        "cv": (["cv", "--k", "2"], kfolds),
        "lopo": (["lopo"], lopo_folds),
        "grid": (["grid", "--k", "2", "--grid", str(grid)], kfolds * 2),
    }
    for name, (argv, folds) in runs.items():
        seen.clear()
        assert run_cli(argv + ["--manifest", manifest, "--trees", "3", "--seed", "3",
                               "--out", str(tmp_path / name)]) == 0
        train_sets = [sorted(set(range(len(corpus))) - set(fold)) for fold in folds]
        assert seen == train_sets, name


def test_grid_unknown_key_names_file_entry_and_key(tmp_path, capsys):
    manifest = _gen_small_corpus(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"n_trees": 5}, {"n_tree": 5}]))
    assert run_cli(["grid", "--manifest", manifest, "--grid", str(grid), "--k", "2",
                    "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert str(grid) in err and "entry 1" in err and "'n_tree'" in err, err


def test_grid_entry_overrides_flags(tmp_path):
    manifest = _gen_small_corpus(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"max_depth": 1}, {"max_depth": 3}]))
    out = str(tmp_path / "g")
    assert run_cli(["grid", "--manifest", manifest, "--grid", str(grid), "--k", "2",
                    "--trees", "5", "--out", out]) == 0
    assert json.loads(open(os.path.join(out, "best_params.json")).read()) in (
        {"max_depth": 1}, {"max_depth": 3})
    config = json.loads(open(os.path.join(out, "effective_config.json")).read())
    assert config["trees"] == 5


def _eval_model_file(tmp_path):
    from counterscope.features import Fingerprinter
    from counterscope.models import save_model, train_rf
    from counterscope.traces import read_manifest

    manifest = _gen_small_corpus(tmp_path)
    corpus = read_manifest(manifest)
    fp = Fingerprinter.fit(corpus, lambda X, y: train_rf(X, y, n_trees=3),
                           corpus.metrics[:3], "stat4")
    path = str(tmp_path / "model.json")
    save_model(fp, path)
    return manifest, path, corpus


def _rename_first_metric(payload):
    """Renames the first metric in 'metrics' and 'normalizer' alike, to one
    the corpus lacks."""
    payload["normalizer"]["not_a_metric"] = payload["normalizer"].pop(payload["metrics"][0])
    payload["metrics"][0] = "not_a_metric"


def _envelope(key, value):
    return {"edit": lambda payload: payload.update({key: value})}


# the context of the written file is edited after saving
@pytest.mark.parametrize("context, field", [
    ({"edit": lambda payload: payload.pop("metrics")}, "'metrics'"),
    ({"edit": lambda payload: payload.pop("layout")}, "'layout'"),
    ({"edit": lambda payload: payload.pop("normalizer")}, "'normalizer'"),
    (_envelope("layout", "stat2"), "model width 12"),
    (_envelope("normalizer", [1, 2]), "'normalizer'"),
    ({"edit": lambda payload: payload["normalizer"].update(gpu_bus_busy="x")},
     "'normalizer.gpu_bus_busy'"),
    ({"edit": lambda payload: payload["normalizer"].update(gpu_bus_busy=[0.0, -1.0])},
     "'normalizer.gpu_bus_busy'"),
    ({"edit": lambda payload: payload["normalizer"].pop("gpu_bus_busy")},
     "'normalizer.gpu_bus_busy'"),
    (_envelope("metrics", "abc"), "'metrics'"),
    (_envelope("layout", "stat9"), "'layout'"),
    ({"edit": _rename_first_metric}, "'metrics'"),
    (_envelope("metrics", ["gpu_bus_busy", "gpu_bus_busy"]), "'metrics'"),
    (_envelope("metrics", []), "feature width 0 != model width 12"),
])
def test_eval_refuses_to_coerce(tmp_path, capsys, context, field):
    manifest, path, _ = _eval_model_file(tmp_path)
    with open(path) as fh:
        payload = json.load(fh)
    context["edit"](payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert run_cli(["eval", "--manifest", manifest, "--model-file", path,
                    "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert path in err and field in err, err


def test_eval_width_mismatch_on_wider_corpus(tmp_path, capsys):
    """A 12-feature model whose metric list names all 30 corpus metrics would
    give 120 columns; the old CLI truncated them to 12 and exited 0."""
    from counterscope.features import Fingerprinter, fit_normalizer
    from counterscope.models import load_model, save_model

    manifest, path, corpus = _eval_model_file(tmp_path)
    model = load_model(path).model
    save_model(Fingerprinter(corpus.metrics, "stat4",
                             fit_normalizer(corpus, corpus.metrics), model), path)
    assert run_cli(["eval", "--manifest", manifest, "--model-file", path,
                    "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert path in err and "feature width 120 != model width 12" in err, err


def test_eval_unknown_labels_names_manifest_and_model(tmp_path, capsys):
    manifest, path, _ = _eval_model_file(tmp_path)
    spec = small_corpus_spec()
    spec["classes"][1]["label"] = "appC"
    (tmp_path / "other.json").write_text(json.dumps(spec))
    other = str(tmp_path / "other")
    assert run_cli(["gen-corpus", str(tmp_path / "other.json"), "--out", other]) == 0
    other_manifest = os.path.join(other, "manifest.jsonl")
    assert run_cli(["eval", "--manifest", other_manifest, "--model-file", path,
                    "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert other_manifest in err and f"{path}: field 'classes'" in err, err
    assert "['appC']" in err, err


def _drop(key):
    return lambda body: body.pop(key)


def _first_leaf(node):
    while "dist" not in node:
        node = node["left"]
    return node


@pytest.mark.parametrize("name, corrupt, field", [
    ("no-trees", _drop("trees"), "'trees'"),
    ("trees-not-list", lambda body: body.update(trees={"0": body["trees"][0]}), "'trees'"),
    ("n-trees-mismatch", lambda body: body.update(n_trees=body["n_trees"] + 1), "'n_trees'"),
    ("node-without-keys", lambda body: body["trees"][1].update(left={"feature": 0}),
     "'trees[1].left'"),
    ("split-without-threshold", lambda body: body["trees"][0].pop("threshold"),
     "'trees[0]'"),
    ("short-dist", lambda body: _first_leaf(body["trees"][2])["dist"].pop(), ".dist'"),
    ("long-dist", lambda body: _first_leaf(body["trees"][0])["dist"].append(0.0), ".dist'"),
    ("feature-too-large", lambda body: body["trees"][0].update(feature=body["n_features"]),
     "'trees[0].feature'"),
    ("feature-negative", lambda body: body["trees"][0].update(feature=-1),
     "'trees[0].feature'"),
    # other families: "<kind>:<case>"
    ("svm:weights-row-missing", lambda body: body["weights"].pop(), "'weights'"),
    ("svm:bias-bool", lambda body: body["biases"].__setitem__(0, True), "'biases'"),
    ("knn:k-0", lambda body: body.update(k=0), "'k'"),
    ("knn:k-string", lambda body: body.update(k="3"), "'k'"),
    ("knn:train-y-not-a-class", lambda body: body["train_y"].__setitem__(0, 2), "'train_y[0]'"),
    ("mlp:w2-wrong-shape", lambda body: body["w2"].pop(), "'w2'"),
    ("mlp:classes-not-strings", lambda body: body.update(classes=[0, 1]), "'classes[0]'"),
])
def test_malformed_rf_model_body_exits_2(tmp_path, capsys, name, corrupt, field):
    """eval refuses a corrupted model.json of every family (rf unless the
    case names another) with exit 2, naming the file and the field."""
    kind = name.partition(":")[0] if ":" in name else "rf"
    manifest = _gen_small_corpus(tmp_path)
    assert run_cli(["train", "--manifest", manifest, "--out", str(tmp_path / "m"),
                    "--model", kind, "--trees", "3", "--seed", "1"]) == 0
    path = tmp_path / "m" / "model.json"
    payload = json.loads(path.read_text())
    assert kind != "rf" or "feature" in payload["model"]["trees"][0]  # the root splits
    corrupt(payload["model"])
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(["eval", "--manifest", manifest, "--model-file", str(path),
                    "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and field in err, err


def test_model_body_missing_key_names_file_and_field(tmp_path, capsys):
    """A non-rf body lacking a key also exits 2 naming the file and the key."""
    manifest = _gen_small_corpus(tmp_path)
    assert run_cli(["train", "--manifest", manifest, "--out", str(tmp_path / "m"),
                    "--model", "svm"]) == 0
    path = tmp_path / "m" / "model.json"
    payload = json.loads(path.read_text())
    del payload["model"]["weights"]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(["eval", "--manifest", manifest, "--model-file", str(path),
                    "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "'weights'" in err, err


def _simulated(scene_file, tmp_path):
    sim = str(tmp_path / "sim")
    assert run_cli(["simulate", scene_file, "--out", sim]) == 0
    return os.path.join(sim, "pixels.csv"), os.path.join(sim, "trace.csv")


@pytest.mark.parametrize("source", ["flag", "config", "default"])
def test_correlate_unknown_metric_names_the_key_and_the_trace(scene_file, tmp_path, capsys,
                                                             source):
    """A --metric absent from the trace was a ValueError from list.index, exit 3."""
    pixels, trace = _simulated(scene_file, tmp_path)
    metric, where, options = "'nope'", "--metric", ["--metric", "nope"]
    if source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"metric": "nope"}))
        where, options = f"{config}: field 'metric'", ["--config", str(config)]
    elif source == "default":  # the pixels file has no non_base_level_textures column
        trace, metric, where, options = pixels, "'non_base_level_textures'", "default --metric", []
    capsys.readouterr()
    assert run_cli(["correlate", "--pixels", pixels, "--trace", trace, *options,
                    "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert where in err and trace in err and metric in err, err


def test_correlate_refuses_a_pixels_file_of_many_columns(scene_file, tmp_path, capsys):
    """A many-column --pixels file was read as its first column, exit 0."""
    _, trace = _simulated(scene_file, tmp_path)
    capsys.readouterr()
    assert run_cli(["correlate", "--pixels", trace, "--trace", trace,
                    "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert trace in err and "one value column" in err, err


def _five_faults(tmp_path, catalog):
    """argv and the exact stderr of five faults that each had an exception
    type of their own: a ragged CSV row, a missing trace file, a spec with one
    class, lopo on a one-group corpus, a trace with no catalog metric."""
    import numpy as np

    from counterscope.simulator import avatar_staircase
    from counterscope.traces import (CorpusItem, LabeledCorpus, TraceSet, write_manifest,
                                     write_wide_csv)

    (tmp_path / "ragged.csv").write_text("t_s,gpu_bus_busy\n0,1.0\n1,2.0,3.0\n")
    (tmp_path / "missing.jsonl").write_text('{"trace": "traces/none.csv", "label": "a"}\n')
    spec = small_corpus_spec()
    del spec["classes"][1]
    (tmp_path / "one.json").write_text(json.dumps(spec))
    trace = avatar_staircase(1, 5, catalog, noise_sigma=0.0).traces
    one_group = write_manifest(LabeledCorpus([CorpusItem(trace, "a", "g"),
                                              CorpusItem(trace, "b", "g")]), tmp_path / "g")
    write_wide_csv(TraceSet(["foo"], np.ones((20, 1))), tmp_path / "foo.csv")
    return {
        "ragged-row": (["count", "--trace", str(tmp_path / "ragged.csv")],
                       f"{tmp_path}/ragged.csv: row 3 has 3 cells, expected 2"),
        "missing-trace": (["prune", "--manifest", str(tmp_path / "missing.jsonl")],
                          f"{tmp_path}/traces/none.csv"),
        "one-class-spec": (["gen-corpus", str(tmp_path / "one.json")],
                           f"{tmp_path}/one.json: need >= 2 classes"),
        "one-group-lopo": (["lopo", "--manifest", one_group], "need >= 2 distinct groups"),
        "no-catalog-metric": (["count", "--trace", str(tmp_path / "foo.csv")],
                              "trace shares no metrics with the catalog"),
    }


@pytest.mark.parametrize("fault", ["ragged-row", "missing-trace", "one-class-spec",
                                   "one-group-lopo", "no-catalog-metric"])
def test_faults_that_lost_their_own_type_keep_exit_2_and_their_message(tmp_path, capsys,
                                                                      catalog, fault):
    argv, message = _five_faults(tmp_path, catalog)[fault]
    capsys.readouterr()
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _resized(tmp_path, name, seconds):
    """The small corpus with item i cut, or grown by repeating its last
    second, to seconds[i]; returns its manifest."""
    import numpy as np

    from counterscope.traces import (CorpusItem, LabeledCorpus, TraceSet, read_manifest,
                                     write_manifest)

    (tmp_path / name).mkdir()
    items = []
    for item, n in zip(read_manifest(_gen_small_corpus(tmp_path / name)), seconds):
        m = item.trace.matrix
        m = np.vstack([m, np.repeat(m[-1:], n - len(m), axis=0)]) if n > len(m) else m[:n]
        items.append(CorpusItem(TraceSet(item.trace.metrics, m), item.label, item.group))
    return write_manifest(LabeledCorpus(items), tmp_path / name / "resized")


def test_a_sequence_model_pads_a_shorter_test_item(tmp_path):
    """Test items were padded to the longest test item, not to the training
    width: eval of a model trained on 20 s + 24 s items and lopo with a group
    of 18 s items both exited 2 with 'feature width ... != model width ...'."""
    mixed = _resized(tmp_path, "mixed", [20, 20, 20, 20, 24, 24, 24, 24])
    model = str(tmp_path / "model")
    assert run_cli(["train", "--manifest", mixed, "--layout", "sequence", "--trees", "5",
                    "--out", model]) == 0
    assert run_cli(["eval", "--manifest", _gen_small_corpus(tmp_path),
                    "--model-file", os.path.join(model, "model.json"),
                    "--out", str(tmp_path / "eval")]) == 0
    short_group = _resized(tmp_path, "short", [18, 20, 20, 20, 18, 20, 20, 20])
    assert run_cli(["lopo", "--manifest", short_group, "--layout", "sequence",
                    "--trees", "5", "--out", str(tmp_path / "lopo")]) == 0


@pytest.mark.parametrize("command", ["cv --k 2", "lopo", "eval"])
def test_a_test_item_longer_than_the_fitted_sequence_names_the_manifest_line(
        tmp_path, capsys, command):
    """cv and lopo with one 22 s item among 20 s ones exited 2 with an
    unnamed 'feature width ... != model width ...'."""
    manifest = _resized(tmp_path, "long", [20, 20, 22, 20, 20, 20, 20, 20])
    argv = [*command.split(), "--manifest", manifest, "--layout", "sequence", "--trees", "5"]
    if command == "eval":
        model = str(tmp_path / "model")
        assert run_cli(["train", "--manifest", _gen_small_corpus(tmp_path), "--layout",
                        "sequence", "--trees", "5", "--out", model]) == 0
        argv = ["eval", "--manifest", manifest,
                "--model-file", os.path.join(model, "model.json")]
    capsys.readouterr()
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    line = (f"{manifest}:3: traces/0002_appA.csv: 22 seconds, longer than the 20 the "
            "sequences were fitted to\n")
    # the fault is the corpus's, so eval does not blame the model file
    assert (err == f"error: {line}" if command == "eval" else line in err), err
