"""The benchmark's tracer still finds every function it wraps.

perfbench/spans.py wraps public functions at the names their callers look
up (counterscope.cli.train_rf, ...). A refactor that moves one of them makes
the traced benchmark run fail, and one that routes around a wrapped name
makes a per-layer metric read 0; this test catches both in a few seconds
instead of the minute and a half perfbench/selftest.py takes.
"""

import json
import os

from counterscope.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_wraps_every_target_and_counts_forest_fits(tmp_path, monkeypatch):
    from test_cli import small_corpus_spec

    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(small_corpus_spec()))
    assert main(["gen-corpus", str(spec), "--out", str(tmp_path / "corp")]) == 0
    m = ["--manifest", str(tmp_path / "corp" / "manifest.jsonl")]
    commands = {
        "cv": ["cv", *m, "--k", "2", "--trees", "5"],
        "train": ["train", *m, "--trees", "5"],
        "eval": ["eval", *m, "--model-file", str(tmp_path / "train" / "model.json")],
        "lopo": ["lopo", *m, "--trees", "5"],
        "screen": ["screen", *m, "--trees", "5"],
        "curve": ["defend", "curve", *m, "--trees", "5", "--levels", "0,2"],
    }
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        for name, argv in commands.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == 0, name
            if name == "cv":
                assert tracer.counts["models.evaluation.folds"] == 2
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    keys = {key for key, *_ in tracer.spans}
    assert {"models.forest.fit", "features.normalize", "features.build"} <= keys
    assert tracer.counts["models.forest.fit.trees"] > 0
    assert tracer.counts["features.cells"] > 0
    assert tracer.counts["models.serialize.bytes"] > 0
