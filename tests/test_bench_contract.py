"""The benchmark's tracer still finds every function it wraps.

perfbench/spans.py wraps public functions at the names their callers look
up (counterscope.cli.train_rf, ...). A refactor that moves one of them makes
the traced benchmark run fail; this test catches that in about a second
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
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert main(["cv", "--manifest", str(tmp_path / "corp" / "manifest.jsonl"),
                     "--k", "2", "--trees", "5", "--out", str(tmp_path / "cv")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert any(key == "models.forest.fit" for key, *_ in tracer.spans)
    assert tracer.counts["models.forest.fit.trees"] > 0
    assert tracer.counts["models.evaluation.folds"] == 2
