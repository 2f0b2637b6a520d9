"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned here and nowhere else; the helper corpora come from
counterscope.datasets so every number below is reproducible from seeds.
"""

import csv
import json
import math
import os

import numpy as np
import pytest

from counterscope.catalog import builtin_catalog
from counterscope.cli import main as cli_main
from counterscope.datasets import (
    degradation_levels,
    demo_app_corpus,
    pixel_sweep_script,
    redundancy_corpus,
    speed_sweep_script,
)
from counterscope.defense import AccessLog, detect_profiler_access, evaluate_countermeasure
from counterscope.features import Fingerprinter
from counterscope.models import evaluate, kfold_cv, stratified_split, train_rf
from counterscope.models.mlp import init_params, loss_and_grads
from counterscope.selection import correlation_prune
from counterscope.simulator import avatar_staircase, builtin_profile, simulate
from counterscope.stats import linreg, pearson
from counterscope.stepcount import count_participants
from counterscope.traces import write_manifest
from stat_reference import summarize
from test_models_mlp import flatten, unflatten

CATALOG = builtin_catalog()
PROFILE = builtin_profile()
NBLT = "non_base_level_textures"


def report(criterion: str, passed: bool, detail: str = "") -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def app_corpus():
    return demo_app_corpus(n_classes=20, repetitions=20, seed=7)


def test_criterion_1_statistical_oracles():
    """pearson/summarize within 1e-12 and linreg within 1e-10 of oracles."""
    rng = np.random.default_rng(101)
    worst_p = worst_s = worst_l = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 65))
        x = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        y = rng.standard_normal(n) + rng.uniform(-1, 1) * x

        mx, my = sum(x) / n, sum(y) / n
        cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
        sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
        sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
        worst_p = max(worst_p, abs(pearson(x, y) - cov / (sx * sy)))

        mu, sigma, mx_, mn_ = summarize(x)
        worst_s = max(worst_s, abs(mu - mx), abs(sigma - sx),
                      abs(mx_ - max(x)), abs(mn_ - min(x)))

        A = np.array([[n, x.sum()], [x.sum(), (x * x).sum()]])
        intercept, slope = np.linalg.solve(A, np.array([y.sum(), (x * y).sum()]))
        fit = linreg(x, y)
        worst_l = max(worst_l, abs(fit.slope - slope), abs(fit.intercept - intercept))

    ok = worst_p < 1e-12 and worst_s < 1e-12 and worst_l < 1e-10
    report("1 statistical oracle equivalence", ok,
           f"pearson {worst_p:.1e}, summarize {worst_s:.1e}, linreg {worst_l:.1e}")


def test_criterion_2_pruning_reproduction():
    """Engineered redundancy corpus prunes to exactly the expected table."""
    rc = redundancy_corpus()
    out = correlation_prune(rc.corpus, CATALOG.ids(), 0.90)
    retained_ok = list(out.retained) == list(rc.expected_retained)
    drops_ok = [(d.kept, d.dropped) for d in out.dropped] == \
        [(k, d) for k, d, _ in rc.expected_drops]
    r_ok = all(
        abs(got.r - want_r) <= (0.003 if abs(want_r) > 0.99 else 0.01)
        for got, (_, _, want_r) in zip(out.dropped, rc.expected_drops))
    report("2 pruning reproduction", retained_ok and drops_ok and r_ok,
           f"{len(out.retained)} kept, {len(out.dropped)} dropped")


def test_criterion_3_pixel_correlation():
    """VR sweep: pearson >= 0.95, R^2 >= 0.90; AR strictly lower at equal seed."""
    results = {}
    for scene in ("vr", "ar"):
        out = simulate(pixel_sweep_script(1000, scene_type=scene, seed=11), CATALOG)
        series = out.traces.values(NBLT)
        results[scene] = (pearson(out.ground_truth_pixels, series),
                          linreg(out.ground_truth_pixels, series).r_squared)
    (vr_r, vr_r2), (ar_r, _) = results["vr"], results["ar"]
    ok = vr_r >= 0.95 and vr_r2 >= 0.90 and ar_r < vr_r
    report("3 pixel-correlation target", ok,
           f"vr r={vr_r:.4f} R2={vr_r2:.4f}, ar r={ar_r:.4f}")


def test_criterion_4_speed_width_law():
    """30-unit sweeps: noiseless widths 30+-1 (v=1) and 15+-1 (v=2);
    noisy v=2 width < v=1 width for 20/20 seeds."""
    widths = {}
    for v in (1.0, 2.0):
        script = speed_sweep_script(v, noise_sigma=0.0)
        series = simulate(script, CATALOG).traces.values(NBLT)
        widths[v] = int((series > series.min() + 1e-9).sum())
    noiseless_ok = abs(widths[1.0] - 30) <= 1 and abs(widths[2.0] - 15) <= 1

    base = PROFILE[NBLT].b_vr
    bump = PROFILE[NBLT].g * 0.02 * (6.0 / 2.0) ** 2
    noisy_wins = 0
    for seed in range(20):
        noisy = {}
        for v in (1.0, 2.0):
            script = speed_sweep_script(v, seed=seed, noise_sigma=None)
            series = simulate(script, CATALOG).traces.values(NBLT)
            noisy[v] = int((series > base + bump / 2).sum())
        noisy_wins += noisy[2.0] < noisy[1.0]
    ok = noiseless_ok and noisy_wins == 20
    report("4 speed/width law", ok,
           f"widths {widths[1.0]}/{widths[2.0]}, noisy wins {noisy_wins}/20")


def test_criterion_5_synthetic_fingerprinting(app_corpus):
    """20x20 corpus, RF(100 trees, stat4, 80/20 split, seed 42):
    accuracy >= 0.95, macro-F1 >= 0.93, 5-fold CV mean within 0.03."""
    def fit(train):
        return Fingerprinter.fit(train, lambda X, y: train_rf(X, y, n_trees=100, seed=42),
                                 app_corpus.metrics, "stat4")

    train_idx, test_idx = stratified_split(app_corpus.labels(), 0.8, seed=42)
    train, test = app_corpus.subset(train_idx), app_corpus.subset(test_idx)
    split_report = evaluate(fit(train), test, test.labels())
    cv = kfold_cv(app_corpus, fit, k=5, seed=42)
    ok = (split_report.accuracy >= 0.95 and split_report.macro_f1 >= 0.93
          and abs(cv.fold_accuracy_mean - split_report.accuracy) <= 0.03)
    report("5 synthetic fingerprinting", ok,
           f"acc {split_report.accuracy:.3f}, f1 {split_report.macro_f1:.3f}, "
           f"cv {cv.fold_accuracy_mean:.3f}")


def test_criterion_6_participant_counting():
    """Exact counts: 10/10 noiseless n in 0..9; >= 95% of 20 noisy seeds per n."""
    noiseless = sum(
        count_participants(avatar_staircase(n, 5, CATALOG, noise_sigma=0.0).traces,
                           CATALOG, profile=PROFILE)[0] == n
        for n in range(10))
    noisy_ok = True
    rates = []
    for n in range(10):
        exact = sum(
            count_participants(
                avatar_staircase(n, 5, CATALOG, seed=1000 + 17 * n + s).traces,
                CATALOG, profile=PROFILE)[0] == n
            for s in range(20))
        rates.append(exact)
        noisy_ok = noisy_ok and exact >= 19  # >= 95% of 20
    ok = noiseless == 10 and noisy_ok
    report("6 participant counting", ok,
           f"noiseless {noiseless}/10, noisy per-n {rates}")


def test_criterion_7_mlp_gradient_check():
    """Analytic vs central finite differences (eps=1e-4): max rel err < 1e-4."""
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((8, 6))
        y_idx = rng.integers(0, 3, 8)
        params = init_params(6, 16, 3, seed=100 + seed)
        _, grads = loss_and_grads(params, X, y_idx)
        analytic = flatten(grads)
        eps = 1e-4
        numeric = np.zeros_like(analytic)
        flat = flatten(params)
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] += eps
            down[i] -= eps
            lu, _ = loss_and_grads(unflatten(up, 6, 16, 3), X, y_idx)
            ld, _ = loss_and_grads(unflatten(down, 6, 16, 3), X, y_idx)
            numeric[i] = (lu - ld) / (2 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    report("7 mlp gradient check", worst < 1e-4, f"max rel err {worst:.2e}")


def test_criterion_8_countermeasure_monotonicity(app_corpus):
    """Highest shipped noise level loses >= 0.10 accuracy; level 0 bitwise clean."""
    curve, clean = evaluate_countermeasure(
        app_corpus, lambda X, y: train_rf(X, y, n_trees=100, seed=42),
        degradation_levels(), seed=42)
    level0 = curve.points[0]
    bitwise = level0.accuracy == clean.accuracy and level0.macro_f1 == clean.macro_f1
    degraded = curve.points[-1].accuracy <= clean.accuracy - 0.10
    report("8 countermeasure monotonicity", bitwise and degraded,
           f"clean {clean.accuracy:.3f} -> top level {curve.points[-1].accuracy:.3f}")


# `defend curve --seed 0` on the 20 x 20 app corpus (app_corpus_spec(20, 20,
# seed=7), default levels 0,2,5,10,25 and rf of 100 trees) read accuracy
# 0.8125 at level 10 when the normalizer was still fitted outside the
# protocols. Levels 0-5 classify perfectly, so level 10 is where a loss of
# attack quality shows.
CURVE_LEVEL_10_ACCURACY = 0.8125


def test_defend_curve_accuracy_at_level_10_holds(app_corpus, tmp_path):
    manifest = write_manifest(app_corpus, str(tmp_path / "corp"))
    assert cli_main(["defend", "curve", "--manifest", str(manifest), "--seed", "0",
                     "--out", str(tmp_path / "curve")]) == 0
    with open(tmp_path / "curve" / "degradation.csv") as fh:
        accuracy = {float(row["level"]): float(row["accuracy"]) for row in csv.DictReader(fh)}
    ok = abs(accuracy[10.0] - CURVE_LEVEL_10_ACCURACY) <= 0.05
    report("defend curve quality", ok,
           f"level 10 accuracy {accuracy[10.0]:.4f}, pinned {CURVE_LEVEL_10_ACCURACY}")


def test_criterion_9_access_detector_calibration():
    """Periodic 1 Hz logs: 100/100 flagged with period in 1.0+-0.25;
    uniform-random logs of equal count: <= 5% of 1000 draws flagged."""
    periodic = 0
    for case in range(100):
        rng = np.random.default_rng(5000 + case)
        n = int(rng.integers(20, 120))
        ts = np.arange(n) + rng.uniform(0.1, 10) + rng.uniform(-0.02, 0.02, n)
        verdict = detect_profiler_access(AccessLog(tuple(np.sort(ts))))
        periodic += verdict.flagged and abs(verdict.estimated_period_s - 1.0) <= 0.25

    false_flags = 0
    for case in range(1000):
        rng = np.random.default_rng(9000 + case)
        n = int(rng.integers(20, 120))
        log = AccessLog(tuple(np.sort(rng.uniform(0, float(n), n))))
        false_flags += detect_profiler_access(log).flagged
    ok = periodic == 100 and false_flags <= 50
    report("9 access detector calibration", ok,
           f"periodic {periodic}/100, false {false_flags}/1000")


def test_criterion_10_determinism_sweep(tmp_path):
    """gen-corpus + train + eval twice: byte-identical manifest, traces,
    model and reports; an RF refit with the same seed gives the same forest."""
    spec = {
        "seed": 21,
        "repetitions": 4,
        "classes": [
            {"label": "appA", "script": {"scene_type": "vr", "duration_s": 20,
             "events": [{"kind": "app_session", "app_id": "appA", "t_start": 3,
                         "t_end": 17, "intensity": {NBLT: 0.9}}]}},
            {"label": "appB", "script": {"scene_type": "vr", "duration_s": 20,
             "events": [{"kind": "app_session", "app_id": "appB", "t_start": 3,
                         "t_end": 17, "intensity": {NBLT: 0.3}}]}},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    outputs = []
    for run in ("x", "y"):
        corp = str(tmp_path / run / "corp")
        model = str(tmp_path / run / "model")
        ev = str(tmp_path / run / "eval")
        assert cli_main(["gen-corpus", str(spec_path), "--out", corp]) == 0
        assert cli_main(["train", "--manifest", os.path.join(corp, "manifest.jsonl"),
                         "--out", model, "--trees", "25", "--seed", "4"]) == 0
        assert cli_main(["eval", "--manifest", os.path.join(corp, "manifest.jsonl"),
                         "--model-file", os.path.join(model, "model.json"),
                         "--out", ev]) == 0
        outputs.append((corp, model, ev))

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    (corp_a, model_a, eval_a), (corp_b, model_b, eval_b) = outputs
    same = (read(os.path.join(corp_a, "manifest.jsonl")) == read(os.path.join(corp_b, "manifest.jsonl"))
            and read(os.path.join(model_a, "model.json")) == read(os.path.join(model_b, "model.json"))
            and read(os.path.join(eval_a, "report.json")) == read(os.path.join(eval_b, "report.json")))
    for name in sorted(os.listdir(os.path.join(corp_a, "traces"))):
        same = same and read(os.path.join(corp_a, "traces", name)) == \
            read(os.path.join(corp_b, "traces", name))

    rng = np.random.default_rng(0)
    X = rng.standard_normal((80, 10))
    y = [f"c{i % 4}" for i in range(80)]
    first = train_rf(X, y, n_trees=30, seed=5)
    again = train_rf(X, y, n_trees=30, seed=5)
    refit_ok = json.dumps(first.to_dict()) == json.dumps(again.to_dict())

    report("10 determinism sweep", same and refit_ok,
           f"files identical: {same}, same-seed refit identical: {refit_ok}")
