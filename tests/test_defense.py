import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterscope.datasets import degradation_levels, demo_app_corpus
from counterscope.defense import (
    AccessLog,
    DummyRender,
    GaussianNoise,
    detect_profiler_access,
    evaluate_countermeasure,
    inject_noise,
    read_access_log,
)
from counterscope.errors import DataError, SchemaError
from counterscope.models import train_rf
from counterscope.simulator import MetricResponse, SceneScript, simulate
from counterscope.traces import TraceSet

NBLT = "non_base_level_textures"


def flat_trace(catalog, seconds=60, seed=0):
    script = SceneScript(duration_s=seconds, seed=seed, noise_sigma=0.0)
    return simulate(script, catalog).traces


def reference_inject(trace, strategy, catalog, profile):
    """inject_noise as a loop over metrics, each looked up in the profile."""
    generic = MetricResponse(11.0, 10.0, 20.0, 4.0, 0.5)
    matrix = trace.matrix.copy()
    rng = np.random.default_rng(strategy.seed)
    if isinstance(strategy, GaussianNoise):
        noise = rng.standard_normal(matrix.shape)
        for j, m in enumerate(trace.metrics):
            matrix[:, j] += strategy.sigma * profile.get(m, generic).sigma * noise[:, j]
    else:
        arrivals = rng.poisson(strategy.rate_per_s, matrix.shape[0])
        load = np.clip(arrivals * 0.02 * (strategy.size_s / strategy.depth_z) ** 2, 0.0, 1.0)
        for j, m in enumerate(trace.metrics):
            if m in catalog:
                matrix[:, j] += catalog.get(m).sign * profile.get(m, generic).g * load
    return matrix


class TestInjectNoise:
    @pytest.mark.parametrize("strategy", [GaussianNoise(2.5, seed=3),
                                          DummyRender(0.7, seed=5),
                                          DummyRender(2.0, 3.0, 1.5, seed=6)])
    def test_matches_per_metric_loop(self, catalog, profile, strategy):
        base = simulate(SceneScript(duration_s=30, seed=2), catalog).traces
        trace = TraceSet(base.metrics + ["custom"],
                         np.column_stack([base.matrix, np.arange(30.0)]))
        partial = {NBLT: profile[NBLT], "custom": MetricResponse(1.0, 2.0, 3.0, 4.0, 0.25)}
        for prof in (profile, partial):
            out = inject_noise(trace, strategy, catalog, prof)
            assert out.matrix.tobytes() == reference_inject(trace, strategy, catalog,
                                                            prof).tobytes()

    def test_sigma_zero_identity(self, catalog):
        trace = flat_trace(catalog)
        out = inject_noise(trace, GaussianNoise(0.0), catalog)
        assert out == trace

    def test_rate_zero_identity(self, catalog):
        trace = flat_trace(catalog)
        out = inject_noise(trace, DummyRender(0.0), catalog)
        assert out == trace

    def test_shape_preserved(self, catalog):
        trace = flat_trace(catalog)
        for strategy in (GaussianNoise(2.0, seed=1), DummyRender(1.5, seed=1)):
            out = inject_noise(trace, strategy, catalog)
            assert out.metrics == trace.metrics
            assert out.n_seconds == trace.n_seconds

    def test_dummy_render_raises_nblt_mean(self, catalog):
        trace = flat_trace(catalog)
        out = inject_noise(trace, DummyRender(2.0, size_s=4.0, depth_z=2.0, seed=3),
                           catalog)
        assert out.values(NBLT).mean() > trace.values(NBLT).mean()

    def test_dummy_render_lowers_decreasing_metric(self, catalog):
        trace = flat_trace(catalog)
        out = inject_noise(trace, DummyRender(2.0, size_s=4.0, depth_z=2.0, seed=3),
                           catalog)
        assert out.values("prims_trivially_rejected").mean() \
            < trace.values("prims_trivially_rejected").mean()

    def test_gaussian_perturbation_grows_with_sigma(self, catalog):
        trace = flat_trace(catalog, seconds=100)
        def mean_sq(sigma):
            total = 0.0
            for seed in range(100):
                out = inject_noise(trace, GaussianNoise(sigma, seed=seed), catalog)
                z = (out.values(NBLT) - trace.values(NBLT))
                total += float(np.mean(z * z))
            return total / 100.0

        assert mean_sq(0.5) < mean_sq(1.0) < mean_sq(2.0)

    def test_deterministic_in_seed(self, catalog):
        trace = flat_trace(catalog)
        a = inject_noise(trace, GaussianNoise(1.0, seed=5), catalog)
        b = inject_noise(trace, GaussianNoise(1.0, seed=5), catalog)
        assert a == b

    def test_negative_sigma_rejected(self):
        with pytest.raises(SchemaError, match=r"^field 'sigma' must be >= 0, got -1.0$"):
            GaussianNoise(-1.0)

    def test_unknown_strategy_rejected(self, catalog):
        trace = flat_trace(catalog, seconds=10)
        with pytest.raises(SchemaError, match=r"^unknown strategy object$"):
            inject_noise(trace, object(), catalog)


class TestDetector:
    def test_perfect_1hz_flagged(self):
        log = AccessLog(tuple(float(t) for t in range(60)))
        verdict = detect_profiler_access(log)
        assert verdict.flagged
        assert verdict.estimated_period_s == pytest.approx(1.0)
        assert verdict.n_events == 60

    def test_five_events_not_flagged(self):
        log = AccessLog((0.0, 1.0, 2.0, 3.0, 4.0))
        assert not detect_profiler_access(log).flagged

    def test_uniform_random_rarely_flagged(self):
        flagged = 0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            log = AccessLog(tuple(np.sort(rng.uniform(0, 60, 60))))
            flagged += detect_profiler_access(log).flagged
        assert flagged <= 50  # <= 5% of 1000

    def test_wrong_period_not_flagged(self):
        log = AccessLog(tuple(float(t) * 2.0 for t in range(60)))
        assert not detect_profiler_access(log).flagged

    def test_empty_log(self):
        verdict = detect_profiler_access(AccessLog(()))
        assert not verdict.flagged
        assert verdict.n_events == 0

    @settings(max_examples=40)
    @given(st.floats(0, 1e4))
    def test_translation_invariance(self, offset):
        base = tuple(float(t) for t in range(25))
        v1 = detect_profiler_access(AccessLog(base))
        v2 = detect_profiler_access(AccessLog(tuple(t + offset for t in base)))
        assert v1.flagged == v2.flagged
        assert v1.cv == pytest.approx(v2.cv, abs=1e-9)

    def test_unsorted_log_rejected(self):
        with pytest.raises(DataError):
            AccessLog((3.0, 1.0))

    def test_read_access_log(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text("0.0\n1.5\n3.0\n")
        assert read_access_log(path).timestamps == (0.0, 1.5, 3.0)


@pytest.fixture(scope="module")
def small_corpus():
    return demo_app_corpus(n_classes=5, repetitions=8, seed=13)


class TestDegradationCurve:
    def trainer(self, X, y):
        return train_rf(X, y, n_trees=30, seed=0)

    def test_level_zero_equals_clean_bitwise(self, small_corpus):
        curve, clean = evaluate_countermeasure(
            small_corpus, self.trainer, [GaussianNoise(0.0)], seed=1)
        assert curve.points[0].accuracy == clean.accuracy
        assert curve.points[0].macro_f1 == clean.macro_f1

    def test_single_level_single_point(self, small_corpus):
        curve, _ = evaluate_countermeasure(
            small_corpus, self.trainer, [GaussianNoise(1.0, seed=2)], seed=1)
        assert len(curve.points) == 1

    def test_heavy_noise_degrades(self, small_corpus):
        curve, clean = evaluate_countermeasure(
            small_corpus, self.trainer, degradation_levels(), seed=1)
        assert curve.points[-1].accuracy <= clean.accuracy - 0.10

    def test_levels_must_increase(self, small_corpus):
        with pytest.raises(DataError):
            evaluate_countermeasure(
                small_corpus, self.trainer,
                [GaussianNoise(1.0), GaussianNoise(1.0)], seed=1)

    def test_curve_csv(self, small_corpus, tmp_path):
        curve, _ = evaluate_countermeasure(
            small_corpus, self.trainer, [GaussianNoise(0.0), GaussianNoise(3.0, seed=4)],
            seed=1)
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,accuracy,macro_f1"
        assert len(lines) == 3
