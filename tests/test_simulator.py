import dataclasses
import json
import re

import numpy as np
import pytest

from counterscope.errors import DataError, SchemaError
from counterscope.simulator import (
    AppSession,
    AvatarJoin,
    ClassSpec,
    CorpusSpec,
    MetricResponse,
    ObjectSweep,
    ResponseModel,
    SceneScript,
    StaticObject,
    avatar_staircase,
    builtin_profile,
    generate_corpus,
    load_profile,
    script_from_dict,
    script_to_dict,
    simulate,
)

NBLT = "non_base_level_textures"


def sweep_script(v, size=6.0, z=2.0, seed=1, noise=0.0, duration=45):
    ev = ObjectSweep(size_s=size, speed_v=v, depth_z=z,
                     x_start=-15.0, x_end=15.0, t_start=5.0)
    return SceneScript(duration_s=duration, seed=seed, events=(ev,), noise_sigma=noise)


def active_width(series):
    base = series.min()
    return int((series > base + 1e-9).sum())


class TestSweepKinematics:
    def test_width_30_at_unit_speed(self, catalog):
        out = simulate(sweep_script(1.0), catalog)
        assert abs(active_width(out.traces.values(NBLT)) - 30) <= 1

    def test_width_15_at_double_speed(self, catalog):
        out = simulate(sweep_script(2.0), catalog)
        assert abs(active_width(out.traces.values(NBLT)) - 15) <= 1

    def test_faster_is_narrower_under_noise(self, catalog):
        # width under noise = samples above the bump midpoint
        prof = builtin_profile()
        base = prof[NBLT].b_vr
        bump = prof[NBLT].g * 0.02 * (6.0 / 2.0) ** 2
        for seed in range(20):
            w = {}
            for v in (1.0, 2.0):
                out = simulate(sweep_script(v, seed=seed, noise=None), catalog)
                w[v] = int((out.traces.values(NBLT) > base + bump / 2).sum())
            assert w[2.0] < w[1.0]


class TestDepthAndSize:
    def test_closer_object_larger_mean(self, catalog):
        means = {}
        for z in (2.0, 3.0):
            script = SceneScript(duration_s=10, seed=0, noise_sigma=0.0,
                                 events=(StaticObject(2.0, z, 0.0, 10.0),))
            means[z] = simulate(script, catalog).traces.values(NBLT).mean()
        assert means[2.0] > means[3.0]

    def test_mean_monotone_in_size_and_depth(self, catalog):
        def mean_nblt(s, z):
            script = SceneScript(duration_s=5, seed=0, noise_sigma=0.0,
                                 events=(StaticObject(s, z, 0.0, 5.0),))
            return simulate(script, catalog).traces.values(NBLT).mean()

        sizes = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0]
        vals = [mean_nblt(s, 2.0) for s in sizes]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        depths = [1.0, 2.0, 4.0, 8.0]
        vals = [mean_nblt(4.0, z) for z in depths]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_pixels_bounded(self, catalog):
        script = SceneScript(duration_s=5, seed=0, noise_sigma=0.0,
                             events=(StaticObject(100.0, 1.0, 0.0, 5.0),))
        out = simulate(script, catalog)
        assert out.ground_truth_pixels.max() <= 1.0
        assert out.ground_truth_pixels.min() >= 0.0

    def test_subsecond_crossing_perturbs_at_most_one_sample(self, catalog):
        # 20 units at speed 40 -> 0.5 s on screen: one 1 Hz sample at best
        sweep = ObjectSweep(size_s=4.0, speed_v=40.0, depth_z=2.0,
                            x_start=-10.0, x_end=10.0, t_start=5.0)
        script = SceneScript(duration_s=15, seed=0, noise_sigma=0.0, events=(sweep,))
        out = simulate(script, catalog)
        assert int((out.ground_truth_pixels > 0).sum()) <= 1


class TestDeterminismAndNoise:
    def test_identical_scripts_bit_identical(self, catalog):
        a = simulate(sweep_script(1.0, noise=None, seed=99), catalog)
        b = simulate(sweep_script(1.0, noise=None, seed=99), catalog)
        assert np.array_equal(a.traces.matrix, b.traces.matrix)

    def test_seed_changes_noise(self, catalog):
        a = simulate(sweep_script(1.0, noise=None, seed=1), catalog)
        b = simulate(sweep_script(1.0, noise=None, seed=2), catalog)
        assert not np.array_equal(a.traces.matrix, b.traces.matrix)

    def test_ar_noisier_than_vr_by_default(self, catalog, profile):
        flat = SceneScript(duration_s=400, seed=4, scene_type="vr")
        vr = simulate(flat, catalog).traces.values(NBLT).std()
        ar = simulate(dataclasses.replace(flat, scene_type="ar"),
                      catalog).traces.values(NBLT).std()
        assert ar > 1.5 * vr

    def test_scene_baseline_offset(self, catalog, profile):
        flat = SceneScript(duration_s=30, seed=0, noise_sigma=0.0)
        vr = simulate(flat, catalog).traces.values(NBLT)
        ar = simulate(dataclasses.replace(flat, scene_type="ar"), catalog).traces.values(NBLT)
        assert vr[0] == profile[NBLT].b_vr
        assert ar[0] == profile[NBLT].b_ar


class TestAppSessions:
    def test_rise_plateau_fall(self, catalog, profile):
        session = AppSession("app", t_start=5.0, t_end=25.0,
                             intensity={NBLT: 1.0})
        script = SceneScript(duration_s=30, seed=0, noise_sigma=0.0, events=(session,))
        series = simulate(script, catalog).traces.values(NBLT)
        b, g = profile[NBLT].b_vr, profile[NBLT].g
        assert series[4] == b
        assert series[5] == pytest.approx(b + 0.5 * g)
        assert series[15] == pytest.approx(b + g)
        assert series[25] == pytest.approx(b + 0.5 * g)
        assert series[29] == b

    def test_decreasing_metric_falls_during_session(self, catalog, profile):
        session = AppSession("app", t_start=5.0, t_end=25.0,
                             intensity={"prims_clipped": 1.0})
        script = SceneScript(duration_s=30, seed=0, noise_sigma=0.0, events=(session,))
        series = simulate(script, catalog).traces.values("prims_clipped")
        assert series[15] < series[0]


class TestStaircase:
    def test_noiseless_level_counts(self, catalog, profile):
        out = avatar_staircase(4, 5, catalog, noise_sigma=0.0)
        for metric in (NBLT, "prims_trivially_rejected"):
            series = out.traces.values(metric)
            assert len(np.unique(np.round(series, 9))) == 5

    def test_decreasing_metric_steps_down(self, catalog):
        out = avatar_staircase(4, 5, catalog, noise_sigma=0.0)
        series = out.traces.values("prims_trivially_rejected")
        assert series[-1] < series[0]
        diffs = np.diff(series)
        assert (diffs <= 0).all()

    def test_zero_participants_flat(self, catalog):
        out = avatar_staircase(0, 5, catalog, noise_sigma=0.0)
        series = out.traces.values(NBLT)
        assert np.unique(series).size == 1

    def test_negative_rejected(self, catalog):
        with pytest.raises(DataError, match=r"^participant count must be >= 0, got -1$"):
            avatar_staircase(-1, 5, catalog)

    def test_inert_metrics_stay_flat(self, catalog):
        out = avatar_staircase(3, 5, catalog, noise_sigma=0.0)
        assert np.unique(out.traces.values("gpu_frequency")).size == 1


class TestCorpus:
    def spec(self, reps=3):
        classes = tuple(
            ClassSpec(f"app{i}", SceneScript(duration_s=10, events=(
                AppSession(f"app{i}", 2.0, 8.0, {NBLT: 0.3 + 0.3 * i}),)))
            for i in range(3))
        return CorpusSpec(classes, repetitions=reps, seed=11)

    def test_balanced_output(self, catalog):
        corpus = generate_corpus(self.spec(), catalog)
        assert len(corpus) == 9
        labels = corpus.labels()
        assert all(labels.count(f"app{i}") == 3 for i in range(3))

    def test_deterministic(self, catalog):
        a = generate_corpus(self.spec(), catalog)
        b = generate_corpus(self.spec(), catalog)
        assert all(x.trace == y.trace for x, y in zip(a, b))

    def test_items_have_distinct_seeds(self, catalog):
        corpus = generate_corpus(self.spec(), catalog)
        seeds = {it.trace.meta["seed"] for it in corpus}
        assert len(seeds) == 9

    def test_single_class_rejected(self):
        with pytest.raises(SchemaError, match=r"^need >= 2 classes$"):
            CorpusSpec((ClassSpec("only", SceneScript()),), repetitions=2)

    def test_zero_repetitions_rejected(self):
        classes = (ClassSpec("a", SceneScript()), ClassSpec("b", SceneScript()))
        with pytest.raises(SchemaError, match=r"^field 'repetitions' must be >= 1, got 0$"):
            CorpusSpec(classes, repetitions=0)

    def test_non_string_label_rejected(self, catalog):
        """An int label used to build a corpus that write_manifest then failed
        on with a TypeError."""
        with pytest.raises(SchemaError, match=r"^field 'label' must be a string, got 1$"):
            generate_corpus(CorpusSpec((ClassSpec(1, SceneScript(duration_s=5)),
                                        ClassSpec(2, SceneScript(duration_s=5))), 1), catalog)


class TestValidation:
    def test_event_beyond_duration(self):
        with pytest.raises(SchemaError,
                           match=r"^events\[0\]: field 't_join' must be <= duration_s 10, got 11\.0$"):
            SceneScript(duration_s=10, events=(AvatarJoin(11.0),))

    def test_nonpositive_depth(self):
        sweep = ObjectSweep(1.0, 1.0, 0.0, -5.0, 5.0, 0.0)
        message = "events[0]: field 'depth_z' must be > 0, got 0.0"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            SceneScript(duration_s=10, events=(sweep,))

    def test_negative_noise(self):
        with pytest.raises(SchemaError, match=r"^field 'noise_sigma' must be >= 0, got -1\.0$"):
            SceneScript(duration_s=10, noise_sigma=-1.0)

    def test_bad_intensity(self):
        with pytest.raises(SchemaError, match="^" + re.escape(
                f"events[0]: field 'intensity.{NBLT}' must be <= 1, got 1.5") + "$"):
            SceneScript(duration_s=10, events=(
                AppSession("a", 0.0, 5.0, {NBLT: 1.5}),))

    def test_bad_scene_type(self):
        with pytest.raises(SchemaError,
                           match=r"^field 'scene_type' must be one of \('vr', 'ar'\), got 'mr'$"):
            SceneScript(scene_type="mr")


class TestResponseModel:
    def test_fallback_and_sign(self, catalog):
        partial = {NBLT: MetricResponse(1.0, 2.0, 3.0, 4.0, 5.0)}
        model = ResponseModel([NBLT, "prims_clipped", "custom"], catalog, partial)
        assert model.b_vr[0] == 2.0 and model.sigma[0] == 5.0
        # metrics the profile lacks share one fallback response
        assert model.sigma[1] == model.sigma[2]
        assert model.sign.tolist() == [1, -1, 0]

    def test_script_noise_resolution(self, catalog):
        ids = [NBLT, "gpu_bus_busy"]
        prof = builtin_profile()
        ar = SceneScript(scene_type="ar", noise_sigma={"gpu_bus_busy": 0.25})
        model = ResponseModel(ids, catalog, prof, ar)
        assert model.sigma.tolist() == [2.0 * prof[NBLT].sigma, 0.25]
        assert ResponseModel(ids, catalog, prof, SceneScript(noise_sigma=3)).sigma.tolist() \
            == [3.0, 3.0]
        assert ResponseModel(ids, catalog, prof, SceneScript()).sigma.tolist() \
            == [prof[m].sigma for m in ids]

# The response model every metric shared before it became one set of arrays:
# a loop over catalog metrics, each looked up in the profile on its own.
GENERIC = MetricResponse(11.0, 10.0, 20.0, 4.0, 0.5)


def reference_matrix(script, catalog, profile, pixels):
    t = np.arange(script.duration_s, dtype=float)
    joins = np.zeros(script.duration_s)
    sessions = []
    for ev in script.events:
        if isinstance(ev, AvatarJoin):
            joins[t >= ev.t_join] += 1.0
        elif isinstance(ev, AppSession):
            ramp = np.zeros(script.duration_s)
            ramp[(t > ev.t_start) & (t < ev.t_end)] = 1.0
            ramp[(t >= ev.t_start) & (t < ev.t_start + 1.0)] = 0.5
            ramp[(t >= ev.t_end) & (t < ev.t_end + 1.0)] = 0.5
            sessions.append((ev, ramp))
    noise = np.random.default_rng(script.seed).standard_normal((script.duration_s,
                                                                len(catalog)))
    matrix = np.empty((script.duration_s, len(catalog)))
    for j, desc in enumerate(catalog):
        resp = profile.get(desc.id, GENERIC)
        app_level = np.zeros(script.duration_s)
        for ev, ramp in sessions:
            gain = float(ev.intensity.get(desc.id, 0.0))
            if gain:
                app_level += gain * ramp
        signal = resp.g * pixels + resp.delta * joins + resp.g * app_level
        ns = script.noise_sigma
        sigma = resp.sigma * (2.0 if script.scene_type == "ar" else 1.0)
        if isinstance(ns, dict):
            sigma = float(ns.get(desc.id, sigma))
        elif ns is not None:
            sigma = float(ns)
        base = resp.b_ar if script.scene_type == "ar" else resp.b_vr
        matrix[:, j] = base + desc.sign * signal + sigma * noise[:, j]
    return matrix


class TestAgainstPerMetricLoop:
    @pytest.mark.parametrize("scene_type", ["vr", "ar"])
    @pytest.mark.parametrize("noise", [None, 0.0, 1.5, {NBLT: 0.0, "prims_clipped": 3.0}])
    def test_bit_identical(self, catalog, profile, scene_type, noise):
        events = (AvatarJoin(4.0), AvatarJoin(11.5), StaticObject(3.0, 2.0, 2.0, 9.0),
                  ObjectSweep(2.0, 1.5, 1.0, 10.0, -10.0, 1.0),
                  AppSession("a", 2.0, 15.0, {NBLT: 0.4, "prims_clipped": 0.9}),
                  AppSession("b", 6.0, 17.5, {NBLT: 1.0, "custom": 0.5}))
        script = SceneScript(scene_type=scene_type, duration_s=20, seed=5,
                             events=events, noise_sigma=noise)
        partial = {NBLT: profile[NBLT], "prims_clipped": profile["prims_clipped"]}
        for prof in (profile, partial):
            out = simulate(script, catalog, prof)
            want = reference_matrix(script, catalog, prof, out.ground_truth_pixels)
            assert out.traces.matrix.tobytes() == want.tobytes()


class TestSerialization:
    def test_script_round_trip(self):
        script = sweep_script(2.0, noise=0.5)
        assert script_from_dict(script_to_dict(script)) == script

    def test_profile_round_trip(self, tmp_path, profile):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({mid: dataclasses.asdict(r) for mid, r in profile.items()}))
        assert load_profile(path) == profile
