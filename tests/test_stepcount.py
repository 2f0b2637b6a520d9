import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterscope.errors import DataError, DegenerateInputError, UnknownMetricError
from counterscope.simulator import avatar_staircase
from counterscope.stepcount import (
    count_participants,
    default_min_jumps,
    detect_steps,
    find_anchor,
    steps_to_csv,
)
from counterscope.traces import TraceSet


def staircase(levels, hold=5, lead=10):
    """Piecewise-constant series: `lead` seconds at levels[0], then each
    subsequent level held `hold` seconds, with a tail."""
    parts = [np.full(lead, float(levels[0]))]
    for lv in levels[1:]:
        parts.append(np.full(hold, float(lv)))
    parts.append(np.full(lead, float(levels[-1])))
    return np.concatenate(parts)


class TestDetectSteps:
    def test_four_upward_steps(self):
        series = staircase([0, 1, 2, 3, 4])
        events = detect_steps(series, min_jump=0.5)
        assert [ev.t for ev in events] == [10, 15, 20, 25]
        assert all(ev.sign == 1 for ev in events)

    def test_flat_series_empty(self):
        assert detect_steps(np.zeros(30), min_jump=0.5) == []

    def test_noiseless_flat_with_zero_threshold(self):
        assert detect_steps(np.full(30, 3.25), min_jump=0.0) == []

    def test_decreasing_staircase_all_negative(self):
        series = staircase([10, 8, 6, 4])
        events = detect_steps(series, min_jump=0.5)
        assert len(events) == 3
        assert all(ev.sign == -1 for ev in events)
        assert all(ev.magnitude < 0 for ev in events)

    def test_magnitude_is_mean_difference(self):
        series = staircase([0, 2])
        events = detect_steps(series, min_jump=0.5)
        assert len(events) == 1
        assert events[0].magnitude == pytest.approx(2.0)

    def test_too_short(self):
        with pytest.raises(DegenerateInputError, match=r"^series of 5 samples needs >= 6$"):
            detect_steps(np.zeros(5), min_jump=0.5, window_w=3)

    def test_small_jump_below_threshold_ignored(self):
        series = staircase([0, 0.2])
        assert detect_steps(series, min_jump=0.5) == []

    @settings(max_examples=30)
    @given(st.integers(1, 12))
    def test_time_shift_equivariance(self, shift):
        series = staircase([0, 1, 2])
        shifted = np.concatenate([np.full(shift, series[0]), series])
        base_events = detect_steps(series, 0.5)
        shifted_events = detect_steps(shifted, 0.5)
        assert [ev.t + shift for ev in base_events] == [ev.t for ev in shifted_events]

    @settings(max_examples=30)
    @given(st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
    def test_amplitude_scaling(self, a):
        series = staircase([0, 1, 3])
        base = detect_steps(series, 0.5)
        scaled = detect_steps(a * series, a * 0.5)
        assert [ev.t for ev in base] == [ev.t for ev in scaled]
        assert [ev.sign for ev in base] == [ev.sign for ev in scaled]
        for b, s in zip(base, scaled):
            assert s.magnitude == pytest.approx(a * b.magnitude, rel=1e-12)


class TestCountParticipants:
    def test_staircase_counts_exact(self, catalog):
        for n in (0, 4):
            out = avatar_staircase(n, 5, catalog, noise_sigma=0.0)
            count, per_metric, events = count_participants(out.traces, catalog)
            assert count == n
            assert list(events) == list(per_metric) == out.traces.metrics

    def test_decreasing_metric_counts_downward_steps(self, catalog):
        out = avatar_staircase(4, 5, catalog, noise_sigma=0.0)
        _, per_metric, _ = count_participants(out.traces, catalog)
        assert per_metric["prims_trivially_rejected"] == 4
        assert per_metric["non_base_level_textures"] == 4

    def test_majority_vote_tie_takes_smaller(self, catalog):
        # two metrics say 1, two say 2: tie resolves to 1
        up1 = staircase([0, 10], hold=10)
        up2 = staircase([0, 10, 20], hold=7)
        matrix = np.column_stack([up1[:30], up1[:30], up2[:30], up2[:30]])
        trace = TraceSet(["gpu_bus_busy", "texture_l2_miss",
                          "nearest_filtered", "anisotropic_filtered"], matrix)
        count, per, _ = count_participants(trace, catalog, min_jump=5.0)
        assert sorted(per.values()) == [1, 1, 2, 2]
        assert count == 1

    def test_default_thresholds_fall_back_for_unprofiled_metrics(self, catalog, profile):
        partial = {"gpu_bus_busy": profile["gpu_bus_busy"]}
        jumps = default_min_jumps(partial, metrics=["gpu_bus_busy", "texture_l2_miss"])
        assert jumps["gpu_bus_busy"] == 4.0 * profile["gpu_bus_busy"].sigma
        assert jumps["texture_l2_miss"] == 4.0 * 0.5  # the simulator's fallback sigma
        out = avatar_staircase(2, 5, catalog, noise_sigma=0.0)
        assert count_participants(out.traces, catalog)[0] == 2
        assert count_participants(out.traces, catalog, profile=partial)[0] == 2

    def test_profile_feeds_the_default_thresholds_only(self, catalog, profile):
        """A profile's sigmas set the 4-sigma thresholds; a global min_jump
        replaces them, so the profile then has no effect."""
        deaf = {m: dataclasses.replace(r, sigma=r.sigma * 1e6) for m, r in profile.items()}
        trace = avatar_staircase(3, 5, catalog, noise_sigma=0.0).traces
        count, per_metric, events = count_participants(trace, catalog, profile=deaf)
        assert count == 0 and set(per_metric.values()) == {0}
        assert not any(events.values())
        assert (count_participants(trace, catalog, 5.0, profile=deaf)
                == count_participants(trace, catalog, 5.0))

    def test_no_known_metrics(self, catalog):
        trace = TraceSet(["mystery_counter"], np.zeros((20, 1)))
        with pytest.raises(UnknownMetricError, match=r"^trace shares no metrics with the catalog$"):
            count_participants(trace, catalog, min_jump=1.0)

    def test_unknown_metrics_ignored_in_vote(self, catalog):
        matrix = np.column_stack([staircase([0, 10], hold=10)[:30], np.zeros(30)])
        trace = TraceSet(["gpu_bus_busy", "mystery_counter"], matrix)
        count, per, events = count_participants(trace, catalog, min_jump=5.0)
        assert count == 1
        assert "mystery_counter" not in per and "mystery_counter" not in events


class TestFindAnchor:
    def trace(self, series):
        return TraceSet(["gpu_bus_busy"], np.asarray(series, dtype=float).reshape(-1, 1))

    def test_step_at_12(self):
        series = np.concatenate([np.zeros(12), np.ones(20)])
        assert find_anchor(self.trace(series), "gpu_bus_busy", 0.5) == 12

    def test_flat_raises(self):
        with pytest.raises(DataError, match=r"^no step above 0.5 in metric 'gpu_bus_busy'$"):
            find_anchor(self.trace(np.zeros(30)), "gpu_bus_busy", 0.5)

    def test_first_of_two_steps(self):
        series = np.concatenate([np.zeros(5), np.ones(15), np.full(15, 2.0)])
        assert find_anchor(self.trace(series), "gpu_bus_busy", 0.5) == 5


def test_steps_csv(tmp_path):
    events = {"gpu_bus_busy": detect_steps(staircase([0, 2]), 0.5)}
    path = tmp_path / "steps.csv"
    steps_to_csv(events, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,metric,sign,magnitude"
    assert lines[1].startswith("10,gpu_bus_busy,+1,")
