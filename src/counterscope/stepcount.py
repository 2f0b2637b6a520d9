"""Step detection and participant counting.

A step at second t is a jump between the w-second means before and after t.
Candidate seconds whose |jump| clears min_jump are reduced to local maxima:
strongest first, suppressing weaker candidates within min_gap seconds. The
default 3-second window stays below the 5-second spacing of avatar joins,
so adjacent joins remain separable.

Participant counting votes across metrics: each metric contributes the
number of steps whose sign matches its load direction (decreasing metrics
count downward steps), and the overall count is the majority, ties going to
the smaller count. Each metric's threshold is the global min_jump where one
is given, else 4 sigma of its response profile (ResponseModel).

count_participants is the one counting path: the `count` subcommand calls it
once and writes the step events it returns to steps.csv. `count --profile`
feeds the default thresholds, so it is read only when `--min-jump` is unset.
MIN_JUMP, WINDOW and GAP declare the detection options for both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .catalog import MetricCatalog
from .errors import DataError, DegenerateInputError, UnknownMetricError
from .schema import REQUIRED, Param
from .simulator import DEFAULT_PROFILE, MetricResponse, ResponseModel
from .traces import TraceSet

MIN_JUMP_SIGMA_FACTOR = 4.0

# the step-detection options, as their keywords and the count command's flags take them
MIN_JUMP = Param("min_jump", float, None, 0,
                 help="global jump threshold; unset: 4 sigma per metric of --profile")
WINDOW = Param("window", int, 3, 1, arg="window_w", help="mean window seconds")
GAP = Param("gap", int, 3, 0, arg="min_gap", help="merge gap seconds")


@dataclass(frozen=True)
class StepEvent:
    t: int
    sign: int
    magnitude: float  # post-window mean minus pre-window mean

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DataError(f"sign must be +1/-1, got {self.sign}")
        if self.magnitude != 0.0 and (self.magnitude > 0) != (self.sign > 0):
            raise DataError("magnitude sign does not match sign field")


def detect_steps(series, min_jump: float, window_w: int = WINDOW.default,
                 min_gap: int = GAP.default) -> list[StepEvent]:
    """Time-ordered step events of a 1-D series."""
    MIN_JUMP._replace(default=REQUIRED).read(min_jump)  # only count_participants takes None
    WINDOW.read(window_w)
    GAP.read(min_gap)
    series = np.asarray(series, dtype=float)
    if series.size < 2 * window_w:
        raise DegenerateInputError(f"series of {series.size} samples needs >= {2 * window_w}")
    cum = np.concatenate([[0.0], np.cumsum(series)])
    ts = np.arange(window_w, series.size - window_w + 1)
    post = (cum[ts + window_w] - cum[ts]) / window_w
    pre = (cum[ts] - cum[ts - window_w]) / window_w
    diff = post - pre
    candidates = ts[np.abs(diff) > min_jump]
    if candidates.size == 0:
        return []
    strengths = np.abs(diff[candidates - window_w])
    # strongest first; equal strengths resolve to the earlier second
    order = np.lexsort((candidates, -strengths))
    accepted: list[int] = []
    for k in order:
        t = int(candidates[k])
        if all(abs(t - a) > min_gap for a in accepted):
            accepted.append(t)
    accepted.sort()
    events = []
    for t in accepted:
        magnitude = float(diff[t - window_w])
        events.append(StepEvent(t, 1 if magnitude > 0 else -1, magnitude))
    return events


def default_min_jumps(profile: dict[str, MetricResponse] | None = None,
                      metrics: list[str] | None = None) -> dict[str, float]:
    """Per-metric thresholds at MIN_JUMP_SIGMA_FACTOR times the simulator
    noise sigma, for `metrics` (default: the profile's); metrics the profile
    lacks use the simulator's fallback sigma."""
    if metrics is None:
        metrics = list(profile if profile is not None else DEFAULT_PROFILE)
    model = ResponseModel(metrics, profile=profile)
    return dict(zip(model.metrics, (MIN_JUMP_SIGMA_FACTOR * model.sigma).tolist()))


def count_participants(trace: TraceSet, catalog: MetricCatalog,
                       min_jump: float | None = MIN_JUMP.default,
                       window_w: int = WINDOW.default, min_gap: int = GAP.default,
                       profile: dict[str, MetricResponse] | None = None):
    """(majority count, per-metric counts, per-metric step events) over the
    trace's catalog metrics, in trace order.

    Each metric's steps are detected once, at `min_jump` if it is given, else
    at the default_min_jumps of `profile` (default: the built-in one).
    """
    known = [m for m in trace.metrics if m in catalog]
    if not known:
        raise UnknownMetricError("trace shares no metrics with the catalog")
    jumps = (dict.fromkeys(known, min_jump) if min_jump is not None
             else default_min_jumps(profile, known))
    events = {m: detect_steps(trace.values(m), jumps[m], window_w, min_gap) for m in known}
    per_metric = {m: sum(1 for ev in evs if ev.sign == catalog.get(m).sign)
                  for m, evs in events.items()}
    votes = Counter(per_metric.values())
    count = min(votes, key=lambda cnt: (-votes[cnt], cnt))  # majority; ties -> smaller
    return count, per_metric, events


def find_anchor(trace: TraceSet, metric: str, min_jump: float,
                window_w: int = WINDOW.default, min_gap: int = GAP.default) -> int:
    """Sample index of the first detected step, for window extraction."""
    events = detect_steps(trace.values(metric), min_jump, window_w, min_gap)
    if not events:
        raise DataError(f"no step above {min_jump} in metric {metric!r}")
    return events[0].t


def steps_to_csv(step_events: dict[str, list[StepEvent]], path) -> None:
    """CSV rows (t, metric, sign, magnitude), metric-major, time-ordered."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,metric,sign,magnitude\n")
        for metric in step_events:
            for ev in step_events[metric]:
                fh.write(f"{ev.t},{metric},{ev.sign:+d},{ev.magnitude!r}\n")
