"""Synthetic 1 Hz GPU-metric traces from declarative scene scripts.

The signal model ties every counter to a common scalar scene load plus
discrete avatar steps and app-session plateaus:

    m_i(t) = b_i(scene) + sign_i * (g_i * load(t)
                                    + delta_i * joins(t)
                                    + g_i * app_i(t)) + eps_t

* load(t) is the screen coverage of scripted objects: each object at depth z
  with size s contributes kappa * (s/z)^2 while its x position lies inside
  the field of view (half-width fov_width_w * z around screen center); the
  sum is clamped to [0, 1]. Projected area scales quadratically with angular
  size, which makes coverage grow with s and shrink with z, and makes a
  slower sweep occupy the screen for proportionally more seconds.
* joins(t) counts avatars that have entered by second t; each join moves an
  avatar-responsive metric by one step of delta_i, upward or downward with
  the metric's load direction.
* app_i(t) is the summed intensity of active app sessions (per-metric gains
  in [0, 1], amplitude g_i), with a one-second rise at session start and a
  one-second fall after it ends.
* eps_t is i.i.d. Gaussian per second. If the script does not pin
  noise_sigma, each metric uses its profile sigma, doubled in AR scenes
  (passthrough mixing is noisier than a fully rendered view).

Everything is a pure, seeded function of its inputs: equal scripts produce
bit-identical output.

Scripts, events, corpus specs, their classes and metric responses are
checked once, when they are built: the constructors run their fields through
the schema.Param declarations the JSON readers use, so a scene or a profile
meets the same bounds and messages from a file, datasets.py or code.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import MISSING, dataclass, field

import numpy as np

from . import schema
from .catalog import MetricCatalog
from .errors import DataError, SchemaError
from .seeding import derive_seed
from .traces import CorpusItem, LabeledCorpus, TraceSet

SCENE_VR = "vr"
SCENE_AR = "ar"

# Screen-coverage scale for a unit object at unit depth.
COVERAGE_KAPPA = 0.02
# Default field-of-view half-width at depth 1 (scene units).
DEFAULT_FOV_HALF_WIDTH = 8.0
# AR passthrough noise multiplier relative to the profile sigma.
AR_NOISE_FACTOR = 2.0


@dataclass(frozen=True)
class MetricResponse:
    """Per-metric response magnitudes: baselines, load gain, step, noise."""

    b_ar: float
    b_vr: float
    g: float
    delta: float
    sigma: float

    def __post_init__(self):
        schema.fields(vars(self), _RESPONSE, "a response")


_RESPONSE = tuple(schema.Param(f.name, float, minimum=0 if f.name == "sigma" else None)
                  for f in dataclasses.fields(MetricResponse))

# Default response profile for the built-in catalog. Magnitudes are synthetic
# but keep percent metrics inside [0, 100] for the shipped scenarios, keep
# delta at 8x sigma so participant steps stand clear of the noise floor, and
# leave four scene-inert counters (delta = 0): clock frequency, preemption
# behavior and system-memory stalls do not track scene population.
DEFAULT_PROFILE: dict[str, MetricResponse] = {
    "gpu_frequency": MetricResponse(6.45e8, 5.87e8, 2.0e7, 0.0, 3.0e6),
    "gpu_bus_busy": MetricResponse(34.0, 30.0, 55.0, 8.0, 1.0),
    "preemptions_per_second": MetricResponse(132.0, 120.0, 60.0, 0.0, 4.0),
    "avg_preemption_delay": MetricResponse(990.0, 900.0, 250.0, 0.0, 25.0),
    "vertex_fetch_stall": MetricResponse(12.0, 8.0, 45.0, 8.0, 1.0),
    "texture_fetch_stall": MetricResponse(14.0, 10.0, 48.0, 8.0, 1.0),
    "texture_l2_miss": MetricResponse(18.0, 14.0, 42.0, 8.0, 1.0),
    "stalled_on_system_memory": MetricResponse(16.0, 12.0, 40.0, 0.0, 1.0),
    "vertex_memory_read": MetricResponse(3.3e7, 3.0e7, 5.0e7, 6.4e6, 8.0e5),
    "sp_memory_read": MetricResponse(6.05e7, 5.5e7, 7.0e7, 8.8e6, 1.1e6),
    "global_memory_load_instructions": MetricResponse(2.42e6, 2.2e6, 3.5e6, 4.0e5, 5.0e4),
    "global_buffer_data_read_request_bw": MetricResponse(4.4e7, 4.0e7, 6.0e7, 7.2e6, 9.0e5),
    "global_buffer_data_read_bw": MetricResponse(6.6e7, 6.0e7, 9.0e7, 1.04e7, 1.3e6),
    "global_image_uncompressed_data_read_bw": MetricResponse(2.75e7, 2.5e7, 4.5e7, 5.6e6, 7.0e5),
    "bytes_data_write_requested": MetricResponse(1.76e7, 1.6e7, 2.4e7, 3.2e6, 4.0e5),
    "bytes_data_actually_written": MetricResponse(1.54e7, 1.4e7, 2.1e7, 2.8e6, 3.5e5),
    "global_buffer_read_l2_hit": MetricResponse(59.0, 55.0, 35.0, 8.0, 1.0),
    "vertex_instructions_per_second": MetricResponse(8.8e6, 8.0e6, 1.5e7, 2.0e6, 2.5e5),
    "local_memory_store_instructions": MetricResponse(9.9e5, 9.0e5, 1.6e6, 2.0e5, 2.5e4),
    "avg_load_store_instructions_per_cycle": MetricResponse(0.88, 0.8, 1.2, 0.16, 0.02),
    "avg_bytes_per_fragment": MetricResponse(3.3, 3.0, 4.0, 0.56, 0.07),
    "l1_texture_cache_miss_per_pixel": MetricResponse(0.385, 0.35, 0.9, 0.096, 0.012),
    "pre_clipped_polygons_per_second": MetricResponse(1.21e6, 1.1e6, 2.2e6, 2.4e5, 3.0e4),
    "prims_trivially_rejected": MetricResponse(82.0, 78.0, 50.0, 8.0, 1.0),
    "prims_clipped": MetricResponse(78.0, 74.0, 45.0, 8.0, 1.0),
    "average_vertices_per_polygon": MetricResponse(5.9, 5.5, 2.0, 0.4, 0.05),
    "average_polygon_area": MetricResponse(148.0, 140.0, 60.0, 12.8, 1.6),
    "nearest_filtered": MetricResponse(26.0, 22.0, 40.0, 8.0, 1.0),
    "anisotropic_filtered": MetricResponse(22.0, 18.0, 35.0, 8.0, 1.0),
    "non_base_level_textures": MetricResponse(26.0, 20.0, 60.0, 8.0, 1.0),
}

# Fallback response for user-defined metrics absent from a profile.
_GENERIC_RESPONSE = MetricResponse(11.0, 10.0, 20.0, 4.0, 0.5)


class ResponseModel:
    """Per-metric response arrays (b_ar, b_vr, g, delta, sigma, sign) aligned
    with `metrics`: the one place a metric's response is looked up.

    Metrics absent from the profile (default: DEFAULT_PROFILE) take the
    generic fallback response. sign is the catalog load direction, 0 for
    metrics not in the catalog. Given a script, sigma is that script's
    per-second noise: its noise_sigma override where it pins one, else the
    profile sigma, doubled in AR scenes.
    """

    def __init__(self, metrics, catalog: MetricCatalog | None = None,
                 profile: dict[str, MetricResponse] | None = None,
                 script: SceneScript | None = None):
        profile = profile if profile is not None else DEFAULT_PROFILE
        self.metrics = list(metrics)
        responses = [profile.get(m, _GENERIC_RESPONSE) for m in self.metrics]
        self.b_ar, self.b_vr, self.g, self.delta, self.sigma = np.array(
            [(r.b_ar, r.b_vr, r.g, r.delta, r.sigma) for r in responses],
            dtype=float).reshape(-1, 5).T
        self.sign = np.array([catalog.get(m).sign if catalog is not None and m in catalog
                              else 0 for m in self.metrics], dtype=int)
        ns = script.noise_sigma if script is not None else None
        if ns is not None and not isinstance(ns, dict):
            self.sigma = np.full(len(self.metrics), float(ns))
        elif script is not None:
            scale = AR_NOISE_FACTOR if script.scene_type == SCENE_AR else 1.0
            self.sigma = np.array([float((ns or {}).get(m, s * scale))
                                   for m, s in zip(self.metrics, self.sigma)])


def builtin_profile() -> dict[str, MetricResponse]:
    return dict(DEFAULT_PROFILE)


def load_profile(path) -> dict[str, MetricResponse]:
    with schema.located(path):
        out = {}
        for mid, obj in schema.read(schema.load_json(path), dict, "a profile").items():
            with schema.located(f"entry {mid!r}"):
                out[mid] = MetricResponse(**schema.fields(obj, _RESPONSE, "an entry"))
        return out


@dataclass(frozen=True)
class ObjectSweep:
    """An object crossing the scene at constant speed and fixed depth."""

    size_s: float
    speed_v: float
    depth_z: float
    x_start: float
    x_end: float
    t_start: float = 0.0

    @property
    def travel_seconds(self) -> float:
        return abs(self.x_end - self.x_start) / self.speed_v

    @property
    def t_end(self) -> float:
        return self.t_start + self.travel_seconds


@dataclass(frozen=True)
class StaticObject:
    """An object held in view during [t_start, t_end)."""

    size_s: float
    depth_z: float
    t_start: float
    t_end: float


@dataclass(frozen=True)
class AvatarJoin:
    """A participant entering the scene (and staying) at t_join."""

    t_join: float


@dataclass(frozen=True)
class AppSession:
    """A foreground app running during [t_start, t_end].

    intensity maps metric id -> gain in [0, 1]; missing metrics get 0.
    """

    app_id: str
    t_start: float
    t_end: float
    intensity: dict[str, float] = field(default_factory=dict)


SceneEvent = ObjectSweep | StaticObject | AvatarJoin | AppSession

_EVENT_KINDS = {
    "object_sweep": ObjectSweep,
    "static_object": StaticObject,
    "avatar_join": AvatarJoin,
    "app_session": AppSession,
}
_KIND_OF = {cls: kind for kind, cls in _EVENT_KINDS.items()}

# Event field bounds by name, as a field means the same in every event kind that
# has it; _check_event adds that no time is past the script's duration_s.
_TIMES = ("t_start", "t_end", "t_join")
_EVENT_BOUNDS = {**dict.fromkeys(("size_s", "speed_v", "depth_z"), {"above": 0}),
                 **dict.fromkeys(_TIMES, {"minimum": 0})}


def _event_fields(cls) -> tuple[schema.Param, ...]:
    """The fields of an event class, declared from its dataclass fields."""
    return tuple(schema.Param(f.name, {"float": float, "str": str}.get(f.type, dict),
                              f.default_factory() if f.default_factory is not MISSING
                              else schema.REQUIRED if f.default is MISSING else f.default,
                              **_EVENT_BOUNDS.get(f.name, {}))
                 for f in dataclasses.fields(cls))


def _check_event(ev: SceneEvent, duration: int) -> None:
    """ev's fields through their declarations, then the rules that tie them
    together: times within the script, an interval that ends after it starts,
    a sweep that moves, and app gains in [0, 1]."""
    if type(ev) not in _KIND_OF:
        raise SchemaError(f"unknown event type {type(ev).__name__}")
    values = schema.fields(vars(ev), _event_fields(type(ev)), "an event")
    for key in _TIMES:
        if values.get(key, 0) > duration:
            raise SchemaError(f"field {key!r} must be <= duration_s {duration}, got {values[key]}")
    start, end = values.get("t_start", 0), values.get("t_end", math.inf)
    if end <= start:
        raise SchemaError(f"field 't_end' must be > t_start {start}, got {end}")
    if "x_end" in values and values["x_end"] == values["x_start"]:
        raise SchemaError(f"field 'x_end' must differ from x_start, got {values['x_end']}")
    for mid, gain in values.get("intensity", {}).items():
        schema.read(gain, float, f"field 'intensity.{mid}'", minimum=0, maximum=1)


_SCRIPT = (
    schema.Param("scene_type", str, SCENE_VR, choices=(SCENE_VR, SCENE_AR)),
    schema.Param("duration_s", int, 30, 1),
    schema.Param("seed", int, 0),
    schema.Param("fov_width_w", float, DEFAULT_FOV_HALF_WIDTH, above=0),
    schema.Param("events", list, ()),
    schema.Param("noise_sigma", (float, dict), None, 0),
)
_SPEC = (schema.Param("classes", list), schema.Param("repetitions", int, 1, 1),
         schema.Param("seed", int, 0))
_CLASS = (schema.Param("label", str), schema.Param("script", dict))


@dataclass(frozen=True)
class SceneScript:
    scene_type: str = SCENE_VR
    duration_s: int = 30
    seed: int = 0
    fov_width_w: float = DEFAULT_FOV_HALF_WIDTH
    events: tuple[SceneEvent, ...] = ()
    noise_sigma: float | dict[str, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        schema.fields({**vars(self), "events": list(self.events)}, _SCRIPT, "a scene script")
        if isinstance(self.noise_sigma, dict):
            for mid, sigma in self.noise_sigma.items():
                schema.read(sigma, float, f"field 'noise_sigma.{mid}'", minimum=0)
        for k, ev in enumerate(self.events):
            with schema.located(f"events[{k}]"):
                _check_event(ev, self.duration_s)


@dataclass(frozen=True)
class RealizedEvent:
    kind: str
    t_start: float
    t_end: float
    detail: dict = field(default_factory=dict)


@dataclass
class SimulationOutput:
    traces: TraceSet
    ground_truth_pixels: np.ndarray
    event_log: list[RealizedEvent]


def _coverage(size_s: float, depth_z: float) -> float:
    return COVERAGE_KAPPA * (size_s / depth_z) ** 2


def simulate(script: SceneScript, catalog: MetricCatalog,
             profile: dict[str, MetricResponse] | None = None) -> SimulationOutput:
    """Render a script into a TraceSet plus per-second pixel ground truth.

    ground_truth_pixels tracks scripted objects only (avatars and app
    sessions move metrics through their own terms, not the pixel series).
    """
    if len(catalog) == 0:
        raise DataError("catalog must be nonempty")
    model = ResponseModel(catalog.ids(), catalog, profile, script)
    T = script.duration_s
    t = np.arange(T, dtype=float)

    load = np.zeros(T)
    joins = np.zeros(T)
    event_log: list[RealizedEvent] = []
    app_sessions: list[tuple[AppSession, np.ndarray]] = []

    for ev in script.events:
        if isinstance(ev, StaticObject):
            mask = (t >= ev.t_start) & (t < ev.t_end)
            load[mask] += _coverage(ev.size_s, ev.depth_z)
            event_log.append(RealizedEvent(
                "static_object", ev.t_start, ev.t_end,
                {"size_s": ev.size_s, "depth_z": ev.depth_z}))
        elif isinstance(ev, ObjectSweep):
            direction = math.copysign(1.0, ev.x_end - ev.x_start)
            active = (t >= ev.t_start) & (t <= ev.t_end)
            x = ev.x_start + direction * ev.speed_v * (t - ev.t_start)
            visible = active & (np.abs(x) <= script.fov_width_w * ev.depth_z)
            load[visible] += _coverage(ev.size_s, ev.depth_z)
            event_log.append(RealizedEvent(
                "object_sweep", ev.t_start, ev.t_end,
                {"size_s": ev.size_s, "speed_v": ev.speed_v, "depth_z": ev.depth_z,
                 "x_start": ev.x_start, "x_end": ev.x_end}))
        elif isinstance(ev, AvatarJoin):
            joins[t >= ev.t_join] += 1.0
            event_log.append(RealizedEvent("avatar_join", ev.t_join, float(T), {}))
        elif isinstance(ev, AppSession):
            ramp = np.zeros(T)
            ramp[(t > ev.t_start) & (t < ev.t_end)] = 1.0
            ramp[(t >= ev.t_start) & (t < ev.t_start + 1.0)] = 0.5
            ramp[(t >= ev.t_end) & (t < ev.t_end + 1.0)] = 0.5
            app_sessions.append((ev, ramp))
            event_log.append(RealizedEvent(
                "app_session", ev.t_start, ev.t_end, {"app_id": ev.app_id}))

    pixels = np.clip(load, 0.0, 1.0)

    rng = np.random.default_rng(script.seed)
    noise = rng.standard_normal((T, len(catalog)))

    app_level = np.zeros((T, len(catalog)))
    for ev, ramp in app_sessions:
        gains = np.array([float(ev.intensity.get(m, 0.0)) for m in model.metrics])
        app_level += ramp[:, None] * gains
    signal = model.g * pixels[:, None] + model.delta * joins[:, None] + model.g * app_level
    baseline = model.b_ar if script.scene_type == SCENE_AR else model.b_vr
    matrix = baseline + model.sign * signal + model.sigma * noise

    traces = TraceSet(
        catalog.ids(), matrix, t0=0,
        meta={"scene_type": script.scene_type, "seed": str(script.seed)})
    event_log.sort(key=lambda e: (e.t_start, e.kind))
    return SimulationOutput(traces, pixels, event_log)


@dataclass(frozen=True)
class ClassSpec:
    label: str
    script: SceneScript

    def __post_init__(self):
        _CLASS[0].get(vars(self))  # the label; the script checked itself when it was built


@dataclass(frozen=True)
class CorpusSpec:
    classes: tuple[ClassSpec, ...]
    repetitions: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        schema.fields({**vars(self), "classes": list(self.classes)}, _SPEC, "a corpus spec")
        if len(self.classes) < 2:
            raise SchemaError("need >= 2 classes")
        labels = [c.label for c in self.classes]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise SchemaError(f"classes[{i}]: field 'label' repeats {label!r}")


def generate_corpus(spec: CorpusSpec, catalog: MetricCatalog,
                    profile: dict[str, MetricResponse] | None = None) -> LabeledCorpus:
    """classes x repetitions labeled traces, item seeds derived from
    (spec.seed, class index, repetition index). Same spec, same corpus."""
    items = []
    for ci, cls in enumerate(spec.classes):
        for ri in range(spec.repetitions):
            item_seed = derive_seed(spec.seed, ci, ri)
            script = dataclasses.replace(cls.script, seed=item_seed)
            out = simulate(script, catalog, profile)
            out.traces.meta.update({
                "scenario": cls.label,
                "class_index": str(ci),
                "repetition": str(ri),
            })
            items.append(CorpusItem(out.traces, cls.label, group=f"rep{ri:02d}"))
    return LabeledCorpus(items)


def avatar_staircase(n: int, hold_s: int, catalog: MetricCatalog,
                     profile: dict[str, MetricResponse] | None = None,
                     scene_type: str = SCENE_VR, seed: int = 0,
                     noise_sigma: float | dict[str, float] | None = None) -> SimulationOutput:
    """n participants joining hold_s seconds apart after a 2*hold_s lead-in.

    Avatar-responsive metrics show n steps (up or down with their load
    direction); with zero noise every affected metric has exactly n + 1
    distinct levels.
    """
    if n < 0:
        raise DataError(f"participant count must be >= 0, got {n}")
    if hold_s < 1:
        raise DataError(f"hold_s must be >= 1, got {hold_s}")
    lead = 2 * hold_s
    duration = lead + (n + 2) * hold_s
    joins = tuple(AvatarJoin(float(lead + k * hold_s)) for k in range(n))
    script = SceneScript(scene_type=scene_type, duration_s=duration, seed=seed,
                         events=joins, noise_sigma=noise_sigma)
    return simulate(script, catalog, profile)


# ---------------------------------------------------------------------------
# Script (de)serialization: JSON mirror of SceneScript / CorpusSpec.


def _event_from_dict(obj: dict) -> SceneEvent:
    kind = schema.fields(obj, (schema.Param("kind", str, choices=_EVENT_KINDS),),
                         "an event")["kind"]
    declared = _event_fields(_EVENT_KINDS[kind])
    unknown = sorted(set(obj) - {p.key for p in declared} - {"kind"})
    if unknown:
        raise SchemaError(f"field {unknown[0]!r} is not a {kind} field")
    return _EVENT_KINDS[kind](**schema.fields(obj, declared, "an event"))


def script_to_dict(script: SceneScript) -> dict:
    return {
        "scene_type": script.scene_type,
        "duration_s": script.duration_s,
        "seed": script.seed,
        "fov_width_w": script.fov_width_w,
        "noise_sigma": script.noise_sigma,
        "events": [{**dataclasses.asdict(ev), "kind": _KIND_OF[type(ev)]}
                   for ev in script.events],
    }


def script_from_dict(obj: dict) -> SceneScript:
    values = schema.fields(obj, _SCRIPT, "a scene script")
    events = []
    for k, e in enumerate(values.pop("events")):
        with schema.located(f"events[{k}]"):
            events.append(_event_from_dict(e))
    return SceneScript(events=tuple(events), **values)


def load_script(path) -> SceneScript:
    with schema.located(path):
        return script_from_dict(schema.load_json(path))


def corpus_spec_from_dict(obj: dict) -> CorpusSpec:
    values = schema.fields(obj, _SPEC, "a corpus spec")
    classes = []
    for i, c in enumerate(values.pop("classes")):
        with schema.located(f"classes[{i}]"):
            c = schema.fields(c, _CLASS, "a class")
            with schema.located("script"):
                classes.append(ClassSpec(c["label"], script_from_dict(c["script"])))
    return CorpusSpec(classes=tuple(classes), **values)


def load_corpus_spec(path) -> CorpusSpec:
    with schema.located(path):
        return corpus_spec_from_dict(schema.load_json(path))
