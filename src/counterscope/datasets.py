"""Shipped synthetic datasets and experiment scripts.

Everything here is deterministic: builders regenerate the same corpora from
fixed seeds, so experiments and regression tests can reference them without
checked-in data files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import MetricCatalog, builtin_catalog
from .defense import GaussianNoise
from .seeding import derive_seed
from .simulator import (
    AppSession,
    ClassSpec,
    CorpusSpec,
    MetricResponse,
    ObjectSweep,
    ResponseModel,
    SceneScript,
    StaticObject,
    generate_corpus,
)
from .traces import CorpusItem, LabeledCorpus, TraceSet

# (kept metric, partner metric, correlation) pairs realized by the engineered
# redundancy corpus. Partners of one kept metric share its latent component,
# so their pairwise correlation is the product of their r values (< 0.9).
REDUNDANT_PAIRS: tuple[tuple[str, str, float], ...] = (
    ("gpu_bus_busy", "prims_clipped", -0.995),
    ("vertex_fetch_stall", "texture_fetch_stall", 0.911),
    ("vertex_fetch_stall", "texture_l2_miss", 0.907),
    ("vertex_fetch_stall", "stalled_on_system_memory", 0.913),
    ("vertex_fetch_stall", "prims_trivially_rejected", 0.908),
    ("vertex_fetch_stall", "nearest_filtered", 0.906),
    ("vertex_fetch_stall", "avg_bytes_per_fragment", 0.907),
    ("vertex_fetch_stall", "global_image_uncompressed_data_read_bw", 0.918),
    ("sp_memory_read", "global_buffer_read_l2_hit", -0.932),
    ("sp_memory_read", "bytes_data_actually_written", -0.909),
    ("sp_memory_read", "global_buffer_data_read_bw", 1.000),
    ("preemptions_per_second", "global_buffer_data_read_request_bw", 0.919),
)

# Kept metrics that never cross the redundancy threshold with anything.
UNCORRELATED_KEPT: tuple[str, ...] = (
    "anisotropic_filtered",
    "non_base_level_textures",
    "avg_preemption_delay",
    "global_memory_load_instructions",
    "local_memory_store_instructions",
    "avg_load_store_instructions_per_cycle",
    "bytes_data_write_requested",
)


@dataclass(frozen=True)
class RedundancyCorpus:
    corpus: LabeledCorpus
    expected_retained: tuple[str, ...]
    expected_drops: tuple[tuple[str, str, float], ...]


def redundancy_corpus(seed: int = 20_240_817, n_seconds_per_item: int = 120,
                      n_items: int = 2,
                      catalog: MetricCatalog | None = None) -> RedundancyCorpus:
    """Reference corpus realizing REDUNDANT_PAIRS to machine precision.

    Kept metrics get mutually orthogonal zero-mean latent series; each
    redundant partner mixes its kept metric's latent with a fresh orthogonal
    one at the target correlation, then every column is shifted/scaled to
    its profile's native units (which leaves correlations untouched).
    """
    catalog = catalog if catalog is not None else builtin_catalog()
    kept = [p[0] for p in REDUNDANT_PAIRS] + list(UNCORRELATED_KEPT)
    kept = sorted(set(kept), key=catalog.index)
    partners = [(k, d, r) for k, d, r in REDUNDANT_PAIRS]
    metric_ids = sorted(set(kept) | {d for _, d, _ in partners}, key=catalog.index)

    n = n_seconds_per_item * n_items
    n_latent = len(kept) + len(partners)
    if n < n_latent + 2:
        raise ValueError("not enough samples for orthogonal latents")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n_latent + 1))
    raw[:, 0] = 1.0  # first column spans the mean, so the rest are zero-mean
    q, _ = np.linalg.qr(raw)
    latents = q[:, 1:] * np.sqrt(n)  # unit population variance columns

    base_of = {m: latents[:, i] for i, m in enumerate(kept)}
    columns: dict[str, np.ndarray] = dict(base_of)
    for j, (kept_id, dropped_id, r) in enumerate(partners):
        noise = latents[:, len(kept) + j]
        columns[dropped_id] = r * base_of[kept_id] + np.sqrt(max(0.0, 1.0 - r * r)) * noise

    model = ResponseModel(metric_ids, catalog)
    matrix = model.b_vr + (model.g / 4.0) * np.column_stack([columns[m] for m in metric_ids])

    items = []
    for i in range(n_items):
        block = matrix[i * n_seconds_per_item:(i + 1) * n_seconds_per_item]
        trace = TraceSet(metric_ids, block, t0=0,
                         meta={"scenario": "basic_cube", "repetition": str(i)})
        items.append(CorpusItem(trace, label="basic_cube", group=f"rep{i}"))

    # Drops surface in pair-scan order: each kept metric sheds its partners
    # in catalog order as the scan reaches it.
    order = {m: catalog.index(m) for m in metric_ids}
    expected_drops = sorted(partners, key=lambda p: (order[p[0]], order[p[1]]))
    return RedundancyCorpus(LabeledCorpus(items), tuple(kept), tuple(expected_drops))


def app_class_intensity(class_index: int, metric_ids: list[str],
                        seed: int = 0) -> dict[str, float]:
    """Per-metric app gains in [0.2, 1.0], fixed per (seed, class index)."""
    rng = np.random.default_rng(derive_seed(seed, 0xA55, class_index))
    return {m: float(v) for m, v in zip(metric_ids, rng.uniform(0.2, 1.0, len(metric_ids)))}


def app_corpus_spec(n_classes: int = 20, repetitions: int = 20, seed: int = 7,
                    duration_s: int = 30, scene_type: str = "vr",
                    catalog: MetricCatalog | None = None) -> CorpusSpec:
    """App-fingerprinting corpus spec: one app session per class with a
    distinct per-metric intensity vector, default noise."""
    catalog = catalog if catalog is not None else builtin_catalog()
    ids = catalog.ids()
    classes = []
    for ci in range(n_classes):
        label = f"app{ci:02d}"
        session = AppSession(label, t_start=5.0, t_end=float(duration_s - 5),
                             intensity=app_class_intensity(ci, ids, seed))
        classes.append(ClassSpec(label, SceneScript(
            scene_type=scene_type, duration_s=duration_s, events=(session,))))
    return CorpusSpec(tuple(classes), repetitions=repetitions, seed=seed)


def demo_app_corpus(n_classes: int = 20, repetitions: int = 20, seed: int = 7,
                    catalog: MetricCatalog | None = None,
                    profile: dict[str, MetricResponse] | None = None) -> LabeledCorpus:
    catalog = catalog if catalog is not None else builtin_catalog()
    spec = app_corpus_spec(n_classes, repetitions, seed, catalog=catalog)
    return generate_corpus(spec, catalog, profile)


def pixel_sweep_script(n_samples: int = 1000, scene_type: str = "vr",
                       seed: int = 11, size_min: float = 0.5,
                       size_max: float = 14.0, depth_z: float = 2.0) -> SceneScript:
    """One static object per second with size swept over [size_min, size_max],
    for regressing pixel coverage against texture metrics."""
    sizes = np.linspace(size_min, size_max, n_samples)
    events = tuple(
        StaticObject(size_s=float(s), depth_z=depth_z,
                     t_start=float(t), t_end=float(t + 1))
        for t, s in enumerate(sizes))
    return SceneScript(scene_type=scene_type, duration_s=n_samples, seed=seed,
                       events=events)


def speed_sweep_script(speed_v: float, size_s: float = 6.0, depth_z: float = 2.0,
                       seed: int = 3, scene_type: str = "vr",
                       noise_sigma=None, t_start: float = 5.0,
                       x_start: float = -15.0, x_end: float = 15.0) -> SceneScript:
    """A single left-to-right sweep; trace length covers the slowest pass."""
    travel = abs(x_end - x_start) / speed_v
    duration = int(np.ceil(t_start + travel)) + 10
    sweep = ObjectSweep(size_s=size_s, speed_v=speed_v, depth_z=depth_z,
                        x_start=x_start, x_end=x_end, t_start=t_start)
    return SceneScript(scene_type=scene_type, duration_s=duration, seed=seed,
                       events=(sweep,), noise_sigma=noise_sigma)


def degradation_levels(base_seed: int = 99) -> list[GaussianNoise]:
    """Noise ladder for the shipped countermeasure experiment; level 0 first."""
    sigmas = [0.0, 2.0, 5.0, 10.0, 25.0, 60.0]
    return [GaussianNoise(s, seed=derive_seed(base_seed, i))
            for i, s in enumerate(sigmas)]
