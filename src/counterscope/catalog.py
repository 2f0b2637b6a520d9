"""Metric catalog: the ordered universe of GPU counter descriptors.

The built-in catalog lists the 30 counters the rest of the pipeline works
with, grouped into six categories and ordered row-major by category. That
order is load-bearing: it is the tie-break / scan order for correlation
pruning and the canonical column order for traces and feature vectors.

Each descriptor carries a load direction: most counters rise when the scene
gets busier, but four geometry counters (primitive rejection/clipping and
the two per-polygon averages) fall instead, because a busier scene leaves
the GPU fewer primitives to discard and smaller, simpler polygons to shade.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import schema
from .errors import SchemaError

CATEGORIES = (
    "gpu_utilization",
    "stalls",
    "memory_access",
    "shader_instruction",
    "geometry_rasterization",
    "texture_filtering",
)

UNITS = ("percent", "per_second", "bytes_per_second", "count", "ratio")

INCREASES = "increases_with_load"
DECREASES = "decreases_with_load"

_ID_RE = re.compile(r"^[a-z0-9_]+$")
# a descriptor's fields, as the catalog file and the constructor check them
_ENTRY = (schema.Param("id", str), schema.Param("display_name", str),
          schema.Param("category", str, choices=CATEGORIES),
          schema.Param("unit", str, choices=UNITS),
          schema.Param("direction", str, INCREASES, choices=(INCREASES, DECREASES)))


@dataclass(frozen=True)
class MetricDescriptor:
    """One counter: canonical id, display name, category, unit, direction.

    Ids are lowercase snake_case derived from the display name ("% Texture
    L2 Miss" -> "texture_l2_miss"); leading "%" and bandwidth parentheticals
    fold into the unit. Percent-unit metrics range over [0, 100].
    """

    id: str
    display_name: str
    category: str
    unit: str
    direction: str = INCREASES

    def __post_init__(self):
        schema.fields(vars(self), _ENTRY, "a metric descriptor")
        if not _ID_RE.match(self.id):
            raise SchemaError(f"metric id {self.id!r} is not lowercase snake_case")

    @property
    def sign(self) -> int:
        """+1 for increases_with_load, -1 for decreases_with_load."""
        return 1 if self.direction == INCREASES else -1


@dataclass(frozen=True)
class MetricCatalog:
    """Ordered, immutable collection of unique MetricDescriptors."""

    entries: tuple[MetricDescriptor, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for i, e in enumerate(self.entries):
            if e.id in seen:
                raise SchemaError(f"entry {i}: duplicate metric id {e.id!r}")
            seen.add(e.id)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def ids(self) -> list[str]:
        return [e.id for e in self.entries]

    def __contains__(self, metric_id: str) -> bool:
        return any(e.id == metric_id for e in self.entries)

    def get(self, metric_id: str) -> MetricDescriptor:
        for e in self.entries:
            if e.id == metric_id:
                return e
        raise KeyError(metric_id)

    def index(self, metric_id: str) -> int:
        for i, e in enumerate(self.entries):
            if e.id == metric_id:
                return i
        raise KeyError(metric_id)


# Row-major table of the built-in universe: (id, display name, unit[, direction]).
# Category rows appear in their canonical order; within a row, the order below
# is the canonical metric order.
_BUILTIN_ROWS = [
    ("gpu_utilization", [
        ("gpu_frequency", "GPU Frequency", "per_second"),
        ("gpu_bus_busy", "GPU % Bus Busy", "percent"),
        ("preemptions_per_second", "Preemptions / second", "per_second"),
        ("avg_preemption_delay", "Avg Preemption Delay", "count"),
    ]),
    ("stalls", [
        ("vertex_fetch_stall", "% Vertex Fetch Stall", "percent"),
        ("texture_fetch_stall", "% Texture Fetch Stall", "percent"),
        ("texture_l2_miss", "% Texture L2 Miss", "percent"),
        ("stalled_on_system_memory", "% Stalled on System Memory", "percent"),
    ]),
    ("memory_access", [
        ("vertex_memory_read", "Vertex Memory Read (Bytes/Second)", "bytes_per_second"),
        ("sp_memory_read", "SP Memory Read (Bytes/Second)", "bytes_per_second"),
        ("global_memory_load_instructions", "Global Memory Load Instructions", "count"),
        ("global_buffer_data_read_request_bw", "Global Buffer Data Read Request BW (Bytes/sec)", "bytes_per_second"),
        ("global_buffer_data_read_bw", "Global Buffer Data Read BW (Bytes/sec)", "bytes_per_second"),
        ("global_image_uncompressed_data_read_bw", "Global Image Uncompressed Data Read BW (Bytes/sec)", "bytes_per_second"),
        ("bytes_data_write_requested", "Bytes Data Write Requested", "count"),
        ("bytes_data_actually_written", "Bytes Data Actually Written", "count"),
        ("global_buffer_read_l2_hit", "% Global Buffer Read L2 Hit", "percent"),
    ]),
    ("shader_instruction", [
        ("vertex_instructions_per_second", "Vertex Instructions / Second", "per_second"),
        ("local_memory_store_instructions", "Local Memory Store Instructions", "count"),
        ("avg_load_store_instructions_per_cycle", "Avg Load-Store Instructions Per Cycle", "ratio"),
        ("avg_bytes_per_fragment", "Avg Bytes / Fragment", "ratio"),
        ("l1_texture_cache_miss_per_pixel", "L1 Texture Cache Miss Per Pixel", "ratio"),
    ]),
    ("geometry_rasterization", [
        ("pre_clipped_polygons_per_second", "Pre-clipped Polygons/Second", "per_second"),
        ("prims_trivially_rejected", "% Prims Trivially Rejected", "percent", DECREASES),
        ("prims_clipped", "% Prims Clipped", "percent", DECREASES),
        ("average_vertices_per_polygon", "Average Vertices / Polygon", "ratio", DECREASES),
        ("average_polygon_area", "Average Polygon Area", "ratio", DECREASES),
    ]),
    ("texture_filtering", [
        ("nearest_filtered", "% Nearest Filtered", "percent"),
        ("anisotropic_filtered", "% Anisotropic Filtered", "percent"),
        ("non_base_level_textures", "% Non-Base Level Textures", "percent"),
    ]),
]


def builtin_catalog() -> MetricCatalog:
    """The 30-entry built-in catalog, GPU-utilization row first.

    Deterministic: every call returns an equal catalog.
    """
    entries = []
    for category, row in _BUILTIN_ROWS:
        for spec in row:
            mid, name, unit = spec[:3]
            direction = spec[3] if len(spec) > 3 else INCREASES
            entries.append(MetricDescriptor(mid, name, category, unit, direction))
    return MetricCatalog(tuple(entries))


def load_catalog(path) -> MetricCatalog:
    """Load a catalog from a JSON array file, preserving file order.

    Raises SchemaError naming the file, the entry index and the field on a
    missing field, a wrong kind, a category, unit or direction outside the
    choices of _ENTRY (which MetricDescriptor checks too), or a malformed or
    duplicate id; OSError if the file cannot be read.
    """
    with schema.located(path):
        entries = []
        for i, obj in enumerate(schema.read(schema.load_json(path), list, "a catalog")):
            with schema.located(f"entry {i}"):
                entries.append(MetricDescriptor(**schema.fields(obj, _ENTRY, "an entry")))
        return MetricCatalog(tuple(entries))
