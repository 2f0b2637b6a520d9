import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterscope.catalog import (
    CATEGORIES,
    DECREASES,
    MetricCatalog,
    MetricDescriptor,
    builtin_catalog,
    load_catalog,
)
from counterscope.errors import SchemaError


def write_catalog(catalog, path):
    """The JSON array form load_catalog reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"id": e.id, "display_name": e.display_name, "category": e.category,
                    "unit": e.unit, "direction": e.direction} for e in catalog], fh)


def test_builtin_has_30_entries(catalog):
    assert len(catalog) == 30


def test_first_entry_is_gpu_frequency(catalog):
    assert catalog.entries[0].id == "gpu_frequency"
    assert catalog.entries[0].category == "gpu_utilization"


def test_exactly_four_decreasing_metrics(catalog):
    decreasing = [e.id for e in catalog if e.direction == DECREASES]
    assert decreasing == [
        "prims_trivially_rejected",
        "prims_clipped",
        "average_vertices_per_polygon",
        "average_polygon_area",
    ]


def test_six_categories_in_row_major_order(catalog):
    seen = []
    for e in catalog:
        if not seen or seen[-1] != e.category:
            seen.append(e.category)
    assert seen == list(CATEGORIES)


def test_ids_are_snake_case_and_unique(catalog):
    ids = catalog.ids()
    assert len(set(ids)) == 30
    for mid in ids:
        assert mid == mid.lower()
        assert all(c.isalnum() or c == "_" for c in mid)


def test_builtin_is_deterministic():
    assert builtin_catalog() == builtin_catalog()


def test_catalog_is_immutable(catalog):
    with pytest.raises(Exception):
        catalog.entries = ()


def test_duplicate_id_rejected():
    d = MetricDescriptor("a_metric", "A", "stalls", "percent")
    with pytest.raises(SchemaError, match="duplicate"):
        MetricCatalog((d, d))


def test_unknown_category_rejected():
    with pytest.raises(SchemaError, match="category"):
        MetricDescriptor("a_metric", "A", "nonsense", "percent")


def test_bad_id_rejected():
    with pytest.raises(SchemaError):
        MetricDescriptor("Not Snake", "A", "stalls", "percent")


def test_round_trip_builtin(tmp_path, catalog):
    path = tmp_path / "catalog.json"
    write_catalog(catalog, path)
    assert load_catalog(path) == catalog


def test_load_small_catalog(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps([
        {"id": "m_one", "display_name": "One", "category": "stalls",
         "unit": "percent", "direction": "increases_with_load"},
        {"id": "m_two", "display_name": "Two", "category": "memory_access",
         "unit": "count", "direction": "decreases_with_load"},
    ]))
    cat = load_catalog(path)
    assert cat.ids() == ["m_one", "m_two"]
    assert cat.get("m_two").sign == -1


def test_load_duplicate_id_is_schema_error(tmp_path):
    path = tmp_path / "dup.json"
    entry = {"id": "m_one", "display_name": "One", "category": "stalls",
             "unit": "percent"}
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(SchemaError, match="duplicate"):
        load_catalog(path)


def test_load_unknown_category_reports_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([
        {"id": "m_one", "display_name": "One", "category": "wat", "unit": "percent"},
    ]))
    with pytest.raises(SchemaError, match="entry 0"):
        load_catalog(path)


def test_load_missing_file():
    with pytest.raises(OSError):
        load_catalog("/nonexistent/catalog.json")


def test_index_matches_position(catalog):
    for i, e in enumerate(catalog):
        assert catalog.index(e.id) == i


@settings(max_examples=30)
@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 4), st.booleans()),
    min_size=1, max_size=8))
def test_round_trip_random_catalogs(entries):
    from counterscope.catalog import DECREASES, INCREASES, UNITS

    descriptors = tuple(
        MetricDescriptor(f"metric_{i:02d}", f"Metric {i}", CATEGORIES[cat],
                         UNITS[unit], DECREASES if down else INCREASES)
        for i, (cat, unit, down) in enumerate(entries))
    cat = MetricCatalog(descriptors)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.json")
        write_catalog(cat, path)
        assert load_catalog(path) == cat
