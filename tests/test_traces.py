import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterscope.errors import (
    DataError,
    InconsistentMetricsError,
    MissingTraceFileError,
    ParseError,
    RaggedRowsError,
)
from counterscope.traces import (
    CorpusItem,
    LabeledCorpus,
    TraceSet,
    read_manifest,
    read_wide_csv,
    write_manifest,
    write_wide_csv,
)


def make_trace(values, metrics=("m_a", "m_b"), t0=0):
    return TraceSet(list(metrics), np.asarray(values, dtype=float), t0=t0)


class TestTraceSet:
    def test_rejects_nan(self):
        with pytest.raises(DataError, match="NaN"):
            make_trace([[1.0, float("nan")]])

    def test_rejects_duplicate_metrics(self):
        with pytest.raises(DataError, match="duplicate"):
            TraceSet(["m", "m"], np.zeros((3, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TraceSet(["m"], np.zeros((0, 1)))

    def test_equality_ignores_meta(self):
        a = make_trace([[1, 2]])
        b = make_trace([[1, 2]])
        b.meta["scenario"] = "x"
        assert a == b
        assert a != make_trace([[1, 3]])


class TestWideCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_s,m_a,m_b\n0,1.5,2.0\n1,3.25,4.0\n2,5.0,6.0\n")
        t = read_wide_csv(path)
        assert t.metrics == ["m_a", "m_b"]
        assert t.n_seconds == 3
        assert t.t0 == 0
        assert t.matrix[1, 0] == 3.25

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t = make_trace(rng.standard_normal((20, 2)) * 1e7, t0=3)
        path = tmp_path / "t.csv"
        write_wide_csv(t, path)
        assert read_wide_csv(path) == t

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,m_a\n0,1.0\n1,oops\n")
        with pytest.raises(ParseError) as err:
            read_wide_csv(path)
        assert err.value.row == 3
        assert err.value.col == 2

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,m_a\n0,nan\n")
        with pytest.raises(ParseError):
            read_wide_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,m_a,m_b\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(RaggedRowsError):
            read_wide_csv(path)

    def test_broken_cadence(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,m_a\n0,1.0\n2,2.0\n")
        with pytest.raises(ParseError, match="1 Hz"):
            read_wide_csv(path)

    def test_missing_file(self):
        with pytest.raises(OSError):
            read_wide_csv("/nonexistent/trace.csv")

    @settings(max_examples=40)
    @given(st.lists(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=2, max_size=2), min_size=1, max_size=12),
        st.integers(-100, 100))
    def test_round_trip_property(self, rows, t0):
        t = make_trace(rows, t0=t0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            write_wide_csv(t, path)
            assert read_wide_csv(path) == t


class TestManifest:
    def build_corpus(self, lengths=(8, 8), labels=("a", "b")):
        items = []
        rng = np.random.default_rng(1)
        for n, label in zip(lengths, labels):
            items.append(CorpusItem(
                make_trace(rng.standard_normal((n, 2))), label, group=f"g_{label}"))
        return LabeledCorpus(items)

    def test_write_read_round_trip(self, tmp_path):
        corpus = self.build_corpus()
        write_manifest(corpus, tmp_path)
        loaded = read_manifest(tmp_path / "manifest.jsonl")
        assert len(loaded) == 2
        assert loaded.labels() == ["a", "b"]
        assert loaded.groups() == ["g_a", "g_b"]
        assert loaded.items[0].trace == corpus.items[0].trace

    def test_missing_trace_file(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps({"trace": "gone.csv", "label": "a", "group": ""}) + "\n")
        with pytest.raises(MissingTraceFileError):
            read_manifest(path)

    def test_inconsistent_metrics(self, tmp_path):
        t1 = make_trace([[1, 2]], metrics=("m_a", "m_b"))
        t2 = TraceSet(["m_a", "m_b", "m_c"], np.zeros((1, 3)))
        write_wide_csv(t1, tmp_path / "t1.csv")
        write_wide_csv(t2, tmp_path / "t2.csv")
        path = tmp_path / "manifest.jsonl"
        path.write_text(
            json.dumps({"trace": "t1.csv", "label": "a", "group": ""}) + "\n"
            + json.dumps({"trace": "t2.csv", "label": "b", "group": ""}) + "\n")
        with pytest.raises(InconsistentMetricsError) as err:
            read_manifest(path)
        assert str(path) in str(err.value)

    def test_manifest_order_preserved(self, tmp_path):
        corpus = self.build_corpus(lengths=(4, 4, 4), labels=("z", "m", "a"))
        write_manifest(corpus, tmp_path)
        loaded = read_manifest(tmp_path / "manifest.jsonl")
        assert loaded.labels() == ["z", "m", "a"]
