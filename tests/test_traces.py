import json
import re
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterscope.errors import DataError, ParseError, SchemaError, UnknownMetricError
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

    def test_values_of_an_absent_metric_name_it(self):
        with pytest.raises(UnknownMetricError, match="'m_c'"):
            make_trace([[1, 2]]).values("m_c")


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
        with pytest.raises(SchemaError, match=r"bad\.csv: row 3 has 2 cells, expected 3$"):
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


# values around repr's switch between positional and scientific notation
# (exponent -5 and 16), signed zero, subnormals and the extremes
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1e-5, 1e-05 * (1 + 2**-52), 0.0001, 9.999999999999999e-05,
                1e16, 9999999999999998.0, 1e16 + 2, -1e16, 1.7976931348623157e308, 0.1]
_values = st.one_of(st.sampled_from(_EDGE_VALUES),
                    st.floats(allow_nan=False, allow_infinity=False, width=64))


@st.composite
def _traces(draw):
    n_metrics = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_values, min_size=n_metrics, max_size=n_metrics),
                         min_size=1, max_size=15))
    t0 = draw(st.one_of(st.integers(-100, 100), st.integers(-2**62, 2**62)))
    return make_trace(rows, [f"m{j}" for j in range(n_metrics)], t0)


def _outcome(reader, path):
    """A read's TraceSet as comparable bytes, or its error's class, message,
    row and column."""
    try:
        t = reader(path)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return t.metrics, t.t0, t.matrix.shape, t.matrix.tobytes()


_BAD_CELLS = ["oops", "", " ", "1..2", "0x1f", "1e", "nan", "NaN", "inf", "-inf",
              "Infinity", "1e500", "-1e500", "1_0", "1__0", " 2.5 ", "\u0662", "+.5", "1e-400"]
_BAD_TIMES = ["x", "1.0", "1e3", "", " 4 ", "1_0", "+7"]


@st.composite
def _malformed_bodies(draw):
    """(bytes, n_seconds) of a wide CSV whose body carries 1 to 4 faults."""
    n_metrics = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 8))
    t0 = draw(st.integers(-5, 5))
    rows = [[str(t0 + k)] + [repr(draw(_values)) for _ in range(n_metrics)]
            for k in range(n_rows)]
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["cell", "time", "cadence", "ragged", "blank",
                                      "undecodable"]))
        if rows[r] == []:  # a blank line takes no fault but another blank
            fault = "blank"
        if fault == "cell" and len(rows[r]) > 1:
            rows[r][draw(st.integers(1, len(rows[r]) - 1))] = draw(st.sampled_from(_BAD_CELLS))
        elif fault in ("cell", "time"):
            rows[r][0] = draw(st.sampled_from(_BAD_TIMES))
        elif fault == "cadence":
            rows[r][0] = str(draw(st.integers(-10, 10)))
        elif fault == "ragged":
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1.0"]
        elif fault == "blank":
            rows.insert(r, [])
        else:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] += "\udcff"
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = "t_s," + ",".join(f"m{j}" for j in range(n_metrics))
    text = newline.join([header] + [",".join(row) for row in rows])
    text += draw(st.sampled_from(["", newline, newline * 2]))
    return text.encode("utf-8", "surrogateescape")


class TestAgainstCellReference:
    """The block reader and writer against the old cell-at-a-time code in
    trace_reference.py: same bytes, same values, same errors."""

    @settings(max_examples=150, deadline=None)
    @given(_traces())
    def test_valid_traces_match_reference(self, trace):
        from trace_reference import read_reference, write_reference

        with tempfile.TemporaryDirectory() as tmp:
            ours, ref = os.path.join(tmp, "ours.csv"), os.path.join(tmp, "ref.csv")
            write_wide_csv(trace, ours)
            write_reference(trace, ref)
            with open(ours, "rb") as a, open(ref, "rb") as b:
                assert a.read() == b.read()
            assert _outcome(read_wide_csv, ours) == _outcome(read_reference, ours)
            assert read_wide_csv(ours).matrix.tobytes() == trace.matrix.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_malformed_bodies())
    def test_malformed_bodies_raise_as_reference(self, body):
        from trace_reference import read_reference

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.csv")
            with open(path, "wb") as fh:
                fh.write(body)
            assert _outcome(read_wide_csv, path) == _outcome(read_reference, path)

    @pytest.mark.parametrize("body, error, row, col, message", [
        ("0,1.0\n1,2.0,3.0\n2,oops\n", SchemaError, None, None, "row 3 has 3 cells, expected 2"),
        ("0,oops\n1,2.0,3.0\n", ParseError, 2, 2, "row 2, col 2: non-numeric cell 'oops'"),
        ("0,1.0\nx,2.0,3.0\n", SchemaError, None, None, "row 3 has 3 cells, expected 2"),
        ("0,1.0\nx,nan\n", ParseError, 3, 1, "row 3, col 1: bad time value 'x'"),
        ("0,1.0\n1,inf\n5,oops\n", ParseError, 3, 2, "row 3, col 2: non-finite cell 'inf'"),
        ("0,1.0\n5,1.0\n\n2,1e500\n", ParseError, 5, 2,
         "row 5, col 2: non-finite cell '1e500'"),
        ("0,1.0\n5,1.0\n", ParseError, 3, 1,
         "row 3, col 1: time column not 1 Hz consecutive at t=5"),
        ("0,1.0\n\n5,1.0\n", ParseError, 3, 1,
         "row 3, col 1: time column not 1 Hz consecutive at t=5"),
    ])
    def test_first_bad_row_in_file_order_decides(self, tmp_path, body, error, row, col,
                                                 message):
        from trace_reference import read_reference

        path = tmp_path / "bad.csv"
        path.write_text("t_s,m_a\n" + body)
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$") as err:
            read_wide_csv(path)
        assert (getattr(err.value, "row", None), getattr(err.value, "col", None)) == (row, col)
        assert _outcome(read_wide_csv, path) == _outcome(read_reference, path)


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
        with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path / 'gone.csv'))}$"):
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
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: item 1 metric list differs from item 0$"):
            read_manifest(path)

    def test_manifest_order_preserved(self, tmp_path):
        corpus = self.build_corpus(lengths=(4, 4, 4), labels=("z", "m", "a"))
        write_manifest(corpus, tmp_path)
        loaded = read_manifest(tmp_path / "manifest.jsonl")
        assert loaded.labels() == ["z", "m", "a"]
