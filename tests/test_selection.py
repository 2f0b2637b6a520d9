import numpy as np
import pytest

from counterscope.datasets import redundancy_corpus
from counterscope.errors import DataError, DegenerateInputError, UnknownMetricError
from counterscope.models import train_rf
from counterscope.selection import (
    accuracy_screen,
    correlation_prune,
    enforce_cap,
)
from counterscope.stats import pearson
from counterscope.traces import CorpusItem, LabeledCorpus, TraceSet


def corpus_from_matrix(matrix, metrics, n_items=2, label="cube"):
    rows = matrix.shape[0] // n_items
    items = [
        CorpusItem(TraceSet(list(metrics), matrix[i * rows:(i + 1) * rows]), label)
        for i in range(n_items)
    ]
    return LabeledCorpus(items)


class TestCorrelationPrune:
    def test_reproduces_engineered_redundancy_table(self, catalog):
        rc = redundancy_corpus()
        report = correlation_prune(rc.corpus, catalog.ids(), 0.90)
        assert list(report.retained) == list(rc.expected_retained)
        assert [(d.kept, d.dropped) for d in report.dropped] == \
            [(k, d) for k, d, _ in rc.expected_drops]
        for got, (_, _, want_r) in zip(report.dropped, rc.expected_drops):
            tol = 0.003 if abs(want_r) > 0.99 else 0.01
            assert got.r == pytest.approx(want_r, abs=tol)

    def test_strong_negative_pair(self, catalog):
        rc = redundancy_corpus()
        report = correlation_prune(rc.corpus, catalog.ids(), 0.90)
        assert "prims_clipped" not in report.retained
        pair = next(d for d in report.dropped if d.dropped == "prims_clipped")
        assert pair.kept == "gpu_bus_busy"
        assert pair.r == pytest.approx(-0.995, abs=0.003)

    def test_vertex_fetch_stall_row(self, catalog):
        rc = redundancy_corpus()
        report = correlation_prune(rc.corpus, catalog.ids(), 0.90)
        partners = sorted(d.dropped for d in report.dropped
                          if d.kept == "vertex_fetch_stall")
        assert partners == sorted([
            "texture_fetch_stall", "texture_l2_miss", "stalled_on_system_memory",
            "prims_trivially_rejected", "nearest_filtered", "avg_bytes_per_fragment",
            "global_image_uncompressed_data_read_bw"])
        assert "vertex_fetch_stall" in report.retained

    def test_independent_corpus_is_identity(self):
        rng = np.random.default_rng(0)
        metrics = [f"m_{c}" for c in "abcdef"]
        corpus = corpus_from_matrix(rng.standard_normal((400, 6)), metrics)
        report = correlation_prune(corpus, metrics, 0.90)
        assert list(report.retained) == metrics
        assert report.dropped == ()

    def test_partition_invariant(self):
        rng = np.random.default_rng(1)
        metrics = ["m_a", "m_b", "m_c"]
        base = rng.standard_normal(200)
        matrix = np.column_stack([base, base * 2 + 1e-6 * rng.standard_normal(200),
                                  rng.standard_normal(200)])
        corpus = corpus_from_matrix(matrix, metrics)
        report = correlation_prune(corpus, metrics, 0.90)
        dropped = {d.dropped for d in report.dropped}
        assert len(dropped) == len(report.dropped)
        assert set(report.retained) | dropped == set(metrics)
        assert set(report.retained) & dropped == set()

    @pytest.mark.parametrize("seed", range(8))
    def test_no_retained_pair_exceeds_threshold(self, seed):
        # random correlation structures: mix shared latents into random columns
        rng = np.random.default_rng(seed)
        k = 8
        latents = rng.standard_normal((300, 3))
        cols = []
        for j in range(k):
            w = rng.uniform(0, 1, 3) * rng.integers(0, 2, 3)
            cols.append(latents @ w + rng.uniform(0.05, 1.0) * rng.standard_normal(300))
        metrics = [f"m_{j:02d}" for j in range(k)]
        corpus = corpus_from_matrix(np.column_stack(cols), metrics, n_items=1)
        threshold = 0.6
        report = correlation_prune(corpus, metrics, threshold)
        series = {m: corpus.concat_metric(m) for m in metrics}
        for i, a in enumerate(report.retained):
            for b in report.retained[i + 1:]:
                assert abs(pearson(series[a], series[b])) <= threshold

    def test_unknown_metric(self):
        corpus = corpus_from_matrix(np.zeros((10, 1)) + np.arange(10)[:, None],
                                    ["m_x"], n_items=1)
        with pytest.raises(UnknownMetricError):
            correlation_prune(corpus, ["m_other"], 0.9)

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            correlation_prune(LabeledCorpus([]), ["m_a"], 0.9)

    def test_bad_threshold(self):
        corpus = corpus_from_matrix(np.arange(10.0).reshape(-1, 1), ["m_a"], n_items=1)
        with pytest.raises(DataError):
            correlation_prune(corpus, ["m_a"], 0.0)

    def test_report_json_round_trip(self, tmp_path, catalog):
        rc = redundancy_corpus()
        report = correlation_prune(rc.corpus, catalog.ids(), 0.90)
        path = tmp_path / "prune_report.json"
        report.to_json(path)
        import json

        loaded = json.loads(path.read_text())
        assert loaded["retained"] == list(report.retained)
        assert loaded["dropped"][0]["kept"] == report.dropped[0].kept


def informative_corpus(seed=0, reps=12):
    """Three classes; only m_signal separates them, m_noise1/2 are noise."""
    rng = np.random.default_rng(seed)
    items = []
    for ci, label in enumerate(["red", "green", "blue"]):
        for _ in range(reps):
            signal = rng.standard_normal(20) * 0.3 + 4.0 * ci
            matrix = np.column_stack([
                signal, rng.standard_normal(20), rng.standard_normal(20)])
            items.append(CorpusItem(
                TraceSet(["m_signal", "m_noise1", "m_noise2"], matrix), label))
    return LabeledCorpus(items)


class TestAccuracyScreen:
    def trainer(self, features, labels):
        return train_rf(features, labels, n_trees=30, seed=0)

    def test_only_informative_metric_passes(self):
        corpus = informative_corpus()
        passing = accuracy_screen(corpus, self.trainer, 0.6, split_seed=0)
        assert [m for m, _ in passing] == ["m_signal"]
        assert passing[0][1] > 0.6

    def test_unattainable_threshold_empty(self):
        corpus = informative_corpus()
        assert accuracy_screen(corpus, self.trainer, 1.0, split_seed=0) == []

    def test_duplicated_metric_ties_in_catalog_order(self):
        rng = np.random.default_rng(4)
        items = []
        for ci, label in enumerate(["a", "b"]):
            for _ in range(10):
                col = rng.standard_normal(15) * 0.2 + 3.0 * ci
                matrix = np.column_stack([col, col])
                items.append(CorpusItem(TraceSet(["m_one", "m_two"], matrix), label))
        corpus = LabeledCorpus(items)
        passing = accuracy_screen(corpus, self.trainer, 0.6, split_seed=0)
        assert [m for m, _ in passing] == ["m_one", "m_two"]
        assert passing[0][1] == passing[1][1]

    def test_single_label_rejected(self):
        rng = np.random.default_rng(0)
        items = [CorpusItem(TraceSet(["m_a"], rng.standard_normal((5, 1))), "only")
                 for _ in range(4)]
        with pytest.raises(DegenerateInputError, match=r"^screening needs >= 2 labels$"):
            accuracy_screen(LabeledCorpus(items), self.trainer, 0.6)


class TestEnforceCap:
    def test_truncates_with_warning(self):
        ids = [f"m{i}" for i in range(35)]
        with pytest.warns(UserWarning, match="truncated"):
            out = enforce_cap(ids, 30)
        assert out == ids[:30]

    def test_under_cap_unchanged(self):
        ids = [f"m{i}" for i in range(10)]
        assert enforce_cap(ids, 30) == ids

    def test_empty(self):
        assert enforce_cap([], 30) == []
