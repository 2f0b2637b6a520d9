import math

import numpy as np
import pytest

from counterscope.errors import DataError, UnknownMetricError
from counterscope.features import (
    NormalizationStats,
    build_sequences,
    build_stat_features,
    extract_window,
    fit_normalizer,
)
from counterscope.traces import CorpusItem, LabeledCorpus, TraceSet


def corpus_of(columns_per_item, metrics=("m_a", "m_b"), labels=None):
    items = []
    for i, cols in enumerate(columns_per_item):
        matrix = np.column_stack([np.asarray(c, dtype=float) for c in cols])
        label = labels[i] if labels else f"l{i}"
        items.append(CorpusItem(TraceSet(list(metrics), matrix), label))
    return LabeledCorpus(items)


class TestFitNormalizer:
    def test_constant_metric(self):
        corpus = corpus_of([[[5, 5, 5], [1, 2, 3]]])
        norm = fit_normalizer(corpus, ["m_a"])
        assert norm.stats["m_a"] == (5.0, 0.0)

    def test_two_trace_concatenation(self):
        corpus = corpus_of([[[0, 0], [1, 1]], [[10, 10], [1, 1]]])
        norm = fit_normalizer(corpus, ["m_a"])
        assert norm.stats["m_a"] == (5.0, 5.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        cols = [[rng.standard_normal(20), rng.standard_normal(20)] for _ in range(4)]
        corpus = corpus_of(cols)
        norm = fit_normalizer(corpus, ["m_a", "m_b"])
        for j, m in enumerate(["m_a", "m_b"]):
            concat = np.concatenate([c[j] for c in cols]).tolist()
            mu = sum(concat) / len(concat)
            sigma = math.sqrt(sum((v - mu) ** 2 for v in concat) / len(concat))
            assert norm.stats[m][0] == pytest.approx(mu, abs=1e-12)
            assert norm.stats[m][1] == pytest.approx(sigma, abs=1e-12)

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetricError):
            fit_normalizer(corpus_of([[[1, 2], [3, 4]]]), ["m_zzz"])


class TestStatFeatures:
    def test_stat4_row_values(self):
        # normalized series [-1, 0, 1]: mean 0, population sigma sqrt(2/3)
        corpus = corpus_of([[[1, 2, 3], [0, 0, 0]]])
        norm = NormalizationStats({"m_a": (2.0, 1.0)})
        fm = build_stat_features(corpus, ["m_a"], norm)
        assert fm.col_names == ["m_a_mean", "m_a_std", "m_a_max", "m_a_min"]
        row = fm.values[0]
        assert row[0] == pytest.approx(0.0, abs=1e-12)
        assert row[1] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)
        assert row[2] == 1.0
        assert row[3] == -1.0

    def test_widths(self):
        corpus = corpus_of([[[1, 2], [3, 4]]])
        norm = fit_normalizer(corpus, ["m_a", "m_b"])
        assert build_stat_features(corpus, ["m_a", "m_b"], norm, "stat4").values.shape[1] == 8
        assert build_stat_features(corpus, ["m_a", "m_b"], norm, "stat2").values.shape[1] == 4

    def test_constant_metric_all_zero_features(self):
        corpus = corpus_of([[[7, 7, 7], [1, 2, 3]]])
        norm = fit_normalizer(corpus, ["m_a"])
        fm = build_stat_features(corpus, ["m_a"], norm)
        assert fm.values[0].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_row_depends_only_on_its_item(self):
        rng = np.random.default_rng(5)
        cols = [[rng.standard_normal(10), rng.standard_normal(10)] for _ in range(4)]
        corpus = corpus_of(cols)
        norm = fit_normalizer(corpus, ["m_a", "m_b"])
        full = build_stat_features(corpus, ["m_a", "m_b"], norm)
        permuted = corpus.subset([2, 0, 3, 1])
        shuffled = build_stat_features(permuted, ["m_a", "m_b"], norm)
        np.testing.assert_array_equal(shuffled.values, full.values[[2, 0, 3, 1]])

    def test_bad_layout(self):
        corpus = corpus_of([[[1, 2], [3, 4]]])
        norm = fit_normalizer(corpus, ["m_a"])
        with pytest.raises(DataError):
            build_stat_features(corpus, ["m_a"], norm, layout="stat9")

    def test_unknown_metric_in_build(self):
        corpus = corpus_of([[[1, 2], [3, 4]]])
        norm = fit_normalizer(corpus, ["m_a"])
        with pytest.raises(UnknownMetricError):
            build_stat_features(corpus, ["m_zzz"], norm)
        with pytest.raises(UnknownMetricError):
            build_sequences(corpus, ["m_zzz"], norm)


    @pytest.mark.parametrize("layout, width", [("stat4", 4), ("stat2", 2)])
    def test_bit_equal_to_per_series_summarize(self, layout, width):
        """The z-scored (metrics, seconds) block of each item, and the stat
        features and sequences built from it, give the bytes one z-score and
        one summarize() call per series give: lengths 1-40 and a few long
        enough for pairwise summation to split, unequal items, a constant
        metric (sigma 0) and one whose values sit off its fitted constant,
        which must read +0.0 either way."""
        from stat_reference import summarize

        rng = np.random.default_rng(11)
        metrics = ("m_a", "m_b", "m_const", "m_c", "m_off")
        lengths = [*range(1, 41), 129, 600, 9000]
        cols = [[rng.standard_normal(n) * 1e3 + 7, rng.exponential(size=n),
                 np.full(n, 4.25), rng.standard_normal(n) * 1e-7, np.full(n, -2.0)]
                for n in lengths]
        corpus = corpus_of(cols, metrics)
        norm = fit_normalizer(corpus, list(metrics))
        assert norm.stats["m_const"][1] == 0.0
        norm = NormalizationStats({**norm.stats, "m_off": (9.0, 0.0)})
        chosen = ["m_c", "m_off", "m_const", "m_a", "m_b"]

        def zscore(m, values):  # the per-series reference
            mu, sigma = norm.stats[m]
            return np.zeros_like(values) if sigma == 0.0 else (values - mu) / sigma

        series = [[zscore(m, item.trace.values(m)) for m in chosen] for item in corpus]
        for block, want in zip(norm.zscore(corpus, chosen), series):
            assert block.flags.c_contiguous
            assert block.tobytes() == np.array(want).tobytes()
        fm = build_stat_features(corpus, chosen, norm, layout)
        want = np.array([[v for z in zs for v in summarize(z)[:width]] for zs in series])
        assert fm.values.shape == want.shape
        assert fm.values.tobytes() == want.tobytes()
        seq = build_sequences(corpus, chosen, norm).values
        for row, zs in zip(seq, series):
            flat = np.column_stack(zs).reshape(-1)
            assert row[:flat.size].tobytes() == flat.tobytes()
            assert not row[flat.size:].any()

    def test_no_metrics_or_no_items(self):
        corpus = corpus_of([[[1, 2], [3, 4]]])
        norm = fit_normalizer(corpus, ["m_a"])
        assert build_stat_features(corpus, [], norm).values.shape == (1, 0)
        assert build_stat_features(corpus.subset([]), [], norm).values.shape == (0, 0)


class TestLeakageGuard:
    def test_train_stats_on_train_data(self):
        rng = np.random.default_rng(8)
        cols = [[rng.standard_normal(30) * 3 + 5, rng.standard_normal(30)]
                for _ in range(5)]
        train = corpus_of(cols)
        norm = fit_normalizer(train, ["m_a", "m_b"])
        for j in range(2):
            z = np.concatenate([block[j] for block in norm.zscore(train, ["m_a", "m_b"])])
            assert abs(z.mean()) < 1e-9
            assert abs(z.std() - 1.0) < 1e-9


class TestSequences:
    def test_padding_to_max(self):
        corpus = LabeledCorpus([
            CorpusItem(TraceSet(["m_a"], np.ones((30, 1))), "a"),
            CorpusItem(TraceSet(["m_a"], np.ones((40, 1))), "b"),
        ])
        norm = NormalizationStats({"m_a": (0.0, 1.0)})
        fm = build_sequences(corpus, ["m_a"], norm)
        assert fm.values.shape == (2, 40)
        assert (fm.values[0][30:] == 0.0).all()

    def test_equal_lengths_no_padding(self):
        corpus = corpus_of([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
        norm = NormalizationStats({"m_a": (0.0, 1.0), "m_b": (0.0, 1.0)})
        fm = build_sequences(corpus, ["m_a", "m_b"], norm)
        assert fm.values.tolist() == [[1.0, 3.0, 2.0, 4.0], [5.0, 7.0, 6.0, 8.0]]

    def test_time_major_flattening(self):
        corpus = corpus_of([[[1, 2], [3, 4]]])
        norm = NormalizationStats({"m_a": (0.0, 1.0), "m_b": (0.0, 1.0)})
        fm = build_sequences(corpus, ["m_a", "m_b"], norm)
        assert fm.values[0].tolist() == [1.0, 3.0, 2.0, 4.0]
        assert fm.col_names == ["t0000_m_a", "t0000_m_b", "t0001_m_a", "t0001_m_b"]


class TestWindow:
    def trace(self, n=40):
        return TraceSet(["m_a"], np.arange(n, dtype=float).reshape(-1, 1),
                        t0=0, meta={"scenario": "s"})

    def test_ten_second_window(self):
        win = extract_window(self.trace(40), 10, 10)
        assert win.n_seconds == 10
        assert win.t0 == 10
        assert win.values("m_a").tolist() == list(range(10, 20))
        assert win.meta["scenario"] == "s"
        assert "window" in win.meta

    def test_identity_window(self):
        t = self.trace(12)
        win = extract_window(t, 0, 12)
        assert win == t

    def test_out_of_range(self):
        with pytest.raises(DataError):
            extract_window(self.trace(40), 35, 10)
