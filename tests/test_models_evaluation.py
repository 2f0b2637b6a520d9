import numpy as np
import pytest

from counterscope.errors import DegenerateInputError, UnknownLabelError
from counterscope.features import Fingerprinter
from counterscope.models import (
    EvaluationReport,
    evaluate,
    grid_search,
    kfold_cv,
    lopo_cv,
    stratified_folds,
    stratified_split,
    train_knn,
    train_rf,
)
from counterscope.traces import CorpusItem, LabeledCorpus, TraceSet


class FixedModel:
    """Predicts a constant label; enough to exercise the report math."""

    def __init__(self, label, classes):
        self.label = label
        self.classes = classes

    def predict(self, features):
        n = np.asarray(getattr(features, "values", features)).shape[0]
        return [self.label] * n


class TestStratifiedSplit:
    def test_80_20_per_label(self):
        labels = [f"c{i % 5}" for i in range(100)]  # 20 per label
        train, test = stratified_split(labels, 0.8, seed=0)
        assert len(train) == 80 and len(test) == 20
        for c in range(5):
            assert sum(labels[i] == f"c{c}" for i in train) == 16
            assert sum(labels[i] == f"c{c}" for i in test) == 4

    def test_half_split_of_pairs(self):
        labels = ["a", "a", "b", "b"]
        train, test = stratified_split(labels, 0.5, seed=1)
        for c in ("a", "b"):
            assert sum(labels[i] == c for i in train) == 1
            assert sum(labels[i] == c for i in test) == 1

    def test_deterministic_and_seed_sensitive(self):
        labels = [f"c{i % 4}" for i in range(40)]
        assert stratified_split(labels, 0.8, 7) == stratified_split(labels, 0.8, 7)
        assert stratified_split(labels, 0.8, 7) != stratified_split(labels, 0.8, 8)

    def test_singleton_label_rejected(self):
        with pytest.raises(DegenerateInputError, match=r"^label 'b' has 1 item\(s\), need >= 2$"):
            stratified_split(["a", "a", "b"], 0.8, 0)

    def test_bad_fraction(self):
        with pytest.raises(DegenerateInputError):
            stratified_split(["a", "a"], 1.0, 0)

    def test_split_is_partition(self):
        labels = [f"c{i % 3}" for i in range(30)]
        train, test = stratified_split(labels, 0.8, 3)
        assert sorted(train + test) == list(range(30))

    def test_split_corpus_wrapper(self):
        from counterscope.models import split_corpus

        items = [CorpusItem(TraceSet(["m_a"], np.full((3, 1), float(i))), f"c{i % 2}")
                 for i in range(10)]
        train, test = split_corpus(LabeledCorpus(items), 0.8, seed=0)
        assert len(train) == 8 and len(test) == 2
        assert sorted(set(train.labels())) == ["c0", "c1"]


class TestEvaluate:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.standard_normal((10, 2)), rng.standard_normal((10, 2)) + 6])
        y = ["a"] * 10 + ["b"] * 10
        model = train_knn(X, y, k=1)
        report = evaluate(model, X, y)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0

    def test_all_one_class_on_balanced_pair(self):
        # confusion [[10, 0], [10, 0]]: accuracy 1/2, macro F1 = (2/3 + 0)/2 = 1/3
        model = FixedModel("a", ["a", "b"])
        X = np.zeros((20, 1))
        y = ["a"] * 10 + ["b"] * 10
        report = evaluate(model, X, y)
        assert report.accuracy == pytest.approx(0.5)
        assert report.macro_f1 == pytest.approx(1.0 / 3.0)

    def test_unknown_label_rejected(self):
        model = FixedModel("a", ["a", "b"])
        with pytest.raises(UnknownLabelError):
            evaluate(model, np.zeros((2, 1)), ["a", "zzz"])

    def test_scalars_recomputable_from_confusion(self):
        rng = np.random.default_rng(1)
        labels = [f"c{i}" for i in range(4)]
        confusion = rng.integers(0, 20, (4, 4))
        report = EvaluationReport.from_confusion(labels, confusion)
        again = EvaluationReport.from_confusion(labels, report.confusion)
        assert abs(report.accuracy - again.accuracy) < 1e-12
        assert abs(report.macro_f1 - again.macro_f1) < 1e-12
        assert abs(report.accuracy - np.trace(confusion) / confusion.sum()) < 1e-12

    def test_f1_zero_convention(self):
        # class "b" never predicted and never true -> precision/recall/f1 all 0
        report = EvaluationReport.from_confusion(["a", "b"], np.array([[5, 0], [0, 0]]))
        b = report.per_class[1]
        assert (b.precision, b.recall, b.f1) == (0.0, 0.0, 0.0)

    def test_csv_and_json(self, tmp_path):
        report = EvaluationReport.from_confusion(["a", "b"], np.array([[3, 1], [0, 4]]))
        report.to_csv(tmp_path / "report.csv")
        report.to_json(tmp_path / "report.json")
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "label,precision,recall,f1,support"
        assert lines[-1].startswith("__accuracy__")


def make_blob_data(n_per=10, k_classes=3, seed=0, gap=6.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.standard_normal((n_per, 2)) + gap * k for k in range(k_classes)])
    y = [f"c{k}" for k in range(k_classes) for _ in range(n_per)]
    return X, y


def blob_corpus(X, y, groups=None):
    """Point i as item i: a one-second trace of its two coordinates, whose
    sequence features are the point z-scored."""
    groups = groups or [""] * len(y)
    return LabeledCorpus([CorpusItem(TraceSet(["m_x", "m_y"], x[None, :]), label, group)
                          for x, label, group in zip(X, y, groups)])


def make_blob_corpus(*args, **kwargs):
    return blob_corpus(*make_blob_data(*args, **kwargs))


def fit_with(trainer):
    return lambda train: Fingerprinter.fit(train, trainer, ["m_x", "m_y"], "sequence")


def rf_trainer(X, y):
    return train_rf(X, y, n_trees=15, seed=0)


rf_fit = fit_with(rf_trainer)


class TestKfold:
    def test_fold_assignments_deterministic(self):
        _, y = make_blob_data()
        assert stratified_folds(y, 5, seed=3) == stratified_folds(y, 5, seed=3)

    def test_leave_one_out_when_k_equals_n(self):
        corpus = make_blob_corpus(n_per=4, k_classes=2)
        report = kfold_cv(corpus, rf_fit, k=4, seed=0)
        assert len(report.folds) == 4

    def test_separable_data_perfect_mean(self):
        report = kfold_cv(make_blob_corpus(), rf_fit, k=5, seed=0)
        assert report.fold_accuracy_mean == 1.0
        assert report.fold_accuracy_std == 0.0

    def test_pooled_confusion_counts_everything(self):
        corpus = make_blob_corpus()
        report = kfold_cv(corpus, rf_fit, k=5, seed=0)
        assert report.confusion.sum() == len(corpus)

    def test_class_smaller_than_k(self):
        with pytest.raises(DegenerateInputError, match=r"^label 'c0' has 3 item\(s\), need >= 5$"):
            kfold_cv(make_blob_corpus(n_per=3), rf_fit, k=5, seed=0)


class TestLopo:
    def test_one_fold_per_group(self):
        X, y = make_blob_data(n_per=12, k_classes=2)
        groups = [f"g{i % 6}" for i in range(len(y))]
        report = lopo_cv(blob_corpus(X, y, groups), rf_fit)
        assert len(report.folds) == 6

    def test_identical_groups_separable(self):
        X, y = make_blob_data(n_per=10, k_classes=2)
        groups = ["g0"] * 10 + ["g1"] * 10
        # interleave labels across groups so each group sees both classes
        y = ["c0"] * 5 + ["c1"] * 5 + ["c0"] * 5 + ["c1"] * 5
        X = np.vstack([X[:5], X[10:15], X[5:10], X[15:20]])
        report = lopo_cv(blob_corpus(X, y, groups), rf_fit)
        assert all(f.accuracy == 1.0 for f in report.folds)

    def test_single_group_rejected(self):
        X, y = make_blob_data(n_per=4, k_classes=2)
        with pytest.raises(DegenerateInputError, match=r"^need >= 2 distinct groups$"):
            lopo_cv(blob_corpus(X, y, ["g0"] * len(y)), rf_fit)


class TestGridSearch:
    def family(self, params):
        return fit_with(lambda X, y: train_knn(X, y, **params))

    def test_singleton_grid(self):
        best, report = grid_search(make_blob_corpus(), self.family, [{"k": 3}], k=3, seed=0)
        assert best == {"k": 3}
        assert report.fold_accuracy_mean == 1.0

    def test_dominant_configuration_wins(self):
        # k=1 is perfect on separated blobs; k equal to fold-train size forces
        # every prediction to the global majority and loses
        corpus = make_blob_corpus(n_per=6, k_classes=2, gap=8.0)
        grid = [{"k": 8}, {"k": 1}]
        best, _ = grid_search(corpus, self.family, grid, k=3, seed=0)
        assert best == {"k": 1}
        # exhaustive re-evaluation agrees
        scores = [kfold_cv(corpus, self.family(g), k=3, seed=0).fold_accuracy_mean
                  for g in grid]
        assert scores[1] > scores[0]

    def test_tie_takes_first_grid_entry(self):
        best, _ = grid_search(make_blob_corpus(), self.family, [{"k": 1}, {"k": 2}],
                              k=3, seed=0)
        assert best == {"k": 1}

    def test_empty_grid_rejected(self):
        with pytest.raises(DegenerateInputError, match=r"^parameter grid is empty$"):
            grid_search(make_blob_corpus(), self.family, [], k=3, seed=0)
